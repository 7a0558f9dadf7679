import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from paradiff.fem import Channel, assemble_fine, build_fine_grid, generate_field
from paradiff.msbasis import (
    build_coarse_partition,
    build_multiscale_space,
    build_nlmc_basis,
    detect_continua,
    project_coarse,
    project_load,
    raw_bases,
    saddle_matrix,
    subspace_angle,
)


def small_ops(nx=16, channels=((1, 15, 6, 8),), contrast=1e4):
    grid = build_fine_grid(nx)
    field = generate_field(grid, 1.0, contrast, [Channel(*c) for c in channels])
    return assemble_fine(grid, field)


def cell_average(grid, col_interior, cells):
    """Independent cell-set average: mean over cells of the corner mean."""
    full = np.zeros(grid.n_nodes)
    full[grid.interior] = col_interior
    corners = full[grid.cell_connectivity()[cells]]
    return corners.mean()


def continuum_cells(decomp, block, component):
    """Cells of one continuum, ascending."""
    (r,) = np.flatnonzero((decomp.block == block) & (decomp.component == component))
    return np.flatnonzero(decomp.label == r)


def labelled_field():
    """16x16 grid, 4x4 blocks: blocks 0 and 1 hold two channel strips each,
    blocks 10, 11, 14 and 15 are all channel, every other block all matrix."""
    grid = build_fine_grid(16)
    channels = [Channel(0, 8, 1, 2), Channel(0, 8, 3, 4), Channel(8, 16, 8, 16)]
    field = generate_field(grid, 1.0, 1e4, channels)
    return build_coarse_partition(grid, 4, layers=1), field


def test_partition_geometry():
    grid = build_fine_grid(16)
    part = build_coarse_partition(grid, 4, layers=1)
    assert part.cells_per_block == 4 and part.n_blocks == 16
    assert part.block_rect(0) == (0, 4, 0, 4)
    assert part.block_rect(5) == (4, 8, 4, 8)
    assert part.block_rect(15) == (12, 16, 12, 16)
    # patches clip at the domain edge
    assert part.patch_rect(0) == (0, 8, 0, 8)
    assert part.patch_rect(5) == (0, 12, 0, 12)
    assert list(part.patch_blocks(0)) == [0, 1, 4, 5]
    assert list(part.patch_blocks(5)) == [0, 1, 2, 4, 5, 6, 8, 9, 10]
    cells = part.block_cells(1)
    assert cells.min() == 4 and cells.max() == 3 * 16 + 7 and cells.size == 16


def test_partition_validation():
    grid = build_fine_grid(10)
    with pytest.raises(ValueError):
        build_coarse_partition(grid, 3)
    with pytest.raises(ValueError):
        build_coarse_partition(grid, 5, layers=-1)


def test_detect_continua_hand_case():
    # 8x8 grid, 2x2 blocks. One horizontal strip through the lower two
    # blocks (y-cells 1..2) and an isolated 1x1 spot in the upper-left
    # block. Per block, channel parts enumerate 4-connected components.
    grid = build_fine_grid(8)
    field = generate_field(grid, 1.0, 1e4, [Channel(0, 8, 1, 3), Channel(2, 3, 6, 7)])
    part = build_coarse_partition(grid, 2, layers=1)
    decomp = detect_continua(part, field)
    assert decomp.m_counts() == [1, 1, 1, 0]
    strip_left = continuum_cells(decomp, 0, 1)
    expect = np.array([8, 9, 10, 11, 16, 17, 18, 19])
    assert np.array_equal(strip_left, expect)
    spot = continuum_cells(decomp, 2, 1)
    assert np.array_equal(spot, np.array([6 * 8 + 2]))
    # matrix cells complement the channel inside each block
    assert continuum_cells(decomp, 0, 0).size == 16 - 8
    assert continuum_cells(decomp, 3, 0).size == 16
    assert sum(decomp.m_counts()) == 3


def test_detect_continua_splits_disconnected_parts():
    # two parallel strips in the same block stay separate components and
    # are ordered by their smallest global cell index
    grid = build_fine_grid(8)
    field = generate_field(grid, 1.0, 1e4, [Channel(0, 4, 0, 1), Channel(0, 4, 2, 3)])
    part = build_coarse_partition(grid, 2, layers=0)
    decomp = detect_continua(part, field)
    assert decomp.m_counts()[0] == 2
    parts = [continuum_cells(decomp, 0, n) for n in (1, 2)]
    assert parts[0][0] < parts[1][0]
    assert np.array_equal(parts[0], np.array([0, 1, 2, 3]))
    assert np.array_equal(parts[1], np.array([16, 17, 18, 19]))


def test_averages_match_cell_average_oracle(rng):
    part, field = labelled_field()
    grid = part.grid
    decomp = detect_continua(part, field)
    assert decomp.averages.shape == (decomp.block.size, grid.n_interior)
    for _ in range(3):
        v = rng.standard_normal(grid.n_interior)
        want = [cell_average(grid, v, np.flatnonzero(decomp.label == r)) for r in range(decomp.block.size)]
        assert np.allclose(decomp.averages @ v, want, rtol=1e-12, atol=1e-14)


def test_continuum_labelling_invariants():
    part, field = labelled_field()
    decomp = detect_continua(part, field)
    # every cell's continuum belongs to that cell's block
    cell_block = np.empty(part.grid.n_cells, dtype=int)
    for b in range(part.n_blocks):
        cell_block[part.block_cells(b)] = b
    assert np.array_equal(decomp.block[decomp.label], cell_block)
    # per block the components are 0..m, or 1..m without matrix cells
    m = decomp.m_counts()
    for b in range(part.n_blocks):
        has_matrix = not field.channel_mask[part.block_cells(b)].all()
        assert list(decomp.component[decomp.block == b]) == list(range(1 - has_matrix, m[b] + 1))
    assert m[0] == m[1] == 2 and m[10] == m[15] == 1 and m[5] == 0
    assert list(decomp.component[decomp.block == 10]) == [1]


def test_nlmc_basis_constraints_delta_structure():
    ops = small_ops()
    part = build_coarse_partition(ops.grid, 4, layers=2)
    decomp = detect_continua(part, ops.field)
    kkt = saddle_matrix(ops, decomp)
    for block in range(part.n_blocks):
        nodes, psi, residual = build_nlmc_basis(part, decomp, kkt, block)
        assert residual <= 1e-8
        for pos, comp in enumerate(decomp.component[decomp.block == block]):
            col = np.zeros(ops.grid.n_interior)
            col[nodes] = psi[:, pos]
            for j in part.patch_blocks(block):
                for comp_j in decomp.component[decomp.block == j]:
                    want = 1.0 if (j == block and comp_j == comp) else 0.0
                    got = cell_average(ops.grid, col, continuum_cells(decomp, j, comp_j))
                    assert abs(got - want) <= 1e-8, (block, j, comp_j)


def test_nlmc_basis_supported_on_patch():
    ops = small_ops()
    part = build_coarse_partition(ops.grid, 4, layers=1)
    decomp = detect_continua(part, ops.field)
    raw, _ = raw_bases(part, decomp, ops)
    inside = np.zeros(ops.grid.n_interior, dtype=bool)
    inside[part.patch_interior(0)] = True
    assert np.abs(raw[~inside][:, decomp.block == 0]).max() == 0.0


def test_patch_systems_are_principal_submatrices(channel_pipeline):
    # reference: the patch saddle system assembled from its blocks, over an
    # inverse map of the patch's global node numbers
    part, field = labelled_field()
    setups = [
        (channel_pipeline.space.decomposition, channel_pipeline.ops),
        (detect_continua(part, field), assemble_fine(part.grid, field)),
    ]
    for decomp, ops in setups:
        part, grid, c = decomp.partition, ops.grid, decomp.averages
        kkt = saddle_matrix(ops, decomp)
        inv = np.full(grid.n_nodes, -1)
        inv[grid.interior] = np.arange(grid.n_interior)
        for b in range(part.n_blocks):
            x0, x1, y0, y1 = part.patch_rect(b)
            local = inv[(np.arange(y0 + 1, y1)[:, None] * (grid.nx + 1) + np.arange(x0 + 1, x1)).ravel()]
            rows = np.flatnonzero(np.isin(decomp.block, part.patch_blocks(b)))
            oracle = sp.bmat([[ops.A[local][:, local], c[rows][:, local].T], [c[rows][:, local], None]])
            assert np.array_equal(part.patch_interior(b), local)
            idx = np.concatenate([local, grid.n_interior + rows])
            sub = kkt[:, idx][idx]
            assert sub.shape == oracle.shape and (sub != oracle).nnz == 0, b


def test_split_mass_orthogonality_and_labels():
    ops = small_ops()
    space = build_multiscale_space(ops, 4, layers=2)
    psi_bar = space.Psi2[:, 0].toarray().ravel()
    cross = space.Psi1.T @ (ops.M @ psi_bar)
    assert np.abs(cross).max() < 1e-12
    assert np.abs(space.system.M12[:, 0]).max() < 1e-12
    assert space.labels2[0] == (-1, -1)
    assert all(lbl[1] >= 1 for lbl in space.labels1)
    assert all(lbl[1] == 0 for lbl in space.labels2[1:])


def test_split_counts_and_single_prune():
    ops = small_ops()
    space = build_multiscale_space(ops, 4, layers=2)
    decomp = space.decomposition
    assert space.d1 == sum(decomp.m_counts()) == 4
    assert space.d2 == 16
    dropped = {(b, 0) for b in range(16)} - {lbl for lbl in space.labels2}
    assert dropped == {(15, 0)}


def test_stacked_basis_full_rank_and_span():
    ops = small_ops()
    space = build_multiscale_space(ops, 4, layers=2)
    stacked = sp.hstack([space.Psi1, space.Psi2]).tocsc()
    gram = (stacked.T @ (ops.M @ stacked)).toarray()
    vals = np.linalg.eigvalsh(gram)
    assert vals[0] > 1e-10 * vals[-1]
    # the split keeps the span of the raw bases: reproduce block 5's raw
    # columns, one per kind, through the stacked set
    decomp = space.decomposition
    raw, _ = raw_bases(space.partition, decomp, ops)
    cols = raw[:, decomp.block == 5]
    coef, *_ = np.linalg.lstsq(stacked.toarray(), cols, rcond=None)
    recon = stacked @ coef
    assert np.abs(recon - cols).max() < 1e-8 * max(1.0, np.abs(cols).max())


def test_gamma_matches_scipy_subspace_angles(channel_pipeline):
    space = channel_pipeline.space
    ops = channel_pipeline.ops
    lmass = sla.cholesky(ops.M.toarray(), lower=True)
    q1 = lmass.T @ space.Psi1.toarray()
    q2 = lmass.T @ space.Psi2.toarray()
    angles = sla.subspace_angles(q1, q2)
    gamma_ref = float(np.cos(angles.min()))
    gamma = subspace_angle(space.system)
    assert np.isclose(gamma, gamma_ref, atol=1e-10)
    assert 0.0 <= gamma < 1.0


def test_gamma_bounds_random_pairs(channel_pipeline, rng):
    sysb = channel_pipeline.space.system
    gamma = subspace_angle(sysb)
    best = 0.0
    for _ in range(200):
        x = rng.standard_normal(sysb.d1)
        y = rng.standard_normal(sysb.d2)
        num = abs(x @ (sysb.M12 @ y))
        den = np.sqrt((x @ (sysb.M11 @ x)) * (y @ (sysb.M22 @ y)))
        best = max(best, num / den)
    assert best <= gamma + 1e-12
    assert best > 0.1 * gamma


def test_gamma_zero_without_channels(homogeneous_pipeline):
    assert homogeneous_pipeline.space.d1 == 0
    assert subspace_angle(homogeneous_pipeline.space.system) == 0.0


def test_homogeneous_space_counts(homogeneous_pipeline):
    space = homogeneous_pipeline.space
    assert space.d1 == 0
    assert space.d2 == space.partition.n_blocks
    assert space.labels2[0] == (-1, -1)


def test_fully_channel_block():
    # one block entirely channel: it contributes no matrix continuum and
    # the counts still add up to the raw basis count
    ops = small_ops(nx=8, channels=((4, 8, 4, 8),))
    space = build_multiscale_space(ops, 2, layers=1)
    assert space.d1 == 1
    assert space.d2 == 3
    s = space.system
    vals = np.linalg.eigvalsh(np.block([[s.M11, s.M12], [s.M12.T, s.M22]]))
    assert vals[0] > 0


def test_rank_deficient_split_raises(channel_pipeline):
    space = channel_pipeline.space
    psi2 = sp.hstack([space.Psi2, space.Psi2[:, 1]]).tocsc()
    with pytest.raises(RuntimeError, match="rank-deficient"):
        project_coarse(space.Psi1, psi2, channel_pipeline.ops)


def test_coarse_system_spd_blocks(channel_pipeline):
    sysb = channel_pipeline.space.system
    for mat in (sysb.M11, sysb.M22, sysb.A11):
        assert np.abs(mat - mat.T).max() == 0.0
        sla.cholesky(mat)
    vals = np.linalg.eigvalsh(sysb.A22)
    assert vals[0] > -1e-10 * max(vals[-1], 1.0)


def test_projection_matches_dense(channel_pipeline):
    space = channel_pipeline.space
    ops = channel_pipeline.ops
    p1 = space.Psi1.toarray()
    p2 = space.Psi2.toarray()
    m_f = ops.M.toarray()
    assert np.allclose(space.system.M11, p1.T @ m_f @ p1, atol=1e-13)
    assert np.allclose(space.system.M12, p1.T @ m_f @ p2, atol=1e-13)
    assert np.allclose(space.system.M22, p2.T @ m_f @ p2, atol=1e-13)
    a_f = ops.A.toarray()
    assert np.allclose(space.system.A11, p1.T @ a_f @ p1, rtol=1e-12, atol=1e-10)
    assert np.allclose(space.system.A12, p1.T @ a_f @ p2, rtol=1e-12, atol=1e-10)
    assert np.allclose(space.system.A22, p2.T @ a_f @ p2, rtol=1e-12, atol=1e-10)


def test_patch_constraints_hold_to_round_off(channel_pipeline):
    # the symmetric ordering of the saddle systems keeps the averages exact
    # to round-off; the 1e-8 checks above only catch a broken solve
    assert channel_pipeline.space.constraint_residual <= 1e-13


def test_project_load_is_transpose_product(channel_pipeline, rng):
    space = channel_pipeline.space
    b = rng.standard_normal(channel_pipeline.grid.n_interior)
    f1, f2 = project_load(space, b)
    assert np.allclose(f1, space.Psi1.T @ b)
    assert np.allclose(f2, space.Psi2.T @ b)


def test_reconstruct_is_linear_combination(channel_pipeline, rng):
    space = channel_pipeline.space
    u = rng.standard_normal(space.d1)
    w = rng.standard_normal(space.d2)
    fine = space.reconstruct(u, w)
    assert np.allclose(fine, space.Psi1 @ u + space.Psi2 @ w)

