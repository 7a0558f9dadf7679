import numpy as np
import pytest
import scipy.sparse.linalg as spla

from paradiff.fem import (
    MASS_REF,
    STIFF_REF,
    Channel,
    PermeabilityField,
    SourceSpec,
    assemble_fine,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_fine_grid,
    generate_field,
    node_values_on_grid,
    reference_solve,
)


def quadrature_element_matrices(h):
    """Recompute the element matrices by 2x2 Gauss quadrature.

    Shape functions on [0,h]^2 in (SW, SE, NE, NW) corner order; the 2-point
    rule is exact for the bilinear products involved.
    """
    g = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    shapes = [
        lambda x, y: (1 - x) * (1 - y),
        lambda x, y: x * (1 - y),
        lambda x, y: x * y,
        lambda x, y: (1 - x) * y,
    ]
    grads = [
        lambda x, y: (-(1 - y), -(1 - x)),
        lambda x, y: ((1 - y), -x),
        lambda x, y: (y, x),
        lambda x, y: (-y, (1 - x)),
    ]
    stiff = np.zeros((4, 4))
    mass = np.zeros((4, 4))
    for gx in g:
        for gy in g:
            w = 0.25 * h * h
            for i in range(4):
                gi = grads[i](gx, gy)
                for j in range(4):
                    gj = grads[j](gx, gy)
                    # reference gradients scale by 1/h, area element by h^2
                    stiff[i, j] += w * (gi[0] * gj[0] + gi[1] * gj[1]) / h**2
                    mass[i, j] += w * shapes[i](gx, gy) * shapes[j](gx, gy)
    return stiff, mass


def test_reference_matrices_match_quadrature():
    stiff, mass = quadrature_element_matrices(h=0.37)
    assert np.allclose(stiff, STIFF_REF, atol=1e-14)
    assert np.allclose(mass, MASS_REF * 0.37**2, atol=1e-15)


def test_single_interior_node_operators():
    # 2x2 grid has exactly one interior node shared by four cells; summing
    # the diagonal element entries gives A = 4 * (4/6) = 8/3 and
    # M = 4 * (4 h^2 / 36) = h^2 * 4/9 with h = 1/2.
    grid = build_fine_grid(2)
    field = generate_field(grid)
    ops = assemble_fine(grid, field)
    assert ops.A.shape == (1, 1)
    assert np.isclose(ops.A[0, 0], 8.0 / 3.0, rtol=1e-14)
    assert np.isclose(ops.M[0, 0], (1.0 / 9.0), rtol=1e-14)


def test_stiffness_kernel_and_mass_total():
    grid = build_fine_grid(7)
    kappa = np.linspace(1.0, 3.0, grid.n_cells)
    a_full = assemble_stiffness(grid, kappa)
    ones = np.ones(grid.n_nodes)
    assert np.abs(a_full @ ones).max() < 1e-13
    m_full = assemble_mass(grid)
    assert np.isclose(ones @ (m_full @ ones), 1.0, rtol=1e-13)


def test_operators_symmetric_positive():
    grid = build_fine_grid(9)
    field = generate_field(grid, 1.0, 100.0, [Channel(2, 7, 4, 5)])
    ops = assemble_fine(grid, field)
    for mat in (ops.A, ops.M):
        d = mat - mat.T
        assert np.abs(d.toarray()).max() == 0.0
    v = np.sin(np.arange(grid.n_interior))
    assert v @ (ops.A @ v) > 0
    assert v @ (ops.M @ v) > 0


def test_field_generation_values():
    grid = build_fine_grid(10)
    field = generate_field(grid, 2.0, 1e3, [Channel(0, 10, 4, 6)])
    kappa = field.as_matrix()
    assert kappa.shape == (10, 10)
    assert np.all(kappa[4:6, :] == 2e3)
    assert np.all(kappa[:4, :] == 2.0)
    assert np.all(kappa[6:, :] == 2.0)
    mask = field.channel_mask.reshape(10, 10)
    assert mask[4:6].all() and not mask[:4].any()


def test_field_validation():
    grid = build_fine_grid(4)
    with pytest.raises(ValueError):
        generate_field(grid, -1.0, 10.0)
    with pytest.raises(ValueError):
        generate_field(grid, 1.0, 0.5)
    with pytest.raises(ValueError):
        generate_field(grid, float("nan"), float("nan"))
    with pytest.raises(ValueError):
        generate_field(grid, 1.0, float("inf"))
    with pytest.raises(ValueError):
        Channel(0, 5, 0, 2).cell_mask(grid)


def test_channel_threshold_does_not_overflow():
    """min * max overflows at 10 * 1e308; the geometric mean does not."""
    field = PermeabilityField(build_fine_grid(2), np.array([10.0, 1e308, 10.0, 10.0]))
    assert field.threshold == pytest.approx(np.sqrt(10.0) * 1e154, rel=1e-15)
    assert field.channel_mask.tolist() == [False, True, False, False]


@pytest.mark.parametrize("background", [1.0, 2.0, 3.0, 6.0, 0.1, 1e308])
def test_one_valued_field_has_no_channel(background):
    """The threshold of a one-valued field is its value, so no cell exceeds
    it; sqrt(3) * sqrt(3) would round below 3 and mark every cell."""
    field = generate_field(build_fine_grid(4), background, 1.0, [Channel(1, 3, 1, 3)])
    assert field.threshold == background
    assert not field.channel_mask.any()


@pytest.mark.parametrize(
    "make",
    [
        lambda: SourceSpec("box", 1.0, (0.7, 0.3, 0.3, 0.7)),
        lambda: SourceSpec("constant", 1.0, (0.1, 0.2, 0.1, 0.2)),
        lambda: SourceSpec("box", 1.0, None).cell_values(build_fine_grid(4)),
        lambda: SourceSpec("ramp", 1.0),
        lambda: SourceSpec("constant", float("inf")),
        lambda: SourceSpec("point", 1.0, (0.5, 2)),
    ],
    ids=[
        "unordered-box", "constant-with-region", "box-without-region", "unknown-kind",
        "infinite-amplitude", "fractional-point-cell",
    ],
)
def test_bad_source_is_a_value_error(make):
    """The source rules hold at construction, before any grid is seen; the
    unordered box would load nothing and the constant one ignore its region."""
    with pytest.raises(ValueError):
        make()


def test_grid_validation():
    with pytest.raises(ValueError):
        build_fine_grid(1)


def test_load_constant_source_total():
    grid = build_fine_grid(8)
    b = assemble_load(grid, SourceSpec("constant", 3.0))
    # integral of f = 3 over the unit square
    assert np.isclose(b.sum(), 3.0, rtol=1e-14)


def test_load_box_source_uses_domain_coordinates():
    grid = build_fine_grid(4)
    # centers at 0.125, 0.375, 0.625, 0.875; box [0.25, 0.75)^2 hits the
    # middle 2x2 cells only
    vals = SourceSpec("box", 2.0, (0.25, 0.75, 0.25, 0.75)).cell_values(grid)
    picked = np.nonzero(vals)[0]
    assert sorted(picked) == [5, 6, 9, 10]
    assert np.all(vals[picked] == 2.0)


def test_load_point_source_single_cell():
    grid = build_fine_grid(5)
    b = assemble_load(grid, SourceSpec("point", 4.0, (2, 3)))
    nz = np.nonzero(b)[0]
    conn = grid.cell_connectivity()[3 * 5 + 2]
    assert sorted(nz) == sorted(conn)
    assert np.allclose(b[nz], 4.0 * grid.h**2 / 4.0)
    with pytest.raises(ValueError):
        SourceSpec("point", 1.0, (9, 0)).cell_values(grid)
    with pytest.raises(ValueError):
        SourceSpec("ramp", 1.0).cell_values(grid)


def test_backward_euler_eigenmode_decay():
    """On an eigenvector of (A, M), backward Euler has a closed form.

    The discrete sine is an exact eigenvector of both tensor-product
    operators, so u_n = u0 / (1 + dt*lambda)^n holds to round-off; this
    pins the time stepping independent of any spatial convergence argument.
    """
    grid = build_fine_grid(12)
    ops = assemble_fine(grid, generate_field(grid))
    # interior node (ix, iy) sits at (ix h, iy h), row-major
    s = np.sin(np.pi * grid.h * np.arange(1, grid.nx))
    v = np.outer(s, s).ravel()
    mv = ops.M @ v
    lam = float(v @ (ops.A @ v)) / float(v @ mv)
    assert np.linalg.norm(ops.A @ v - lam * mv) < 1e-12 * np.linalg.norm(ops.A @ v)

    n_steps = 7
    t_end = 0.02
    dt = t_end / n_steps
    _, states = reference_solve(ops, SourceSpec("constant", 0.0), t_end, n_steps, u0=v)
    expect = v / (1.0 + dt * lam) ** n_steps
    assert np.linalg.norm(states[-1] - expect) < 1e-12 * np.linalg.norm(expect)
    assert len(states) == n_steps + 1


def test_backward_euler_reaches_steady_state():
    grid = build_fine_grid(10)
    ops = assemble_fine(grid, generate_field(grid, 1.0, 50.0, [Channel(2, 8, 4, 6)]))
    src = SourceSpec("constant", 1.0)
    _, states = reference_solve(ops, src, t_end=50.0, n_steps=400, keep_trajectory=False)
    u_inf = spla.spsolve(ops.A.tocsc(), ops.load(src))
    assert ops.norm(states[-1] - u_inf) < 1e-6 * ops.norm(u_inf)
    assert states.shape[0] == 2


def backward_euler_loop(ops, b, u0, t_end, n_steps):
    """The reference by its definition: one sparse solve per step."""
    dt = t_end / n_steps
    lu = spla.splu((ops.M / dt + ops.A).tocsc())
    states = [u0]
    for _ in range(n_steps):
        states.append(lu.solve(ops.M @ states[-1] / dt + b))
    return np.array(states)


@pytest.mark.parametrize("keep_trajectory", [True, False])
def test_reference_matches_the_backward_euler_loop(channel_pipeline, rng, keep_trajectory):
    """Evaluated from one Krylov space, each state is the stepped one to 1e-10.

    u0 is scaled so that it and the source contribute alike at T."""
    ops, cfg = channel_pipeline.ops, channel_pipeline.config
    u0 = 0.01 * rng.standard_normal(ops.M.shape[0])
    times, states = reference_solve(
        ops, cfg.to_source(), cfg.t_end, 100, u0=u0, keep_trajectory=keep_trajectory
    )
    expect = backward_euler_loop(ops, ops.load(cfg.to_source()), u0, cfg.t_end, 100)
    if not keep_trajectory:
        expect = expect[[0, -1]]
    assert states.shape == expect.shape and len(times) == len(states)
    for got, want in zip(states, expect):
        assert ops.norm(got - want) <= 1e-10 * ops.norm(want)


def test_node_values_on_grid_layout():
    grid = build_fine_grid(3)
    vals = node_values_on_grid(grid, np.array([1.0, 2.0, 3.0, 4.0]))
    assert vals.shape == (4, 4)
    assert vals[1, 1] == 1.0 and vals[1, 2] == 2.0
    assert vals[2, 1] == 3.0 and vals[2, 2] == 4.0
    assert vals[0].sum() == 0.0 and vals[-1].sum() == 0.0
    assert vals[:, 0].sum() == 0.0 and vals[:, -1].sum() == 0.0


def test_interior_norm_matches_mass():
    grid = build_fine_grid(6)
    ops = assemble_fine(grid, generate_field(grid))
    v = np.arange(grid.n_interior, dtype=float)
    assert np.isclose(ops.norm(v), np.sqrt(v @ (ops.M @ v)), rtol=1e-15)


def test_interior_norm_does_not_overflow():
    """The norm scales v by a power of two first: its bits are unchanged in
    range, it is homogeneous where sqrt(v^T M v) would overflow, and a zero
    vector has norm 0."""
    grid = build_fine_grid(6)
    ops = assemble_fine(grid, generate_field(grid))
    v = np.arange(grid.n_interior, dtype=float)
    assert ops.norm(v) == float(np.sqrt(v @ (ops.M @ v)))
    assert np.isclose(ops.norm(1e300 * v), 1e300 * ops.norm(v), rtol=1e-14)
    assert ops.norm(np.zeros(grid.n_interior)) == 0.0
