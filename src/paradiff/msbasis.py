"""Coarse multiscale spaces for high-contrast diffusion.

Builds one NLMC basis function per continuum (a coarse block's matrix
region or one connected channel part in it) by minimizing energy on the
block's oversampled patch subject to cell-set averages on every continuum
of the patch. Each patch saddle system is a principal submatrix of one
global [[A, C^T], [C, 0]], C the cell-average operator, factored once for
all blocks that share the patch, and the solutions fill one raw-basis
array whose column r is continuum r.

The NLMC set is then split into two subspaces: V_H1 holds the
mean-subtracted channel bases (the stiff directions integrated implicitly)
and V_H2 holds the global mean field plus the matrix bases (treated
explicitly). Galerkin projections of the fine operators onto the split give
the small dense blocks used by the time integrators, and the largest
principal angle between the subspaces in the fine mass inner product
(gamma) controls the waveform-relaxation rate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.ndimage import label as nd_label
from scipy.sparse.linalg import splu

from .fem import FineGrid, FineOperators, PermeabilityField, raster

log = logging.getLogger(__name__)

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
CONSTRAINT_TOL = 1e-8  # largest patch constraint residual that passes without a warning


@dataclass
class CoarsePartition:
    """Uniform partition of the cell grid into nb x nb square blocks.

    Blocks are numbered row-major (block (bx, by) has index by*nb + bx) and
    each block spans cells_per_block cells per axis. The oversampled patch of
    a block extends it by `layers` rings of blocks, clipped at the domain.
    """

    grid: FineGrid
    nb: int
    layers: int

    def __post_init__(self):
        if not (self.nb >= 1 and self.grid.nx % self.nb == 0):
            raise ValueError(f"blocks={self.nb} must be >= 1 and divide nx={self.grid.nx}")
        if not self.layers >= 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")

    @property
    def n_blocks(self) -> int:
        return self.nb * self.nb

    @property
    def cells_per_block(self) -> int:
        return self.grid.nx // self.nb

    def block_span(self, b: int, rings: int) -> tuple[int, int, int, int]:
        """Block index rect of b and `rings` rings of blocks around it, half-open, clipped at the domain."""
        bx, by = b % self.nb, b // self.nb
        return max(bx - rings, 0), min(bx + rings + 1, self.nb), max(by - rings, 0), min(by + rings + 1, self.nb)

    def block_rect(self, b: int) -> tuple[int, int, int, int]:
        """Cell index rect (x0, x1, y0, y1), half-open, of block b."""
        return tuple(self.cells_per_block * v for v in self.block_span(b, 0))

    def block_cells(self, b: int) -> np.ndarray:
        return raster(*self.block_rect(b), self.grid.nx)

    def patch_rect(self, b: int) -> tuple[int, int, int, int]:
        return tuple(self.cells_per_block * v for v in self.block_span(b, self.layers))

    def patch_blocks(self, b: int) -> np.ndarray:
        """Blocks fully contained in the oversampled patch, ascending index."""
        return raster(*self.block_span(b, self.layers), self.nb)

    def patch_interior(self, b: int) -> np.ndarray:
        """Interior numbers of the nodes strictly inside the patch rectangle."""
        x0, x1, y0, y1 = self.patch_rect(b)
        return raster(x0, x1 - 1, y0, y1 - 1, self.grid.nx - 1)


def build_coarse_partition(grid: FineGrid, nb: int, layers: int) -> CoarsePartition:
    return CoarsePartition(grid, nb, layers)


@dataclass
class ContinuumDecomposition:
    """Continua as one cell labelling, plus their cell-average operator.

    label[c] is the continuum of cell c. Continua are numbered block by
    block: matrix cells first (when the block has any), then 4-connected
    channel parts by smallest cell. Continuum r is component[r] (0 = matrix,
    n >= 1 = channel part n) of block[r]. averages (continua x interior
    nodes, csr) maps interior nodal values to each continuum's average.
    """

    partition: CoarsePartition
    label: np.ndarray
    block: np.ndarray
    component: np.ndarray
    averages: sp.csr_matrix

    def m_counts(self) -> list[int]:
        """Channel continua per block."""
        return np.bincount(self.block[self.component > 0], minlength=self.partition.n_blocks).tolist()


def detect_continua(partition: CoarsePartition, field: PermeabilityField) -> ContinuumDecomposition:
    """Label each block's cells by continuum and build the average operator.

    Parts are ranked by their first raster position, which is their
    smallest cell. A block without matrix cells has no matrix continuum
    (logged). A bilinear function averages to its corner mean on a cell, so
    row r sums h^2/4 per cell corner of continuum r and divides by its area.
    """
    grid = partition.grid
    mask = field.channel_mask.reshape(grid.nx, grid.nx)
    label = np.empty(grid.n_cells, dtype=np.intp)
    block, component = [], []
    for b in range(partition.n_blocks):
        x0, x1, y0, y1 = partition.block_rect(b)
        parts = nd_label(mask[y0:y1, x0:x1], structure=FOUR_CONNECTED)[0].ravel()
        ids, first, local = np.unique(parts, return_index=True, return_inverse=True)
        rank = np.argsort(np.argsort(np.where(ids == 0, -1, first)))
        label[partition.block_cells(b)] = len(block) + rank[local]
        start = int(ids[0] != 0)
        if start:
            log.info("block %d has no matrix cells; matrix continuum dropped", b)
        block.extend([b] * ids.size)
        component.extend(range(start, start + ids.size))
    conn = grid.cell_connectivity()
    sums = sp.csr_matrix(
        (np.full(conn.size, grid.h**2 / 4.0), (np.repeat(label, 4), conn.ravel())),
        shape=(len(block), grid.n_nodes),
    )
    sums.data /= np.repeat(np.bincount(label) * grid.h**2, np.diff(sums.indptr))
    return ContinuumDecomposition(partition, label, np.array(block), np.array(component), sums[:, grid.interior])


def saddle_matrix(ops: FineOperators, decomp: ContinuumDecomposition) -> sp.csc_matrix:
    """[[A, C^T], [C, 0]] on the interior nodes, then the continua."""
    return sp.bmat([[ops.A, decomp.averages.T], [decomp.averages, None]], format="csc")


def build_nlmc_basis(
    partition: CoarsePartition,
    decomp: ContinuumDecomposition,
    kkt: sp.csc_matrix,
    blocks: np.ndarray,
    raw: np.ndarray,
) -> np.ndarray:
    """Energy-minimizing bases of the blocks that share one oversampled patch.

    For every continuum m of each block, solves on the patch (zero Dirichlet
    rim) the saddle system: minimize the kappa-energy subject to the basis
    having average delta_{ij} delta_{mn} over continuum (j, n) of every
    block j in the patch: the principal submatrix of kkt (see saddle_matrix)
    on the patch's nodes and continua. One factorization serves every
    continuum of the group, solved 16 columns at a time straight into the
    matching columns of raw. The KKT matrix is structurally symmetric with a
    zero (2,2) block, so it is ordered symmetrically. Returns each block's
    largest constraint residual, in the order of blocks.
    """
    nodes = partition.patch_interior(blocks[0])
    rows = np.flatnonzero(np.isin(decomp.block, partition.patch_blocks(blocks[0])))
    idx = np.concatenate([nodes, partition.grid.n_interior + rows])
    sub = kkt[:, idx][idx]
    try:
        lu = splu(sub, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise RuntimeError(f"singular saddle system on the patch of block {blocks[0]}: {exc}") from exc

    constraints = sub[nodes.size :]
    own = np.flatnonzero(np.isin(decomp.block[rows], blocks))
    column_residual = np.empty(own.size)
    for j in range(0, own.size, 16):
        pos = own[j : j + 16]
        rhs = np.zeros((idx.size, pos.size))
        rhs[nodes.size + pos, np.arange(pos.size)] = 1.0
        sol = lu.solve(rhs)
        raw[nodes[:, None], rows[pos]] = sol[: nodes.size]
        column_residual[j : j + 16] = np.abs(constraints @ sol - rhs[nodes.size :]).max(axis=0)
    owner = decomp.block[rows[own]]
    return np.array([column_residual[owner == b].max() for b in blocks])


def raw_bases(
    partition: CoarsePartition, decomp: ContinuumDecomposition, ops: FineOperators
) -> tuple[np.ndarray, float]:
    """Every block's bases in one (n_interior, n_continua) array, column r
    for continuum r, and the largest patch constraint residual. The blocks
    whose residual exceeds CONSTRAINT_TOL share one warning.

    Blocks are grouped by patch_rect and each distinct patch is factored
    once, so at layers >= nb - 1, where every patch is the whole domain, the
    whole basis is one factorization of the saddle matrix. The array is
    column-major: split_spaces takes dot products on single columns, and a
    strided column can round differently in the last bits.
    """
    kkt = saddle_matrix(ops, decomp)
    raw = np.zeros((ops.grid.n_interior, decomp.block.size), order="F")
    residuals = np.zeros(partition.n_blocks)
    patches: dict[tuple, list[int]] = {}
    for b in range(partition.n_blocks):
        patches.setdefault(partition.patch_rect(b), []).append(b)
    for blocks in patches.values():
        residuals[blocks] = build_nlmc_basis(partition, decomp, kkt, np.array(blocks), raw)
    worst, high = int(residuals.argmax()), int((residuals > CONSTRAINT_TOL).sum())
    if high:
        log.warning("%d blocks have a constraint residual above %g, worst %.2e on block %d",
                    high, CONSTRAINT_TOL, residuals[worst], worst)
    return raw, float(residuals[worst])


@dataclass(frozen=True)
class CoarseSystem:
    """Galerkin projections of the fine mass/stiffness onto the split basis."""

    M11: np.ndarray
    A11: np.ndarray
    M12: np.ndarray
    A12: np.ndarray
    M22: np.ndarray
    A22: np.ndarray

    @property
    def d1(self) -> int:
        return self.M11.shape[0]

    @property
    def d2(self) -> int:
        return self.M22.shape[0]


@dataclass
class MultiscaleSpace:
    """Split coarse space: Psi1 spans V_H1, Psi2 spans V_H2.

    Column 0 of Psi2 is the global mean of all raw bases; the rest are the
    matrix-continuum bases but the last (see split_spaces). Psi1 holds the
    channel bases with their s-projection onto the mean removed. labels
    record (block, component) per column, component 0 meaning matrix and -1
    the mean column.
    """

    decomposition: ContinuumDecomposition
    Psi1: sp.csc_matrix
    Psi2: sp.csc_matrix
    system: CoarseSystem
    labels1: list[tuple[int, int]]
    labels2: list[tuple[int, int]]
    constraint_residual: float = 0.0

    @property
    def d1(self) -> int:
        return self.Psi1.shape[1]

    @property
    def d2(self) -> int:
        return self.Psi2.shape[1]

    def reconstruct(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Fine interior-node vector of the represented function."""
        return self.Psi1 @ u + self.Psi2 @ w


def column_major_csc(dense: np.ndarray) -> sp.csc_matrix:
    """The nonzeros of dense as csc, read column by column.

    Equal to sp.csc_matrix(dense), without its COO round trip; a
    column-major dense array is read in place.
    """
    cols = np.ascontiguousarray(dense.T)
    mask = cols != 0
    indptr = np.zeros(cols.shape[0] + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    rows = np.broadcast_to(np.arange(cols.shape[1], dtype=np.int32), cols.shape)[mask]
    return sp.csc_matrix((cols[mask], rows, indptr), shape=dense.shape)


def split_spaces(
    raw: np.ndarray, decomp: ContinuumDecomposition, ops: FineOperators
) -> tuple[sp.csc_matrix, sp.csc_matrix, list, list]:
    """Split the raw bases into (Psi1, Psi2, labels1, labels2); raw is overwritten.

    The mean field psi_bar is the plain average of every raw column. Each
    channel column is replaced by psi - (m(psi, psi_bar)/m(psi_bar,
    psi_bar)) psi_bar with m the fine mass form, which makes every V_H1
    column mass-orthogonal to psi_bar. The subspace angle gamma is measured
    in the same mass product, and the waveform-relaxation sweep contracts
    like gamma^2, so the subtraction has to happen in this product; a
    kappa-weighted product leaves a near-constant component in V_H1 and
    drives gamma toward 1 at high contrast. V_H2 stacks psi_bar first, then
    the matrix columns.

    With L raw columns, L psi_bar is the sum of every raw column, so psi_bar,
    the matrix columns and the mean-subtracted channel columns carry one
    exact dependency, in which every matrix column has coefficient 1.
    Leaving out the last matrix column removes it and keeps the stacked
    span. A channel column must not go instead: that would leave the
    combination L psi_bar - (sum of matrix columns), which is the channel
    basis sum, inside V_H2, and its tiny mass and contrast-scaled energy
    would wreck the explicit stability bound of the w-update. So on a
    channelized field d1 equals the channel continuum count and d2 the
    block count. Without any matrix column the dependency lies inside V_H1,
    and project_coarse, which checks the stacked set for full rank, raises.
    """
    chan = np.flatnonzero(decomp.component > 0)
    mat = np.flatnonzero(decomp.component == 0)[:-1]
    psi_bar = raw.mean(axis=1)
    s_bar = ops.M @ psi_bar
    denom = float(psi_bar @ s_bar)
    # one dot per column: a batched product can round differently
    coeff = np.array([raw[:, r] @ s_bar for r in chan]) / denom
    if not chan.size:
        log.info("no channel continua found: V_H1 is empty (d1 = 0)")
    psi1 = column_major_csc(raw[:, chan] - psi_bar[:, None] * coeff)
    # V_H2 is laid out in raw's own leading columns, which saves a dense copy
    for i, r in enumerate(mat):  # mat ascends, so r >= i
        raw[:, i] = raw[:, r]
    for i in reversed(range(mat.size)):
        raw[:, i + 1] = raw[:, i]
    raw[:, 0] = psi_bar
    psi2 = column_major_csc(raw[:, : 1 + mat.size])
    labels = list(zip(decomp.block.tolist(), decomp.component.tolist()))
    return psi1, psi2, [labels[r] for r in chan], [(-1, -1)] + [labels[r] for r in mat]


def project_coarse(psi1: sp.csc_matrix, psi2: sp.csc_matrix, ops: FineOperators) -> CoarseSystem:
    """Dense Galerkin blocks Psi_i^T X Psi_j for X in {mass, stiffness}.

    Each block is built by 16-column blocks of sparse times dense products,
    which call no BLAS, so its bits do not depend on the thread count; no
    column depends on the others, so the bits do not depend on the blocking
    either. Diagonal blocks are symmetrized against round-off. Raises
    RuntimeError unless the stacked mass Gram is numerically full rank.
    """

    def gram(x, right, *lefts):
        """left^T x right for each left, by 16-column blocks of right."""
        out = [np.empty((left.shape[1], right.shape[1])) for left in lefts]
        for j in range(0, right.shape[1], 16):
            y = x @ right[:, j : j + 16].toarray()
            for o, left in zip(out, lefts):
                o[:, j : j + 16] = left.T @ y
        return out

    def blocks(x):
        (b11,) = gram(x, psi1, psi1)
        b12, b22 = gram(x, psi2, psi1, psi2)
        return (b11 + b11.T) / 2, b12, (b22 + b22.T) / 2

    m11, m12, m22 = blocks(ops.M)
    a11, a12, a22 = blocks(ops.A)
    vals = np.linalg.eigvalsh(np.block([[m11, m12], [m12.T, m22]]))
    if not vals[0] > 1e-12 * vals[-1]:
        raise RuntimeError(
            f"split coarse space is rank-deficient: mass Gram eigenvalues "
            f"span [{vals[0]:.3e}, {vals[-1]:.3e}]"
        )
    return CoarseSystem(M11=m11, A11=a11, M12=m12, A12=a12, M22=m22, A22=a22)


def project_load(space: MultiscaleSpace, b_fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coarse load pair (F1, F2) = (Psi1^T b, Psi2^T b)."""
    return space.Psi1.T @ b_fine, space.Psi2.T @ b_fine


def subspace_angle(system: CoarseSystem) -> float:
    """gamma: largest cosine between V_H1 and V_H2 in the fine mass product.

    Computed as the top singular value of L1^{-1} M12 L2^{-T} with M11 =
    L1 L1^T and M22 = L2 L2^T. An empty V_H1 or V_H2 gives 0, since the
    splitting then has no cross coupling at all.
    """
    l1 = sla.cholesky(system.M11, lower=True)
    l2 = sla.cholesky(system.M22, lower=True)
    x = sla.solve_triangular(l1, system.M12, lower=True)
    y = sla.solve_triangular(l2, x.T, lower=True).T
    return float(sla.svdvals(y).max(initial=0.0))


def build_multiscale_space(ops: FineOperators, nb: int, layers: int) -> MultiscaleSpace:
    """Full NLMC pipeline: partition, continua, raw bases, split, projection."""
    partition = build_coarse_partition(ops.grid, nb, layers)
    decomp = detect_continua(partition, ops.field)
    raw, residual = raw_bases(partition, decomp, ops)
    psi1, psi2, labels1, labels2 = split_spaces(raw, decomp, ops)
    del raw  # the dense bases live on only in Psi1 and Psi2
    system = project_coarse(psi1, psi2, ops)
    return MultiscaleSpace(
        decomposition=decomp,
        Psi1=psi1,
        Psi2=psi2,
        system=system,
        labels1=labels1,
        labels2=labels2,
        constraint_residual=residual,
    )
