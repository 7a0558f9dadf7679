"""Fine-scale FEM for diffusion with a high-contrast coefficient.

Discretizes u_t - div(kappa grad u) = f on the unit square with homogeneous
Dirichlet boundary values, using bilinear elements on a uniform grid of
square cells. The coefficient kappa is piecewise constant per cell, so all
element integrals are exact. Dirichlet conditions are imposed by eliminating
boundary rows and columns; every operator returned here acts on interior
nodes in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .util import exact_scale

# Reference element matrices for a bilinear element on a square cell of side
# h, corner order (SW, SE, NE, NW). The stiffness matrix of the unit-kappa
# Laplacian on a square is h-independent in 2D; the mass matrix scales by h^2.
STIFF_REF = np.array(
    [
        [4.0, -1.0, -2.0, -1.0],
        [-1.0, 4.0, -1.0, -2.0],
        [-2.0, -1.0, 4.0, -1.0],
        [-1.0, -2.0, -1.0, 4.0],
    ]
) / 6.0
MASS_REF = np.array(
    [
        [4.0, 2.0, 1.0, 2.0],
        [2.0, 4.0, 2.0, 1.0],
        [1.0, 2.0, 4.0, 2.0],
        [2.0, 1.0, 2.0, 4.0],
    ]
) / 36.0


def raster(x0: int, x1: int, y0: int, y1: int, width: int) -> np.ndarray:
    """Row-major indices y*width + x of the lattice rectangle [x0, x1) x [y0, y1)."""
    return (np.arange(y0, y1)[:, None] * width + np.arange(x0, x1)).ravel()


@dataclass
class FineGrid:
    """Uniform grid of nx x nx square cells on [0,1]^2.

    Nodes are numbered row-major: node (ix, iy) has index iy*(nx+1) + ix.
    Cells likewise: cell (cx, cy) has index cy*nx + cx. Interior nodes are
    the nodes with 0 < ix, iy < nx, kept in ascending node order.
    """

    nx: int
    h: float = field(init=False)
    interior: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nx < 2:
            raise ValueError(f"need nx >= 2 cells per axis for interior nodes, got nx={self.nx}")
        self.h = 1.0 / self.nx
        self.interior = raster(1, self.nx, 1, self.nx, self.nx + 1)
        n00 = raster(0, self.nx, 0, self.nx, self.nx + 1)
        self._connectivity = np.stack(
            [n00, n00 + 1, n00 + self.nx + 2, n00 + self.nx + 1], axis=1
        )
        self._connectivity.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) ** 2

    @property
    def n_cells(self) -> int:
        return self.nx**2

    @property
    def n_interior(self) -> int:
        return (self.nx - 1) ** 2

    def cell_connectivity(self) -> np.ndarray:
        """(n_cells, 4) node indices per cell in (SW, SE, NE, NW) order, read-only.

        Built once per grid: assembly and continuum detection read it.
        """
        return self._connectivity

    def cell_centers(self) -> np.ndarray:
        cells = np.arange(self.n_cells)
        cx = cells % self.nx
        cy = cells // self.nx
        return np.column_stack([(cx + 0.5) * self.h, (cy + 0.5) * self.h])


def build_fine_grid(nx: int) -> FineGrid:
    """Construct a square uniform grid with nx cells per axis."""
    return FineGrid(nx)


@dataclass(frozen=True)
class Channel:
    """Axis-aligned rectangle of cells, half-open index ranges [x0,x1) x [y0,y1)."""

    x0: int
    x1: int
    y0: int
    y1: int

    def cell_mask(self, grid: FineGrid) -> np.ndarray:
        if not (0 <= self.x0 < self.x1 <= grid.nx and 0 <= self.y0 < self.y1 <= grid.nx):
            raise ValueError(f"channel {self} exceeds grid bounds {grid.nx}x{grid.nx}")
        mask = np.zeros((grid.nx, grid.nx), dtype=bool)
        mask[self.y0 : self.y1, self.x0 : self.x1] = True
        return mask.ravel()


@dataclass
class PermeabilityField:
    """Cell-wise coefficient plus the channel/matrix classification.

    kappa is flat over cells (row-major). A cell counts as channel when its
    coefficient exceeds the geometric mean of the field's min and max, which
    for a two-valued field equals background*sqrt(contrast). Taken of the
    exactly scaled min and max, it cannot overflow, and a one-valued field
    gets its own value back, which no cell exceeds.
    """

    grid: FineGrid
    kappa: np.ndarray

    @property
    def threshold(self) -> float:
        s = exact_scale(self.kappa)
        return float(s * np.sqrt((self.kappa.min() / s) * (self.kappa.max() / s)))

    @property
    def channel_mask(self) -> np.ndarray:
        return self.kappa > self.threshold

    def as_matrix(self) -> np.ndarray:
        """Coefficient as an (nx, nx) array, one row per cell line."""
        return self.kappa.reshape(self.grid.nx, self.grid.nx)


def generate_field(
    grid: FineGrid,
    background: float = 1.0,
    contrast: float = 1.0,
    channels: list[Channel] | None = None,
) -> PermeabilityField:
    """Two-valued coefficient: background everywhere, background*contrast on channels."""
    if not (0 < background < np.inf and 1 <= contrast < np.inf):
        raise ValueError(f"need finite background > 0 and contrast >= 1, got {background} and {contrast}")
    kappa = np.full(grid.n_cells, background, dtype=float)
    for ch in channels or []:
        kappa[ch.cell_mask(grid)] = background * contrast
    return PermeabilityField(grid, kappa)


@dataclass(frozen=True)
class SourceSpec:
    """Right-hand side f, constant in time.

    kind "constant" fills the domain, "box" fills cells whose centers fall in
    region = (x0, x1, y0, y1) in domain coordinates, "point" marks the single
    cell region = (cx, cy) in cell indices. Construction checks everything
    but the point cell's grid bounds, which cell_values checks.
    """

    kind: str = "constant"
    amplitude: float = 1.0
    region: tuple | None = None

    def __post_init__(self):
        r = self.region
        if self.kind not in ("constant", "box", "point"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"source amplitude must be finite, got {self.amplitude}")
        if self.kind == "constant" and r is not None:
            raise ValueError(f"a constant source takes no region, got {r}")
        if self.kind != "constant" and r is None:
            raise ValueError(f"source kind {self.kind!r} needs a region")
        if self.kind == "box" and not (len(r) == 4 and 0 <= r[0] < r[1] <= 1 and 0 <= r[2] < r[3] <= 1):
            raise ValueError(f"box source region {r} must be x0:x1, y0:y1 ordered inside [0,1]^2")
        if self.kind == "point" and not (len(r) == 2 and all(isinstance(v, (int, np.integer)) for v in r)):
            raise ValueError(f"point source cell {r} must be two cell indices cx, cy")

    def cell_values(self, grid: FineGrid) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.n_cells, self.amplitude)
        if self.kind == "box":
            x0, x1, y0, y1 = self.region
            c = grid.cell_centers()
            inside = (c[:, 0] >= x0) & (c[:, 0] < x1) & (c[:, 1] >= y0) & (c[:, 1] < y1)
            return np.where(inside, self.amplitude, 0.0)
        cx, cy = self.region
        if not (0 <= cx < grid.nx and 0 <= cy < grid.nx):
            raise ValueError(f"point source cell {self.region} outside the {grid.nx}x{grid.nx} grid")
        vals = np.zeros(grid.n_cells)
        vals[cy * grid.nx + cx] = self.amplitude
        return vals


def _assemble(grid: FineGrid, cell_data: np.ndarray, ref: np.ndarray) -> sp.csr_matrix:
    """Sum cell_data[c] * ref over cells onto the full node set."""
    conn = grid.cell_connectivity()
    rows = np.broadcast_to(conn[:, :, None], (grid.n_cells, 4, 4))
    cols = np.broadcast_to(conn[:, None, :], (grid.n_cells, 4, 4))
    data = cell_data[:, None, None] * ref[None, :, :]
    mat = sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())), shape=(grid.n_nodes, grid.n_nodes)
    ).tocsr()
    # duplicate summation order can leave bit-level asymmetry; make it exact
    return (mat + mat.T) * 0.5


def assemble_stiffness(grid: FineGrid, kappa: np.ndarray) -> sp.csr_matrix:
    """Full-node stiffness for cell-wise kappa (no boundary elimination)."""
    if np.any(kappa <= 0):
        raise ValueError("kappa must be strictly positive on every cell")
    return _assemble(grid, np.asarray(kappa, dtype=float), STIFF_REF)


def assemble_mass(grid: FineGrid) -> sp.csr_matrix:
    """Full-node consistent mass."""
    return _assemble(grid, np.full(grid.n_cells, grid.h**2), MASS_REF)


def assemble_load(grid: FineGrid, source: SourceSpec) -> np.ndarray:
    """Consistent load vector on all nodes; exact for cell-wise constant f.

    The integral of each bilinear shape function over one cell is h^2/4, so a
    cell with value f contributes f*h^2/4 to each of its four corners.
    """
    f_cells = source.cell_values(grid)
    b = np.zeros(grid.n_nodes)
    conn = grid.cell_connectivity()
    contrib = f_cells * grid.h**2 / 4.0
    for corner in range(4):
        np.add.at(b, conn[:, corner], contrib)
    return b


@dataclass
class FineOperators:
    """Assembled fine-scale operators.

    M and A act on interior nodes only, ordered by grid.interior; a patch
    solve with a zero-Dirichlet rim takes its stiffness as a principal
    submatrix of A. The load method returns the interior part of the
    consistent load vector.
    """

    grid: FineGrid
    field: PermeabilityField
    M: sp.csr_matrix
    A: sp.csr_matrix

    def load(self, source: SourceSpec) -> np.ndarray:
        return assemble_load(self.grid, source)[self.grid.interior]

    def norm(self, v: np.ndarray) -> float:
        """Discrete L2 norm sqrt(v^T M v) over interior nodes, v scaled exactly so nothing overflows."""
        scale = exact_scale(v)
        x = v / scale
        return float(scale * np.sqrt(x @ (self.M @ x)))


def assemble_fine(grid: FineGrid, field: PermeabilityField) -> FineOperators:
    """Assemble mass and stiffness, then eliminate boundary rows/columns."""
    full_m = assemble_mass(grid)
    full_a = assemble_stiffness(grid, field.kappa)
    idx = grid.interior
    return FineOperators(
        grid=grid,
        field=field,
        M=full_m[idx][:, idx].tocsr(),
        A=full_a[idx][:, idx].tocsr(),
    )


# The reference's Krylov result is checked every _CHECK_EVERY vectors; it settles at a change <= _RTOL.
_CHECK_EVERY, _RTOL, _MAX_VECTORS = 10, 1e-10, 200


class ReferenceSolveError(RuntimeError):
    """The reference's Krylov basis reached _MAX_VECTORS before its result settled."""


def reference_solve(
    ops: FineOperators,
    source: SourceSpec,
    t_end: float,
    n_steps: int,
    u0: np.ndarray | None = None,
    keep_trajectory: bool = True,
):
    """Backward Euler on the full fine space: (M/dt + A) u_{n+1} = M u_n/dt + b.

    Returns (times, states) where states holds every step when
    keep_trajectory is set, otherwise just the initial and final vectors.
    The states come from one M-orthonormal Krylov basis V of (M + gamma A)^-1 M,
    gamma = t_end/10, started from (M + gamma A)^-1 b and a nonzero u0: with the
    Ritz pairs (theta, Y) of (A, M) on V, state n is V Y [rho^n Y^T V^T M u0 +
    (1 - rho^n)/theta Y^T V^T b], rho = 1/(1 + dt theta). Past the cap it raises
    ReferenceSolveError. Exact scaling of (u0, b) keeps V scale-free and 1e308 finite.
    """
    b = ops.load(source)
    u = np.zeros_like(b) if u0 is None else np.asarray(u0, dtype=float)
    s = exact_scale(np.concatenate([u, b]))
    u, b = u / s, b / s
    lu = splu((ops.M + t_end / 10 * ops.A).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    steps = np.arange(n_steps + 1) if keep_trajectory else np.array([0, n_steps])
    V, H = np.empty((_MAX_VECTORS, b.size)), np.zeros((_MAX_VECTORS, _MAX_VECTORS))  # H = V A V^T, lower part
    prev = np.zeros((len(steps), _MAX_VECTORS))
    new, k, j, checked = [w for w in (lu.solve(b) if b.any() else b, u) if w.any()], 0, 0, 0
    while True:
        for w in new:  # M-orthogonalize twice; a vector in the span adds nothing
            mw = ops.M @ w
            norm0 = np.sqrt(w @ mw)
            for _ in range(2):
                w = w - V[:k].T @ (V[:k] @ mw)
                mw = ops.M @ w
            if (norm := np.sqrt(w @ mw)) > 1e-12 * norm0:
                V[k] = w / norm
                H[k, : k + 1], k = V[: k + 1] @ (ops.A @ V[k]), k + 1
        if j == k or k >= checked + _CHECK_EVERY:  # an exhausted space is invariant, so exact
            theta, y = np.linalg.eigh(H[:k, :k])
            n_log_rho = np.outer(steps, -np.log1p(t_end / n_steps * theta))
            a, beta = np.stack([ops.M @ u, b]) @ V[:k].T @ y  # M u0 and b in the Ritz basis
            coef = (np.exp(n_log_rho) * a - np.expm1(n_log_rho) / theta * beta) @ y.T
            # per state, in the M-norm, since V is M-orthonormal
            change = np.max(np.linalg.norm(coef - prev[:, :k], axis=1) / np.linalg.norm(coef, axis=1).clip(1e-300))
            if j == k or change <= _RTOL:
                break
            if k >= _MAX_VECTORS:
                raise ReferenceSolveError(f"{k} Krylov vectors, last relative change {change:.3e}")
            prev[:, :k], checked = coef, k
        new, j = [lu.solve(ops.M @ V[j])], j + 1
    return np.linspace(0.0, t_end, n_steps + 1)[steps], (coef @ V[:k]) * s


def node_values_on_grid(grid: FineGrid, interior_values: np.ndarray) -> np.ndarray:
    """Expand an interior-node vector to the full (nx+1, nx+1) node lattice.

    Boundary nodes get the Dirichlet value zero; rows follow grid lines
    bottom to top.
    """
    full = np.zeros(grid.n_nodes)
    full[grid.interior] = interior_values
    return full.reshape(grid.nx + 1, grid.nx + 1)
