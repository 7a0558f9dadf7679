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
            raise ValueError("need at least 2 cells per axis for interior nodes")
        self.h = 1.0 / self.nx
        i = np.arange(1, self.nx)
        self.interior = (i[:, None] * (self.nx + 1) + i[None, :]).ravel()
        cells = np.arange(self.n_cells)
        n00 = (cells // self.nx) * (self.nx + 1) + cells % self.nx
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
    for a two-valued field equals background*sqrt(contrast).
    """

    grid: FineGrid
    kappa: np.ndarray

    @property
    def threshold(self) -> float:
        return float(np.sqrt(self.kappa.min() * self.kappa.max()))

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
    if background <= 0 or contrast < 1.0:
        raise ValueError("need background > 0 and contrast >= 1")
    kappa = np.full(grid.n_cells, background, dtype=float)
    for ch in channels or []:
        kappa[ch.cell_mask(grid)] = background * contrast
    return PermeabilityField(grid, kappa)


@dataclass(frozen=True)
class SourceSpec:
    """Right-hand side f, constant in time.

    kind "constant" fills the domain, "box" fills cells whose centers fall in
    region = (x0, x1, y0, y1) in domain coordinates, "point" marks the single
    cell region = (cx, cy) in cell indices.
    """

    kind: str = "constant"
    amplitude: float = 1.0
    region: tuple | None = None

    def cell_values(self, grid: FineGrid) -> np.ndarray:
        if self.kind == "constant":
            return np.full(grid.n_cells, self.amplitude)
        if self.kind == "box":
            x0, x1, y0, y1 = self.region
            c = grid.cell_centers()
            inside = (c[:, 0] >= x0) & (c[:, 0] < x1) & (c[:, 1] >= y0) & (c[:, 1] < y1)
            return np.where(inside, self.amplitude, 0.0)
        if self.kind == "point":
            cx, cy = self.region
            if not (0 <= cx < grid.nx and 0 <= cy < grid.nx):
                raise ValueError(f"point source cell {self.region} outside grid")
            vals = np.zeros(grid.n_cells)
            vals[cy * grid.nx + cx] = self.amplitude
            return vals
        raise ValueError(f"unknown source kind {self.kind!r}")


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
        scale = np.ldexp(1.0, np.frexp(np.abs(v).max(initial=0.0))[1])
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
    """
    n = ops.M.shape[0]
    dt = t_end / n_steps
    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float).copy()
    lu = splu((ops.M / dt + ops.A).tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    b = ops.load(source)
    times = np.linspace(0.0, t_end, n_steps + 1)
    states = [u.copy()]
    for _ in range(n_steps):
        u = lu.solve(ops.M @ u / dt + b)
        if keep_trajectory:
            states.append(u.copy())
    if not keep_trajectory:
        states.append(u.copy())
        times = np.array([0.0, t_end])
    return times, np.array(states)


def node_values_on_grid(grid: FineGrid, interior_values: np.ndarray) -> np.ndarray:
    """Expand an interior-node vector to the full (nx+1, nx+1) node lattice.

    Boundary nodes get the Dirichlet value zero; rows follow grid lines
    bottom to top.
    """
    full = np.zeros(grid.n_nodes)
    full[grid.interior] = interior_values
    return full.reshape(grid.nx + 1, grid.nx + 1)
