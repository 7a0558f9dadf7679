"""Partially explicit time integration on the split coarse space.

The coefficient pair (u, w) in V_H1 x V_H2 advances by a two-step scheme:
u is implicit in its own stiffness block while all w coupling lags behind
explicitly, then w advances explicitly in the eigenbasis of the pencil
(A22, M22). With w = V z, A22 V = M22 V diag(lam) and
V^T M22 V = I, the w-step needs no solve: z <- (1 - dt lam) z + h, mode by
mode, with h the modal load and u coupling. The u-equation uses the
backward difference of w from the two previous levels and vice versa, so
each step needs one lagged level; `SplitPropagators.advance`, the one
driver of an interval, starts that lag at the interval's initial values,
which makes it a pure function of (u, w).

A coupled one-step solve on the stacked (u, w) row is the cheap coarse
propagator for parareal. The explicit treatment of the w-stiffness imposes
the step bound dt <= 2 / lambda_max(M22^{-1} A22) = 2 / lam[-1]. The modes
are computed once per `SplitPropagators` and shared by the sequential step,
the stability bound and the waveform-relaxation w-sweep.

Both implicit solves are affine in the state, so each is built once per
step size as matrices and a step is matrix-vector products: the substep's
u_new = P u - Q (z - z_prev) - R z + p and the coarse step's G x + g. A
substep acts on rows from the right, one 1-D row or an (n, 1, d) stack of
n. numpy multiplies each (1, d) item of a stack alone, bit for bit as a 1-D
row, while an (n, d) gemm's row bits change with n; parareal's exactness
after N iterations needs each fine value independent of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, lu_factor, lu_solve

from .fem import FineOperators
from .msbasis import CoarseSystem, MultiscaleSpace


@dataclass
class SplitState:
    """Coarse coefficients (u, w)."""

    u: np.ndarray
    w: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.u, self.w])


@dataclass(frozen=True)
class TimeGrid:
    """T split into n_intervals coarse steps of M substeps each."""

    t_end: float
    n_intervals: int
    substeps: int

    def __post_init__(self):
        if not (0 < self.t_end < np.inf and self.n_intervals >= 1 and self.substeps >= 1):
            raise ValueError(f"need finite t_end > 0, n_intervals >= 1 and substeps >= 1, got {self}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_intervals

    @property
    def dt_sub(self) -> float:
        return self.dt / self.substeps


@dataclass
class SplitTrajectory:
    """The end state of `fine_interval`; `final` is all bench/harness.py reads."""

    final: SplitState


class SplitPropagators:
    """Fine (multi-substep) and coarse (one-step) propagators for one system.

    Owns the loads, the (f1, f2) pair that `project_load` returns, the
    w-modes (lam, modes) of the system, the modal load f2 V and the
    couplings M12 V and A12 V of u to the modes, which the waveform
    relaxation reads. The one-step maps of the substep's u-update and of
    the coarse step are built once per step size, so repeated parareal
    sweeps pay only matrix-vector products.
    """

    def __init__(self, system: CoarseSystem, loads: tuple[np.ndarray, np.ndarray]):
        self.system = system
        self.f1, self.f2 = loads
        self.lam, self.modes = eigh(system.A22, system.M22)
        self.m12_modes = system.M12 @ self.modes
        self.a12_modes = system.A12 @ self.modes
        self.f2_modes = self.f2 @ self.modes
        self._u_maps: dict[float, tuple] = {}
        self._g_maps: dict[float, tuple] = {}

    def to_modes(self, w: np.ndarray) -> np.ndarray:
        """z = V^T M22 w, as two products: the square product M22 V gives
        different bits at different BLAS thread counts."""
        return (w @ self.system.M22) @ self.modes

    def _u_map(self, dt: float) -> tuple:
        """Contiguous (P^T, Q^T, R^T, p), (P, Q, R, p) = K^{-1} (M11/dt, M12 V/dt, A12 V, f1), K = M11/dt + A11."""
        if dt not in self._u_maps:
            s = self.system
            k = cho_factor(s.M11 / dt + s.A11)
            blocks = (s.M11 / dt, self.m12_modes / dt, self.a12_modes, self.f1)
            self._u_maps[dt] = tuple(np.ascontiguousarray(cho_solve(k, b).T) for b in blocks)
        return self._u_maps[dt]

    def split_step(
        self, u: np.ndarray, z: np.ndarray, u_prev: np.ndarray, z_prev: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(u_new, z_new) after one substep of rows, w in modes z = V^T M22 w.

        (M11/dt + A11) u_new = M11 u/dt - M12 V (z - z_prev)/dt - A12 V z + f1,
        applied as u_new = u P^T - (z - z_prev) Q^T - z R^T + p (`_u_map`), then
        z_new = (1 - dt lam) z + dt (f2 V - u_new A12 V) - (u - u_prev) M12 V.
        """
        Pt, Qt, Rt, p = self._u_map(dt)
        u_new = u @ Pt - (z - z_prev) @ Qt - z @ Rt + p
        z_new = (
            (1.0 - dt * self.lam) * z
            + dt * (self.f2_modes - u_new @ self.a12_modes)
            - (u - u_prev) @ self.m12_modes
        )
        return u_new, z_new

    def advance(self, u: np.ndarray, w: np.ndarray, dt: float, substeps: int) -> tuple:
        """Rows (u, w) after substeps split steps of size dt, the lag starting at (u, w)."""
        z = self.to_modes(w)
        u_prev, z_prev = u, z
        for _ in range(substeps):
            u_prev, z_prev, (u, z) = u, z, self.split_step(u, z, u_prev, z_prev, dt)
        return u, z @ self.modes.T

    def _g_map(self, dt: float) -> tuple:
        """(G, g) = K_G^{-1} (M/dt - A_w, f), K_G = M/dt + A_u, with M and A the
        coupled (d, d) mass and stiffness, A_u and A_w A's u- and w-columns."""
        if dt not in self._g_maps:
            s = self.system
            mass = np.block([[s.M11, s.M12], [s.M12.T, s.M22]])
            stiff = np.block([[s.A11, s.A12], [s.A12.T, s.A22]])
            a_w = np.zeros_like(stiff)
            a_w[:, s.d1 :] = stiff[:, s.d1 :]
            k = lu_factor(mass / dt + (stiff - a_w))
            f = np.concatenate([self.f1, self.f2])
            self._g_maps[dt] = (lu_solve(k, mass / dt - a_w), lu_solve(k, f))
        return self._g_maps[dt]

    def coarse_step(self, x: np.ndarray, dt: float) -> np.ndarray:
        """Parareal coarse propagator G: one coupled step of the stacked (u, w) row x.

        Both components are implicit in mass and u-stiffness; the w-stiffness
        stays explicit, matching the splitting it approximates.
        """
        G, g = self._g_map(dt)
        return G @ x + g

    def fine_interval(self, state: SplitState, dt_interval: float, substeps: int) -> SplitTrajectory:
        """One coarse interval of substeps split steps (`advance`) on the split form."""
        return SplitTrajectory(SplitState(*self.advance(state.u, state.w, dt_interval / substeps, substeps)))

    def stability_max_step(self) -> float:
        """Largest stable substep 2 / lambda_max(M22^{-1} A22); inf without a stiff w-part."""
        lam_max = float(self.lam.max(initial=0.0))
        return 2.0 / lam_max if lam_max > 0.0 else np.inf


def project_initial(u0_fine: np.ndarray, space: MultiscaleSpace, ops: FineOperators) -> SplitState:
    """Mass-orthogonal projection of a fine initial value onto each subspace.

    Solves M11 u = Psi1^T M_fine u0 and M22 w = Psi2^T M_fine u0.
    """
    s = space.system
    mu0 = ops.M @ np.asarray(u0_fine, dtype=float)
    u = np.linalg.solve(s.M11, space.Psi1.T @ mu0)
    w = np.linalg.solve(s.M22, space.Psi2.T @ mu0)
    return SplitState(u, w)
