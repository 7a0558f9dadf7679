"""Partially explicit time integration on the split coarse space.

The coefficient pair (u, w) in V_H1 x V_H2 advances by a two-step scheme:
u is implicit in its own stiffness block while all w coupling lags behind
explicitly, then w advances with a mass solve only, its stiffness treated
explicitly. The u-equation uses the backward difference of w from the two
previous levels and vice versa, so each step needs one lagged state; at the
start of every coarse interval the lags are initialized to the interval's
initial values, which makes the interval propagators pure functions of
(u, w).

A coupled one-step solve over both components serves as the cheap coarse
propagator for parareal. The explicit treatment of the w-stiffness imposes
the step bound dt <= 2 / lambda_max(M22^{-1} A22). The eigenpairs of the
pencil (A22, M22) (`w_modes`) give that bound exactly, and the
waveform-relaxation w-sweep runs in their basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, lu_factor, lu_solve

from .fem import FineOperators
from .msbasis import CoarseSystem, MultiscaleSpace


@dataclass
class SplitState:
    """Coarse coefficients at one time level plus the lagged previous level."""

    u: np.ndarray
    w: np.ndarray
    u_prev: np.ndarray
    w_prev: np.ndarray
    t: float

    @classmethod
    def fresh(cls, u: np.ndarray, w: np.ndarray, t: float = 0.0) -> "SplitState":
        """State with lag values equal to the current ones (interval start)."""
        u = np.asarray(u, dtype=float)
        w = np.asarray(w, dtype=float)
        return cls(u.copy(), w.copy(), u.copy(), w.copy(), t)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.u, self.w])


@dataclass(frozen=True)
class TimeGrid:
    """T split into n_intervals coarse steps of M substeps each."""

    t_end: float
    n_intervals: int
    substeps: int

    def __post_init__(self):
        if self.t_end <= 0 or self.n_intervals < 1 or self.substeps < 1:
            raise ValueError("need t_end > 0, n_intervals >= 1, substeps >= 1")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_intervals

    @property
    def dt_sub(self) -> float:
        return self.dt / self.substeps

    def interval_starts(self) -> np.ndarray:
        return np.arange(self.n_intervals) * self.dt


class ConstantLoads:
    """Time-constant coarse load pair (f1, f2) = (Psi1^T b, Psi2^T b)."""

    def __init__(self, f1: np.ndarray, f2: np.ndarray):
        self.f1 = np.asarray(f1, dtype=float)
        self.f2 = np.asarray(f2, dtype=float)

    @classmethod
    def zero(cls, system: CoarseSystem) -> "ConstantLoads":
        return cls(np.zeros(system.d1), np.zeros(system.d2))


def w_modes(system: CoarseSystem) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam, V) of the pencil (A22, M22), lam ascending.

    A22 V = M22 V diag(lam) and V^T M22 V = I, so the explicit w-step
    decouples per mode and is stable for dt <= 2 / lam[-1].
    """
    if system.d2 == 0:
        return np.zeros(0), np.zeros((0, 0))
    return eigh(system.A22, system.M22)


@dataclass
class SplitTrajectory:
    times: np.ndarray
    U: np.ndarray  # (n_steps + 1, d1)
    W: np.ndarray  # (n_steps + 1, d2)
    final: SplitState


class SplitPropagators:
    """Fine (multi-substep) and coarse (one-step) propagators for one system.

    Factorizations are cached per step size, so repeated parareal sweeps pay
    only back-substitutions.
    """

    def __init__(self, system: CoarseSystem, loads: ConstantLoads):
        self.system = system
        self.loads = loads
        self._u_chol: dict[float, tuple] = {}
        self._g_lu: dict[float, tuple] = {}
        self._m22_chol = cho_factor(system.M22) if system.d2 else None

    def _u_factor(self, dt: float):
        if dt not in self._u_chol:
            s = self.system
            self._u_chol[dt] = cho_factor(s.M11 / dt + s.A11)
        return self._u_chol[dt]

    def split_step(self, state: SplitState, dt: float) -> SplitState:
        """One substep of the partially explicit scheme."""
        s = self.system
        f1, f2 = self.loads.f1, self.loads.f2
        if s.d1:
            rhs_u = (
                s.M11 @ state.u / dt
                - s.M12 @ (state.w - state.w_prev) / dt
                - s.A12 @ state.w
                + f1
            )
            u_new = cho_solve(self._u_factor(dt), rhs_u)
        else:
            u_new = state.u.copy()
        if s.d2:
            rhs_w = (
                s.M22 @ state.w / dt
                - s.M12.T @ (state.u - state.u_prev) / dt
                - s.A12.T @ u_new
                - s.A22 @ state.w
                + f2
            )
            w_new = cho_solve(self._m22_chol, dt * rhs_w)
        else:
            w_new = state.w.copy()
        return SplitState(u_new, w_new, state.u.copy(), state.w.copy(), state.t + dt)

    def _g_factor(self, dt: float):
        if dt not in self._g_lu:
            s = self.system
            n = s.d1 + s.d2
            k = np.zeros((n, n))
            k[: s.d1, : s.d1] = s.M11 / dt + s.A11
            k[: s.d1, s.d1 :] = s.M12 / dt
            k[s.d1 :, : s.d1] = s.M12.T / dt + s.A12.T
            k[s.d1 :, s.d1 :] = s.M22 / dt
            self._g_lu[dt] = lu_factor(k)
        return self._g_lu[dt]

    def coarse_step(self, state: SplitState, dt: float) -> SplitState:
        """Coupled one-step solve: both components implicit in mass and u-stiffness.

        The w-stiffness stays explicit, matching the splitting it
        approximates. This is the parareal coarse propagator G.
        """
        s = self.system
        f1, f2 = self.loads.f1, self.loads.f2
        rhs = np.concatenate(
            [
                f1 + s.M11 @ state.u / dt + s.M12 @ state.w / dt - s.A12 @ state.w,
                f2 + s.M12.T @ state.u / dt + s.M22 @ state.w / dt - s.A22 @ state.w,
            ]
        )
        sol = lu_solve(self._g_factor(dt), rhs)
        return SplitState(sol[: s.d1], sol[s.d1 :], state.u.copy(), state.w.copy(), state.t + dt)

    def fine_interval(self, state: SplitState, dt_interval: float, substeps: int) -> SplitTrajectory:
        """Advance one coarse interval with substeps split steps, lags reset."""
        cur = SplitState.fresh(state.u, state.w, state.t)
        dt = dt_interval / substeps
        us = [cur.u.copy()]
        ws = [cur.w.copy()]
        for _ in range(substeps):
            cur = self.split_step(cur, dt)
            us.append(cur.u.copy())
            ws.append(cur.w.copy())
        times = state.t + dt * np.arange(substeps + 1)
        return SplitTrajectory(times, np.array(us), np.array(ws), cur)

    def stability_max_step(self) -> float:
        """Largest stable substep 2 / lambda_max(M22^{-1} A22); inf without a stiff w-part."""
        lam = w_modes(self.system)[0]
        if lam.size == 0 or lam[-1] <= 0.0:
            return np.inf
        return 2.0 / float(lam[-1])


def project_initial(u0_fine: np.ndarray, space: MultiscaleSpace, ops: FineOperators) -> SplitState:
    """Mass-orthogonal projection of a fine initial value onto each subspace.

    Solves M11 u = Psi1^T M_fine u0 and M22 w = Psi2^T M_fine u0; lag values
    are set equal to the projections.
    """
    s = space.system
    mu0 = ops.M @ np.asarray(u0_fine, dtype=float)
    u = np.linalg.solve(s.M11, space.Psi1.T @ mu0) if s.d1 else np.zeros(0)
    w = np.linalg.solve(s.M22, space.Psi2.T @ mu0) if s.d2 else np.zeros(0)
    return SplitState.fresh(u, w, 0.0)


def split_energy(system: CoarseSystem, state: SplitState) -> float:
    """Squared fine-space L2 norm of the represented function."""
    x = state.stacked()
    return float(x @ (system.mass_block() @ x))
