"""All-at-once solve of the implicit component over one coarse interval.

Stacking the M substeps of the u-equation gives (B kron M11 + I kron A11) U
= F, where B is the backward-difference matrix with an extra -alpha/dt in
its top-right corner. That corner makes B alpha-circulant, hence
diagonalizable in closed form: B = S D S^{-1} with

    S = Lambda V,  Lambda = diag(alpha^{-s/M}),  V_{jk} = exp(2 pi i jk / M),
    d_k = (1 - alpha^{1/M} exp(-2 pi i k / M)) / dt.

V and V^{-1} are inverse/forward DFT matrices, so S applies in O(M log M)
with FFTs. B, M11, A11 and every right-hand side are real, so d_{M-k} =
conj(d_k), the transformed right-hand side is conjugate-symmetric and the
solves for k = 0..M//2 fix all the others. `TimeMatrixB` owns the transform
pair the solver runs, on that half spectrum: to_eigenbasis(x) =
rfft(Lambda^{-1} x), rows 0..M//2 of M S^{-1} x, and from_eigenbasis(y) =
Lambda irfft(y) = S y_full / M, y_full the conjugate-symmetric completion
of y; their factors M cancel in a round trip, and the result is real. The
solve is three steps: transform the right-hand side, solve M//2 + 1
independent complex-shifted systems, transform back.

The alpha-coupling to the last substep and the lagged w-terms are refreshed
by waveform relaxation: a sweep is the all-at-once u-solve followed by a
sequential w-sweep, and GMRES over the sweep (Lumsdaine & Wu, SINUM 2003)
drives the pair to the sweep's fixed point, which reproduces the sequential
partially explicit scheme on the same substep grid exactly. The w-sweep
runs in the w-modes that `SplitPropagators` owns, the eigenbasis of the
pencil (A22, M22): there its recurrence z <- (1 - dt lam) z + h decouples
per mode and unrolls over the window into one product with a
lower-triangular Toeplitz matrix per mode. The solver reads the modes and
the modal couplings from the propagators, so the sequential and the
all-at-once fine propagators step the same modal scheme. `solve` maps a
stacked (u, w) row to the row one interval on, as both fine propagators
do, and returns the sweeps and stop reason in an info dict;
`AllAtOnceFine.propagate` is that call, and parareal and the check
subcommand alike reach the solver through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft

from .msbasis import CoarseSystem
from .stepping import SplitPropagators
from .util import scaled_norm


@dataclass(frozen=True)
class TimeMatrixB:
    """Alpha-circulant backward-difference matrix over one interval's substeps."""

    substeps: int
    dt: float
    alpha: float

    def __post_init__(self):
        if not (self.substeps >= 1 and self.dt > 0):
            raise ValueError("need substeps >= 1 and dt > 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def dense(self) -> np.ndarray:
        m = self.substeps
        b = np.eye(m)
        b[np.arange(1, m), np.arange(m - 1)] = -1.0
        b[0, m - 1] -= self.alpha
        return b / self.dt

    def eigenvalues(self) -> np.ndarray:
        """d_k = (1 - alpha^{1/M} omega^k)/dt for k = 0..M//2, omega the
        conjugate root of unity; the rest are d_{M-k} = conj(d_k)."""
        m = self.substeps
        omega = np.exp(-2j * np.pi * np.arange(m // 2 + 1) / m)
        return (1.0 - self.alpha ** (1.0 / m) * omega) / self.dt

    @cached_property
    def _lambda_column(self) -> np.ndarray:
        """Diagonal of Lambda, alpha^{-s/M} for s = 0..M-1, as an (M, 1) column."""
        m = self.substeps
        return (self.alpha ** (-np.arange(m) / m))[:, None]

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """rfft(Lambda^{-1} x), rows 0..M//2 of M S^{-1} x, for a real (M, k) array x."""
        return fft.rfft(x / self._lambda_column, axis=0)

    def from_eigenbasis(self, y: np.ndarray) -> np.ndarray:
        """Lambda irfft(y) = S y_full / M, real, for an (M//2 + 1, k) half y
        whose conjugate-symmetric completion is y_full."""
        return self._lambda_column * fft.irfft(y, n=self.substeps, axis=0)


class ImplicitAllAtOnce:
    """Solver for (B kron M11 + I kron A11) U = F via the diagonalization.

    The M//2 + 1 shifted matrices d_k M11 + A11 of the half spectrum are
    inverted once at construction; every solve is then
    `TimeMatrixB.to_eigenbasis`, one matrix-vector product per eigenvalue
    and `TimeMatrixB.from_eigenbasis`, which returns the real rows.
    """

    def __init__(self, system: CoarseSystem, substeps: int, dt: float, alpha: float):
        self.time_matrix = TimeMatrixB(substeps, dt, alpha)
        d = self.time_matrix.eigenvalues()
        self.inv_shifted = np.linalg.inv(d[:, None, None] * system.M11[None] + system.A11[None])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """rhs has one row per substep, shape (M, d1)."""
        tm = self.time_matrix
        p = tm.to_eigenbasis(rhs)
        return tm.from_eigenbasis((self.inv_shifted @ p[:, :, None])[:, :, 0])


def build_rhs(
    M11: np.ndarray,
    M12: np.ndarray,
    A12: np.ndarray,
    f1_rows: np.ndarray,
    u_start: np.ndarray,
    w_start: np.ndarray,
    w_rows_prev: np.ndarray,
    u_final_prev: np.ndarray,
    dt: float,
    alpha: float,
) -> np.ndarray:
    """Stacked right-hand side of the u all-at-once system.

    Row s carries the load plus the lagged w-terms of the previous waveform
    iterate, f1^s - M12 (w_{s-1} - w_{s-2})/dt - A12 w_{s-1}; the first row
    adds M11 (u_0 - alpha u_M^{prev})/dt. The interval's initial w supplies
    w_0 and its lag w_{-1} = w_0. A single load row broadcasts to every substep.
    """
    w_hist = np.concatenate((w_start[None], w_start[None], w_rows_prev[:-1]))
    dw = (w_hist[1:] - w_hist[:-1]) / dt
    rhs = f1_rows - dw @ M12.T - w_hist[1:] @ A12.T
    rhs[0] += M11 @ (u_start - alpha * u_final_prev) / dt
    return rhs


def _stop_reason(r: float, before: float, tol: float) -> str | None:
    """Why the solve stops at the true residual r, or None: "tol", else,
    unless the cycle since the true residual `before` cut a finite r
    10-fold, "floor" within 1e3*tol and "diverged" beyond."""
    if r <= tol:
        return "tol"
    if 10.0 * r <= before and np.isfinite(r):
        return None
    return "floor" if r <= 1e3 * tol else "diverged"


def _gmres_cycle(apply, x, r0, steps, scale, tol, residuals) -> np.ndarray:
    """x plus the GMRES correction from at most `steps` products with apply,
    r0 the residual at x. Each product appends scale times the least-squares
    residual relative to |r0|, which is 1/|xi| for the left null vector xi of
    the Hessenberg matrix with xi_0 = 1. Ends early at tol or on breakdown."""
    beta = scaled_norm(r0)
    basis = np.zeros((steps + 1, r0.size))
    hess = np.zeros((steps + 1, steps))
    xi = np.zeros(steps + 1)
    basis[0], xi[0] = r0.ravel() / beta, 1.0
    for j in range(steps):
        w = apply(basis[j].reshape(r0.shape)).ravel()
        for _ in range(2):  # classical Gram-Schmidt, twice for orthogonality
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            hess[: j + 1, j] += h
        hess[j + 1, j] = np.linalg.norm(w)
        # on breakdown the Krylov space holds the solution: residual 0
        xi[j + 1] = -(xi[: j + 1] @ hess[: j + 1, j]) / hess[j + 1, j] if hess[j + 1, j] else np.inf
        residuals.append(scale / np.linalg.norm(xi[: j + 2]))
        if residuals[-1] <= tol:
            break
        basis[j + 1] = w / hess[j + 1, j]
    y = np.linalg.lstsq(hess[: j + 2, : j + 1], beta * np.eye(j + 2)[0], rcond=None)[0]
    return x + (y @ basis[: j + 1]).reshape(x.shape)


_RESTART = 60  # Krylov vectors per GMRES cycle


class WaveformRelaxation:
    """Krylov-accelerated waveform relaxation for one coarse interval.

    A sweep, the u-solve against the lagged w rows then the w-sweep of its
    result, is affine in the u iterate, K u + c, with K the sweep at zero
    loads and zero start state. After one plain sweep from the interval's
    initial state, restarted GMRES solves (I - K) u = c, one sweep per
    product; a sweep after each cycle gives `_stop_reason` the true residual,
    the max-over-substeps update of u plus that of w. The info's
    `residuals` has one entry per sweep, GMRES's estimate inside a cycle.
    No sweep cap is needed: a cycle costs at most min(60, M*d1) + 1 sweeps
    and must cut the true residual 10-fold, else the solve ends converged
    ("floor" within 1e3*tol) or "diverged". With d1 = 0 the w-sweep reads
    no u iterate and the second sweep is exact.
    """

    def __init__(
        self,
        propagators: SplitPropagators,
        substeps: int,
        dt_interval: float,
        alpha: float,
        tol: float,
    ):
        self.propagators = propagators
        self.substeps = substeps
        self.dt = dt_interval / substeps
        self.alpha = alpha
        self.tol = tol
        self.implicit = ImplicitAllAtOnce(propagators.system, substeps, self.dt, alpha)
        # in the modes the w-step is z_s = mu z_{s-1} + h_s, mu = 1 - dt lam
        # (`SplitPropagators.split_step`). Over the window z_s = mu^s z_0 +
        # sum_{j<=s} mu^{s-j} h_j: per mode a lower-triangular Toeplitz matrix
        # of powers of mu, (d2, M, M) in all.
        self.mu = 1.0 - self.dt * propagators.lam
        powers = self.mu[:, None] ** np.arange(substeps + 1)
        lag = np.subtract.outer(np.arange(substeps), np.arange(substeps))
        self._unroll = np.ascontiguousarray(np.where(lag >= 0, powers[:, np.maximum(lag, 0)], 0.0))
        # the couplings in the w-modes, w = V z, so that build_rhs reads z
        self._blocks = (propagators.system.M11, propagators.m12_modes, propagators.a12_modes)
        self._m12_t = np.ascontiguousarray(propagators.m12_modes.T)
        self._a12_dt_t = self.dt * np.ascontiguousarray(propagators.a12_modes.T)  # contiguous, then scaled

    def _sweep_z(self, h_t: np.ndarray) -> np.ndarray:
        """sum_{j<=s} mu^{s-j} h_j for every substep s; h_t and the result are (d2, M)."""
        return (self._unroll @ h_t[:, :, None])[:, :, 0]

    def _z_rows(self, u_rows: np.ndarray, start: tuple) -> np.ndarray:
        _, u0, _, z_base = start
        # minus the u-driven part of h: V^T (M21 (u_s - u_{s-1}) + dt A21 u_s),
        # with the lag u_{-1} = u_0
        u_hist = np.concatenate((u0[None], u0[None], u_rows[:-1]))
        g_t = self._m12_t @ (u_hist[1:] - u_hist[:-1]).T + self._a12_dt_t @ u_rows.T
        return (z_base - self._sweep_z(g_t)).T

    def _u_rows(self, u_rows: np.ndarray, z_rows: np.ndarray, start: tuple) -> np.ndarray:
        f1, u0, z0, _ = start
        rhs = build_rhs(*self._blocks, f1, u0, z0, z_rows, u_rows[-1], self.dt, self.alpha)
        return self.implicit.solve(rhs)

    def solve(self, row: np.ndarray) -> tuple[np.ndarray, dict]:
        """The stacked (u, w) row one interval on, and the solve's info dict
        (converged, iterations, residuals, stop_reason). The row is an
        interval start: the lag values reset to it."""
        props, m = self.propagators, self.substeps
        u0, z0 = row[: props.system.d1], props.to_modes(row[props.system.d1 :])
        # the part of the w-sweep free of the u iterate; z_0 enters as mu z_0 in h_1
        h = np.tile(self.dt * props.f2_modes, (m, 1))
        h[0] += self.mu * z0
        start = (props.f1, u0, z0, self._sweep_z(h.T))
        unloaded = tuple(np.zeros_like(a) for a in start)

        def apply(v):  # (I - K) v
            return v - self._u_rows(v, self._z_rows(v, unloaded), unloaded)

        x, z = np.tile(u0, (m, 1)), np.tile(z0, (m, 1))
        residuals: list[float] = []
        before = np.inf  # true residual before the last cycle
        while True:
            u_new = self._u_rows(x, z, start)
            z_new = self._z_rows(u_new, start)
            du = float(scaled_norm(u_new - x, axis=1).max())
            residuals.append(du + float(scaled_norm((z_new - z) @ props.modes.T, axis=1).max()))
            reason = _stop_reason(residuals[-1], before, self.tol)
            if reason:
                break
            if len(residuals) == 1:  # the seed's w rows are no w-sweep of its u rows
                x, z = u_new, z_new
                continue
            # aim 10x below tol: the true residual must pass without another cycle
            before = residuals[-1]
            steps = min(_RESTART, x.size)  # at most one product per unknown
            x = _gmres_cycle(apply, x, u_new - x, steps, before, 0.1 * self.tol, residuals)
            z = self._z_rows(x, start)

        return np.concatenate([u_new[-1], (z_new @ props.modes.T)[-1]]), {
            "converged": reason in ("tol", "floor"),
            "iterations": len(residuals),
            "residuals": residuals,
            "stop_reason": reason,
        }
