"""Parareal outer loop over coarse intervals.

Iterate k is the (N+1, d1+d2) array of stacked (u, w) endpoint rows, with

    x_{n+1}^{k+1} = G(x_n^{k+1}) + F(x_n^k) - G(x_n^k),

where G is the coupled one-step coarse solve, mapping one row to the next,
and F advances interval rows with the fine substep scheme, one sweep per
iteration: one `advance` of the row stack for the sequential kind, one
waveform-relaxation solve per row (tolerance from epsilon alone) for the other.
Rows are the only currency: the run starts from the initial row, and both
fine propagators map a row (`propagate`) or a stack of rows (`sweep`) to
rows one interval on, with one info dict per row. Row n of the iterates
is final from iterate n onward (Gander & Vandewalle, SISC 2007):
iteration k copies rows 0..k-1 and sweeps F over intervals k-1..N-1 and G
over k..N-1. A row's fine value does not depend on the rows swept with
it, so after N iterations every row is the sequential fine composition.
The loop stops when the largest Euclidean update over the endpoint rows
is at most epsilon, or at the caller's bound k_max. With finite iterates
and any epsilon >= 0 it stops at iteration N + 1 at the latest, whose
update is exactly zero, so N + 1 is the bound the experiment driver
passes; a smaller k_max cuts the run short.

It also stops, not converged, at the first iteration with a fine solve
that did not converge, which for waveform relaxation means one that
diverged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .allatonce import WaveformRelaxation
from .stepping import SplitPropagators, TimeGrid


class SequentialFine:
    """Fine propagator: M substeps of the splitting scheme, run sequentially."""

    def __init__(self, propagators: SplitPropagators, time_grid: TimeGrid):
        self.propagators = propagators
        self.time_grid = time_grid

    def sweep(self, rows: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        """Rows advanced one interval by one `advance` of (n, 1, d) stacks, each row's bits as alone."""
        d1, tg = self.propagators.system.d1, self.time_grid
        u, w = self.propagators.advance(rows[:, None, :d1], rows[:, None, d1:], tg.dt_sub, tg.substeps)
        return np.concatenate([u, w], axis=-1)[:, 0], [{"converged": True} for _ in rows]

    def propagate(self, row: np.ndarray) -> tuple[np.ndarray, dict]:
        """One row advanced one interval: the width-1 sweep."""
        out, infos = self.sweep(row[None])
        return out[0], infos[0]


class AllAtOnceFine:
    """Fine propagator backed by the waveform-relaxation all-at-once solver."""

    def __init__(self, wr: WaveformRelaxation):
        self.wr = wr

    def sweep(self, rows: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        """Rows advanced one interval, one `propagate` call each, in row order."""
        outputs = [self.propagate(row) for row in rows]
        return np.reshape([out for out, _ in outputs], rows.shape), [info for _, info in outputs]

    def propagate(self, row: np.ndarray) -> tuple[np.ndarray, dict]:
        return self.wr.solve(row)


def build_fine_propagator(
    kind: str, propagators: SplitPropagators, time_grid: TimeGrid, alpha: float, epsilon: float
):
    if kind == "sequential":
        return SequentialFine(propagators, time_grid)
    if kind == "all-at-once":
        # WR below the outer stopping regime but above round-off: a tol 1e3
        # below the true residual's floor (1e-17 on example1) ends "diverged"
        tol = min(1e-12, max(0.01 * epsilon, 1e-14))
        return AllAtOnceFine(WaveformRelaxation(propagators, time_grid.substeps, time_grid.dt, alpha, tol))
    raise ValueError(f"unknown fine propagator kind {kind!r}")


@dataclass
class ParerealRun:
    d1: int
    history: list[np.ndarray]  # per iteration: (N+1, d1+d2) endpoint coefficients
    max_diffs: list[float]
    iterations: int
    converged: bool
    # per iteration k: the fine propagator's info dict of each solve it
    # made, for intervals k-1..N-1 in order
    fine_info: list[list[dict]]
    fine_seconds: list[float] = field(default_factory=list)
    coarse_seconds: list[float] = field(default_factory=list)
    total_seconds: float = 0.0
    # intervals whose fine solve in the last iteration did not converge;
    # the loop stops at the first iteration with any
    failed: list[int] = field(default_factory=list)

    def endpoint(self, k: int = -1) -> tuple[np.ndarray, np.ndarray]:
        """(u, w) coefficients at t_end for iteration k."""
        row = self.history[k][-1]
        return row[: self.d1], row[self.d1 :]

    def fine_solves(self):
        """(iteration k, interval n, info) of every fine solve, in order."""
        for k, infos in enumerate(self.fine_info, start=1):
            for n, info in enumerate(infos, start=k - 1):
                yield k, n, info


def max_state_diff(prev: np.ndarray, new: np.ndarray) -> float:
    """Largest Euclidean update over interval endpoints n = 1..N, scaled exactly so nothing overflows."""
    d = new[1:] - prev[1:]
    scale = np.ldexp(1.0, np.frexp(np.abs(d).max(initial=0.0))[1])
    return float(scale * np.linalg.norm(d / scale, axis=1).max())


def check_stop(prev: np.ndarray, new: np.ndarray, epsilon: float) -> tuple[float, bool]:
    diff = max_state_diff(prev, new)
    return diff, diff <= epsilon


def initial_sweep(propagators: SplitPropagators, initial: np.ndarray, time_grid: TimeGrid) -> np.ndarray:
    """Sequential coarse pass from the initial (d1+d2,) row: iterate 0, one row per interval endpoint."""
    rows = [initial]
    for _ in range(time_grid.n_intervals):
        rows.append(propagators.coarse_step(rows[-1], time_grid.dt))
    return np.array(rows)


def run_parareal(
    propagators: SplitPropagators,
    fine,
    initial: np.ndarray,
    time_grid: TimeGrid,
    epsilon: float,
    k_max: int,
) -> ParerealRun:
    """Full parareal run.

    The correction reuses the coarse values computed while building the
    previous iterate (for iteration 1, the initial sweep itself), so
    iteration k costs N-k+1 fine and N-k coarse solves.
    """
    n_int, dt = time_grid.n_intervals, time_grid.dt
    d1 = propagators.system.d1
    t_start = time.perf_counter()

    x = initial_sweep(propagators, initial, time_grid)
    coarse_prev = x[1:].copy()
    history = [x]
    max_diffs: list[float] = []
    fine_info: list[list[dict]] = []
    fine_seconds: list[float] = []
    coarse_seconds: list[float] = []
    converged = False
    failed: list[int] = []

    for k in range(1, k_max + 1):
        # rows 0..k-1 are final; F runs on intervals k-1..N-1, G on k..N-1
        first = min(k - 1, n_int)
        tic = time.perf_counter()
        rows, infos = fine.sweep(x[first:n_int])
        fine_seconds.append(time.perf_counter() - tic)
        fine_info.append(infos)

        tic = time.perf_counter()
        x = x.copy()
        x[first + 1 :] = rows
        for n in range(first + 1, n_int):
            g = propagators.coarse_step(x[n], dt)
            x[n + 1] += g - coarse_prev[n]
            coarse_prev[n] = g
        coarse_seconds.append(time.perf_counter() - tic)

        history.append(x)
        diff, stop = check_stop(history[-2], x, epsilon)
        max_diffs.append(diff)
        failed = [n for n, info in enumerate(infos, start=first) if not info["converged"]]
        if failed or stop:
            converged = stop and not failed
            break

    return ParerealRun(
        d1=d1,
        history=history,
        max_diffs=max_diffs,
        iterations=len(max_diffs),
        converged=converged,
        fine_info=fine_info,
        fine_seconds=fine_seconds,
        coarse_seconds=coarse_seconds,
        total_seconds=time.perf_counter() - t_start,
        failed=failed,
    )
