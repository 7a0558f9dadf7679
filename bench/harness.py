"""Measurement of one workload through the library's public functions.

`measure` gives the end-to-end metrics with tracing off. `measure_traced`
gives the per-layer metrics: it runs setup, solve, reference and one
sequential pass under a `Tracer`, then the solve and the sequential passes
again untraced, for the tracing overhead and the modelled speed-up.

A solve fails when parareal stops at k_max without converging, when its
endpoint is farther than SEQ_GAP_TOL (relative) from the sequential fine
solution it converges to, or when its error against the reference is not
finite.
"""

from __future__ import annotations

import logging
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from paradiff import experiment, fem
from paradiff.experiment import ExperimentConfig, Pipeline, RunResult
from paradiff.stepping import SplitPropagators, SplitState, project_initial

from tracer import Tracer, critical_path

# The healthy gaps are 5.1e-12 (ex1-aao-n20) and 7.2e-13 (ex1-seq-n60);
# ex2-aao-n20, where waveform relaxation hits max_iter, sits at 3.5e-7.
SEQ_GAP_TOL = 1e-9

SETUP_PASSES = 3
MIN_SOLVES = 2
ROUND_SHORT_S = 0.5  # least time per round for the sequential and the reference passes
SHORT_MIN_S = 3.0  # least total time for each of them


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    details: dict = field(default_factory=dict)

    def check(self, solve: "Solve") -> None:
        self.attempted += 1
        self.failed += not solve.ok


@dataclass
class Solve:
    result: RunResult
    seq_gap: float
    rel_error: float

    @property
    def ok(self) -> bool:
        return (
            self.result.run.converged
            and self.seq_gap <= SEQ_GAP_TOL
            and math.isfinite(self.rel_error)
        )


class WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


@contextmanager
def counting_warnings():
    """Count WARNING records of the paradiff logger instead of printing them."""
    logger = logging.getLogger("paradiff")
    counter, propagate = WarningCounter(), logger.propagate
    logger.addHandler(counter)
    logger.propagate = False
    try:
        yield counter
    finally:
        logger.removeHandler(counter)
        logger.propagate = propagate


def repeat(fn, min_passes: int, min_seconds: float) -> tuple[list[float], object]:
    """Back-to-back timed calls until both minimums are met; (times, last result)."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - start < min_seconds:
        tic = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - tic)
    return times, out


def solve_pipeline(pipe: Pipeline) -> Pipeline:
    """The pipeline with the reference solve switched off inside run_single."""
    return replace(pipe, config=replace(pipe.config, compute_reference=False))


def reference_final(pipe: Pipeline, n: int) -> np.ndarray:
    cfg = pipe.config
    tg = cfg.time_grid(n)
    _, states = fem.reference_solve(
        pipe.ops, cfg.to_source(), cfg.t_end, tg.n_intervals * tg.substeps, keep_trajectory=False
    )
    return states[-1]


def sequential_final(pipe: Pipeline, n: int) -> SplitState:
    """The sequential split scheme over [0, T]: the solution parareal converges to."""
    tg = pipe.config.time_grid(n)
    propagators = SplitPropagators(pipe.space.system, pipe.loads)
    state = project_initial(np.zeros(pipe.grid.n_interior), pipe.space, pipe.ops)
    for _ in range(tg.n_intervals):
        state = propagators.fine_interval(state, tg.dt, tg.substeps).final
    return state


def assess(pipe: Pipeline, result: RunResult, ref: np.ndarray, seq: SplitState) -> Solve:
    u, w = result.run.endpoint()
    x, y = np.concatenate([u, w]), seq.stacked()
    gap = float(np.linalg.norm(x - y) / np.linalg.norm(y))
    err = experiment.relative_error(pipe.ops, ref, pipe.space.reconstruct(u, w))
    return Solve(result, gap, err)


def run_counts(result: RunResult) -> dict[str, int]:
    """Counts read off the run record, with no tracing involved."""
    run = result.run
    infos = [info for sweep in run.fine_info for info in sweep]
    return {
        "iterations": run.iterations,
        "wr_sweeps": sum(info.get("iterations", 0) for info in infos),
        "wr_maxiter": sum(info.get("stop_reason") == "max_iter" for info in infos),
        "wr_diverged": sum(info.get("stop_reason") == "diverged" for info in infos),
        "wr_converged": sum(bool(info.get("converged")) for info in infos if "stop_reason" in info),
        "settled_fine_calls": settled_fine_calls(result),
    }


def settled_fine_calls(result: RunResult) -> int:
    """Fine calls whose input equals, bit for bit, that interval's previous input.

    Iteration k propagates the endpoints of iterate k-1 (the history row of
    iterate 0 is the initial coarse sweep), one call per interval.
    """
    h = result.run.history
    return int(sum(
        np.array_equal(h[k][n], h[k - 1][n])
        for k in range(1, result.run.iterations)
        for n in range(h[k].shape[0] - 1)
    ))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cfg: ExperimentConfig, n: int, seconds: float) -> Outcome:
    """End-to-end metrics, tracing off; the solve repeats for `seconds`, at least twice."""
    out = Outcome()
    setup_times = []
    pipe = None
    for _ in range(SETUP_PASSES):
        pipe = None  # release the previous pipeline before building the next one
        tic = time.perf_counter()
        pipe = experiment.build_pipeline(cfg)
        setup_times.append(time.perf_counter() - tic)

    # Rounds interleave the timed phases so that every median samples the
    # whole run: the machine's speed drifts by tens of percent over tens of
    # seconds, and one contiguous window per phase would catch one state.
    solve_pipe = solve_pipeline(pipe)
    seq_times: list[float] = []
    ref_times: list[float] = []
    solve_times: list[float] = []
    results: list[RunResult] = []

    def short_round():
        times, seq = repeat(lambda: sequential_final(pipe, n), 1, ROUND_SHORT_S)
        seq_times.extend(times)
        times, ref = repeat(lambda: reference_final(pipe, n), 1, ROUND_SHORT_S)
        ref_times.extend(times)
        return seq, ref

    start = time.perf_counter()
    while len(results) < MIN_SOLVES or time.perf_counter() - start < seconds:
        seq, ref = short_round()
        tic = time.perf_counter()
        results.append(experiment.run_single(solve_pipe, n))
        solve_times.append(time.perf_counter() - tic)
    # a solve longer than the run leaves the short phases too few passes
    while sum(seq_times) < SHORT_MIN_S or sum(ref_times) < SHORT_MIN_S:
        seq, ref = short_round()

    solves = [assess(pipe, r, ref, seq) for r in results]
    for solve in solves:
        out.check(solve)
    result, solve = results[-1], solves[-1]
    out.metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(solve_times), "s"),
        "reference_s": (statistics.median(ref_times), "s"),
        "sequential_s": (statistics.median(seq_times), "s"),
        "iterations": (result.run.iterations, "count"),
        "rel_error": (solve.rel_error, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.details = {
        "setup_times_s": setup_times,
        "solve_times_s": solve_times,
        "reference_times_s": ref_times,
        "sequential_times_s": seq_times,
        "seq_gap": solve.seq_gap,
        "converged": result.run.converged,
        "counts": run_counts(result),
        "d1": pipe.space.d1,
        "d2": pipe.space.d2,
        "gamma": pipe.gamma,
    }
    return out


def measure_traced(cfg: ExperimentConfig, n: int) -> tuple[Outcome, Tracer]:
    """Per-layer metrics from one traced pass of each phase."""
    out = Outcome()
    tracer = Tracer()
    with counting_warnings() as warnings, tracer.installed():
        with tracer.span("phase.setup"):
            pipe = experiment.build_pipeline(cfg)
        solve_pipe = solve_pipeline(pipe)
        with tracer.span("phase.solve"):
            result = experiment.run_single(solve_pipe, n)
        with tracer.span("phase.reference"):
            ref = reference_final(pipe, n)
        with tracer.span("phase.sequential"):
            seq = sequential_final(pipe, n)
    traced_solve = tracer.calls("experiment.run_single")[1]
    solve = assess(pipe, result, ref, seq)
    out.check(solve)

    tic = time.perf_counter()
    untraced_result = experiment.run_single(solve_pipe, n)
    untraced_solve = time.perf_counter() - tic
    out.check(assess(pipe, untraced_result, ref, seq))
    seq_times, _ = repeat(lambda: sequential_final(pipe, n), 1, SHORT_MIN_S)
    sequential_s = statistics.median(seq_times)

    counts = run_counts(result)
    tg = cfg.time_grid(n)
    ref_steps = tg.n_intervals * tg.substeps
    ref_s = tracer.calls("fem.reference_solve")[1]
    split_calls, split_s = tracer.calls("stepping.split_step")
    wr_solves, wr_s = tracer.calls("allatonce.WaveformRelaxation.solve")
    sweeps, u_solve_s = tracer.calls("allatonce.ImplicitAllAtOnce.solve")
    fine_calls, fine_s = tracer.calls("parareal.fine.propagate")
    coarse_calls, coarse_s = tracer.calls("stepping.coarse_step")
    run_index = next(i for i, s in enumerate(tracer.spans) if s.name == "parareal.run_parareal")
    path_s = critical_path(tracer, run_index)
    m = {
        "fem.assemble_s": (tracer.calls("fem.assemble_fine")[1], "s"),
        "fem.reference_steps": (ref_steps, "count"),
        "fem.reference_ms_per_step": (1e3 * ref_s / ref_steps, "ms"),
        "msbasis.basis_s": (tracer.calls("msbasis.build_nlmc_basis")[1], "s"),
        "msbasis.basis_calls": (tracer.calls("msbasis.build_nlmc_basis")[0], "count"),
        "msbasis.continua_s": (tracer.calls("msbasis.detect_continua")[1], "s"),
        "msbasis.split_s": (tracer.calls("msbasis.split_spaces")[1], "s"),
        "msbasis.project_s": (tracer.calls("msbasis.project_coarse")[1], "s"),
        "msbasis.gamma_s": (tracer.calls("msbasis.subspace_angle")[1], "s"),
        "msbasis.d1": (pipe.space.d1, "count"),
        "msbasis.d2": (pipe.space.d2, "count"),
        "stepping.stability_s": (tracer.calls("stepping.stability_max_step")[1], "s"),
        "stepping.coarse_calls": (coarse_calls, "count"),
        "stepping.coarse_s": (coarse_s, "s"),
        "stepping.split_steps": (split_calls, "count"),
        "stepping.split_step_s": (split_s, "s"),
        "stepping.us_per_split_step": (1e6 * split_s / max(split_calls, 1), "us"),
        "allatonce.setup_s": (tracer.calls("allatonce.WaveformRelaxation.init")[1], "s"),
        "allatonce.wr_solves": (wr_solves, "count"),
        "allatonce.wr_sweeps": (sweeps, "count"),
        "allatonce.wr_sweeps_max": (
            max(tracer.leaf_calls_per_span("allatonce.ImplicitAllAtOnce.solve", "allatonce.WaveformRelaxation.solve"), default=0),
            "count",
        ),
        "allatonce.u_solve_s": (u_solve_s, "s"),
        "allatonce.rhs_s": (tracer.calls("allatonce.build_rhs")[1], "s"),
        "allatonce.w_sweep_s": (tracer.self_time("allatonce.WaveformRelaxation.solve"), "s"),
        "allatonce.us_per_sweep": (1e6 * wr_s / max(sweeps, 1), "us"),
        "allatonce.wr_maxiter": (counts["wr_maxiter"], "count"),
        "allatonce.wr_diverged": (counts["wr_diverged"], "count"),
        "allatonce.wr_converged_ratio": (counts["wr_converged"] / wr_solves if wr_solves else 1.0, "ratio"),
        "parareal.iterations": (tracer.calls("parareal.check_stop")[0], "count"),
        "parareal.fine_calls": (fine_calls, "count"),
        "parareal.fine_s": (fine_s, "s"),
        "parareal.self_s": (tracer.self_time("parareal.run_parareal"), "s"),
        "parareal.settled_fine_calls": (counts["settled_fine_calls"], "count"),
        "parareal.useful_fine_ratio": ((fine_calls - counts["settled_fine_calls"]) / max(fine_calls, 1), "ratio"),
        "parareal.critical_path_s": (path_s, "s"),
        "parareal.model_speedup": (sequential_s / path_s, "ratio"),
        "parareal.seq_gap": (solve.seq_gap, "ratio"),
        "log.warnings": (warnings.count, "count"),
        "trace.overhead_s": (traced_solve - untraced_solve, "s"),
    }
    out.metrics = m
    out.details = {
        "traced_solve_s": traced_solve,
        "untraced_solve_s": untraced_solve,
        "sequential_times_s": seq_times,
        "rel_error": solve.rel_error,
        "converged": result.run.converged,
        "counts": counts,
        "untraced_counts": run_counts(untraced_result),
    }
    return out, tracer
