"""Parareal convergence trace, and its cost against the sequential scheme.

Runs the one-channel 60x60 setup with N = 16 intervals and M = 16
substeps per interval and prints the per-iteration correction sizes next
to the true error against a fine backward Euler reference. Then, for
several N, it times the sequential split scheme that parareal converges
to, the parareal run as executed here (one core; iteration k solves
intervals k-1..N-1 one after another), and the fine solve
of every interval. The ideal parallel time assumes one core per interval,
so that an iteration costs the slowest fine solve plus the serial coarse
sweep; it only means something next to the measured sequential time,
which is printed beside it.

Run: python3 demos/05_parareal_speedup.py
"""

import statistics
import time
from dataclasses import replace

import numpy as np

from paradiff.experiment import ExperimentConfig, build_pipeline, run_single
from paradiff.parareal import build_fine_propagator, initial_sweep
from paradiff.stepping import project_initial


def demo_config() -> ExperimentConfig:
    return ExperimentConfig(
        nx=60, blocks=6, layers=3, contrast=1e4,
        channels=[(2, 58, 29, 31)],
        source_kind="box", source_amplitude=1.0,
        source_region=(0.3, 0.7, 0.3, 0.7),
        alpha=0.5,
    )


def timed(fn):
    tic = time.perf_counter()
    out = fn()
    return time.perf_counter() - tic, out


def costs(pipe, n):
    """(sequential scheme s, slowest fine solve of one interval s) at N = n."""
    cfg = pipe.config
    tg = cfg.time_grid(n)
    props = pipe.propagators
    initial = project_initial(np.zeros(pipe.grid.n_interior), pipe.space, pipe.ops)

    def sequential():
        u, w = initial.u, initial.w
        for _ in range(tg.n_intervals):
            u, w = props.advance(u, w, tg.dt_sub, tg.substeps)
        return u, w

    seq_s = statistics.median(timed(sequential)[0] for _ in range(3))
    fine = build_fine_propagator(cfg.fine_kind, props, tg, cfg.alpha, cfg.epsilon)
    starts = initial_sweep(props, initial.stacked(), tg)[:-1]
    fine_s = max(timed(lambda: fine.propagate(row))[0] for row in starts)
    return seq_s, fine_s


def main():
    n = 16
    pipe = build_pipeline(demo_config())
    r = run_single(pipe, n)
    run = r.run

    print("N = %d intervals, M = %d substeps, d1 + d2 = %d coefficients"
          % (n, n, pipe.space.d1 + pipe.space.d2))
    print()
    print("%5s %14s %16s" % ("iter", "max update", "error vs fine"))
    print("%5s %14s %16.3e" % ("0", "", r.error_series[0]))
    for k, diff in enumerate(run.max_diffs, start=1):
        err = r.error_series[k] if k < len(r.error_series) else float("nan")
        print("%5d %14.3e %16.3e" % (k, diff, err))
    print()
    print("converged = %s after %d iterations (epsilon = %g)"
          % (run.converged, run.iterations, pipe.config.epsilon))
    print("The true error settles at the coarse-space level %.2e within a"
          % r.relative_error)
    print("few iterations; the remaining sweeps only polish coefficients.")
    print()

    print("wall times in seconds (%s fine propagator):" % pipe.config.fine_kind)
    print("%4s %6s %11s %9s %11s %11s %9s" % (
        "N", "iters", "sequential", "parareal", "max fine", "ideal par.", "speedup"))
    quiet = replace(pipe, config=replace(pipe.config, compute_reference=False))
    for n_big in (16, 32, 48):
        rb = run_single(quiet, n_big).run
        seq_s, fine_s = costs(pipe, n_big)
        ideal_s = rb.iterations * (fine_s + float(np.mean(rb.coarse_seconds)))
        print("%4d %6d %11.3f %9.3f %11.4f %11.3f %9.2f" % (
            n_big, rb.iterations, seq_s, rb.total_seconds, fine_s, ideal_s, seq_s / ideal_s))
    print()
    print("sequential: the split scheme over [0, T], the solution parareal")
    print("converges to. parareal: the run as executed here on one core.")
    print("ideal par.: iterations x (slowest fine solve + coarse sweep),")
    print("the modelled time with one core per interval; speedup is the")
    print("sequential time over it. Whether any speedup is real depends on")
    print("that sequential column, not on the parareal run alone.")


if __name__ == "__main__":
    main()
