import numpy as np
import pytest

from paradiff.msbasis import CoarseSystem
from paradiff.parareal import (
    FineSolveError,
    build_fine_propagator,
    initial_sweep,
    max_state_diff,
    run_parareal,
)
from paradiff.stepping import SplitPropagators, TimeGrid


def scalar_system(a=6.0):
    z = np.zeros((0, 0))
    return CoarseSystem(
        M11=np.array([[1.0]]), A11=np.array([[a]]),
        M12=np.zeros((1, 0)), A12=np.zeros((1, 0)), M22=z, A22=z,
    )


def make_run(pipe, *, n=6, substeps=4, fine_kind="sequential",
             epsilon=1e-14, alpha=0.5):
    """Parareal on pipe."""
    tg = TimeGrid(pipe.config.t_end, n, substeps)
    props = SplitPropagators(pipe.space.system, pipe.loads)
    fine = build_fine_propagator(fine_kind, props, tg, alpha=alpha, epsilon=epsilon)
    initial = np.zeros(pipe.space.d1 + pipe.space.d2)
    run = run_parareal(props, fine, initial, time_grid=tg, epsilon=epsilon)
    return run, fine, props, tg


def test_max_state_diff_ignores_initial_row():
    prev = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    new = np.array([[9.0, 9.0], [1.0, 3.0], [0.0, 2.0]])
    assert max_state_diff(prev, new) == 3.0


def test_initial_sweep_composes_coarse(channel_pipeline):
    pipe = channel_pipeline
    props = SplitPropagators(pipe.space.system, pipe.loads)
    tg = TimeGrid(pipe.config.t_end, 4, 2)
    initial = np.zeros(pipe.space.d1 + pipe.space.d2)
    rows = initial_sweep(props, initial, tg)
    assert rows.shape == (5, pipe.space.d1 + pipe.space.d2)
    cur = initial
    for n in range(4):
        cur = props.coarse_step(cur, tg.dt)
        assert np.array_equal(rows[n + 1], cur)


def test_exactness_after_n_iterations_bitwise(channel_pipeline):
    """With epsilon = 0 the run ends on the zero update of iteration N + 1,
    and iterate N is the sequential composition of the fine propagator bit
    for bit."""
    run, fine, props, tg = make_run(channel_pipeline, n=6, substeps=4, epsilon=0.0)
    assert run.iterations == 7 and run.converged
    expected = [np.zeros(channel_pipeline.space.d1 + channel_pipeline.space.d2)]
    for _ in range(tg.n_intervals):
        expected.append(fine.propagate(expected[-1])[0])
    assert np.array_equal(run.history[6], np.array(expected))


def test_exactness_holds_for_all_at_once_kind(channel_pipeline):
    run, fine, props, tg = make_run(
        channel_pipeline, n=5, substeps=6, fine_kind="all-at-once", epsilon=0.0,
    )
    assert run.iterations == 6 and run.converged
    expected = [np.zeros(channel_pipeline.space.d1 + channel_pipeline.space.d2)]
    for _ in range(tg.n_intervals):
        expected.append(fine.propagate(expected[-1])[0])
    assert np.array_equal(run.history[5], np.array(expected))


def reference_parareal(props, fine, initial, tg, iterations):
    """Textbook parareal: every interval's fine solve recomputed each iteration."""
    states = [initial]
    for _ in range(tg.n_intervals):
        states.append(props.coarse_step(states[-1], tg.dt))
    coarse_prev = [props.coarse_step(s, tg.dt) for s in states[:-1]]
    history = [np.array(states)]
    for _ in range(iterations):
        fines = [fine.propagate(s)[0] for s in states[:-1]]
        new_states, coarse_new = [initial], []
        for n, fin in enumerate(fines):
            g_new = props.coarse_step(new_states[n], tg.dt)
            coarse_new.append(g_new)
            new_states.append(fin + (g_new - coarse_prev[n]))
        history.append(np.array(new_states))
        states, coarse_prev = new_states, coarse_new
    return history


@pytest.mark.parametrize("fine_kind", ["all-at-once", "sequential"])
def test_settled_intervals_reuse_fine_solves(channel_pipeline, fine_kind):
    pipe = channel_pipeline
    n, k = 6, 7
    tg = TimeGrid(pipe.config.t_end, n, 4)
    props = SplitPropagators(pipe.space.system, pipe.loads)
    fine = build_fine_propagator(fine_kind, props, tg, alpha=0.5, epsilon=0.0)
    calls = []
    sweep = fine.sweep

    def counted(rows):
        calls.extend(rows)
        return sweep(rows)

    fine.sweep = counted
    initial = np.zeros(pipe.space.d1 + pipe.space.d2)
    run = run_parareal(props, fine, initial, time_grid=tg, epsilon=0.0)
    assert run.iterations == k and run.converged

    h = run.history
    settled = sum(
        np.array_equal(h[i][m], h[i - 1][m]) for i in range(1, k) for m in range(n)
    )
    assert settled > 0
    assert len(calls) == n * k - settled
    # iteration i records one entry per solve it made, on intervals i-1..n-1
    assert [len(infos) for infos in run.fine_info] == [n - i + 1 for i in range(1, k + 1)]

    fine.sweep = sweep
    expected = reference_parareal(props, fine, initial, tg, k)
    assert len(expected) == len(h)
    for a, b in zip(h, expected):
        assert np.array_equal(a, b)


def test_iteration_solves_only_unsettled_intervals(channel_pipeline):
    """After the initial coarse sweep, iteration i makes n-i+1 fine solves,
    then n-i coarse solves on rows i..n-1 of the new iterate, and none once
    i exceeds n."""
    pipe = channel_pipeline
    n, k = 5, 6
    tg = TimeGrid(pipe.config.t_end, n, 2)
    props = SplitPropagators(pipe.space.system, pipe.loads)
    fine = build_fine_propagator("sequential", props, tg, alpha=0.5, epsilon=0.0)
    calls = []
    sweep, coarse_step = fine.sweep, props.coarse_step

    def counted_fine(rows):
        calls.extend("F" * len(rows))
        return sweep(rows)

    g_inputs = []

    def counted_coarse(x, dt):
        calls.append("G")
        g_inputs.append(x.copy())
        return coarse_step(x, dt)

    fine.sweep, props.coarse_step = counted_fine, counted_coarse
    initial = np.zeros(pipe.space.d1 + pipe.space.d2)
    run = run_parareal(props, fine, initial, time_grid=tg, epsilon=0.0)
    assert run.iterations == k
    expected = ["G"] * n
    for i in range(1, k + 1):
        expected += ["F"] * max(n - i + 1, 0) + ["G"] * max(n - i, 0)
    assert calls == expected
    rows = [run.history[i][m] for i in range(1, k + 1) for m in range(i, n)]
    assert len(g_inputs) == n + len(rows)
    assert all(np.array_equal(a, b) for a, b in zip(g_inputs[n:], rows))
    assert np.array_equal(run.history[-1], run.history[-2])


def test_unconverged_fine_solve_raises_with_its_interval(channel_pipeline):
    """A fine solve that does not converge ends the run at its iteration,
    named by absolute interval: iteration 2 sweeps intervals 1..N-1."""
    pipe = channel_pipeline
    tg = TimeGrid(pipe.config.t_end, 5, 2)
    props = SplitPropagators(pipe.space.system, pipe.loads)
    fine = build_fine_propagator("sequential", props, tg, alpha=0.5, epsilon=0.0)
    sweep, iterations = fine.sweep, []

    def failing(rows):
        out, infos = sweep(rows)
        iterations.append(len(iterations) + 1)
        if iterations[-1] == 2:
            infos[2] = {"converged": False}
        return out, infos

    fine.sweep = failing
    initial = np.zeros(pipe.space.d1 + pipe.space.d2)
    with pytest.raises(FineSolveError, match=r"^1 fine solves diverged at iteration 2 on intervals \[3\]$"):
        run_parareal(props, fine, initial, time_grid=tg, epsilon=0.0)
    assert iterations == [1, 2]


def test_scalar_closed_form_solution():
    a, f, t_end = 6.0, 2.4, 0.8
    sysb = scalar_system(a)
    loads = (np.array([f]), np.zeros(0))
    props = SplitPropagators(sysb, loads)
    tg = TimeGrid(t_end, 8, 16)
    fine = build_fine_propagator("all-at-once", props, tg, alpha=0.5, epsilon=1e-15)
    initial = np.array([1.0])
    run = run_parareal(props, fine, initial, time_grid=tg, epsilon=1e-15)
    assert run.converged
    kappa = 1.0 / (1.0 + tg.dt_sub * a)
    u_star = f / a
    n_total = tg.n_intervals * tg.substeps
    expect = u_star + kappa**n_total * (1.0 - u_star)
    assert np.isclose(run.endpoint()[0][0], expect, rtol=1e-12)


def test_converges_before_n_on_smooth_case(homogeneous_pipeline):
    run, *_ = make_run(homogeneous_pipeline, n=10, substeps=4)
    assert run.converged
    assert run.iterations < 10
    assert run.max_diffs[-1] < 1e-14


def test_zero_epsilon_stops_on_the_exact_zero_update(channel_pipeline):
    """From iterate N on every row is final, so iteration N + 1 updates
    nothing, and an update of exactly epsilon = 0 ends the run converged."""
    run, *_ = make_run(channel_pipeline, n=4, substeps=3, epsilon=0.0)
    assert run.iterations == 5 and run.converged
    assert run.max_diffs[-1] == 0.0


def test_history_and_timing_shapes(channel_pipeline):
    run, _, _, tg = make_run(channel_pipeline, n=4, substeps=3, epsilon=0.0)
    assert len(run.history) == run.iterations + 1
    assert all(h.shape == (5, channel_pipeline.space.d1 + channel_pipeline.space.d2)
               for h in run.history)
    assert len(run.max_diffs) == run.iterations
    assert len(run.fine_seconds) == run.iterations
    assert len(run.coarse_seconds) == run.iterations
    assert run.total_seconds > 0.0
    u, w = run.endpoint()
    assert u.size == channel_pipeline.space.d1 and w.size == channel_pipeline.space.d2


def test_unknown_fine_kind_rejected(channel_pipeline):
    pipe = channel_pipeline
    tg = TimeGrid(pipe.config.t_end, 2, 2)
    props = SplitPropagators(pipe.space.system, pipe.loads)
    with pytest.raises(ValueError):
        build_fine_propagator("magic", props, tg, alpha=0.5, epsilon=1e-14)


def test_wr_tolerance_follows_epsilon(channel_pipeline):
    props = SplitPropagators(channel_pipeline.space.system, channel_pipeline.loads)
    tg = TimeGrid(0.005, 2, 2)
    for epsilon, tol in ((1e-8, 1e-12), (1e-14, 1e-14), (0.0, 1e-14)):
        fine = build_fine_propagator("all-at-once", props, tg, alpha=0.5, epsilon=epsilon)
        assert fine.wr.tol == tol


def test_all_at_once_sweep_propagates_each_row_once_in_order(channel_pipeline, rng):
    """bench/tracer.py times each all-at-once solve by wrapping propagate, so
    sweep must make exactly one propagate call per row, in row order, and
    return what those calls returned."""
    pipe = channel_pipeline
    tg = TimeGrid(pipe.config.t_end, 4, 3)
    props = SplitPropagators(pipe.space.system, pipe.loads)
    fine = build_fine_propagator("all-at-once", props, tg, alpha=0.5, epsilon=1e-14)
    calls = []
    propagate = fine.propagate

    def recorded(row):
        out = propagate(row)
        calls.append((row.copy(), out))
        return out

    fine.propagate = recorded
    rows = rng.standard_normal((3, pipe.space.d1 + pipe.space.d2))
    out, infos = fine.sweep(rows)
    assert len(calls) == len(rows)
    for row, (seen, (fin, info)), got, got_info in zip(rows, calls, out, infos):
        assert np.array_equal(seen, row)
        assert np.array_equal(got, fin)
        assert got_info is info
