import numpy as np
import pytest
import scipy.linalg as sla

from paradiff import stepping
from paradiff.msbasis import CoarseSystem
from paradiff.parareal import SequentialFine, build_fine_propagator
from paradiff.stepping import (
    ConstantLoads,
    SplitPropagators,
    SplitState,
    TimeGrid,
    project_initial,
)


def tiny_system():
    """Hand-sized 1+1 system with every block nonzero."""
    return CoarseSystem(
        M11=np.array([[2.0]]),
        A11=np.array([[3.0]]),
        M12=np.array([[0.5]]),
        A12=np.array([[0.4]]),
        M22=np.array([[1.5]]),
        A22=np.array([[0.7]]),
    )


def u_only_system(a=4.0):
    z = np.zeros((0, 0))
    return CoarseSystem(
        M11=np.array([[1.0]]),
        A11=np.array([[a]]),
        M12=np.zeros((1, 0)),
        A12=np.zeros((1, 0)),
        M22=z,
        A22=z,
    )


def w_only_system(m=2.0, a=3.0):
    z = np.zeros((0, 0))
    return CoarseSystem(
        M11=z,
        A11=z,
        M12=np.zeros((0, 1)),
        A12=np.zeros((0, 1)),
        M22=np.array([[m]]),
        A22=np.array([[a]]),
    )


def test_time_grid_arithmetic():
    tg = TimeGrid(0.005, 10, 20)
    assert np.isclose(tg.dt, 5e-4)
    assert np.isclose(tg.dt_sub, 2.5e-5)
    for bad in [(0.0, 1, 1), (1.0, 0, 1), (1.0, 1, 0)]:
        with pytest.raises(ValueError):
            TimeGrid(*bad)


def test_time_grid_rejects_nan():
    with pytest.raises(ValueError):
        TimeGrid(float("nan"), 2, 2)


SYSTEMS = pytest.mark.parametrize("make_system", [tiny_system, u_only_system, w_only_system])


@SYSTEMS
def test_split_step_matches_written_formulas(make_system):
    sysb = make_system()
    loads = ConstantLoads(np.full(sysb.d1, 0.3), np.full(sysb.d2, -0.2))
    props = SplitPropagators(sysb, loads)
    dt = 0.01
    u, w = np.full(sysb.d1, 1.0), np.full(sysb.d2, 2.0)
    u_prev, w_prev = np.full(sysb.d1, 0.8), np.full(sysb.d2, 1.5)
    # w = V z with V^T M22 V = I, so z = V^T M22 w
    to_modes = lambda x: props.modes.T @ sysb.M22 @ x
    u_out, z_out = props.split_step(u, to_modes(w), u_prev, to_modes(w_prev), dt)
    w_out = props.modes @ z_out
    # u implicit in A11, all w terms lagged with a backward difference
    rhs_u = sysb.M11 @ u / dt - sysb.M12 @ (w - w_prev) / dt - sysb.A12 @ w + loads.f1
    u_new = np.linalg.solve(sysb.M11 / dt + sysb.A11, rhs_u)
    # w mass solve with explicit stiffness and the new u in the cross term
    rhs_w = (
        sysb.M22 @ w / dt
        - sysb.M12.T @ (u - u_prev) / dt
        - sysb.A12.T @ u_new
        - sysb.A22 @ w
        + loads.f2
    )
    w_new = np.linalg.solve(sysb.M22 / dt, rhs_w)
    assert u_out.shape == u_new.shape and w_out.shape == w_new.shape
    assert np.allclose(u_out, u_new, rtol=1e-14)
    assert np.allclose(w_out, w_new, rtol=1e-14)


@pytest.mark.parametrize(
    "make_system", [pytest.param(None, id="channel"), tiny_system, u_only_system, w_only_system]
)
def test_sweep_rows_match_fine_interval_bitwise(make_system, channel_pipeline, rng):
    """Each row of a stacked sweep is its width-1 fine interval bit for bit,
    whichever rows share its stack; a gemm over the stack fails this."""
    if make_system is None:
        sysb, loads = channel_pipeline.space.system, channel_pipeline.loads
    else:
        sysb = make_system()
        loads = ConstantLoads(np.full(sysb.d1, 0.3), np.full(sysb.d2, -0.2))
    props = SplitPropagators(sysb, loads)
    tg = TimeGrid(0.005, 6, 4)
    rows = rng.standard_normal((7, sysb.d1 + sysb.d2))
    finals = [
        props.fine_interval(SplitState(r[: sysb.d1], r[sysb.d1 :]), tg.dt, tg.substeps).final
        for r in rows
    ]
    expected = np.array([f.stacked() for f in finals])
    fine = SequentialFine(props, tg)
    for width in range(1, 8):
        out, infos = fine.sweep(rows[:width])
        assert np.array_equal(out, expected[:width])
        assert [info["converged"] for info in infos] == [True] * width


@SYSTEMS
def test_coarse_step_solves_coupled_system(make_system):
    sysb = make_system()
    loads = ConstantLoads(np.full(sysb.d1, 0.1), np.full(sysb.d2, 0.2))
    props = SplitPropagators(sysb, loads)
    dt = 0.02
    state = SplitState(np.full(sysb.d1, 0.7), np.full(sysb.d2, -0.3))
    out = props.coarse_step(state.stacked(), dt)
    k = np.block(
        [
            [sysb.M11 / dt + sysb.A11, sysb.M12 / dt],
            [sysb.M12.T / dt + sysb.A12.T, sysb.M22 / dt],
        ]
    )
    rhs = np.concatenate(
        [
            loads.f1 + sysb.M11 @ state.u / dt + sysb.M12 @ state.w / dt - sysb.A12 @ state.w,
            loads.f2 + sysb.M12.T @ state.u / dt + sysb.M22 @ state.w / dt - sysb.A22 @ state.w,
        ]
    )
    assert out.shape == (sysb.d1 + sysb.d2,)
    assert np.allclose(out, np.linalg.solve(k, rhs), rtol=1e-13)


def test_fine_interval_scalar_backward_euler():
    a = 4.0
    sysb = u_only_system(a)
    props = SplitPropagators(sysb, ConstantLoads(np.zeros(sysb.d1), np.zeros(sysb.d2)))
    m = 8
    dt_int = 0.4
    # level s of the interval is `advance` over s substeps from its start
    levels = [props.advance(np.array([1.0]), np.zeros(0), dt_int / m, s) for s in range(m + 1)]
    kappa = 1.0 / (1.0 + (dt_int / m) * a)
    assert np.allclose([u[0] for u, _ in levels], kappa ** np.arange(m + 1), rtol=1e-14)
    assert all(w.shape == (0,) for _, w in levels)
    final = props.fine_interval(SplitState(np.array([1.0]), np.zeros(0)), dt_int, m).final
    assert np.array_equal(final.u, levels[-1][0])


def test_fine_interval_scalar_with_source_fixed_point():
    a, f = 5.0, 2.0
    sysb = u_only_system(a)
    props = SplitPropagators(sysb, ConstantLoads(np.array([f]), np.zeros(0)))
    state = SplitState(np.array([0.0]), np.zeros(0))
    traj = props.fine_interval(state, 40.0, 400)
    assert np.isclose(traj.final.u[0], f / a, rtol=1e-8)


def test_fine_interval_pure_w_explicit_recursion():
    m22, a22, f = 2.0, 3.0, 0.6
    sysb = w_only_system(m22, a22)
    props = SplitPropagators(sysb, ConstantLoads(np.zeros(0), np.array([f])))
    m = 5
    dt = 0.04
    levels = [props.advance(np.zeros(0), np.array([1.0]), dt, s) for s in range(m + 1)]
    w = 1.0
    expect = [w]
    for _ in range(m):
        w = w + dt * (f - a22 * w) / m22
        expect.append(w)
    assert np.allclose([w_s[0] for _, w_s in levels], expect, rtol=1e-14)
    final = props.fine_interval(SplitState(np.zeros(0), np.array([1.0])), dt * m, m).final
    assert np.array_equal(final.w, levels[-1][1])


def test_fine_interval_first_order_in_substep(channel_pipeline):
    """Against the coupled implicit scheme on the same grid the splitting
    error shrinks linearly with the substep."""
    space = channel_pipeline.space
    props = SplitPropagators(space.system, channel_pipeline.loads)
    state = SplitState(np.zeros(space.d1), np.zeros(space.d2))
    dt_int = 2.5e-4

    def coupled(n_steps):
        cur = state.stacked()
        for _ in range(n_steps):
            cur = props.coarse_step(cur, dt_int / n_steps)
        return cur

    errs = []
    for m in (4, 8, 16):
        split = props.fine_interval(state, dt_int, m).final.stacked()
        ref = coupled(m)
        errs.append(np.linalg.norm(split - ref))
    assert errs[0] > errs[1] > errs[2]
    rate = errs[0] / errs[2]
    assert rate > 2.0


def test_stability_max_step_matches_dense_eigenvalue(channel_pipeline):
    sysb = channel_pipeline.space.system
    props = SplitPropagators(sysb, ConstantLoads(np.zeros(sysb.d1), np.zeros(sysb.d2)))
    bound = props.stability_max_step()
    lam = sla.eigh(sysb.A22, sysb.M22, eigvals_only=True)[-1]
    assert np.isclose(bound, 2.0 / lam, rtol=1e-6)


def test_stability_bound_is_sharp_for_pure_w():
    sysb = w_only_system(m=1.0, a=10.0)
    props = SplitPropagators(sysb, ConstantLoads(np.zeros(sysb.d1), np.zeros(sysb.d2)))
    bound = props.stability_max_step()
    assert np.isclose(bound, 0.2, rtol=1e-8)

    def amplitude(dt, n=600):
        st = SplitState(np.zeros(0), np.array([1.0]))
        traj = props.fine_interval(st, dt * n, n)
        return abs(traj.final.w[0])

    assert amplitude(0.95 * bound) <= 1.0
    assert amplitude(1.05 * bound) > 10.0


def test_one_eigh_serves_wr_and_stability_bound(channel_pipeline, monkeypatch):
    calls = []
    real_eigh = stepping.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(stepping, "eigh", counting_eigh)
    pipe = channel_pipeline
    props = SplitPropagators(pipe.space.system, pipe.loads)
    fine = build_fine_propagator(
        "all-at-once", props, TimeGrid(pipe.config.t_end, 2, 4), alpha=0.5, epsilon=1e-14
    )
    bound = props.stability_max_step()
    fine.propagate(np.zeros(pipe.space.d1 + pipe.space.d2))
    assert len(calls) == 1
    assert fine.wr.propagators is props
    assert bound == 2.0 / props.lam[-1]
    assert np.array_equal(fine.wr.mu, 1.0 - fine.wr.dt * props.lam)


def test_stability_bound_infinite_without_w():
    sysb = u_only_system()
    props = SplitPropagators(sysb, ConstantLoads(np.zeros(sysb.d1), np.zeros(sysb.d2)))
    assert props.stability_max_step() == np.inf


def test_project_initial_recovers_representable_state(channel_pipeline, rng):
    space = channel_pipeline.space
    ops = channel_pipeline.ops
    u = rng.standard_normal(space.d1)
    w = rng.standard_normal(space.d2)
    fine = space.reconstruct(u, w)
    st = project_initial(fine, space, ops)
    # the mass-orthogonal projection of a representable function returns
    # its own coefficients because the cross terms are part of the normal
    # equations block by block; for the zero vector this is exact
    zero = project_initial(np.zeros(ops.grid.n_interior), space, ops)
    assert np.abs(zero.stacked()).max() == 0.0
    # each block solve reproduces the corresponding mass moments
    assert np.allclose(space.system.M11 @ st.u, space.Psi1.T @ (ops.M @ fine), rtol=1e-10)
    assert np.allclose(space.system.M22 @ st.w, space.Psi2.T @ (ops.M @ fine), rtol=1e-10)


def test_split_energy_matches_fine_norm(channel_pipeline, rng):
    space = channel_pipeline.space
    ops = channel_pipeline.ops
    u = rng.standard_normal(space.d1)
    w = rng.standard_normal(space.d2)
    fine = space.reconstruct(u, w)
    s, x = space.system, np.concatenate([u, w])
    energy = x @ (np.block([[s.M11, s.M12], [s.M12.T, s.M22]]) @ x)
    assert np.isclose(energy, ops.norm(fine) ** 2, rtol=1e-12)


def test_factor_cache_consistent(channel_pipeline):
    space = channel_pipeline.space
    props = SplitPropagators(space.system, channel_pipeline.loads)
    row = np.ones(space.d1 + space.d2)
    a = props.coarse_step(row, 1e-4)
    b = props.coarse_step(row, 1e-4)
    assert np.array_equal(a, b)
