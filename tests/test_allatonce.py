from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from paradiff.allatonce import (
    ImplicitAllAtOnce,
    TimeMatrixB,
    WaveformRelaxation,
    _stop_reason,
    build_rhs,
)
from paradiff.experiment import build_pipeline, check_config, load_config
from paradiff.msbasis import CoarseSystem
from paradiff.parareal import build_fine_propagator
from paradiff.stepping import SplitPropagators, SplitState, project_initial
from paradiff.util import scaled_norm


def test_time_matrix_dense_structure():
    tm = TimeMatrixB(4, 0.25, 0.3)
    b = tm.dense()
    expect = np.array(
        [
            [1.0, 0.0, 0.0, -0.3],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
        ]
    ) / 0.25
    assert np.array_equal(b, expect)


def test_time_matrix_validation():
    with pytest.raises(ValueError):
        TimeMatrixB(0, 0.1, 0.5)
    with pytest.raises(ValueError):
        TimeMatrixB(4, -0.1, 0.5)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            TimeMatrixB(4, 0.1, alpha)


def test_residual_norm_is_finite_and_an_infinite_residual_diverges():
    assert scaled_norm(np.array([[3e200, 4e200], [0.0, 1.0]]), axis=1).max() == pytest.approx(5e200, rel=1e-15)
    # entries above 2**1023: the scale stays finite, and so does a norm below the largest float
    assert scaled_norm(np.array([[1e308, 1e308], [0.0, 1.0]]), axis=1).max() == pytest.approx(
        np.sqrt(2.0) * 1e308, rel=1e-15
    )
    assert scaled_norm(np.array([1.7e308, 0.0])) == 1.7e308
    assert _stop_reason(np.inf, np.inf, 1e-14) == "diverged"
    assert _stop_reason(1.0, np.inf, 1e-14) is None


def test_time_matrix_rejects_nan():
    with pytest.raises(ValueError):
        TimeMatrixB(4, float("nan"), 0.5)


def test_eigenvalues_match_numpy():
    for m in (1, 2, 3, 8, 17):
        tm = TimeMatrixB(m, 0.05, 0.4)
        half = tm.eigenvalues()
        assert len(half) == m // 2 + 1
        # the half spectrum plus d_{M-k} = conj(d_k) for k = 1..(M-1)//2
        ours = list(half) + list(np.conj(half[1 : (m - 1) // 2 + 1]))
        ref = list(np.linalg.eigvals(tm.dense()))
        # greedy multiset match; conjugate pairs make a plain sort unstable
        for a in ours:
            dist = [abs(a - b) for b in ref]
            j = int(np.argmin(dist))
            assert dist[j] < 1e-9
            ref.pop(j)
        assert not ref  # every dense eigenvalue is matched


def test_eigenbasis_pair_matches_dense_factors(rng):
    m, alpha = 8, 0.35
    tm = TimeMatrixB(m, 0.01, alpha)
    lam = np.diag(alpha ** (-np.arange(m) / m))
    jk = np.outer(np.arange(m), np.arange(m))
    v = np.exp(2j * np.pi * jk / m)
    s_dense = lam @ v
    x = rng.standard_normal((m, 3))
    half = m // 2 + 1
    # to_eigenbasis is rows 0..M//2 of M S^-1
    assert np.allclose(tm.to_eigenbasis(x), (m * np.linalg.solve(s_dense, x))[:half], atol=1e-12)
    # from_eigenbasis is S / M on the conjugate-symmetric completion
    y = rng.standard_normal((half, 3)) + 1j * rng.standard_normal((half, 3))
    y[0].imag = y[-1].imag = 0.0  # rows 0 and M/2 of a real signal's spectrum
    y_full = np.vstack([y, np.conj(y[1 : m - half + 1][::-1])])
    assert np.allclose(tm.from_eigenbasis(y), s_dense @ y_full / m, atol=1e-12)
    assert np.allclose(tm.from_eigenbasis(tm.to_eigenbasis(x)), x, atol=1e-12)
    assert np.allclose(tm.to_eigenbasis(tm.from_eigenbasis(y)), y, atol=1e-12)


def test_diagonalization_identity_all_sizes():
    worst = 0.0
    for m in (2, 4, 8, 16, 32, 64):
        for alpha in (0.1, 0.5, 0.9):
            tm = TimeMatrixB(m, 0.01, alpha)
            rebuilt = tm.from_eigenbasis(tm.eigenvalues()[:, None] * tm.to_eigenbasis(np.eye(m)))
            b = tm.dense()
            worst = max(worst, np.abs(rebuilt.real - b).max() / np.abs(b).max())
            assert np.abs(rebuilt.imag).max() < 1e-10 * np.abs(b).max()
    assert worst <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 7, 8])  # odd and even irfft lengths
def test_implicit_allatonce_solves_kron_system(rng, m):
    d1, dt, alpha = 3, 0.02, 0.6
    q = rng.standard_normal((d1, d1))
    m11 = q @ q.T + d1 * np.eye(d1)
    a11 = np.diag([1.0, 4.0, 9.0])
    z = np.zeros((0, 0))
    sysb = CoarseSystem(
        M11=m11, A11=a11,
        M12=np.zeros((d1, 0)), A12=np.zeros((d1, 0)), M22=z, A22=z,
    )
    solver = ImplicitAllAtOnce(sysb, m, dt, alpha)
    rhs = rng.standard_normal((m, d1))
    u = solver.solve(rhs)
    assert isinstance(u, np.ndarray) and u.dtype == np.float64
    big = np.kron(TimeMatrixB(m, dt, alpha).dense(), m11) + np.kron(np.eye(m), a11)
    ref = np.linalg.solve(big, rhs.ravel()).reshape(m, d1)
    assert np.abs(u - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_build_rhs_hand_values():
    sysb = CoarseSystem(
        M11=np.array([[2.0]]),
        A11=np.array([[3.0]]),
        M12=np.array([[0.5]]),
        A12=np.array([[0.4]]),
        M22=np.array([[1.5]]),
        A22=np.array([[0.7]]),
    )
    f1_rows = np.array([[0.2], [0.2]])
    rhs = build_rhs(
        sysb.M11,
        sysb.M12,
        sysb.A12,
        f1_rows,
        u_start=np.array([1.0]),
        w_start=np.array([2.0]),
        w_rows_prev=np.array([[2.5], [3.0]]),
        u_final_prev=np.array([0.9]),
        dt=0.1,
        alpha=0.3,
    )
    # row 0: f - M12*(w0 - w0)/dt - A12*w0 + M11*(u0 - alpha*u_prev)/dt
    #      = 0.2 - 0 - 0.8 + 2*0.73/0.1 = 14.0
    # row 1: f - M12*(w1 - w0)/dt - A12*w1 = 0.2 - 2.5 - 1.0 = -3.3
    assert np.allclose(rhs, [[14.0], [-3.3]], atol=1e-13)


def test_wr_matches_sequential_trajectory(channel_pipeline):
    """A window of m' substeps at the sequential substep ends on level m' of
    the sequential trajectory, for every m' = 1..M."""
    space = channel_pipeline.space
    props = SplitPropagators(space.system, channel_pipeline.loads)
    state = SplitState(np.zeros(space.d1), np.zeros(space.d2))
    dt_int, m = 5e-4, 10
    # level m' of the sequential trajectory is `advance` over m' substeps
    seq = [props.advance(state.u, state.w, dt_int / m, level) for level in range(m + 1)]
    scale = max(max(np.abs(u).max(), np.abs(w).max()) for u, w in seq)
    for level in range(1, m + 1):
        wr = WaveformRelaxation(props, level, level * dt_int / m, 0.5, tol=1e-13)
        row, info = wr.solve(state.stacked())
        assert info["converged"]
        assert np.abs(row[: space.d1] - seq[level][0]).max() < 1e-10 * scale
        assert np.abs(row[space.d1 :] - seq[level][1]).max() < 1e-10 * scale


def test_wr_from_nonzero_state(channel_pipeline, rng):
    space = channel_pipeline.space
    props = SplitPropagators(space.system, channel_pipeline.loads)
    fine0 = channel_pipeline.ops.load(channel_pipeline.config.to_source())
    state = project_initial(fine0 / channel_pipeline.ops.norm(fine0), space, channel_pipeline.ops)
    row, _ = WaveformRelaxation(props, 8, 5e-4, 0.3, tol=1e-13).solve(state.stacked())
    seq = props.fine_interval(state, 5e-4, 8).final.stacked()
    assert np.linalg.norm(row - seq) < 1e-10 * (1.0 + np.linalg.norm(seq))


def test_wr_w_only_system_converges_immediately(homogeneous_pipeline):
    """Every window of m' = 1..M substeps, compared with level m' of the
    sequential trajectory."""
    space = homogeneous_pipeline.space
    assert space.d1 == 0
    props = SplitPropagators(space.system, homogeneous_pipeline.loads)
    state = SplitState(np.zeros(0), np.zeros(space.d2))
    dt_int, m = 5e-4, 6
    seq_w = [props.advance(state.u, state.w, dt_int / m, level)[1] for level in range(m + 1)]
    scale = max(1.0, max(np.abs(w).max() for w in seq_w))
    for level in range(1, m + 1):
        row, info = WaveformRelaxation(props, level, level * dt_int / m, 0.5, tol=1e-14).solve(state.stacked())
        assert info["converged"] and info["iterations"] <= 3
        assert np.abs(row - seq_w[level]).max() < 1e-12 * scale


def test_wr_determinism(channel_pipeline):
    space = channel_pipeline.space
    props = SplitPropagators(space.system, channel_pipeline.loads)
    row = np.zeros(space.d1 + space.d2)
    a, a_info = WaveformRelaxation(props, 10, 5e-4, 0.5, tol=1e-14).solve(row)
    b, b_info = WaveformRelaxation(props, 10, 5e-4, 0.5, tol=1e-14).solve(row)
    assert np.array_equal(a, b)
    assert a_info == b_info


def synthetic_low_gamma_system(g1=0.3, g2=0.1):
    """Coupling only through M12 with known singular values (g1, g2)."""
    return CoarseSystem(
        M11=np.eye(2),
        A11=np.diag([200.0, 100.0]),
        M12=np.diag([g1, g2]),
        A12=np.zeros((2, 2)),
        M22=np.eye(2),
        A22=np.diag([0.5, 0.5]),
    )


def test_wr_contraction_tracks_gamma_squared():
    """With identity mass blocks gamma is the largest M12 singular value and
    the per-sweep residual ratio settles near gamma^2."""
    gamma = 0.3
    sysb = synthetic_low_gamma_system(gamma, 0.1)
    loads = (np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    wr = WaveformRelaxation(SplitPropagators(sysb, loads), 8, 0.01, 0.1, tol=1e-13)
    _, info = wr.solve(np.zeros(4))
    assert info["converged"]
    r = info["residuals"]
    ratios = [r[i + 1] / r[i] for i in range(2, min(8, len(r) - 1))]
    geo = float(np.exp(np.mean(np.log(ratios))))
    assert geo <= gamma**2 + 0.2
    assert geo > 1e-4


def test_wr_residual_floor_stop():
    sysb = synthetic_low_gamma_system()
    loads = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    wr = WaveformRelaxation(SplitPropagators(sysb, loads), 8, 0.01, 0.1, tol=1e-18)
    _, info = wr.solve(np.zeros(4))
    # a tolerance below round-off still terminates cleanly: either the
    # iterates go bitwise stationary (residual exactly zero) or the floor
    # detection fires, never an exception or a hang
    assert info["iterations"] < 500
    assert info["residuals"][-1] <= 1e-12


def test_wr_reports_one_residual_per_allatonce_solve(
    channel_pipeline, homogeneous_pipeline, monkeypatch
):
    """iterations and the residual history count the all-at-once solves the
    solve made, at every stop reason: converged, at the round-off floor,
    diverged, and without u-unknowns."""
    calls = []
    original = ImplicitAllAtOnce.solve

    def counted(self, rhs):
        calls.append(1)
        return original(self, rhs)

    # 100 w-modes on the check setup: WR diverges on every window
    diverging = build_pipeline(replace(
        check_config(), blocks=10, layers=1, substeps=96,
        compute_reference=False, export_solution=False,
    ))
    tg = diverging.config.time_grid(8)
    floor_loads = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    cases = [
        (WaveformRelaxation(
            SplitPropagators(channel_pipeline.space.system, channel_pipeline.loads),
            10, 5e-4, 0.5, tol=1e-13), ("tol", "floor"), None),
        (WaveformRelaxation(
            SplitPropagators(synthetic_low_gamma_system(), floor_loads),
            8, 0.01, 0.1, tol=1e-18), ("floor",), 16),
        (WaveformRelaxation(
            SplitPropagators(diverging.space.system, diverging.loads),
            tg.substeps, tg.dt, diverging.config.alpha, tol=1e-14), ("diverged",), 63),
        (WaveformRelaxation(
            SplitPropagators(homogeneous_pipeline.space.system, homogeneous_pipeline.loads),
            10, 5e-4, 0.5, tol=1e-13), ("tol",), 2),
    ]
    monkeypatch.setattr(ImplicitAllAtOnce, "solve", counted)
    for wr, reasons, sweeps in cases:
        system = wr.propagators.system
        calls.clear()
        _, info = wr.solve(np.zeros(system.d1 + system.d2))
        assert info["stop_reason"] in reasons, (reasons, info["stop_reason"])
        assert info["converged"] == (info["stop_reason"] != "diverged")
        assert info["iterations"] == len(info["residuals"]) == len(calls), (reasons, len(calls))
        if sweeps is not None:
            assert info["iterations"] == sweeps, reasons


def test_wr_converges_on_example2_window():
    """Example2, N = 20, alpha 0.6, from the sequential state after three
    intervals: plain waveform relaxation stalls here at a gap of 3e-7."""
    cfg = replace(
        load_config(Path(__file__).resolve().parents[1] / "configs" / "example2.ini"),
        compute_reference=False, export_solution=False,
    )
    assert cfg.alpha == 0.6
    pipe = build_pipeline(cfg)
    tg = cfg.time_grid(20)
    props = SplitPropagators(pipe.space.system, pipe.loads)
    state = project_initial(np.zeros(pipe.grid.n_interior), pipe.space, pipe.ops)
    for _ in range(3):
        state = props.fine_interval(state, tg.dt, tg.substeps).final
    fine = build_fine_propagator(cfg.fine_kind, props, tg, cfg.alpha, cfg.epsilon)
    row, info = fine.propagate(state.stacked())
    assert info["converged"]
    seq = props.fine_interval(state, tg.dt, tg.substeps).final.stacked()
    gap = np.linalg.norm(row - seq)
    assert gap <= 1e-10 * np.linalg.norm(seq)
