"""End-to-end acceptance suite.

Each test checks one advertised guarantee of the solver stack on a concrete
configuration and prints a single pass/fail line with the measured numbers
(visible with pytest -s). Tolerances are part of the contract: loosening
them here is a library bug, not a test fix.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigvalsh

import paradiff.cli as cli
from paradiff.allatonce import (
    ImplicitAllAtOnce,
    TimeMatrixB,
    WaveformRelaxation,
)
from paradiff.experiment import (
    ExperimentConfig,
    build_pipeline,
    check_config,
    example1_config,
    run_single,
)
from paradiff.msbasis import CoarseSystem
from paradiff.parareal import AllAtOnceFine, SequentialFine, run_parareal
from paradiff.stepping import (
    SplitPropagators,
    SplitState,
    TimeGrid,
    project_initial,
)


def verdict(ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


@pytest.fixture(scope="module")
def example1_pipeline():
    cfg = replace(example1_config(), compute_reference=False, export_solution=False)
    return build_pipeline(cfg)


def test_endpoint_matches_sequential_fine_after_n_iterations(channel_pipeline):
    """After N iterations parareal reproduces the sequential fine solution."""
    space = channel_pipeline.space
    props = SplitPropagators(space.system, channel_pipeline.loads)
    initial = project_initial(
        np.zeros(channel_pipeline.grid.n_interior), space, channel_pipeline.ops
    ).stacked()
    tg = TimeGrid(0.005, 10, 10)
    worst = 0.0
    fines = {
        "sequential": SequentialFine(props, tg),
        "all-at-once": AllAtOnceFine(WaveformRelaxation(props, tg.substeps, tg.dt, 0.5, tol=1e-13)),
    }
    for kind, fine in fines.items():
        run = run_parareal(props, fine, initial, time_grid=tg, epsilon=0.0)
        assert run.iterations == 11 and run.converged

        seq = initial
        for _ in range(tg.n_intervals):
            seq, _ = fine.propagate(seq)
        u, w = run.endpoint(tg.n_intervals)
        rel = np.linalg.norm(np.concatenate([u, w]) - seq) / np.linalg.norm(seq)
        worst = max(worst, rel)
    verdict(
        worst <= 1e-12,
        f"parareal endpoint after N=10 iterations matches the sequential fine "
        f"solution for both fine kinds: worst rel diff {worst:.3e} (tol 1e-12)",
    )


def test_iteration_counts_bounded_and_flat_in_interval_count(example1_pipeline):
    """Iteration counts stay in a narrow band as N grows (fixed horizon)."""
    counts = {}
    for n in (20, 30, 40, 50, 60):
        counts[n] = run_single(example1_pipeline, n).run.iterations
    in_band = all(8 <= c <= 25 for c in counts.values())
    flat = counts[60] <= counts[20] + 2
    verdict(
        in_band and flat,
        f"iterations over N=20..60: {list(counts.values())}, all within [8, 25] "
        f"and count(60) <= count(20) + 2",
    )


def test_diagonalized_block_solver_matches_dense_kron_solve(channel_pipeline, rng):
    """The FFT-diagonalized all-at-once solve equals a dense Kronecker solve."""
    system = channel_pipeline.space.system
    d1, m, alpha = system.d1, 16, 0.5
    assert d1 <= 20
    dt = 5e-3 / m
    solver = ImplicitAllAtOnce(system, m, dt, alpha)
    rhs = rng.standard_normal((m, d1))
    u = solver.solve(rhs)
    big = np.kron(TimeMatrixB(m, dt, alpha).dense(), system.M11) + np.kron(
        np.eye(m), system.A11
    )
    ref = np.linalg.solve(big, rhs.ravel()).reshape(m, d1)
    rel = np.abs(u - ref).max() / np.abs(ref).max()
    verdict(
        rel <= 1e-8,
        f"diagonalized all-at-once solve (d1={d1}, M={m}) matches dense "
        f"Kronecker solve: rel diff {rel:.3e} (tol 1e-8)",
    )


def test_shift_diagonalization_identity_over_sizes_and_alphas():
    """S diag(d_k) S^-1, through the solver's own transform pair, rebuilds
    the time-stepping matrix B."""
    worst = 0.0
    for m in (2, 4, 8, 16, 32, 64):
        for alpha in (0.1, 0.5, 0.9):
            tm = TimeMatrixB(m, 1e-3, alpha)
            # the transform pair ImplicitAllAtOnce.solve runs: (S/M) D (M S^-1)
            rebuilt = tm.from_eigenbasis(tm.eigenvalues()[:, None] * tm.to_eigenbasis(np.eye(m)))
            b = tm.dense()
            worst = max(worst, np.linalg.norm(rebuilt - b) / np.linalg.norm(b))
    verdict(
        worst <= 1e-10,
        f"S D S^-1 = B for M in {{2,...,64}} x alpha in {{0.1,0.5,0.9}}: "
        f"worst rel residual {worst:.3e} (tol 1e-10)",
    )


def test_waveform_relaxation_matches_sequential_and_contracts_like_gamma_squared(
    channel_pipeline,
):
    """Converged WR equals the sequential substep scheme; its residual decay
    rate on a system with identity mass blocks tracks gamma^2."""
    space = channel_pipeline.space
    props = SplitPropagators(space.system, channel_pipeline.loads)
    state = SplitState(np.zeros(space.d1), np.zeros(space.d2))
    dt_int, m = 5e-3, 10
    worst, sweeps = 0.0, []
    for alpha in (0.1, 0.5, 0.9):
        row, info = WaveformRelaxation(props, m, dt_int, alpha, tol=1e-13).solve(state.stacked())
        assert info["converged"]
        sweeps.append(info["iterations"])
        seq = props.fine_interval(state, dt_int, m).final.stacked()
        worst = max(worst, np.linalg.norm(row - seq) / np.linalg.norm(seq))

    gamma = 0.3
    sysb = CoarseSystem(
        M11=np.eye(2),
        A11=np.diag([200.0, 100.0]),
        M12=np.diag([gamma, 0.1]),
        A12=np.zeros((2, 2)),
        M22=np.eye(2),
        A22=np.diag([0.5, 0.5]),
    )
    # identity mass blocks make gamma the largest singular value of M12
    assert np.linalg.svd(sysb.M12, compute_uv=False)[0] == gamma
    loads = (np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    wr = WaveformRelaxation(SplitPropagators(sysb, loads), 8, 0.01, 0.1, tol=1e-13)
    r = wr.solve(np.zeros(4))[1]["residuals"]
    ratios = [r[i + 1] / r[i] for i in range(2, min(8, len(r) - 1))]
    geo = float(np.exp(np.mean(np.log(ratios))))
    verdict(
        worst <= 1e-10 and geo <= gamma**2 + 0.2,
        f"converged WR matches sequential scheme for alpha in {{0.1,0.5,0.9}}: "
        f"worst rel gap {worst:.3e} (tol 1e-10), sweeps {sweeps}; residual "
        f"ratio {geo:.3f} <= gamma^2 + 0.2 = {gamma**2 + 0.2:.2f} at gamma={gamma}",
    )


def test_iteration_count_insensitive_to_contrast():
    """Contrast 1e2 vs 1e6 changes the iteration count by at most 50%."""
    counts = {}
    for contrast in (1e2, 1e6):
        cfg = replace(
            example1_config(), contrast=contrast, n_values=(40,),
            compute_reference=False, export_solution=False,
        )
        counts[contrast] = run_single(build_pipeline(cfg), 40).run.iterations
    a, b = counts[1e2], counts[1e6]
    spread = abs(a - b) / min(a, b)
    verdict(
        spread <= 0.5,
        f"iterations at N=40 for contrast 1e2 vs 1e6: {a} vs {b}, "
        f"spread {spread:.2f} (tol 0.5)",
    )


def test_final_time_accuracy_against_fine_reference(example1_pipeline):
    """The converged coarse solution reproduces the fine backward Euler
    reference at the final time to a few percent."""
    pipe = replace(
        example1_pipeline,
        config=replace(example1_pipeline.config, compute_reference=True),
    )
    result = run_single(pipe, 20)
    assert result.run.converged
    verdict(
        result.relative_error <= 0.05,
        f"relative error vs fine reference at N=20: "
        f"{result.relative_error:.3e} (tol 5e-2)",
    )


def test_final_time_accuracy_holds_at_high_contrast():
    """Raising the contrast from 1e4 to 1e6 leaves the error against the fine
    reference where it was: the whole-domain NLMC bases do not degrade with
    contrast (measured 1.4788e-2 and 1.4791e-2; four oversampling layers
    gave 2.14e-2 and 2.85e-1)."""
    errors = {}
    for contrast in (1e4, 1e6):
        cfg = replace(
            example1_config(), contrast=contrast, fine_kind="sequential",
            compute_reference=True, export_solution=False,
        )
        result = run_single(build_pipeline(cfg), 20)
        assert result.run.converged
        errors[contrast] = result.relative_error
    low, high = errors[1e4], errors[1e6]
    verdict(
        max(low, high) <= 1.6e-2 and abs(high - low) <= 1e-2 * low,
        f"relative error vs fine reference at N=20, contrast 1e4 vs 1e6: "
        f"{low:.4e} vs {high:.4e} (each <= 1.6e-2, apart by <= 1% of the first)",
    )


def test_explicit_step_bound_insensitive_to_contrast():
    """With whole-domain patches (4 layers on the check setup's 5 blocks)
    the split scheme's largest stable substep, 2 / lambda_max(M22^-1 A22),
    barely moves from contrast 1e2 to 1e6 (measured 3.032e-3 and 3.030e-3),
    while a fully explicit step of the stacked coarse system, 2 /
    lambda_max(M^-1 A), falls with the contrast (1.844e-4 to 1.962e-8). At
    the check setup's own 2 layers the split bound falls 86-fold as well."""
    split, full = {}, {}
    for contrast in (1e2, 1e6):
        cfg = replace(check_config(), layers=4, contrast=contrast, compute_reference=False)
        pipe = build_pipeline(cfg)
        s = pipe.space.system
        mass = np.block([[s.M11, s.M12], [s.M12.T, s.M22]])
        stiff = np.block([[s.A11, s.A12], [s.A12.T, s.A22]])
        split[contrast] = pipe.propagators.stability_max_step()
        full[contrast] = 2.0 / eigvalsh(stiff, mass)[-1]
    ratio = max(split.values()) / min(split.values())
    drop = full[1e2] / full[1e6]
    verdict(
        ratio <= 2.0 and drop >= 1e3,
        f"split step bound at contrast 1e2 vs 1e6: {split[1e2]:.3e} vs {split[1e6]:.3e} "
        f"(within 2x: {ratio:.2f}); fully explicit bound {full[1e2]:.3e} -> {full[1e6]:.3e} "
        f"(falls >= 1e3-fold: {drop:.3g})",
    )


def test_invariant_check_suite_passes(capsys):
    """The check subcommand's diagnostics all pass on the reduced setup."""
    rc = cli.main(["check"])
    out = capsys.readouterr().out
    with capsys.disabled():
        verdict(
            rc == 0 and "all 4 checks passed" in out,
            f"check subcommand exit code {rc}, "
            f"{out.count('[ok]')} of 4 diagnostics ok",
        )


def test_update_magnitudes_strictly_decrease_on_smooth_problem():
    """On a homogeneous field with a smooth source the largest endpoint
    update shrinks strictly every iteration until convergence."""
    cfg = ExperimentConfig(
        nx=40, blocks=5, layers=2, contrast=1.0, channels=[],
        source_kind="constant", n_values=(10,),
        compute_reference=False, export_solution=False,
    )
    run = run_single(build_pipeline(cfg), 10).run
    diffs = run.max_diffs
    strict = all(b < a for a, b in zip(diffs, diffs[1:]))
    verdict(
        strict and run.converged and len(diffs) >= 3,
        f"max update strictly decreasing over {len(diffs)} iterations: "
        f"{diffs[0]:.3e} -> {diffs[-1]:.3e}, converged = {run.converged}",
    )
