"""How window length and alpha drive waveform relaxation.

The fine solver alternates an all-at-once solve for the stiff coefficients
with an explicit sweep for the rest, over a window of M substeps. Two
error mechanisms compete. The alpha-circulant corner recycles the window's
final stiff state into its start; its influence shrinks as the window gets
long enough to damp the slowest stiff mode, and grows with alpha. The
block coupling feeds each sweep's lag error back through the off-diagonal
mass and stiffness terms; it strengthens as the explicit substep
dt_interval / M climbs toward its stability bound. Short windows with
moderate alpha sit in the fast regime; long windows push the coupling
term toward 1 and eventually diverge.

Run: python3 demos/04_waveform_windows.py
"""

import logging

import numpy as np
from scipy.linalg import eigh

from paradiff.allatonce import WaveformRelaxation
from paradiff.experiment import ExperimentConfig, build_pipeline
from paradiff.stepping import SplitPropagators, SplitState


def demo_config() -> ExperimentConfig:
    return ExperimentConfig(
        nx=20, blocks=4, layers=2, contrast=1e4,
        channels=[(1, 19, 8, 10)],
        source_kind="box", source_amplitude=1.0,
        source_region=(0.3, 0.7, 0.3, 0.7),
    )


def tail_ratio(residuals: list[float]) -> float:
    r = [x for x in residuals if x > 1e-15]
    if len(r) < 4:
        return float("nan")
    ratios = [r[i + 1] / r[i] for i in range(len(r) // 2, len(r) - 1)]
    return float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")


def main():
    logging.basicConfig(level=logging.ERROR)
    pipe = build_pipeline(demo_config())
    system = pipe.space.system
    props = SplitPropagators(system, pipe.loads)
    bound = props.stability_max_step()
    lam_min = float(eigh(system.A11, system.M11, eigvals_only=True)[0])
    print("d1 = %d, d2 = %d, gamma = %.4f (gamma^2 = %.3f)"
          % (pipe.space.d1, pipe.space.d2, pipe.gamma, pipe.gamma**2))
    print("slowest stiff mode lambda_min = %.1f, explicit substep bound = %.2e"
          % (lam_min, bound))
    print()

    m = 10
    state = SplitState.fresh(np.zeros(pipe.space.d1), np.zeros(pipe.space.d2))
    alphas = (0.1, 0.5, 0.9)
    print("sweeps to tol = 1e-12, observed tail contraction in parentheses")
    print("(window = M substeps, M = %d):" % m)
    print("%10s %14s" % ("window", "substep/bound"),
          *("%18s" % ("alpha=%.1f" % a) for a in alphas))
    for dt_int in (5e-4, 2.5e-3, 5e-3, 1e-2):
        cells = []
        for a in alphas:
            wr = WaveformRelaxation(props, m, dt_int, a, tol=1e-12, max_iter=5000)
            res = wr.solve(state)
            if res.converged:
                cells.append("%6d  (%6.3f)" % (res.iterations, tail_ratio(res.residuals)))
            else:
                cells.append("%8s (%6.3f)" % ("diverged", tail_ratio(res.residuals)))
        print("%10.1e %14.3f" % (dt_int, dt_int / m / bound), *("%18s" % c for c in cells))
    print()
    print("Reading the rows: with a short window the corner term sets the")
    print("rate, so sweeps grow with alpha but every column converges. As the")
    print("window stretches, the substep approaches its stability bound and")
    print("the coupling term takes over: contraction ratios drift toward 1")
    print("and the alpha = 0.9 column eventually diverges. The parareal")
    print("driver sizes windows as T / N^2, which keeps the substep two")
    print("orders below the bound for the default configurations.")


if __name__ == "__main__":
    main()
