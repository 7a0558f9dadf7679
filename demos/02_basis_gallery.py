"""Inspect the multiscale basis on a small crossing-channel field.

Two high-contrast streaks cross near the middle of a 24x24 grid split into
4x4 coarse blocks. Each coarse block contributes one basis function per
continuum (matrix cells, plus one per channel component crossing the
block). The gallery prints the coefficient field, the per-block continuum
counts, and how fast individual basis functions decay away from their home
block, which is what makes truncation to an oversampled patch work.

Run: python3 demos/02_basis_gallery.py
"""

import numpy as np

from paradiff.experiment import ExperimentConfig, build_pipeline
from paradiff.fem import node_values_on_grid


def demo_config() -> ExperimentConfig:
    return ExperimentConfig(
        nx=24, blocks=4, layers=2, contrast=1e4,
        channels=[(4, 20, 10, 12), (10, 12, 4, 20)],
        source_kind="constant",
    )


def ascii_field(kappa: np.ndarray) -> str:
    lines = []
    for j in reversed(range(kappa.shape[1])):
        lines.append("".join("#" if kappa[i, j] > 1.0 else "." for i in range(kappa.shape[0])))
    return "\n".join(lines)


def decay_profile(grid, column: np.ndarray, block_nodes: int) -> list[float]:
    """Largest |value| at Chebyshev distance >= k blocks from the peak."""
    v = np.abs(node_values_on_grid(grid, column))
    pi, pj = np.unravel_index(np.argmax(v), v.shape)
    ii, jj = np.indices(v.shape)
    dist = np.maximum(np.abs(ii - pi), np.abs(jj - pj))
    out = []
    for k in (1, 2, 3):
        mask = dist >= k * block_nodes
        out.append(float(v[mask].max()) if mask.any() else 0.0)
    return out


def main():
    cfg = demo_config()
    pipe = build_pipeline(cfg)
    space = pipe.space
    nb = cfg.blocks

    print("coefficient field (# = contrast %.0e):" % cfg.contrast)
    print(ascii_field(pipe.ops.field.as_matrix()))
    print()
    print("d1 = %d (channel continua), d2 = %d (mean field + matrix continua)"
          % (space.d1, space.d2))
    print("gamma = %.4f, constraint residual = %.2e"
          % (pipe.gamma, space.constraint_residual))
    print()

    m_counts = space.decomposition.m_counts()
    print("continua per block (bottom row first):")
    for row in range(nb):
        print("   ", "  ".join(str(m_counts[row * nb + col]) for col in range(nb)))
    print()

    block_nodes = cfg.nx // nb
    psi1 = space.Psi1.toarray()
    psi2 = space.Psi2.toarray()
    print("decay of |psi| with Chebyshev distance from its peak, in blocks:")
    print("%-28s %10s %10s %10s %10s" % ("column", "peak", ">=1", ">=2", ">=3"))
    samples = [
        ("channel, block %d" % space.labels1[0][0], psi1[:, 0]),
        ("channel, block %d" % space.labels1[-1][0], psi1[:, -1]),
        ("matrix,  block %d" % space.labels2[1][0], psi2[:, 1]),
        ("mean field", psi2[:, 0]),
    ]
    for name, col in samples:
        peak = float(np.abs(col).max())
        tail = decay_profile(pipe.grid, col, block_nodes)
        print("%-28s %10.3f %10.1e %10.1e %10.1e" % (name, peak, *tail))
    print()
    print("Channel and matrix functions decay geometrically ring by ring and")
    print("vanish at their patch boundary, which is what justifies truncating")
    print("them to the oversampled patch. The mean-field column is global by")
    print("construction: it carries the bulk average that the explicit part")
    print("propagates cheaply.")


if __name__ == "__main__":
    main()
