"""Benchmark workloads: a shipped config, an interval count and a seeded source.

Seed 0 is the shipped config unchanged. Any other seed perturbs only the
source, so the grid, the channels, the coarse space (d1, d2) and the setup
work stay the same and a claim can be rechecked on held-out inputs:

* the source slides along its channel by one or two whole coarse blocks
  (a box source in x, a point source by whole blocks of cells in x);
* the amplitude is scaled by 2**u with u uniform in [-1/4, 1/4].

Whole-block shifts keep the box aligned with the coarse partition. A box
cut by block edges roughly doubles the coarse-space error (2.1e-2 becomes
4.6e-2 to 6.3e-2 on example1), which would make `rel_error` a property of
the seed rather than of the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from paradiff.experiment import ExperimentConfig, load_config


@dataclass(frozen=True)
class Workload:
    config: str  # shipped config file, relative to the repository root
    n: int  # parareal intervals
    fine_kind: str | None = None  # overrides the shipped fine propagator


# Why each workload exists, and why only the first two are in
# BENCHMARK.json while the others are run by hand, is in README.md.
WORKLOADS = {
    "ex1-aao-n20": Workload("configs/example1.ini", 20),
    "ex1-seq-n20": Workload("configs/example1.ini", 20, "sequential"),
    "ex1-seq-n60": Workload("configs/example1.ini", 60, "sequential"),
    "ex2-aao-n20": Workload("configs/example2.ini", 20),
}


def perturb_source(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Seeded source of the same shape; seed 0 returns cfg itself."""
    if seed == 0:
        return cfg
    rng = np.random.default_rng(seed)
    amplitude = cfg.source_amplitude * 2.0 ** rng.uniform(-0.25, 0.25)
    blocks = int(rng.choice([-2, -1, 1, 2]))
    region = cfg.source_region
    if cfg.source_kind == "box":
        dx = blocks / cfg.blocks
        region = (region[0] + dx, region[1] + dx, region[2], region[3])
    elif cfg.source_kind == "point":
        region = (region[0] + blocks * (cfg.nx // cfg.blocks), region[1])
    return replace(cfg, source_amplitude=amplitude, source_region=region).validate()


def workload_config(name: str, seed: int, root: Path) -> tuple[ExperimentConfig, int]:
    """(config, N) of a named workload under a seed."""
    w = WORKLOADS[name]
    cfg = load_config(root / w.config)
    if w.fine_kind is not None:
        cfg = replace(cfg, fine_kind=w.fine_kind)
    return perturb_source(cfg, seed), w.n
