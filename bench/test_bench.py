"""Tests of the benchmark harness: python -m pytest bench"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from paradiff import experiment, stepping
from paradiff.experiment import check_config, config_to_parser, load_config

import harness
from tracer import Span, Tracer, critical_path
from workloads import WORKLOADS, workload_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def dump(cfg) -> str:
    out = io.StringIO()
    config_to_parser(cfg).write(out)
    return out.getvalue()


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_child_spans_and_leaves():
    t = Tracer(clock=FakeClock(0.0, 1.0, 4.0, 10.0))
    with t.span("outer"):  # 0 .. 10
        with t.span("inner"):  # 1 .. 4
            t.add_leaf("leaf", 0.5)
        t.add_leaf("leaf", 2.0)
        t.add_leaf("leaf", 1.0)
    assert t.self_times() == [10.0 - 3.0 - 3.0, 3.0 - 0.5]
    assert t.self_time("outer") == 4.0
    assert t.calls("leaf") == (3, 3.5)
    assert t.calls("inner") == (1, 3.0)
    assert t.leaf_calls_per_span("leaf", "outer") == [2]
    assert t.leaf_calls_per_span("leaf", "inner") == [1]


def test_critical_path_takes_slowest_fine_call_per_iteration():
    t = Tracer()
    t.spans = [
        Span("parareal.run_parareal", 0.0, 20.0, -1),
        Span("parareal.initial_sweep", 0.0, 1.0, 0),
        Span("parareal.fine.propagate", 1.0, 3.0, 0),
        Span("parareal.fine.propagate", 3.0, 8.0, 0),
        Span("stepping.coarse_step", 8.0, 8.5, 0),
        Span("parareal.check_stop", 8.5, 8.6, 0),
        Span("parareal.fine.propagate", 8.6, 9.6, 0),
        Span("stepping.coarse_step", 9.6, 9.8, 0),
        Span("parareal.check_stop", 9.8, 9.9, 0),
    ]
    assert critical_path(t, 0) == pytest.approx(1.0 + (5.0 + 0.5) + (1.0 + 0.2))


def test_installed_wrappers_are_removed_on_exit():
    originals = (experiment.run_single, stepping.SplitPropagators.__dict__["split_step"])
    with Tracer().installed():
        assert experiment.run_single is not originals[0]
    assert (experiment.run_single, stepping.SplitPropagators.__dict__["split_step"]) == originals


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_is_the_shipped_config(name):
    w = WORKLOADS[name]
    shipped = load_config(ROOT / w.config)
    if w.fine_kind is not None:
        shipped = replace(shipped, fine_kind=w.fine_kind)
    cfg, n = workload_config(name, 0, ROOT)
    assert n == w.n
    assert dump(cfg) == dump(shipped)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seeds_perturb_only_the_source(name):
    base, _ = workload_config(name, 0, ROOT)
    seen = set()
    for seed in range(1, 6):
        cfg, _ = workload_config(name, seed, ROOT)
        assert cfg == workload_config(name, seed, ROOT)[0]
        fixed = {k: v for k, v in asdict(cfg).items() if not k.startswith("source_")}
        assert fixed == {k: v for k, v in asdict(base).items() if not k.startswith("source_")}
        assert cfg.source_kind == base.source_kind
        seen.add((cfg.source_region, cfg.source_amplitude))
    assert len(seen) == 5 and (base.source_region, base.source_amplitude) not in seen


def test_smoke_untraced_and_traced_runs_agree():
    cfg = check_config()
    n = cfg.n_values[0]
    plain = harness.measure(cfg, n, seconds=0.0)
    traced, tracer = harness.measure_traced(cfg, n)

    for spec, outcome in (("end_to_end", plain), ("per_layer", traced)):
        units = {name: unit for name, (_, unit) in outcome.metrics.items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[spec]}
    assert plain.failed == traced.failed == 0
    assert traced.metrics["parareal.iterations"][0] == plain.metrics["iterations"][0]
    assert traced.metrics["allatonce.wr_sweeps"][0] == plain.details["counts"]["wr_sweeps"] > 0
    assert traced.details["untraced_counts"] == traced.details["counts"] == plain.details["counts"]
    assert tracer.calls("experiment.run_single")[0] == 1
    json.dumps(tracer.to_json())


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ex1-aao-n20", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
