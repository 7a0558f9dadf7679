"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload ex1-aao-n20 --seed 0 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. Each metric goes on its own line as
`name value unit`, then the environment record, and last one JSON object
{"correct", "attempted", "failed", "metrics"}. The full record, with the
spans of a traced run, is written to --out (default .bench_out/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout; git would report an enclosing repository
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    """Hash of the library sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "paradiff").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the solve repeats")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, default=Path(".bench_out"), help="directory of the full record")
    return p.parse_args(argv)


def main(argv=None) -> int:
    # One BLAS thread, set before numpy loads: the timings are one-core
    # times, and with a second OpenBLAS thread on two vCPUs the sequential
    # pass (100x100 products) ran five times slower in some processes.
    # That slowdown is a defect of the program at its default thread count,
    # which this benchmark does not measure (see README.md).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (SRC / "paradiff" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no paradiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import paradiff

    if Path(paradiff.__file__).resolve().parent != SRC / "paradiff":
        print(f"error: paradiff imported from {paradiff.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS, workload_config

    args = parse_args(argv, WORKLOADS)
    cfg, n = workload_config(args.workload, args.seed, ROOT)
    with harness.counting_warnings() as warnings:
        if args.trace:
            outcome, tracer = harness.measure_traced(cfg, n)
        else:
            outcome, tracer = harness.measure(cfg, n, args.seconds), None

    env = environment()
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": n,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "warnings": warnings.count,
        "metrics": metrics,
        "details": outcome.details,
        "environment": env,
    }
    if tracer is not None:
        record["trace_record"] = tracer.to_json()
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record))

    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed {outcome.failed} of {outcome.attempted} solves; record {path}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
