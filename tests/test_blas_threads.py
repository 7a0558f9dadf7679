"""BLAS threads: one by default, and parareal histories that do not depend on the count.

Each run goes to a subprocess because OpenBLAS reads OPENBLAS_NUM_THREADS
once, when numpy loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paradiff

RUN = """
import sys
from dataclasses import replace
import numpy as np
from paradiff.experiment import build_pipeline, check_config, run_single

def history(cfg, kind):
    pipe = build_pipeline(replace(cfg, fine_kind=kind))
    return np.array(run_single(pipe, cfg.n_values[0]).run.history)

cfg = replace(check_config(), compute_reference=False, export_solution=False)
# 100 w-modes as in example1: at 25 the products are too small for OpenBLAS
# to thread, and a thread-dependent product would go unseen
wide = replace(cfg, blocks=10, substeps=96)
np.savez(
    sys.argv[1],
    sequential=history(cfg, "sequential"),
    all_at_once=history(cfg, "all-at-once"),
    wide_sequential=history(wide, "sequential"),
)
"""


def histories(threads: int, out: Path) -> dict[str, np.ndarray]:
    src = str(Path(paradiff.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", RUN, str(out)], env=env, check=True, timeout=300)
    with np.load(out) as data:
        return {kind: data[kind] for kind in data.files}


def test_histories_bitwise_equal_at_one_and_two_blas_threads(tmp_path):
    one = histories(1, tmp_path / "one.npz")
    two = histories(2, tmp_path / "two.npz")
    assert one.keys() == two.keys() == {"sequential", "all_at_once", "wide_sequential"}
    for kind in one:
        assert one[kind].shape == two[kind].shape, kind
        assert np.array_equal(one[kind], two[kind]), kind


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_one_blas_thread_by_default():
    """Importing paradiff before numpy leaves OpenBLAS at one thread."""
    src = str(Path(paradiff.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import os, paradiff.cli, numpy as np\n"
        "a = np.ones((400, 400)); a @ a\n"
        "print(len(os.listdir('/proc/self/task')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    assert done.stdout.split() == ["1"]
