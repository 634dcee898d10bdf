"""What a fresh interpreter loads: no SciPy module, ever, and the thread pool of `numerics.ordered_map`
only where a call has more than one item to run on more than one CPU, imported by the function that
uses it, never at import time.

Each check runs in its own interpreter, since this test process has SciPy loaded already (the tests
use it as their reference).
"""

import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import scoreflow
from scoreflow.config import load_config, problem_from_config

SRC = str(Path(scoreflow.__file__).resolve().parent.parent)

PRELUDE = f"""
import sys
sys.path.insert(0, {SRC!r})
import scoreflow, scoreflow.cli, scoreflow.config, scoreflow.metrics
from scoreflow.config import load_config, problem_from_config

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(tmp_path, body: str) -> None:
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def write_cfg(tmp_path, problem: dict, **training) -> Path:
    raw = {
        "problem": problem,
        "flow": {"n_blocks": 2, "hidden": [8]},
        "training": {"n_train": 12, "stages": 1, "max_epochs": 2, "patience": 2, "n_s_train": 4, "n_s_infer": 8,
                     **training},
        "eval": {"n_test": 2, "n_samples": 16},
        "sweep": {"sizes": [8, 12]},
    }
    path = tmp_path / f"{problem['kind']}.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_import_and_set_up_load_no_scipy(tmp_path):
    lin = write_cfg(tmp_path, {"kind": "linear_gaussian", "x_dim": 2, "y_dim": 4})
    toy = write_cfg(tmp_path, {"kind": "nonlinear_toy"})
    run_fresh(tmp_path, f"""
for path in ({str(lin)!r}, {str(toy)!r}):
    problem_from_config(load_config(path).problem)
assert scipy_modules() == [], scipy_modules()
""")


def test_import_and_set_up_load_no_thread_pool(tmp_path):
    toy = write_cfg(tmp_path, {"kind": "nonlinear_toy"})
    run_fresh(tmp_path, f"""
problem_from_config(load_config({str(toy)!r}).problem)
assert "concurrent.futures" not in sys.modules
""")


def test_small_train_and_infer_start_no_thread_pool(tmp_path):
    # One slot per advance, and inverse passes of at most 256 rows, leave nothing to run beside the
    # calling thread, even on 4 CPUs. The pool's module is `concurrent.futures.thread`, which
    # `ordered_map` imports the first time it has more than one item for more than one CPU.
    cfg = write_cfg(tmp_path, {"kind": "linear_gaussian", "x_dim": 2, "y_dim": 4}, n_s_train=1, n_s_infer=256)
    (tmp_path / "y.txt").write_text("0.1\n" * 4)
    run_fresh(tmp_path, f"""
import os, threading
os.sched_getaffinity = lambda pid: set(range(4))
start = threading.Thread.start
def no_thread(thread):
    raise AssertionError("a thread started")
threading.Thread.start = no_thread
from scoreflow.cli import main
infer = ["infer", "--config", {str(cfg)!r}, "--bundle", "out/bundle", "--y", "y.txt", "--out", "inf"]
assert main(["train", "--config", {str(cfg)!r}, "--out", "out"]) == 0
assert main(infer + ["--n-samples", "100"]) == 0
assert "concurrent.futures.thread" not in sys.modules
threading.Thread.start = start
assert main(infer + ["--n-samples", "1000"]) == 0
assert "concurrent.futures.thread" in sys.modules
""")


@pytest.mark.parametrize("problem", [
    {"kind": "linear_gaussian", "x_dim": 2, "y_dim": 4},
    {"kind": "nonlinear_toy"},
], ids=["linear_gaussian", "nonlinear_toy"])
def test_train_infer_evaluate_and_sweep_load_no_scipy(tmp_path, problem):
    cfg = write_cfg(tmp_path, problem)
    y_dim = problem_from_config(load_config(cfg).problem).y_dim
    (tmp_path / "y.txt").write_text("0.1\n" * y_dim)
    run_fresh(tmp_path, f"""
from scoreflow.cli import main
cfg = {str(cfg)!r}
assert main(["train", "--config", cfg, "--out", "out"]) == 0
assert main(["infer", "--config", cfg, "--bundle", "out/bundle", "--y", "y.txt", "--out", "inf"]) == 0
assert main(["evaluate", "--config", cfg, "--bundle", "out/bundle", "--out", "ev"]) == 0
assert main(["sweep", "--config", cfg, "--out", "sw"]) == 0
assert scipy_modules() == [], scipy_modules()
""")
