"""The benchmark's call sequence still runs: one smoke repetition per workload.

perfbench/rep.py drives the package the way `mixedflow run` does, so a
change to a name or signature it uses fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_smoke_repetition(tmp_path, workload):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{var: "1" for var in THREAD_VARS}}
    env.pop("MIXEDFLOW_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "rep.py"), "--workload", workload,
         "--seed", "42", "--out", str(tmp_path), "--smoke"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["ok"] is True
