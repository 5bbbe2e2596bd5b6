"""The benchmark's call sequence still runs: smoke repetitions per workload.

perfbench/rep.py drives the package the way `mixedflow run` does, so a
change to a name or signature it uses fails here.  Each workload runs once
untraced and once traced, since the traced run also needs every entry
point that perfbench/tracing.py wraps to be called.
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


def _smoke_repetition(tmp_path, workload, *flags):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{var: "1" for var in THREAD_VARS}}
    env.pop("MIXEDFLOW_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "rep.py"), "--workload", workload,
         "--seed", "42", "--out", str(tmp_path), "--smoke", *flags],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ok"] is True
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_smoke_repetition(tmp_path, workload):
    _smoke_repetition(tmp_path, workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_traced_smoke_repetition(tmp_path, workload):
    # the traced run reads a span of every entry point it wraps, every
    # curvature bundle of the run is built by one velocity evaluation, and
    # every velocity but the final record's is analysed for the step it starts
    exact = _smoke_repetition(tmp_path, workload, "--trace")["exact"]
    assert exact["flow.velocity_values.calls"] == exact["geometry.bundle.calls"]
    assert exact["harmonics.analyze.calls"] == exact["flow.velocity_values.calls"] - 1
    assert exact["geometry.bundles_per_state"] == 1.0
