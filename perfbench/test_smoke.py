"""Self-test of the benchmark: ten-step runs of every workload.

    python3 -m pytest perfbench/test_smoke.py -q      # from the checkout root

Checks that every metric is printed by name with its unit, that every gate
is evaluated on every repetition, that a gate can fail, that per-layer
counts repeat exactly between traced runs, and that the tracer puts every
entry point back.  The repository's own test suite
does not collect this file.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "harmonics.build_grid.ms": "ms",
    "harmonics.synthesize_derivs.calls": "count",
    "harmonics.synthesize_derivs.self_s": "s",
    "harmonics.synthesize_derivs.us_per_call": "us",
    "harmonics.analyze.calls": "count",
    "harmonics.analyze.self_s": "s",
    "harmonics.analyze.us_per_call": "us",
    "harmonics.synthesize.calls": "count",
    "harmonics.synthesize.self_s": "s",
    "harmonics.legendre_flops_per_eval": "flop",
    "harmonics.legendre_gflops": "GFLOP/s",
    "harmonics.table_bytes": "B",
    "geometry.bundle.calls": "count",
    "geometry.bundle.self_s": "s",
    "geometry.bundle.us_per_call": "us",
    "geometry.bundles_per_state": "ratio",
    "speeds.eval_speed.calls": "count",
    "speeds.eval_speed.self_s": "s",
    "flow.velocity_values.calls": "count",
    "flow.velocity_values.self_s": "s",
    "flow.step.calls": "count",
    "flow.step.self_s": "s",
    "flow.evals_per_step": "ratio",
    "flow.step_accept_frac": "ratio",
    "flow.diagnostics.calls": "count",
    "flow.diagnostics.self_s": "s",
    "flow.diagnostics.ms_per_record": "ms",
    "flow.diagnostics.bundles_per_record": "ratio",
    "analysis.fit_sphere.calls": "count",
    "analysis.fit_sphere.self_s": "s",
    "analysis.mixed_volume.calls": "count",
    "analysis.mixed_volume.self_s": "s",
    "io.write.s": "s",
    "io.write.bytes": "B",
    "analysis.V_drift_rel": "ratio",
    "flow.run.s": "s",
    "flow.run.self_s": "s",
    "trace.overhead_frac": "ratio",
}
GATES = ("status", "final_t", "drift", "csv_rows", "snapshot", "byte_identical")


def smoke_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_end_to_end_metrics_and_gates(workload):
    lines, result = smoke_run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    n = result["attempted"]
    assert any(ln.split()[:2] == ["fail_frac", "0"] and f"0 failed of {n}" in ln
               for ln in lines)
    gate_line = next(ln for ln in lines if ln.startswith("gates: "))
    for gate in GATES:
        assert f"{gate} {n}/{n}" in gate_line


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_print_per_layer_metrics_with_repeating_counts(workload):
    runs = [smoke_run(workload, 1)[1] for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    a, b = (r["metrics"] for r in runs)
    for name, unit in PER_LAYER.items():
        if unit in ("count", "flop", "B", "ratio") and not name.startswith("trace."):
            assert a[name]["value"] == b[name]["value"], name
    assert a["flow.step.calls"]["value"] == WORKLOADS[workload].n_steps(smoke=True)
    # Inside flow.run every span belongs to a layer with a self_s metric, so
    # those self times and flow.run.self_s account for the traced run time.
    # Two traced repetitions make each median a mean, so the sum is exact.
    self_sum = sum(m["value"] for name, m in a.items()
                   if name.endswith(".self_s") and name != "flow.run.self_s")
    assert math.isclose(self_sum + a["flow.run.self_s"]["value"], a["flow.run.s"]["value"],
                        rel_tol=1e-9)
    assert a["flow.diagnostics.calls"]["value"] == WORKLOADS[workload].n_records(smoke=True)


def test_gates_fail_on_a_drift_limit_below_the_measured_drift(tmp_path):
    import dataclasses

    from mixedflow import flow, io
    from rep import check

    workload = WORKLOADS["imex-dense-diag-L16"]
    parsed = io.parse_config_text(workload.config_text(42, str(tmp_path), smoke=True))
    prob = flow.FlowProblem(parsed.config)
    out = flow.run(parsed.config, parsed.init.build(prob.grid, 1.0), problem=prob)
    csv_path, snap_path = tmp_path / "run.csv", tmp_path / "final_state.snapshot"
    io.write_lines(str(csv_path), io.run_csv_lines(out.records, io.run_meta(parsed, prob.grid)))
    io.write_snapshot(out.final, str(snap_path))
    gates, values = check(workload, out, csv_path, snap_path, smoke=True)
    assert all(gates.values())
    tight = dataclasses.replace(workload, drift_max=0.5 * values["drift"])
    gates, _ = check(tight, out, csv_path, snap_path, smoke=True)
    assert not gates["drift"] and gates["status"]
    lines = snap_path.read_text().splitlines()
    lines[4] = "0 1 1.0"  # the constant mode, near zero in the real snapshot
    snap_path.write_text("\n".join(lines) + "\n")
    gates, _ = check(workload, out, csv_path, snap_path, smoke=True)
    assert not gates["snapshot"]


def test_tracer_puts_every_entry_point_back():
    from tracing import ENTRY_POINTS, Tracer

    originals = [vars(owner)[attr] for owner, attr, _ in ENTRY_POINTS]
    with Tracer():
        assert all(vars(owner)[attr] is not original
                   for (owner, attr, _), original in zip(ENTRY_POINTS, originals))
    assert all(vars(owner)[attr] is original
               for (owner, attr, _), original in zip(ENTRY_POINTS, originals))
