"""One repetition of one workload, in a fresh process.

Follows the public call sequence of `mixedflow run`: parse_config_text ->
FlowProblem -> InitSpec.build -> flow.run -> run_csv_lines/write_lines ->
write_snapshot.  Then it checks the outputs and prints one JSON line with
its timings, its gates, the hashes of the files it wrote and, with
--trace, the per-layer figures.  run.py starts it with PYTHONPATH pointing
at the checkout's src/ and the BLAS thread count fixed.

    python3 perfbench/rep.py --workload NAME --seed N --out DIR [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import mixedflow
from mixedflow import flow
from mixedflow import io as mfio
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _snapshot_round_trips(path: Path, coeffs: np.ndarray) -> bool:
    """The snapshot lists every coefficient, each equal to the final state's."""
    lines = path.read_text(encoding="utf-8").splitlines()[4:]
    values = np.array([float(line.split()[2]) for line in lines])
    return values.shape == coeffs.shape and bool(np.all(values == coeffs))


def check(workload, out, csv_path: Path, snap_path: Path, smoke: bool) -> tuple[dict, dict]:
    """Correctness gates of one repetition, and the values they judged."""
    T = workload.final_time(smoke)
    V0, V1 = out.records[0].V, out.records[-1].V
    drift = abs(V1 - V0) / abs(V0)
    rows = [ln for ln in csv_path.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")][1:]
    gates = {
        "status": out.status == "reached_T",
        "final_t": abs(out.final.t - T) <= 1e-12 * T,
        "drift": drift <= workload.drift_max,
        "csv_rows": len(rows) == workload.n_records(smoke),
        "snapshot": _snapshot_round_trips(snap_path, out.final.rho.coeffs),
    }
    # run.py compares the hashes across repetitions: the byte_identical gate.
    values = {"status": out.status, "final_t": out.final.t, "drift": drift,
              "csv_rows": len(rows), "csv_sha256": _sha256(csv_path),
              "snapshot_sha256": _sha256(snap_path)}
    return gates, values


def layer_figures(tracer: Tracer, grid, drift: float, io_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics of a traced repetition: exact counts, and timings."""
    s = tracer.summary("flow.run")
    calls, self_s = s["calls"], s["self_s"]

    def c(name: str) -> int:
        return calls.get(name, 0)

    sd, an, bundle = "harmonics.synthesize_derivs", "harmonics.analyze", "geometry.bundle"
    steps, records = c("flow.step"), c("flow.diagnostics")
    step_evals = s["in_step"].get("flow.velocity_values", 0)
    # Dense Legendre contractions: synthesize_derivs contracts 4 coefficient
    # sets with the value table and 2 with the theta-derivative table, analyze
    # one complex field; 2 flops per multiply-add, real and imaginary parts.
    lm = (grid.L_max + 1) ** 2 * grid.n_lat
    flops_sd, flops_an = 24 * lm, 4 * lm
    exact = {
        f"{sd}.calls": c(sd),
        f"{an}.calls": c(an),
        "harmonics.synthesize.calls": c("harmonics.synthesize"),
        "harmonics.legendre_flops_per_eval": flops_sd + flops_an,
        "harmonics.table_bytes": sum(a.nbytes for a in vars(grid).values()
                                     if isinstance(a, np.ndarray)),
        f"{bundle}.calls": c(bundle),
        "geometry.bundles_per_state": c(bundle) / (step_evals + records),
        "speeds.eval_speed.calls": c("speeds.eval_speed"),
        "flow.velocity_values.calls": c("flow.velocity_values"),
        "flow.step.calls": steps,
        "flow.evals_per_step": step_evals / steps,
        "flow.step_accept_frac": (steps - s["raised"].get("flow.step", 0)) / steps,
        "flow.diagnostics.calls": records,
        "flow.diagnostics.bundles_per_record": s["in_diagnostics"].get(bundle, 0) / records,
        "analysis.fit_sphere.calls": c("analysis.fit_sphere"),
        "analysis.mixed_volume.calls": c("analysis.mixed_volume"),
        "io.write.bytes": io_bytes,
        "analysis.V_drift_rel": drift,
    }
    timed = {
        "harmonics.build_grid.ms": 1e3 * tracer.durations("harmonics.build_grid")[0],
        f"{sd}.self_s": self_s[sd],
        f"{sd}.us_per_call": 1e6 * self_s[sd] / c(sd),
        f"{an}.self_s": self_s[an],
        f"{an}.us_per_call": 1e6 * self_s[an] / c(an),
        "harmonics.synthesize.self_s": self_s["harmonics.synthesize"],
        "harmonics.legendre_gflops":
            (flops_sd * c(sd) + flops_an * c(an)) / (self_s[sd] + self_s[an]) / 1e9,
        f"{bundle}.self_s": self_s[bundle],
        f"{bundle}.us_per_call": 1e6 * self_s[bundle] / c(bundle),
        "speeds.eval_speed.self_s": self_s["speeds.eval_speed"],
        "flow.velocity_values.self_s": self_s["flow.velocity_values"],
        "flow.step.self_s": self_s["flow.step"],
        "flow.diagnostics.self_s": self_s["flow.diagnostics"],
        "flow.diagnostics.ms_per_record": 1e3 * s["total_s"]["flow.diagnostics"] / records,
        "analysis.fit_sphere.self_s": self_s["analysis.fit_sphere"],
        "analysis.mixed_volume.self_s": self_s["analysis.mixed_volume"],
        "io.write.s": tracer.durations("io.write")[0],
        "flow.run.s": s["root_s"],
        "flow.run.self_s": s["root_self_s"],
    }
    return exact, timed


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for run.csv and the snapshot")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="ten steps instead of the full T")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if not Path(mixedflow.__file__).resolve().is_relative_to(src):
        print(f"mixedflow was imported from {mixedflow.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    text = workload.config_text(args.seed, args.out, args.smoke)
    tracer = Tracer() if args.trace else None

    def span(name: str):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    with tracer if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        with span("setup"):
            parsed = mfio.parse_config_text(text)
            cfg = parsed.config
            prob = flow.FlowProblem(cfg)
            rho0 = parsed.init.build(prob.grid, cfg.R)
        t1 = time.perf_counter()
        with span("flow.run"):
            out = flow.run(cfg, rho0, problem=prob)
        t2 = time.perf_counter()
        with span("io.write"):
            target = Path(mfio.resolve_out_dir(parsed.out_dir))
            csv_path, snap_path = target / "run.csv", target / "final_state.snapshot"
            mfio.write_lines(str(csv_path),
                             mfio.run_csv_lines(out.records, mfio.run_meta(parsed, prob.grid)))
            mfio.write_snapshot(out.final, str(snap_path))
    gates, values = check(workload, out, csv_path, snap_path, args.smoke)
    t3 = time.perf_counter()

    result = {
        "ok": all(gates.values()),
        "gates": gates,
        **values,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "total_s": t3 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        io_bytes = csv_path.stat().st_size + snap_path.stat().st_size
        result["exact"], result["timed"] = layer_figures(tracer, prob.grid, values["drift"],
                                                         io_bytes)
        tracer.write(str(target / "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
