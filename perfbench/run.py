"""mixedflow benchmark: one workload, repeated in fresh processes for --seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from its src/.  The
load is a closed loop: one repetition (perfbench/rep.py) at a time, each in
its own process, so every repetition pays the cold set-up that every
`mixedflow run` pays and reports its own peak RSS.  Repetitions start while
the next one should end within --seconds (at least three; four when traced).  With --trace 0
every repetition is untraced and the end-to-end metrics are medians over
them.  With --trace 1 untraced and traced repetitions alternate; the
per-layer metrics come from the traced ones and trace.overhead_frac
compares the two kinds.  A repetition fails when any gate fails or when its
run.csv or snapshot differs in a single byte from the first repetition's.

The last line of standard output is one JSON object: correct, attempted,
failed (repetitions) and metrics (names and units from BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run ends within this many seconds even if a repetition hangs.
DEADLINE_S = 170


def machine() -> dict:
    """Interpreter, core count, CPU model and cache sizes of this machine."""
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        tag = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches.append(f"L{level}{tag} {(index / 'size').read_text().strip()}")
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "caches": ", ".join(caches)}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MIXEDFLOW_OUT", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_rep(args, out_dir: Path, traced: bool, env: dict, timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out_dir)]
    cmd += ["--trace"] if traced else []
    cmd += ["--smoke"] if args.smoke else []
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repetition killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repetition exited with {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="ten steps per repetition; for perfbench/test_smoke.py")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so a running repetition is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "mixedflow" / "__init__.py").is_file():
        print(f"no mixedflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_ROOT))
    env = child_env()
    min_reps = 4 if args.trace else 3
    reps: list[tuple[bool, dict | None]] = []
    start = time.monotonic()
    try:
        # Start another repetition only if it should end within --seconds,
        # judged by the mean duration so far.
        while (len(reps) < min_reps or (time.monotonic() - start) * (len(reps) + 1) / len(reps)
               <= args.seconds):
            traced = bool(args.trace) and len(reps) % 2 == 1
            out_dir = work / f"rep{len(reps)}"
            timeout = max(1.0, DEADLINE_S - (time.monotonic() - start))
            reps.append((traced, run_rep(args, out_dir, traced, env, timeout)))
        first_traced = next((i for i, (t, r) in enumerate(reps) if t and r), None)
        if first_traced is not None:
            shutil.copyfile(work / f"rep{first_traced}" / "spans.jsonl",
                            OUT_ROOT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [(t, r) for t, r in reps if r is not None]
    if not done:
        print("no repetition completed", file=sys.stderr)
        return 1
    reference = (done[0][1]["csv_sha256"], done[0][1]["snapshot_sha256"])
    for _, r in done:
        r["gates"]["byte_identical"] = (r["csv_sha256"], r["snapshot_sha256"]) == reference
    failed = sum(1 for _, r in reps if r is None or not all(r["gates"].values()))
    correct = failed == 0
    plain = [r for t, r in done if not t]
    traced_reps = [r for t, r in done if t]

    if args.trace:
        exact = traced_reps[0]["exact"]
        if any(r["exact"] != exact for r in traced_reps[1:]):
            print("per-layer counts differ between traced repetitions", file=sys.stderr)
            correct = False
        values = dict(exact)
        for name in traced_reps[0]["timed"]:
            values[name] = statistics.median(r["timed"][name] for r in traced_reps)
        values["trace.overhead_frac"] = (values["flow.run.s"]
                                         / statistics.median(r["run_s"] for r in plain) - 1.0)
    else:
        values = {m["name"]: statistics.median(r[m["name"]] for r in plain) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env_info = {**done[0][1]["env"], **machine()}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print(f"load: closed loop, one repetition at a time, each in its own process; "
          f"{len(reps)} attempted, {len(plain)} untraced and {len(traced_reps)} traced completed")
    print("machine: " + "; ".join(f"{k} {v}" for k, v in env_info.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / len(reps):.6g} ratio  "
          f"({failed} failed of {len(reps)} repetitions)")
    gate_names = list(done[0][1]["gates"])
    print("gates: " + ", ".join(
        f"{g} {sum(r['gates'][g] for _, r in done)}/{len(reps)}" for g in gate_names)
        + f"; drift max {max(r['drift'] for _, r in done):.3g}"
        + f" (limit {WORKLOADS[args.workload].drift_max:g})")
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
