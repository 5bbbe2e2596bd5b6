#!/usr/bin/env python3
"""Fitted vs analytic decay rates across modes, speeds, and constraint indices.

Each case runs the linear-decay preset from a single small harmonic
(`harmonic:l,1,1e-4`) at the case's n, L_max, k and speed, and reads its
`decay_rate_relative_error` check: the fitted amplitude decay of degree l
against F'(kappa_0) (l-1)(l+n) / R^2, under rk4 at its parabolic bound.
The preset's files go to a temporary directory, removed at the end, and
MIXEDFLOW_OUT is cleared, since it would send them elsewhere.  ACCEPTANCE 5
gates every case at 1%; the script exits 1 when one misses it.

Usage: python scripts/decay_rate_sweep.py [csv_path]
"""

import os
import sys
import tempfile

from mixedflow.flow import stable_decay_rate
from mixedflow.presets import run_experiment
from mixedflow.speeds import SpeedSpec


def cases() -> list[tuple[int, SpeedSpec, int, int]]:
    """(n, speed, k, l) of every case: degrees 2-4 on S^2, 2-5 on S^1, every admissible k."""
    out = []
    for n, modes in ((2, (2, 3, 4)), (1, (2, 3, 4, 5))):
        speeds = [SpeedSpec("mean", n=n, R=1.0),
                  SpeedSpec("power_mean", n=n, R=1.0, m=1, beta=2.0)]
        if n == 2:
            speeds.append(SpeedSpec("elementary", n=n, R=1.0, l=2))
        out += [(n, speed, k, l) for speed in speeds for k in range(-1, n) for l in modes]
    return out


def relative_errors(out_dir: str):
    """Yield (n, speed, k, l, relative error) per case, each run written into out_dir."""
    for n, speed, k, l in cases():
        result = run_experiment("linear-decay", {
            "n": str(n), "L_max": "8" if n == 2 else "16", "k": str(k),
            "speed": speed.describe(), "init": f"harmonic:{l},1,1e-4", "out_dir": out_dir})
        checks = {c.name: c.value for c in result.checks}
        yield n, speed, k, l, checks["decay_rate_relative_error"]


def main() -> int:
    csv_path = sys.argv[1] if len(sys.argv) > 1 else None
    os.environ.pop("MIXEDFLOW_OUT", None)
    lines = ["n,speed,k,l,rate_analytic,rel_err"]
    worst = 0.0
    with tempfile.TemporaryDirectory() as out_dir:
        for n, speed, k, l, rel in relative_errors(out_dir):
            worst = max(worst, rel)
            target = stable_decay_rate(speed, l)
            lines.append(f"{n},{speed.describe()},{k},{l},{target!r},{rel:.2e}")
            print(lines[-1])
    print(f"worst relative error: {worst:.2e}")
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {csv_path}")
    return 0 if worst < 1e-2 else 1


if __name__ == "__main__":
    sys.exit(main())
