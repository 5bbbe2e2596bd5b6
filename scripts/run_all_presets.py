#!/usr/bin/env python3
"""Run every preset into out/<name>/ and print a pass/fail table.

Ends with the process's peak resident memory over the whole pass.
MIXEDFLOW_OUT is cleared first: it would send every preset to one directory.

Usage: python scripts/run_all_presets.py [out_root]
"""

import os
import resource
import sys
import time

from mixedflow.presets import PRESET_NAMES, run_experiment


def main() -> int:
    out_root = sys.argv[1] if len(sys.argv) > 1 else "out"
    os.environ.pop("MIXEDFLOW_OUT", None)
    failures = []
    for name in PRESET_NAMES:
        t0 = time.perf_counter()
        result = run_experiment(name, {"out_dir": f"{out_root}/{name}"})
        dt = time.perf_counter() - t0
        status = "PASS" if result.passed else "FAIL"
        print(f"{name:24s} {status}  ({dt:6.1f}s)  -> {result.out_dir}")
        for check in result.checks:
            print(f"    {check.line()}")
        if not result.passed:
            failures.append(name)
    if failures:
        print("failed presets: " + ", ".join(failures))
    else:
        print("all presets passed")
    # ru_maxrss is in KB on Linux.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS {peak_kb / 1024:.1f} MB")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
