#!/usr/bin/env python3
"""Drift of the conserved mixed volume as the step halves down from the parabolic bound.

Each rung runs the conservation preset at the given k and L_max with dt its
parabolic bound `cfl_timestep` (every run's default step) halved 0-3 times,
and reads its `relative_V_drift` check.  The drift falls at rk4's fourth
order only until it reaches the spatial-truncation floor of the grid (about
3.1e-9 at L_max = 16, k = 0) or roundoff; past that, refinement does nothing
and the printed order means nothing.  The floor is the reason the ladder
starts at the coarsest step rk4 takes: at L_max = 24 the drift of the last
rung is already near 1e-13.  The preset's files go to a temporary directory,
removed at the end, and MIXEDFLOW_OUT is cleared, since it would send them
elsewhere.  ACCEPTANCE 7 gates the first two rungs at L_max = 24.  A rung
whose drift fell less than 8x from the previous rung, an observed order below
3, prints `floor` after its order: it has reached the floor, and its order is
not rk4's.

Usage: python scripts/conservation_order.py [k] [L_max]
"""

import math
import os
import sys
import tempfile

from mixedflow.flow import FlowConfig, cfl_timestep
from mixedflow.presets import run_experiment

# A rung whose drift fell by less than this from the previous one (observed order
# below 3, where rk4 gives 4) is marked as sitting on the floor.
_FLOOR_RATIO = 8.0


def ladder(k: int, L_max: int, out_dir: str, rungs: int = 4):
    """Yield (dt, relative V drift) at dt = bound / 2^i for i < rungs, each run written
    into out_dir."""
    bound = cfl_timestep(FlowConfig(n=2, R=1.0, k=k, L_max=L_max))
    for i in range(rungs):
        dt = bound / 2 ** i
        result = run_experiment("conservation", {"k": str(k), "L_max": str(L_max),
                                                 "dt": repr(dt), "out_dir": out_dir})
        checks = {c.name: c.value for c in result.checks}
        yield dt, checks["relative_V_drift"]


def main() -> int:
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    L = int(sys.argv[2]) if len(sys.argv) > 2 else 24
    os.environ.pop("MIXEDFLOW_OUT", None)
    print(f"conservation preset at k={k}, L_max={L}")
    prev = None
    with tempfile.TemporaryDirectory() as out_dir:
        for i, (dt, d) in enumerate(ladder(k, L, out_dir)):
            order = "" if prev is None else f"  order {math.log2(prev / d):5.2f}"
            if prev is not None and prev / d < _FLOOR_RATIO:
                order += "  floor"
            print(f"  rk4 dt=bound/{2 ** i}={dt:.4g}: drift {d:.3e}{order}")
            prev = d
    return 0


if __name__ == "__main__":
    sys.exit(main())
