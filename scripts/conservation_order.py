#!/usr/bin/env python3
"""Drift of the conserved mixed volume under time-step refinement.

Shows the two regimes of rk4 explicitly: at coarse dt the drift falls at
fourth order, and once it reaches the spatial-truncation floor of the grid
(or roundoff) further refinement does nothing.  The floor is the reason the
order measurement below uses coarse steps: at dt = 1e-4 the rk4 drift is
already below 1e-12 and there is nothing left to converge.

Usage: python scripts/conservation_order.py [k] [L_max]
"""

import math
import sys

from mixedflow.flow import FlowConfig, FlowProblem, run
from mixedflow.io import random_band_field


def drift(cfg: FlowConfig) -> float:
    prob = FlowProblem(cfg)
    rho0 = random_band_field(prob.grid, cfg.R, 0.05, 2, 6, 42)
    out = run(cfg, rho0, problem=prob)
    V0 = out.records[0].V
    return max(abs(r.V - V0) for r in out.records) / abs(V0)


def main() -> int:
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    L = int(sys.argv[2]) if len(sys.argv) > 2 else 24
    print(f"n=2, F=mean, k={k}, L_max={L}, T=0.5, amp 0.05 degrees 2..6 seed 42")
    prev = None
    for dt in (8e-4, 4e-4, 2e-4, 1e-4):
        cfg = FlowConfig(n=2, R=1.0, k=k, dt=dt, T=0.5, L_max=L, cadence=10 ** 9)
        d = drift(cfg)
        order = "" if prev is None else f"  order {math.log2(prev / d):5.2f}"
        print(f"  rk4 dt={dt:g}: drift {d:.3e}{order}")
        prev = d
    return 0


if __name__ == "__main__":
    sys.exit(main())
