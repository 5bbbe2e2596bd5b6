#!/usr/bin/env python3
"""Drift of the conserved mixed volume under time-step refinement.

Shows the two regimes of rk4 explicitly: at coarse dt the drift falls at
fourth order, and once it reaches the spatial-truncation floor of the grid
(or roundoff) further refinement does nothing.  The floor is the reason the
ladder starts at the coarsest step rk4 takes, its parabolic bound
`cfl_timestep` (every run's default step), and halves it three times: at
L_max = 24 the drift of the last rung is already near 1e-13 and there is
little left to converge.

Usage: python scripts/conservation_order.py [k] [L_max]
"""

import math
import sys
from dataclasses import replace

from mixedflow.flow import FlowConfig, FlowProblem, cfl_timestep, run
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
    base = FlowConfig(n=2, R=1.0, k=k, T=0.5, L_max=L, cadence=10 ** 9)
    prev = None
    for halvings in range(4):
        cfg = replace(base, dt=cfl_timestep(base) / 2 ** halvings)
        d = drift(cfg)
        order = "" if prev is None else f"  order {math.log2(prev / d):5.2f}"
        print(f"  rk4 dt=bound/{2 ** halvings}={cfg.dt:.4g}: drift {d:.3e}{order}")
        prev = d
    return 0


if __name__ == "__main__":
    sys.exit(main())
