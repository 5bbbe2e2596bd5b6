"""The benchmark's workloads: config text made from a seed, and their gates.

Stdlib only, so the runner can import it without numpy.  Every workload is
n = 2, R = 1, speed = mean, and its T is a whole number of steps, so the
run loop's ceil(T/dt) never overshoots T here.
"""

from __future__ import annotations

from dataclasses import dataclass

# Relative mixed-volume drift a run may show before a gate fails.  The RK4
# workload uses the conservation preset's own threshold.  The IMEX workloads
# are first order in dt and drift 1.6e-4 (L16) and 1.0e-5 (L64) at seed 42,
# so they get a ceiling that only a blow-up or a lost constraint reaches.
RK4_DRIFT_MAX = 1e-6
IMEX_DRIFT_CEILING = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    integrator: str
    dt: str
    T: str
    smoke_T: str  # ten steps, for the self-test
    L_max: int
    init: str  # with {seed} for the benchmark's seed argument
    cadence: int
    drift_max: float

    def config_text(self, seed: int, out_dir: str, smoke: bool = False) -> str:
        lines = [
            "n = 2",
            "R = 1",
            f"k = {self.k}",
            "speed = mean",
            f"integrator = {self.integrator}",
            f"dt = {self.dt}",
            f"T = {self.smoke_T if smoke else self.T}",
            f"L_max = {self.L_max}",
            f"init = {self.init.format(seed=seed)}",
            f"cadence = {self.cadence}",
            f"out_dir = {out_dir}",
        ]
        return "\n".join(lines) + "\n"

    def final_time(self, smoke: bool = False) -> float:
        return float(self.smoke_T if smoke else self.T)

    def n_steps(self, smoke: bool = False) -> int:
        return round(self.final_time(smoke) / float(self.dt))

    def n_records(self, smoke: bool = False) -> int:
        """Diagnostics rows run.csv must hold: t = 0, every cadence, the end."""
        steps = self.n_steps(smoke)
        return 1 + steps // self.cadence + (1 if steps % self.cadence else 0)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rk4-conservation-L24",
        why="conservation preset cut to T=0.1: the velocity path under RK4, "
            "transforms and geometry are 90% of the run",
        k=0, integrator="rk4", dt="1e-4", T="0.1", smoke_T="1e-3", L_max=24,
        init="random:0.05,6,{seed}", cadence=50, drift_max=RK4_DRIFT_MAX,
    ),
    Workload(
        name="imex-dense-diag-L16",
        why="diagnostics every step: sphere fit and three curvature bundles "
            "per record are 78% of the run, and 1001 run.csv rows are written",
        k=0, integrator="imex", dt="1e-3", T="1", smoke_T="0.01", L_max=16,
        init="random:0.05,6,{seed}", cadence=1, drift_max=IMEX_DRIFT_CEILING,
    ),
    Workload(
        name="imex-highres-L64",
        why="largest band limit: transforms bound by arithmetic, not per-call "
            "overhead, and the only non-trivial grid build and table memory",
        k=-1, integrator="imex", dt="2e-4", T="0.04", smoke_T="2e-3", L_max=64,
        init="random:0.05,12,{seed}", cadence=50, drift_max=IMEX_DRIFT_CEILING,
    ),
)}
