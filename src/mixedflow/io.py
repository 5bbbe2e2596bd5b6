"""Experiment configuration files, snapshots, and CSV emission.

Config files are line-based `key = value` text.  Blank lines and lines
starting with `#` are ignored.  Recognized keys:

    n, R, k, speed, integrator, dt, T, L_max, init, out_dir, cadence

A key the file leaves out takes FlowConfig's default; init defaults to
`const:0` and out_dir to the working directory.

Speed values follow `mean`, `power_mean m=1 beta=2`, or `elementary l=2`.
Initial data follows `const:c`, `harmonic:l,p,amp`, `random:amp,lmax,seed`,
or `sphere:z0,z1,...`, every value finite.  Unknown or repeated keys, and
any malformed value or parameter a kind does not take, are rejected with the
line number.  Header echoes print ints with `str`, floats in short `:g` form
when that parses back exactly, else in full (repr), so they parse back.

Snapshots are plain text: four header lines (n, R, L_max, t) followed by
one `l p value` line per stored coefficient, 17 significant digits, which
round-trips float64 exactly.  Coefficients not listed are zero.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import sphere_from_coords
from .errors import ConfigError, SnapshotError, SpeedError
from .flow import FlowConfig, FlowProblem, FlowRun, FlowState, default_timestep, run
from .harmonics import Grid, RadialField, build_grid, harmonic_multiplicity
from .speeds import SPEED_PARAMS, SpeedSpec, format_number, format_param

# Config key -> cast of its text; speed and init are parsed further below.
_CASTS = {"n": int, "R": float, "k": int, "speed": str, "integrator": str, "dt": float,
          "T": float, "L_max": int, "init": str, "out_dir": str, "cadence": int}
CONFIG_KEYS = tuple(_CASTS)

# Init kind -> casts of its comma-separated parameters; None: any number of floats.
_INIT_CASTS = {"const": (float,), "harmonic": (int, int, float), "random": (float, int, int),
               "sphere": None}

RUN_COLUMNS = ("t", "h_k", "V", "sup_G", "sup_rho", "sphere_residual_sup",
               "mode_energy_l2", "mode_energy_l3", "mode_energy_l4",
               "mode_energy_l5", "mode_energy_l6", "mode_energy_l7",
               "mode_energy_l8")


def _init_casts(kind: str, count: int) -> tuple:
    """Casts of the count parameters of an init kind; ConfigError for an unknown kind."""
    if kind not in _INIT_CASTS:
        raise ConfigError(f"unknown init kind {kind!r}")
    return _INIT_CASTS[kind] or (float,) * count


@dataclass(frozen=True)
class InitSpec:
    """Parsed initial-data descriptor; built into a field once a grid exists."""

    kind: str
    params: tuple

    def __post_init__(self):
        casts = _init_casts(self.kind, len(self.params))
        if len(self.params) != len(casts):
            raise ConfigError(
                f"init kind {self.kind} takes {len(casts)} parameters, got {len(self.params)}")
        if not all(map(math.isfinite, self.params)):
            raise ConfigError(
                f"init parameters must be finite, got {self.describe().partition(':')[2]!r}")
        if self.kind == "random" and self.params[2] < 0:
            raise ConfigError(f"random init seed must be non-negative, got {self.params[2]}")

    def describe(self) -> str:
        casts = _init_casts(self.kind, len(self.params))
        return f"{self.kind}:" + ",".join(map(format_param, casts, self.params))

    def build(self, grid: Grid, R: float) -> RadialField:
        if self.kind == "const":
            return RadialField(grid, R, values=np.full(grid.shape, self.params[0]))
        if self.kind == "harmonic":
            l, p, amp = self.params
            coeffs = np.zeros(grid.size)
            coeffs[grid.flat_index(l, p)] = amp
            return RadialField(grid, R, coeffs=coeffs)
        if self.kind == "random":
            amp, lmax, seed = self.params
            return random_band_field(grid, R, amp, 2, lmax, seed)
        return sphere_from_coords(np.asarray(self.params), grid, R)


def random_band_field(grid: Grid, R: float, amp: float, l_lo: int, l_hi: int,
                      seed: int) -> RadialField:
    """Seeded band-limited field, scaled so the sup norm equals amp.

    Coefficients are uniform on [-1, 1] for degrees l_lo..l_hi and zero
    outside, in particular on the constant and degree-1 modes.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, grid.size)
    deg = grid.degrees
    c[(deg < l_lo) | (deg > l_hi)] = 0.0
    sup = float(np.max(np.abs(grid.synthesize(c))))
    if sup == 0.0:
        raise ConfigError(f"random init has no content in degrees {l_lo}..{l_hi}")
    return RadialField(grid, R, coeffs=c * (amp / sup))


@dataclass(frozen=True)
class ParsedConfig:
    config: FlowConfig
    init: InitSpec
    out_dir: str


def _parse_speed(value: str, n: int, R: float, lineno: int) -> SpeedSpec:
    kind, *items = value.split()
    if kind not in SPEED_PARAMS:
        raise ConfigError(f"line {lineno}: unknown speed kind {kind!r}")
    casts = SPEED_PARAMS[kind]
    kwargs: dict = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: bad speed parameter {item!r}")
        if key not in casts:
            raise ConfigError(f"line {lineno}: unknown speed parameter {key!r} for {kind}")
        try:
            kwargs[key] = casts[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad speed parameter value {raw!r}") from exc
    try:
        return SpeedSpec(kind, n=n, R=R, **kwargs)
    except SpeedError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


def _parse_init(value: str, lineno: int) -> InitSpec:
    kind, sep, rest = value.partition(":")
    if not sep:
        raise ConfigError(f"line {lineno}: init needs the form kind:params")
    items = rest.split(",")
    try:
        casts = _init_casts(kind, len(items))
        params = tuple(cast(item) for cast, item in zip(casts, items, strict=True))
        return InitSpec(kind, params)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad init parameters {rest!r}") from exc
    except ConfigError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


def parse_config_text(text: str) -> ParsedConfig:
    """Parse config text into a flow configuration plus initial data."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: key {key!r} already set on line {raw[key][1]}")
        if not value:
            raise ConfigError(f"line {lineno}: missing value for {key!r}")
        raw[key] = (value, lineno)

    values = {}
    for key, cast in _CASTS.items():
        if key not in raw:
            continue
        value, lineno = raw[key]
        try:
            values[key] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    out_dir = values.pop("out_dir", ".")
    n, R = values.get("n", FlowConfig.n), values.get("R", FlowConfig.R)
    if "k" in values and not -1 <= values["k"] <= n - 1:
        raise ConfigError(
            f"line {raw['k'][1]}: k = {values['k']} is outside [-1, {n - 1}] for n = {n}")
    if "speed" in values:
        values["speed"] = _parse_speed(values["speed"], n, R, raw["speed"][1])
    init = (_parse_init(values.pop("init"), raw["init"][1]) if "init" in values
            else InitSpec("const", (0.0,)))
    try:
        config = FlowConfig(**values)
    except Exception as exc:
        keys = ", ".join(f"{key}(line {v[1]})" for key, v in raw.items())
        raise ConfigError(f"inconsistent configuration [{keys}]: {exc}") from exc
    if init.kind in ("harmonic", "random"):
        l = init.params[0 if init.kind == "harmonic" else 1]
        if l > config.L_max:
            raise ConfigError(f"line {raw['init'][1]}: init degree {l} exceeds L_max={config.L_max}")
    if init.kind == "harmonic":
        l, p, _ = init.params
        if l < 0:
            raise ConfigError(f"line {raw['init'][1]}: init degree {l} is negative")
        mult = harmonic_multiplicity(l, n)
        if not 1 <= p <= mult:
            raise ConfigError(
                f"line {raw['init'][1]}: init order {p} is outside [1, {mult}] for degree {l}")
    if init.kind == "sphere" and len(init.params) != n + 2:
        raise ConfigError(
            f"line {raw['init'][1]}: sphere init needs {n + 2} coordinates, got {len(init.params)}")
    return ParsedConfig(config=config, init=init, out_dir=out_dir)


def parse_config(path: str) -> ParsedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_echo(parsed: ParsedConfig) -> list[str]:
    """Config re-serialized as key = value lines (for file headers)."""
    cfg = parsed.config
    return [
        f"n = {cfg.n}",
        f"R = {format_number(cfg.R)}",
        f"k = {cfg.k}",
        f"speed = {cfg.speed.describe()}",
        f"integrator = {cfg.integrator}",
        f"dt = {format_number(default_timestep(cfg))}",
        f"T = {format_number(cfg.T)}",
        f"L_max = {cfg.L_max}",
        f"cadence = {cfg.cadence}",
        f"init = {parsed.init.describe()}",
    ]


def run_meta(parsed: ParsedConfig, grid: Grid) -> list[str]:
    """Header lines for run.csv: code version, grid description, config echo."""
    from . import __version__

    if grid.n == 1:
        gdesc = f"{grid.shape[0]} uniform nodes"
    else:
        gdesc = f"{grid.shape[0]} x {grid.shape[1]} nodes (Gauss-Legendre x uniform)"
    return [f"version = {__version__}", f"grid = {gdesc}"] + config_echo(parsed)


def run_to_files(parsed: ParsedConfig, out_dir: str,
                 build_init: Callable[[Grid, float], RadialField] | None = None,
                 head: tuple[str, ...] = (), tail: tuple[str, ...] = ()
                 ) -> tuple[FlowRun, tuple[str, str]]:
    """Run a parsed config; write run.csv and final_state.snapshot into out_dir.

    out_dir is resolved and made only after the run returns.  The initial
    field comes from `build_init` when given, else from the config's init.
    The run.csv header is `head`, `run_meta`, then `tail`.  A failed run
    writes its records so far and last recorded state.  Returns (run, paths).
    """
    cfg = parsed.config
    prob = FlowProblem(cfg)
    rho0 = (build_init or parsed.init.build)(prob.grid, cfg.R)
    out = run(cfg, rho0, problem=prob)
    target = resolve_out_dir(out_dir)
    csv_path, snap_path = f"{target}/run.csv", f"{target}/final_state.snapshot"
    write_lines(csv_path, run_csv_lines(out.records, [*head, *run_meta(parsed, prob.grid), *tail]))
    write_snapshot(out.final, snap_path)
    return out, (csv_path, snap_path)


# -- snapshots ------------------------------------------------------------------


def write_snapshot(state: FlowState, path: str) -> None:
    """Store a flow state as text; exact round trip of every coefficient."""
    rho = state.rho
    grid = rho.grid
    lines = [
        f"n = {grid.n}",
        f"R = {rho.R:.17g}",
        f"L_max = {grid.L_max}",
        f"t = {state.t:.17g}",
    ]
    coeffs = rho.coeffs
    for l in range(grid.L_max + 1):
        for p in range(1, harmonic_multiplicity(l, grid.n) + 1):
            lines.append(f"{l} {p} {coeffs[grid.flat_index(l, p)]:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_value(lines: list[str], lineno: int, key: str) -> str:
    if lineno > len(lines):
        raise SnapshotError(f"line {lineno}: missing header line {key!r}")
    line = lines[lineno - 1]
    k, sep, v = line.partition("=")
    if not sep or k.strip() != key:
        raise SnapshotError(f"line {lineno}: expected {key} = ..., got {line!r}")
    return v.strip()


def read_snapshot(path: str) -> FlowState:
    """Rebuild a flow state from a snapshot file.

    Coefficient lines may be sparse; anything not listed is zero.  R must be
    positive and every value finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        n = int(_header_value(lines, 1, "n"))
        R = float(_header_value(lines, 2, "R"))
        L_max = int(_header_value(lines, 3, "L_max"))
        t = float(_header_value(lines, 4, "t"))
    except ValueError as exc:
        raise SnapshotError(f"bad header value: {exc}") from exc
    if not (math.isfinite(R) and R > 0.0):
        raise SnapshotError(f"line 2: R must be positive and finite, got {R!r}")
    if not math.isfinite(t):
        raise SnapshotError(f"line 4: t must be finite, got {t!r}")
    try:
        grid = build_grid(n, L_max)
    except Exception as exc:
        raise SnapshotError(f"cannot build grid from header: {exc}") from exc
    coeffs = np.zeros(grid.size)
    seen = set()
    for lineno, line in enumerate(lines[4:], start=5):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise SnapshotError(f"line {lineno}: expected 'l p value', got {line!r}")
        try:
            l, p, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from exc
        if not math.isfinite(value):
            raise SnapshotError(f"line {lineno}: coefficient ({l}, {p}) is not finite: {value!r}")
        try:
            flat = grid.flat_index(l, p)
        except IndexError as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from exc
        if flat in seen:
            raise SnapshotError(f"line {lineno}: coefficient ({l}, {p}) listed twice")
        seen.add(flat)
        coeffs[flat] = value
    return FlowState(t=t, rho=RadialField(grid, R, coeffs=coeffs))


# -- CSV ----------------------------------------------------------------------


def run_csv_lines(records, meta: list[str]) -> list[str]:
    """run.csv content for a list of diagnostics records."""
    lines = [f"# {m}" for m in meta]
    lines.append(",".join(RUN_COLUMNS))
    for r in records:
        energies = [r.mode_energy[l] if l < len(r.mode_energy) else 0.0
                    for l in range(2, 9)]
        row = [r.t, r.h_k, r.V, r.sup_G, r.sup_rho, r.sphere_residual_sup, *energies]
        lines.append(",".join(repr(float(v)) for v in row))
    return lines


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def resolve_out_dir(requested: str) -> str:
    """Environment override wins over the configured output directory."""
    out = os.environ.get("MIXEDFLOW_OUT", "").strip() or requested
    os.makedirs(out, exist_ok=True)
    return out
