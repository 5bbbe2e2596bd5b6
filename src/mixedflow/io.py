"""Experiment configuration files, snapshots, and the one CSV writer.

Config files are line-based `key = value` text.  Blank lines and lines
starting with `#` are ignored.  Recognized keys:

    n, R, k, speed, integrator, dt, T, L_max, init, out_dir, cadence

A key the file leaves out takes FlowConfig's default; init defaults to
`const:0` and out_dir to the working directory.

Speed values follow `mean`, `power_mean m=1 beta=2`, or `elementary l=2`,
the grammar that `SpeedSpec.parse` reads.  Initial data is `kind:params`,
every parameter finite:

    const:c                the constant c, from its one exact coefficient
    harmonic:l,p,amp       amp times the degree-l, order-p harmonic
    random:amp,lmax,seed   seeded degrees 2..lmax, scaled to sup norm amp
    sphere:z0,z1,...       the sphere of radius R + z0 centred at sum z_i e_i
    zero_modes:amp         amp R (0.4 + 0.5 w_1 - 0.3 w_2 [+ 0.2 w_3 when n = 2])

where w_i are the direction components, so zero_modes holds degrees 0 and 1
only.  `parse_config_text` splits the lines and refuses a repeated key;
`parse_config_items` reads the key -> (value, source) items of a file or of
a preset and its overrides.  Unknown keys, and any malformed value or
parameter a kind does not take, are rejected with their source: `line N`,
`override KEY` or `preset`; a value FlowConfig refuses, with the first key
in CONFIG_KEYS order that brings the refusal.  The speed is read at n and
R once FlowConfig has checked them alone, so n and R are refused in
FlowConfig's words whether or not a speed line follows; init, last in that
order, is read once the flow keys have passed.  Header echoes
print ints with `str`, floats in short `:g` form when that parses back
exactly, else in full (repr), so they parse back.  A parsed config's
out_dir is where `run_to_files` and `spectrum_to_file` write; the
MIXEDFLOW_OUT environment variable overrides it (`resolve_out_dir`).

Snapshots are plain text: four header lines (n, R, L_max, t) followed by
one `l p value` line per stored coefficient, 17 significant digits, which
round-trips float64 exactly.  Coefficients not listed are zero.

`csv_lines` writes run.csv and spectrum.csv: their columns are the fields,
in order, of their row types, flow's DiagnosticsRecord and SpectrumRow,
and no list of columns is kept here.  An array field (mode_energy) is one
column per degree 2..8.  Ints are written with str, floats as
repr(float(v)).
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .analysis import sphere_from_coords
from .errors import ConfigError, SnapshotError, SpeedError
from .flow import (DiagnosticsRecord, FlowConfig, FlowProblem, FlowRun, FlowState, SpectrumReport,
                   default_timestep, numerical_jacobian, run)
from .harmonics import (SPHERE_AREA, Grid, RadialField, build_grid, harmonic_multiplicity,
                        total_coefficients)
from .speeds import NUMBER_KINDS, SpeedSpec, format_number, format_param, is_number

# Config key -> cast of its text; speed and init are parsed further below.  The flow
# keys come in the order `_sourced` seeks a refusal's source in: the problem's keys
# before the stepping's, so a dt above the rk4 bound blames dt, not L_max.
_CASTS = {"n": int, "R": float, "k": int, "speed": str, "L_max": int, "T": float,
          "cadence": int, "integrator": str, "dt": float, "init": str, "out_dir": str}
CONFIG_KEYS = tuple(_CASTS)

# Init kind -> name -> cast of its comma-separated parameters; None: any number of floats.
_INIT_PARAMS = {"const": {"c": float}, "harmonic": {"l": int, "p": int, "amp": float},
                "random": {"amp": float, "lmax": int, "seed": int}, "sphere": None,
                "zero_modes": {"amp": float}}


def _init_params(kind: str, count: int) -> dict:
    """Names and casts of the count parameters of an init kind; ConfigError for an unknown kind."""
    if kind not in _INIT_PARAMS:
        raise ConfigError(f"unknown init kind {kind!r}")
    return _INIT_PARAMS[kind] or {f"z{i}": float for i in range(count)}


@dataclass(frozen=True)
class InitSpec:
    """Parsed initial-data descriptor; built into a field once a grid exists."""

    kind: str
    params: tuple

    def __post_init__(self):
        params = _init_params(self.kind, len(self.params))
        if len(self.params) != len(params):
            raise ConfigError(
                f"init kind {self.kind} takes {len(params)} parameters, got {len(self.params)}")
        for (name, cast), value in zip(params.items(), self.params):
            if not is_number(value, cast):
                raise ConfigError(f"init {self.kind} parameter {name} must be "
                                  f"{NUMBER_KINDS[cast]}, got {value!r}")
        if not all(map(math.isfinite, self.params)):
            raise ConfigError(
                f"init parameters must be finite, got {self.describe().partition(':')[2]!r}")
        if self.kind == "random" and self.params[2] < 0:
            raise ConfigError(f"random init seed must be non-negative, got {self.params[2]}")
        if self.kind == "random" and self.params[1] < 2:
            raise ConfigError(f"random init degree {self.params[1]} is below 2, its band's start")

    def describe(self) -> str:
        casts = _init_params(self.kind, len(self.params)).values()
        return f"{self.kind}:" + ",".join(map(format_param, casts, self.params))

    def _check_grid(self, L_max: int, n: int) -> None:
        """ConfigError unless the init fits a grid of band limit L_max on the n-sphere."""
        if self.kind in ("harmonic", "random"):
            l = self.params[0 if self.kind == "harmonic" else 1]
            if l > L_max:
                raise ConfigError(f"init degree {l} exceeds L_max={L_max}")
        if self.kind == "harmonic":
            l, p, _ = self.params
            if l < 0:
                raise ConfigError(f"init degree {l} is negative")
            mult = harmonic_multiplicity(l, n)
            if not 1 <= p <= mult:
                raise ConfigError(f"init order {p} is outside [1, {mult}] for degree {l}")
        if self.kind == "sphere" and len(self.params) != n + 2:
            raise ConfigError(f"sphere init needs {n + 2} coordinates, got {len(self.params)}")

    def build(self, grid: Grid, R: float) -> RadialField:
        self._check_grid(grid.L_max, grid.n)
        if self.kind == "const":
            # The one exact coefficient (the constant member is |S^n|^(-1/2)):
            # analysing grid values would leave roundoff in degrees l >= 1,
            # which second derivatives amplify.
            coeffs = np.zeros(grid.size)
            coeffs[0] = self.params[0] * math.sqrt(SPHERE_AREA[grid.n])
            return RadialField(grid, R, coeffs=coeffs)
        if self.kind == "harmonic":
            l, p, amp = self.params
            coeffs = np.zeros(grid.size)
            coeffs[grid.flat_index(l, p)] = amp
            return RadialField(grid, R, coeffs=coeffs)
        if self.kind == "random":
            amp, lmax, seed = self.params
            return random_band_field(grid, R, amp, 2, lmax, seed)
        if self.kind == "zero_modes":
            omega = grid.directions()
            combo = 0.4 * np.ones(grid.shape) + 0.5 * omega[0] - 0.3 * omega[1]
            if grid.n == 2:
                combo = combo + 0.2 * omega[2]
            return RadialField(grid, R, values=self.params[0] * R * combo)
        return sphere_from_coords(np.asarray(self.params), grid, R)


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The four 64-bit words of numpy's SeedSequence(seed).generate_state(4, uint64).

    The seed's 32-bit words, least significant first, are hashed into a pool
    of four 32-bit words and mixed; eight output words cycle the pool and
    pair up little-endian.  The hash and mix constants are numpy's.
    """
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_draws(seed: int, count: int) -> np.ndarray:
    """The first count values of numpy's default_rng(seed).uniform(-1, 1), bit for bit.

    Ported so that a seed's field does not depend on the installed numpy,
    and a cold start does not pay numpy's random-module import.  PCG64
    (XSL-RR 128/64), seeded as numpy seeds it from _seed_words: state from
    words 0-1, stream from words 2-3.  Each double is (x >> 11) 2^-53,
    mapped to -1 + 2u.  ConfigError for a negative or non-integer seed,
    whose word split would never end or not be numpy's.
    """
    if not is_number(seed, int) or seed < 0:
        raise ConfigError(f"random init seed must be a non-negative integer, got {seed!r}")
    w0, w1, w2, w3 = _seed_words(int(seed))
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128
    top = []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        top.append(((x >> rot | x << (64 - rot)) & _M64) >> 11)
    return -1.0 + 2.0 * (np.array(top, dtype=float) * 2.0 ** -53)


def random_band_field(grid: Grid, R: float, amp: float, l_lo: int, l_hi: int,
                      seed: int) -> RadialField:
    """Seeded band-limited field, scaled so the sup norm equals amp.

    Coefficients are uniform on [-1, 1] for degrees l_lo..l_hi and zero
    outside, in particular on the constant and degree-1 modes: the flat
    coefficient k takes the k-th value of numpy's default_rng(seed) uniform
    stream, drawn by _uniform_draws only up to degree l_hi.
    ConfigError if l_hi exceeds the grid's band limit, the band holds no
    degree, or the seed is negative or not an integer.
    """
    if l_hi > grid.L_max:
        raise ConfigError(f"random init degree {l_hi} exceeds L_max={grid.L_max}")
    # Degree-major layout: degrees 0..l_hi are the first coefficients.
    count = total_coefficients(l_hi, grid.n)
    c = np.zeros(grid.size)
    c[:count] = _uniform_draws(seed, count)
    c[grid.degrees < l_lo] = 0.0
    sup = float(np.max(np.abs(grid.synthesize(c))))
    if sup == 0.0:
        raise ConfigError(f"random init has no content in degrees {l_lo}..{l_hi}")
    return RadialField(grid, R, coeffs=c * (amp / sup))


@dataclass(frozen=True)
class ParsedConfig:
    config: FlowConfig
    init: InitSpec
    out_dir: str


def _parse_init(value: str, source: str) -> InitSpec:
    kind, sep, rest = value.partition(":")
    if not sep:
        raise ConfigError(f"{source}: init needs the form kind:params")
    items = rest.split(",")
    try:
        casts = _init_params(kind, len(items)).values()
        params = tuple(cast(item) for cast, item in zip(casts, items, strict=True))
        return InitSpec(kind, params)
    except ValueError as exc:
        raise ConfigError(f"{source}: bad init parameters {rest!r}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_config_text(text: str) -> ParsedConfig:
    """Parse config text into a flow configuration plus initial data; errors name the line."""
    items: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in items:
            raise ConfigError(f"line {lineno}: key {key!r} already set on {items[key][1]}")
        items[key] = (value.strip(), f"line {lineno}")
    return parse_config_items(items)


def parse_config_items(items: dict[str, tuple[str, str]]) -> ParsedConfig:
    """Parse key -> (value text, source) items into a flow configuration plus initial data.

    The source names where an item came from (`line 3`, `override T`,
    `preset`) and starts every error about that item."""
    values = {}
    for key, (value, source) in items.items():
        if key not in _CASTS:
            raise ConfigError(f"{source}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{source}: missing value for {key!r}")
        try:
            values[key] = _CASTS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key!r}: {value!r}") from exc
    out_dir, init_text = values.pop("out_dir", "."), values.pop("init", None)
    config = _sourced(_flow_config, values, items)
    init = (InitSpec("const", (0.0,)) if init_text is None
            else _parse_init(init_text, items["init"][1]))
    try:
        init._check_grid(config.L_max, config.n)
    except ConfigError as exc:
        raise ConfigError(f"{items['init'][1]}: {exc}") from exc
    return ParsedConfig(config=config, init=init, out_dir=out_dir)


def _flow_config(speed: str | None = None, **values) -> FlowConfig:
    """FlowConfig of cast values and the speed's text, which is read at their n and R.

    FlowConfig checks n and R alone first, so they are refused in its words
    whether or not a speed is given."""
    base = FlowConfig(**{key: values[key] for key in ("n", "R") if key in values})
    if speed is not None:
        values["speed"] = SpeedSpec.parse(speed, base.n, base.R)
    return FlowConfig(**values)


def _sourced(build: Callable, values: dict, items: dict[str, tuple[str, str]]):
    """build(**values); a refusal becomes a ConfigError led by the source of its key.

    That key is the first, in CONFIG_KEYS order, that gives the same refusal
    together with the given keys before it: `n = 3` blames n, and
    `integrator = rk4` with a `dt` above the bound blames dt."""
    try:
        return build(**values)
    except (ArithmeticError, ValueError, SpeedError) as exc:
        refusal = exc
    given = {}
    for key in (key for key in CONFIG_KEYS if key in values):
        given[key] = values[key]
        try:
            build(**given)
        except (ArithmeticError, ValueError, SpeedError) as exc:
            if str(exc) == str(refusal):
                break
    raise ConfigError(f"{items[key][1]}: {refusal}") from refusal


def parse_config(path: str) -> ParsedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


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


def run_to_files(parsed: ParsedConfig, head: tuple[str, ...] = ()
                 ) -> tuple[FlowRun, tuple[str, str]]:
    """Run a parsed config from its init; write run.csv and final_state.snapshot.

    They go into `resolve_out_dir(parsed.out_dir)`, resolved and made only
    after the run returns.  The run.csv header is `head`, then `run_meta`.
    A failed run writes its records so far and last recorded state.
    Returns (run, paths).
    """
    cfg = parsed.config
    prob = FlowProblem(cfg)
    out = run(cfg, parsed.init.build(prob.grid, cfg.R), problem=prob)
    target = resolve_out_dir(parsed.out_dir)
    csv_path, snap_path = f"{target}/run.csv", f"{target}/final_state.snapshot"
    write_lines(csv_path, run_csv_lines(out.records, [*head, *run_meta(parsed, prob.grid)]))
    write_snapshot(out.final, snap_path)
    return out, (csv_path, snap_path)


def spectrum_to_file(parsed: ParsedConfig, l_max: int) -> tuple[SpectrumReport, str]:
    """Numerical Jacobian of a parsed config at degrees <= l_max, written as spectrum.csv.

    The Jacobian is built first, so an l_max it refuses (SpectrumRangeError)
    writes nothing; `resolve_out_dir(parsed.out_dir)` is then resolved and
    made.  Returns (report, path).
    """
    _, report = numerical_jacobian(parsed.config, l_max)
    path = f"{resolve_out_dir(parsed.out_dir)}/spectrum.csv"
    write_lines(path, csv_lines(report.rows))
    return report, path


# -- snapshots ------------------------------------------------------------------


def write_snapshot(state: FlowState, path: str) -> None:
    """Store a flow state as text; exact round trip of every coefficient."""
    write_lines(path, _snapshot_lines(state))


def _snapshot_lines(state: FlowState):
    rho = state.rho
    grid = rho.grid
    yield f"n = {grid.n}"
    yield f"R = {rho.R:.17g}"
    yield f"L_max = {grid.L_max}"
    yield f"t = {state.t:.17g}"
    coeffs = iter(rho.coeffs)  # degree-major: the flat order is the (l, p) order
    for l in range(grid.L_max + 1):
        for p in range(1, harmonic_multiplicity(l, grid.n) + 1):
            yield f"{l} {p} {next(coeffs):.17g}"


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
        try:
            lines = [ln.rstrip("\n") for ln in fh]
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"{path} is not UTF-8 text: {exc}") from exc
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


_CSV_DEGREES = range(2, 9)  # the degrees an array field is written at, one column each


def csv_columns(row_type) -> tuple[str, ...]:
    """The CSV columns of a dataclass row type: its fields in order, an array field
    expanded to one column per written degree (`mode_energy_l2` .. `mode_energy_l8`)."""
    return tuple(column for name, kind in typing.get_type_hints(row_type).items()
                 for column in ([f"{name}_l{l}" for l in _CSV_DEGREES] if kind is np.ndarray
                                else [name]))


def _csv_cells(value, kind) -> list[str]:
    if kind is np.ndarray:
        return [repr(float(value[l])) if l < len(value) else "0.0" for l in _CSV_DEGREES]
    return [str(value) if kind is int else repr(float(value))]


def csv_lines(rows, meta: Iterable[str] = ()) -> list[str]:
    """CSV text of a non-empty list of dataclass rows of one type, one string per line.

    `# ` meta lines, the header of `csv_columns`, then one line per row: an
    int field written with str, a float as repr(float(v)), which parses back
    exactly, and an array field as one cell per written degree, 0.0 past
    the array's end.
    """
    kinds = typing.get_type_hints(type(rows[0])).items()
    lines = [f"# {m}" for m in meta] + [",".join(csv_columns(type(rows[0])))]
    return lines + [",".join(cell for name, kind in kinds
                             for cell in _csv_cells(getattr(row, name), kind)) for row in rows]


RUN_COLUMNS = csv_columns(DiagnosticsRecord)


def run_csv_lines(records, meta: list[str]) -> list[str]:
    """run.csv content for a list of diagnostics records: their fields are its columns."""
    return csv_lines(records, meta)


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line, newline-terminated, without joining them into one text first."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(f"{line}\n")


def resolve_out_dir(requested: str) -> str:
    """Environment override wins over the configured output directory."""
    out = os.environ.get("MIXEDFLOW_OUT", "").strip() or requested
    os.makedirs(out, exist_ok=True)
    return out
