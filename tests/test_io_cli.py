"""Config parsing, snapshots, run.csv emission, and the command-line front end."""

import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixedflow.analysis import fit_sphere, sphere_from_coords
from mixedflow.cli import main
from mixedflow.errors import ConfigError, SnapshotError, SpeedError
from mixedflow.flow import (DiagnosticsRecord, FlowConfig, FlowProblem, FlowState,
                            default_timestep, run)
from mixedflow.harmonics import RadialField, build_grid
from mixedflow.io import (
    CONFIG_KEYS,
    InitSpec,
    config_echo,
    csv_columns,
    _uniform_draws,
    parse_config_text,
    random_band_field,
    read_snapshot,
    resolve_out_dir,
    run_csv_lines,
    run_meta,
    run_to_files,
    write_snapshot,
)
from mixedflow.presets import _PRESETS, PRESET_NAMES, run_experiment
from mixedflow.speeds import SPEED_KINDS, SpeedSpec
from oracles import zero_mode_values

FULL_CONFIG = """\
# demo configuration
n = 2
R = 1.5
k = 0
speed = power_mean m=1 beta=2
integrator = rk4
dt = 2e-4
T = 0.3
L_max = 12
init = harmonic:3,2,1e-3
out_dir = demo_out
cadence = 25
"""


# -- config parsing --------------------------------------------------------------


def test_parse_defaults():
    parsed = parse_config_text("")
    cfg = parsed.config
    assert (cfg.n, cfg.R, cfg.k) == (2, 1.0, -1)
    assert cfg.speed.kind == "mean"
    assert cfg.integrator == "rk4" and cfg.dt is None
    assert (cfg.T, cfg.L_max, cfg.cadence) == (1.0, 16, 10)
    assert parsed.init == InitSpec("const", (0.0,))
    assert parsed.out_dir == "."


def test_parse_full_config():
    parsed = parse_config_text(FULL_CONFIG)
    cfg = parsed.config
    assert (cfg.n, cfg.R, cfg.k) == (2, 1.5, 0)
    assert cfg.speed.kind == "power_mean"
    assert (cfg.speed.m, cfg.speed.beta) == (1, 2.0)
    assert cfg.integrator == "rk4" and cfg.dt == 2e-4
    assert (cfg.T, cfg.L_max, cfg.cadence) == (0.3, 12, 25)
    assert parsed.init == InitSpec("harmonic", (3, 2, 1e-3))
    assert parsed.out_dir == "demo_out"


@pytest.mark.parametrize("text,fragment", [
    ("n = 2\nfoo = 3\n", "line 2: unknown key 'foo'"),
    ("n = 2\nn = 1\n", "line 2: key 'n' already set on line 1"),
    ("n =\n", "line 1: missing value for 'n'"),
    ("just some words\n", "line 1: expected key = value"),
    ("n = two\n", "line 1: bad value for 'n'"),
    ("speed = power_mean q=3\n", "line 1: unknown speed parameter 'q'"),
    ("speed = power_mean beta=x\n", "line 1: bad speed parameter value 'x'"),
    ("speed = schwarz\n", "line 1:"),
    ("n = 1\nk = 5\n", "line 2: k = 5 is outside [-1, 0] for n = 1"),
    ("L_max = 8\ninit = harmonic:9,1,1e-4\n", "line 2: init degree 9 exceeds L_max=8"),
    ("L_max = 8\ninit = random:0.05,12,42\n", "line 2: init degree 12 exceeds L_max=8"),
    ("L_max = 8\ninit = random:0.1,1,42\n", "line 2: random init degree 1 is below 2"),
    ("init = blob:1\n", "line 1: unknown init kind 'blob'"),
    ("init = harmonic:2\n", "line 1: bad init parameters"),
    ("init = const\n", "line 1: init needs the form kind:params"),
    ("n = 2\ninit = sphere:0.1,0.2\n", "line 2: sphere init needs 4 coordinates, got 2"),
    ("integrator = euler\n", "line 1: integrator must be one of ('imex', 'rk4'), got 'euler'"),
    ("integrator = rk4\ndt = 1\n", "line 2: rk4 dt=1.000e+00 exceeds the parabolic bound"),
    ("dt = 1\nintegrator = rk4\n", "line 1: rk4 dt=1.000e+00 exceeds the parabolic bound"),
    ("integrator = rk4\ndt = 1e-3\nL_max = 64\n",
     "line 2: rk4 dt=1.000e-03 exceeds the parabolic bound 1.202e-04"),
    ("n = 3\n", "line 1: n must be 1 or 2, got 3"),
    ("n = 3\nspeed = mean\n", "line 1: n must be 1 or 2, got 3"),
    ("n = 3\nk = 5\n", "line 1: n must be 1 or 2, got 3"),
    ("R = -1\nspeed = mean\n", "line 1: reference radius must be positive, got -1.0"),
    ("R = 1e200\n", "line 1: R=1e+200 gives no positive finite step bound"),
    ("n = 2\nR = 1e-200\n", "line 2: R=1e-200 gives no positive finite step bound"),
    ("dt = 1e-3\nspeed = mean\nR = 1e200\n",
     "line 3: R=1e+200 gives no positive finite step bound"),
    ("R = 1e-200\nspeed = elementary l=2\n",
     "line 1: R=1e-200 gives no positive finite step bound"),
    ("n = 3\ninit = blob:1\n", "line 1: n must be 1 or 2, got 3"),
    ("T = 0\ninit = blob:1\n", "line 1: T must be positive"),
    ("n = 2\nT = 0\ncadence = 0\n", "line 2: T must be positive"),
    ("init = const:nan\n", "line 1: init parameters must be finite, got 'nan'"),
    ("n = 2\ninit = harmonic:2,1,nan\n", "line 2: init parameters must be finite"),
    ("init = random:inf,6,1\n", "line 1: init parameters must be finite"),
    ("init = sphere:nan,0,0,0\n", "line 1: init parameters must be finite"),
    ("n = 2\ninit = random:0.05,6,-1\n", "line 2: random init seed must be non-negative, got -1"),
    ("speed = mean beta=3\n", "line 1: unknown speed parameter 'beta' for mean"),
    ("speed = power_mean m=1 beta=2 l=2\n",
     "line 1: unknown speed parameter 'l' for power_mean"),
    ("R = 0.001\nspeed = power_mean m=1 beta=1000\n",
     "line 2: F' of speed power_mean m=1 beta=1000 at the reference sphere is inf"),
    ("n = 2\nspeed = power_mean m=2 m=1 beta=2\n", "line 2: speed parameter 'm' given twice"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert fragment in str(info.value)


def test_readme_example_config_parses_to_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    after = readme[readme.index("values below are those defaults"):]
    block = after.split("```\n")[1]
    parsed = parse_config_text(block)
    keys = [line.partition("=")[0].strip() for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    assert set(keys) == set(CONFIG_KEYS)
    defaults = FlowConfig()
    for key in set(keys) - {"dt", "init", "out_dir"}:
        assert getattr(parsed.config, key) == getattr(defaults, key), key


def test_config_echo_resolves_dt():
    parsed = parse_config_text("n = 2\nL_max = 16\n")
    echo = config_echo(parsed)
    assert "dt = 0.001838235294117647" in echo
    assert "init = const:0" in echo
    assert "speed = mean" in echo


def test_run_meta_describes_grid(grid2):
    parsed = parse_config_text("")
    meta = run_meta(parsed, grid2)
    assert meta[0].startswith("version = ")
    assert meta[1] == "grid = 34 x 66 nodes (Gauss-Legendre x uniform)"


def _echo_round_trips(parsed):
    back = parse_config_text("\n".join(config_echo(parsed)))
    assert back.config == replace(parsed.config, dt=default_timestep(parsed.config))
    assert back.init == parsed.init


# No preset fixes its step, so every flow preset parses at any L_max and speed.
@pytest.mark.parametrize("name,overrides", [
    *((name, {}) for name in PRESET_NAMES), ("zero-modes", {"n": "1", "L_max": "16"}),
    *(pytest.param(name, {"L_max": L, **speed}, id=f"{name}-L{L}{'-power_mean' * bool(speed)}")
      for name in PRESET_NAMES if _PRESETS[name].checks
      for L in ("16", "24", "32", "64") for speed in ({}, {"speed": "power_mean m=2 beta=2"}))])
def test_preset_echo_round_trips(name, overrides):
    _echo_round_trips(_PRESETS[name].config(overrides))


def test_echo_keeps_full_precision():
    # values that :g shortens to a different float are echoed in repr form
    parsed = parse_config_text(
        "R = 1.23456789\nspeed = power_mean m=1 beta=1.23456789\nintegrator = rk4\n"
        "dt = 1.2345678e-4\nT = 0.123456789\ninit = random:0.0512345678,6,42\n")
    echo = config_echo(parsed)
    assert "R = 1.23456789" in echo and "dt = 0.00012345678" in echo
    _echo_round_trips(parsed)
    # the default rk4 step, 0.5 / (16 * 17), has no exact 6-digit form
    _echo_round_trips(parse_config_text("integrator = rk4\ninit = sphere:0.123456789,0,0,0\n"))


def test_speed_kinds_round_trip_through_their_echo():
    _echo_round_trips(parse_config_text("speed = elementary l=2\n"))
    samples = {"mean": {}, "power_mean": {"m": 2, "beta": 1.23456789}, "elementary": {"l": 2}}
    for kind in SPEED_KINDS:
        s = SpeedSpec(kind, n=2, R=1.0, **samples[kind])
        assert parse_config_text(f"speed = {s.describe()}").config.speed == s
    # an integer parameter given as a float or a bool described itself as text
    # (`power_mean m=1.0 beta=1`) that the parser refuses: refused when built
    for kind, name, value in (("power_mean", "m", 1.0), ("elementary", "l", 2.0),
                              ("elementary", "l", True), ("mean", "l", 1.0)):
        with pytest.raises(SpeedError, match=re.escape(
                f"speed parameter {name} must be an integer, got {value!r}")):
            SpeedSpec(kind, n=2, R=1.0, **{name: value})
    with pytest.raises(SpeedError, match=re.escape("speeds are defined for n in {1, 2}, got 2.0")):
        SpeedSpec("mean", n=2.0, R=1.0)


# -- initial data -----------------------------------------------------------------


def test_init_const(grid2):
    rho = InitSpec("const", (0.25,)).build(grid2, 1.0)
    assert np.max(np.abs(rho.values - 0.25)) <= 1e-14


def test_init_harmonic(grid2):
    rho = InitSpec("harmonic", (3, 2, 1e-3)).build(grid2, 1.0)
    expect = np.zeros(grid2.size)
    expect[grid2.flat_index(3, 2)] = 1e-3
    assert np.array_equal(rho.coeffs, expect)


def test_init_random_band(grid2):
    rho = InitSpec("random", (0.05, 6, 42)).build(grid2, 1.0)
    assert rho.sup_abs() == pytest.approx(0.05, rel=1e-12)
    deg = grid2.degrees
    assert np.all(rho.coeffs[(deg < 2) | (deg > 6)] == 0.0)
    again = InitSpec("random", (0.05, 6, 42)).build(grid2, 1.0)
    assert np.array_equal(rho.coeffs, again.coeffs)
    other = InitSpec("random", (0.05, 6, 43)).build(grid2, 1.0)
    assert not np.array_equal(rho.coeffs, other.coeffs)


def test_init_sphere(grid2):
    z = (0.1, 0.02, -0.03, 0.05)
    rho = InitSpec("sphere", z).build(grid2, 1.0)
    direct = sphere_from_coords(np.array(z), grid2, 1.0)
    assert np.array_equal(rho.values, direct.values)


def test_random_band_empty_degrees(grid2):
    with pytest.raises(ConfigError):
        random_band_field(grid2, 1.0, 0.05, 9, 8, 1)


def test_random_band_refuses_degrees_above_the_band_limit():
    # degrees above L_max were dropped without a word
    with pytest.raises(ConfigError, match="^random init degree 12 exceeds L_max=8$"):
        random_band_field(build_grid(2, 8), 1.0, 0.05, 2, 12, 42)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 12345])
def test_uniform_draws_match_numpy_bit_for_bit(seed):
    # the reference stream is numpy's default generator (SeedSequence + PCG64)
    for count in (1, 49, 169, 4225):
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, count)
        assert _uniform_draws(seed, count).tobytes() == want.tobytes(), count


@pytest.mark.parametrize("n,L,l_hi", [(1, 17, 6), (1, 17, 17), (2, 16, 6), (2, 16, 16),
                                      (2, 64, 12), (2, 64, 64)])
def test_random_band_field_is_the_full_draw_with_the_band_kept(n, L, l_hi):
    # drawing only degrees <= l_hi gives the field of a full-length draw
    # with the degrees outside l_lo..l_hi zeroed
    grid = build_grid(n, L)
    for seed in (7, 42):
        c = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.size)
        c[(grid.degrees < 2) | (grid.degrees > l_hi)] = 0.0
        want = c * (0.05 / np.max(np.abs(grid.synthesize(c))))
        got = random_band_field(grid, 1.0, 0.05, 2, l_hi, seed).coeffs
        assert got.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, 2.5, "7", True, None])
def test_random_band_refuses_a_bad_seed(grid2_small, seed):
    # numpy raised a bare ValueError or TypeError here; a ported seed split
    # would never end on a negative int
    with pytest.raises(ConfigError, match=re.escape(f"got {seed!r}")):
        random_band_field(grid2_small, 1.0, 0.05, 2, 6, seed)


@pytest.mark.parametrize("kind,params,message", [
    ("random", (0.05, 12, 42), "init degree 12 exceeds L_max=8"),
    ("harmonic", (20, 1, 0.1), "init degree 20 exceeds L_max=8"),
    ("sphere", (0.1, 0.2), "sphere init needs 4 coordinates, got 2"),
])
def test_init_build_checks_the_grid(grid2_small, kind, params, message):
    # the checks a config file gets from the parser hold for a spec built directly
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        InitSpec(kind, params).build(grid2_small, 1.0)


@pytest.mark.parametrize("n,L_max", [(1, 16), (2, 8)])
def test_init_zero_modes_matches_its_reference(n, L_max):
    grid = build_grid(n, L_max)
    for R in (1.0, 1.7):
        rho = InitSpec("zero_modes", (1e-3,)).build(grid, R)
        expect = RadialField(grid, R, values=zero_mode_values(grid.directions(), R))
        assert rho.coeffs.tobytes() == expect.coeffs.tobytes()
        # degrees 0 and 1 only: the neutral centre subspace
        assert np.max(np.abs(rho.coeffs[grid.degrees >= 2])) <= 1e-15


def test_init_describe_round_trip():
    for spec in (InitSpec("const", (0.2,)),
                 InitSpec("harmonic", (2, 1, 1e-4)),
                 InitSpec("random", (0.05, 6, 42)),
                 InitSpec("sphere", (0.1, 0.0, 0.02, -0.01)),
                 InitSpec("zero_modes", (1e-3,))):
        parsed = parse_config_text(f"init = {spec.describe()}\n")
        assert parsed.init == spec
    # an integer parameter given as a float or a bool described itself as text
    # (`harmonic:2.0,1,0.0001`) that the parser refuses: refused when built
    for kind, params, name, value in (("harmonic", (2.0, 1, 1e-4), "l", 2.0),
                                      ("harmonic", (2, True, 1e-4), "p", True),
                                      ("random", (0.05, 6.0, 42), "lmax", 6.0),
                                      ("random", (0.05, 6, 42.0), "seed", 42.0)):
        with pytest.raises(ConfigError, match=re.escape(
                f"init {kind} parameter {name} must be an integer, got {value!r}")):
            InitSpec(kind, params)


@pytest.mark.parametrize("kind,params,fragment", [
    ("blob", (1.0,), "unknown init kind 'blob'"),
    ("const", (0.1, 0.2), "init kind const takes 1 parameters, got 2"),
    ("harmonic", (2, 1, float("nan")), "init parameters must be finite, got '2,1,nan'"),
    ("zero_modes", (1e-3, 2.0), "init kind zero_modes takes 1 parameters, got 2"),
    ("zero_modes", (float("inf"),), "init parameters must be finite, got 'inf'"),
])
def test_init_spec_checks_itself(kind, params, fragment):
    with pytest.raises(ConfigError) as info:
        InitSpec(kind, params)
    assert fragment in str(info.value)


# -- snapshots --------------------------------------------------------------------


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_snapshot_round_trip_exact(tmp_path, seed):
    for n in (1, 2):
        grid = build_grid(n, 8, 2.0)
        rng = np.random.default_rng(seed)
        coeffs = 1e-2 * rng.standard_normal(grid.size)
        state = FlowState(t=float(rng.uniform(0.0, 5.0)),
                          rho=RadialField(grid, 1.25, coeffs=coeffs))
        path = tmp_path / f"s{seed}_n{n}.snapshot"
        write_snapshot(state, str(path))
        back = read_snapshot(str(path))
        assert back.t == state.t
        assert back.rho.R == 1.25
        assert np.array_equal(back.rho.coeffs, coeffs)


def test_snapshot_sparse_matches_harmonic_init(tmp_path):
    # listing a single coefficient reproduces the harmonic initializer
    path = tmp_path / "sparse.snapshot"
    path.write_text("n = 2\nR = 1\nL_max = 16\nt = 0\n2 1 1e-4\n")
    state = read_snapshot(str(path))
    built = InitSpec("harmonic", (2, 1, 1e-4)).build(state.rho.grid, 1.0)
    assert np.array_equal(state.rho.coeffs, built.coeffs)


@pytest.mark.parametrize("text,fragment", [
    ("n = 2\nR = 1\nL_max = 8\nt = 0\n2 1 0.1\n2 1 0.2\n",
     "line 6: coefficient (2, 1) listed twice"),
    ("n = 2\nQ = 1\nL_max = 8\nt = 0\n", "line 2: expected R = ..."),
    ("n = 2\nR = 1\nL_max = 8\nt = 0\n2 1\n", "line 5: expected 'l p value'"),
    ("n = 2\nR = 1\nL_max = 8\nt = 0\n9 1 0.1\n", "line 5:"),
    ("n = 2\nR = 1\nL_max = 8\nt = 0\n2 9 0.1\n", "line 5:"),
    ("n = 2\nR = 1\nL_max = 8\n", "line 4: missing header line 't'"),
    ("n = 2\nR = 0\nL_max = 8\nt = 0\n", "line 2: R must be positive and finite"),
    ("n = 2\nR = -1\nL_max = 8\nt = 0\n", "line 2: R must be positive and finite"),
    ("n = 2\nR = inf\nL_max = 8\nt = 0\n", "line 2: R must be positive and finite"),
    ("n = 2\nR = 1\nL_max = 8\nt = nan\n", "line 4: t must be finite"),
    ("n = 2\nR = 1\nL_max = 8\nt = 0\n2 1 0.1\n2 2 nan\n",
     "line 6: coefficient (2, 2) is not finite"),
    ("n = 2\nR = 1\nL_max = 8\nt = 0\n3 1 -inf\n", "line 5: coefficient (3, 1) is not finite"),
])
def test_snapshot_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.snapshot"
    path.write_text(text)
    with pytest.raises(SnapshotError) as info:
        read_snapshot(str(path))
    assert fragment in str(info.value)



_UNREADABLE_SNAPSHOTS = [
    ("n = two\nR = 1\nL_max = 8\nt = 0\n",
     "bad header value: invalid literal for int() with base 10: 'two'"),
    ("n = 3\nR = 1\nL_max = 8\nt = 0\n",
     "cannot build grid from header: "
     "only circle (n=1) and sphere (n=2) grids are supported, got n=3"),
    ("n = 2\nR = 1\nL_max = 8\nt = 0\n2 1 abc\n",
     "line 5: could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize("text,message", _UNREADABLE_SNAPSHOTS)
def test_snapshot_refusals_name_their_cause(tmp_path, text, message):
    path = tmp_path / "bad.snapshot"
    path.write_text(text)
    with pytest.raises(SnapshotError) as info:
        read_snapshot(str(path))
    assert str(info.value) == message

# -- run.csv ----------------------------------------------------------------------


def _tiny_run():
    parsed = parse_config_text(
        "n = 2\nk = 0\nintegrator = rk4\ndt = 1e-3\nT = 0.01\nL_max = 8\n"
        "init = random:0.05,6,42\ncadence = 5\n")
    prob = FlowProblem(parsed.config)
    rho0 = parsed.init.build(prob.grid, parsed.config.R)
    out = run(parsed.config, rho0, problem=prob)
    return parsed, prob, out


def test_run_csv_layout():
    parsed, prob, out = _tiny_run()
    lines = run_csv_lines(out.records, run_meta(parsed, prob.grid))
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert meta[0].startswith("# version = ")
    assert any(ln.startswith("# grid = ") for ln in meta)
    assert "# init = random:0.05,6,42" in meta
    header = lines[len(meta)]
    assert header == ",".join(csv_columns(DiagnosticsRecord))
    data = lines[len(meta) + 1:]
    assert len(data) == len(out.records)
    for row in data:
        cells = row.split(",")
        assert len(cells) == len(csv_columns(DiagnosticsRecord))
        # shortest round-trip formatting: re-printing reproduces the cell
        for cell in cells:
            assert repr(float(cell)) == cell
    # the first data row is t = 0 with V matching the record exactly
    assert float(data[0].split(",")[0]) == 0.0
    assert float(data[0].split(",")[2]) == out.records[0].V


def test_run_columns_are_the_record_fields():
    expanded = [[f"mode_energy_l{l}" for l in range(2, 9)] if f.name == "mode_energy"
                else [f.name] for f in fields(DiagnosticsRecord)]
    assert csv_columns(DiagnosticsRecord) == tuple(column for group in expanded for column in group)
    assert csv_columns(DiagnosticsRecord)[-3:] == ("center_norm", "kappa_min", "kappa_max")


def test_run_csv_cells_are_the_record_figures():
    # every field of every record is a column, each cell its figure exactly
    records = _tiny_run()[2].records
    lines = run_csv_lines(records, ["x"])
    assert lines[0] == "# x" and len(lines) == 2 + len(records)
    for line, record in zip(lines[2:], records, strict=True):
        row = dict(zip(lines[1].split(","), map(float, line.split(",")), strict=True))
        for f in fields(DiagnosticsRecord):
            if f.name == "mode_energy":
                for l in range(2, 9):
                    assert row[f"mode_energy_l{l}"] == record.mode_energy[l]
            else:
                assert row[f.name] == getattr(record, f.name)


def test_run_csv_deterministic():
    a = run_csv_lines(_tiny_run()[2].records, ["x"])
    b = run_csv_lines(_tiny_run()[2].records, ["x"])
    assert a == b


def test_resolve_out_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    target = tmp_path / "a" / "b"
    assert resolve_out_dir(str(target)) == str(target)
    assert target.is_dir()
    override = tmp_path / "override"
    monkeypatch.setenv("MIXEDFLOW_OUT", str(override))
    assert resolve_out_dir(str(target)) == str(override)
    assert override.is_dir()


# -- command line -----------------------------------------------------------------


def _write_config(tmp_path, text):
    path = tmp_path / "flow.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(
        tmp_path,
        "n = 2\ndt = 1e-3\nT = 0.02\nL_max = 8\ninit = harmonic:2,1,1e-4\ncadence = 5\n")
    assert main(["run", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "status = reached_T" in captured.out
    assert (tmp_path / "out" / "run.csv").exists()
    assert (tmp_path / "out" / "final_state.snapshot").exists()


def test_cli_fit_sphere_round_trip(tmp_path, monkeypatch, capsys):
    # run to a snapshot, then read the fitted coordinates back
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    cfg = _write_config(
        tmp_path, "n = 2\nT = 0.05\nL_max = 8\ninit = sphere:0.05,0.01,-0.02,0.03\n")
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    snap = str(tmp_path / "final_state.snapshot")
    assert main(["fit-sphere", "--snapshot", snap]) == 0
    out = capsys.readouterr().out
    assert "z0 = " in out and "z3 = " in out and "residual_sup = " in out
    # each coordinate prints as a plain float that reads back to the fitted value
    z, _ = fit_sphere(read_snapshot(snap).rho)
    printed = dict(line.split(" = ") for line in out.splitlines())
    assert [float(printed[f"z{i}"]) for i in range(4)] == z.tolist()


def test_cli_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    assert main(["preset", "stationarity"]) == 0
    out = capsys.readouterr().out
    assert "check sup_G_on_sphere" in out
    assert "overall = PASS" in out
    assert (tmp_path / "summary.txt").exists()
    assert (tmp_path / "run.csv").exists()


def test_cli_stationarity_const_init_at_band_limit_60(tmp_path, monkeypatch, capsys):
    # a const init built from grid values left analyze's roundoff in degrees
    # l >= 1, and sup_G crossed the 2e-10 gate at L = 60
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    assert main(["preset", "stationarity", "--set", "L_max=60", "--set", "init=const:-0.3",
                 "--set", "T=2e-4"]) == 0
    assert "overall = PASS" in capsys.readouterr().out


def test_cli_preset_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    assert main(["preset", "stationarity", "--set", "init=const:0.1", "--set", "n=1"]) == 0
    out = capsys.readouterr().out
    assert "overall = PASS" in out


@pytest.mark.parametrize("name,overrides", [
    ("linear-decay", ["cadence=20"]),
    ("zero-modes", ["T=0.1", "cadence=20"]),
    ("nonlinear-convergence", ["T=0.1", "cadence=20"]),
])
def test_cli_preset_failed_decay_fit(tmp_path, monkeypatch, capsys, name, overrides):
    # 9, 2 or 4 records leave too few samples in the fit window: the preset
    # still writes summary.txt, with the fit's error and a failed check, and exits 1
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    assert main(["preset", name, *(arg for o in overrides for arg in ("--set", o))]) == 1
    assert "failed checks: checks_evaluated" in capsys.readouterr().err
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "status = reached_T" in summary
    assert any(re.fullmatch(r"error = only \d samples in the fit window; need at least 10", line)
               for line in summary)
    assert summary[-2:] == ["check checks_evaluated: value=nan <= threshold=0.0 -> FAIL",
                            "overall = FAIL"]


def test_cli_preset_refused_final_sphere_fit(tmp_path, monkeypatch, capsys):
    # The run reaches T, but its final state is too far from the sphere to fit:
    # the preset writes summary.txt with the fit's error and a failed check, and exits 1
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    assert main(["preset", "nonlinear-convergence", "--set", "init=zero_modes:0.7",
                 "--set", "T=0.5"]) == 1
    assert "failed checks: checks_evaluated" in capsys.readouterr().err
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "status = reached_T" in summary
    assert "error = field is too far from the reference sphere to fit" in summary
    assert summary[-2:] == ["check checks_evaluated: value=nan <= threshold=0.0 -> FAIL",
                            "overall = FAIL"]


def test_cli_spectrum(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    cfg = _write_config(tmp_path, "n = 2\nL_max = 8\n")
    assert main(["spectrum", "--config", cfg, "--lmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "zero_multiplicity = 4 (expected 4)" in out
    assert (tmp_path / "spectrum.csv").exists()
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header == "l,lambda_analytic,lambda_numeric,multiplicity,offdiag_max"


def test_cli_input_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = _write_config(tmp_path, "n = 1\nk = 5\n")
    assert main(["run", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "k = 5 is outside [-1, 0] for n = 1" in err
    assert main(["preset", "stationarity", "--set", "oops"]) == 2
    assert "--set expects key=value" in capsys.readouterr().err
    # a directory, or bytes that are not UTF-8, in place of a config or a snapshot
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"n = 2\nR = 1\xe9\n")
    for command, flag in (("run", "--config"), ("fit-sphere", "--snapshot")):
        for path in (tmp_path, undecodable):
            assert main([command, flag, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err


def test_cli_set_refuses_a_repeated_key(tmp_path, monkeypatch, capsys):
    # as a config file does: the second T used to win silently
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    assert main(["preset", "stationarity", "--set", "T=2e-4", "--set", " T =4e-4"]) == 2
    assert capsys.readouterr().err == "error: --set key 'T' given twice\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("item,key", [("T=2e-4\ndt=1e-4", "T"), ("T=2e-4\rdt=1e-4", "T"),
                                      ("T\ndt=1e-4", "T\ndt")])
def test_override_with_a_line_break_is_refused(tmp_path, monkeypatch, capsys, item, key):
    # joined into config text, the break would set dt, which no override named
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    assert main(["preset", "stationarity", "--set", item]) == 2
    assert capsys.readouterr().err == f"error: override {key!r} holds a line break\n"
    value = item.partition("=")[2]
    with pytest.raises(ConfigError, match=f"^override {re.escape(repr(key))} holds a line break$"):
        run_experiment("stationarity", {key: value, "out_dir": str(tmp_path)})
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name,overrides,message", [
    ("stationarity", {"T": "abc"}, "override T: bad value for 'T': 'abc'"),
    ("stationarity", {"foo": "1"}, "override foo: unknown key 'foo'"),
    ("conservation", {"L_max": "4"}, "preset: init degree 6 exceeds L_max=4"),
    ("stationarity", {"L_max": "3"}, "override L_max: L_max must lie in [4, 64], got 3"),
    ("conservation", {"dt": "1"}, "override dt: rk4 dt=1.000e+00 exceeds the parabolic bound"
                                  " 8.333e-04"),
    ("stationarity", {"R": "1e-200", "speed": "elementary l=2"},
     "override R: R=1e-200 gives no positive finite step bound"),
])
def test_preset_config_errors_name_their_source(tmp_path, monkeypatch, capsys,
                                                name, overrides, message):
    # an override or a preset setting is no line of a file: the error names it instead
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    argv = ["preset", name, *(arg for k, v in overrides.items() for arg in ("--set", f"{k}={v}"))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ConfigError) as info:
        run_experiment(name, {**overrides, "out_dir": str(tmp_path)})
    assert str(info.value) == message and "line" not in message
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name,files", [
    ("stationarity", {"run.csv", "final_state.snapshot", "summary.txt"}),
    ("spectrum", {"spectrum.csv", "summary.txt"})])
def test_preset_out_dir_override_holds_every_file(tmp_path, monkeypatch, capsys, name, files):
    # out_dir is a setting like any other; MIXEDFLOW_OUT still wins over it
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    result = run_experiment(name, {"out_dir": "a/b"})
    assert result.out_dir == "a/b" and set(result.files) == {f"a/b/{f}" for f in files}
    assert {p.name for p in (tmp_path / "a" / "b").iterdir()} == files
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "env"))
    assert main(["preset", name, "--set", "out_dir=c"]) == 0
    assert capsys.readouterr().out.endswith(f" {tmp_path / 'env'}/summary.txt\n")
    assert {p.name for p in (tmp_path / "env").iterdir()} == files
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "env"]


@pytest.mark.parametrize("name", [name for name in PRESET_NAMES if _PRESETS[name].checks])
def test_flow_preset_reruns_from_its_header(tmp_path, monkeypatch, name):
    # the key lines a preset echoes into run.csv state its whole run: parsed
    # as a config, they give the same rows and final state.  T is cut to a
    # tenth to keep the test short; the header echoes it like any setting.
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    T = float(_PRESETS[name].settings["T"]) / 10
    preset = tmp_path / "preset"
    run_experiment(name, {"T": repr(T), "out_dir": str(preset)})
    lines = (preset / "run.csv").read_text(encoding="utf-8").splitlines()
    echo = [line[2:] for line in lines if line.startswith("# ")
            and line[2:].partition("=")[0].strip() not in ("preset", "version", "grid")]
    _, (csv_path, snap_path) = run_to_files(
        replace(parse_config_text("\n".join(echo)), out_dir=str(tmp_path / "rerun")))
    rows = [line for line in Path(csv_path).read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    assert rows == [line for line in lines if not line.startswith("#")]
    assert Path(snap_path).read_bytes() == (preset / "final_state.snapshot").read_bytes()


def test_cli_run_failure_writes_records(tmp_path, monkeypatch, capsys):
    # the imex step leaves the cone at t ~ 0.03: exit 1 with the records so far
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(
        tmp_path, "n = 2\nspeed = elementary l=2\nintegrator = imex\nT = 0.2\n"
        "L_max = 12\ninit = random:0.2,8,3\ncadence = 1\n")
    assert main(["run", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "status = failed" in captured.out
    assert "error: graph leaves the admissible cone" in captured.err
    rows = [ln for ln in (tmp_path / "out" / "run.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    state = read_snapshot(str(tmp_path / "out" / "final_state.snapshot"))
    assert len(rows) > 1 and state.t == float(rows[-1].split(",")[0]) < 0.2


def test_cli_preset_failed_run(tmp_path, monkeypatch, capsys):
    # a failed run writes its files, skips the checks and fails the preset
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    argv = ["preset", "stationarity", "--set", "speed=elementary l=2", "--set", "T=0.2",
            "--set", "L_max=12", "--set", "init=random:0.2,8,3"]
    assert main(argv) == 1
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "status = failed" in summary and summary[-1] == "overall = FAIL"
    assert not any(ln.startswith("check ") for ln in summary)
    assert (tmp_path / "run.csv").exists() and (tmp_path / "final_state.snapshot").exists()
    assert "status = failed" in capsys.readouterr().err


def test_cli_run_rejects_initial_field_outside_domain(tmp_path, monkeypatch, capsys):
    # beta = 0.5 needs a positive mean curvature, which this admissible
    # graph does not have everywhere: an input error, reported before any step
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(
        tmp_path,
        "n = 2\nspeed = power_mean m=1 beta=0.5\nT = 0.01\nL_max = 16\ninit = random:0.6,10,3\n")
    assert main(["run", "--config", cfg]) == 2
    assert "initial field" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.csv").exists()


def test_cli_rk4_dt_above_bound_is_input_error(tmp_path, monkeypatch, capsys):
    # the parabolic bound at L_max = 16 is 0.5/272 ~ 1.84e-3: known from the config alone
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(tmp_path, "n = 2\nintegrator = rk4\ndt = 1e-2\nT = 0.1\nL_max = 16\n")
    assert main(["run", "--config", cfg]) == 2
    assert "rk4 dt=1.000e-02 exceeds the parabolic bound 1.838e-03" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.csv").exists()
    # the bound itself is allowed, as is any dt under imex
    assert parse_config_text("integrator = rk4\ndt = 0.0018382352941176471\n").config.dt \
        == 0.5 / 272.0
    assert parse_config_text("integrator = imex\ndt = 1e-2\n").config.dt == 1e-2


@pytest.mark.parametrize("lmax", ["0", "-1", "9"])
def test_cli_spectrum_lmax_out_of_range(tmp_path, monkeypatch, capsys, lmax):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path))
    cfg = _write_config(tmp_path, "n = 2\nL_max = 8\n")
    assert main(["spectrum", "--config", cfg, "--lmax", lmax]) == 2
    assert f"error: l_max={lmax} is outside [1, 8]" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_cli_fit_sphere_rejects_non_finite_snapshot(tmp_path, capsys):
    path = tmp_path / "nan.snapshot"
    path.write_text("n = 2\nR = 1\nL_max = 8\nt = 0\n2 1 nan\n")
    assert main(["fit-sphere", "--snapshot", str(path)]) == 2
    assert "error: line 5: coefficient (2, 1) is not finite" in capsys.readouterr().err



@pytest.mark.parametrize("text,message", _UNREADABLE_SNAPSHOTS)
def test_cli_fit_sphere_unreadable_snapshot_is_input_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.snapshot"
    path.write_text(text)
    assert main(["fit-sphere", "--snapshot", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_unknown_preset_is_refused_before_anything_is_written(tmp_path):
    with pytest.raises(ConfigError) as info:
        run_experiment("nope", {"out_dir": str(tmp_path / "out")})
    assert str(info.value) == (
        "unknown preset 'nope'; choose from stationarity, linear-decay, zero-modes, "
        "conservation, nonlinear-convergence, spectrum")
    assert not (tmp_path / "out").exists()


def test_speed_parameter_without_value_is_refused():
    with pytest.raises(ConfigError) as info:
        parse_config_text("n = 2\nspeed = power_mean m\n")
    assert str(info.value) == "line 2: bad speed parameter 'm'"

@pytest.mark.parametrize("line,fragment", [
    ("T = nan", "T must be finite, got nan"),
    ("T = inf", "T must be finite, got inf"),
    ("dt = nan", "dt must be finite, got nan"),
    ("dt = inf", "dt must be finite, got inf"),
    ("R = nan", "R must be finite, got nan"),
    ("R = nan\nspeed = power_mean m=1 beta=2", "R must be finite, got nan"),
    ("T = 1e308", "T=1e+308 over dt=0.006944444444444444 is not a finite number of steps"),
    ("dt = 5e-324", "T=1.0 over dt=5e-324 is not a finite number of steps"),
])
def test_cli_non_finite_config_is_input_error(tmp_path, monkeypatch, capsys, line, fragment):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(tmp_path, f"n = 2\nL_max = 8\n{line}\n")
    assert main(["run", "--config", cfg]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("init", ["const:nan", "const:-2", "random:0.05,1,1", "harmonic:2,1,nan",
                                  "random:0.05,6,-1", "random:0.05,12,42"])
def test_cli_rejected_initial_field_makes_no_directory(tmp_path, monkeypatch, capsys, init):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(tmp_path, f"n = 2\nL_max = 8\ninit = {init}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_preset_rejected_initial_field_makes_no_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    assert main(["preset", "stationarity", "--set", "init=const:-2"]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("degree", [0, 1])
def test_cli_linear_decay_refuses_a_neutral_degree(tmp_path, monkeypatch, capsys, degree):
    # degrees 0 and 1 have no decay rate to check: refused before the run
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    argv = ["preset", "linear-decay", "--set", f"init=harmonic:{degree},1,1e-4", "--set", "dt=1e-3"]
    assert main(argv) == 2
    assert (f"error: linear-decay needs an init degree of at least 2, got {degree}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("L_max", [0, 3, 65])
def test_cli_L_max_out_of_range_is_input_error(tmp_path, monkeypatch, capsys, L_max):
    # rejected with the config, before the output directory is made
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(tmp_path, f"n = 2\nL_max = {L_max}\n")
    assert main(["run", "--config", cfg]) == 2
    assert f"L_max must lie in [4, 64], got {L_max}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n,init,fragment", [
    (2, "harmonic:2,9,0.1", "line 3: init order 9 is outside [1, 5] for degree 2"),
    (1, "harmonic:1,3,0.1", "line 3: init order 3 is outside [1, 2] for degree 1"),
    (2, "harmonic:-1,1,0.1", "line 3: init degree -1 is negative"),
])
def test_cli_harmonic_init_out_of_range_is_input_error(tmp_path, monkeypatch, capsys,
                                                       n, init, fragment):
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "out"))
    cfg = _write_config(tmp_path, f"n = {n}\nL_max = 8\ninit = {init}\n")
    assert main(["run", "--config", cfg]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
