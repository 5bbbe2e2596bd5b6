"""The study scripts still import: every public name they use exists.  code_lines also
counts a small source, compare_runs runs on two small trees, conservation_order
builds its step ladder at any L_max and marks the rungs on the floor, and the two
preset studies write no file that outlives them."""

import tempfile
from types import SimpleNamespace

import pytest

from mixedflow.speeds import SpeedSpec
from conftest import SCRIPT_DIR, load_script

SCRIPTS = sorted(p.stem for p in SCRIPT_DIR.glob("*.py"))


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_imports(name):
    assert callable(load_script(name).main)


def _stub_conservation(name, overrides):
    # The preset run of one rung, with a drift of dt^4.
    assert name == "conservation"
    drift = SimpleNamespace(name="relative_V_drift", value=float(overrides["dt"]) ** 4)
    return SimpleNamespace(checks=[drift])


def test_conservation_order_ladder_starts_at_the_bound(monkeypatch, capsys):
    # rk4's bound 0.5/(L(L+1)) falls below any fixed first rung as L_max grows.
    conservation_order = load_script("conservation_order")
    monkeypatch.setattr(conservation_order, "run_experiment", _stub_conservation)
    for L in (32, 64):
        monkeypatch.setattr("sys.argv", ["conservation_order.py", "0", str(L)])
        assert conservation_order.main() == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split("=")[1] for row in rows] == ["bound/1", "bound/2", "bound/4", "bound/8"]
        assert all(row.endswith("order  4.00") for row in rows[1:])


def test_conservation_order_marks_rungs_on_the_floor(monkeypatch, capsys):
    # Drifts that fall 16x, then under 8x twice: only the last two rungs sit on the floor.
    conservation_order = load_script("conservation_order")
    drifts = iter((1e-8, 6.25e-10, 3.2e-10, 3.1e-10))

    def stub(name, overrides):
        return SimpleNamespace(checks=[SimpleNamespace(name="relative_V_drift",
                                                       value=next(drifts))])

    monkeypatch.setattr(conservation_order, "run_experiment", stub)
    monkeypatch.setattr("sys.argv", ["conservation_order.py", "0", "16"])
    assert conservation_order.main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.endswith("floor") for row in rows] == [False, False, True, True]
    assert rows[1].endswith("order  4.00")


def test_code_lines_counts_only_lines_with_code(tmp_path, capsys):
    code_lines = load_script("code_lines")
    source = ('"""Module docstring,\n\nthree lines."""\n'
              "# a comment\n"
              "\n"
              "def f(x):\n"
              "    '''Function docstring.'''\n"
              "    return (x +  # trailing comment\n"
              "            1)\n"
              "\n"
              "TEXT = '''not a docstring,\n"
              "two lines'''\n")
    assert code_lines.code_lines(source) == 5
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.split() == [
        "5", str(tmp_path / "pkg" / "a.py"), "1", str(tmp_path / "b.py"), "6", "total"]
    assert code_lines.main([]) == 2


def _write_tree(root, V1):
    (root / "preset").mkdir(parents=True)
    (root / "preset" / "run.csv").write_text(f"# preset = demo\nt,V\n0.0,4.0\n0.5,{V1!r}\n")
    (root / "preset" / "final_state.snapshot").write_text(
        "n = 2\nR = 1\nL_max = 1\nt = 0.5\n0 1 0.25\n1 1 0\n1 2 -0.5\n1 3 0\n")
    (root / "summary.txt").write_text("overall = PASS\n")


def test_compare_runs_reports_equal_and_differing_trees(tmp_path, capsys):
    compare_runs = load_script("compare_runs")
    a, b = tmp_path / "a", tmp_path / "b"
    _write_tree(a, 4.0)
    _write_tree(b, 4.0)
    assert compare_runs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "3 files, 0 not byte-identical\n"

    (b / "preset" / "run.csv").write_text("# preset = demo\nt,V\n0.0,4.0\n0.5,4.002\n")
    (b / "preset" / "final_state.snapshot").write_text(
        "n = 2\nR = 1\nL_max = 1\nt = 0.5\n0 1 0.25\n1 1 0\n1 2 -0.5\n1 3 1e-17\n")
    (b / "extra.txt").write_text("")
    assert compare_runs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in B: extra.txt",
        "differs: preset/final_state.snapshot",
        "    n: max abs change 0, max rel change 0",
        "    R: max abs change 0, max rel change 0",
        "    L_max: max abs change 0, max rel change 0",
        "    t: max abs change 0, max rel change 0",
        "    coefficient: max abs change 1e-17, max rel change inf",
        "differs: preset/run.csv",
        "    t: max abs change 0, max rel change 0",
        "    V: max abs change 0.002, max rel change 0.0005",
        "4 files, 3 not byte-identical",
    ]
    assert compare_runs.main([str(a)]) == 2


def test_run_all_presets_keeps_one_directory_per_preset(tmp_path, monkeypatch, capsys):
    # MIXEDFLOW_OUT would override every preset's out_dir; the script clears it.
    run_all_presets = load_script("run_all_presets")
    monkeypatch.setattr(run_all_presets, "PRESET_NAMES", ("stationarity", "spectrum"))
    monkeypatch.setattr("sys.argv", ["run_all_presets.py", str(tmp_path / "out")])
    monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "env"))
    assert run_all_presets.main() == 0
    table = capsys.readouterr().out
    for name, files in (("stationarity", {"run.csv", "final_state.snapshot", "summary.txt"}),
                        ("spectrum", {"spectrum.csv", "summary.txt"})):
        assert {p.name for p in (tmp_path / "out" / name).iterdir()} == files
        assert f"-> {tmp_path / 'out' / name}\n" in table
    assert not (tmp_path / "env").exists()


def test_preset_studies_leave_no_files(tmp_path, monkeypatch, capsys):
    # Both studies clear MIXEDFLOW_OUT and run their presets in a temporary directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    decay_rate_sweep = load_script("decay_rate_sweep")
    mean = SpeedSpec("mean", n=2, R=1.0)
    monkeypatch.setattr(decay_rate_sweep, "cases", lambda: [(2, mean, -1, 2)])
    for script, args in ((decay_rate_sweep, ["sweep.csv"]),
                         (load_script("conservation_order"), ["0", "8"])):
        monkeypatch.setenv("MIXEDFLOW_OUT", str(tmp_path / "env"))
        monkeypatch.setattr("sys.argv", ["study.py", *args])
        assert script.main() == 0
    header, row = (tmp_path / "sweep.csv").read_text().splitlines()
    assert header == "n,speed,k,l,rate_analytic,rel_err" and row.startswith("2,mean,-1,2,")
    assert "dt=bound/8=" in capsys.readouterr().out
    assert {p.name for p in tmp_path.iterdir()} == {"tmp", "sweep.csv"}
    assert not any((tmp_path / "tmp").iterdir())
