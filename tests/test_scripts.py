"""The study scripts still import: every public name they use exists.  code_lines also
counts a small source, and compare_runs runs on two small trees."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def _load(path):
    # Loaded under a name other than "__main__", so main() does not run.
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    assert callable(_load(path).main)


def test_code_lines_counts_only_lines_with_code(tmp_path, capsys):
    code_lines = _load(SCRIPT_DIR / "code_lines.py")
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
    compare_runs = _load(SCRIPT_DIR / "compare_runs.py")
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
