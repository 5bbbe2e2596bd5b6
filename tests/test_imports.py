"""No import goes unused in the package, the tests or the scripts, at module
level or inside a function; the package's submodules import each other
without a cycle, and importing one loads none above it; and every entry point
the benchmark's tracer wraps still exists."""

import ast
import graphlib
import importlib.util
from pathlib import Path

import pytest

from conftest import fresh_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mixedflow"
FILES = sorted((*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "scripts").glob("*.py")))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_imports(scope: ast.AST) -> list[ast.stmt]:
    """Import statements binding names in a scope: a module's top-level ones, or
    those anywhere in a function's body outside the functions nested in it."""
    if isinstance(scope, ast.Module):
        return [n for n in scope.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    found, stack = [], list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (*_FUNCTIONS, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source: str) -> list[str]:
    """Names bound by imports, at module level or in a function, that their scope never reads."""
    tree = ast.parse(source)
    unused = []
    for scope in (tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))):
        bound = {}
        for node in _scope_imports(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [(line, name) for name, line in bound.items() if name not in read]
    return [f"line {line}: {name}" for line, name in sorted(unused, key=lambda u: u[0])]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a import b, c\nc()\n") == \
        ["line 1: os", "line 2: system", "line 3: b"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.f()\n") == []


def test_checker_flags_an_unused_import_in_a_function():
    # a function's import counts only if that function reads it
    source = ("def f():\n    if x:\n        from a import b, c\n    return c\n"
              "def g():\n    import os\n    b()\n")
    assert unused_imports(source) == ["line 3: b", "line 6: os"]
    assert unused_imports("def f():\n    from a import b\n    def g():\n        b()\n") == []


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def sibling_imports(source: str, siblings: set[str]) -> set[str]:
    """Submodules in `siblings` that a package submodule imports, at any depth:
    `from .x import ...`, `from . import x` and their absolute forms."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "mixedflow":
                parts = parts[1:]
            elif node.level != 1:
                continue
            names = [parts[0]] if parts and parts[0] else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names
                     if a.name.startswith("mixedflow.")]
        else:
            continue
        found.update(name for name in names if name in siblings)
    return found


def test_checker_finds_sibling_imports():
    source = ("from . import a, __version__\nfrom .b.c import d\nimport mixedflow.e\n"
              "def f():\n    if x:\n        from mixedflow.g import h\n"
              "from .. import i\nimport numpy\n")
    assert sibling_imports(source, {"a", "b", "e", "g", "i"}) == {"a", "b", "e", "g"}


def test_package_imports_are_acyclic():
    # the layering errors -> harmonics/geometry/speeds -> analysis -> flow -> io
    # -> presets -> cli holds only while no submodule imports one above it
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    graph = {name: sibling_imports(path.read_text(encoding="utf-8"), set(modules) - {name})
             for name, path in modules.items()}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"submodules import each other in a cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("module,above", [("flow", {"io", "presets", "cli"}),
                                          ("io", {"presets", "cli"})])
def test_importing_a_submodule_loads_none_above_it(module, above):
    # the package has no facade: importing the engine loads only the engine,
    # and the experiment layers load only what sits below them
    code = (f"import sys\nimport mixedflow.{module}\n"
            "print(*sorted(m for m in sys.modules if m.startswith('mixedflow.')))\n")
    loaded = {name.removeprefix("mixedflow.") for name in fresh_python(code).split()}
    assert module in loaded
    assert loaded.isdisjoint(above), f"mixedflow.{module} loads {sorted(loaded & above)}"


def test_benchmark_entry_points_resolve():
    # perfbench/tracing.py wraps these names where their callers look them up;
    # a rename or deletion in the package would make the benchmark fail to start
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _ in tracing.ENTRY_POINTS:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(vars(owner)[attr]), f"{owner.__name__}.{attr}"
