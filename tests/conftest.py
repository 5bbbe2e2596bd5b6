import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedflow.harmonics import build_grid

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_DIR = ROOT / "scripts"


@pytest.fixture(scope="session")
def grid1():
    return build_grid(1, 16, oversample=2.0)


@pytest.fixture(scope="session")
def grid2():
    return build_grid(2, 16, oversample=2.0)


@pytest.fixture(scope="session")
def grid2_small():
    return build_grid(2, 8, oversample=2.0)


@pytest.fixture(scope="session", params=(8, 24, 64))
def grid2_band(request):
    """Sphere grids across the band limits, from small to the largest allowed."""
    return build_grid(2, request.param, oversample=2.0)


@pytest.fixture(scope="session", params=((2, 8), (2, 24), (2, 64), (1, 4), (1, 16), (1, 64)),
                ids=("8", "24", "64", "circle-4", "circle-16", "circle-64"))
def grid_band(request):
    """Sphere grids across the band limits, then circle grids across theirs."""
    return build_grid(*request.param, oversample=2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def band_coeffs(grid, rng, l_lo=0, l_hi=None, scale=1.0):
    """Random coefficient vector supported on degrees l_lo..l_hi."""
    l_hi = grid.L_max if l_hi is None else l_hi
    c = rng.standard_normal(grid.size) * scale
    c[(grid.degrees < l_lo) | (grid.degrees > l_hi)] = 0.0
    return c


def load_script(name):
    """The module of scripts/<name>.py, loaded under a name other than "__main__",
    so its main() does not run."""
    path = SCRIPT_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter that imports the
    package from this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout
