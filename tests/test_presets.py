"""Preset checks on cells beyond each preset's own settings: other speeds, constraints
and band limits, where a gate must hold for the reason it states."""

import pytest

from mixedflow.flow import stable_decay_rate
from mixedflow.presets import run_experiment
from mixedflow.speeds import SpeedSpec

SPEEDS = ("mean", "elementary l=2", "power_mean m=2 beta=2")


@pytest.mark.parametrize("k", (-1, 0, 1))
@pytest.mark.parametrize("speed", SPEEDS)
def test_nonlinear_tail_rate_matches_the_limit_sphere(tmp_path, monkeypatch, speed, k):
    # The flow keeps V_k, so its tail decays at lambda_2 of the sphere with that V_k.
    # Against the reference sphere's lambda_2 the tail-rate error is O(amp^2); against
    # the limit sphere's it is far below the check's 1e-4.  T is 12 e-folds of lambda_2.
    # At L_max = 8, power_mean at k = 1 drifts V_k by 3.5e-5, which moves the limit
    # sphere past the gate; at L_max = 12 every cell drifts less than 2e-6.
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    T = 12.0 / stable_decay_rate(SpeedSpec.parse(speed, 2, 1.0), 2)
    result = run_experiment("nonlinear-convergence", {
        "speed": speed, "k": str(k), "L_max": "12", "T": repr(T), "out_dir": str(tmp_path)})
    checks = {c.name: c for c in result.checks}
    assert result.passed
    assert checks["tail_rate_error_at_limit"].threshold == 1e-4
    assert checks["tail_rate_relative_error"].value > 10 * checks["tail_rate_error_at_limit"].value


@pytest.mark.parametrize("speed,k", [("power_mean m=2 beta=2", -1), ("power_mean m=2 beta=2", 1),
                                     ("elementary l=2", 1)])
def test_spectrum_preset_passes_at_band_limit_16(tmp_path, monkeypatch, speed, k):
    # A central-difference Jacobian's O(h^2) error alone broke the 1e-7 symmetry gate
    # on these cells (2.2e-7, 2.2e-7, 1.1e-7); the fourth-order stencil leaves roundoff.
    monkeypatch.delenv("MIXEDFLOW_OUT", raising=False)
    result = run_experiment("spectrum", {"speed": speed, "k": str(k), "L_max": "16",
                                         "out_dir": str(tmp_path)})
    checks = {c.name: c for c in result.checks}
    assert result.passed
    assert checks["symmetry_defect_over_lambda_max"].value < 1e-10
