"""The validation module: its suite lists, and the checks run() skips."""

import pytest

from strongcouple import validation
from strongcouple.experiment import ExperimentConfig, run
from strongcouple.validation import run_suites

PLAIN_SUITES = [
    "kraus completeness",
    "channel preserves states",
    "route consistency",
    "closed-form marginals",
    "dilation unitarity and spectrum",
    "first-law closure",
    "closure refinement rate",
    "mutation control",
    "closure gate control",
    "reference values",
]
STRICT_SUITES = PLAIN_SUITES + [
    "negativity shape",
    "asymmetry-negativity proportionality",
    "markov limit",
]
RUN_DIAGNOSTICS = {
    "closure_system_max", "closure_environment_max",
    "work_system_max_abs", "work_environment_max_abs",
    "energy_balance_max", "heat_system_final", "heat_environment_final",
    "heat_asymmetry_max", "joint_entropy_unitary_family",
    "entropy_drift_closed_form_family",
    "negativity_peak", "negativity_peak_time", "negativity_final",
    "negativity_peak_count", "negativity_unitary_family_final",
    "entropy_rate_system_max", "entropy_rate_mismatch_max",
    "ratio_points", "ratio_mean", "ratio_max_relative_spread",
}


@pytest.mark.parametrize("strict, names", [(False, PLAIN_SUITES),
                                           (True, STRICT_SUITES)])
def test_suite_lists_in_order_and_passing(strict, names):
    rows = list(run_suites(strict=strict))
    assert [name for name, _, _ in rows] == names
    failed = [(name, detail) for name, ok, detail in rows if not ok]
    assert failed == []


def test_run_calls_no_self_check(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("run() must not call the self-checks")

    monkeypatch.setattr(validation, "route_consistency", forbidden)
    monkeypatch.setattr(validation, "markov_convergence", forbidden)
    result = run(ExperimentConfig(t_max=2.0, n_samples=401))
    assert set(result.diagnostics) == RUN_DIAGNOSTICS
