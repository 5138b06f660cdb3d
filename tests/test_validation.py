"""The validation module: its suite lists, and the checks run() skips."""

import math
import sys
import types

import numpy as np
import pytest

from conftest import _peak
from strongcouple import spectra, validation
from strongcouple.experiment import (ENERGY_BALANCE_TOL, WORK_STATIC_TOL,
                                     ExperimentConfig, run)
from strongcouple.firstlaw import QUBIT_CLOSURE_TOLERANCE
from strongcouple.validation import run_suites

SUITES = [
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
    "ratio_points", "ratio_mean", "ratio_max_relative_spread",
}


def test_suite_lists_in_order_and_passing():
    rows = list(run_suites())
    assert [name for name, _, _ in rows] == SUITES
    failed = [(name, detail) for name, ok, detail in rows if not ok]
    assert failed == []


def test_run_calls_no_self_check(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("run() must not call the self-checks")

    monkeypatch.setattr(validation, "route_consistency", forbidden)
    monkeypatch.setattr(validation, "markov_convergence", forbidden)
    result = run(ExperimentConfig(t_max=2.0, n_samples=401))
    assert set(result.diagnostics) == RUN_DIAGNOSTICS


def test_eigensolve_budget(monkeypatch):
    # each randomised suite evaluates its draws as one stack per route,
    # so a validation makes a fixed, small number of eigensolve
    # and Hermiticity-check calls however many draws it takes. The
    # marginals suite checks the default grid's negativity in blocks of
    # 256 states, which adds calls but no matrices: the matrix totals
    # are those of one whole stack. Each stack a suite eigensolves is
    # built unchecked and Hermiticity-checked once, by its consumer
    calls = {"eigvalsh": 0, "eigh": 0, "hermitian_stack": 0}
    matrices = dict.fromkeys(calls, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            matrices[name] += math.prod(np.shape(args[0])[:-2])
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    original = spectra.hermitian_stack
    checked = counting("hermitian_stack", original)
    for name, module in list(sys.modules.items()):
        if (name.startswith("strongcouple.")
                and getattr(module, "hermitian_stack", None) is original):
            monkeypatch.setattr(module, "hermitian_stack", checked)
    # the shared default run is counted too
    validation._default_run.cache_clear()
    try:
        rows = list(run_suites())
    finally:
        validation._default_run.cache_clear()
    assert all(ok for _, ok, _ in rows)
    assert calls == {"eigvalsh": 28, "eigh": 3, "hermitian_stack": 36}, calls
    assert matrices == {"eigvalsh": 4280, "eigh": 3103,
                        "hermitian_stack": 5631}, matrices


@pytest.mark.parametrize("key, bound", [
    ("closure_system_max", QUBIT_CLOSURE_TOLERANCE),
    ("closure_environment_max", QUBIT_CLOSURE_TOLERANCE),
    ("work_system_max_abs", WORK_STATIC_TOL),
    ("work_environment_max_abs", WORK_STATIC_TOL),
    ("energy_balance_max", ENERGY_BALANCE_TOL),
])
def test_first_law_suite_holds_the_run_gates(monkeypatch, key, bound):
    # each ledger is held to the bound of the run's own gate, so a value
    # just above it fails the suite
    diagnostics = dict(validation._default_run().diagnostics)
    for value, ok in ((bound, True), (2.0 * bound, False)):
        fake = types.SimpleNamespace(diagnostics={**diagnostics, key: value})
        monkeypatch.setattr(validation, "_default_run", lambda: fake)
        assert validation._suite_first_law()[0] is ok


def test_closure_gate_control_fails_when_the_gate_does_not_fire(
        monkeypatch):
    # the negative control passes only because the coarse grid trips the
    # generic route's closure gate; a route that accepts it fails the suite
    monkeypatch.setattr(validation, "thermo_trajectory",
                        lambda *args, **kwargs: None)
    assert validation._suite_closure_gate() == (
        False, "coarse grid with tight tolerance was not rejected")


@pytest.mark.parametrize("size", [2001 % 256, 25],
                         ids=["last_block", "random_triples"])
def test_marginals_suite_fails_on_any_negativity_gap(monkeypatch, size):
    # a NaN or too large gap to the eigensolve fails the suite wherever
    # it falls: in the short last of the default grid's blocks of 256
    # states, or at the 25 random triples checked after them
    original = validation.negativities
    for bad in (np.nan, 1e-13):
        def shifted(joints, bad=bad):
            out = original(joints)
            return out + bad if len(out) == size else out

        monkeypatch.setattr(validation, "negativities", shifted)
        ok, detail = validation._suite_marginals()
        assert not ok
        assert detail.endswith(f"to the eigensolve {bad + 3.47e-16:.2e}")


def test_memory_of_the_marginals_suite():
    # the suite checks the default run's negativity in blocks of 256
    # states, so its peak is that of one block's joint stack and its
    # checks, not of the whole 2001-point grid's: 0.22 MB, where one
    # stack of the grid peaked at 1.55 MB
    validation._default_run()
    assert _peak(validation._suite_marginals) <= 0.4e6


def test_memory_of_the_closure_refinement_suite():
    # each grid is evaluated in a call that returns only its residual
    # and heat gap, and thermo_trajectory drops its eigensolve once the
    # branches are formed: 0.69 MB, where the 1001-point trajectories
    # held while the 2001-point route ran peaked at 0.85 MB
    validation._default_run()
    assert _peak(validation._suite_closure_refinement) <= 0.75e6
