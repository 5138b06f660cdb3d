"""Configuration validation, the run driver, and sweeps."""

import dataclasses
import math

import numpy as np
import pytest

from strongcouple import channels as ch
from strongcouple.errors import InputError, NumericalError
from strongcouple.experiment import ExperimentConfig, run, sweep
from strongcouple.validation import markov_convergence


@pytest.fixture(scope="module")
def quick_result():
    """Shared run on the default horizon with half the default points."""
    return run(ExperimentConfig(n_samples=1001))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"alpha": 1.5},
        {"beta": 0.0}, {"beta": -2.0},
        {"gamma": 0.0},
        {"t_max": 0.0},
        {"n_samples": 2}, {"n_samples": 10.5},
        {"n_samples": math.nan}, {"n_samples": math.inf},
        {"t_max": math.inf}, {"t_max": math.nan},
        {"gamma": math.inf}, {"gamma": math.nan},
        {"alpha": math.nan}, {"beta": math.nan},
    ])
    def test_rejects_invalid(self, kwargs):
        # the message names the offending field
        with pytest.raises(InputError, match=next(iter(kwargs))):
            ExperimentConfig(**kwargs).validate()

    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        config.validate()
        assert abs(config.params.w0 - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15
        assert config.times.size == 2001
        assert config.times[-1] == 10.0

    def test_zero_temperature_config(self):
        config = ExperimentConfig(beta=math.inf, n_samples=501)
        config.validate()
        assert config.params.w0 == 1.0


class TestRun:
    def test_blocks_present(self, quick_result):
        assert quick_result.thermo_s is not None
        assert quick_result.thermo_e is not None
        assert quick_result.info is not None
        assert quick_result.diagnostics

    def test_invariants(self, quick_result):
        d = quick_result.diagnostics
        assert d["work_system_max_abs"] <= 1e-12
        assert d["work_environment_max_abs"] <= 1e-12
        assert d["energy_balance_max"] <= 1e-10

    def test_two_family_bookkeeping(self, quick_result):
        d = quick_result.diagnostics
        # the closed-form family trades spectrum constancy for exact
        # marginals; its entropy drift must be visibly nonzero
        assert d["entropy_drift_closed_form_family"] > 1e-3
        assert abs(d["joint_entropy_unitary_family"] - 0.8399) < 5e-4

    def test_negativity_series(self, quick_result):
        info = quick_result.info
        d = quick_result.diagnostics
        assert info.negativity[0] <= 1e-12
        assert d["negativity_peak_count"] == 1.0
        assert 0.08 < d["negativity_peak"] < 0.10
        assert info.negativity[-1] <= 1e-3

    def test_initial_points(self, quick_result):
        info = quick_result.info
        assert abs(info.coherence_s[0] - 1.0) < 1e-14
        assert info.coherence_e[0] == 0.0
        assert info.entropy_s[0] == 0.0
        assert abs(info.mutual_information[0]) < 1e-12
        assert info.heat_asymmetry[0] == 0.0

    def test_mutual_information_series(self, quick_result):
        info = quick_result.info
        assert float(np.min(info.mutual_information)) > -1e-12
        # correlations build up transiently and die out once the
        # excitation exchange completes and the pair ends near a product
        assert float(np.max(info.mutual_information)) > 0.2
        assert info.mutual_information[-1] < 1e-3

    def test_entropy_rates_do_not_cancel(self, quick_result):
        # dS_s/dt = -dS_e/dt would make the pair weakly coupled; here the
        # mismatch must be transiently large
        assert quick_result.diagnostics["entropy_rate_mismatch_max"] > 0.1

    def test_unitary_family_stack_not_built(self, monkeypatch):
        # the unitary family's joint entropy has a closed form; only the
        # single-instant negativity diagnostic still builds that family
        def forbidden(*args, **kwargs):
            raise AssertionError("run() must not build the unitary stack")

        monkeypatch.setattr(ch, "joint_states", forbidden)
        result = run(ExperimentConfig(t_max=2.0, n_samples=401))
        assert result.diagnostics["negativity_unitary_family_final"] >= 0.0

    def test_no_eigh(self, monkeypatch):
        # neither marginal is diagonalized, and the negativity series is
        # a closed form: only single states (the spot check at the peak,
        # the unitary family at t_max) see an eigensolve
        def forbidden(*args, **kwargs):
            raise AssertionError("run() must not call numpy.linalg.eigh")

        single_only = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise AssertionError("run() must not call a batched eigvalsh")
            return single_only(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        result = run(ExperimentConfig())
        assert result.diagnostics["closure_system_max"] <= 1e-12

    def test_negativity_convergence_gate(self, monkeypatch):
        monkeypatch.setattr(ch, "_NEGATIVITY_NEWTON_STEPS", 2)
        with pytest.raises(NumericalError,
                           match="negativity Newton convergence.*exceeds "
                                 "1e-12 relative at t = "):
            run(ExperimentConfig(n_samples=101))

    def test_negativity_spot_check(self, monkeypatch):
        # a closed form off by one part in 1e8 must disagree with the
        # eigensolve at the peak
        closed_form = ch.joint_negativities_closed_form
        monkeypatch.setattr(
            ch, "joint_negativities_closed_form",
            lambda params, times: closed_form(params, times) * (1.0 + 1e-8))
        with pytest.raises(NumericalError,
                           match=r"negativity routes disagree by \S+ at the "
                                 r"peak t = 0\.7 .*bound 1e-10"):
            run(ExperimentConfig(n_samples=101))

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.01}, {"beta": 0.05}, {"beta": 0.1}, {"beta": 0.2},
        {"gamma": 50.0}, {"n_samples": 101},
    ])
    def test_formerly_failing_configurations_pass(self, kwargs):
        # these failed the closure gate when the split came from
        # finite differences on the grid
        d = run(ExperimentConfig(t_max=10.0, **kwargs)).diagnostics
        assert max(d["closure_system_max"],
                   d["closure_environment_max"]) <= 1e-12

    def test_deterministic(self):
        config = ExperimentConfig(t_max=2.0, n_samples=401)
        a = run(config)
        b = run(config)
        assert a.diagnostics == b.diagnostics
        assert np.array_equal(a.info.negativity, b.info.negativity)


class TestMarkov:
    def test_convergence_rows(self):
        rows = markov_convergence(ExperimentConfig().params)
        ns = [n for n, _ in rows]
        devs = [dev for _, dev in rows]
        assert ns == [10, 100, 1000]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 1e-3

    def test_single_step_accurate_at_short_time(self):
        rows = markov_convergence(ExperimentConfig().params, t=0.01,
                                  step_counts=(1,))
        assert rows[0][1] <= 1e-4

    def test_doubling_steps_halves_deviation(self):
        rows = markov_convergence(ExperimentConfig().params,
                                  step_counts=(100, 200))
        ratio = rows[0][1] / rows[1][1]
        assert 1.8 <= ratio <= 2.2

    @pytest.mark.parametrize("counts", [(), (0,), (-5,), (2.5,)])
    def test_invalid_step_counts(self, counts):
        with pytest.raises(InputError):
            markov_convergence(ExperimentConfig().params, step_counts=counts)

    @pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_step_count(self, count):
        # an input error, not the ValueError or OverflowError of int()
        with pytest.raises(InputError, match="step counts must be positive "
                                             "integers"):
            markov_convergence(ExperimentConfig().params,
                               step_counts=(10, count))


class TestSweep:
    def test_rows_and_edge_cases(self):
        configs = [ExperimentConfig(alpha=a, n_samples=1001)
                   for a in (0.0, 1.0 / math.sqrt(2.0), 1.0)]
        rows = sweep(configs)
        assert len(rows) == 3
        assert all(r.error == "" for r in rows)
        # no initial coherence means no coherent energy at all
        assert rows[0].coherent_energy_max_abs <= 1e-12
        assert rows[2].coherent_energy_max_abs <= 1e-12
        assert rows[1].coherent_energy_max_abs > 0.1
        # entanglement still forms without initial coherence
        assert rows[0].peak_negativity > 0.1

    def test_failed_run_recorded(self, broken_system_bloch):
        rows = sweep([ExperimentConfig(n_samples=101)])
        assert len(rows) == 1
        assert "closure" in rows[0].error
        assert math.isnan(rows[0].peak_negativity)

    def test_invalid_row_recorded(self):
        # a non-finite field fails its own row only, naming the field
        rows = sweep([ExperimentConfig(n_samples=math.nan),
                      ExperimentConfig(t_max=2.0, n_samples=401)])
        assert "n_samples must be an integer" in rows[0].error
        assert math.isnan(rows[0].n_samples)
        assert math.isnan(rows[0].peak_negativity)
        assert rows[1].error == ""
        assert rows[1].peak_negativity > 0.08

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            sweep([])

    def test_row_fields_complete(self):
        rows = sweep([ExperimentConfig(t_max=2.0, n_samples=401)])
        names = {f.name for f in dataclasses.fields(rows[0])}
        assert {"alpha", "beta", "gamma", "peak_negativity",
                "heat_system_final", "error"} <= names
