"""Configuration validation, the run driver, and sweeps."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from conftest import _peak
from strongcouple import channels as ch
from strongcouple import experiment, spectra
from strongcouple.errors import InputError, NumericalError
from strongcouple.experiment import (BLOCK_POINTS, ExperimentConfig,
                                     SweepSummary, _blocks, run, sweep)
from strongcouple.infomeasures import (RATIO_DENOMINATOR_THRESHOLD,
                                       _ratio_rows, bloch_entropies,
                                       negativities, von_neumann_entropies)
from strongcouple.validation import markov_convergence, run_suites


def _bits(row):
    """The fields of a sweep row, floats by their bits."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(row))


def _sweep27() -> list:
    """27 rows at 501 points over alpha x beta x gamma, the shape of the
    benchmark's sweep: one block of 27 rows, which hold 9 series, since
    the gammas differ by powers of two on one gamma * t_max."""
    return [ExperimentConfig(alpha=a, beta=b, gamma=g, t_max=5.0 / g,
                             n_samples=501)
            for a in (0.3, 0.7, 0.95) for b in (0.05, 1.0, math.inf)
            for g in (0.5, 1.0, 4.0)]


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
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "t_max",
                                       "n_samples"])
    def test_rejects_integer_beyond_float_range(self, field):
        # named where the configuration is built, not left to an
        # OverflowError of the run or of a sweep row
        with pytest.raises(InputError, match=f"{field} must be a real "
                                             "number in the float range"):
            ExperimentConfig(**{field: 10 ** 400})

    def test_rejects_gamma_beyond_float_range_on_tiny_horizon(self):
        with pytest.raises(InputError, match="gamma"):
            ExperimentConfig(gamma=10 ** 400, t_max=1e-300, n_samples=5)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "t_max"])
    def test_rejects_text(self, field):
        with pytest.raises(InputError, match=f"{field} must be a real number"):
            ExperimentConfig(**{field: "1"})

    def test_float_fields_converted_once(self):
        for n_samples in (5, 5.0, np.int64(5)):
            config = ExperimentConfig(alpha=1, beta=2, gamma=3, t_max=4,
                                      n_samples=n_samples)
            assert [type(getattr(config, name)) for name in
                    ("alpha", "beta", "gamma", "t_max")] == [float] * 4
            assert type(config.n_samples) is int
            assert config == ExperimentConfig(alpha=1.0, beta=2.0, gamma=3.0,
                                              t_max=4.0, n_samples=5)

    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert abs(config.params.w0 - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15
        assert config.times.size == 2001
        assert config.times[-1] == 10.0

    def test_zero_temperature_config(self):
        config = ExperimentConfig(beta=math.inf, n_samples=501)
        assert config.params.w0 == 1.0

    def test_params_built_once(self):
        # a cached attribute, outside the fields: equality, hashing and
        # asdict see the fields only
        config = ExperimentConfig()
        assert config.params is config.params
        assert config == ExperimentConfig()
        assert hash(config) == hash(ExperimentConfig())
        assert "params" not in dataclasses.asdict(config)


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

    def test_unitary_family_stack_not_built(self, monkeypatch):
        # the unitary family's joint entropy has a closed form; only the
        # single-instant negativity diagnostic still builds that family,
        # one state at t_max
        built = []
        dilated = ch._dilated_matrices

        def recording(params, p):
            built.append(np.shape(p))
            return dilated(params, p)

        monkeypatch.setattr(ch, "_dilated_matrices", recording)
        result = run(ExperimentConfig(t_max=2.0, n_samples=401))
        assert result.diagnostics["negativity_unitary_family_final"] >= 0.0
        assert built == [(1, 1)]

    def test_joint_entropy_without_eigensolve(self, rng):
        # S[diag(w0, w1)] from the Bloch radius |w0 - w1| agrees with the
        # eigensolve to round-off, also where the smaller weight w1 falls
        # under the entropy clip of 1e-12 (beta above about 27.6): both
        # routes give the clipped weight to the larger eigenvalue
        betas = np.concatenate([np.exp(rng.uniform(math.log(1e-3),
                                                   math.log(50.0), 400)),
                                [0.05, 0.3, 1.0, 2.0, 5.0, 10.0, 27.6, 30.65,
                                 37.0, math.inf]])
        for beta in betas:
            pr = ExperimentConfig(beta=float(beta)).params
            closed = float(bloch_entropies(abs(pr.w0 - pr.w1)))
            eigen = float(von_neumann_entropies(np.diag([pr.w0, pr.w1])))
            assert abs(closed - eigen) <= 1e-15, beta
        config = ExperimentConfig(t_max=2.0, n_samples=101)
        pr = config.params
        assert run(config).diagnostics["joint_entropy_unitary_family"] \
            == float(bloch_entropies(abs(pr.w0 - pr.w1)))

    def test_no_eigh(self, monkeypatch):
        # neither marginal is diagonalized, and the negativity series is
        # a closed form: only the two single-instant states of each
        # configuration (the spot check at the peak, the unitary family
        # at t_max) see an eigensolve, stacked into one negativities
        # call that makes two: its entry check and its partial
        # transpose. The builders of those states are positive by
        # construction and do not diagonalize their output.
        def forbidden(*args, **kwargs):
            raise AssertionError("run() must not call numpy.linalg.eigh")

        original = np.linalg.eigvalsh
        calls = []

        def eigvalsh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        result = run(ExperimentConfig())
        assert result.diagnostics["closure_system_max"] <= 1e-12
        assert len(calls) == 2, calls
        assert all(math.prod(shape[:-2]) == 2 for shape in calls), calls

    def test_check_budget(self, monkeypatch):
        # the single-instant states (the closed-form family at the peak,
        # the unitary family at t_max) are built unchecked and pass the
        # Hermiticity check once, at the entry of the one negativities
        # call that takes both
        calls = []
        original = spectra.hermitian_stack

        def counting(matrices):
            calls.append(np.shape(matrices))
            return original(matrices)

        def forbidden(*args, **kwargs):
            raise AssertionError("run() must not call numpy.kron")

        for name, module in list(sys.modules.items()):
            if (name.startswith("strongcouple.")
                    and getattr(module, "hermitian_stack", None) is original):
                monkeypatch.setattr(module, "hermitian_stack", counting)
        monkeypatch.setattr(np, "kron", forbidden)
        run(ExperimentConfig())
        assert calls == [(2, 1, 4, 4)], calls

    def test_marginals_not_validated_as_stacks(self, monkeypatch):
        # the marginals enter a run as closed-form populations; only the
        # two single-instant states of each configuration (at the
        # negativity peak and at t_max) pass through the Hermiticity
        # check or an eigensolve, however fine the grid
        shapes = []
        checked = spectra.hermitian_stack
        solved = np.linalg.eigvalsh

        def check(matrices):
            shapes.append(np.shape(matrices))
            return checked(matrices)

        def eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solved(a, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("strongcouple.")
                    and getattr(module, "hermitian_stack", None) is checked):
                monkeypatch.setattr(module, "hermitian_stack", check)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        for n_samples in (101, 4001):
            shapes.clear()
            run(ExperimentConfig(n_samples=n_samples))
            matrices = sum(math.prod(shape[:-2]) for shape in shapes)
            # the negativities call checks and solves the pair, and
            # solves its transposes
            assert matrices == 2 + 2 + 2, (n_samples, shapes)
            assert all(math.prod(shape[:-2]) <= 2 for shape in shapes)

    def test_silent_at_extreme_gamma(self):
        # the default problem in units where gamma t_max is still 10
        # (gamma = 1e160 and 1e-300): no stage of the run warns
        for gamma in (1e160, 1e-300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run(ExperimentConfig(gamma=gamma, t_max=10.0 / gamma))

    @pytest.mark.parametrize("t_max, n_samples", [
        (1e-300, 2001), (1e-160, 2001), (1e-150, 2001), (1e300, 2001),
        (sys.float_info.max, 4),
    ], ids=["1e-300", "1e-160", "1e-150", "1e+300", "float_max"])
    def test_silent_at_extreme_horizons(self, t_max, n_samples):
        # grid steps near the ends of the float range: no stage of the
        # run warns; at the float max, the spacing rule's last product
        # rounds past it before the exact end replaces it
        config = ExperimentConfig(t_max=t_max, n_samples=n_samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.times[-1] == t_max
            run(config)

    def test_silent_when_decay_overflows(self):
        # gamma t_max = 1e400 is beyond the float range; the exponent of
        # the decay factor is -inf, the thermal limit, and no warning
        # escapes, from a run or from a sweep, whose key multiplies no
        # array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = run(ExperimentConfig(gamma=1e200, t_max=1e200)).diagnostics
            (row,) = sweep([ExperimentConfig(gamma=1e200, t_max=1e200,
                                             n_samples=11)])
        assert d["closure_system_max"] <= 1e-12
        assert row.error == ""

    def test_unphysical_marginal_rejected(self, monkeypatch):
        # the Bloch radius is bounded once, by its consumer: a radius of
        # 1 + 1e-9 gives the pure initial system an eigenvalue of -5e-10
        original = ch.system_bloch

        def swollen(params, times):
            series = original(params, times)
            return series._replace(radius=series.radius * (1.0 + 1e-9))

        monkeypatch.setattr(ch, "system_bloch", swollen)
        with pytest.raises(InputError, match=r"eigenvalue .* below -1e-10"):
            run(ExperimentConfig())

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
                                 r"peak t = 0\.693147 .*bound 1e-10"):
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

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    def test_block_rows_equal_single_runs(self, beta):
        # every array and diagnostic of a block's row, bit for bit
        _assert_block_rows_equal_single_runs(
            [ExperimentConfig(alpha=a, beta=beta, n_samples=201)
             for a in (0.0, 0.5, 1.0)])

    def test_full_block_rows_equal_single_runs(self):
        # every array and diagnostic of each row of one full block, bit
        # for bit: the block reuses buffers in the Newton solve, at every
        # row it holds
        configs = [ExperimentConfig(alpha=a, beta=b, t_max=5.0, n_samples=501)
                   for a in (0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0)
                   for b in (0.05, 1.0, 4.0, math.inf)]
        assert _sizes(configs) == [(16, 16)]
        _assert_block_rows_equal_single_runs(configs)

    def test_gamma_block_rows_equal_single_runs(self):
        # rows that differ only in gamma on one t_max hold series of their
        # own, which share their Bloch coefficients
        configs = [ExperimentConfig(alpha=a, beta=b, gamma=g, n_samples=201)
                   for a in (0.3, 1.0 / math.sqrt(2.0))
                   for b in (0.05, math.inf) for g in (0.5, 1.0, 4.0)]
        assert _sizes(configs) == [(12, 12)]
        _assert_block_rows_equal_single_runs(configs)

    def test_shared_series_rows_equal_single_runs(self):
        # the sweep27 rows: the gammas of each (alpha, beta) share one
        # series, and each row takes its own peak time t*
        configs = _sweep27()
        assert _sizes(configs) == [(27, 9)]
        _assert_block_rows_equal_single_runs(configs)

    def test_gammas_on_one_horizon_share_a_series(self):
        # gammas 0.3 and 3 do not differ from 1 by powers of two, and
        # gamma * t on their own grids misses the bits of the horizon's
        # grid, but the three meet on gamma * t_max = 5: the decay factor
        # reads the dimensionless grid, so each (alpha, beta) is one series
        configs = [ExperimentConfig(alpha=a, beta=b, gamma=g, t_max=5.0 / g,
                                    n_samples=501)
                   for a in (0.3, 0.7, 0.95) for b in (0.05, 1.0, math.inf)
                   for g in (0.3, 1.0, 3.0)]
        assert _sizes(configs) == [(27, 9)]
        _assert_block_rows_equal_single_runs(configs)


def _sizes(configs) -> list:
    """The rows and the distinct series of each block of ``configs``."""
    return [(len(b.configs), len(b.first)) for b in _blocks(configs)]


def _assert_block_rows_equal_single_runs(configs) -> None:
    """Each row of one block of ``configs`` equals a single run of the
    row, bit for bit: the arrays of the row's series, on the grid of the
    series' first row; the series' diagnostics, at its first row; and
    every field of the row's sweep summary, repeated rows included."""
    (block,) = _blocks(configs)
    heads = [block.configs[i] for i in block.first]
    thermo_s, thermo_e, info, columns = experiment._run_block(heads)
    assert all(len(v) == len(block.first) for v in columns.values())
    rows = sweep(configs)
    for i, (config, s) in enumerate(zip(configs, block.series)):
        single = run(config)
        for series, alone in ((info[s], single.info),
                              (thermo_s[s], single.thermo_s),
                              (thermo_e[s], single.thermo_e)):
            ours, theirs = _array_bits(series), _array_bits(alone)
            if block.first[s] != i:
                assert ours.pop("times") != theirs.pop("times")
            assert ours == theirs
        if block.first[s] == i:
            assert {k: v[s].hex() for k, v in columns.items()} \
                == {k: v.hex() for k, v in single.diagnostics.items()}
        assert _bits(rows[i]) == _bits(_summary(single))


def _summary(result) -> SweepSummary:
    """The sweep summary of a single run, read from its diagnostics."""
    c, d = result.config, result.diagnostics
    return SweepSummary(
        c.alpha, c.beta, c.gamma, c.t_max, c.n_samples,
        peak_negativity=d["negativity_peak"],
        peak_negativity_time=d["negativity_peak_time"],
        peak_heat_asymmetry=d["heat_asymmetry_max"],
        heat_system_final=d["heat_system_final"],
        heat_environment_final=d["heat_environment_final"],
        coherent_energy_max_abs=float(
            abs(result.thermo_s.coherent_energy).max()),
        ratio_mean=d["ratio_mean"],
        ratio_max_relative_spread=d["ratio_max_relative_spread"])


def _array_bits(series) -> dict:
    """The arrays of a dataclass of series, by field, as bytes."""
    return {k: (v.shape, v.tobytes()) for k, v in vars(series).items()}


class TestNegativityPeak:
    """The peak rows read the closed-form negativity at t* = min(ln 2 /
    gamma, t_max), where it is largest: at g = 1/2 where the decay
    reaches 1/2 by t_max, else at t_max."""

    @staticmethod
    def eigensolved(config, t) -> float:
        """The negativity of the closed-form family's state at ``t``, by
        an eigensolve of its partial transpose."""
        return float(negativities(
            ch.joint_states_closed_form(config.params, [t]))[0])

    def test_default_configuration(self):
        config = ExperimentConfig()
        d = run(config).diagnostics
        assert d["negativity_peak_time"] == math.log(2.0)
        assert abs(d["negativity_peak"] - self.eigensolved(
            config, math.log(2.0))) <= ch.NEGATIVITY_NEWTON_TOL

    def test_separable_line(self):
        # alpha^2 = w0: the negativity vanishes at every time, and t*
        # still maximises it, so the peak time is t*, not the grid's 0
        w0 = 1.0 / (1.0 + math.exp(-1.0))
        config = ExperimentConfig(alpha=math.sqrt(w0), beta=1.0)
        result = run(config)
        d = result.diagnostics
        assert not result.info.negativity.any()
        assert d["negativity_peak"] == 0.0
        assert d["negativity_peak_time"] == math.log(2.0)
        assert self.eigensolved(config, math.log(2.0)) \
            <= ch.NEGATIVITY_NEWTON_TOL

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_horizon_before_half_decay(self, gamma):
        # gamma t_max = 0.5 < ln 2: the peak is the grid's last point
        config = ExperimentConfig(gamma=gamma, t_max=0.5 / gamma,
                                  n_samples=101)
        result = run(config)
        d = result.diagnostics
        assert d["negativity_peak_time"] == config.t_max
        assert d["negativity_peak"] == result.info.negativity[-1]
        assert abs(d["negativity_peak"] - self.eigensolved(
            config, config.t_max)) <= ch.NEGATIVITY_NEWTON_TOL

    def test_no_grid_value_exceeds_the_peak(self, rng):
        # horizons on both sides of gamma t = ln 2, and on it
        for i in range(60):
            gamma = 10.0 ** rng.uniform(-2.0, 2.0)
            gamma_t_max = (math.log(2.0) if i == 0
                           else 10.0 ** rng.uniform(-2.0, 1.7))
            config = ExperimentConfig(
                alpha=rng.uniform(0.0, 1.0), beta=10.0 ** rng.uniform(-2, 2),
                gamma=gamma, t_max=gamma_t_max / gamma,
                n_samples=int(rng.integers(3, 400)))
            result = run(config)
            peak = result.diagnostics["negativity_peak"]
            assert result.info.negativity.max() - peak \
                <= ch.NEGATIVITY_NEWTON_TOL * peak, config


# the collapse check's (alpha, beta) pairs and gammas on the horizon
# gamma t = 5: gammas that differ from 1 by no power of two too
COLLAPSE_PAIRS = ((0.3, 0.2), (0.7, 1.0), (0.9, math.inf), (0.0, 1.0))
COLLAPSE_GAMMAS = (0.3, 1.0, 3.0, 7.1, 0.013)
COLLAPSE_TOL = 1e-12


class TestGammaCollapse:
    """The dynamics read time only through gamma t, so the negativity's
    peak and its scaled place gamma t* agree across gammas. Checked in
    physical time, on each gamma's own grid and by the eigensolve route,
    so not through the sweep's series keys, under which rows on one
    horizon share one series."""

    @staticmethod
    def peak(pair, gamma) -> float:
        """The eigensolved negativity of ``pair`` at ln 2 / gamma."""
        params = ch.GadcParams.from_inverse_temperature(*pair, gamma)
        return float(negativities(ch.joint_states_closed_form(
            params, math.log(2.0) / gamma)))

    @classmethod
    def spreads(cls, pair) -> tuple:
        """The spreads across gammas of the peak and of gamma t at the
        argmax of the negativity on each gamma's own 501-point grid."""
        places = []
        for gamma in COLLAPSE_GAMMAS:
            params = ch.GadcParams.from_inverse_temperature(*pair, gamma)
            t = np.linspace(0.0, 5.0 / gamma, 501)
            places.append(gamma * t[np.argmax(negativities(
                ch.joint_states_closed_form(params, t)))])
        return (np.ptp([cls.peak(pair, g) for g in COLLAPSE_GAMMAS]),
                np.ptp(places))

    @pytest.mark.parametrize("pair", COLLAPSE_PAIRS)
    def test_peak_collapses_across_gammas(self, pair):
        assert max(self.spreads(pair)) <= COLLAPSE_TOL

    def test_sweep_rows_report_the_eigensolved_peak(self):
        configs = [ExperimentConfig(alpha=a, beta=b, gamma=g, t_max=5.0 / g,
                                    n_samples=501)
                   for a, b in COLLAPSE_PAIRS for g in COLLAPSE_GAMMAS]
        for config, row in zip(configs, sweep(configs)):
            assert abs(row.peak_negativity - self.peak(
                (config.alpha, config.beta), config.gamma)) <= COLLAPSE_TOL

    def test_catches_a_core_that_reads_t_for_gamma_t(self, monkeypatch):
        # the seeded fault: the decay factor of t, not of gamma t
        def physical_time(params, times):
            t = np.asarray(times, dtype=float)
            return ch._Grid(t, *ch._decay(t))

        monkeypatch.setattr(ch, "_grid", physical_time)
        spreads = np.max([self.spreads(pair) for pair in COLLAPSE_PAIRS],
                         axis=0)
        assert (spreads > COLLAPSE_TOL).all()


class TestEntropyDrift:
    """The closed-form family's joint radius grows with u = g (1 - g),
    so the drift of its joint entropy from t = 0 is largest at the
    negativity's peak time t*, where the run reads it."""

    @staticmethod
    def joint_entropies(config, times) -> np.ndarray:
        return bloch_entropies(ch.joint_radii_closed_form(config.params,
                                                          times))

    @pytest.mark.parametrize("kwargs", [
        {}, {"n_samples": 101}, {"alpha": 0.3, "beta": 3.0},
        {"alpha": 0.2, "beta": 0.2, "n_samples": 501}])
    def test_read_at_the_peak(self, kwargs):
        config = ExperimentConfig(**kwargs)
        d = run(config).diagnostics
        start, peak = self.joint_entropies(
            config, np.array([0.0, d["negativity_peak_time"]]))
        drift = d["entropy_drift_closed_form_family"]
        assert drift == start - peak
        grid = self.joint_entropies(config, config.times)
        assert abs(grid - grid[0]).max() <= drift

    def test_horizon_before_half_decay(self):
        # gamma t_max = 0.5 < ln 2: t* is the grid's last point, and the
        # drift is the grid's
        config = ExperimentConfig(gamma=0.05)
        grid = self.joint_entropies(config, config.times)
        drift = run(config).diagnostics["entropy_drift_closed_form_family"]
        assert drift == abs(grid - grid[0]).max()
        assert drift == pytest.approx(0.152735232779, abs=1e-12)

    def test_no_drift_without_initial_coherence(self):
        d = run(ExperimentConfig(alpha=0.0)).diagnostics
        assert d["entropy_drift_closed_form_family"] == 0.0


class TestRatioColumns:
    """The run's ratio columns: the points where the negativity clears the
    threshold, the mean ratio of the heat asymmetry to the negativity
    there, and the largest relative spread of that ratio."""

    @pytest.mark.parametrize("alpha, points", [(0.0, 1192), (1.0, 573)])
    def test_entanglement_without_asymmetry(self, alpha, points):
        # no initial coherence: the asymmetry is zero while the
        # negativity clears the threshold, so the mean ratio is zero
        # over those points, and the spread around it is undefined
        result = run(ExperimentConfig(alpha=alpha))
        d = result.diagnostics
        assert d["ratio_points"] == points == np.count_nonzero(
            result.info.negativity > RATIO_DENOMINATOR_THRESHOLD)
        assert d["ratio_mean"] == 0.0
        assert math.isnan(d["ratio_max_relative_spread"])

    def test_sweep_rows_without_asymmetry(self):
        rows = sweep([ExperimentConfig(alpha=a) for a in (0.0, 0.5, 1.0)])
        assert [row.ratio_mean for row in rows[::2]] == [0.0, 0.0]
        assert all(math.isnan(row.ratio_max_relative_spread)
                   for row in rows[::2])
        assert rows[1].ratio_mean > 0.0

    def test_no_point_clears_the_threshold(self):
        d = run(ExperimentConfig(alpha=0.85, beta=1.0)).diagnostics
        assert d["ratio_points"] == 0.0
        assert math.isnan(d["ratio_mean"])
        assert math.isnan(d["ratio_max_relative_spread"])

    def test_columns_are_the_report(self, rng):
        # bit for bit the statistics of the run's own series, also where
        # no point is kept or the mean is zero
        for alpha in [0.0, 1.0, 0.85, *rng.uniform(0.0, 1.0, 8)]:
            config = ExperimentConfig(
                alpha=alpha, beta=10.0 ** rng.uniform(-1.0, 1.0),
                gamma=10.0 ** rng.uniform(-0.5, 0.5), n_samples=301)
            result = run(config)
            d = result.diagnostics
            columns = (d["ratio_points"], d["ratio_mean"],
                       d["ratio_max_relative_spread"])
            (count,), (mean,), (spread,) = _ratio_rows(
                result.info.heat_asymmetry[None],
                result.info.negativity[None])
            assert [v.hex() for v in columns] == [
                float(v).hex() for v in (count, mean, spread)]


class TestGates:
    """The static-Hamiltonian work gate, the energy-balance gate and the
    negativity's spot check of a block trip on a fault, a NaN included,
    with the phrase that names their gate, in a run and in a sweep
    row."""

    @staticmethod
    def assert_gate(phrase):
        config = ExperimentConfig()
        with pytest.raises(NumericalError, match=phrase) as failure:
            run(config)
        (row,) = sweep([config])
        assert row.error == str(failure.value)
        assert math.isnan(row.peak_negativity)

    def test_energy_balance(self, monkeypatch):
        # the default run's balance is about 1e-16
        monkeypatch.setattr(experiment, "ENERGY_BALANCE_TOL", 1e-20)
        self.assert_gate("energy change")

    def test_static_hamiltonian_work(self, monkeypatch):
        # the work is exactly zero at every point, so no bound trips the
        # gate on working code; a split with 1e-9 of work must
        split = experiment.qubit_thermo_trajectory

        def working(series):
            traj = split(series)
            return dataclasses.replace(traj, work=traj.work + 1e-9)

        monkeypatch.setattr(experiment, "qubit_thermo_trajectory", working)
        self.assert_gate("static Hamiltonian")

    @pytest.mark.parametrize("field, phrase", [
        ("work", "static Hamiltonian"),
        ("internal_energy_change", "energy change")])
    def test_nan_trips_the_split_gates(self, monkeypatch, field, phrase):
        # a NaN compares false to any bound, so a gate written as
        # "value > bound" would let it through
        split = experiment.qubit_thermo_trajectory

        def poisoned(series):
            traj = split(series)
            values = getattr(traj, field).copy()
            values[..., 5] = math.nan
            return dataclasses.replace(traj, **{field: values})

        monkeypatch.setattr(experiment, "qubit_thermo_trajectory", poisoned)
        self.assert_gate(phrase)

    def test_closure_gate_sees_a_slope_error(self, monkeypatch):
        # a system z slope off by one part in 1e8 leaves a closure
        # residual of about 2.3e-9, far below the generic route's bound
        # and far above the qubit route's round-off
        bloch = ch.system_bloch

        def tilted(params, times):
            series = bloch(params, times)
            lead, slope, coh = series.coefficients
            return series._replace(
                coefficients=(lead, slope * (1.0 + 1e-8), coh))

        monkeypatch.setattr(ch, "system_bloch", tilted)
        self.assert_gate(r"first-law closure residual 2\.\d+e-09 ")

    def test_nan_trips_the_spot_check(self, monkeypatch):
        monkeypatch.setattr(
            experiment, "negativities",
            lambda joints: np.full(joints.shape[:-2], math.nan))
        self.assert_gate(r"negativity routes disagree by nan at the peak")


# the closed forms a block calls with its grid: the marginals' on the
# grid's first T columns, the joint ones on the whole grid with the
# negativity peak's column; and the state builders, which it does not
# call
MARGINAL_FORMS = ("system_bloch", "environment_bloch")
JOINT_FORMS = ("joint_negativities_closed_form", "joint_radii_closed_form")
CLOSED_FORMS = MARGINAL_FORMS + JOINT_FORMS
STATE_BUILDERS = ("system_states", "environment_states", "joint_states",
                  "joint_states_closed_form")
SPLIT = "qubit_thermo_trajectory"
DECAY = "_decay"


class TestClosedFormEntries:
    """A run or a sweep block evaluates the decay factor once, on its one
    ``(k, T + 1)`` dimensionless grid whose last column is each series'
    peak, hands the joint closed forms that grid and the Bloch series
    views of its first ``T`` columns, calls no state builder, and splits
    the first law of each marginal in one call for the whole block."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the grid shape of each call, by function; "_decay" records every
        # evaluation of the decay factor, the block's and any of _grid
        shapes = {name: [] for name in (DECAY,) + CLOSED_FORMS + (SPLIT,)}
        built = []
        evaluate = ch._decay

        def decay(s):
            built.append(evaluate(s))
            shapes[DECAY].append(np.shape(s))
            return built[-1]

        def on_the_grid(name):
            original = getattr(ch, name)

            def wrapper(params, times):
                values = built[-1]
                if name in JOINT_FORMS:
                    assert all(a is b for a, b in zip(times[1:], values)), \
                        "a block must hand in its grid"
                else:
                    assert all(np.shares_memory(a, b)
                               and a.shape == b[:, :-1].shape
                               for a, b in zip(times[1:], values)), \
                        "a block must hand in views of its grid"
                shapes[name].append(np.shape(times.times))
                return original(params, times)
            return wrapper

        qubit_thermo_trajectory = experiment.qubit_thermo_trajectory

        def split(series):
            shapes[SPLIT].append(np.shape(series.times))
            return qubit_thermo_trajectory(series)

        def forbidden(*args, **kwargs):
            raise AssertionError("a block must build no state stack")

        monkeypatch.setattr(ch, DECAY, decay)
        for name in CLOSED_FORMS:
            monkeypatch.setattr(ch, name, on_the_grid(name))
        for name in STATE_BUILDERS:
            monkeypatch.setattr(ch, name, forbidden)
        monkeypatch.setattr(experiment, SPLIT, split)
        return shapes

    @staticmethod
    def per_block(grids) -> dict:
        """The calls of a block on each of ``grids``."""
        # one split per marginal; the decay factor and the joint forms
        # take the peak's column too
        twice = [grid for grid in grids for _ in range(2)]
        with_peak = [(k, n + 1) for k, n in grids]
        return {DECAY: with_peak,
                **{name: grids for name in MARGINAL_FORMS},
                **{name: with_peak for name in JOINT_FORMS}, SPLIT: twice}

    def test_run_calls_each_once(self, calls):
        run(ExperimentConfig())
        assert calls == self.per_block([(1, 2001)])

    def test_sweep_calls_each_once_per_block(self, calls):
        # one block of 27 rows holding 9 series; the rows' keys evaluate
        # no grid, and every closed form and split runs once, on the 9
        # series
        configs = _sweep27()
        assert _sizes(configs) == [(27, 9)]
        for shapes in calls.values():
            shapes.clear()
        assert all(row.error == "" for row in sweep(configs))
        assert calls == self.per_block([(9, 501)])

    def test_failing_row_inside_a_block(self, calls,
                                        break_system_bloch_when):
        # the fourth and the last row fail their closure gate; the eight
        # rows hold three series, the fourth row is the first of the
        # second, and the last repeats the third, whose first row passes,
        # so the block raises the fourth row's own message, then runs
        # again row by row
        configs = _sweep27()[:8]
        clean = sweep(configs)
        failing = (configs[3].params, configs[7].params)
        break_system_bloch_when(lambda params: params in failing)
        (block_of_8,) = _blocks(configs)
        assert block_of_8.first == [0, 3, 6]
        with pytest.raises(NumericalError, match="closure") as block:
            experiment._run_block([configs[i] for i in block_of_8.first])
        with pytest.raises(NumericalError) as alone:
            run(configs[3])
        assert str(block.value) == str(alone.value)
        for shapes in calls.values():
            shapes.clear()
        rows = sweep(configs)
        # the block, then each row as a block of one; the block and each
        # failing row stop at the system's split
        assert calls[DECAY] == [(3, 502)] + [(1, 502)] * 8
        assert len(calls[SPLIT]) == 1 + 2 * 6 + 2
        for i, row in enumerate(rows):
            if i in (3, 7):
                with pytest.raises(NumericalError, match="closure") as own:
                    run(configs[i])
                assert row.error == str(own.value)
                assert "Bloch coefficients disagree" in row.error
                assert math.isnan(row.peak_negativity)
            else:
                assert _bits(row) == _bits(clean[i])


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

    @pytest.mark.parametrize("counts", [(), (0,), (-5,), (2.5,), None, 10])
    def test_invalid_step_counts(self, counts):
        with pytest.raises(InputError):
            markov_convergence(ExperimentConfig().params, step_counts=counts)

    def test_infinite_time(self):
        # named as the time, not as a per-step probability to refine
        with pytest.raises(InputError, match="time must be nonnegative "
                                             "and finite, got inf"):
            markov_convergence(ExperimentConfig().params, t=math.inf)

    @pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_step_count(self, count):
        # an input error, not the ValueError or OverflowError of int()
        with pytest.raises(InputError, match="n_steps must be an integer "
                                             ">= 1"):
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

    def test_failing_row_leaves_its_block_intact(self,
                                                 break_system_bloch_when):
        # the three rows share a grid and run as one block; the middle
        # row's closure gate fails it, and the block is run again row by
        # row
        configs = [ExperimentConfig(alpha=a, n_samples=101)
                   for a in (0.2, 0.5, 0.8)]
        clean = sweep(configs)
        break_system_bloch_when(lambda params: params.alpha == 0.5)
        rows = sweep(configs)
        with pytest.raises(NumericalError, match="closure") as failure:
            run(configs[1])
        assert rows[1].error == str(failure.value)
        assert math.isnan(rows[1].peak_negativity)
        for i in (0, 2):
            assert _bits(rows[i]) == _bits(clean[i])

    def test_row_whose_own_grid_cannot_rise_refused(self):
        # on the horizon gamma * t_max = 5e-324, a row with a subnormal
        # step whose grid rises runs as its run does; a row whose own
        # grid would be [0, 0, 5e-324] is refused where it is built, so
        # no sweep holds it
        config = ExperimentConfig(gamma=2.0 ** -50, t_max=2.0 ** -1024,
                                  n_samples=3)
        (row,) = sweep([config])
        assert row.error == ""
        assert _bits(row) == _bits(_summary(run(config)))
        with pytest.raises(InputError, match="t_max must be positive and "
                                             "finite with a rising grid "
                                             "of 3 points, got 5e-324"):
            ExperimentConfig(t_max=5e-324, n_samples=3)

    def test_grids_built_once(self, monkeypatch):
        # a sweep builds no grid for its keys; its block spaces the first
        # rows' times and their dimensionless grid once each, in one call
        # on a column, and a run does the same for its one row. No grid
        # comes from linspace
        spaced, shapes = experiment._spaced, []

        def counting(stop, n):
            shapes.append(np.shape(stop))
            return spaced(stop, n)

        def forbidden(*args, **kwargs):
            raise AssertionError("grids come from one spacing rule")

        monkeypatch.setattr(experiment, "_spaced", counting)
        monkeypatch.setattr(np, "linspace", forbidden)
        configs = _sweep27()
        (block,) = _blocks(configs)
        assert shapes == []
        sweep(configs)
        assert shapes == [(9, 1)] * 2
        shapes.clear()
        run(ExperimentConfig())
        assert shapes == [(1, 1)] * 2

    def test_blocks_cut_at_grid_length_and_budget(self):
        # distinct series count against the budget: 16 of 501 points fit
        lengths = [501] * 17 + [101] * 2 + [BLOCK_POINTS + 1] + [501]
        configs = [ExperimentConfig(alpha=i / 32, n_samples=n)
                   for i, n in enumerate(lengths)]
        blocks = list(_blocks(configs))
        assert [(len(b.configs), len(b.first)) for b in blocks] == [
            (16, 16), (1, 1), (2, 2), (1, 1), (1, 1)]
        assert all(len({c.n_samples for c in b.configs}) == 1
                   for b in blocks)
        assert [c for b in blocks for c in b.configs] == configs

    def test_rows_that_repeat_a_series_cost_no_budget(self):
        # each of 17 series at 501 points is held by two rows, its gamma
        # doubled on half the horizon; a repeat joins its series' block,
        # also behind a grid longer than the budget
        configs = [ExperimentConfig(alpha=i / 32, gamma=g, t_max=5.0 / g,
                                    n_samples=501)
                   for i in range(17) for g in (1.0, 2.0)]
        long = ExperimentConfig(n_samples=BLOCK_POINTS + 1)
        blocks = list(_blocks(configs + [long, long]))
        assert [(len(b.configs), len(b.first)) for b in blocks] == [
            (32, 16), (2, 1), (2, 1)]
        assert blocks[0].series == [i // 2 for i in range(32)]
        assert blocks[0].first == list(range(0, 32, 2))
        assert [c for b in blocks for c in b.configs] == configs + [long] * 2

    def test_memory_of_a_sweep_is_that_of_one_block(self):
        # rows run in blocks whose series hold at most BLOCK_POINTS
        # points, so a sweep of 27 rows at 501 points peaks near one run
        # of that many points, not near one evaluation of all 13527
        configs = _sweep27()
        single = ExperimentConfig(t_max=5.0, n_samples=BLOCK_POINTS)
        assert _peak(lambda: sweep(configs)) <= 1.5 * _peak(
            lambda: run(single))

    def test_memory_of_a_run(self):
        # a block holds one grid with the peak's column, and each
        # marginal's Bloch series only for its stage, so it peaks in the
        # negativity's Newton solve, which frees its dead buffers: 0.94 MB
        # on this grid
        assert _peak(lambda: run(ExperimentConfig(n_samples=4001))) <= 0.97e6

    def test_memory_of_the_sweep27_rows(self):
        # one block of 27 rows that hold 9 series at 501 points: 1.10 MB
        configs = _sweep27()
        assert _peak(lambda: sweep(configs)) <= 2.0e6

    def test_memory_of_rows_that_repeat_a_series(self):
        # 2000 rows that repeat one 501-point series make one block, which
        # evaluates the series once and takes the rows' keys without a
        # grid: its memory does not grow with its rows but for their
        # summary rows, 0.60 MB
        configs = [ExperimentConfig(gamma=g, t_max=5.0 / g, n_samples=501)
                   for _ in range(1000) for g in (0.5, 2.0)]
        assert _sizes(configs) == [(2000, 1)]
        single = ExperimentConfig(t_max=5.0, n_samples=BLOCK_POINTS)
        assert _peak(lambda: sweep(configs)) <= 1.5 * _peak(
            lambda: run(single))

    def test_invalid_row_recorded(self):
        # a non-finite field is rejected where the configuration is
        # built, so no sweep row can carry it
        with pytest.raises(InputError, match="n_samples must be an integer"):
            ExperimentConfig(n_samples=math.nan)

    def test_integer_fields_sweep_as_floats(self):
        as_ints = sweep([ExperimentConfig(alpha=1, beta=1, gamma=2, t_max=3,
                                          n_samples=101)])
        as_floats = sweep([ExperimentConfig(alpha=1.0, beta=1.0, gamma=2.0,
                                            t_max=3.0, n_samples=101)])
        assert as_ints[0].error == ""
        assert _bits(as_ints[0]) == _bits(as_floats[0])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            sweep([])

    def test_row_fields_complete(self):
        rows = sweep([ExperimentConfig(t_max=2.0, n_samples=401)])
        names = {f.name for f in dataclasses.fields(rows[0])}
        assert {"alpha", "beta", "gamma", "peak_negativity",
                "heat_system_final", "error"} <= names


def test_silent_by_default(capsys, caplog, break_system_bloch_when):
    """At the logging defaults, a run, the validate suites and a sweep
    with a failing row write nothing to stdout or stderr and emit no log
    record."""
    run(ExperimentConfig(n_samples=101))
    assert all(ok for _, ok, _ in run_suites())
    break_system_bloch_when(lambda params: params.alpha == 0.5)
    rows = sweep([ExperimentConfig(alpha=a, n_samples=101)
                  for a in (0.2, 0.5, 0.8)])
    assert "closure" in rows[1].error
    assert capsys.readouterr() == ("", "")
    assert caplog.records == []
