"""Property tests over the physical domain of run() and the state builders.

Every configuration with ``alpha`` in [0, 1], ``beta`` in (0, inf], any
decay rate and horizon, and a small grid passes every gate of
:func:`strongcouple.run` with finite series. A gate that names itself
would be an acceptable failure, but across the domain none trips, so any
error fails the test with its message; in particular no physical
configuration is sent back with "refine the time grid", and no series
turns NaN at the extremes of double precision.

The state builders do not diagonalize their output: the closed forms,
the Kraus sums and the partial traces are positive by construction, and
only their consumers run the eigenvalue floor. The second test checks
that every builder's output passes that floor across the same domain.

A configuration whose grid would not rise is refused where it is built,
naming ``t_max``; the third test checks that this happens exactly where
the spacing rule's grid does not rise, with ``gamma`` and ``t_max`` over
the whole positive float range, and that every other configuration runs
silently with finite series.

A sweep evaluates its rows in blocks, with the configuration as a
leading array axis, and each distinct state series of a block once, on
one grid spaced by one rule; the last two tests check that the rule
gives each row's own grid, bit for bit, that each sweep row equals the
row of its configuration alone, and that rows share a series exactly
where its numbers have the same bits.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from strongcouple import channels as ch  # noqa: E402
from strongcouple.errors import InputError, NumericalError  # noqa: E402
from strongcouple.experiment import (BLOCK_POINTS,  # noqa: E402
                                     ExperimentConfig, SweepSummary,
                                     _blocks, _spaced, run, sweep)
from strongcouple.firstlaw import (QUBIT_CLOSURE_TOLERANCE,  # noqa: E402
                                   qubit_thermo_trajectory)
from strongcouple.spectra import density_stack, partial_trace  # noqa: E402

ALPHA_DEFAULT = 1.0 / math.sqrt(2.0)


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0),
       beta=st.floats(min_value=0.0, max_value=math.inf, exclude_min=True),
       gamma=st.floats(min_value=1e-3, max_value=1e3),
       gamma_t_max=st.floats(min_value=1e-3, max_value=1e3),
       n_samples=st.integers(min_value=3, max_value=64))
# configurations that failed the closure gate when the split came from
# finite differences on the grid (t_max = 10)
@example(alpha=ALPHA_DEFAULT, beta=0.01, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=0.05, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=0.1, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=0.2, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=1.0, gamma=50.0, gamma_t_max=500.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=1.0, gamma=1.0, gamma_t_max=10.0,
         n_samples=101)
# no negativity above the ratio floor
@example(alpha=ALPHA_DEFAULT, beta=1e-3, gamma=1.0, gamma_t_max=0.01,
         n_samples=11)
# marginals that start or end (nearly) maximally mixed, with roots of
# q = |r|^2 at or near the ends of the range of g, down to underflow
@example(alpha=0.3, beta=5e-324, gamma=1.0, gamma_t_max=10.0, n_samples=5)
@example(alpha=0.8417368221127677, beta=2.220446049250313e-16, gamma=1.0,
         gamma_t_max=36.0, n_samples=3)
@example(alpha=1e-8, beta=1e-8, gamma=1.0, gamma_t_max=18.0, n_samples=3)
@example(alpha=0.5, beta=1e-5, gamma=1.0, gamma_t_max=19.0, n_samples=3)
@example(alpha=6.771510516134501e-127, beta=6.771510516134501e-127,
         gamma=1.0, gamma_t_max=373.0, n_samples=3)
@example(alpha=2.735651053751712e-156, beta=2.735651053751712e-156,
         gamma=1.0, gamma_t_max=1.0, n_samples=3)
def test_every_configuration_passes_every_gate(alpha, beta, gamma,
                                               gamma_t_max, n_samples):
    config = ExperimentConfig(alpha=alpha, beta=beta, gamma=gamma,
                              t_max=gamma_t_max / gamma, n_samples=n_samples)
    result = run(config)
    d = result.diagnostics
    assert max(d["closure_system_max"], d["closure_environment_max"]) \
        <= QUBIT_CLOSURE_TOLERANCE
    for traj in (result.thermo_s, result.thermo_e):
        assert np.all(np.isfinite(traj.heat))
        assert np.all(np.isfinite(traj.coherent_energy))
    info = result.info
    for series in (info.entropy_s, info.entropy_e, info.coherence_s,
                   info.coherence_e, info.negativity):
        assert np.all(np.isfinite(series))


ALPHA_EXTREMES = [0.0, 1e-300, 1.0 - 1e-17, math.nextafter(1.0, 0.0), 1.0]


@settings(max_examples=100, deadline=None)
@given(alpha=st.one_of(st.floats(min_value=0.0, max_value=1.0),
                       st.sampled_from(ALPHA_EXTREMES)),
       beta=st.floats(min_value=0.0, max_value=math.inf, exclude_min=True),
       gamma=st.floats(min_value=1e-200, max_value=1e200),
       gamma_t_max=st.floats(min_value=0.0, max_value=1e3),
       n_samples=st.integers(min_value=2, max_value=16))
@example(alpha=ALPHA_DEFAULT, beta=1.0, gamma=1.0, gamma_t_max=10.0,
         n_samples=16)
@example(alpha=0.3, beta=5e-324, gamma=1.0, gamma_t_max=10.0, n_samples=5)
@example(alpha=0.8417368221127677, beta=2.220446049250313e-16, gamma=1.0,
         gamma_t_max=36.0, n_samples=3)
@example(alpha=1e-8, beta=1e-8, gamma=1.0, gamma_t_max=18.0, n_samples=3)
@example(alpha=6.771510516134501e-127, beta=6.771510516134501e-127,
         gamma=1.0, gamma_t_max=373.0, n_samples=3)
@example(alpha=2.735651053751712e-156, beta=2.735651053751712e-156,
         gamma=1.0, gamma_t_max=1.0, n_samples=3)
@example(alpha=1e-300, beta=math.inf, gamma=1e-200, gamma_t_max=1e3,
         n_samples=16)
@example(alpha=1.0 - 1e-17, beta=5e-324, gamma=1e200, gamma_t_max=1e-3,
         n_samples=16)
@example(alpha=math.nextafter(1.0, 0.0), beta=50.0, gamma=1e200,
         gamma_t_max=0.0, n_samples=2)
def test_every_builder_output_is_a_density_stack(alpha, beta, gamma,
                                                 gamma_t_max, n_samples):
    params = ch.GadcParams.from_inverse_temperature(alpha, beta, gamma)
    # the grid, and t = inf, the thermal limit
    times = np.append(np.linspace(0.0, gamma_t_max / gamma, n_samples),
                      math.inf)
    p = -math.expm1(-gamma_t_max)
    joints = [ch.joint_initial_state(params), ch.joint_states(params, times),
              ch.joint_states_closed_form(params, times)]
    outputs = [
        ch.system_initial_state(params),
        ch.environment_initial_state(params),
        ch.system_states(params, times),
        ch.environment_states(params, times),
        *joints,
        ch.apply_channel(ch.system_kraus(params, p),
                         ch.system_states(params, times)),
        ch.apply_channel(ch.environment_kraus(params, p),
                         ch.environment_states(params, times)),
        # at most half a decay per step, so that round-off in gamma t
        # cannot push the step probability past one
        ch.iterate_map_check(params, min(gamma_t_max, n_samples / 2) / gamma,
                             n_samples),
        *(partial_trace(joint, keep) for joint in joints for keep in (0, 1)),
    ]
    for states in outputs:
        density_stack(states)


POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@settings(max_examples=200, deadline=None)
@given(gamma=POSITIVE_FLOATS, t_max=POSITIVE_FLOATS,
       n_samples=st.integers(min_value=3, max_value=101))
# grids that do not rise: a step that underflows to zero, and subnormal
# steps that round the last two points together ([0, 5e-324, 1e-323,
# 1e-323] at 4 points)
@example(gamma=1.0, t_max=5e-324, n_samples=3)
@example(gamma=1.0, t_max=5e-324, n_samples=11)
@example(gamma=1.0, t_max=1e-323, n_samples=4)
@example(gamma=1e308, t_max=1e-321, n_samples=1001)
# a subnormal step whose grid rises, on the horizon 5e-324
@example(gamma=2.0 ** -50, t_max=2.0 ** -1024, n_samples=3)
@example(gamma=0.5, t_max=2e-323, n_samples=4)
# the spacing rule's last product rounds past the float max
@example(gamma=1.0, t_max=sys.float_info.max, n_samples=4)
def test_every_configuration_that_builds_runs(gamma, t_max, n_samples):
    # a configuration is refused, naming t_max, exactly where the rule
    # that spaces its grid does not rise; every other one runs with
    # finite series and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rises = bool((np.diff(_spaced(t_max, n_samples)) > 0).all())
        if not rises:
            with pytest.raises(InputError, match=f"^t_max .* {n_samples} "
                                                 "points"):
                ExperimentConfig(gamma=gamma, t_max=t_max,
                                 n_samples=n_samples)
            return
        result = run(ExperimentConfig(gamma=gamma, t_max=t_max,
                                      n_samples=n_samples))
    info = result.info
    for series in (result.times, result.thermo_s.heat,
                   result.thermo_s.coherent_energy, result.thermo_e.heat,
                   result.thermo_e.coherent_energy, info.entropy_s,
                   info.entropy_e, info.coherence_s, info.coherence_e,
                   info.negativity, info.mutual_information,
                   info.heat_asymmetry):
        assert np.all(np.isfinite(series))


ROW_ALPHAS = [0.0, 1.0, 1.0 - 1e-17]
ROW_BETAS = [math.inf, 1e-3]
ROW_GAMMAS = [1e-200, 1e200]
# on one gamma * t_max, rows whose gammas differ by powers of two hold
# one series, as the gammas of the sweep27 grid do; a gamma of 3 beside
# them holds a series of its own
SERIES_GAMMAS = [0.25, 1.0, 2.0, 3.0]
# grid lengths: 4 rows of 1024 points fill the point budget of a sweep
# block exactly, 3 rows of 1366 points overflow it, and 4097 points
# exceed it alone
ROW_LENGTHS = [3, 11, 1024, 1366, 4097]


@st.composite
def sweep_rows(draw):
    """Configurations in runs of one grid length and one gamma * t_max,
    so that blocks fill, split at a change of length and straddle the
    point budget, and rows share a series or do not."""
    configs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n_samples = draw(st.sampled_from(ROW_LENGTHS))
        gamma_t_max = draw(st.floats(min_value=1e-2, max_value=50.0))
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            alpha = draw(st.one_of(st.sampled_from(ROW_ALPHAS),
                                   st.floats(min_value=0.0, max_value=1.0)))
            beta = draw(st.one_of(st.sampled_from(ROW_BETAS),
                                  st.floats(min_value=1e-3, max_value=1e3)))
            gamma = draw(st.one_of(st.sampled_from(SERIES_GAMMAS),
                                   st.sampled_from(ROW_GAMMAS),
                                   st.floats(min_value=1e-3, max_value=1e3)))
            configs.append(ExperimentConfig(
                alpha=alpha, beta=beta, gamma=gamma,
                t_max=gamma_t_max / gamma, n_samples=n_samples))
    return configs


def _series_of(config):
    """What the state series of a sweep row is made of: its
    ``n_samples`` and its ``alpha``, ``w0`` and horizon ``gamma *
    t_max``, by their bits."""
    params = config.params
    return (config.n_samples, params.alpha.hex(), params.w0.hex(),
            (config.gamma * config.t_max).hex())


def _bits(row):
    """The fields of a sweep row, floats by their bits."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(row))


def _single_run_row(config) -> SweepSummary:
    """The sweep row of ``config`` read from its own run, or from the
    error that run raises."""
    inputs = (config.alpha, config.beta, config.gamma, config.t_max,
              config.n_samples)
    try:
        result = run(config)
    except (InputError, NumericalError) as exc:
        return SweepSummary(*inputs, error=str(exc))
    d = result.diagnostics
    return SweepSummary(
        *inputs, peak_negativity=d["negativity_peak"],
        peak_negativity_time=d["negativity_peak_time"],
        peak_heat_asymmetry=d["heat_asymmetry_max"],
        heat_system_final=d["heat_system_final"],
        heat_environment_final=d["heat_environment_final"],
        coherent_energy_max_abs=float(
            abs(result.thermo_s.coherent_energy).max()),
        ratio_mean=d["ratio_mean"],
        ratio_max_relative_spread=d["ratio_max_relative_spread"])


@settings(max_examples=50, deadline=None)
@given(stops=st.lists(st.floats(min_value=1e-300, max_value=1e300),
                      min_size=1, max_size=8),
       n_samples=st.integers(min_value=3, max_value=BLOCK_POINTS))
# a step that underflows to zero: linspace takes another path, the
# rule's points do not rise, and a configuration refuses the stop
@example(stops=[1.0, 5e-324], n_samples=11)
# the least normal step: the rule's points still rise
@example(stops=[10 * sys.float_info.min], n_samples=11)
# an infinite horizon, gamma * t_max beyond the float range: the rule
# keeps 0 first, where linspace reads 0 * inf
@example(stops=[1.0, math.inf], n_samples=11)
def test_block_grid_equals_each_row_grid(stops, n_samples):
    # a block spaces the grids of its rows, times or horizons, in one
    # call on a column of stops; each row must be the rule's grid of its
    # own stop, bit for bit, with both ends exact: the configuration's
    # own times where the stop is a t_max whose grid rises, and
    # linspace's grid wherever the step is nonzero and finite. A stop
    # whose grid does not rise is refused as a t_max, and a normal finite
    # step rises, so only a t_max with a subnormal step can be refused
    grid = _spaced(np.array(stops)[:, None], n_samples)
    assert grid.shape == (len(stops), n_samples)
    for stop, row in zip(stops, grid):
        assert row.tobytes() == _spaced(stop, n_samples).tobytes()
        assert row[0] == 0.0 and row[-1] == stop
        if stop < math.inf and (np.diff(row) > 0).all():
            config = ExperimentConfig(t_max=stop, n_samples=n_samples)
            assert row.tobytes() == config.times.tobytes()
        elif stop < math.inf:
            with pytest.raises(InputError, match="^t_max "):
                ExperimentConfig(t_max=stop, n_samples=n_samples)
        if 0.0 < stop / (n_samples - 1) < math.inf:
            assert row.tobytes() == np.linspace(0.0, stop,
                                                n_samples).tobytes()
        if sys.float_info.min <= stop / (n_samples - 1) < math.inf:
            assert (np.diff(row) > 0).all()


@settings(max_examples=30, deadline=None)
@given(configs=sweep_rows())
# alpha ** 2 of this float differs in the last place from alpha * alpha,
# which is what squaring an array computes: a block must take each row's
# squares in float arithmetic
@example(configs=[ExperimentConfig(alpha=0.42672114373024106, n_samples=11),
                  ExperimentConfig(alpha=0.5, n_samples=11)])
# a block of a row with a nonzero mean ratio and a row whose mean ratio
# is zero (alpha 1 has no heat asymmetry)
@example(configs=[ExperimentConfig(alpha=0.5, n_samples=11),
                  ExperimentConfig(alpha=1.0, n_samples=11)])
# rows that differ only in the sign of a zero alpha hold two series, and
# an exact duplicate repeats the first; the two signs give the same
# numbers, so only the grouping tells bits from values
@example(configs=[ExperimentConfig(alpha=0.0, n_samples=11),
                  ExperimentConfig(alpha=-0.0, n_samples=11),
                  ExperimentConfig(alpha=0.0, n_samples=11)])
# gammas 0.25, 1, 2 and 3 on one gamma * t_max share a series
@example(configs=[ExperimentConfig(alpha=0.5, gamma=g, t_max=5.0 / g,
                                   n_samples=11)
                  for g in (1.0, 3.0, 0.25, 2.0)])
# two rows on the horizon 5e-324 whose own steps are subnormal and whose
# grids rise: they hold one series, and each equals its own run
@example(configs=[ExperimentConfig(gamma=2.0 ** -50, t_max=2.0 ** -1024,
                                   n_samples=3),
                  ExperimentConfig(gamma=2.0 ** -49, t_max=2.0 ** -1025,
                                   n_samples=3)])
# a horizon beyond the float range: s = [0, inf, ..., inf], g = [1, 0,
# ..., 0], the thermal limit from the first step on
@example(configs=[ExperimentConfig(gamma=1e200, t_max=1e200, n_samples=11),
                  ExperimentConfig(gamma=1e300, t_max=1e300, n_samples=11)])
# one block of three series whose g stays above 1/2, reaches it at
# t_max, and passes it: the peak's column keeps the grid's last decay
# values in the first row and reads exactly 1/2 in the other two
@example(configs=[ExperimentConfig(gamma=1.0, t_max=t_max, n_samples=11)
                  for t_max in (0.5, math.log(2.0), 5.0)]).via(
    "an outside, a boundary and an inside series in one block")
def test_sweep_rows_equal_single_runs(configs):
    # a sweep evaluates each distinct series of a block once; each row
    # must be bit for bit the summary of the configuration's own run, and
    # rows share a series exactly where their n_samples, alpha, w0 and
    # horizon gamma * t_max have the same bits
    rows = sweep(configs)
    assert len(rows) == len(configs)
    for config, row in zip(configs, rows):
        assert _bits(row) == _bits(_single_run_row(config))
    for block in _blocks(configs):
        numbers = {}
        assert block.series == [
            numbers.setdefault(_series_of(config), len(numbers))
            for config in block.configs]


@settings(max_examples=50, deadline=None)
@given(alpha=st.sampled_from([0.0, 1.0]),
       beta=st.one_of(st.just(math.inf),
                      st.floats(min_value=1e-3, max_value=1e3)),
       gamma=st.floats(min_value=1e-3, max_value=1e3),
       n_samples=st.integers(min_value=3, max_value=64),
       start=st.floats(min_value=1e-6, max_value=1e2),
       span=st.floats(min_value=1e-3, max_value=1e2))
def test_incoherent_heats_cancel_bit_for_bit(alpha, beta, gamma, n_samples,
                                             start, span):
    # without initial coherence each marginal's heat is (E0 - E1)/2
    # slope step with the system's slope, and the environment's step is
    # the system's negated, so Q_S + Q_E is exactly zero: on a run's
    # grid, in a sweep row, which equals its own run, and on a library
    # grid that does not start at t = 0
    config = ExperimentConfig(alpha=alpha, beta=beta, gamma=gamma,
                              n_samples=n_samples)
    result = run(config)
    assert (result.thermo_s.heat + result.thermo_e.heat == 0.0).all()
    row = sweep([config, ExperimentConfig(alpha=0.5, beta=beta, gamma=gamma,
                                          n_samples=n_samples)])[0]
    assert _bits(row) == _bits(_single_run_row(config))
    assert row.heat_system_final + row.heat_environment_final == 0.0
    times = start + np.linspace(0.0, span, n_samples)
    heat_s, heat_e = (qubit_thermo_trajectory(bloch(config.params, times)).heat
                      for bloch in (ch.system_bloch, ch.environment_bloch))
    assert (heat_s + heat_e == 0.0).all()

