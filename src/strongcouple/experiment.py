"""End-to-end experiment driver: configuration, single runs, and sweeps.

A run evolves one system-environment pair from a product initial state,
integrates the first-law split for both subsystems, evaluates the
information measures on the same grid, and collects a dictionary of
scalar diagnostics that double as regression probes. Both marginals come
from one Bloch series each (:class:`strongcouple.channels.BlochSeries`),
which feeds their exact first-law split
(:func:`strongcouple.firstlaw.qubit_thermo_trajectory`), their entropies
and their coherences. A run does no eigensolve per time point: the
negativity series is the closed-form root of the partial transpose's
quartic (:func:`strongcouple.channels.joint_negativities_closed_form`),
spot-checked against an eigensolve of the single state at its peak.
Every diagnostic is derived from the run's own series; the self-checks
that do not depend on the grid, such as route consistency and the Markov
limit, live in :mod:`strongcouple.validation` and run in ``validate``.
Two joint-state families enter the bookkeeping (see
:mod:`strongcouple.channels`): the negativity series comes from the
closed-form family whose marginals are exact, while the joint entropy
comes from the unitary family. With a pure initial system and a unitary
dilation, that family keeps the joint spectrum ``{w0, w1, 0, 0}``, so a
run takes ``S_se = S[rho_e(0)]`` in closed form, as the entropy of a qubit
with Bloch radius ``|w0 - w1|``. Mutual information combines the two
accordingly, ``S_s + S_e - S_se``, with the marginal entropies from the
closed forms. The diagnostics record ``S_se`` and the entropy drift of the
closed-form family, whose rank-two spectrum is also closed-form
(:func:`strongcouple.channels.joint_radii_closed_form`); ``validate`` and
the tests check that ``S_se`` is constant.

Runs are evaluated in blocks of consecutive configurations with one
grid length, and a block evaluates each distinct state series among its
rows once. The decay probability is ``1 - exp(-gamma t)``, so a series
is fixed by ``alpha``, ``w0`` and the grid ``gamma t``: rows whose
three have the same bits hold one series, as the rows of a sweep on
one ``gamma_t_max`` do where the gammas differ by powers of two. A
series is evaluated on the grid of its first row: the
parameters are ``(k, 1)`` columns and the times a ``(k, T)`` array from
one ``linspace`` call. The block evaluates the decay factor once, as
the grid of :mod:`strongcouple.channels`, and hands that grid to the
public closed forms: the two Bloch series, the joint negativities and
the joint radii. Each marginal's first-law split runs once for the
block. The spot-check states of all series are built unchecked from the
grid's decay values and go to one
:func:`~strongcouple.infomeasures.negativities` call, their one check
and eigensolve. The block returns its two splits and its
:class:`~strongcouple.infomeasures.InfoSeries` as ``(k, T)`` arrays and
reduces every diagnostic, the ratio statistics included, into columns
of Python floats, one entry for each series. :func:`run` is a block of
one, which needs no key, and reads entry 0; :func:`sweep` cuts its
configurations into blocks whose series hold at most
:data:`BLOCK_POINTS` grid points and reads each summary row, only the
numbers a :class:`SweepSummary` holds, from its series' entries and the
system's split, without a per-row result. A row that repeats a series
reads one number from its own grid, checked there: the negativity's
peak time. Both give the same numbers bit for bit. A block holds
no series it no longer needs: each Bloch series is dropped once its
entropies are taken, but for ``x2``, whose square root, taken in place,
is the coherence; the two entropy-rate series are reduced to their
per-series maxima at once; and the negativity's Newton solve, where the
block peaks, frees its inputs as it goes (see
:func:`~strongcouple.channels.joint_negativities_closed_form`). Nor does
it expand a series to its rows: the keys and the grids of the rows are
taken in runs of at most :data:`BLOCK_POINTS` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import channels as ch
from .errors import InputError, NumericalError, _as_count, _as_float
# thermo_trajectory, the generic route, is not called here; it stays bound
# because benchmarks/tests/test_bench_tracer.py checks that the layer
# tracer wraps it in this module
from .firstlaw import (ThermoTrajectory, _check_grid,  # noqa: F401
                       qubit_thermo_trajectory, thermo_trajectory)
from .infomeasures import (InfoSeries, _ratio_rows, bloch_entropies,
                           heat_asymmetry, negativities)

WORK_STATIC_TOL = 1e-12
ENERGY_BALANCE_TOL = 1e-10
NEGATIVITY_SPOT_TOL = 1e-10
_NEGATIVITY_PEAK_FLOOR = 1e-6
# Grid points of the distinct series a sweep evaluates at once, 16 series
# at 501 points; rows that repeat a series add none, so the 27 sweep27
# rows, which hold 9 series, make one block. A block frees its dead
# series around the negativity solve, so a sweep peaks near one run of
# this length, about 1.9 MB traced
BLOCK_POINTS = 8192


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical and numerical parameters of one run.

    ``alpha`` is the initial ground amplitude, ``beta`` the environment
    inverse temperature in gap units (``inf`` for zero temperature),
    ``gamma`` the decay rate, and the grid is ``n_samples`` points on
    ``[0, t_max]``. The fields are checked once, at construction, where
    ``alpha`` and ``beta`` are checked by the :class:`GadcParams` built
    there, and a bad one raises :class:`InputError` naming it. The four
    float fields are stored as floats and ``n_samples`` as an int, so
    that an integer beyond the float range is a bad field rather than
    an ``OverflowError`` of a later stage.
    """

    alpha: float = 1.0 / math.sqrt(2.0)
    beta: float = 1.0
    gamma: float = 1.0
    t_max: float = 10.0
    n_samples: int = 2001

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "t_max"):
            object.__setattr__(self, name,
                               _as_float(getattr(self, name), name))
        if not 0.0 < self.gamma < math.inf:
            raise InputError(
                f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.t_max < math.inf:
            raise InputError(
                f"t_max must be positive and finite, got {self.t_max}")
        object.__setattr__(self, "n_samples",
                           _as_count(self.n_samples, "n_samples", 3))
        self.params  # built once, here, where it checks alpha and beta

    @cached_property
    def params(self) -> ch.GadcParams:
        """The :class:`GadcParams` of the configuration, built once."""
        return ch.GadcParams.from_inverse_temperature(
            alpha=self.alpha, beta=self.beta, gamma_rate=self.gamma)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_samples)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produces; all arrays share the grid ``times``."""

    config: ExperimentConfig
    params: ch.GadcParams
    times: np.ndarray
    thermo_s: ThermoTrajectory
    thermo_e: ThermoTrajectory
    info: InfoSeries
    diagnostics: dict


def _count_peaks(values: np.ndarray, floor: float) -> np.ndarray:
    """Interior local maxima above ``floor`` of each row of ``values``."""
    inner = values[..., 1:-1]
    return np.count_nonzero((inner > values[..., :-2])
                            & (inner > values[..., 2:]) & (inner > floor),
                            axis=-1)


def _rates(values: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``numpy.gradient`` of each row of ``values`` for its own grid step.

    The step goes in, as a column: the formula for a grid multiplies two
    steps, which underflows or overflows at extreme horizons. The
    arithmetic is ``numpy.gradient``'s for a scalar spacing.
    """
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * step)
    out[:, :1] = (values[:, 1:2] - values[:, :1]) / step
    out[:, -1:] = (values[:, -1:] - values[:, -2:-1]) / step
    return out


def _block_times(configs) -> np.ndarray:
    """The ``(R, T)`` grids of configurations that share ``n_samples``.

    One ``linspace`` call for the block; each row equals its
    configuration's :attr:`ExperimentConfig.times` bit for bit.
    ``linspace`` takes one path for all rows, and another where a step
    underflows to zero; a block with such a step takes each row's grid
    alone, so that its other rows keep their own grids. The row whose
    step underflows is not increasing, and fails its block.
    """
    t_max = np.array([config.t_max for config in configs])
    times, step = np.linspace(0.0, t_max, configs[0].n_samples, axis=-1,
                              retstep=True)
    if not step.all():
        return np.array([config.times for config in configs])
    # linspace puts the new axis first and moves it; the copy keeps the
    # rows contiguous, as a single grid is
    return np.ascontiguousarray(times)


class _Block(NamedTuple):
    """Consecutive configurations with one grid length, and the distinct
    state series among them.

    ``series[i]`` is the series of row ``i``, numbered in the order of
    their first rows, and ``first[s]`` the first row that holds series
    ``s``, on whose grid the series is evaluated.
    """

    configs: list
    first: list
    series: list


def _chunks(items, n_samples: int) -> list:
    """``items``, rows of ``n_samples`` points, cut into runs of at most
    :data:`BLOCK_POINTS` points and of at least one row."""
    size = max(1, BLOCK_POINTS // n_samples)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _series_keys(configs) -> list:
    """The key of each configuration's state series, for configurations
    that share ``n_samples``: the bytes of its ``alpha`` and ``w0`` and
    of ``gamma * t`` on its grid.

    The decay factor reads only ``-gamma_rate * t``, and every other
    parameter a closed form reads is a float function of ``alpha`` and
    ``w0``, so rows with one key get the same series bit for bit; no
    decay value is evaluated for a key. The key holds bits, not values,
    so that ``0.0`` and ``-0.0``, which compare equal, stay apart.
    """
    params = np.array([[config.params.alpha, config.params.w0,
                        config.params.gamma_rate] for config in configs])
    table = np.concatenate(
        [params[:, :2], params[:, 2:] * _block_times(configs)], axis=1)
    return [row.tobytes() for row in table]


def _run_block(block: _Block) -> tuple:
    """Run a block, evaluating each of its distinct state series once.

    The parameters of the series are ``(k, 1)`` columns and their grids,
    those of their first rows, a ``(k, T)`` array, whose decay factor is
    evaluated once and handed, as one grid, to each public closed form;
    each marginal's first-law split runs once for the block. Returns
    ``(thermo_s, thermo_e, info, columns)``: the two splits and the
    :class:`InfoSeries` hold ``(k, T)`` arrays, one row for each series,
    and ``columns`` the diagnostics by name, as lists of one Python
    float for each series. A row that repeats a series reads only its
    negativity's peak time from its own grid, in :func:`_sweep_rows`.
    Every gate reduces over the whole block, so the block raises where
    any of its rows would; its message is that of a single run only for
    a block of one.
    """
    configs, first, _ = block
    cols = ch._columns([configs[i].params for i in first])
    grid = ch._grid(cols, _block_times([configs[i] for i in first]))
    times = grid.times
    k = len(first)
    bloch_s = ch.system_bloch(cols, grid)
    bloch_e = ch.environment_bloch(cols, grid)
    thermo_s = qubit_thermo_trajectory(bloch_s)
    thermo_e = qubit_thermo_trajectory(bloch_e)

    # the system's rows, then the environment's
    work = abs(np.concatenate([thermo_s.work, thermo_e.work])).max(axis=1)
    work_max = float(work.max())
    if work_max > WORK_STATIC_TOL:
        raise NumericalError(
            f"work {work_max:.3e} on a static Hamiltonian exceeds "
            f"{WORK_STATIC_TOL:.0e}")
    balance = abs(thermo_s.internal_energy_change
                  + thermo_e.internal_energy_change).max(axis=1)
    if balance.max() > ENERGY_BALANCE_TOL:
        raise NumericalError(
            f"system plus environment energy change {balance.max():.3e} "
            f"exceeds {ENERGY_BALANCE_TOL:.0e}; total energy must be "
            "conserved")

    asym = heat_asymmetry(thermo_s.heat, thermo_e.heat)

    # of each Bloch series only x2, the coherence squared, outlives its
    # entropies, and of the entropy rates only their per-series maxima: the
    # block frees the rest before the negativity solve, where it peaks
    ent_s = bloch_entropies(bloch_s.radius)
    x2_s = bloch_s.x2
    del bloch_s
    ent_e = bloch_entropies(bloch_e.radius)
    x2_e = bloch_e.x2
    del bloch_e
    step = times[:, 1:2] - times[:, :1]
    rate_s = _rates(ent_s, step)
    rate_max = abs(rate_s).max(axis=1)
    rate_mismatch = abs(rate_s + _rates(ent_e, step)).max(axis=1)
    del rate_s
    neg = ch.joint_negativities_closed_form(cols, grid)
    ent_joint = bloch_entropies(abs(cols.w0 - cols.w1))

    drift_closed = bloch_entropies(ch.joint_radii_closed_form(cols, grid))
    peak = np.arange(k), np.argmax(neg, axis=1)
    t_peak = times[peak]
    neg_peak = neg[peak]
    # spot check of the closed form against the eigensolve route, at the
    # one point where the negativity matters most, in one call with the
    # unitary family at t_max; the states are built unchecked, from the
    # block's decay values, and checked once, by negativities
    spot, unitary_final = negativities(np.concatenate([
        ch._closed_form_joint_matrices(cols, grid.decay[peak][:, None],
                                       grid.lose[peak][:, None]),
        ch._dilated_matrices(cols, grid.lose[:, -1:])]))[:, 0].reshape(2, k)
    gap = abs(spot - neg_peak)
    if (gap > NEGATIVITY_SPOT_TOL).any():
        i = int(np.argmax(gap))
        raise NumericalError(
            f"negativity routes disagree by {gap[i]:.3e} "
            f"at the peak t = {t_peak[i]:.6g} (closed form "
            f"{neg_peak[i]:.6e}, eigensolve {spot[i]:.6e}); bound "
            f"{NEGATIVITY_SPOT_TOL:.0e}")

    points, means, spreads = _ratio_rows(asym, neg)
    # per-series scalars, as Python floats
    columns = {
        "closure_system_max": thermo_s.closure_residual.max(axis=1).tolist(),
        "closure_environment_max": thermo_e.closure_residual.max(
            axis=1).tolist(),
        "work_system_max_abs": work[:k].tolist(),
        "work_environment_max_abs": work[k:].tolist(),
        "energy_balance_max": balance.tolist(),
        "heat_system_final": thermo_s.heat[:, -1].tolist(),
        "heat_environment_final": thermo_e.heat[:, -1].tolist(),
        "heat_asymmetry_max": asym.max(axis=1).tolist(),
        "joint_entropy_unitary_family": np.ravel(ent_joint).tolist(),
        "entropy_drift_closed_form_family": abs(
            drift_closed - drift_closed[:, :1]).max(axis=1).tolist(),
        "negativity_peak": neg_peak.tolist(),
        "negativity_peak_time": t_peak.tolist(),
        "negativity_final": neg[:, -1].tolist(),
        "negativity_peak_count": _count_peaks(
            neg, _NEGATIVITY_PEAK_FLOOR).astype(float).tolist(),
        "negativity_unitary_family_final": unitary_final.tolist(),
        "entropy_rate_system_max": rate_max.tolist(),
        "entropy_rate_mismatch_max": rate_mismatch.tolist(),
        "ratio_points": [float(count) for count in points],
        "ratio_mean": means,
        "ratio_max_relative_spread": spreads,
    }
    info = InfoSeries(times=times, entropy_s=ent_s, entropy_e=ent_e,
                      coherence_s=np.sqrt(x2_s, out=x2_s),
                      coherence_e=np.sqrt(x2_e, out=x2_e), negativity=neg,
                      mutual_information=ent_s + ent_e - ent_joint,
                      heat_asymmetry=asym)
    return thermo_s, thermo_e, info, columns


def _check_config(config, what: str) -> None:
    """Raise :class:`InputError` naming ``what`` and the type of
    ``config`` unless it is an :class:`ExperimentConfig`."""
    if not isinstance(config, ExperimentConfig):
        raise InputError(f"{what} needs an ExperimentConfig, got "
                         f"{type(config).__name__}")


def run(config: ExperimentConfig) -> ExperimentResult:
    """Execute one configured run and verify its invariants.

    A run is a block of one (see :func:`sweep`). Raises
    :class:`NumericalError` if the static-Hamiltonian work bound, the
    global energy balance, the first-law closure tolerance, the
    convergence of the closed-form negativity, or its agreement with the
    eigensolve at the peak is violated; these are integrity checks, not
    physics outputs. A ``config`` that is no :class:`ExperimentConfig`
    raises :class:`InputError` naming its type.
    """
    _check_config(config, "run")
    thermo_s, thermo_e, info, columns = _run_block(
        _Block([config], [0], [0]))
    info = info[0]
    return ExperimentResult(
        config=config, params=config.params, times=info.times,
        thermo_s=thermo_s[0], thermo_e=thermo_e[0], info=info,
        diagnostics={k: v[0] for k, v in columns.items()})


@dataclass(frozen=True)
class SweepSummary:
    """One row of a parameter sweep; a failed run keeps the NaN results
    and its error message."""

    alpha: float
    beta: float
    gamma: float
    t_max: float
    n_samples: int
    peak_negativity: float = math.nan
    peak_negativity_time: float = math.nan
    peak_heat_asymmetry: float = math.nan
    heat_system_final: float = math.nan
    heat_environment_final: float = math.nan
    coherent_energy_max_abs: float = math.nan
    ratio_mean: float = math.nan
    ratio_max_relative_spread: float = math.nan
    error: str = ""


def _blocks(configs):
    """Cut ``configs`` into :class:`_Block` of consecutive configurations
    with one grid length whose distinct state series hold at most
    :data:`BLOCK_POINTS` points; a longer grid is a block of one series.

    Rows share a series when their keys (see :func:`_series_keys`) are
    equal. The keys are taken on runs of at most :data:`BLOCK_POINTS`
    points, so that a block holds no array that grows with the rows
    that repeat a series.
    """
    rows, first, series, seen = [], [], [], {}
    for n, same in groupby(configs, key=lambda config: config.n_samples):
        for part in _chunks(list(same), n):
            done = []
            for config, key in zip(part, _series_keys(part)):
                if key not in seen:
                    if rows and (rows[0].n_samples != n
                                 or (len(first) + 1) * n > BLOCK_POINTS):
                        done.append(_Block(rows, first, series))
                        rows, first, series, seen = [], [], [], {}
                    seen[key] = len(first)
                    first.append(len(rows))
                series.append(seen[key])
                rows.append(config)
            yield from done
    yield _Block(rows, first, series)


def sweep(configs) -> list:
    """Run a sequence of configurations, collecting one summary row each.

    Consecutive configurations with equal ``n_samples`` run as one block
    whose distinct state series hold at most :data:`BLOCK_POINTS` grid
    points (a longer grid is a series alone), with the series as a
    leading array axis: rows that differ only in ``gamma`` and share
    their decay values, such as those on one ``gamma_t_max`` whose gammas
    differ by powers of two, are evaluated once. The rows equal those of
    :func:`run` bit for bit. A configuration that fails its integrity
    checks contributes a row with its error message instead of aborting
    the remaining runs: a block that raises is run again one
    configuration at a time, so each failing row holds the message its
    run raises alone and the other rows keep their values.
    Each row is read from its series' columns; a sweep builds no
    :class:`ExperimentResult`. Anything but a nonempty sequence of
    :class:`ExperimentConfig` raises :class:`InputError` before any row
    runs, naming the type and, for a bad item, its position.
    """
    try:
        items = iter(configs)
    except TypeError as exc:
        raise InputError("sweep needs a sequence of ExperimentConfig, got "
                         f"{type(configs).__name__}") from exc
    configs = list(items)
    if not configs:
        raise InputError("sweep needs at least one configuration")
    for i, config in enumerate(configs):
        _check_config(config, f"sweep item {i}")
    rows = []
    for block in _blocks(configs):
        # a block's series are freed before the next block runs
        rows.extend(_sweep_rows(block))
    return rows


def _sweep_rows(block: _Block) -> list:
    """The summary rows of one block, read from its series' columns.

    A row takes the numbers of its series but for the negativity's peak
    time, which a row that repeats a series reads from its own grid (see
    :func:`_peak_times`). A block that raises runs again one
    configuration at a time, as blocks of one, so that a failing row
    holds the message its run raises alone and the other rows keep their
    values.
    """
    configs, _, series = block
    try:
        thermo_s, _, info, d = _run_block(block)
        t_peak = _peak_times(block, info.negativity,
                             d["negativity_peak_time"])
    except (InputError, NumericalError) as exc:
        if len(configs) > 1:
            return [row for config in configs
                    for row in _sweep_rows(_Block([config], [0], [0]))]
        return [SweepSummary(*_inputs(configs[0]), error=str(exc))]
    # in the order of the result fields of SweepSummary after the peak time
    results = list(zip(d["heat_asymmetry_max"], d["heat_system_final"],
                       d["heat_environment_final"],
                       abs(thermo_s.coherent_energy).max(axis=1).tolist(),
                       d["ratio_mean"], d["ratio_max_relative_spread"]))
    peaks = d["negativity_peak"]
    return [SweepSummary(*_inputs(config), peaks[s], t, *results[s])
            for config, s, t in zip(configs, series, t_peak)]


def _peak_times(block: _Block, neg: np.ndarray, t_peak: list) -> list:
    """The negativity's peak time of each row of ``block``, given the
    ``(k, T)`` negativities ``neg`` of its series and their peak times
    ``t_peak`` on the grids of their first rows.

    A row that repeats a series takes the time at its series' peak index
    from its own grid, checked here, in runs of at most
    :data:`BLOCK_POINTS` points.
    """
    configs, first, series = block
    rows = [t_peak[s] for s in series]
    repeats = [i for i, s in enumerate(series) if first[s] != i]
    peak = np.argmax(neg, axis=1)
    for part in _chunks(repeats, neg.shape[1]):
        own = _check_grid(_block_times([configs[i] for i in part]), ndim=2)
        at = peak[[series[i] for i in part]]
        for i, t in zip(part, own[np.arange(len(part)), at].tolist()):
            rows[i] = t
    return rows


def _inputs(config: ExperimentConfig) -> tuple:
    """The input fields of a sweep row, read directly: asdict deep-copies
    each row."""
    return (config.alpha, config.beta, config.gamma, config.t_max,
            config.n_samples)
