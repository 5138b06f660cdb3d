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
read also at its peak time ``t*`` (:func:`_peak_time`) and spot-checked
there against an eigensolve of the single state.
Every diagnostic is derived from the run's own series; the self-checks
that do not depend on the grid, such as route consistency and the Markov
limit, live in :mod:`strongcouple.validation` and run in ``validate``.
Two joint-state families enter the bookkeeping (see
:mod:`strongcouple.channels`). The negativity and the mutual information
``S_s + S_e - S_se`` come from the closed-form family, whose marginals
are exact and whose rank-two spectrum is closed-form too
(:func:`strongcouple.channels.joint_radii_closed_form`). The unitary
family keeps the joint spectrum ``{w0, w1, 0, 0}`` of a pure system, so
its joint entropy is ``S[rho_e(0)]``, a qubit's of Bloch radius ``|w0 -
w1|``; the diagnostics record it and the closed-form family's drift.

Runs are evaluated in blocks of consecutive configurations with one grid
length, and a block evaluates each distinct state series among its rows
once. The decay probability is ``1 - exp(-gamma t)``, so a series is
fixed by ``alpha``, ``w0`` and the grid ``gamma t``: rows whose three
have the same bits hold one series, as the rows of a sweep on one
``gamma_t_max`` do where the gammas differ by powers of two. A series is
evaluated on the grid of its first row: the parameters are ``(k, 1)``
columns and the times one ``(k, T + 1)`` array, the first rows' grids
that their keys were taken on, each with its peak time ``t*`` as the
last column (:func:`_block_times`), so a block builds no grid. The
block evaluates the decay factor once on it, as the grid of
:mod:`strongcouple.channels`, with ``g = 1 - g = 1/2`` exactly in the
peak's column where ``g`` reaches 1/2, and hands it to the public
closed forms: the first ``T`` columns, as views, to the two Bloch
series, and the whole grid to the joint negativities and the joint
radii; the closed-form family's joint entropy, whose drift from
``t = 0`` grows with ``u = g (1 - g)`` as the negativity does, is read
at ``t*`` too. Each marginal's first-law split runs once for the block.
Every gate holds its values to an upper bound through
:func:`strongcouple.errors._gate`, under which a NaN fails. The
spot-check states of all series are built unchecked from the peak's
decay values and go to one
:func:`~strongcouple.infomeasures.negativities` call, their one check
and eigensolve. The block returns its two splits and its
:class:`~strongcouple.infomeasures.InfoSeries` as ``(k, T)`` arrays and
reduces every diagnostic, the ratio statistics included, into columns of
Python floats, one entry for each series. :func:`run` is a block of one
on its configuration's own grid, which needs no key, and reads entry 0;
:func:`sweep` cuts its configurations into blocks whose series hold at
most :data:`BLOCK_POINTS` grid points and reads each summary row from
its series' entries, the system's split and its own peak time ``t*``,
without a per-row result. Both give the same numbers bit for bit. A
block holds no series it no longer needs: each Bloch series is dropped
once its entropies are taken, but for ``x2``, whose square root, taken
in place, is the coherence; and the negativity's Newton solve, where the
block peaks, frees its inputs as it goes (see
:func:`~strongcouple.channels.joint_negativities_closed_form`). Nor does
it expand a series to its rows: the keys of the rows are taken in runs
of at most :data:`BLOCK_POINTS` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import channels as ch
from .errors import (InputError, NumericalError, _as_count, _as_float,
                     _gate)
# thermo_trajectory, the generic route, is not called here; it stays bound
# because benchmarks/tests/test_bench_tracer.py checks that the layer
# tracer wraps it in this module
from .firstlaw import (ThermoTrajectory,  # noqa: F401
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
_LN2 = math.log(2.0)


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


def _peak_time(config: ExperimentConfig) -> tuple:
    """Whether ``g = exp(-gamma t)`` falls to 1/2 by ``t_max``, and the
    time ``t*`` where the negativity peaks.

    The negativity grows with ``u = g (1 - g)``, so it peaks at ``t* =
    min(ln 2 / gamma, t_max)``: at ``g = 1/2`` where ``gamma * t_max``,
    whose bits the rows of a series share, is at least ``ln 2``, else at
    ``t_max``. Where it vanishes, as on the separable line ``alpha^2 =
    w0``, its peak time is ``t*`` too, not the grid's 0.
    """
    inside = config.params.gamma_rate * config.t_max >= _LN2
    return inside, (min(_LN2 / config.gamma, config.t_max) if inside
                    else config.t_max)


def _block_times(configs) -> np.ndarray:
    """The ``(R, T + 1)`` grids of configurations that share
    ``n_samples``, each row with its peak time ``t*`` (see
    :func:`_peak_time`) as one more column.

    One ``linspace`` call for the block; the first ``T`` columns of each
    row equal its configuration's :attr:`ExperimentConfig.times` bit for
    bit. ``linspace`` takes one path for all rows, and another where a
    step underflows to zero; a block with such a step takes each row's
    grid alone, so that its other rows keep their own grids. The row
    whose step underflows is not increasing, and fails its block.
    """
    t_max = np.array([config.t_max for config in configs])
    times, step = np.linspace(0.0, t_max, configs[0].n_samples, axis=-1,
                              retstep=True)
    if not step.all():
        times = [config.times for config in configs]
    return np.column_stack([times, [_peak_time(c)[1] for c in configs]])


class _Block(NamedTuple):
    """Consecutive configurations with one grid length, and the distinct
    state series among them.

    ``series[i]`` is the series of row ``i``, numbered in the order of
    their first rows, ``first[s]`` the first row that holds series ``s``,
    and ``times[s]`` that row's grid with its peak time ``t*`` appended
    (see :func:`_block_times`), on which the series is evaluated: one
    ``(k, T + 1)`` array for the block.
    """

    configs: list
    first: list
    series: list
    times: np.ndarray


def _series_keys(configs) -> tuple:
    """The key of each configuration's state series, for configurations
    that share ``n_samples``, and the ``(R, T + 1)`` grids of
    :func:`_block_times` they were taken on: the bytes of its ``alpha``
    and ``w0`` and of ``gamma * t`` on its grid, without the peak's
    column; a row whose ``gamma * t`` does not rise gets a key of its
    own, so that it is checked as its run is.

    The decay factor reads only ``-gamma_rate * t``, and every other
    parameter a closed form reads is a float function of ``alpha`` and
    ``w0``, so rows with one key get the same series bit for bit; no
    decay value is evaluated for a key. The key holds bits, not values,
    so that ``0.0`` and ``-0.0``, which compare equal, stay apart.
    """
    params = np.array([[config.params.alpha, config.params.w0,
                        config.params.gamma_rate] for config in configs])
    times = _block_times(configs)
    scaled = params[:, 2:] * times[:, :-1]
    # gamma > 0, so where gamma * t rises, so does t, and needs no check
    rising = (scaled[:, 1:] > scaled[:, :-1]).all(axis=1)
    table = np.concatenate([params[:, :2], scaled], axis=1)
    return [row.tobytes() if ok else object()
            for row, ok in zip(table, rising.tolist())], times


def _run_block(block: _Block) -> tuple:
    """Run a block, evaluating each of its distinct state series once.

    The parameters of the series are ``(k, 1)`` columns and their times
    the block's one ``(k, T + 1)`` array, each first row's grid with its
    peak time ``t*`` as the last column. Its decay factor is evaluated
    once, with ``g = 1 - g = 1/2`` written exactly into the peak's
    column where ``g`` reaches 1/2; the Bloch series and the first-law
    splits take the first ``T`` columns as views, and the joint closed
    forms and the spot check the whole grid. Each marginal's first-law
    split runs once for the block. Returns
    ``(thermo_s, thermo_e, info, columns)``: the two splits and the
    :class:`InfoSeries` hold ``(k, T)`` arrays, one row for each series,
    and ``columns`` the diagnostics by name, as lists of one Python
    float for each series, its peak time that of its first row.
    Every gate reduces over the whole block and names its worst entry,
    so the block raises where any of its rows would, with the message
    the first row of that entry's series raises alone.
    """
    configs, first, _, times = block
    cols = ch._columns([configs[i].params for i in first])
    grid = ch._grid(cols, times)
    # the peak's column: g = 1 - g = 1/2 exactly where g reaches 1/2, else
    # the values at t* = t_max, the grid's last
    inside = np.array([_peak_time(configs[i])[0] for i in first])
    grid.decay[inside, -1] = grid.lose[inside, -1] = 0.5
    on_grid = ch._Grid(*(a[:, :-1] for a in grid))
    k = len(first)
    bloch_s = ch.system_bloch(cols, on_grid)
    bloch_e = ch.environment_bloch(cols, on_grid)
    thermo_s = qubit_thermo_trajectory(bloch_s)
    thermo_e = qubit_thermo_trajectory(bloch_e)

    # the system's rows, then the environment's
    work = abs(np.concatenate([thermo_s.work, thermo_e.work])).max(axis=1)
    _gate(work, WORK_STATIC_TOL, lambda i: (
        f"work {work[i]:.3e} on a static Hamiltonian exceeds "
        f"{WORK_STATIC_TOL:.0e}"))
    balance = abs(thermo_s.internal_energy_change
                  + thermo_e.internal_energy_change).max(axis=1)
    _gate(balance, ENERGY_BALANCE_TOL, lambda i: (
        f"system plus environment energy change {balance[i]:.3e} "
        f"exceeds {ENERGY_BALANCE_TOL:.0e}; total energy must be "
        "conserved"))

    asym = heat_asymmetry(thermo_s.heat, thermo_e.heat)

    # of each Bloch series only x2, the coherence squared, outlives its
    # entropies: the block frees the rest before the negativity solve,
    # where it peaks
    ent_s = bloch_entropies(bloch_s.radius)
    x2_s = bloch_s.x2
    del bloch_s
    ent_e = bloch_entropies(bloch_e.radius)
    x2_e = bloch_e.x2
    del bloch_e

    neg = ch.joint_negativities_closed_form(cols, grid)
    neg, neg_peak = neg[:, :-1], neg[:, -1]
    # the closed-form family's joint entropy, on the grid and at t*
    joint_closed = bloch_entropies(ch.joint_radii_closed_form(cols, grid))
    ent_joint = bloch_entropies(abs(cols.w0 - cols.w1))
    # spot check of the closed form against the eigensolve route, at the
    # one point where the negativity matters most, in one call with the
    # unitary family at t_max, the grid's last column before the peak's;
    # the states are built unchecked, from the block's decay values, and
    # checked once, by negativities
    spot, unitary_final = negativities(np.concatenate([
        ch._closed_form_joint_matrices(cols, grid.decay[:, -1:],
                                       grid.lose[:, -1:]),
        ch._dilated_matrices(cols, grid.lose[:, -2:-1])]))[:, 0].reshape(2, k)
    gap = abs(spot - neg_peak)
    _gate(gap, NEGATIVITY_SPOT_TOL, lambda i: (
        f"negativity routes disagree by {gap[i]:.3e} "
        f"at the peak t = {times[i, -1]:.6g} (closed form "
        f"{neg_peak[i]:.6e}, eigensolve {spot[i]:.6e}); bound "
        f"{NEGATIVITY_SPOT_TOL:.0e}"))

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
            joint_closed - joint_closed[:, :1]).max(axis=1).tolist(),
        "negativity_peak": neg_peak.tolist(),
        "negativity_peak_time": times[:, -1].tolist(),
        "negativity_final": neg[:, -1].tolist(),
        "negativity_peak_count": _count_peaks(
            neg, _NEGATIVITY_PEAK_FLOOR).astype(float).tolist(),
        "negativity_unitary_family_final": unitary_final.tolist(),
        "ratio_points": [float(count) for count in points],
        "ratio_mean": means,
        "ratio_max_relative_spread": spreads,
    }
    info = InfoSeries(times=on_grid.times, entropy_s=ent_s, entropy_e=ent_e,
                      coherence_s=np.sqrt(x2_s, out=x2_s),
                      coherence_e=np.sqrt(x2_e, out=x2_e), negativity=neg,
                      mutual_information=ent_s + ent_e - joint_closed[:, :-1],
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
        _Block([config], [0], [0], _block_times([config])))
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
    that repeat a series. The grids a run of keys is taken on serve its
    block too: the block copies each first row's grid, peak column
    included, and stacks the copies into its one ``(k, T + 1)`` array
    when it closes, so it holds no view of the run's grids and no list
    of grids.
    """
    rows, first, series, grids, seen = [], [], [], [], {}
    for n, same in groupby(configs, key=lambda config: config.n_samples):
        same, size = list(same), max(1, BLOCK_POINTS // n)
        for part in (same[i:i + size] for i in range(0, len(same), size)):
            done = []
            keys, times = _series_keys(part)
            for config, key, grid in zip(part, keys, times):
                if key not in seen:
                    if rows and (rows[0].n_samples != n
                                 or (len(first) + 1) * n > BLOCK_POINTS):
                        done.append(_Block(rows, first, series,
                                           np.array(grids)))
                        rows, first, series, grids, seen = [], [], [], [], {}
                    seen[key] = len(first)
                    first.append(len(rows))
                    grids.append(grid.copy())
                series.append(seen[key])
                rows.append(config)
            # the run's keys and grids, and grid, a view of its last row,
            # are freed before its blocks run
            del keys, times, grid
            yield from done
    # the last block's list of grids is freed before it runs
    grids = np.array(grids)
    yield _Block(rows, first, series, grids)


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
    Each row is read from its series' columns and its own peak time
    ``t*``; a sweep builds no :class:`ExperimentResult`. Anything but a
    nonempty sequence of :class:`ExperimentConfig` raises
    :class:`InputError` before any row runs, naming the type and, for a
    bad item, its position.
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
    time, its own (see :func:`_peak_time`). A block that raises runs
    again one configuration at a time, as blocks of one, so that a
    failing row holds the message its run raises alone and the other
    rows keep their values.
    """
    configs, _, series, _ = block
    try:
        thermo_s, _, _, d = _run_block(block)
    except (InputError, NumericalError) as exc:
        if len(configs) > 1:
            return [row for config in configs for row in _sweep_rows(
                _Block([config], [0], [0], _block_times([config])))]
        return [SweepSummary(*_inputs(configs[0]), error=str(exc))]
    # in the order of the result fields of SweepSummary after the peak time
    results = list(zip(d["heat_asymmetry_max"], d["heat_system_final"],
                       d["heat_environment_final"],
                       abs(thermo_s.coherent_energy).max(axis=1).tolist(),
                       d["ratio_mean"], d["ratio_max_relative_spread"]))
    peaks = d["negativity_peak"]
    return [SweepSummary(*_inputs(config), peaks[s], _peak_time(config)[1],
                         *results[s])
            for config, s in zip(configs, series)]


def _inputs(config: ExperimentConfig) -> tuple:
    """The input fields of a sweep row, read directly: asdict deep-copies
    each row."""
    return (config.alpha, config.beta, config.gamma, config.t_max,
            config.n_samples)
