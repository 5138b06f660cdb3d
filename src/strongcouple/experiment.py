"""End-to-end experiment driver: configuration, single runs, and sweeps.

A run evolves one system-environment pair from a product initial state,
integrates the first-law split for both subsystems, evaluates the
information measures on the same grid, and collects a dictionary of
scalar diagnostics that double as regression probes. Each marginal,
the system's then the environment's, is one call of one stage
(:func:`_marginal`), which turns its Bloch series
(:class:`strongcouple.channels.BlochSeries`) into its exact first-law
split (:func:`strongcouple.firstlaw.qubit_thermo_trajectory`) and holds
its Bloch radius ``r`` to the eigenvalue floor; the series lives only for
that stage, and the floor's smaller eigenvalue ``(1 - r)/2`` and the
squared coherence it leaves give a run its entropies and its coherence.
A run does no eigensolve per time point: the negativity series is the
closed-form root of the partial transpose's quartic
(:func:`strongcouple.channels.joint_negativities_closed_form`), read
also at its peak time ``t*`` (:func:`_peak_time`) and spot-checked there
against an eigensolve of the single state.
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
once. The dynamics read time only through the decay factor ``g =
exp(-gamma t)``, so ``gamma`` only rescales it: a series is evaluated on
the dimensionless grid ``s = gamma t``, spaced from 0 to the horizon
``gamma * t_max`` by the rule that spaces each configuration's times
too (:func:`_spaced`), with ``g = exp(-s)``. A series is therefore fixed by
``n_samples``, ``alpha``, ``w0`` and the horizon: rows whose four have
the same bits hold one series, whatever their gammas
(:func:`_series_key`), and no grid is built to key a row. The parameters
and horizons of a block's series are ``(k, 1)`` columns, and ``s`` one
``(k, T + 1)`` array with the horizon again as a last column, the
peak's. The block evaluates the decay factor once on it, through the
helper of :mod:`strongcouple.channels` that its grids use too, with ``g
= 1 - g = 1/2`` exactly in the peak's column where ``g`` reaches 1/2,
and hands it to the public closed forms: the first ``T`` columns, as
views, to the two Bloch series, and the whole grid to the joint
negativities and the joint radii; the closed-form family's joint
entropy, whose drift from ``t = 0`` grows with ``u = g (1 - g)`` as the
negativity does, is read at the peak too. Times are built for the
block's first rows only, each row's own grid with its peak time ``t*``
(:func:`_peak_time`) as a last column that stays inside the block: the
closed forms and the two gate messages that name a time read it, and the
block hands on the ``(k, T)`` grids. Each marginal's stage runs once for
the block. Every gate holds its values to an upper bound through
:func:`strongcouple.errors._gate`, and every radius floor through
:func:`~strongcouple.spectra.check_spectrum`; a NaN fails either. The
spot-check states of all series are built unchecked from the peak's
decay values and go to one
:func:`~strongcouple.infomeasures.negativities` call, their one check
and eigensolve.

A block computes what its gates and a summary row read and nothing else
(:func:`_checked_block`): the two splits, the heat asymmetry ``|Q_S +
Q_E|`` of their heats, which share a shape and need no second check, the
negativity, and the smaller eigenvalue ``(1 - r)/2`` that each radius
floor leaves, of both marginals and both joint families, in ``(k, T)``
or ``(k, T + 1)`` arrays, one row for each series, and the squared
coherences the Bloch series carry. The values that a run's diagnostics
and a sweep row both publish have one reader (:func:`_published`),
which returns, per series of a block, the peak negativity, the heat
asymmetry's maximum, both final heats, the system's coherent energy's
maximum and the ratio statistics, from the block's one
:func:`~strongcouple.infomeasures._ratio_rows` call, as Python numbers.
:func:`run` is a block of one on its configuration's own grid, which
needs no key. It takes those values from row 0 of the reader and ``t*``
from :func:`_peak_time`, as a sweep row does; the rest it reads from
row 0 of its block: the four entropies come from those eigenvalues
(:func:`~strongcouple.infomeasures._low_entropies`), so each radius
meets the floor once, and with them the coherences, the mutual
information, its :class:`~strongcouple.infomeasures.InfoSeries` and
every other diagnostic, each a plain float. :func:`sweep` cuts its
configurations into blocks whose series hold at most
:data:`BLOCK_POINTS` grid points and builds each summary row from the
reader's row of its series and its own peak time ``t*``
(:func:`_sweep_rows`), without a per-row result, an entropy or a
diagnostic; the block goes once the reader has returned, before the
rows are built. Both give the same numbers bit for bit, through the
same gates in the same order. A block peaks in the negativity's Newton
solve, which manages its own buffers (see
:func:`~strongcouple.channels.joint_negativities_closed_form`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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
from .infomeasures import (InfoSeries, _low_entropies, _radius_floor,
                           _ratio_rows, negativities)

WORK_STATIC_TOL = 1e-12
ENERGY_BALANCE_TOL = 1e-10
NEGATIVITY_SPOT_TOL = 1e-10
_NEGATIVITY_PEAK_FLOOR = 1e-6
# Grid points of the distinct series a sweep evaluates at once, 16 series
# at 501 points; rows that repeat a series add none, so the 27 sweep27
# rows, which hold 9 series, make one block. A sweep peaks near one run
# of this length, about 1.9 MB traced
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
    an ``OverflowError`` of a later stage. The grid, spaced by
    :func:`_spaced`, always rises: ``t_max`` must be positive and finite
    and its step large enough that the last two points differ, which
    refuses only a subnormal step, and a refused ``t_max`` names the
    point count. ``params``, the configuration's :class:`GadcParams`,
    is built once there too and set beside the fields, outside them:
    equality, hashing and ``asdict`` see the five fields only.
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
        n = _as_count(self.n_samples, "n_samples", 3)
        object.__setattr__(self, "n_samples", n)
        # the grid (see _spaced) rises exactly where its last two points
        # do: false for a t_max that is not positive and finite, and for
        # one whose subnormal step rounds the last points together
        if not 0.0 < (n - 2) * (self.t_max / (n - 1)) < self.t_max:
            raise InputError(f"t_max must be positive and finite with a "
                             f"rising grid of {n} points, got {self.t_max}")
        # built once, here, where it checks alpha and beta
        object.__setattr__(self, "params",
                           ch.GadcParams.from_inverse_temperature(
                               alpha=self.alpha, beta=self.beta,
                               gamma_rate=self.gamma))

    @property
    def times(self) -> np.ndarray:
        return _spaced(self.t_max, self.n_samples)


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


def _spaced(stop, n: int) -> np.ndarray:
    """``n`` points from 0 to ``stop``, a float or a ``(k, 1)`` column,
    with both ends written exactly.

    The points are ``arange(n) * (stop / (n - 1))``: the bits of
    ``np.linspace(0, stop, n)`` wherever the step is nonzero and finite,
    and 0 first where ``stop`` is infinite.
    """
    # 0 * inf is an infinite stop's first point; only the last product,
    # (n - 1) * step, reaches stop, so only it can round past the float
    # max. Both ends are written exactly below
    with np.errstate(invalid="ignore", over="ignore"):
        points = np.arange(n) * (stop / (n - 1))
    points[..., :1] = 0.0
    points[..., -1:] = stop
    return points


def _peak_time(config: ExperimentConfig) -> float:
    """The time ``t*`` where the negativity peaks.

    The negativity grows with ``u = g (1 - g)``, so it peaks at ``t* =
    min(ln 2 / gamma, t_max)``: at ``g = 1/2`` where the horizon ``gamma
    * t_max``, whose bits the rows of a series share, is at least ``ln
    2``, else at ``t_max``. Where it vanishes, as on the separable line
    ``alpha^2 = w0``, its peak time is ``t*`` too, not the grid's 0.
    """
    if config.gamma * config.t_max >= _LN2:
        return min(_LN2 / config.gamma, config.t_max)
    return config.t_max


class _Block(NamedTuple):
    """Consecutive configurations with one grid length, and the distinct
    state series among them.

    ``series[i]`` is the series of row ``i``, numbered in the order of
    their first rows, and ``first[s]`` the first row that holds series
    ``s``, whose grid the series is evaluated on.
    """

    configs: list
    first: list
    series: list


def _series_key(config: ExperimentConfig):
    """The key of a configuration's state series: its ``n_samples`` and
    the bits of its ``alpha``, ``w0`` and horizon ``gamma * t_max``.

    A series reads time only through the decay factor ``exp(-s)`` on
    the dimensionless grid ``s``, spaced from 0 to the horizon (see
    :func:`_spaced`), and every other parameter a closed form reads is a
    float function of ``alpha`` and ``w0``, so rows with one key get the
    same series bit for bit; no grid is built for a key. The key holds
    bits, not values, so that ``0.0`` and ``-0.0``, which compare equal,
    stay apart. Every row is keyed by these values alone: a
    configuration's own grid always rises (see :class:`ExperimentConfig`),
    so no row fails for its grid where a row of its key passes.
    """
    return config.n_samples, struct.pack(
        "3d", config.params.alpha, config.params.w0,
        config.gamma * config.t_max)


class _Marginal(NamedTuple):
    """A marginal past its gates: its exact first-law split, the smaller
    eigenvalue ``(1 - r)/2`` its entropies are computed from, and the
    squared coherence whose root is its l1 coherence."""

    split: ThermoTrajectory
    low: np.ndarray
    x2: np.ndarray


def _marginal(bloch: ch.BlochSeries) -> _Marginal:
    """A marginal's exact first-law split, closure gate included, then
    its radius floor; the series lives only for this stage."""
    split = qubit_thermo_trajectory(bloch)
    return _Marginal(split, _radius_floor(bloch.radius), bloch.x2)


class _Checked(NamedTuple):
    """A block past every gate, one row for each series.

    ``times`` is ``(k, T)``, each series' grid; the peak time ``t*``
    column the block appends stays inside :func:`_checked_block`, and a
    reader takes ``t*`` from :func:`_peak_time`. ``work`` holds the
    largest work of each of the system's rows, then of the
    environment's, and ``balance`` the largest energy imbalance of each
    row; ``neg`` and ``asym`` are the negativity and the heat asymmetry
    on the grid, ``neg_peak`` the negativity at ``t*``, ``joint_low``
    the smaller eigenvalue of the closed-form family's joint state on
    the grid and at ``t*``, and ``unitary_low`` and ``unitary_final``
    the unitary family's smaller eigenvalue and its negativity at
    ``t_max``. The values a run and a sweep row both publish are read
    from it in one place, :func:`_published`.
    """

    times: np.ndarray
    system: _Marginal
    environment: _Marginal
    work: np.ndarray
    balance: np.ndarray
    asym: np.ndarray
    neg: np.ndarray
    neg_peak: np.ndarray
    joint_low: np.ndarray
    unitary_low: np.ndarray
    unitary_final: np.ndarray


def _checked_block(heads: list) -> _Checked:
    """Evaluate the block whose distinct state series have the first rows
    ``heads``, each series once on its first row's grid, through every
    gate of a run.

    The decay factor is evaluated once, on the ``(k, T + 1)``
    dimensionless grid with the peak's column last (see the module
    docstring); the marginals' stages take its first ``T`` columns as
    views, and the joint closed forms and the spot check the whole
    grid. The gates run in one order: each marginal's closure, then its
    radius floor; the work and the energy balance; the negativity's
    Newton convergence; the joint and the unitary radius floors; and the
    spot check. Every gate reduces over the whole block and names its
    worst entry, so the block raises where any of its rows would, with
    the message the first row of that entry's series raises alone. No
    entropy, coherence or diagnostic is computed here: a sweep row reads
    the block as it is, and :func:`run` computes the rest from its row.
    """
    n = heads[0].n_samples
    cols = ch._columns([c.params for c in heads])
    # each series' t_max, peak time t* and horizon, as (k, 1) columns
    t_max, t_peak, horizon = np.array([
        [c.t_max, _peak_time(c), c.gamma * c.t_max] for c in heads]).T[
            ..., None]
    times = np.concatenate([_spaced(t_max, n), t_peak], axis=1)
    decay, lose = ch._decay(np.concatenate([_spaced(horizon, n), horizon],
                                           axis=1))
    # the peak's column: g = 1 - g = 1/2 exactly where g reaches 1/2, else
    # the values at s = gamma * t_max, the grid's last
    inside = horizon[:, 0] >= _LN2
    decay[inside, -1] = lose[inside, -1] = 0.5
    grid = ch._Grid(times, decay, lose)
    on_grid = ch._Grid(*(a[:, :-1] for a in grid))
    k = len(heads)
    system = _marginal(ch.system_bloch(cols, on_grid))
    environment = _marginal(ch.environment_bloch(cols, on_grid))
    thermo_s, thermo_e = system.split, environment.split

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

    asym = abs(thermo_s.heat + thermo_e.heat)
    neg = ch.joint_negativities_closed_form(cols, grid)
    # the closed-form family's joint radii, on the grid and at t*, and
    # the unitary family's, constant in time
    joint_low = _radius_floor(ch.joint_radii_closed_form(cols, grid))
    unitary_low = _radius_floor(abs(cols.w0 - cols.w1))
    # spot check of the closed form against the eigensolve route, at the
    # one point where the negativity matters most, in one call with the
    # unitary family at t_max, the grid's last column before the peak's;
    # the states are built unchecked, from the block's decay values, and
    # checked once, by negativities
    spot, unitary_final = negativities(np.concatenate([
        ch._closed_form_joint_matrices(cols, grid.decay[:, -1:],
                                       grid.lose[:, -1:]),
        ch._dilated_matrices(cols, grid.lose[:, -2:-1])]))[:, 0].reshape(2, k)
    neg_peak = neg[:, -1]
    gap = abs(spot - neg_peak)
    _gate(gap, NEGATIVITY_SPOT_TOL, lambda i: (
        f"negativity routes disagree by {gap[i]:.3e} "
        f"at the peak t = {times[i, -1]:.6g} (closed form "
        f"{neg_peak[i]:.6e}, eigensolve {spot[i]:.6e}); bound "
        f"{NEGATIVITY_SPOT_TOL:.0e}"))
    return _Checked(on_grid.times, system, environment, work, balance, asym,
                    neg[:, :-1], neg_peak, joint_low, unitary_low,
                    unitary_final)


def _published(b: _Checked) -> list:
    """Per series of the block ``b``, the values a run's diagnostics and
    a sweep row both publish, as Python numbers: the peak negativity, the
    heat asymmetry's maximum, the system's and the environment's final
    heats, the system's coherent energy's largest magnitude, and the
    ratio statistics of the asymmetry over the negativity, the points
    kept, their mean and their spread (see
    :func:`~strongcouple.infomeasures._ratio_rows`)."""
    points, means, spreads = _ratio_rows(b.asym, b.neg)
    return list(zip(b.neg_peak.tolist(), b.asym.max(axis=1).tolist(),
                    b.system.split.heat[:, -1].tolist(),
                    b.environment.split.heat[:, -1].tolist(),
                    abs(b.system.split.coherent_energy).max(axis=1).tolist(),
                    points, means, spreads))


def _check_config(config, what: str) -> None:
    """Raise :class:`InputError` naming ``what`` and the type of
    ``config`` unless it is an :class:`ExperimentConfig`."""
    if not isinstance(config, ExperimentConfig):
        raise InputError(f"{what} needs an ExperimentConfig, got "
                         f"{type(config).__name__}")


def run(config: ExperimentConfig) -> ExperimentResult:
    """Execute one configured run and verify its invariants.

    A run is a block of one (see :func:`sweep`) on its configuration's
    own grid, and its result holds row 0 of the block. The diagnostics
    a sweep row publishes too, the peak negativity, the heat asymmetry's
    maximum, both final heats and the ratio statistics, are row 0 of
    :func:`_published`, so a run and a sweep row read them alike. Raises
    :class:`NumericalError` if the static-Hamiltonian work bound, the
    global energy balance, the first-law closure tolerance, the
    convergence of the closed-form negativity, or its agreement with the
    eigensolve at the peak is violated; these are integrity checks, not
    physics outputs. A Bloch radius, of a marginal or of either joint
    family, whose smaller eigenvalue ``(1 - r)/2`` is below the
    eigenvalue floor raises :class:`InputError`, and so does a
    ``config`` that is no :class:`ExperimentConfig`, naming its type.
    """
    _check_config(config, "run")
    b = _checked_block([config])
    # the entropies come after every gate, from the block's rows
    ent_s, ent_e, joint_closed, (ent_joint,) = (
        _low_entropies(low)[0] for low in (
            b.system.low, b.environment.low, b.joint_low, b.unitary_low))
    thermo_s, thermo_e = b.system.split[0], b.environment.split[0]
    neg, asym = b.neg[0], b.asym[0]
    peak, asym_max, heat_s, heat_e, _, points, mean, spread = _published(b)[0]
    diagnostics = {
        "closure_system_max": thermo_s.closure_residual.max(),
        "closure_environment_max": thermo_e.closure_residual.max(),
        "work_system_max_abs": b.work[0],
        "work_environment_max_abs": b.work[1],
        "energy_balance_max": b.balance[0],
        "heat_system_final": heat_s,
        "heat_environment_final": heat_e,
        "heat_asymmetry_max": asym_max,
        "joint_entropy_unitary_family": ent_joint,
        "entropy_drift_closed_form_family": abs(
            joint_closed - joint_closed[0]).max(),
        "negativity_peak": peak,
        "negativity_peak_time": _peak_time(config),
        "negativity_final": neg[-1],
        "negativity_peak_count": _count_peaks(neg, _NEGATIVITY_PEAK_FLOOR),
        "negativity_unitary_family_final": b.unitary_final[0],
        "ratio_points": points,
        "ratio_mean": mean,
        "ratio_max_relative_spread": spread,
    }
    info = InfoSeries(
        times=b.times[0], entropy_s=ent_s, entropy_e=ent_e,
        coherence_s=np.sqrt(b.system.x2[0]),
        coherence_e=np.sqrt(b.environment.x2[0]), negativity=neg,
        mutual_information=ent_s + ent_e - joint_closed[:-1],
        heat_asymmetry=asym)
    return ExperimentResult(
        config=config, params=config.params, times=info.times,
        thermo_s=thermo_s, thermo_e=thermo_e, info=info,
        diagnostics={k: float(v) for k, v in diagnostics.items()})


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

    Rows share a series when their keys (see :func:`_series_key`) are
    equal. A key is four numbers, taken without a grid, so a block holds
    no array that grows with the rows that repeat a series.
    """
    rows, first, series, seen = [], [], [], {}
    for config in configs:
        key, n = _series_key(config), config.n_samples
        if key not in seen:
            if rows and (rows[0].n_samples != n
                         or (len(first) + 1) * n > BLOCK_POINTS):
                yield _Block(rows, first, series)
                rows, first, series, seen = [], [], [], {}
            seen[key] = len(first)
            first.append(len(rows))
        series.append(seen[key])
        rows.append(config)
    yield _Block(rows, first, series)


def sweep(configs) -> list:
    """Run a sequence of configurations, collecting one summary row each.

    Consecutive configurations with equal ``n_samples`` run as one block
    whose distinct state series hold at most :data:`BLOCK_POINTS` grid
    points (a longer grid is a series alone), with the series as a
    leading array axis: rows whose ``alpha``, ``w0`` and horizon ``gamma
    * t_max`` have the same bits, such as those of one ``(alpha, beta)``
    on one ``gamma_t_max``, share their decay values on the
    dimensionless grid and are evaluated once, whatever their gammas.
    The rows equal those of :func:`run` bit for bit. A configuration
    that fails its integrity checks contributes a row with its error
    message instead of aborting the remaining runs: a block that raises
    is run again one configuration at a time, so each failing row holds
    the message its run raises alone and the other rows keep their
    values.
    Each row is read from its series in the checked block and its own
    peak time ``t*``; a sweep builds no :class:`ExperimentResult` and
    computes no entropy, coherence or diagnostic. Anything but a
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
    """The summary rows of one block, read from :func:`_checked_block`.

    A row takes what it holds of its series from :func:`_published`, the
    reader :func:`run` takes its shared diagnostics from, and nothing
    more: the peak negativity, the heat asymmetry's maximum, both final
    heats, the system's coherent energy's maximum and the ratio mean and
    spread; no entropy, coherence or diagnostic is computed, and the
    block goes once the reader has returned. Its negativity's peak time
    is its own (see :func:`_peak_time`). A block runs every gate of
    :func:`run` in its order, and a block that raises runs again one
    configuration at a time, as blocks of one, so that a failing row
    holds the message its run raises alone and the other rows keep their
    values.
    """
    configs, first, series = block
    try:
        # the rows hold Python numbers only, so the block goes before they
        # are built
        values = _published(_checked_block([configs[i] for i in first]))
    except (InputError, NumericalError) as exc:
        if len(configs) > 1:
            return [row for config in configs
                    for row in _sweep_rows(_Block([config], [0], [0]))]
        return [SweepSummary(*_inputs(configs[0]), error=str(exc))]
    return [SweepSummary(*_inputs(config), peak, _peak_time(config), asym,
                         heat_s, heat_e, coherent, mean, spread)
            for config, s in zip(configs, series)
            for peak, asym, heat_s, heat_e, coherent, _, mean, spread
            in [values[s]]]


def _inputs(config: ExperimentConfig) -> tuple:
    """The input fields of a sweep row, read directly: asdict deep-copies
    each row."""
    return (config.alpha, config.beta, config.gamma, config.t_max,
            config.n_samples)
