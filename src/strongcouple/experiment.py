"""End-to-end experiment driver: configuration, single runs, and sweeps.

A run evolves one system-environment pair from a product initial state,
integrates the first-law split for both subsystems, evaluates the
information measures on the same grid, and collects a dictionary of
scalar diagnostics that double as regression probes. Two joint-state
families enter the bookkeeping (see :mod:`strongcouple.channels`): the
negativity series comes from the closed-form family whose marginals are
exact, while the joint entropy comes from the unitary family whose
spectrum is conserved. Mutual information combines the two accordingly,
``S_s + S_e - S_se``, with the marginal entropies from the closed forms.
The diagnostics record the entropy drift of both families so the choice
stays visible in outputs.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from .errors import InputError, NumericalError
from .firstlaw import ThermoTrajectory, thermo_trajectory
from .infomeasures import (InfoSeries, heat_asymmetry, l1_coherences,
                           negativities, negativity, proportionality_report,
                           von_neumann_entropies)

RATIO_DENOMINATOR_THRESHOLD = 5e-3
WORK_STATIC_TOL = 1e-12
ENERGY_BALANCE_TOL = 1e-10
_DRIFT_SUBSAMPLE = 10
# Time points per block of the information series: the stacks of one block
# stay small, so the run's memory does not grow with n_samples.
_INFO_BLOCK = 256
_NEGATIVITY_PEAK_FLOOR = 1e-6


@dataclass(frozen=True)
class IntegratorSettings:
    """Grid refinement and closure policy for the first-law integrals."""

    endpoint_subdivision: int = 32
    closure_tolerance: float = 1e-4

    def validate(self):
        if int(self.endpoint_subdivision) != self.endpoint_subdivision \
                or self.endpoint_subdivision < 1:
            raise InputError("endpoint_subdivision must be a positive integer, "
                             f"got {self.endpoint_subdivision}")
        if not self.closure_tolerance > 0.0:
            raise InputError("closure_tolerance must be positive, "
                             f"got {self.closure_tolerance}")


@dataclass(frozen=True)
class OutputSelection:
    """Which result blocks a run should produce."""

    thermo: bool = True
    info: bool = True
    diagnostics: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical and numerical parameters of one run.

    ``alpha`` is the initial ground amplitude, ``beta`` the environment
    inverse temperature in gap units (``inf`` for zero temperature),
    ``gamma`` the decay rate, and the grid is ``n_samples`` points on
    ``[0, t_max]``.
    """

    alpha: float = 1.0 / math.sqrt(2.0)
    beta: float = 1.0
    gamma: float = 1.0
    t_max: float = 10.0
    n_samples: int = 2001
    integrator: IntegratorSettings = field(default_factory=IntegratorSettings)
    outputs: OutputSelection = field(default_factory=OutputSelection)

    def validate(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.beta > 0.0:
            raise InputError(f"beta must be positive, got {self.beta}")
        if not self.gamma > 0.0:
            raise InputError(f"gamma must be positive, got {self.gamma}")
        if not self.t_max > 0.0:
            raise InputError(f"t_max must be positive, got {self.t_max}")
        if int(self.n_samples) != self.n_samples or self.n_samples < 3:
            raise InputError(
                f"n_samples must be an integer >= 3, got {self.n_samples}")
        self.integrator.validate()

    @property
    def params(self) -> ch.GadcParams:
        return ch.GadcParams.from_inverse_temperature(
            alpha=self.alpha, beta=self.beta, gamma_rate=self.gamma)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, int(self.n_samples))


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produces.

    Blocks deselected in the configuration are ``None`` (``diagnostics``
    is then empty); all contained arrays share the grid ``times``.
    """

    config: ExperimentConfig
    params: ch.GadcParams
    times: np.ndarray
    thermo_s: ThermoTrajectory | None
    thermo_e: ThermoTrajectory | None
    info: InfoSeries | None
    diagnostics: dict


def _route_consistency(params: ch.GadcParams, n_triples: int = 20,
                       seed: int = 0) -> float:
    """Largest pairwise deviation between the three single-step routes.

    Draws random ``(alpha, w0, p)`` triples and compares the Kraus map,
    the unitary dilation plus partial trace, and the closed form at the
    matching time. Deterministic for a fixed seed so repeated runs of the
    same configuration produce identical diagnostics.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_triples):
        a = rng.uniform(0.0, 1.0)
        w0 = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.0, 0.999)
        pr = ch.GadcParams(alpha=a, w0=w0, gamma_rate=params.gamma_rate, p=p)
        t = -math.log1p(-p) / params.gamma_rate
        via_kraus = ch.apply_channel(ch.system_kraus(pr),
                                     ch.system_initial_state(pr)).matrix
        via_dilation = ch.system_state_from_dilation(pr, p).matrix
        via_closed = ch.system_state(pr, t).matrix
        worst = max(worst,
                    float(np.max(np.abs(via_kraus - via_dilation))),
                    float(np.max(np.abs(via_kraus - via_closed))),
                    float(np.max(np.abs(via_dilation - via_closed))))
    return worst


def markov_convergence(params: ch.GadcParams, t: float = 1.0,
                       step_counts=(10, 100, 1000)) -> list:
    """Deviation of the composed single-step channel from the closed form.

    Returns ``(n, deviation)`` pairs; the deviation shrinks as ``1/n``
    because the per-step probability ``gamma t / n`` linearizes the
    exponential decay factor.
    """
    counts = list(step_counts)
    if not counts:
        raise InputError("step_counts must not be empty")
    for n in counts:
        if int(n) != n or n < 1:
            raise InputError(f"step counts must be positive integers, got {n}")
    target = ch.system_state(params, t).matrix
    rows = []
    for n in counts:
        approx = ch.iterate_map_check(params, t, int(n)).matrix
        rows.append((int(n), float(np.max(np.abs(approx - target)))))
    return rows


def _count_peaks(values: np.ndarray, floor: float) -> int:
    inner = values[1:-1]
    return int(np.count_nonzero(
        (inner > values[:-2]) & (inner > values[2:]) & (inner > floor)))


def _info_block(params: ch.GadcParams, times: np.ndarray) -> np.ndarray:
    """Per-point information measures on a block of times.

    Rows: system and environment entropies, system and environment l1
    coherences, negativity of the closed-form family, and the joint
    entropies of the unitary and the closed-form family.
    """
    rho_s = ch.system_states(params, times)
    rho_e = ch.environment_states(params, times)
    joint_closed = ch.joint_states_closed_form(params, times)
    return np.stack([
        von_neumann_entropies(rho_s), von_neumann_entropies(rho_e),
        l1_coherences(rho_s), l1_coherences(rho_e),
        negativities(joint_closed),
        von_neumann_entropies(ch.joint_states(params, times)),
        von_neumann_entropies(joint_closed)])


def run(config: ExperimentConfig) -> ExperimentResult:
    """Execute one configured run and verify its invariants.

    Raises :class:`NumericalError` if the static-Hamiltonian work bound,
    the global energy balance, or the first-law closure tolerance is
    violated; these are integrity checks, not physics outputs.
    """
    config.validate()
    params = config.params
    times = config.times
    h_s = ch.system_hamiltonian(params)
    h_e = ch.environment_hamiltonian(params)

    thermo_s = thermo_trajectory(
        h_s, functools.partial(ch.system_states, params), times,
        endpoint_subdivision=config.integrator.endpoint_subdivision,
        closure_tolerance=config.integrator.closure_tolerance)
    thermo_e = thermo_trajectory(
        h_e, functools.partial(ch.environment_states, params), times,
        endpoint_subdivision=config.integrator.endpoint_subdivision,
        closure_tolerance=config.integrator.closure_tolerance)

    work_max = max(float(np.max(np.abs(thermo_s.work))),
                   float(np.max(np.abs(thermo_e.work))))
    if work_max > WORK_STATIC_TOL:
        raise NumericalError(
            f"work {work_max:.3e} on a static Hamiltonian exceeds "
            f"{WORK_STATIC_TOL:.0e}")
    balance = float(np.max(np.abs(thermo_s.internal_energy_change
                                  + thermo_e.internal_energy_change)))
    if balance > ENERGY_BALANCE_TOL:
        raise NumericalError(
            f"system plus environment energy change {balance:.3e} exceeds "
            f"{ENERGY_BALANCE_TOL:.0e}; total energy must be conserved")

    asym = heat_asymmetry(thermo_s.heat, thermo_e.heat)

    info = None
    diagnostics = {}
    neg = None
    if config.outputs.info or config.outputs.diagnostics:
        blocks = np.array_split(times, -(-times.size // _INFO_BLOCK))
        (ent_s, ent_e, coh_s, coh_e, neg, ent_joint_unitary,
         ent_joint_closed) = np.concatenate(
             [_info_block(params, block) for block in blocks], axis=1)
        mi = ent_s + ent_e - ent_joint_unitary
        if config.outputs.info:
            info = InfoSeries(times=times, entropy_s=ent_s, entropy_e=ent_e,
                              coherence_s=coh_s, coherence_e=coh_e,
                              negativity=neg, mutual_information=mi,
                              heat_asymmetry=asym)
        if config.outputs.diagnostics:
            drift_closed = np.append(ent_joint_closed[::_DRIFT_SUBSAMPLE],
                                     ent_joint_closed[-1])
            peak_idx = int(np.argmax(neg))
            diagnostics = {
                "closure_system_max": thermo_s.max_closure_residual,
                "closure_environment_max": thermo_e.max_closure_residual,
                "work_system_max_abs": float(np.max(np.abs(thermo_s.work))),
                "work_environment_max_abs": float(np.max(np.abs(thermo_e.work))),
                "energy_balance_max": balance,
                "heat_system_final": float(thermo_s.heat[-1]),
                "heat_environment_final": float(thermo_e.heat[-1]),
                "heat_asymmetry_max": float(np.max(asym)),
                "route_consistency_max": _route_consistency(params),
                "joint_entropy_unitary_family": float(ent_joint_unitary[0]),
                "entropy_drift_unitary_family": float(
                    np.max(np.abs(ent_joint_unitary - ent_joint_unitary[0]))),
                "entropy_drift_closed_form_family": float(
                    np.max(np.abs(drift_closed - drift_closed[0]))),
                "negativity_peak": float(neg[peak_idx]),
                "negativity_peak_time": float(times[peak_idx]),
                "negativity_final": float(neg[-1]),
                "negativity_peak_count": float(
                    _count_peaks(neg, _NEGATIVITY_PEAK_FLOOR)),
                "negativity_unitary_family_final": negativity(
                    ch.joint_state(params, times[-1])),
                "entropy_rate_system_max": float(
                    np.max(np.abs(np.gradient(ent_s, times)))),
                "entropy_rate_mismatch_max": float(
                    np.max(np.abs(np.gradient(ent_s, times)
                                  + np.gradient(ent_e, times)))),
            }
            for n, dev in markov_convergence(params):
                diagnostics[f"markov_dev_n{n}"] = dev
            try:
                report = proportionality_report(
                    asym, neg, RATIO_DENOMINATOR_THRESHOLD)
                diagnostics["ratio_points"] = float(report.mask_count)
                diagnostics["ratio_mean"] = report.ratio_mean
                diagnostics["ratio_max_relative_spread"] = \
                    report.max_relative_spread
            except InputError:
                diagnostics["ratio_points"] = 0.0
                diagnostics["ratio_mean"] = float("nan")
                diagnostics["ratio_max_relative_spread"] = float("nan")

    return ExperimentResult(
        config=config, params=params, times=times,
        thermo_s=thermo_s if config.outputs.thermo else None,
        thermo_e=thermo_e if config.outputs.thermo else None,
        info=info, diagnostics=diagnostics)


@dataclass(frozen=True)
class SweepSummary:
    """One row of a parameter sweep."""

    alpha: float
    beta: float
    gamma: float
    t_max: float
    n_samples: int
    peak_negativity: float
    peak_negativity_time: float
    peak_heat_asymmetry: float
    heat_system_final: float
    heat_environment_final: float
    coherent_energy_max_abs: float
    ratio_mean: float
    ratio_max_relative_spread: float
    error: str = ""


_NAN_ROW_FIELDS = ("peak_negativity", "peak_negativity_time",
                   "peak_heat_asymmetry", "heat_system_final",
                   "heat_environment_final", "coherent_energy_max_abs",
                   "ratio_mean", "ratio_max_relative_spread")


def sweep(configs) -> list:
    """Run a sequence of configurations, collecting one summary row each.

    A configuration that fails its integrity checks contributes a row
    with its error message instead of aborting the remaining runs.
    """
    configs = list(configs)
    if not configs:
        raise InputError("sweep needs at least one configuration")
    rows = []
    for config in configs:
        base = dict(alpha=config.alpha, beta=config.beta, gamma=config.gamma,
                    t_max=config.t_max, n_samples=int(config.n_samples))
        try:
            result = run(config)
        except (InputError, NumericalError) as exc:
            nan = float("nan")
            rows.append(SweepSummary(**base,
                                     **{f: nan for f in _NAN_ROW_FIELDS},
                                     error=str(exc)))
            continue
        d = result.diagnostics
        rows.append(SweepSummary(
            **base,
            peak_negativity=d["negativity_peak"],
            peak_negativity_time=d["negativity_peak_time"],
            peak_heat_asymmetry=d["heat_asymmetry_max"],
            heat_system_final=d["heat_system_final"],
            heat_environment_final=d["heat_environment_final"],
            coherent_energy_max_abs=float(
                np.max(np.abs(result.thermo_s.coherent_energy))),
            ratio_mean=d["ratio_mean"],
            ratio_max_relative_spread=d["ratio_max_relative_spread"]))
    return rows
