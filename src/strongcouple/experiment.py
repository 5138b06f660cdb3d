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
comes from the unitary family. With a
pure initial system and a unitary dilation, that family keeps the joint
spectrum ``{w0, w1, 0, 0}``, so a run takes ``S_se = S[rho_e(0)]`` in
closed form. Mutual information combines the two accordingly,
``S_s + S_e - S_se``, with the marginal entropies from the closed forms.
The diagnostics record ``S_se`` and the entropy drift of the closed-form
family, whose rank-two spectrum is also closed-form
(:func:`strongcouple.channels.joint_radii_closed_form`); ``validate`` and
the tests check that ``S_se`` is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .errors import InputError, NumericalError
# thermo_trajectory, the generic route, is not called here; it stays bound
# because benchmarks/tests/test_bench_tracer.py checks that the layer
# tracer wraps it in this module
from .firstlaw import (ThermoTrajectory, qubit_thermo_trajectory,  # noqa: F401
                       thermo_trajectory)
from .infomeasures import (InfoSeries, bloch_entropies, heat_asymmetry,
                           negativity, proportionality_report,
                           von_neumann_entropy)

RATIO_DENOMINATOR_THRESHOLD = 5e-3
WORK_STATIC_TOL = 1e-12
ENERGY_BALANCE_TOL = 1e-10
NEGATIVITY_SPOT_TOL = 1e-10
_NEGATIVITY_PEAK_FLOOR = 1e-6


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

    def validate(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.beta > 0.0:
            raise InputError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.gamma < math.inf:
            raise InputError(
                f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 < self.t_max < math.inf:
            raise InputError(
                f"t_max must be positive and finite, got {self.t_max}")
        # isfinite first: int() of nan or inf raises
        if not (math.isfinite(self.n_samples)
                and int(self.n_samples) == self.n_samples
                and self.n_samples >= 3):
            raise InputError(
                f"n_samples must be an integer >= 3, got {self.n_samples}")

    @property
    def params(self) -> ch.GadcParams:
        return ch.GadcParams.from_inverse_temperature(
            alpha=self.alpha, beta=self.beta, gamma_rate=self.gamma)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, int(self.n_samples))


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


def _count_peaks(values: np.ndarray, floor: float) -> int:
    inner = values[1:-1]
    return int(np.count_nonzero(
        (inner > values[:-2]) & (inner > values[2:]) & (inner > floor)))


def run(config: ExperimentConfig) -> ExperimentResult:
    """Execute one configured run and verify its invariants.

    Raises :class:`NumericalError` if the static-Hamiltonian work bound,
    the global energy balance, the first-law closure tolerance, the
    convergence of the closed-form negativity, or its agreement with the
    eigensolve at the peak is violated; these are integrity checks, not
    physics outputs.
    """
    config.validate()
    params = config.params
    times = config.times
    bloch_s = ch.system_bloch(params, times)
    bloch_e = ch.environment_bloch(params, times)

    thermo_s = qubit_thermo_trajectory(ch.QUBIT_HAMILTONIAN, bloch_s)
    thermo_e = qubit_thermo_trajectory(ch.QUBIT_HAMILTONIAN, bloch_e)

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

    ent_s = bloch_entropies(bloch_s.radius)
    ent_e = bloch_entropies(bloch_e.radius)
    coh_s = np.sqrt(bloch_s.x2)
    coh_e = np.sqrt(bloch_e.x2)
    neg = ch.joint_negativities_closed_form(params, times)
    ent_joint = von_neumann_entropy(ch.environment_initial_state(params))
    info = InfoSeries(times=times, entropy_s=ent_s, entropy_e=ent_e,
                      coherence_s=coh_s, coherence_e=coh_e, negativity=neg,
                      mutual_information=ent_s + ent_e - ent_joint,
                      heat_asymmetry=asym)

    drift_closed = bloch_entropies(ch.joint_radii_closed_form(params, times))
    peak_idx = int(np.argmax(neg))
    # spot check of the closed form against the eigensolve route, at the
    # one point where the negativity matters most
    spot = negativity(ch.joint_state_closed_form(params, times[peak_idx]))
    if abs(spot - neg[peak_idx]) > NEGATIVITY_SPOT_TOL:
        raise NumericalError(
            f"negativity routes disagree by {abs(spot - neg[peak_idx]):.3e} "
            f"at the peak t = {times[peak_idx]:.6g} (closed form "
            f"{neg[peak_idx]:.6e}, eigensolve {spot:.6e}); bound "
            f"{NEGATIVITY_SPOT_TOL:.0e}")
    diagnostics = {
        "closure_system_max": thermo_s.max_closure_residual,
        "closure_environment_max": thermo_e.max_closure_residual,
        "work_system_max_abs": float(np.max(np.abs(thermo_s.work))),
        "work_environment_max_abs": float(np.max(np.abs(thermo_e.work))),
        "energy_balance_max": balance,
        "heat_system_final": float(thermo_s.heat[-1]),
        "heat_environment_final": float(thermo_e.heat[-1]),
        "heat_asymmetry_max": float(np.max(asym)),
        "joint_entropy_unitary_family": ent_joint,
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
    try:
        report = proportionality_report(asym, neg, RATIO_DENOMINATOR_THRESHOLD)
        diagnostics["ratio_points"] = float(report.mask_count)
        diagnostics["ratio_mean"] = report.ratio_mean
        diagnostics["ratio_max_relative_spread"] = report.max_relative_spread
    except InputError:
        diagnostics["ratio_points"] = 0.0
        diagnostics["ratio_mean"] = float("nan")
        diagnostics["ratio_max_relative_spread"] = float("nan")

    return ExperimentResult(config=config, params=params, times=times,
                            thermo_s=thermo_s, thermo_e=thermo_e, info=info,
                            diagnostics=diagnostics)


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
                    t_max=config.t_max, n_samples=config.n_samples)
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
