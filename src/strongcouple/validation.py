"""Self-checks of the model: route consistency, Markov limit, and suites.

These checks do not depend on a run's grid, so they run once, in
``strongcouple validate``, and not inside :func:`strongcouple.run`.
:func:`run_suites` yields one ``(name, ok, detail)`` row per suite. The
randomised checks draw from ``random.Random`` with fixed seeds, which
keeps them reproducible without loading ``numpy.random``.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from . import channels as ch
from .errors import InputError, NumericalError, StrongcoupleError
from .experiment import ExperimentConfig, run
from .firstlaw import qubit_thermo_trajectory, thermo_trajectory
from .infomeasures import negativities, proportionality_report
from .spectra import DensityOperator, eig_hermitian, partial_trace


def route_consistency(n_triples: int = 20, seed: int = 0) -> float:
    """Largest pairwise deviation between the three single-step routes.

    Draws random ``(alpha, w0, p)`` triples and compares the Kraus map,
    the unitary dilation plus partial trace, and the closed form at the
    matching time ``t = -log(1 - p)`` (decay rate one). Deterministic for
    a fixed seed.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_triples):
        a = rng.uniform(0.0, 1.0)
        w0 = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.0, 0.999)
        pr = ch.GadcParams(alpha=a, w0=w0, gamma_rate=1.0)
        t = -math.log1p(-p)
        via_kraus = ch.apply_channel(ch.system_kraus(pr, p),
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
        # isfinite first: int() of nan or inf raises
        if not (math.isfinite(n) and int(n) == n and n >= 1):
            raise InputError(f"step counts must be positive integers, got {n}")
    target = ch.system_state(params, t).matrix
    rows = []
    for n in counts:
        approx = ch.iterate_map_check(params, t, int(n)).matrix
        rows.append((int(n), float(np.max(np.abs(approx - target)))))
    return rows


def _random_params(rng: random.Random) -> tuple:
    """Random parameters and a decay probability ``p`` in [0, 1]."""
    params = ch.GadcParams(alpha=rng.uniform(0.0, 1.0),
                           w0=rng.uniform(0.0, 1.0))
    return params, rng.uniform(0.0, 1.0)


def _suite_kraus_completeness():
    worst = 0.0
    rng = random.Random(7)
    for _ in range(25):
        pr, p = _random_params(rng)
        for channel in (ch.system_kraus(pr, p), ch.environment_kraus(pr, p)):
            total = sum(k.conj().T @ k for k in channel.operators)
            worst = max(worst, float(np.max(np.abs(total - np.eye(2)))))
    return worst <= 1e-12, f"max |sum K^+K - I| = {worst:.2e}"


def _suite_channel_preserves_states():
    rng = random.Random(11)
    worst_trace, worst_eig = 0.0, 0.0
    for _ in range(50):
        pr, p = _random_params(rng)
        m = np.array([[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                       for _ in range(2)] for _ in range(2)])
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        out = ch.apply_channel(ch.system_kraus(pr, p), DensityOperator(rho))
        worst_trace = max(worst_trace,
                          abs(float(np.trace(out.matrix).real) - 1.0))
        worst_eig = max(worst_eig,
                        max(0.0, -float(eig_hermitian(out).eigenvalues[0])))
    ok = worst_trace <= 1e-12 and worst_eig <= 1e-12
    return ok, f"trace dev {worst_trace:.2e}, negative part {worst_eig:.2e}"


def _suite_route_consistency():
    worst = route_consistency()
    return worst <= 1e-12, f"max route deviation {worst:.2e}"


def _suite_marginals():
    """Exact marginals of the closed-form family, its positivity, and its
    closed-form negativity.

    A run checks the family's stacks for Hermiticity and unit trace only:
    it is the congruence ``M rho_0 M^T`` of a positive state, checked
    here entrywise over random ``(alpha, w0, p)`` triples. A run takes
    the family's negativity from the partial transpose's quartic; it is
    compared here with the eigensolve route on the default grid and at
    the same triples.
    """
    config = ExperimentConfig()
    pr, times = config.params, config.times
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 41):
        joint = ch.joint_state_closed_form(pr, t)
        ds = partial_trace(joint, keep=0, dims=(2, 2)).matrix \
            - ch.system_state(pr, t).matrix
        de = partial_trace(joint, keep=1, dims=(2, 2)).matrix \
            - ch.environment_state(pr, t).matrix
        worst = max(worst, float(np.max(np.abs(ds))),
                    float(np.max(np.abs(de))))
    eigen = negativities(ch.joint_states_closed_form(pr, times))
    worst_negativity = float(np.max(np.abs(
        ch.joint_negativities_closed_form(pr, times) - eigen)))
    rng = random.Random(13)
    worst_congruence = 0.0
    for _ in range(25):
        pr, p = _random_params(rng)
        m = ch.gadc_coupling_matrix(p)
        direct = m @ ch.joint_initial_state(pr).matrix @ m.T
        closed = ch._closed_form_joint_matrices(pr, 1.0 - p, p)
        worst_congruence = max(worst_congruence,
                               float(np.max(np.abs(direct - closed))))
        at_p = ch.joint_negativities_closed_form(pr, [-math.log1p(-p)])
        worst_negativity = max(worst_negativity,
                               abs(float(at_p[0] - negativities(closed))))
    ok = (worst <= 1e-12 and worst_congruence <= 1e-12
          and worst_negativity <= 1e-14)
    return ok, (f"max marginal deviation {worst:.2e}, "
                f"max |M rho_0 M^T - closed form| {worst_congruence:.2e}, "
                f"max negativity gap to the eigensolve "
                f"{worst_negativity:.2e}")


def _suite_unitarity():
    worst_u = 0.0
    for p in np.linspace(0.0, 1.0, 100):
        u = ch.gadc_unitary(p)
        worst_u = max(worst_u,
                      float(np.max(np.abs(u @ u.conj().T - np.eye(4)))))
    pr = ExperimentConfig().params
    lam0 = eig_hermitian(ch.joint_state(pr, 0.0)).eigenvalues
    drift = max(float(np.max(np.abs(
        eig_hermitian(ch.joint_state(pr, t)).eigenvalues - lam0)))
        for t in np.linspace(0.0, 10.0, 41))
    ok = worst_u <= 1e-12 and drift <= 1e-12
    return ok, f"unitarity dev {worst_u:.2e}, joint spectrum drift {drift:.2e}"


@functools.lru_cache(maxsize=1)
def _default_run():
    """One shared default run for the suites that inspect it.

    The run is deterministic, so sharing it between suites changes
    nothing but the wall time.
    """
    return run(ExperimentConfig())


def _suite_first_law():
    result = _default_run()
    d = result.diagnostics
    ok = (d["closure_system_max"] <= 1e-6
          and d["closure_environment_max"] <= 1e-4
          and d["work_system_max_abs"] <= 1e-12
          and d["energy_balance_max"] <= 1e-10)
    return ok, (f"closure {d['closure_system_max']:.2e}/"
                f"{d['closure_environment_max']:.2e}, "
                f"work {d['work_system_max_abs']:.2e}, "
                f"balance {d['energy_balance_max']:.2e}")


def _suite_closure_refinement():
    """The generic route converges at second order, to the qubit route.

    On the environment side, the generic route's closure residual and
    its heat's distance from the exact qubit route both fall about
    fourfold when the grid is halved.
    """
    pr = ExperimentConfig().params
    h = ch.QUBIT_HAMILTONIAN
    states = functools.partial(ch.environment_states, pr)
    residuals, gaps = [], []
    for n in (1001, 2001):
        times = np.linspace(0.0, 10.0, n)
        traj = thermo_trajectory(h, states, times)
        exact = qubit_thermo_trajectory(h, ch.environment_bloch(pr, times))
        residuals.append(traj.max_closure_residual)
        gaps.append(float(np.max(np.abs(traj.heat - exact.heat))))
    ratio = residuals[0] / residuals[1]
    gap_ratio = gaps[0] / gaps[1]
    ok = 3.0 <= ratio <= 5.0 and gaps[1] <= 1e-5 and 3.0 <= gap_ratio <= 5.0
    return ok, (
        f"residual ratio {ratio:.2f} on grid halving "
        f"({residuals[0]:.2e} -> {residuals[1]:.2e}); heat gap to the "
        f"qubit route {gaps[0]:.2e} -> {gaps[1]:.2e}, ratio {gap_ratio:.2f}")


def _suite_mutation_control():
    """Negative control: a deliberately mismatched dilation must be caught.

    Replacing the decay probability by its complement keeps the dilation
    unitary but breaks agreement with the Kraus route, so the route
    comparison must report a large deviation. Passing here means the
    consistency checks have teeth.
    """
    pr, p = ch.GadcParams(alpha=0.6, w0=0.7), 0.3
    u = ch.gadc_unitary(1.0 - p)
    unitary_dev = float(np.max(np.abs(u @ u.conj().T - np.eye(4))))
    joint = u @ ch.joint_initial_state(pr).matrix @ u.conj().T
    mutated = partial_trace(DensityOperator(joint), keep=0, dims=(2, 2))
    honest = ch.apply_channel(ch.system_kraus(pr, p),
                              ch.system_initial_state(pr))
    dev = float(np.max(np.abs(mutated.matrix - honest.matrix)))
    ok = unitary_dev <= 1e-12 and dev > 1e-2
    return ok, (f"mutated route still unitary ({unitary_dev:.2e}) "
                f"but deviates by {dev:.3f} as required")


def _suite_closure_gate():
    """Negative control: a coarse grid must trip the closure tolerance."""
    pr = ExperimentConfig().params
    try:
        thermo_trajectory(ch.QUBIT_HAMILTONIAN,
                          functools.partial(ch.environment_states, pr),
                          np.linspace(0.0, 10.0, 101),
                          closure_tolerance=1e-8)
    except NumericalError as exc:
        return True, f"coarse grid rejected as expected ({exc})"
    return False, "coarse grid with tight tolerance was not rejected"


def _suite_reference_values():
    """Characteristic numbers of the default configuration.

    Anchors: the thermal ground population ``1/(1 + e^-1)``, its binary
    entropy as the conserved joint entropy, and the long-time system
    heat, which the closed forms put near ``0.1035`` for this setup.
    """
    result = _default_run()
    d = result.diagnostics
    w0 = result.params.w0
    q_final = d["heat_system_final"]
    s_joint = d["joint_entropy_unitary_family"]
    ok = (abs(w0 - 0.7310585786) <= 1e-9
          and abs(q_final - 0.1035) <= 1e-3
          and abs(s_joint - 0.8399) <= 1e-3)
    return ok, (f"w0 = {w0:.8f}, final Q_S = {q_final:.4f}, "
                f"joint entropy = {s_joint:.4f} bits")


def _suite_negativity_shape():
    result = _default_run()
    d = result.diagnostics
    neg0 = float(result.info.negativity[0])
    ok = (neg0 <= 1e-12
          and d["negativity_peak_count"] == 1.0
          and d["negativity_final"] <= 1e-3
          and 0.0 < d["negativity_peak_time"] < result.config.t_max)
    return ok, (f"N(0) = {neg0:.1e}, single peak {d['negativity_peak']:.4f} "
                f"at t = {d['negativity_peak_time']:.3f}, "
                f"N(t_max) = {d['negativity_final']:.1e}")


def _suite_proportionality():
    result = _default_run()
    info = result.info
    report = proportionality_report(info.heat_asymmetry, info.negativity,
                                    5e-3)
    ok = report.max_relative_spread <= 0.05
    return ok, (f"ratio mean {report.ratio_mean:.4f}, spread "
                f"{100 * report.max_relative_spread:.2f}% over "
                f"{report.mask_count} points")


def _suite_markov():
    rows = markov_convergence(ExperimentConfig().params)
    devs = [dev for _, dev in rows]
    monotone = all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
    ok = monotone and devs[-1] <= 1e-3
    detail = ", ".join(f"n={n}: {dev:.2e}" for n, dev in rows)
    return ok, detail


_SUITES = [
    ("kraus completeness", _suite_kraus_completeness),
    ("channel preserves states", _suite_channel_preserves_states),
    ("route consistency", _suite_route_consistency),
    ("closed-form marginals", _suite_marginals),
    ("dilation unitarity and spectrum", _suite_unitarity),
    ("first-law closure", _suite_first_law),
    ("closure refinement rate", _suite_closure_refinement),
    ("mutation control", _suite_mutation_control),
    ("closure gate control", _suite_closure_gate),
    ("reference values", _suite_reference_values),
]

_STRICT_SUITES = [
    ("negativity shape", _suite_negativity_shape),
    ("asymmetry-negativity proportionality", _suite_proportionality),
    ("markov limit", _suite_markov),
]


def run_suites(strict: bool = False):
    """Run the plain suite list, plus the strict suites when ``strict``.

    Yields one ``(name, ok, detail)`` row per suite as it finishes. A
    suite that raises a :class:`StrongcoupleError` yields a failed row
    naming the exception.
    """
    for name, fn in _SUITES + (_STRICT_SUITES if strict else []):
        try:
            ok, detail = fn()
        except StrongcoupleError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, ok, detail
