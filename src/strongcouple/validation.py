"""Self-checks of the model: route consistency, Markov limit, and suites.

These checks do not depend on a run's grid, so they run once, in
``strongcouple validate``, and not inside :func:`strongcouple.run`.
:func:`run_suites` yields one ``(name, ok, detail)`` row per suite. The
randomised checks draw from ``random.Random`` with fixed seeds, which
keeps them reproducible without loading ``numpy.random``.

Each randomised suite draws all of its numbers first, in the order a
draw-by-draw loop would, and then evaluates each route once, on the
stack of its draws: the parameter sets become the ``(R, 1)`` columns of
:mod:`strongcouple.channels`, the decay probabilities and times an
``(R, 1)`` column, and the builders broadcast over both. A stacked
route gives each draw the numbers it gives that draw alone, bit for
bit, so the suites' maxima, and their bounds, are those of the loop.
The Markov limit composes the ``n`` steps of a single channel as the
``n``-th power of its transfer matrix.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from . import channels as ch
from .errors import InputError, NumericalError, StrongcoupleError
from .experiment import (ENERGY_BALANCE_TOL, WORK_STATIC_TOL,
                         ExperimentConfig, run)
from .firstlaw import (QUBIT_CLOSURE_TOLERANCE, qubit_thermo_trajectory,
                       thermo_trajectory)
from .infomeasures import negativities
from .spectra import partial_trace

# States of the default grid per stack in the negativity check of the
# marginals suite.
_NEGATIVITY_BLOCK = 256


def route_consistency() -> float:
    """Largest pairwise deviation between the three single-step routes.

    Draws 20 random ``(alpha, w0, p)`` triples from a fixed seed and
    compares the Kraus map, the unitary dilation plus partial trace, and
    the closed form at the matching time ``t = -log(1 - p)`` (decay rate
    one). Each route runs once, on the stack of the 20 triples.
    """
    rng = random.Random(0)
    draws, times = [], []
    for _ in range(20):
        a = rng.uniform(0.0, 1.0)
        w0 = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.0, 0.999)
        draws.append((ch.GadcParams(alpha=a, w0=w0, gamma_rate=1.0), p))
        times.append(-math.log1p(-p))
    pr, p = _stacked(draws)
    via_kraus = ch.apply_channel(ch.system_kraus(pr, p),
                                 ch.system_initial_state(pr))
    via_dilation = ch.system_state_from_dilation(pr, p)
    via_closed = ch.system_states(pr, _column(times))
    return max(float(np.max(np.abs(via_kraus - via_dilation))),
               float(np.max(np.abs(via_kraus - via_closed))),
               float(np.max(np.abs(via_dilation - via_closed))))


def markov_convergence(params: ch.GadcParams, t: float = 1.0,
                       step_counts=(10, 100, 1000)) -> list:
    """Deviation of the composed single-step channel from the closed form.

    Returns ``(n, deviation)`` pairs; the deviation shrinks as ``1/n``
    because the per-step probability ``gamma t / n`` linearizes the
    exponential decay factor.
    """
    counts = list(step_counts) if np.iterable(step_counts) else []
    if not counts:
        raise InputError(
            f"step_counts must be a nonempty sequence, got {step_counts!r}")
    target = ch.system_states(params, t)
    rows = []
    for n in counts:
        # iterate_map_check owns the check of each count
        approx = ch.iterate_map_check(params, t, n)
        rows.append((int(n), float(np.max(np.abs(approx - target)))))
    return rows


def _random_params(rng: random.Random) -> tuple:
    """Random parameters and a decay probability ``p`` in [0, 1]."""
    params = ch.GadcParams(alpha=rng.uniform(0.0, 1.0),
                           w0=rng.uniform(0.0, 1.0))
    return params, rng.uniform(0.0, 1.0)


def _column(values) -> np.ndarray:
    """``values``, one per draw, as an ``(R, 1)`` column."""
    return np.array(values, dtype=float)[:, None]


def _stacked(draws) -> tuple:
    """``(params, p)`` draws as ``(R, 1)`` parameter columns and ``p``.

    The builders of :mod:`strongcouple.channels` broadcast over both, so
    each route evaluates all ``R`` draws in one call, each draw with the
    arithmetic it has alone.
    """
    params, ps = zip(*draws)
    return ch._columns(params), _column(ps)


def _suite_kraus_completeness():
    rng = random.Random(7)
    pr, p = _stacked([_random_params(rng) for _ in range(25)])
    worst = max(ch._completeness_gap(ch.system_kraus(pr, p)),
                ch._completeness_gap(ch.environment_kraus(pr, p)))
    return worst <= 1e-12, f"max |sum K^+K - I| = {worst:.2e}"


def _suite_channel_preserves_states():
    rng = random.Random(11)
    draws, inputs = [], []
    for _ in range(50):
        draws.append(_random_params(rng))
        inputs.append([[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                        for _ in range(2)] for _ in range(2)])
    pr, p = _stacked(draws)
    m = np.array(inputs)[:, None]
    rho = m @ m.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    out = ch.apply_channel(ch.system_kraus(pr, p), rho)
    worst_trace = float(np.max(np.abs(
        np.trace(out, axis1=-2, axis2=-1).real - 1.0)))
    worst_eig = max(0.0, -float(np.linalg.eigvalsh(out)[..., 0].min()))
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
    the family's negativity from the partial transpose's quartic; the
    series the default run publishes is compared here with the
    eigensolve route on its grid, and the quartic's root with it at the
    same triples. The grid is checked ``_NEGATIVITY_BLOCK`` states at a
    time, so the suite's memory does not grow with the grid; the states,
    their eigensolves and the largest gap are those of one whole stack.
    Each joint stack is built by the unchecked closed form on its own
    decay grid and checked once, by the consumer that takes it:
    ``partial_trace`` or ``negativities``.
    """
    result = _default_run()
    pr, times = result.params, result.times
    grid = ch._grid(pr, np.linspace(0.0, 10.0, 41))
    joint = ch._closed_form_joint_matrices(pr, grid.decay, grid.lose)
    marginals = [ch.system_states(pr, grid), ch.environment_states(pr, grid)]
    worst = float(np.max(np.abs(partial_trace(joint, (0, 1)) - marginals)))
    gaps = []
    for i in range(0, times.size, _NEGATIVITY_BLOCK):
        block = slice(i, i + _NEGATIVITY_BLOCK)
        _, g, d = ch._grid(pr, times[block])
        eigen = negativities(ch._closed_form_joint_matrices(pr, g, d))
        gaps.append(np.max(np.abs(result.info.negativity[block] - eigen)))
    rng = random.Random(13)
    draws = [_random_params(rng) for _ in range(25)]
    pr, p = _stacked(draws)
    m = ch.gadc_coupling_matrix(p)
    direct = m @ ch.joint_initial_state(pr) @ m.swapaxes(-1, -2)
    closed = ch._closed_form_joint_matrices(pr, 1.0 - p, p)
    worst_congruence = float(np.max(np.abs(direct - closed)))
    at_p = ch.joint_negativities_closed_form(
        pr, _column([-math.log1p(-q) for _, q in draws]))
    gaps.append(np.max(np.abs(at_p - negativities(closed))))
    # np.max, not max: it keeps a NaN gap wherever it falls, so that it
    # fails the bound
    worst_negativity = float(np.max(gaps))
    ok = (worst <= 1e-12 and worst_congruence <= 1e-12
          and worst_negativity <= 1e-14)
    return ok, (f"max marginal deviation {worst:.2e}, "
                f"max |M rho_0 M^T - closed form| {worst_congruence:.2e}, "
                f"max negativity gap to the eigensolve "
                f"{worst_negativity:.2e}")


def _suite_unitarity():
    u = ch.gadc_unitary(np.linspace(0.0, 1.0, 100))
    worst_u = float(np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(4))))
    pr = ExperimentConfig().params
    lam = np.linalg.eigvalsh(ch.joint_states(pr, np.linspace(0.0, 10.0, 41)))
    drift = float(np.max(np.abs(lam - lam[0])))
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
    """The default run's first-law ledgers, held to the bounds of the
    run's own gates: the qubit route's closure on both sides, zero work
    on the static Hamiltonians and a conserved total energy."""
    d = _default_run().diagnostics
    ok = (d["closure_system_max"] <= QUBIT_CLOSURE_TOLERANCE
          and d["closure_environment_max"] <= QUBIT_CLOSURE_TOLERANCE
          and d["work_system_max_abs"] <= WORK_STATIC_TOL
          and d["work_environment_max_abs"] <= WORK_STATIC_TOL
          and d["energy_balance_max"] <= ENERGY_BALANCE_TOL)
    return ok, (f"closure {d['closure_system_max']:.2e}/"
                f"{d['closure_environment_max']:.2e}, "
                f"work {d['work_system_max_abs']:.2e}, "
                f"balance {d['energy_balance_max']:.2e}")


def _refinement_step(pr, n):
    """The generic route's environment closure residual on ``n`` points
    of ``[0, 10]``, and its heat's largest distance from the qubit
    route's; only these two numbers outlive the call."""
    grid = ch._grid(pr, np.linspace(0.0, 10.0, n))
    traj = thermo_trajectory(
        ch._qubit_matrices(pr, grid.lose, grid.decay), grid.times)
    exact = qubit_thermo_trajectory(ch.environment_bloch(pr, grid))
    return (traj.max_closure_residual,
            float(np.max(np.abs(traj.heat - exact.heat))))


def _suite_closure_refinement():
    """The generic route converges at second order, to the qubit route.

    On the environment side, the generic route's closure residual and
    its heat's distance from the exact qubit route both fall about
    fourfold when the grid is halved. The generic route checks the
    environment states it takes, so they are built unchecked, on the
    decay grid the qubit route reads too. Each grid is evaluated by
    :func:`_refinement_step`, so the coarse grid's trajectories are gone
    before the fine grid's are built.
    """
    pr = ExperimentConfig().params
    residuals, gaps = zip(*(_refinement_step(pr, n) for n in (1001, 2001)))
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
    mutated = ch.system_state_from_dilation(pr, 1.0 - p)
    honest = ch.apply_channel(ch.system_kraus(pr, p),
                              ch.system_initial_state(pr))
    dev = float(np.max(np.abs(mutated - honest)))
    ok = unitary_dev <= 1e-12 and dev > 1e-2
    return ok, (f"mutated route still unitary ({unitary_dev:.2e}) "
                f"but deviates by {dev:.3f} as required")


def _suite_closure_gate():
    """Negative control: a coarse grid must trip the closure tolerance.

    The environment states are built unchecked: the generic route checks
    the stack it takes.
    """
    pr = ExperimentConfig().params
    times, g, d = ch._grid(pr, np.linspace(0.0, 10.0, 101))
    try:
        thermo_trajectory(ch._qubit_matrices(pr, d, g), times,
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
    d = _default_run().diagnostics
    spread = d["ratio_max_relative_spread"]
    ok = spread <= 0.05
    return ok, (f"ratio mean {d['ratio_mean']:.4f}, spread "
                f"{100 * spread:.2f}% over {d['ratio_points']:.0f} points")


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
