"""First-law decomposition of internal energy change along a trajectory.

The internal energy ``U(t) = tr(H(t) rho(t))`` is split into three
cumulative contributions by writing both operators in their instantaneous
eigenbases, ``H = sum_n E_n |n><n|`` and ``rho = sum_k r_k |k><k|``, with
``P_nk = |<n|k>|^2``:

* work       ``W(t) = sum_nk int r_k P_nk dE_n``
* heat       ``Q(t) = sum_nk int E_n P_nk dr_k``
* coherent   ``C(t) = sum_nk int E_n r_k dP_nk``

The product rule gives ``dU = dW + dQ + dC`` identically, so the numerical
closure residual ``|Delta U - (W + Q + C)|`` measures only discretization
error and must shrink as the grid is refined. The work term tracks
spectrum changes of the Hamiltonian (zero when it is static), the heat
term tracks population changes, and the coherent term tracks rotation of
the state eigenbasis relative to the energy eigenbasis.

Time is an array axis. :func:`thermo_trajectory` calls a state builder
once on its whole grid, validates and diagonalizes the ``(T, n, n)``
stack with one :func:`~strongcouple.spectra.density_eigh` call and
integrates on the stacked spectra. :func:`sample_trajectory` stacks
per-instant states and runs the same core, then wraps its rows in
:class:`TrajectorySample`.

Branches are identified across time steps by greedy eigenvector overlap
matching, for all steps at once: the moduli of the overlaps between
consecutive untracked eigenbases come from one batched product, the
greedy pass runs over the ``n`` branches for every step together, and
the per-step permutations are composed by a prefix scan. This equals a
step-by-step pass over the already tracked basis. The modulus matrix of
a unitary has unit rows and columns, so an entry above ``1/sqrt(2)`` is
the only such entry in its row and its column; the greedy pass picks the
same set of entries whatever the order of the rows, and fails at the same
step with the same best overlap. Derivatives use second-order central
differences on the interior (``numpy.gradient``) and the cumulative
integrals use the trapezoid rule on the same grid.

Qubit route
-----------
For a qubit ``rho = (1 + r . sigma)/2`` with a static ``H = diag(E0,
E1)``, the populations are ``(1 +- |r|)/2`` and the overlaps of their
eigenvectors with the levels follow from ``n_z = z / |r|``, so

* ``dQ = (E0 - E1)/2 n_z d|r| = (E0 - E1)/2 z dq / (2 q)``, ``q = |r|^2``
* ``dC = (E0 - E1)/2 |r| dn_z``, and ``dQ + dC = dU = (E0 - E1)/2 dz``

with no eigensolve and no branch to track. When ``z`` and ``x^2`` are
affine in a parameter ``g`` (see :class:`strongcouple.channels.BlochSeries`),
``q`` is quadratic in ``g`` and the heat integral has an elementary
antiderivative: with ``r_i`` the roots of ``q``, partial fractions give
``I(g) = z1 g + 1/2 sum_i Re[z(r_i) log(g - r_i)]``, a log plus an arctan
for a complex pair. :func:`qubit_thermo_trajectory` evaluates it exactly
on the grid; ``C`` is the rest of ``Delta U``. Since ``Q + C = Delta U``
holds by construction there, its closure residual cannot see an error in
the split itself; the tests and ``validate`` check the split against
adaptive quadrature, frozen high-precision values and the generic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError, TrackingError
from .spectra import (SpectralDecomposition, density_eigh, eigh_stack,
                      hermitian_stack)

_TRACK_MIN_OVERLAP = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class TrajectorySample:
    """Spectral data of Hamiltonian and state at one instant.

    Both spectra are full :class:`SpectralDecomposition` objects so the
    branches stay inspectable; ``overlaps[n, k]`` is ``|<n|k>|^2``
    between energy branch ``n`` and population branch ``k``, and its
    rows and columns each sum to one.
    """

    t: float
    hamiltonian_spectrum: SpectralDecomposition
    state_spectrum: SpectralDecomposition
    overlaps: np.ndarray


@dataclass(frozen=True)
class ThermoTrajectory:
    """Cumulative first-law bookkeeping on a time grid.

    All arrays share the grid ``times``; energy arrays start at zero.
    ``closure_residual[i] = |internal_energy_change[i] - work[i] -
    heat[i] - coherent_energy[i]|``. On the generic route of
    :func:`thermo_trajectory` it is the discretization error of the
    split; on :func:`qubit_thermo_trajectory` it compares the Bloch
    coefficients with the state matrices.
    """

    times: np.ndarray
    work: np.ndarray
    heat: np.ndarray
    coherent_energy: np.ndarray
    internal_energy_change: np.ndarray
    closure_residual: np.ndarray
    closure_tolerance: float

    @property
    def max_closure_residual(self) -> float:
        return float(np.max(self.closure_residual))


def _branch_permutations(vectors, times=None) -> np.ndarray:
    """Column order that makes eigenbranches continuous along a stack.

    ``vectors`` has shape ``(T, n, n)``. Row ``t`` of the result lists,
    for each branch, its column in ``vectors[t]``; row 0 is the identity.
    Raises :class:`TrackingError` at the first step whose greedy matching
    finds no overlap above ``1/sqrt(2)`` for some branch.
    """
    steps, dim = vectors.shape[0], vectors.shape[-1]
    pairs = steps - 1
    rows = np.arange(pairs)
    work = np.abs(vectors[:-1].conj().swapaxes(-1, -2) @ vectors[1:])
    # matched[s, a] = b: column a at step s continues as column b at s + 1
    matched = np.empty((pairs, dim), dtype=int)
    best = np.full(pairs, np.inf)
    for _ in range(dim):
        flat = np.argmax(work.reshape(pairs, dim * dim), axis=1)
        i, j = np.divmod(flat, dim)
        top = work[rows, i, j]
        best = np.where(np.isinf(best) & (top <= _TRACK_MIN_OVERLAP),
                        top, best)
        matched[rows, i] = j
        work[rows, i, :] = -1.0
        work[rows, :, j] = -1.0
    failed = np.flatnonzero(np.isfinite(best))
    if failed.size:
        step = int(failed[0]) + 1
        where = f" (t = {times[step]:.6g})" if times is not None else ""
        raise TrackingError(
            f"branch matching ambiguous at step {step}{where}: best overlap "
            f"{best[step - 1]:.4f} <= {_TRACK_MIN_OVERLAP:.4f}; "
            "refine the time grid")
    # perm[t] = matched[t - 1][perm[t - 1]], composed by a prefix scan
    perm = np.empty((steps, dim), dtype=int)
    perm[0] = np.arange(dim)
    perm[1:] = matched
    shift = 1
    while shift < steps:
        perm[shift:] = np.take_along_axis(perm[shift:], perm[:-shift], axis=1)
        shift *= 2
    return perm


def _track(eigenvalues, eigenvectors, times=None):
    """Eigenvalue and eigenvector stacks reordered for branch continuity."""
    perm = _branch_permutations(eigenvectors, times)
    return (np.take_along_axis(eigenvalues, perm, axis=1),
            np.take_along_axis(eigenvectors, perm[:, None, :], axis=2))


def eigen_track(decompositions) -> list:
    """Reorder eigenbranches for continuity along a sequence.

    Takes a sequence of :class:`SpectralDecomposition` and returns a new
    list in which branch ``k`` at every step is the continuation of
    branch ``k`` at the previous step, found by greedy maximum
    eigenvector overlap. Raises :class:`TrackingError` when the best
    available overlap for some branch drops to ``1/sqrt(2)`` or below,
    which signals a genuinely ambiguous crossing on too coarse a grid.
    """
    decomps = list(decompositions)
    if not decomps:
        raise InputError("eigen_track needs at least one decomposition")
    lam, vec = _track(np.stack([d.eigenvalues for d in decomps]),
                      np.stack([d.eigenvectors for d in decomps]))
    return [SpectralDecomposition(eigenvalues=l, eigenvectors=v)
            for l, v in zip(lam, vec)]


class _Spectra(NamedTuple):
    """Tracked spectra of ``H`` and ``rho`` on a grid, time leading."""

    energies: np.ndarray
    energy_vectors: np.ndarray
    populations: np.ndarray
    state_vectors: np.ndarray
    overlaps: np.ndarray


def _check_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise InputError("times must be a 1-d grid with at least two points")
    if np.any(np.diff(times) <= 0.0):
        raise InputError("times must be strictly increasing")
    return times


def _spectra(hamiltonian, states, times) -> _Spectra:
    """Validate, diagonalize and track a trajectory given as stacks.

    ``hamiltonian`` is one matrix (static) or a stack aligned with
    ``times``; ``states`` is a stack of density matrices aligned with
    ``times``. The states are validated and diagonalized in one call. A
    static Hamiltonian is diagonalized once and its spectrum repeated
    along the grid.
    """
    rho_lam, rho_vec = density_eigh(states)
    if rho_vec.ndim != 3 or rho_vec.shape[0] != times.size:
        raise InputError(f"got states of shape {rho_vec.shape} for "
                         f"{times.size} time points")
    h = hermitian_stack(hamiltonian)
    if h.shape[-1] != rho_vec.shape[-1]:
        raise InputError(f"dimension mismatch: hamiltonian {h.shape}, "
                         f"states {rho_vec.shape}")
    if h.ndim == 2:
        energies, h_vec = eigh_stack(h)
        energies = np.broadcast_to(energies, rho_lam.shape)
    elif h.ndim == 3 and h.shape[0] == times.size:
        energies, h_vec = _track(*eigh_stack(h), times)
    else:
        raise InputError(f"got a hamiltonian of shape {h.shape} for "
                         f"{times.size} time points")
    populations, s_vec = _track(rho_lam, rho_vec, times)
    overlaps = np.abs(h_vec.conj().swapaxes(-1, -2) @ s_vec) ** 2
    return _Spectra(energies, np.broadcast_to(h_vec, rho_vec.shape),
                    populations, s_vec, overlaps)


def sample_trajectory(hamiltonian, state_fn, times) -> list:
    """Evaluate spectra and overlaps on a time grid.

    ``hamiltonian`` is a static matrix or a callable ``t -> matrix``;
    ``state_fn`` is a callable ``t -> DensityOperator`` or a sequence of
    states aligned with ``times``. Branches of both operators are tracked
    for continuity before the overlaps are formed.
    """
    times = _check_grid(times)
    if callable(state_fn):
        states = [state_fn(t) for t in times]
    else:
        states = list(state_fn)
        if len(states) != times.size:
            raise InputError(
                f"got {len(states)} states for {times.size} time points")
    if callable(hamiltonian):
        hamiltonian = np.stack([np.asarray(hamiltonian(t), dtype=complex)
                                for t in times])
    sp = _spectra(hamiltonian, np.stack([np.asarray(s, dtype=complex)
                                         for s in states]), times)
    return [TrajectorySample(
                t=float(t),
                hamiltonian_spectrum=SpectralDecomposition(eigenvalues=e,
                                                           eigenvectors=u),
                state_spectrum=SpectralDecomposition(eigenvalues=r,
                                                     eigenvectors=v),
                overlaps=p)
            for t, e, u, r, v, p in zip(times, *sp)]


def _stack(samples):
    times = np.array([s.t for s in samples])
    energies = np.stack([s.hamiltonian_spectrum.eigenvalues for s in samples])
    populations = np.stack([s.state_spectrum.eigenvalues for s in samples])
    overlaps = np.stack([s.overlaps for s in samples])
    return times, energies, populations, overlaps


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _work(times, energies, populations, overlaps):
    de = np.gradient(energies, times, axis=0)
    integrand = np.einsum("tk,tnk,tn->t", populations, overlaps, de)
    return _cumtrapz(integrand, times)


def _heat(times, energies, populations, overlaps):
    dr = np.gradient(populations, times, axis=0)
    integrand = np.einsum("tn,tnk,tk->t", energies, overlaps, dr)
    return _cumtrapz(integrand, times)


def _coherent(times, energies, populations, overlaps):
    dp = np.gradient(overlaps, times, axis=0)
    integrand = np.einsum("tn,tk,tnk->t", energies, populations, dp)
    return _cumtrapz(integrand, times)


def _internal_energy_series(energies, populations, overlaps):
    """``tr(H rho) - tr(H(0) rho(0))`` pointwise on the grid."""
    u = np.einsum("tn,tk,tnk->t", energies, populations, overlaps)
    return u - u[0]


def work_integral(samples) -> np.ndarray:
    """Cumulative work ``sum_nk int r_k P_nk dE_n`` on the sample grid."""
    return _work(*_stack(samples))


def heat_integral(samples) -> np.ndarray:
    """Cumulative heat ``sum_nk int E_n P_nk dr_k`` on the sample grid."""
    return _heat(*_stack(samples))


def coherent_energy_integral(samples) -> np.ndarray:
    """Cumulative coherent energy ``sum_nk int E_n r_k dP_nk``.

    Nonzero only while the state eigenbasis rotates relative to the
    energy eigenbasis, i.e. while energy-basis coherences change.
    """
    return _coherent(*_stack(samples))


def internal_energy_change(hamiltonian, rho_t, rho_0) -> float:
    """Exact ``tr(H (rho_t - rho_0))`` between two states.

    Carries no integration error, so it anchors closure checks against
    the integrated work, heat, and coherent-energy pieces.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    a = np.asarray(rho_t, dtype=complex)
    b = np.asarray(rho_0, dtype=complex)
    if not (h.shape == a.shape == b.shape) or h.ndim != 2:
        raise InputError(
            f"dimension mismatch: hamiltonian {h.shape}, rho_t {a.shape}, "
            f"rho_0 {b.shape}")
    return float(np.real(np.trace(h @ (a - b))))


def _check_closure(residual, times, tolerance, advice) -> None:
    """Raise :class:`NumericalError` if the closure residual tops ``tolerance``.

    The message names the time of the worst residual and, since the
    residual accumulates, the grid step where it grows most, then
    ``advice``.
    """
    worst = int(np.argmax(residual))
    # written so that a NaN residual fails too
    if not residual[worst] <= tolerance:
        # the residual accumulates, so its worst point says little about
        # where the error arises; the step where it grows most does
        growth = np.abs(np.diff(residual))
        step = int(np.argmax(growth))
        raise NumericalError(
            f"first-law closure residual {residual[worst]:.3e} at "
            f"t = {times[worst]:.6g} exceeds tolerance "
            f"{tolerance:.1e}; it grows most, by "
            f"{growth[step]:.3e}, between t = {times[step]:.6g} and "
            f"t = {times[step + 1]:.6g}; {advice}")


def thermo_trajectory(hamiltonian, state_builder, times,
                      endpoint_subdivision: int = 32,
                      closure_tolerance: float = 1e-4) -> ThermoTrajectory:
    """Integrate the first-law split and verify closure on a time grid.

    ``state_builder`` maps a 1-d array of times to a ``(T, n, n)`` stack
    of density matrices, e.g. ``functools.partial(system_states,
    params)``; ``hamiltonian`` is a static matrix or a callable with the
    same time-array contract. The builder must be callable because the
    integrator works on an internal grid finer than ``times``: the first
    interval is subdivided ``endpoint_subdivision`` times to resolve the
    square-root-in-time growth of coherences near ``t = 0``, where
    one-sided endpoint differences are least accurate. The builder is
    called once on that grid and its stack validated once. Results are
    reported at the points of ``times``; a closure residual above
    ``closure_tolerance`` raises :class:`NumericalError` naming the time
    of the worst residual and the grid step where the residual grows
    most, since it indicates the grid is too coarse for the requested
    accuracy.
    """
    if not callable(state_builder):
        raise InputError("state_builder must be callable on this route; "
                         "use sample_trajectory for precomputed states")
    if endpoint_subdivision < 1:
        raise InputError(
            f"endpoint_subdivision must be >= 1, got {endpoint_subdivision}")
    if not closure_tolerance > 0.0:
        raise InputError(
            f"closure_tolerance must be positive, got {closure_tolerance}")
    times = _check_grid(times)

    head = np.linspace(times[0], times[1], endpoint_subdivision + 1)
    merged = np.unique(np.concatenate([head, times]))
    public = np.searchsorted(merged, times)

    if callable(hamiltonian):
        hamiltonian = hamiltonian(merged)
    sp = _spectra(hamiltonian, state_builder(merged), merged)
    stacks = (merged, sp.energies, sp.populations, sp.overlaps)
    work = _work(*stacks)[public]
    heat = _heat(*stacks)[public]
    coherent = _coherent(*stacks)[public]
    du = _internal_energy_series(*stacks[1:])[public]
    residual = np.abs(du - work - heat - coherent)
    _check_closure(residual, times, closure_tolerance,
                   "refine the time grid")
    return ThermoTrajectory(times=times, work=work, heat=heat,
                            coherent_energy=coherent,
                            internal_energy_change=du,
                            closure_residual=residual,
                            closure_tolerance=closure_tolerance)


def _real_roots(a, b, c, disc):
    """Ascending roots of ``a x^2 + b x + c``, ``a > 0``, ``disc = b^2 -
    4 a c >= 0``, each in the form without cancellation."""
    big = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if big == 0.0:
        # b = c = 0
        return 0.0, 0.0
    return tuple(sorted((big / a, c / big)))


def _bloch_heat(coefficients, g) -> np.ndarray:
    """``I(g) - I(g[0])`` for ``I' = z q' / (2 q)`` on the points ``g``.

    ``coefficients = (z0, z1, c0, c1)`` give ``z = z0 + z1 g`` and
    ``q = z^2 + c0 + c1 g``. Each real root ``r``, or complex pair
    ``p +- i m``, of ``q`` enters through ``log((x - r) / (x0 - r))``,
    and each is taken in the coordinate that knows it to more absolute
    digits. That is ``u = g - g[0]`` by default. A root inside ``|g| <
    g[0]`` and nearer ``g = 0`` than the start is taken in ``g``: a
    marginal that ends nearly maximally mixed has one there, and ``u``
    has lost the low digits of small ``g``. The log of a root at least
    one away from the start, such as the far root of a nearly linear
    ``q``, is a ``log1p`` of a small argument; the others are differences
    of logs of ``hypot``, which neither underflow nor overflow. ``g``
    must lie in ``[0, 1]``.
    """
    z0, z1, c0, c1 = coefficients
    g0 = g[0]
    u = g - g0
    out = z1 * u
    if c0 == 0.0 and c1 == 0.0:
        # no coherence: q = z^2, and z q' / (2 q) = z'
        return out
    za = z0 + z1 * g0
    # q = a x^2 + b x + c in x = g and in x = u
    a = z1 * z1
    bg, cg = 2.0 * z0 * z1 + c1, z0 * z0 + c0
    bu, cu = 2.0 * za * z1 + c1, za * za + max(c0 + c1 * g0, 0.0)
    # (root in g, root in u, m, share): a real root carries half its
    # weight, a complex pair stands for both of its roots
    if z1 == 0.0:
        # z is constant and q linear
        if c1 == 0.0:
            return out
        roots = [(-cg / c1, -cu / c1, 0.0, 0.5)]
    else:
        # b^2 - 4 a c without the cancelling 4 z^2 z1^2 terms
        disc = c1 * c1 + 4.0 * z1 * (z0 * c1 - z1 * c0)
        if disc < 0.0:
            roots = [(-bg / (2.0 * a), -bu / (2.0 * a),
                      math.sqrt(-disc) / (2.0 * a), 1.0)]
        else:
            roots = [(root_g, root_u, 0.0, 0.5) for root_g, root_u in zip(
                _real_roots(a, bg, cg, disc), _real_roots(a, bu, cu, disc))]
    for root_g, root_u, m, share in roots:
        near_zero = abs(root_g) < min(abs(root_u), g0)
        weight = z0 + z1 * root_g if near_zero else za + z1 * root_u
        if weight == 0.0 and m == 0.0:
            # a real root where z vanishes carries no log: u = 0 when the
            # state starts maximally mixed, g = 0 when it ends so
            continue
        x, x0, r = (g, g0, root_g) if near_zero else (u, 0.0, root_u)
        rho = math.hypot(x0 - r, m)
        if near_zero or rho < 1.0:
            modulus = np.log(np.hypot(x - r, m)) - np.log(rho)
        else:
            # |u - r|^2 / rho^2 = 1 + u (u - 2 r) / rho^2 with |u| <= 1:
            # log1p keeps the digits of a far root's small log
            modulus = 0.5 * np.log1p(u / rho * ((u - 2.0 * r) / rho))
        # Re[z(r) log(...)] with z(r) = weight + i z1 m for r = root + i m
        out = out + share * weight * modulus
        if m:
            out = out - z1 * m * np.arctan2(m * u, (x - r) * (x0 - r) + m * m)
    return out


def qubit_thermo_trajectory(hamiltonian, bloch,
                            closure_tolerance: float = 1e-4
                            ) -> ThermoTrajectory:
    """Exact first-law split of a qubit given in Bloch form.

    ``hamiltonian`` is a static diagonal 2x2 matrix and ``bloch`` a
    :class:`strongcouple.channels.BlochSeries`. Work is zero, the heat is
    the closed-form integral of the module docstring, and the coherent
    energy is ``(E0 - E1)/2 Delta z`` minus the heat, so neither needs a
    derivative, a quadrature rule or an eigensolve, and the grid may be
    as coarse as the caller likes. The internal energy change is read
    from the diagonals of ``bloch.matrices``; the closure residual
    therefore compares the Bloch coefficients with the matrix closed
    forms, and a residual above ``closure_tolerance`` raises
    :class:`NumericalError`. It cannot see an error in the split of
    ``Delta U`` between heat and coherent energy.
    """
    if not closure_tolerance > 0.0:
        raise InputError(
            f"closure_tolerance must be positive, got {closure_tolerance}")
    times = _check_grid(bloch.times)
    h = hermitian_stack(hamiltonian)
    if h.shape != (2, 2) or h[0, 1] != 0.0:
        raise InputError("the qubit route needs a static diagonal 2x2 "
                         f"hamiltonian, got {h.tolist()}")
    energies = h.real.diagonal()
    half_gap = 0.5 * (energies[0] - energies[1])
    g = bloch.decay
    heat = half_gap * _bloch_heat(bloch.coefficients, g)
    coherent = half_gap * bloch.coefficients[1] * (g - g[0]) - heat
    u = np.einsum("n,tnn->t", energies, bloch.matrices.real)
    du = u - u[0]
    work = np.zeros_like(times)
    residual = np.abs(du - work - heat - coherent)
    _check_closure(residual, times, closure_tolerance,
                   "the Bloch coefficients disagree with the state matrices")
    return ThermoTrajectory(times=times, work=work, heat=heat,
                            coherent_energy=coherent,
                            internal_energy_change=du,
                            closure_residual=residual,
                            closure_tolerance=closure_tolerance)
