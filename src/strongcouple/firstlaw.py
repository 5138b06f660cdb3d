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
spectrum changes of the Hamiltonian, the heat term tracks population
changes, and the coherent term tracks rotation of the state eigenbasis
relative to the energy eigenbasis. Both routes below read the model's
static Hamiltonian :data:`strongcouple.channels.QUBIT_HAMILTONIAN`,
``diag(0, 1)``: their work is zero, and the split needs only each
eigenbranch's energy ``eps_k = sum_n E_n P_nk``,

* heat       ``Q(t) = sum_k int eps_k dr_k``
* coherent   ``C(t) = sum_k int r_k deps_k``
* internal   ``U(t) = sum_k r_k eps_k``

The levels are the computational basis, so ``P_nk`` is the squared
modulus of entry ``n`` of the state eigenvector ``k``.

Time is an array axis. :func:`thermo_trajectory` takes the stack of
states on the caller's grid, checks it once, diagonalizes it with one
``numpy.linalg.eigh`` call, whose eigenvalues also give the eigenvalue
floor, and integrates on the ``(T, 2)`` arrays of tracked populations
and branch energies. It needs no eigenvector gauge: the branch energies
and the tracking overlaps are moduli.
:func:`qubit_thermo_trajectory` takes a qubit's Bloch series instead
(see below). The two routes differ only in how they compute ``Q``, ``C``
and ``Delta U``: both return through one ledger, which forms the zero
work and the closure residual, runs the one closure gate and builds the
:class:`ThermoTrajectory`.

Branches are identified across time steps by eigenvector overlap, for
all steps at once. The overlap moduli ``O`` of two consecutive
eigenbases form the modulus matrix of a 2x2 unitary, so ``|O00| =
|O11|`` and ``|O01| = |O10|``: a step swaps the two branches iff
``|O01| > |O00|``, and it is ambiguous iff neither exceeds
``1/sqrt(2)``. The order at each point is the parity of the swaps up to
it. Derivatives use second-order central differences on the interior
(``numpy.gradient``) and the cumulative integrals use the trapezoid rule
on the same grid.

Qubit route
-----------
For a qubit ``rho = (1 + r . sigma)/2`` with a static ``H = diag(E0,
E1)``, the populations are ``(1 +- |r|)/2`` and the overlaps of their
eigenvectors with the levels follow from ``n_z = z / |r|``, so

* ``dQ = (E0 - E1)/2 n_z d|r| = (E0 - E1)/2 z dq / (2 q)``, ``q = |r|^2``
* ``dC = (E0 - E1)/2 |r| dn_z``, and ``dQ + dC = dU = (E0 - E1)/2 dz``

with no eigensolve and no branch to track. The heat ``int z dq / (2 q)``
does not depend on the coordinate it is written in. When ``z`` and
``x^2`` are affine in the keep variable ``k`` (see
:class:`strongcouple.channels.BlochSeries`), ``q`` is quadratic in ``k``
and the heat integral has an elementary antiderivative: with ``r_i``
the roots of ``q``, partial fractions give ``I(k) = z1 k + 1/2 sum_i
Re[z(r_i) log(k - r_i)]``, a log plus an arctan for a complex pair.
Both marginals share the system's coefficients, so one kernel on the
system's ``g`` or the environment's ``d = 1 - g`` gives both heats.
:func:`qubit_thermo_trajectory` evaluates it exactly on the grid;
``C`` is the rest of ``Delta U``. Since ``Q + C = Delta U`` holds by
construction there, its closure residual cannot see an error in the
split itself; the tests and ``validate`` check the split against
adaptive quadrature, frozen high-precision values and the generic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QUBIT_HAMILTONIAN
from .errors import InputError, TrackingError, _as_array, _as_float, _gate
from .spectra import check_spectrum, unit_trace_stack

# Levels E0, E1 of the model's qubit Hamiltonian
_ENERGIES = QUBIT_HAMILTONIAN.real.diagonal()
_TRACK_MIN_OVERLAP = 1.0 / np.sqrt(2.0)
# The generic route's default closure bound
CLOSURE_TOLERANCE = 1e-4
# The qubit route's closure bound. Its residual compares two closed forms
# and is round-off: at most 3.3e-16 over 3000 random runs, with alpha at,
# near and between 0 and 1, beta in [1e-17, 1e-10], [1e-4, 1e4] or inf,
# gamma in [1e-3, 1e3], t_max in [1e-2, 316] and 3 to 2001 points
QUBIT_CLOSURE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ThermoTrajectory:
    """Cumulative first-law bookkeeping on a time grid.

    All arrays have the shape of ``times``, ``(T,)`` or ``(R, T)`` for a
    block of grids; energy arrays start at zero. ``closure_residual =
    |internal_energy_change - work - heat - coherent_energy|`` is the
    split's discretization error on the generic route and compares the
    Bloch coefficients with the populations on the qubit route;
    ``max_closure_residual`` is its maximum over the whole block.
    """

    times: np.ndarray
    work: np.ndarray
    heat: np.ndarray
    coherent_energy: np.ndarray
    internal_energy_change: np.ndarray
    closure_residual: np.ndarray

    @property
    def max_closure_residual(self) -> float:
        return float(self.closure_residual.max())

    def __getitem__(self, row) -> ThermoTrajectory:
        """Row ``row`` of a block, as views of its arrays."""
        return ThermoTrajectory(**{k: v[row] for k, v in vars(self).items()})


def _track(eigenvalues, eigenvectors, times):
    """Eigenvalue and eigenvector stacks reordered for branch continuity.

    ``eigenvectors`` has shape ``(T, 2, 2)`` on the grid ``times``; a
    point's two columns are swapped iff the parity of the swaps up to it
    is odd. Raises :class:`TrackingError` naming the step and its time at
    the first step where neither column of the next basis overlaps the
    first column of the previous one by more than ``1/sqrt(2)``.
    """
    # first row of |O|, O = V[t]^+ V[t + 1]; the other row repeats it
    stay, swap = np.abs(np.einsum("ti,tik->kt",
                                  eigenvectors[:-1, :, 0].conj(),
                                  eigenvectors[1:]))
    best = np.maximum(stay, swap)
    failed = np.flatnonzero(best <= _TRACK_MIN_OVERLAP)
    if failed.size:
        step = int(failed[0]) + 1
        raise TrackingError(
            f"branch matching ambiguous at step {step} "
            f"(t = {times[step]:.6g}): best overlap "
            f"{best[step - 1]:.4f} <= {_TRACK_MIN_OVERLAP:.4f}; "
            "refine the time grid")
    swapped = np.zeros(eigenvectors.shape[0], dtype=bool)
    swapped[1:] = np.logical_xor.accumulate(swap > stay)
    return (np.where(swapped[:, None], eigenvalues[:, ::-1], eigenvalues),
            np.where(swapped[:, None, None], eigenvectors[..., ::-1],
                     eigenvectors))


def _check_grid(times, ndim=1) -> np.ndarray:
    """``times`` as floats; ``ndim = 2`` also takes a block of grids."""
    times = _as_array(times, "times")
    if not 1 <= times.ndim <= ndim or times.shape[-1] < 2:
        block = ", or an (R, T) block of them," if ndim == 2 else ""
        raise InputError(
            f"times must be a 1-d grid{block} with at least two points")
    # isfinite is false for NaN too, which compares false to any step
    if not np.isfinite(times).all():
        raise InputError("times must be finite")
    if (np.diff(times) <= 0.0).any():
        raise InputError("times must be strictly increasing")
    return times


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _ledger(times, heat, coherent, du, tolerance, advice) -> ThermoTrajectory:
    """The :class:`ThermoTrajectory` of a split with zero work, after its
    closure gate.

    A closure residual above ``tolerance`` raises :class:`NumericalError`
    with the message of the worst row of a block alone: the time of its
    worst residual and, since the residual accumulates, the grid step
    where it grows most, then ``advice``.
    """
    work = np.zeros_like(times)
    residual = np.abs(du - work - heat - coherent)

    def message(i):
        row, worst = divmod(i, residual.shape[-1])
        res, at = np.atleast_2d(residual)[row], np.atleast_2d(times)[row]
        # the residual accumulates, so its worst point says little about
        # where the error arises; the step where it grows most does
        growth = np.abs(np.diff(res))
        step = int(np.argmax(growth))
        return (f"first-law closure residual {res[worst]:.3e} at "
                f"t = {at[worst]:.6g} exceeds tolerance "
                f"{tolerance:.1e}; it grows most, by "
                f"{growth[step]:.3e}, between t = {at[step]:.6g} and "
                f"t = {at[step + 1]:.6g}; {advice}")
    _gate(residual, tolerance, message)
    return ThermoTrajectory(times=times, work=work, heat=heat,
                            coherent_energy=coherent,
                            internal_energy_change=du,
                            closure_residual=residual)


def thermo_trajectory(states, times,
                      closure_tolerance: float = CLOSURE_TOLERANCE
                      ) -> ThermoTrajectory:
    """Integrate the first-law split and verify closure on a time grid.

    ``states`` is the ``(T, 2, 2)`` stack of density matrices of a qubit
    under the model's static Hamiltonian on the grid ``times``, e.g.
    ``system_states(params, times)``, so the work is zero; any other
    shape raises :class:`InputError` before any eigensolve. The stack is
    validated once and the results are reported on ``times``. A closure
    residual above ``closure_tolerance`` raises :class:`NumericalError`
    naming the time of the worst residual and the grid step where the
    residual grows most, since it indicates the grid is too coarse for
    the requested accuracy.
    """
    closure_tolerance = _as_float(closure_tolerance, "closure_tolerance")
    if not closure_tolerance > 0.0:
        raise InputError(
            f"closure_tolerance must be positive, got {closure_tolerance}")
    times = _check_grid(times)
    states = _as_array(states, "matrices", complex)
    if states.shape != (times.size, 2, 2):
        raise InputError(f"got states of shape {states.shape} for "
                         f"{times.size} time points; the states must be "
                         f"a ({times.size}, 2, 2) stack")
    rho_lam, rho_vec = np.linalg.eigh(unit_trace_stack(states))
    check_spectrum(rho_lam[:, 0])
    populations, vectors = _track(rho_lam, rho_vec, times)
    # the levels are the computational basis: eps_k = sum_n E_n |v_nk|^2
    energies = _ENERGIES @ (np.abs(vectors) ** 2)
    del rho_lam, rho_vec, vectors
    dr = np.gradient(populations, times, axis=0)
    de = np.gradient(energies, times, axis=0)
    heat = _cumtrapz(np.einsum("tk,tk->t", energies, dr), times)
    coherent = _cumtrapz(np.einsum("tk,tk->t", populations, de), times)
    u = np.einsum("tk,tk->t", populations, energies)
    return _ledger(times, heat, coherent, u - u[0], closure_tolerance,
                   "refine the time grid")


def _real_roots(a, b, c, disc):
    """Ascending roots of ``a x^2 + b x + c``, ``a > 0``, ``disc = b^2 -
    4 a c >= 0``, each in the form without cancellation."""
    big = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if big == 0.0:
        # b = c = 0
        return 0.0, 0.0
    return tuple(sorted((big / a, c / big)))


def _bloch_heat(coefficients, keep, u) -> np.ndarray:
    """``I(k) - I(k0)`` for ``I' = z q' / (2 q)`` on the ``(T,)`` grid
    ``keep`` of a keep variable ``k``, which starts at ``k0``, with its
    displacement ``u = k - k0``, a series' ``step``.

    ``coefficients = (z0, z1, c1)`` give ``z = z0 + z1 k`` and ``q = z^2
    + c1 k``, with ``c1 >= 0``. Each real root ``r``, or complex pair ``p
    +- i m``, of ``q`` enters through ``log((x - r) / (x0 - r))``, and
    each is taken in the coordinate that knows it to more absolute
    digits. That is ``u`` by default. A root inside ``|k| < k0`` and
    nearer ``k = 0`` than the start is taken in ``k``: a system that
    ends nearly maximally mixed has one there, and ``u`` has lost the
    low digits of small ``k``. The log of a root at least one away from
    the start, such as the far root of a nearly linear ``q``, is a
    ``log1p`` of a small argument; the others are differences of logs of
    ``hypot``, which neither underflow nor overflow. ``keep`` must lie
    in ``[0, 1]``.
    """
    z0, z1, c1 = coefficients
    k0 = keep[0]
    out = z1 * u
    if c1 == 0.0:
        # no coherence: q = z^2, and z q' / (2 q) = z'
        return out
    za = z0 + z1 * k0
    # q = a x^2 + b x + c in x = k and in x = u
    a = z1 * z1
    bk, ck = 2.0 * z0 * z1 + c1, z0 * z0
    bu, cu = 2.0 * za * z1 + c1, za * za + c1 * k0
    # (root in k, root in u, m, share): a real root carries half its
    # weight, a complex pair stands for both of its roots
    if z1 == 0.0:
        # z is constant and q linear
        roots = [(-ck / c1, -cu / c1, 0.0, 0.5)]
    else:
        # b^2 - 4 a c without the cancelling 4 z0^2 z1^2 terms
        disc = c1 * c1 + 4.0 * z1 * (z0 * c1)
        if disc < 0.0:
            roots = [(-bk / (2.0 * a), -bu / (2.0 * a),
                      math.sqrt(-disc) / (2.0 * a), 1.0)]
        else:
            roots = [(root_k, root_u, 0.0, 0.5) for root_k, root_u in zip(
                _real_roots(a, bk, ck, disc), _real_roots(a, bu, cu, disc))]
    for root_k, root_u, m, share in roots:
        near_zero = abs(root_k) < min(abs(root_u), k0)
        weight = z0 + z1 * root_k if near_zero else za + z1 * root_u
        if weight == 0.0 and m == 0.0:
            # a real root where z vanishes carries no log: at k = 0, the
            # start of an environment that starts maximally mixed, or
            # the end of a system that ends so
            continue
        x, x0, r = (keep, k0, root_k) if near_zero else (u, 0.0, root_u)
        rho = math.hypot(x0 - r, m)
        if near_zero or rho < 1.0:
            # hypot(y, 0) is |y| exactly, and abs is cheaper
            dist = np.hypot(x - r, m) if m else abs(x - r)
            modulus = np.log(dist) - np.log(rho)
        else:
            # |u - r|^2 / rho^2 = 1 + u (u - 2 r) / rho^2 with |u| <= 1:
            # log1p keeps the digits of a far root's small log
            modulus = 0.5 * np.log1p(u / rho * ((u - 2.0 * r) / rho))
        # Re[z(r) log(...)] with z(r) = weight + i z1 m for r = root + i m
        out = out + share * weight * modulus
        if m:
            out = out - z1 * m * np.arctan2(m * u, (x - r) * (x0 - r) + m * m)
    return out


def qubit_thermo_trajectory(bloch) -> ThermoTrajectory:
    """Exact first-law split of a qubit given in Bloch form.

    ``bloch`` is a :class:`strongcouple.channels.BlochSeries` of a qubit
    under the model's static Hamiltonian, with ``(T,)`` arrays, or a block
    with ``(R, T)`` arrays and ``(R, 1)`` or shared coefficients whose
    rows are split as their own series, bit for bit: the heat's root
    analysis runs once per row. ``coefficients`` must hold the three
    entries ``(lead, slope, coh)``; any other count raises
    :class:`InputError` naming the field. The caller decides which rows
    share a series; a sweep hands in each distinct one once. Work is
    zero, the heat is the closed-form integral of the module docstring
    on the series' keep variable and displacement, and the coherent
    energy is ``(E0 - E1)/2 Delta z = (E0 - E1)/2 slope step`` minus the
    heat, so neither needs a derivative, a quadrature rule or an
    eigensolve, and the grid may be as coarse as the caller likes. The
    internal energy change is ``bloch.populations @ energies``, from the
    closed-form populations; the closure residual therefore compares the
    Bloch coefficients with those populations, and one above
    :data:`QUBIT_CLOSURE_TOLERANCE` raises the :class:`NumericalError` of
    the worst row alone. It cannot see an error in the split of ``Delta
    U`` between heat and coherent energy.
    """
    if len(bloch.coefficients) != 3:
        raise InputError("BlochSeries.coefficients must hold 3 entries "
                         f"(lead, slope, coh), got {len(bloch.coefficients)}")
    times = _check_grid(bloch.times, ndim=2)
    half_gap = 0.5 * (_ENERGIES[0] - _ENERGIES[1])
    rows = np.atleast_2d(bloch.keep)
    # each row's coefficients, as Python floats for the root analysis; a
    # float coefficient is shared by every row
    coefficients = np.empty((len(rows), 3))
    for k, c in enumerate(bloch.coefficients):
        coefficients[:, k] = np.ravel(c)
    heat = half_gap * np.array([_bloch_heat(*row) for row in zip(
        coefficients.tolist(), rows, np.atleast_2d(bloch.step))]).reshape(
            bloch.keep.shape)
    coherent = half_gap * bloch.coefficients[1] * bloch.step - heat
    u = bloch.populations @ _ENERGIES
    return _ledger(times, heat, coherent, u - u[..., :1],
                   QUBIT_CLOSURE_TOLERANCE,
                   "the Bloch coefficients disagree with the state matrices")
