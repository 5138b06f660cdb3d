"""Generalized amplitude damping for a qubit exchanging one excitation
with a single-qubit thermal environment.

The channel is set by a decay probability ``p`` and the thermal ground
weight ``w0`` of the environment. :class:`GadcParams` holds ``w0``, the
system's initial amplitude and the decay rate; ``p`` is an argument of
the single-step builders. Both qubits are resonant with the Hamiltonian
:data:`QUBIT_HAMILTONIAN`, ``diag(0, 1)``: the level gap is the energy
unit, and a level offset changes none of heat, coherent energy or
internal energy change. Three equivalent computational routes to the
evolved system state are provided and cross-checked in the test suite:
Kraus operators acting on the system alone, a unitary dilation on the
joint space followed by a partial trace, and closed-form matrix entries
with ``p`` replaced by ``1 - exp(-gamma t)``.

Two joint-state families
------------------------
The single-excitation exchange block can be written with or without a
phase on its off-diagonal amplitudes, and the two choices are not
equivalent:

* :func:`gadc_unitary` carries a factor ``i`` on the exchange amplitudes
  and is exactly unitary for every ``p``. Conjugation with it preserves
  the joint spectrum, so :func:`joint_state` has a time-independent joint
  entropy.
* :func:`gadc_coupling_matrix` is the symmetric all-positive variant. It
  is unitary only at ``p = 0`` and ``p = 1`` (where it is the identity and
  the SWAP gate), yet conjugating the initial product state with it still
  produces a valid density operator family,
  :func:`joint_state_closed_form`, whose partial traces reproduce the
  closed-form marginals of both subsystems exactly, including the
  environment coherence growing as ``sqrt(1 - exp(-gamma t))``.

No single family can do both jobs: a two-qubit state with the constant
initial spectrum cannot have these exact marginals at intermediate times
(the marginal spectra would violate the two-qubit spectral compatibility
inequalities). The library therefore exposes both families and documents
which one each derived quantity uses.

Bloch form of the marginals
---------------------------
Each closed-form marginal is ``(1 + x sigma_x + z sigma_z) / 2`` with
real ``x``. With ``g = exp(-gamma_rate t)``, both ``z`` and ``x^2`` are
affine in ``g``: the square root in time of the coherence cancels in
``x^2``. :func:`system_bloch` and :func:`environment_bloch` give these
lines and their values on a time grid as a :class:`BlochSeries`, which
carries everything a run needs of a marginal: the Bloch radius for the
spectrum, ``|x|`` for the coherence, and the coefficients for the exact
first-law split of :func:`strongcouple.firstlaw.qubit_thermo_trajectory`.

Closed-form joint spectra
-------------------------
The closed-form joint family needs no eigensolve either. With a pure
initial system it has rank two, and :func:`joint_radii_closed_form`
gives its spectrum as a Bloch radius. Its partial transpose has a
characteristic quartic whose coefficients depend on ``g`` only through
``u = g (1 - g)``; :func:`joint_negativities_closed_form` takes the
negativity from the quartic's one negative root by Newton's method.
:func:`joint_states_closed_form` stays as the eigensolve route that
``validate`` and the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .spectra import (PSD_FLOOR, DensityOperator, density_stack,
                      partial_trace, tensor_product, unit_trace_stack)

KRAUS_COMPLETENESS_TOL = 1e-10
# Bound on the last Newton step of the closed-form negativity, relative to
# the root; eight steps from the start reach round-off, about 3e-16.
NEGATIVITY_NEWTON_TOL = 1e-12
_NEGATIVITY_NEWTON_STEPS = 8

# Hamiltonian of the system and of the environment in the ``|g>, |e>``
# and ``|E0>, |E1>`` bases: resonant levels, the gap as the energy unit.
QUBIT_HAMILTONIAN = np.diag([0.0, 1.0]).astype(complex)
QUBIT_HAMILTONIAN.flags.writeable = False


@dataclass(frozen=True)
class GadcParams:
    """Initial states and decay rate of the system-environment pair.

    Energies are in units of the level gap of :data:`QUBIT_HAMILTONIAN`.
    The decay probability of a single channel step is not a parameter
    here but an argument of :func:`system_kraus`, :func:`environment_kraus`
    and the dilation builders.

    Attributes
    ----------
    alpha : float
        Ground-state amplitude of the system's initial pure state
        ``alpha |g> + sqrt(1 - alpha^2) |e>``.
    w0 : float
        Thermal weight of the environment ground level; ``w1 = 1 - w0``.
    gamma_rate : float
        Decay rate entering ``p(t) = 1 - exp(-gamma_rate t)``.
    """

    alpha: float
    w0: float
    gamma_rate: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.w0 <= 1.0:
            raise InputError(f"w0 must lie in [0, 1], got {self.w0}")
        if not 0.0 < self.gamma_rate < math.inf:
            raise InputError("gamma_rate must be positive and finite, "
                             f"got {self.gamma_rate}")

    @property
    def w1(self) -> float:
        return 1.0 - self.w0

    @property
    def beta_amp(self) -> float:
        """Excited-state amplitude ``sqrt(1 - alpha^2)`` of the initial state."""
        return math.sqrt(max(0.0, 1.0 - self.alpha * self.alpha))

    @classmethod
    def from_inverse_temperature(cls, alpha, beta, gamma_rate=1.0):
        """Build parameters with ``w0`` fixed by a thermal environment.

        ``beta`` is the inverse temperature in units of the energy gap, so
        ``w0 = 1 / (1 + exp(-beta))``. ``beta = inf`` is the zero-temperature
        limit ``w0 = 1``.
        """
        if not beta > 0.0:
            raise InputError(f"beta must be positive, got {beta}")
        w0 = 1.0 / (1.0 + math.exp(-beta)) if math.isfinite(beta) else 1.0
        return cls(alpha=alpha, w0=w0, gamma_rate=gamma_rate)


@dataclass(frozen=True)
class KrausChannel:
    """A finite set of Kraus operators validated for completeness."""

    operators: tuple
    label: str = ""

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise InputError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise InputError(f"Kraus operators must share shape ({dim},{dim})")
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(total - np.eye(dim))))
        if dev > KRAUS_COMPLETENESS_TOL:
            raise InputError(
                f"Kraus completeness violated for {self.label or 'channel'}: "
                f"max |sum K^+ K - I| = {dev:.3e}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def p_of_t(gamma_rate: float, t: float) -> float:
    """Decay probability accumulated after time ``t``."""
    if not gamma_rate > 0.0:
        raise InputError(f"gamma_rate must be positive, got {gamma_rate}")
    if not t >= 0.0:
        raise InputError(f"time must be nonnegative, got {t}")
    return -math.expm1(-gamma_rate * t)


def _probability(p) -> np.ndarray:
    """``p`` as a float array whose entries are checked to lie in [0, 1].

    Written so that a NaN entry fails the check too.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise InputError(f"p must lie in [0, 1], got {p}")
    return p


def gadc_unitary(p: float) -> np.ndarray:
    """Unitary dilation of the damping step on the joint space.

    Basis ordering is ``|g,E0>, |g,E1>, |e,E0>, |e,E1>``. The excitation
    exchange acts in the middle two-dimensional block with amplitudes
    ``sqrt(1 - p)`` on the diagonal and ``i sqrt(p)`` off the diagonal,
    which keeps the matrix exactly unitary for every ``p`` in [0, 1]. At
    ``p = 1`` the entry magnitudes are those of the SWAP gate. An array of
    probabilities gives a stack of shape ``p.shape + (4, 4)``.
    """
    p = _probability(p)
    c = np.sqrt(1.0 - p)
    s = np.sqrt(p)
    u = np.zeros(p.shape + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = 1.0
    u[..., 1, 1] = u[..., 2, 2] = c
    u[..., 1, 2] = u[..., 2, 1] = 1j * s
    return u


def gadc_coupling_matrix(p: float) -> np.ndarray:
    """Symmetric all-positive variant of the exchange block.

    Identical to :func:`gadc_unitary` in entry magnitudes but with both
    off-diagonal amplitudes ``+sqrt(p)``. It equals the identity at
    ``p = 0`` and the SWAP gate exactly at ``p = 1``; in between its middle
    block has non-orthogonal rows, so it is not unitary. Conjugating the
    initial product state with it nevertheless yields the valid family
    :func:`joint_state_closed_form`. An array of probabilities gives a
    stack, as for :func:`gadc_unitary`.
    """
    u = gadc_unitary(p)
    m = u.real.copy()
    m[..., 1, 2] = u[..., 1, 2].imag
    m[..., 2, 1] = u[..., 2, 1].imag
    return m.astype(complex)


def system_kraus(params: GadcParams, p: float) -> KrausChannel:
    """Four Kraus operators of the thermal damping channel on the system.

    In the ``|g>, |e>`` basis, for the decay probability ``p`` in [0, 1]:

    * ``K00 = sqrt(w0) (|g><g| + sqrt(1-p) |e><e|)``
    * ``K01 = sqrt(w0) sqrt(p) |g><e|``
    * ``K10 = sqrt(w1) sqrt(p) |e><g|``
    * ``K11 = sqrt(w1) (sqrt(1-p) |g><g| + |e><e|)``

    They satisfy the completeness relation exactly for every ``p, w0``.
    """
    p = float(_probability(p))
    w0, w1 = params.w0, params.w1
    sp = math.sqrt(p)
    sq = math.sqrt(1.0 - p)
    k00 = math.sqrt(w0) * np.array([[1, 0], [0, sq]], dtype=complex)
    k01 = math.sqrt(w0) * np.array([[0, sp], [0, 0]], dtype=complex)
    k10 = math.sqrt(w1) * np.array([[0, 0], [sp, 0]], dtype=complex)
    k11 = math.sqrt(w1) * np.array([[sq, 0], [0, 1]], dtype=complex)
    return KrausChannel(operators=(k00, k01, k10, k11), label="system damping")


def environment_kraus(params: GadcParams, p: float) -> KrausChannel:
    """Two Kraus operators for the environment side of the exchange.

    Obtained by sandwiching the unitary dilation between the system's
    initial pure state and the system basis states, so completeness holds
    exactly. The entry magnitudes are ``alpha``, ``sqrt(p (1 - alpha^2))``,
    ``sqrt((1-p)) alpha`` and partners; the exchange amplitudes carry the
    dilation's factor ``i``. Note that the resulting map reproduces the
    closed-form environment populations but not the closed-form coherence,
    which belongs to the symmetric coupling family (see module docstring).
    """
    p = float(_probability(p))
    a, b = params.alpha, params.beta_amp
    sp = math.sqrt(p)
    sq = math.sqrt(1.0 - p)
    l0 = np.array([[a, 0.0],
                   [1j * sp * b, sq * a]], dtype=complex)
    l1 = np.array([[sq * b, 1j * sp * a],
                   [0.0, b]], dtype=complex)
    return KrausChannel(operators=(l0, l1), label="environment exchange")


def apply_channel(channel: KrausChannel, rho) -> DensityOperator:
    """Apply a Kraus channel to a density operator."""
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    if rho.dim != channel.dim:
        raise InputError(
            f"state dimension {rho.dim} does not match channel dimension {channel.dim}")
    m = rho.matrix
    out = sum(k @ m @ k.conj().T for k in channel.operators)
    return DensityOperator(out)


def system_initial_state(params: GadcParams) -> DensityOperator:
    """Pure initial system state ``alpha |g> + sqrt(1 - alpha^2) |e>``."""
    psi = np.array([params.alpha, params.beta_amp], dtype=complex)
    return DensityOperator(np.outer(psi, psi.conj()))


def environment_initial_state(params: GadcParams) -> DensityOperator:
    """Thermal initial environment state ``diag(w0, w1)``."""
    return DensityOperator(np.diag([params.w0, params.w1]).astype(complex))


def joint_initial_state(params: GadcParams) -> DensityOperator:
    """Product of the initial system and environment states."""
    joint = tensor_product(system_initial_state(params),
                           environment_initial_state(params))
    return DensityOperator(joint)


def _decay(params: GadcParams, times):
    """``gamma = exp(-gamma_rate t)`` and ``delta = 1 - gamma`` at ``times``.

    ``delta`` is taken as ``-expm1(-gamma_rate t)``, which keeps its
    relative precision at small ``gamma_rate t``.
    """
    t = np.asarray(times, dtype=float)
    # written so that a NaN time fails too; t = inf is the thermal limit
    if not np.all(t >= 0.0):
        raise InputError(f"time must be nonnegative, got {float(np.min(t))}")
    x = -params.gamma_rate * t
    return np.exp(x), -np.expm1(x)


def _qubit_matrices(params: GadcParams, keep, lose) -> np.ndarray:
    """Closed-form marginal whose coherence decays as ``sqrt(keep)``.

    ``keep, lose = gamma, delta`` gives the system state and the exchanged
    pair ``delta, gamma`` gives the environment state.
    """
    a2 = params.alpha ** 2
    b2 = 1.0 - a2
    w0, w1 = params.w0, params.w1
    m = np.empty(np.shape(keep) + (2, 2), dtype=complex)
    m[..., 0, 0] = (a2 + b2 * lose) * w0 + a2 * keep * w1
    m[..., 1, 1] = b2 * keep * w0 + (b2 + a2 * lose) * w1
    m[..., 0, 1] = m[..., 1, 0] = params.alpha * params.beta_amp * np.sqrt(keep)
    return m


def _dilated_matrices(params: GadcParams, p) -> np.ndarray:
    """Initial product state conjugated with :func:`gadc_unitary` at ``p``."""
    u = gadc_unitary(p)
    return u @ joint_initial_state(params).matrix @ u.conj().swapaxes(-1, -2)


def _closed_form_joint_matrices(params: GadcParams, g, d) -> np.ndarray:
    """Matrices of :func:`joint_state_closed_form`, entry by entry."""
    sg, sd = np.sqrt(g), np.sqrt(d)
    a = params.alpha
    b = params.beta_amp
    w0, w1 = params.w0, params.w1
    a2, b2 = a * a, b * b
    m = np.zeros(np.shape(g) + (4, 4), dtype=complex)
    m[..., 0, 0] = a2 * w0
    m[..., 0, 1] = m[..., 1, 0] = a * b * w0 * sd
    m[..., 0, 2] = m[..., 2, 0] = a * b * w0 * sg
    m[..., 1, 1] = a2 * w1 * g + b2 * w0 * d
    m[..., 1, 2] = m[..., 2, 1] = (a2 * w1 + b2 * w0) * sd * sg
    m[..., 1, 3] = m[..., 3, 1] = a * b * w1 * sg
    m[..., 2, 2] = a2 * w1 * d + b2 * w0 * g
    m[..., 2, 3] = m[..., 3, 2] = a * b * w1 * sd
    m[..., 3, 3] = b2 * w1
    return m


def system_state(params: GadcParams, t: float) -> DensityOperator:
    """Closed-form system state at time ``t``.

    With ``gamma = exp(-gamma_rate t)`` and ``delta = 1 - gamma``, the
    matrix in the ``|g>, |e>`` basis is

    * ``rho_gg = [alpha^2 + (1-alpha^2) delta] w0 + alpha^2 gamma w1``
    * ``rho_ge = alpha sqrt(1-alpha^2) sqrt(gamma)``
    * ``rho_ee = (1-alpha^2) gamma w0 + [(1-alpha^2) + alpha^2 delta] w1``

    The populations relax toward ``diag(w0, w1)`` while the coherence
    decays as ``sqrt(gamma)``.
    """
    g, d = _decay(params, t)
    return DensityOperator(_qubit_matrices(params, g, d))


def system_states(params: GadcParams, times) -> np.ndarray:
    """:func:`system_state` at every time, a validated ``(T, 2, 2)`` stack."""
    g, d = _decay(params, times)
    return density_stack(_qubit_matrices(params, g, d))


def environment_state(params: GadcParams, t: float) -> DensityOperator:
    """Closed-form environment state at time ``t``.

    Mirror image of :func:`system_state` with the roles of ``gamma`` and
    ``delta`` exchanged; the coherence grows as ``sqrt(delta)``, i.e. as
    ``sqrt(1 - exp(-gamma_rate t))``.
    """
    g, d = _decay(params, t)
    return DensityOperator(_qubit_matrices(params, d, g))


def environment_states(params: GadcParams, times) -> np.ndarray:
    """:func:`environment_state` at every time, a ``(T, 2, 2)`` stack."""
    g, d = _decay(params, times)
    return density_stack(_qubit_matrices(params, d, g))


class BlochSeries(NamedTuple):
    """A closed-form marginal on a time grid, in Bloch form.

    ``coefficients = (z0, z1, c0, c1)`` give ``z = z0 + z1 g`` and
    ``x^2 = c0 + c1 g`` in the decay factor ``g = exp(-gamma_rate t)``,
    whose values on ``times`` are ``decay``. ``x2`` and ``radius =
    sqrt(z^2 + x^2)`` are evaluated on the grid, and ``matrices`` is the
    ``(T, 2, 2)`` stack of the same states from the matrix closed forms,
    checked for Hermiticity and unit trace.
    """

    times: np.ndarray
    decay: np.ndarray
    coefficients: tuple
    x2: np.ndarray
    radius: np.ndarray
    matrices: np.ndarray


def _bloch(params: GadcParams, times, keep_is_decay: bool) -> BlochSeries:
    """Bloch series of the marginal whose coherence decays as ``sqrt(keep)``.

    For the matrices of :func:`_qubit_matrices`, ``rho_gg - rho_ee =
    (w0 - w1) - 2 keep (b^2 w0 - a^2 w1)`` and ``(2 rho_ge)^2 = 4 a^2 b^2
    keep``. The state is positive when ``radius <= 1 - 2 PSD_FLOOR``, the
    eigenvalue floor of :func:`~strongcouple.spectra.density_stack`.
    """
    times = np.asarray(times, dtype=float)
    g, d = _decay(params, times)
    a2 = params.alpha ** 2
    b2 = 1.0 - a2
    lead = params.w0 - params.w1
    slope = -2.0 * (b2 * params.w0 - a2 * params.w1)
    coh = 4.0 * a2 * b2
    if keep_is_decay:
        coefficients = (lead, slope, 0.0, coh)
        matrices = _qubit_matrices(params, g, d)
    else:
        coefficients = (lead + slope, -slope, coh, -coh)
        matrices = _qubit_matrices(params, d, g)
    z0, z1, c0, c1 = coefficients
    z = z0 + z1 * g
    x2 = np.maximum(c0 + c1 * g, 0.0)
    radius = np.sqrt(z * z + x2)
    if np.any(radius > 1.0 - 2.0 * PSD_FLOOR):
        worst = float(np.max(radius))
        raise InputError(f"Bloch radius {worst:.15g} exceeds one by more "
                         f"than {-2.0 * PSD_FLOOR:.0e}; not a density operator")
    return BlochSeries(times=times, decay=g, coefficients=coefficients,
                       x2=x2, radius=radius,
                       matrices=unit_trace_stack(matrices))


def system_bloch(params: GadcParams, times) -> BlochSeries:
    """:func:`system_state` at every time, in Bloch form.

    ``z = (w0 - w1) - 2 (b^2 w0 - a^2 w1) g`` and ``x^2 = 4 a^2 b^2 g``.
    """
    return _bloch(params, times, keep_is_decay=True)


def environment_bloch(params: GadcParams, times) -> BlochSeries:
    """:func:`environment_state` at every time, in Bloch form.

    The system's lines with ``g`` replaced by ``1 - g``.
    """
    return _bloch(params, times, keep_is_decay=False)


def joint_state(params: GadcParams, t: float) -> DensityOperator:
    """Joint state evolved with the exact unitary dilation.

    ``U(p(t))`` conjugation of the initial product state, so the joint
    spectrum, and hence the joint entropy, is constant in time. The
    partial trace over the environment reproduces :func:`system_state`
    exactly; the trace over the system reproduces the closed-form
    environment populations but a reduced coherence (see module
    docstring).
    """
    _, d = _decay(params, t)
    return DensityOperator(_dilated_matrices(params, d))


def joint_states(params: GadcParams, times) -> np.ndarray:
    """:func:`joint_state` at every time, a validated ``(T, 4, 4)`` stack."""
    _, d = _decay(params, times)
    return density_stack(_dilated_matrices(params, d))


def joint_state_closed_form(params: GadcParams, t: float) -> DensityOperator:
    """Joint state family generated by the symmetric coupling matrix.

    With ``g = exp(-gamma_rate t)``, ``d = 1 - g``, ``sg = sqrt(g)``,
    ``sd = sqrt(d)`` and ``a, b`` the initial amplitudes, the matrix in
    the ordered basis ``|g,E0>, |g,E1>, |e,E0>, |e,E1>`` is::

        [ a^2 w0       a b w0 sd                 a b w0 sg                 0         ]
        [ a b w0 sd    a^2 w1 g + b^2 w0 d       (a^2 w1 + b^2 w0) sd sg   a b w1 sg ]
        [ a b w0 sg    (a^2 w1 + b^2 w0) sd sg   a^2 w1 d + b^2 w0 g       a b w1 sd ]
        [ 0            a b w1 sg                 a b w1 sd                 b^2 w1    ]

    Both partial traces of this family equal the closed-form marginals
    entrywise, at the cost of a time-dependent joint spectrum. This is
    the family whose partial transpose feeds the negativity.
    """
    g, d = _decay(params, t)
    return DensityOperator(_closed_form_joint_matrices(params, g, d))


def joint_states_closed_form(params: GadcParams, times) -> np.ndarray:
    """:func:`joint_state_closed_form` at every time, a ``(T, 4, 4)`` stack.

    The family is the congruence ``M rho_0 M^T`` of the positive initial
    product state with the real matrix of :func:`gadc_coupling_matrix`,
    so it is positive by construction; the stack is checked for
    Hermiticity and unit trace only. ``validate`` checks the congruence
    identity entrywise.
    """
    g, d = _decay(params, times)
    return unit_trace_stack(_closed_form_joint_matrices(params, g, d))


def joint_radii_closed_form(params: GadcParams, times) -> np.ndarray:
    """Spectrum of :func:`joint_state_closed_form` as a Bloch radius.

    With a pure initial system, the family ``M rho_0 M^T`` has rank two:
    it is ``w0 |v0><v0| + w1 |v1><v1|`` with ``v_k = M |psi, k>``, unit
    vectors with overlap ``2 a b sqrt(g d)``. Its nonzero eigenvalues are
    those of the Gram matrix ``[[w0, s], [s, w1]]``, ``s = 2 a b sqrt(w0
    w1 g d)``, that is ``(1 +- R)/2`` with ``R^2 = (w0 - w1)^2 + 16 a^2
    b^2 w0 w1 g d``. Returns ``R`` at every time.
    """
    g, d = _decay(params, times)
    a2 = params.alpha ** 2
    w0, w1 = params.w0, params.w1
    return np.sqrt((w0 - w1) ** 2 + 16.0 * a2 * (1.0 - a2) * w0 * w1 * g * d)


def joint_negativities_closed_form(params: GadcParams, times) -> np.ndarray:
    """Negativity of :func:`joint_state_closed_form` at every time.

    With ``u = g (1 - g)``, ``X = a^2 w1``, ``Y = b^2 w0`` and ``D = Y^2
    - X^2``, the partial transpose has the characteristic polynomial
    ``p = lam^4 - lam^3 + c2 lam^2 + c1 lam + c0`` with ``c2 = w0 w1 -
    4 X Y u``, ``c1 = u D (w0 - w1)`` and ``c0 = -(u D)^2``. A two-qubit
    partial transpose has at most one negative eigenvalue (Sanpera,
    Tarrach and Vidal, Phys. Rev. A 58, 826 (1998)), and ``c0 <
    0`` whenever ``u D != 0``, so there is then exactly one; ``u D = 0``
    gives zero. The negativity is minus that root.

    All four roots are real, so ``p`` is convex and decreasing below its
    smallest root, and Newton's method started below that root rises
    monotonically to it. The start is the largest of three lower bounds:
    the negative root of ``c2 lam^2 + c1 lam + c0`` (``p`` exceeds it by
    ``lam^3 (lam - 1) >= 0`` for ``lam <= 0``), ``-(sqrt(max(c1, 0)) +
    (-c0)^(1/3))``, and ``-1/2``. The iteration runs on ``lam / sigma``,
    with ``sigma`` the magnitude of the start, so that ``(u D)^2`` never
    underflows. The result depends on ``g`` only through ``u``.

    Raises :class:`NumericalError` when the last Newton step, relative to
    the root, exceeds ``NEGATIVITY_NEWTON_TOL`` at some time.
    """
    times = np.asarray(times, dtype=float)
    a2 = params.alpha ** 2
    w0, w1 = params.w0, params.w1
    x, y = a2 * w1, (1.0 - a2) * w0
    u = np.multiply(*_decay(params, times))
    c2 = w0 * w1 - 4.0 * x * y * u
    # u D, with Y - X = w0 - a^2 exactly
    v = u * ((w0 - a2) * (x + y))
    live = v != 0.0
    v, c2 = v[live], c2[live]
    sigma = _negativity_start(v, c2, w0 - w1)
    # p(sigma nu) / sigma^2 = sigma^2 nu^4 - sigma nu^3 + c2 nu^2
    #                         + r (w0 - w1) nu - r^2,  r = u D / sigma
    r = v / sigma
    re, rr, s2 = r * (w0 - w1), r * r, sigma * sigma
    nu = np.full_like(v, -1.0)
    step = nu
    for _ in range(_NEGATIVITY_NEWTON_STEPS):
        step = ((((s2 * nu - sigma) * nu + c2) * nu + re) * nu - rr) \
            / (((4.0 * s2 * nu - 3.0 * sigma) * nu + 2.0 * c2) * nu + re)
        nu -= step
    last = np.abs(step / nu)
    # written so that a NaN step trips the gate too
    if not np.all(last <= NEGATIVITY_NEWTON_TOL):
        worst = int(np.argmax(np.nan_to_num(last, nan=np.inf)))
        raise NumericalError(
            f"negativity Newton convergence: last step {last[worst]:.3e} "
            f"of the root exceeds {NEGATIVITY_NEWTON_TOL:.0e} relative "
            f"at t = {times[live][worst]:.6g}")
    neg = np.zeros(times.shape)
    neg[live] = -sigma * nu
    return neg


def _negativity_start(v, c2, e) -> np.ndarray:
    """Magnitude of the largest lower bound on the quartic's negative root.

    ``v = u D`` is nonzero and ``e = w0 - w1``. The negative root of
    ``c2 lam^2 + v e lam - v^2`` is written without cancellation for
    either sign of ``sign(v) e``; it is infinite (there is no such root)
    where ``c2 = 0 < sign(v) e``.
    """
    ev = np.where(v > 0.0, e, -e)
    k = np.sqrt(e * e + 4.0 * c2)
    av = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        quadratic = np.where(ev > 0.0, av * (k + ev) / (2.0 * c2),
                             2.0 * av / (k - ev))
    coarse = np.sqrt(np.maximum(v * e, 0.0)) + av ** (2.0 / 3.0)
    return np.minimum(np.minimum(quadratic, coarse), 0.5)


def iterate_map_check(params: GadcParams, t: float, n_steps: int) -> DensityOperator:
    """Compose the single-step system channel ``n_steps`` times.

    Each step uses the exact per-step probability ``p = gamma_rate t / n``,
    so the composed damping factor is ``(1 - gamma_rate t / n)^n`` and the
    result converges to :func:`system_state` at rate ``O(1/n)``. The steps
    run on plain matrices with the arithmetic of :func:`apply_channel`
    (Kraus sum, then the Hermitian average of :class:`DensityOperator`),
    and only the final state is validated.
    """
    if n_steps < 1:
        raise InputError(f"n_steps must be at least 1, got {n_steps}")
    if not t >= 0.0:
        raise InputError(f"time must be nonnegative, got {t}")
    p_step = params.gamma_rate * t / n_steps
    if p_step > 1.0:
        raise InputError(
            f"per-step probability {p_step:.3g} exceeds 1; increase n_steps")
    step = system_kraus(params, p_step)
    pairs = [(k, k.conj().T) for k in step.operators]
    m = system_initial_state(params).matrix
    for _ in range(n_steps):
        out = sum(k @ m @ k_adj for k, k_adj in pairs)
        m = (out + out.conj().T) / 2
    return DensityOperator(m)


def system_state_from_dilation(params: GadcParams, p: float) -> DensityOperator:
    """System state after one damping step via the unitary dilation route.

    Conjugates the joint initial state with :func:`gadc_unitary` at the
    given ``p`` and traces out the environment. Used as an independent
    route for consistency checks against :func:`system_kraus` and the
    closed forms.
    """
    joint = DensityOperator(_dilated_matrices(params, p))
    return partial_trace(joint, keep=0, dims=(2, 2))
