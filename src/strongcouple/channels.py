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
with ``p`` replaced by ``1 - exp(-gamma t)``. Each number given to the
module is converted by a converter of :mod:`strongcouple.errors`.

Every state is a plain array, and so is every set of Kraus operators,
a complex ``(..., K, n, n)`` stack. Each closed-form family has one
builder; it takes ``times`` of any shape, a scalar included, and returns
``np.shape(times) + (n, n)``. The builders follow the rule of
:mod:`strongcouple.spectra`: their output is positive by construction
and is checked for Hermiticity and unit trace only, while
:func:`apply_channel` runs the full density check on the states it
takes. The Kraus builders return operators that are complete by
construction, unchecked, and :func:`apply_channel` is the one place
that checks the operators it is given. No builder diagonalizes its own
output. Each public builder checks its own output once; a composite
builder is assembled from unchecked private helpers, so the initial
states inside :func:`joint_initial_state` and :func:`joint_states` are
not checked a second time.

Two joint-state families
------------------------
The single-excitation exchange block can be written with or without a
phase on its off-diagonal amplitudes, and the two choices are not
equivalent:

* :func:`gadc_unitary` carries a factor ``i`` on the exchange amplitudes
  and is exactly unitary for every ``p``. Conjugation with it preserves
  the joint spectrum, so :func:`joint_states` has a time-independent joint
  entropy.
* :func:`gadc_coupling_matrix` is the symmetric all-positive variant. It
  is unitary only at ``p = 0`` and ``p = 1`` (where it is the identity and
  the SWAP gate), yet conjugating the initial product state with it still
  produces a valid density operator family,
  :func:`joint_states_closed_form`, whose partial traces reproduce the
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
real ``x``. Both are one pair of lines in a keep variable ``k``, the
factor under the square root of the marginal's coherence: ``z = lead +
slope k`` and ``x^2 = coh k``, with the system's three coefficients for
both. The system keeps ``k = g = exp(-gamma_rate t)`` and the
environment ``k = d = 1 - g``, the two outputs of :func:`_decay`, so
``d`` comes from ``expm1`` and keeps its relative precision at small
``t``. :func:`system_bloch` and :func:`environment_bloch` give these
lines and their values on a time grid as a :class:`BlochSeries`, which
carries everything a run needs of a marginal: the Bloch radius for the
spectrum, ``|x|`` for the coherence, the coefficients and the
displacement of ``k`` for the exact first-law split of
:func:`strongcouple.firstlaw.qubit_thermo_trajectory`, and the real
closed-form populations from which that split reads the internal
energy change. No ``(T, 2, 2)`` matrix stack is built: the
populations are checked to be finite and to sum to one, and the radius's
consumer :func:`~strongcouple.infomeasures.bloch_entropies` checks it.

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

Blocks of parameter sets
------------------------
A sweep evaluates parameter sets that share a grid as one block. The
private :class:`_Columns` holds the numbers of ``R`` sets as ``(R, 1)``
columns, and with ``(R, T)`` times the decay factor, the Bloch series,
the joint radii and negativities and the two joint-state builders
broadcast over the rows. So do the three initial states, and the Kraus
builders and the dilation with an ``(R, 1)`` column of decay
probabilities, which is how ``validate`` evaluates its random draws.
Each closed form is one public function, taking a :class:`GadcParams`,
a sequence of them or columns, and reads its parameters through
:func:`_columns`. One rule covers all of them: a
sequence of ``R`` sets is ``R`` rows of ``(R, 1)`` columns, the result
has the broadcast shape of those columns and the times, ``(R, T)`` for
``(T,)`` times, and row ``i`` equals the call on set ``i`` alone bit for
bit. The initial states and the dilation read their parameters through
:func:`_columns` too and follow the same rule, with ``p`` or nothing in
place of the times; :func:`iterate_map_check` composes the steps of one
state, as powers of the step's transfer matrix, and takes one
:class:`GadcParams` only. A closed form reads its times through
:func:`_grid`, which checks them and evaluates the decay factor on them
as a private :class:`_Grid`, and which passes a grid it is given
through unchanged. A run builds the grid of its block once, with the
decay values of :func:`_decay` on the dimensionless times ``s =
gamma_rate t``, and hands it to the Bloch series, the joint negativities
and the joint radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, _as_array, _as_count, _as_float, _gate
from .spectra import (check_unit_traces, density_stack, partial_trace,
                      unit_trace_stack)

KRAUS_COMPLETENESS_TOL = 1e-10
# Bound on the last Newton step of the closed-form negativity, relative to
# the root; eight steps from the start reach round-off, about 3e-16.
NEGATIVITY_NEWTON_TOL = 1e-12
_NEGATIVITY_NEWTON_STEPS = 8
# Most steps iterate_map_check composes: the round-off bound of its
# entries, 4 n machine epsilons, reaches one here.
_MAX_MAP_STEPS = 2 ** 50

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

    Each field is converted to a float once, at construction; a value
    that has no float, such as an integer beyond the float range, raises
    :class:`InputError` naming the field.
    """

    alpha: float
    w0: float
    gamma_rate: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "w0", "gamma_rate"):
            object.__setattr__(self, name,
                               _as_float(getattr(self, name), name))
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
        """Excited-state amplitude ``sqrt(1 - alpha^2)`` of the initial
        state."""
        return math.sqrt(max(0.0, 1.0 - self.alpha * self.alpha))

    @classmethod
    def from_inverse_temperature(cls, alpha, beta, gamma_rate=1.0):
        """Build parameters with ``w0`` fixed by a thermal environment.

        ``beta`` is the inverse temperature in units of the energy gap, so
        ``w0 = 1 / (1 + exp(-beta))``. ``beta = inf`` is the zero-temperature
        limit ``w0 = 1``.
        """
        beta = _as_float(beta, "beta")
        if not beta > 0.0:
            raise InputError(f"beta must be positive, got {beta}")
        w0 = 1.0 / (1.0 + math.exp(-beta)) if math.isfinite(beta) else 1.0
        return cls(alpha=alpha, w0=w0, gamma_rate=gamma_rate)


class _Columns(NamedTuple):
    """The numbers of :class:`GadcParams` that the closed forms read.

    Floats for one parameter set, or ``(R, 1)`` columns for a block of
    ``R`` sets, which broadcast against ``(R, T)`` times. Every entry is
    computed from its own set in float arithmetic, so a row of a block
    equals that set alone bit for bit. The squares are stored because
    ``x ** 2`` of a float and of an array can differ in the last place.
    """

    alpha: float
    alpha_sq: float
    beta_amp: float
    w0: float
    w1: float
    gamma_rate: float
    # (w0 - w1) ** 2
    bias_sq: float


def _row_numbers(params: GadcParams) -> _Columns:
    """The :class:`_Columns` of one parameter set, as floats."""
    return _Columns(params.alpha, params.alpha ** 2, params.beta_amp,
                    params.w0, params.w1, params.gamma_rate,
                    (params.w0 - params.w1) ** 2)


def _columns(params) -> _Columns:
    """``params`` as :class:`_Columns`; columns pass through.

    A :class:`GadcParams` gives floats, which broadcast like one row;
    a list or tuple of ``R`` sets, one included, gives ``(R, 1)``
    columns. Anything else, an empty sequence or an item that is no
    :class:`GadcParams` raises :class:`InputError` naming its type.
    """
    if isinstance(params, _Columns):
        return params
    if isinstance(params, GadcParams):
        return _row_numbers(params)
    if not isinstance(params, (list, tuple)):
        raise InputError("parameters need a GadcParams or a sequence of "
                         f"GadcParams, got {type(params).__name__}")
    if not params:
        raise InputError("parameters need at least one GadcParams, got an "
                         f"empty {type(params).__name__}")
    for i, p in enumerate(params):
        if not isinstance(p, GadcParams):
            raise InputError(f"parameter item {i} needs a GadcParams, got "
                             f"{type(p).__name__}")
    table = np.array([_row_numbers(p) for p in params])
    return _Columns(*table.T.copy()[:, :, None])


def _completeness_gap(operators: np.ndarray) -> float:
    """Largest ``|sum_k K_k^+ K_k - I|`` over a ``(..., K, n, n)`` stack."""
    total = (operators.conj().swapaxes(-1, -2) @ operators).sum(axis=-3)
    return float(np.max(np.abs(total - np.eye(operators.shape[-1]))))


def _probability(p) -> np.ndarray:
    """``p`` as a float array whose entries are checked to lie in [0, 1].

    Written so that a NaN entry fails the check too.
    """
    p = _as_array(p, "probabilities")
    if not ((0.0 <= p) & (p <= 1.0)).all():
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
    :func:`joint_states_closed_form`. An array of probabilities gives a
    stack, as for :func:`gadc_unitary`.
    """
    return np.abs(gadc_unitary(p)).astype(complex)


def system_kraus(params, p) -> np.ndarray:
    """Four Kraus operators of the thermal damping channel on the system.

    In the ``|g>, |e>`` basis, for the decay probability ``p`` in [0, 1]:

    * ``K00 = sqrt(w0) (|g><g| + sqrt(1-p) |e><e|)``
    * ``K01 = sqrt(w0) sqrt(p) |g><e|``
    * ``K10 = sqrt(w1) sqrt(p) |e><g|``
    * ``K11 = sqrt(w1) (sqrt(1-p) |g><g| + |e><e|)``

    They satisfy the completeness relation exactly for every ``p, w0``,
    so the builder returns them unchecked; ``validate`` checks the
    relation on random draws. ``params`` is a :class:`GadcParams` or the
    ``(R, 1)`` columns of :class:`_Columns`, and ``p`` an array of any
    shape, as for :func:`gadc_unitary`. The result is a complex array
    with one set of operators per entry of their broadcast shape ``S``,
    ``S + (4, 2, 2)``, the operators on the third axis from last. One
    parameter set and a scalar ``p`` give ``(4, 2, 2)``.
    """
    c = _columns(params)
    p = _probability(p)
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    s0, s1 = np.sqrt(c.w0), np.sqrt(c.w1)
    k = np.zeros(np.broadcast_shapes(np.shape(c.w0), p.shape) + (4, 2, 2),
                 dtype=complex)
    k[..., 0, 0, 0] = s0
    k[..., 0, 1, 1] = s0 * sq
    k[..., 1, 0, 1] = s0 * sp
    k[..., 2, 1, 0] = s1 * sp
    k[..., 3, 0, 0] = s1 * sq
    k[..., 3, 1, 1] = s1
    return k


def environment_kraus(params, p) -> np.ndarray:
    """Two Kraus operators for the environment side of the exchange.

    Obtained by sandwiching the unitary dilation between the system's
    initial pure state and the system basis states, so completeness holds
    exactly and the operators are returned unchecked. The entry
    magnitudes are ``alpha``, ``sqrt(p (1 - alpha^2))``,
    ``sqrt((1-p)) alpha`` and partners; the exchange amplitudes carry the
    dilation's factor ``i``. Note that the resulting map reproduces the
    closed-form environment populations but not the closed-form coherence,
    which belongs to the symmetric coupling family (see module docstring).
    ``params`` and ``p`` broadcast as for :func:`system_kraus`, and the
    complex array of operators has shape ``S + (2, 2, 2)``.
    """
    c = _columns(params)
    p = _probability(p)
    a, b = c.alpha, c.beta_amp
    sp, sq = np.sqrt(p), np.sqrt(1.0 - p)
    k = np.zeros(np.broadcast_shapes(np.shape(c.w0), p.shape) + (2, 2, 2),
                 dtype=complex)
    k[..., 0, 0, 0] = a
    k.imag[..., 0, 1, 0] = sp * b
    k[..., 0, 1, 1] = sq * a
    k[..., 1, 0, 0] = sq * b
    k.imag[..., 1, 0, 1] = sp * a
    k[..., 1, 1, 1] = b
    return k


def apply_channel(operators, states) -> np.ndarray:
    """Apply Kraus operators to a ``(..., n, n)`` stack of states.

    ``operators`` has shape ``(..., K, n, n)``: the ``K`` operators of
    one channel on the last three axes, and a stack of channels on the
    leading ones, such as one channel per parameter draw. The stack of
    states broadcasts against the stack of channels: one channel maps
    every state, and a stack of channels maps one state or a state each.

    The operators are converted by :func:`~strongcouple.errors._as_array`,
    which refuses text and ragged lists, then checked here, in this
    order: they form a square stack; every entry is finite, before any
    product, so that NaN and inf raise rather than warn; every channel
    is complete, ``sum_k K_k^+ K_k = I`` to within
    ``KRAUS_COMPLETENESS_TOL``; and their dimension is the states'. The
    states are validated with :func:`~strongcouple.spectra.density_stack`;
    a Kraus sum of a positive state is positive, so the result is
    checked for Hermiticity and unit trace only.
    """
    ops = _as_array(operators, "Kraus operators", complex)
    if ops.size == 0:
        raise InputError("a channel needs at least one Kraus operator")
    if ops.ndim < 3 or ops.shape[-1] != ops.shape[-2]:
        raise InputError("Kraus operators must be square matrices of "
                         f"one shape, got shape {ops.shape}")
    if not np.isfinite(ops).all():
        raise InputError("Kraus operators have non-finite entries")
    # finite entries can still overflow the products, to inf or NaN,
    # which fail the gate
    with np.errstate(over="ignore", invalid="ignore"):
        dev = _completeness_gap(ops)
    _gate(dev, KRAUS_COMPLETENESS_TOL, lambda i: (
        f"Kraus completeness violated: max |sum K^+ K - I| = {dev:.3e}"),
        InputError)
    m = density_stack(states)
    if m.shape[-1] != ops.shape[-1]:
        raise InputError(f"state dimension {m.shape[-1]} does not match "
                         f"channel dimension {ops.shape[-1]}")
    adjoints = ops.conj().swapaxes(-1, -2)
    # the terms are summed in the order of the Kraus axis
    return unit_trace_stack(
        (ops @ m[..., None, :, :] @ adjoints).sum(axis=-3))


def _system_initial_matrix(params) -> np.ndarray:
    """Matrix of :func:`system_initial_state`, unchecked.

    ``params`` is a :class:`GadcParams` or :class:`_Columns`; columns
    give a stack of shape ``np.shape(params.alpha) + (2, 2)``, and so do
    the other initial matrices.
    """
    psi = np.empty(np.shape(params.alpha) + (2,), dtype=complex)
    psi[..., 0] = params.alpha
    psi[..., 1] = params.beta_amp
    return psi[..., :, None] * psi.conj()[..., None, :]


def _environment_initial_matrix(params) -> np.ndarray:
    """Matrix of :func:`environment_initial_state`, unchecked."""
    m = np.zeros(np.shape(params.w0) + (2, 2), dtype=complex)
    m[..., 0, 0] = params.w0
    m[..., 1, 1] = params.w1
    return m


def _joint_initial_matrix(params) -> np.ndarray:
    """Matrix of :func:`joint_initial_state`, unchecked.

    The entries ``s[i, k] e[j, l]`` at row ``2 i + j``, column ``2 k + l``:
    the products ``numpy.kron`` forms, without its dispatch.
    """
    s = _system_initial_matrix(params)
    e = _environment_initial_matrix(params)
    return (s[..., :, None, :, None] * e[..., None, :, None, :]).reshape(
        s.shape[:-2] + (4, 4))


def system_initial_state(params) -> np.ndarray:
    """Pure initial system state ``alpha |g> + sqrt(1 - alpha^2) |e>``."""
    return unit_trace_stack(_system_initial_matrix(_columns(params)))


def environment_initial_state(params) -> np.ndarray:
    """Thermal initial environment state ``diag(w0, w1)``."""
    return unit_trace_stack(_environment_initial_matrix(_columns(params)))


def joint_initial_state(params) -> np.ndarray:
    """Product of the initial system and environment states."""
    return unit_trace_stack(_joint_initial_matrix(_columns(params)))


class _Grid(NamedTuple):
    """Float times with their decay values ``decay = exp(-gamma_rate t)``
    and ``lose = 1 - decay``, for one parameter set or a block's columns.
    """

    times: np.ndarray
    decay: np.ndarray
    lose: np.ndarray


def _grid(params, times) -> _Grid:
    """The :class:`_Grid` of ``times`` for ``params``; a grid passes
    through unchanged.

    The decay values are those of :func:`_decay` at ``s = gamma_rate
    t``. The three arrays have the broadcast shape of
    ``params.gamma_rate`` and ``times``: ``(R, T)`` for the columns of
    ``R`` sets and ``(T,)`` times, whose rows are then a read-only view
    of ``times``.
    """
    if isinstance(times, _Grid):
        return times
    t = _as_array(times, "times")
    # written so that a NaN time fails too; t = inf is the thermal limit
    if not (t >= 0.0).all():
        raise InputError(f"time must be nonnegative, got {float(t.min())}")
    with np.errstate(over="ignore"):  # inf is the thermal limit
        s = params.gamma_rate * t
    if t.shape != s.shape:
        t = np.broadcast_to(t, s.shape)
    return _Grid(t, *_decay(s))


def _decay(s) -> tuple:
    """``(exp(-s), -expm1(-s))``, the decay factor and ``1`` minus it at
    the dimensionless times ``s = gamma_rate t``; the second keeps its
    relative precision at small ``s``."""
    x = np.negative(s)
    return np.exp(x), -np.expm1(x)


def _qubit_populations(params, keep, lose) -> np.ndarray:
    """Ground and excited populations of :func:`_qubit_matrices`.

    Real, of shape ``np.shape(keep) + (2,)``.
    """
    c = _columns(params)
    a2 = c.alpha_sq
    b2 = 1.0 - a2
    w0, w1 = c.w0, c.w1
    pops = np.empty(np.shape(keep) + (2,))
    pops[..., 0] = (a2 + b2 * lose) * w0 + a2 * keep * w1
    pops[..., 1] = b2 * keep * w0 + (b2 + a2 * lose) * w1
    return pops


def _qubit_matrices(params, keep, lose) -> np.ndarray:
    """Closed-form marginal whose coherence decays as ``sqrt(keep)``.

    ``keep, lose = gamma, delta`` gives the system state and the exchanged
    pair ``delta, gamma`` gives the environment state. Unchecked:
    :func:`system_states` and :func:`environment_states` check the
    result as builders, and ``validate`` hands its environment stacks to
    :func:`~strongcouple.firstlaw.thermo_trajectory`, which checks its
    input.
    """
    pops = _qubit_populations(params, keep, lose)
    m = np.empty(np.shape(keep) + (2, 2), dtype=complex)
    m[..., 0, 0] = pops[..., 0]
    m[..., 1, 1] = pops[..., 1]
    m[..., 0, 1] = m[..., 1, 0] = (params.alpha * params.beta_amp
                                   * np.sqrt(keep))
    return m


def _dilated_matrices(params, p) -> np.ndarray:
    """Initial product state conjugated with :func:`gadc_unitary` at ``p``.

    Unchecked: :func:`joint_states` checks the result as a builder,
    :func:`system_state_from_dilation` hands it to
    :func:`~strongcouple.spectra.partial_trace`, which checks its input,
    and a run hands its state at ``t_max`` to
    :func:`~strongcouple.infomeasures.negativities`.
    """
    u = gadc_unitary(p)
    return u @ _joint_initial_matrix(params) @ u.conj().swapaxes(-1, -2)


def _closed_form_joint_matrices(params, g, d) -> np.ndarray:
    """Matrices of :func:`joint_states_closed_form`, entry by entry.

    Unchecked: :func:`joint_states_closed_form` checks the result as a
    builder, and ``validate`` hands its stacks to
    :func:`~strongcouple.spectra.partial_trace` and
    :func:`~strongcouple.infomeasures.negativities`, which check their
    input.
    """
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


def system_states(params, times) -> np.ndarray:
    """Closed-form system states at ``times``.

    With ``gamma = exp(-gamma_rate t)`` and ``delta = 1 - gamma``, the
    matrix in the ``|g>, |e>`` basis is

    * ``rho_gg = [alpha^2 + (1-alpha^2) delta] w0 + alpha^2 gamma w1``
    * ``rho_ge = alpha sqrt(1-alpha^2) sqrt(gamma)``
    * ``rho_ee = (1-alpha^2) gamma w0 + [(1-alpha^2) + alpha^2 delta] w1``

    The populations relax toward ``diag(w0, w1)`` while the coherence
    decays as ``sqrt(gamma)``.
    """
    c = _columns(params)
    _, g, d = _grid(c, times)
    return unit_trace_stack(_qubit_matrices(c, g, d))


def environment_states(params, times) -> np.ndarray:
    """Closed-form environment states at ``times``.

    Mirror image of :func:`system_states` with the roles of ``gamma`` and
    ``delta`` exchanged; the coherence grows as ``sqrt(delta)``, i.e. as
    ``sqrt(1 - exp(-gamma_rate t))``.
    """
    c = _columns(params)
    _, g, d = _grid(c, times)
    return unit_trace_stack(_qubit_matrices(c, d, g))


class BlochSeries(NamedTuple):
    """A closed-form marginal on a time grid, in Bloch form.

    ``coefficients = (lead, slope, coh)`` give ``z = lead + slope k`` and
    ``x^2 = coh k`` in the marginal's keep variable ``k``, whose values on
    ``times`` are ``keep``: ``g = exp(-gamma_rate t)`` for the system and
    ``d = 1 - g`` for the environment. ``step`` is the displacement of
    ``k`` from its value at the grid's first time, ``g - g0`` for the
    system and ``-(g - g0)`` for the environment: ``dd = -dg``, and the
    environment takes the system's displacement negated, not ``d - d0``,
    so that the heats of the two marginals of an incoherent state cancel
    bit for bit. ``x2`` and ``radius = sqrt(z^2 + x^2)`` are evaluated on
    the grid, and ``populations`` is the real ``(T, 2)`` array of the
    ground and excited populations from the closed forms that give the
    diagonals of :func:`system_states` and :func:`environment_states`,
    checked to be finite and to sum to one. ``radius`` is checked by its
    consumer, ``bloch_entropies``.
    """

    times: np.ndarray
    keep: np.ndarray
    step: np.ndarray
    coefficients: tuple
    x2: np.ndarray
    radius: np.ndarray
    populations: np.ndarray


def _bloch(params, times, keep_is_decay: bool) -> BlochSeries:
    """Bloch series of the marginal whose coherence decays as ``sqrt(keep)``.

    The body of :func:`system_bloch` (``keep_is_decay``) and of
    :func:`environment_bloch`, at ``times`` or on a :class:`_Grid`. For
    the populations of :func:`_qubit_populations` and the coherence of
    :func:`_qubit_matrices`, ``rho_gg - rho_ee = (w0 - w1) - 2 keep (b^2
    w0 - a^2 w1)`` and ``(2 rho_ge)^2 = 4 a^2 b^2 keep``. The radius is
    left to the floor of ``bloch_entropies``.
    """
    c = _columns(params)
    times, g, d = _grid(c, times)
    keep, lose = (g, d) if keep_is_decay else (d, g)
    pops = _qubit_populations(c, keep, lose)
    if not np.isfinite(pops).all():
        raise InputError("populations have non-finite entries")
    # the two columns added: a reduction over a length-2 axis costs more
    check_unit_traces(pops[..., 0] + pops[..., 1])
    a2 = c.alpha_sq
    b2 = 1.0 - a2
    lead = c.w0 - c.w1
    slope = -2.0 * (b2 * c.w0 - a2 * c.w1)
    coh = 4.0 * a2 * b2
    # each row's displacement from its first time, the environment's the
    # system's negated (g0 - g is -(g - g0) exactly); a scalar time is its
    # own start
    g0 = g[..., :1] if np.ndim(g) else g
    z = lead + slope * keep
    x2 = coh * keep
    return BlochSeries(times=times, keep=keep,
                       step=g - g0 if keep_is_decay else g0 - g,
                       coefficients=(lead, slope, coh), x2=x2,
                       radius=np.sqrt(z * z + x2), populations=pops)


def system_bloch(params, times) -> BlochSeries:
    """The states of :func:`system_states`, in Bloch form.

    ``z = (w0 - w1) - 2 (b^2 w0 - a^2 w1) g`` and ``x^2 = 4 a^2 b^2 g``.
    """
    return _bloch(params, times, keep_is_decay=True)


def environment_bloch(params, times) -> BlochSeries:
    """The states of :func:`environment_states`, in Bloch form.

    The system's lines and coefficients, on the keep variable ``d = 1 -
    g`` in place of ``g``.
    """
    return _bloch(params, times, keep_is_decay=False)


def joint_states(params, times) -> np.ndarray:
    """Joint states evolved with the exact unitary dilation.

    ``U(p(t))`` conjugation of the initial product state, so the joint
    spectrum, and hence the joint entropy, is constant in time. The
    partial trace over the environment reproduces :func:`system_states`
    exactly; the trace over the system reproduces the closed-form
    environment populations but a reduced coherence (see module
    docstring).
    """
    c = _columns(params)
    _, _, d = _grid(c, times)
    return unit_trace_stack(_dilated_matrices(c, d))


def joint_states_closed_form(params, times) -> np.ndarray:
    """Joint state family generated by the symmetric coupling matrix.

    With ``g = exp(-gamma_rate t)``, ``d = 1 - g``, ``sg = sqrt(g)``,
    ``sd = sqrt(d)`` and ``a, b`` the initial amplitudes, the matrix in
    the ordered basis ``|g,E0>, |g,E1>, |e,E0>, |e,E1>`` is, with ``c =
    a^2 w1 + b^2 w0``::

        [ a^2 w0     a b w0 sd             a b w0 sg             0         ]
        [ a b w0 sd  a^2 w1 g + b^2 w0 d   c sd sg               a b w1 sg ]
        [ a b w0 sg  c sd sg               a^2 w1 d + b^2 w0 g   a b w1 sd ]
        [ 0          a b w1 sg             a b w1 sd             b^2 w1    ]

    Both partial traces of this family equal the closed-form marginals
    entrywise, at the cost of a time-dependent joint spectrum. This is
    the family whose partial transpose feeds the negativity.

    The family is the congruence ``M rho_0 M^T`` of the positive initial
    product state with the real matrix of :func:`gadc_coupling_matrix`,
    so it is positive by construction; the stack is checked for
    Hermiticity and unit trace only. ``validate`` checks the congruence
    identity entrywise.
    """
    c = _columns(params)
    _, g, d = _grid(c, times)
    return unit_trace_stack(_closed_form_joint_matrices(c, g, d))


def joint_radii_closed_form(params, times) -> np.ndarray:
    """Spectrum of :func:`joint_states_closed_form` as a Bloch radius.

    With a pure initial system, the family ``M rho_0 M^T`` has rank two:
    it is ``w0 |v0><v0| + w1 |v1><v1|`` with ``v_k = M |psi, k>``, unit
    vectors with overlap ``2 a b sqrt(g d)``. Its nonzero eigenvalues are
    those of the Gram matrix ``[[w0, s], [s, w1]]``, ``s = 2 a b sqrt(w0
    w1 g d)``, that is ``(1 +- R)/2`` with ``R^2 = (w0 - w1)^2 + 16 a^2
    b^2 w0 w1 g d``. Returns ``R`` at every time.
    """
    c = _columns(params)
    _, g, d = _grid(c, times)
    a2 = c.alpha_sq
    return np.sqrt(c.bias_sq + 16.0 * a2 * (1.0 - a2) * c.w0 * c.w1 * g * d)


def joint_negativities_closed_form(params, times) -> np.ndarray:
    """Negativity of :func:`joint_states_closed_form` at every time.

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

    Raises :class:`NumericalError` naming the time where the last Newton
    step, relative to the root, exceeds ``NEGATIVITY_NEWTON_TOL``.
    """
    c = _columns(params)
    times, g, d = _grid(c, times)
    a2 = c.alpha_sq
    w0, w1 = c.w0, c.w1
    x, y = a2 * w1, (1.0 - a2) * w0
    u = g * d
    c2 = w0 * w1 - 4.0 * x * y * u
    # u D, with Y - X = w0 - a^2 exactly
    v = u * ((w0 - a2) * (x + y))
    del u
    live = v != 0.0
    # w0 - w1 at each live point, from its row
    e = np.where(live, w0 - w1, 0.0)[live]
    v, c2 = v[live], c2[live]
    sigma = _negativity_start(v, c2, e)
    # p(sigma nu) / sigma^2 = sigma^2 nu^4 - sigma nu^3 + c2 nu^2
    #                         + r (w0 - w1) nu - r^2,  r = u D / sigma
    # r, r (w0 - w1) and r^2, in the buffers of v and e, which are dead
    r = np.divide(v, sigma, out=v)
    re = np.multiply(r, e, out=e)
    rr = np.multiply(r, r, out=r)
    s2 = sigma * sigma
    # the derivative's constant coefficients, formed once
    s2_4, sigma_3, c2_2 = 4.0 * s2, 3.0 * sigma, 2.0 * c2
    nu = np.full_like(v, -1.0)
    # the Newton step, ((((s2 nu - sigma) nu + c2) nu + re) nu - rr) over
    # (((s2_4 nu - sigma_3) nu + c2_2) nu + re), in two buffers: the
    # operations of the Horner forms, in their order; before the first
    # step, the whole start counts as the last step
    step = nu.copy()
    slope = np.empty_like(v)
    for _ in range(_NEGATIVITY_NEWTON_STEPS):
        np.multiply(s2, nu, out=step)
        step -= sigma
        step *= nu
        step += c2
        step *= nu
        step += re
        step *= nu
        step -= rr
        np.multiply(s2_4, nu, out=slope)
        slope -= sigma_3
        slope *= nu
        slope += c2_2
        slope *= nu
        slope += re
        step /= slope
        nu -= step
    # the last step relative to the root, in the step's buffer, and the
    # dead buffers dropped before the result is built
    last = np.abs(np.divide(step, nu, out=step), out=step)
    del slope, c2, c2_2, re, rr, r, v, e
    _gate(last, NEGATIVITY_NEWTON_TOL, lambda i: (
        f"negativity Newton convergence: last step {last[i]:.3e} "
        f"of the root exceeds {NEGATIVITY_NEWTON_TOL:.0e} relative "
        f"at t = {times[live][i]:.6g}"))
    neg = np.zeros(g.shape)
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


def iterate_map_check(params: GadcParams, t: float,
                      n_steps: int) -> np.ndarray:
    """Compose the single-step system channel ``n_steps`` times.

    Each step uses the exact per-step probability ``p = gamma_rate t / n``,
    so the composed damping factor is ``(1 - gamma_rate t / n)^n`` and the
    result converges to :func:`system_states` at rate ``O(1/n)``. The
    step is the Kraus map of :func:`system_kraus` written as its 4x4
    transfer matrix ``S = sum_k K_k kron conj(K_k)``, which acts on the
    row-major ``vec`` of a state. ``S`` preserves the trace, so with
    ``r11 = 1 - r00`` it is an affine map ``A`` of ``(r00, r01, r10)``,
    a 4x4 matrix on ``(r00, r01, r10, 1)``, and the ``n`` steps are
    ``numpy.linalg.matrix_power(A, n)``: the same composition grouped by
    repeated squaring, about ``2 log2 n`` products in place of ``n``
    Kraus sums. The last row of ``A``, ``(0, 0, 0, 1)``, is exact in
    every power, so the trace is one at any step count. Each entry
    agrees with the step-by-step loop to within ``4 n`` machine
    epsilons, a bound that reaches the size of the entries at ``2**50``
    steps; larger counts raise :class:`InputError`. As a composite
    builder it starts from the unchecked initial matrix, and only the
    final state is checked, for Hermiticity and unit trace.
    The steps compose one state, so ``params`` must be one
    :class:`GadcParams`; anything else raises :class:`InputError`.
    """
    if not isinstance(params, GadcParams):
        raise InputError(f"iterate_map_check needs a GadcParams, got "
                         f"{type(params).__name__}")
    n_steps = _as_count(n_steps, "n_steps", 1)
    if n_steps > _MAX_MAP_STEPS:
        raise InputError(
            f"n_steps must be at most 2**50, got {n_steps}: beyond it the "
            f"round-off of the composed steps reaches the size of a state")
    t = _as_float(t, "time")
    # written so that a NaN time fails too; no step count reaches t = inf
    if not 0.0 <= t < math.inf:
        raise InputError(f"time must be nonnegative and finite, got {t}")
    p_step = params.gamma_rate * t / n_steps
    if p_step > 1.0:
        raise InputError(
            f"per-step probability {p_step:.3g} exceeds 1; increase n_steps")
    ops = system_kraus(params, p_step)
    # vec(K rho K^+) = (K kron conj(K)) vec(rho) for row-major vec, so the
    # step is one 4x4 transfer matrix, summed over the operators in order
    step = sum(np.kron(k, k.conj()) for k in ops)
    # r_i' = sum_j S_ij r_j with r11 = 1 - r00: column 0 loses column 3,
    # which becomes the constant term
    affine = np.zeros((4, 4), dtype=complex)
    affine[:3] = step[:3]
    affine[:3, 0] -= step[:3, 3]
    affine[3, 3] = 1.0
    # the initial state is exactly Hermitian with unit trace, so its
    # unchecked matrix equals system_initial_state's
    m = _system_initial_matrix(params).reshape(4)
    r = np.linalg.matrix_power(affine, n_steps) @ np.append(m[:3], 1.0)
    r[3] = 1.0 - r[0]
    return unit_trace_stack(r.reshape(2, 2))


def system_state_from_dilation(params, p) -> np.ndarray:
    """System states after one damping step via the unitary dilation route.

    Conjugates the joint initial state with :func:`gadc_unitary` at each
    ``p`` and traces out the environment. ``params`` and ``p`` broadcast
    as for :func:`system_kraus`: one set and an array of ``p`` give a
    ``p.shape + (2, 2)`` stack. Used as an independent route for
    consistency checks against :func:`system_kraus` and the closed forms.
    """
    return partial_trace(_dilated_matrices(_columns(params), p), keep=0)
