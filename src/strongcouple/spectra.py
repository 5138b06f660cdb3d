"""Dense Hermitian spectral tools for the operators of one or two qubits.

Eigenvalues and eigenvectors come from LAPACK through
``numpy.linalg.eigh`` and ``eigvalsh``, which also diagonalize a whole
stack of matrices in one call. States are plain arrays, and
:func:`hermitian_stack` and :func:`density_stack` validate an array of
shape ``(..., n, n)`` at once, such as the states of a trajectory with
time as the leading axis, and return it symmetrized. They convert what
they are given with :func:`strongcouple.errors._as_array`.

Each state is checked once, by one rule:

* A builder, a function that returns states, checks its output with
  :func:`unit_trace_stack`, the Hermiticity and trace checks alone. Its
  output is positive by construction: a closed form, a Kraus sum of a
  positive state, or a partial trace of one.
* A consumer, a function that takes states, runs the full check on its
  input: :func:`density_stack`, or, where it diagonalizes the stack
  anyway, :func:`unit_trace_stack` and :func:`check_spectrum` on the
  eigenvalues of its own eigensolve. :func:`partial_trace` halves the
  eigenvalue floor for its input, so that its output, which it checks
  as a builder, clears the floor too.

The Hermiticity and trace checks, and the halved floor of
:func:`partial_trace`, hold their values to an upper bound through
:func:`strongcouple.errors._gate`, so a NaN fails them and the worst
entry is named.
The eigenvalue floor ``PSD_FLOOR`` is one check, :func:`check_spectrum`,
on the smallest eigenvalue of each state; the entropy measures of
:mod:`strongcouple.infomeasures` use it too. :func:`check_unit_traces`
is the trace check alone, for states whose trace is known without their
matrix, such as a qubit's populations. :class:`HermitianOperator`,
:class:`DensityOperator` and :func:`eig_hermitian` apply the same checks
to a single matrix, and :func:`eig_hermitian` gives its eigenvectors a
fixed gauge; no other module of the package uses them.

Every state stack the package builds or diagonalizes passes
:func:`hermitian_stack`, so it sets the memory of the package's largest
stacks. It holds one buffer of its result's size beside its input,
which it never writes to, and the half-size array of deviations.

Two-qubit indices put the first qubit on the slow index, ``|0,0>,
|0,1>, |1,0>, |1,1>``, as ``numpy.kron`` does. :func:`partial_trace` and
:func:`partial_transpose_stack` take ``(..., 4, 4)`` stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _as_array, _gate

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10


def hermitian_stack(matrices) -> np.ndarray:
    """Validate a stack of Hermitian matrices and return it symmetrized.

    ``matrices`` has shape ``(..., n, n)`` with ``n >= 1``; a stack of
    no matrices passes. Every matrix must be Hermitian to within
    ``HERMITICITY_TOL`` in max-norm; the result holds the exact averages
    ``(M + M^+)/2`` so later algebra never sees a residual
    anti-Hermitian part.

    The check holds its input, one result-sized buffer and the half-size
    array of deviations: the buffer takes ``M^+``, then ``M - M^+``,
    whose moduli are the deviations, then ``M^+`` again, and the average
    is formed in it. The result is a new C-contiguous array, bit for bit
    ``(M + M^+) / 2``; the input is not written to.
    """
    m = _as_array(matrices, "matrices", complex)
    if m.ndim < 2 or not 0 < m.shape[-1] == m.shape[-2]:
        raise InputError(
            f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix has non-finite entries")
    out = np.empty(m.shape, complex)
    _adjoint_into(m, out)
    dev = abs(np.subtract(m, out, out=out))
    _gate(dev, HERMITICITY_TOL, lambda i: (
        f"matrix is not Hermitian, max |M - M^+| = {dev.flat[i]:.3e} "
        f"exceeds {HERMITICITY_TOL:.0e}"), InputError)
    _adjoint_into(m, out)
    out += m
    out /= 2
    return out


def _adjoint_into(m, out) -> None:
    """Write ``conj(M^T)`` of each matrix of ``m`` into ``out``.

    A copy of the transposed view, then a contiguous conjugate: a ufunc
    fed the strided view itself holds a 128 KiB iterator buffer too.
    """
    out[...] = m.swapaxes(-1, -2)
    np.conjugate(out, out=out)


def check_unit_traces(tr) -> None:
    """Every entry of ``tr``, the traces of a stack of states, is one.

    To within ``TRACE_TOL``; raises :class:`InputError` naming the worst,
    a NaN trace first.
    """
    _gate(abs(tr - 1.0), TRACE_TOL, lambda i: (
        f"trace {tr.flat[i].real:.15g} differs from 1 by more than "
        f"{TRACE_TOL:.0e}"), InputError)


def check_spectrum(lowest) -> None:
    """Every entry of ``lowest``, the smallest eigenvalue of each state of
    a stack, lies above ``PSD_FLOOR``; raises :class:`InputError` naming
    the worst.

    ``lowest`` is a numpy array or a numpy scalar, as eigensolves and
    their indexing return. Written so that a NaN entry fails too.
    """
    if not (lowest >= PSD_FLOOR).all():
        raise InputError(f"eigenvalue {lowest.min():.3e} below "
                         f"{PSD_FLOOR:.0e}; not a density operator")


def unit_trace_stack(matrices) -> np.ndarray:
    """Validate a Hermitian stack with unit traces and return it symmetrized.

    The checks of :func:`density_stack` without the eigensolve, for
    stacks whose positivity holds by construction or is checked in
    closed form by the caller.
    """
    m = hermitian_stack(matrices)
    check_unit_traces(np.trace(m, axis1=-2, axis2=-1))
    return m


def density_stack(matrices) -> np.ndarray:
    """Validate a stack of density matrices and return it symmetrized.

    Every matrix must be Hermitian to within ``HERMITICITY_TOL`` (the
    result holds the exact averages ``(M + M^+)/2``), its trace must
    equal one to within ``TRACE_TOL``, and its eigenvalues must sit above
    ``PSD_FLOOR``; the limits leave room for accumulated round-off
    without admitting genuinely unphysical states.
    """
    m = unit_trace_stack(matrices)
    check_spectrum(np.linalg.eigvalsh(m)[..., 0])
    return m


class HermitianOperator:
    """Square complex matrix checked and symmetrized at construction.

    The input must already be Hermitian to within ``HERMITICITY_TOL`` in
    max-norm; the stored matrix is the exact average ``(M + M^+)/2`` so
    later algebra never sees a residual anti-Hermitian part.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = hermitian_stack(matrix)
        if m.ndim != 2:
            raise InputError(f"expected a square matrix, got shape {m.shape}")
        self._matrix = m
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]


class DensityOperator(HermitianOperator):
    """Hermitian operator with unit trace and nonnegative spectrum.

    Trace must equal one to within ``TRACE_TOL`` and every eigenvalue must
    sit above ``PSD_FLOOR``, the checks of :func:`density_stack`.
    """

    __slots__ = ()

    def __init__(self, matrix):
        super().__init__(matrix)
        check_unit_traces(np.trace(self._matrix))
        check_spectrum(np.linalg.eigvalsh(self._matrix)[0])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with matching orthonormal eigenvector columns.

    ``eigenvalues[k]`` belongs to column ``eigenvectors[:, k]``, in the
    ascending eigenvalue order of :func:`eig_hermitian`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(operator) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator.

    Parameters
    ----------
    operator : HermitianOperator or array_like
        Raw arrays are validated through :class:`HermitianOperator` first,
        so non-Hermitian input is rejected rather than silently projected.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues, as ``numpy.linalg.eigh`` gives them, and
        its orthonormal eigenvector columns in a fixed gauge: the largest
        component of each column is made real and positive. The phases
        are multiplied into the eigenvector array ``eigh`` returns, so
        the operator's matrix is not written to.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    lam, v = np.linalg.eigh(operator.matrix)
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(len(v))]
    v *= pivots.conj() / np.abs(pivots)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=v)


def _two_qubit(m) -> None:
    """Reject a stack whose matrices are not two-qubit operators."""
    if m.shape[-2:] != (4, 4):
        raise InputError(f"expected two-qubit operators of shape "
                         f"(..., 4, 4), got {m.shape}")


def partial_trace(states, keep) -> np.ndarray:
    """Trace out one qubit of a ``(..., 4, 4)`` stack of two-qubit states.

    ``keep`` is 0 to keep the first qubit and 1 to keep the second; a
    tuple of these stacks their marginals on a new leading axis. The
    input is validated once, as by :func:`density_stack`, with the
    eigenvalue floor halved: a marginal's lowest eigenvalue is bounded
    below only by the traced-out dimension, 2, times the input's, so an
    input above ``PSD_FLOOR / 2`` has a marginal above ``PSD_FLOOR``. The
    ``(..., 2, 2)`` result is positive by construction and checked with
    :func:`unit_trace_stack`.
    """
    m = unit_trace_stack(states)
    _two_qubit(m)
    keeps = keep if isinstance(keep, tuple) else (keep,)
    # True == 1, so a boolean is refused by its type
    if not keeps or any(not np.isscalar(k) or isinstance(k, (bool, np.bool_))
                        or k not in (0, 1) for k in keeps):
        raise InputError(f"keep must be 0, 1 or a tuple of them, got {keep!r}")
    lowest = np.linalg.eigvalsh(m)[..., 0]
    _gate(-2.0 * lowest, -PSD_FLOOR, lambda i: (
        f"eigenvalue {lowest.flat[i]:.3e} below {PSD_FLOOR / 2.0:.0e}, the "
        f"floor {PSD_FLOOR:.0e} over the traced-out dimension 2; its "
        f"marginal may not be a density operator"), InputError)
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    traced = unit_trace_stack([np.einsum("...kikj->...ij" if k else
                                         "...ikjk->...ij", r) for k in keeps])
    return traced if isinstance(keep, tuple) else traced[0]


def partial_transpose_stack(matrices) -> np.ndarray:
    """Transpose the first qubit of every matrix in a ``(..., 4, 4)`` stack.

    The stack is taken as given: the transpose only permutes entries, so
    a Hermitian stack stays exactly Hermitian, but in general not
    positive, which is exactly what entanglement witnesses exploit.
    """
    m = _as_array(matrices, "matrices", complex)
    _two_qubit(m)
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return r.swapaxes(-4, -2).reshape(m.shape)
