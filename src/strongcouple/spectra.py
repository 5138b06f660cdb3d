"""Dense Hermitian spectral tools for small matrices.

Everything in this module targets operators of dimension 8 or below, the
sizes that occur for one or two qubits. Eigenvalues and eigenvectors come
from LAPACK through ``numpy.linalg.eigh`` and ``eigvalsh``, which also
diagonalize a whole stack of matrices in one call. Operators are
validated at construction so that downstream code can assume Hermiticity,
unit trace, and positive semidefiniteness without re-checking.

The checks work on stacks: :func:`hermitian_stack` and
:func:`density_stack` validate an array of shape ``(..., n, n)`` at once,
such as the states of a trajectory with time as the leading axis, and
:class:`HermitianOperator` and :class:`DensityOperator` apply the same
checks to a single matrix. :func:`eigh_stack` diagonalizes a validated
stack in one call with the eigenvector gauge of :func:`eig_hermitian`,
and :func:`density_eigh` validates a density stack and diagonalizes it
with that one call. :func:`unit_trace_stack` applies the Hermiticity and
trace checks alone, for stacks that are positive by construction.

Composite indices follow the convention that the first tensor factor is
the slow index: for a two-qubit operator the basis ordering is
``|0,0>, |0,1>, |1,0>, |1,1>``, matching ``numpy.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10


def hermitian_stack(matrices) -> np.ndarray:
    """Validate a stack of Hermitian matrices and return it symmetrized.

    ``matrices`` has shape ``(..., n, n)``. Every matrix must be Hermitian
    to within ``HERMITICITY_TOL`` in max-norm; the result holds the exact
    averages ``(M + M^+)/2`` so later algebra never sees a residual
    anti-Hermitian part.
    """
    m = np.asarray(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix has non-finite entries")
    adjoint = m.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(m - adjoint)))
    if dev > HERMITICITY_TOL:
        raise InputError(
            f"matrix is not Hermitian, max |M - M^+| = {dev:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e}")
    return (m + adjoint) / 2


def _check_trace(m) -> None:
    """Unit trace of every matrix of a Hermitian stack."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    dev = np.abs(tr - 1.0)
    if np.any(dev > TRACE_TOL):
        worst = tr.flat[np.argmax(dev)]
        raise InputError(
            f"trace {worst.real:.15g} differs from 1 by more than {TRACE_TOL:.0e}")


def _check_spectrum(eigenvalues) -> None:
    """Ascending eigenvalues of a stack, all above ``PSD_FLOOR``."""
    low = float(np.min(eigenvalues[..., 0]))
    if low < PSD_FLOOR:
        raise InputError(f"matrix has eigenvalue {low:.3e} below {PSD_FLOOR:.0e}")


def _check_density(m) -> None:
    """Unit trace and nonnegative spectrum of a Hermitian stack."""
    _check_trace(m)
    _check_spectrum(np.linalg.eigvalsh(m))


def unit_trace_stack(matrices) -> np.ndarray:
    """Validate a Hermitian stack with unit traces and return it symmetrized.

    The checks of :func:`density_stack` without the eigensolve, for
    stacks whose positivity holds by construction or is checked in
    closed form by the caller.
    """
    m = hermitian_stack(matrices)
    _check_trace(m)
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
    _check_spectrum(np.linalg.eigvalsh(m))
    return m


def density_eigh(matrices):
    """Validate a stack of density matrices and diagonalize it.

    Applies the checks of :func:`density_stack`, but reads the spectrum
    floor from the eigenvalues of one :func:`eigh_stack` call instead of
    a separate eigensolve. Returns what :func:`eigh_stack` returns for
    the symmetrized stack.
    """
    lam, v = eigh_stack(unit_trace_stack(matrices))
    _check_spectrum(lam)
    return lam, v


class HermitianOperator:
    """Square complex matrix checked and symmetrized at construction.

    The input must already be Hermitian to within ``HERMITICITY_TOL`` in
    max-norm; the stored matrix is the exact average ``(M + M^+)/2`` so
    later algebra never sees a residual anti-Hermitian part.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2:
            raise InputError(f"expected a square matrix, got shape {m.shape}")
        self._matrix = hermitian_stack(m)
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        arr = np.asarray(self._matrix, dtype=dtype)
        return arr.copy() if copy else arr

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityOperator(HermitianOperator):
    """Hermitian operator with unit trace and nonnegative spectrum.

    Trace must equal one to within ``TRACE_TOL`` and every eigenvalue must
    sit above ``PSD_FLOOR``, the checks of :func:`density_stack`.
    """

    __slots__ = ()

    def __init__(self, matrix):
        super().__init__(matrix)
        _check_density(self._matrix)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with matching orthonormal eigenvector columns.

    ``eigenvalues[k]`` belongs to column ``eigenvectors[:, k]``. Fresh
    decompositions from :func:`eig_hermitian` are in ascending eigenvalue
    order; trajectory tracking may permute that order to keep branches
    continuous in time.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_matrix(operator) -> np.ndarray:
    if isinstance(operator, HermitianOperator):
        return operator.matrix
    return np.asarray(operator, dtype=complex)


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
        Ascending eigenvalues and orthonormal eigenvector columns.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    lam, v = eigh_stack(operator.matrix)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=v)


def eigh_stack(matrices):
    """Diagonalize a validated Hermitian stack in one LAPACK call.

    ``matrices`` has shape ``(..., n, n)`` and comes from
    :func:`hermitian_stack`, :func:`density_stack` or a
    :class:`HermitianOperator`; it is not checked again. Returns
    ascending eigenvalues of shape ``(..., n)`` and eigenvector columns of
    shape ``(..., n, n)`` in the gauge of :func:`eig_hermitian`: the
    largest component of each column is real and positive.
    """
    lam, v = np.linalg.eigh(matrices)
    rows = np.argmax(np.abs(v), axis=-2)
    pivots = np.take_along_axis(v, rows[..., None, :], axis=-2)
    return lam, v * (pivots.conj() / np.abs(pivots))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the slow index."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def _bipartite_dims(matrix, dims):
    n = matrix.shape[-1]
    if dims is None:
        root = int(round(np.sqrt(n)))
        if root * root != n:
            raise InputError(f"cannot infer factor dimensions of a {n}x{n} matrix, pass dims")
        dims = (root, root)
    da, db = dims
    if da * db != n:
        raise InputError(f"dims {dims} incompatible with matrix dimension {n}")
    return da, db


def partial_trace(rho, keep: int, dims=None) -> DensityOperator:
    """Trace out one tensor factor of a bipartite density operator.

    Parameters
    ----------
    rho : DensityOperator or array_like
        State on the composite space.
    keep : int
        0 keeps the first factor, 1 keeps the second.
    dims : tuple of int, optional
        Factor dimensions; square dimensions are inferred when omitted.
    """
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    if keep not in (0, 1):
        raise InputError(f"keep must be 0 or 1, got {keep!r}")
    da, db = _bipartite_dims(rho.matrix, dims)
    r = rho.matrix.reshape(da, db, da, db)
    reduced = np.einsum("ikjk->ij", r) if keep == 0 else np.einsum("kikj->ij", r)
    return DensityOperator(reduced)


def partial_transpose_stack(matrices, subsystem: int = 0,
                            dims=None) -> np.ndarray:
    """Transpose one tensor factor of every matrix in a stack.

    ``matrices`` has shape ``(..., n, n)`` and is taken as given: the
    transpose only permutes entries, so a Hermitian stack stays exactly
    Hermitian.
    """
    m = np.asarray(matrices, dtype=complex)
    if subsystem not in (0, 1):
        raise InputError(f"subsystem must be 0 or 1, got {subsystem!r}")
    da, db = _bipartite_dims(m, dims)
    lead = m.shape[:-2]
    r = m.reshape(lead + (da, db, da, db))
    k = len(lead)
    axes = list(range(k + 4))
    if subsystem == 0:
        axes[k], axes[k + 2] = k + 2, k
    else:
        axes[k + 1], axes[k + 3] = k + 3, k + 1
    return r.transpose(axes).reshape(m.shape)


def partial_transpose(rho, subsystem: int = 0, dims=None) -> HermitianOperator:
    """Transpose one tensor factor of a bipartite operator.

    The result is Hermitian but in general not positive, which is exactly
    what entanglement witnesses exploit. Applying the same transpose twice
    returns the original operator.
    """
    if not isinstance(rho, HermitianOperator):
        rho = HermitianOperator(rho)
    return HermitianOperator(partial_transpose_stack(rho.matrix, subsystem, dims))


def trace_norm(operator) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(operator)
    return float(np.sum(np.abs(np.linalg.eigvalsh(operator.matrix))))
