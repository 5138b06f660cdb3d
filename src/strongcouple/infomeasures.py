"""Entropy, coherence, entanglement, and correlation measures.

All entropies are in bits. The negativity is computed by two routes that
are algebraically identical for a unit-trace Hermitian matrix, the
trace-norm form ``(||rho^T_A||_1 - 1) / 2`` and the absolute sum of the
negative eigenvalues of the partial transpose; both are read from one
spectrum and compared on every call, which checks that the partial
transpose kept unit trace.

Each measure has a stack form (:func:`von_neumann_entropies`,
:func:`l1_coherences`, :func:`negativities`) that evaluates a whole
``(..., n, n)`` array of states, such as a trajectory, with one batched
eigensolve. The stack forms take states already validated, for instance
by :func:`strongcouple.spectra.density_stack`; the single-state functions
validate their input and then call the stack form. A qubit needs no
eigensolve: :func:`bloch_entropies` reads its entropy from the Bloch
radius, and its l1 coherence is ``|x|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .spectra import DensityOperator, partial_trace, partial_transpose_stack

ENTROPY_EIGENVALUE_FLOOR = -1e-10
_ENTROPY_CLIP = 1e-12
_NEGATIVITY_ROUTE_TOL = 1e-10


def von_neumann_entropies(states) -> np.ndarray:
    """Entropies in bits of a validated ``(..., n, n)`` stack of states.

    See :func:`von_neumann_entropy` for the treatment of round-off
    eigenvalues.
    """
    lam = np.linalg.eigvalsh(states)
    if np.any(lam < ENTROPY_EIGENVALUE_FLOOR):
        raise InputError(
            f"eigenvalue {lam.min():.3e} below {ENTROPY_EIGENVALUE_FLOOR:.0e}; "
            "not a density operator")
    lam = np.where(lam < _ENTROPY_CLIP, 0.0, lam)
    terms = np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)
    return -np.sum(terms, axis=-1) + 0.0


def bloch_entropies(radii) -> np.ndarray:
    """Entropies in bits of qubit states with Bloch radii ``radii``.

    The eigenvalues are ``(1 -+ r)/2``. The smaller one gets the
    treatment of :func:`von_neumann_entropy`: values in ``[-1e-10,
    1e-12]`` count as zero and lower ones raise :class:`InputError`; the
    larger one is one minus the smaller.
    """
    low = 0.5 * (1.0 - np.asarray(radii, dtype=float))
    if np.any(low < ENTROPY_EIGENVALUE_FLOOR):
        raise InputError(
            f"eigenvalue {low.min():.3e} below {ENTROPY_EIGENVALUE_FLOOR:.0e}; "
            "not a density operator")
    low = np.where(low < _ENTROPY_CLIP, 0.0, low)
    terms = np.where(low > 0.0, low * np.log2(np.where(low > 0.0, low, 1.0)),
                     0.0) + (1.0 - low) * np.log1p(-low) / math.log(2.0)
    return -terms + 0.0


def von_neumann_entropy(rho) -> float:
    """Entropy ``-sum r log2 r`` of a density operator, in bits.

    Eigenvalues in ``[-1e-10, 1e-12]`` are treated as exact zeros, which
    absorbs roundoff from rank-deficient states. An eigenvalue below
    ``-1e-10`` means the input is not a physical state and raises
    :class:`InputError`.
    """
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    return float(von_neumann_entropies(rho.matrix))


def l1_coherences(states) -> np.ndarray:
    """l1 coherences of a validated ``(..., n, n)`` stack of states."""
    m = np.asarray(states)
    diagonal = np.diagonal(m, axis1=-2, axis2=-1)
    return np.sum(np.abs(m), axis=(-2, -1)) - np.sum(np.abs(diagonal), axis=-1)


def l1_coherence(rho) -> float:
    """Sum of the moduli of the off-diagonal entries, ``sum_{i != j} |rho_ij|``."""
    if not isinstance(rho, DensityOperator):
        rho = DensityOperator(rho)
    return float(l1_coherences(rho.matrix))


def negativities(joints, dims=(2, 2), subsystem: int = 0) -> np.ndarray:
    """Negativities of a validated ``(..., n, n)`` stack of bipartite states.

    One batched eigensolve of the partial transposes feeds both routes;
    see :func:`negativity`.
    """
    lam = np.linalg.eigvalsh(partial_transpose_stack(joints, subsystem, dims))
    from_trace_norm = 0.5 * (np.sum(np.abs(lam), axis=-1) - 1.0)
    from_eigenvalues = np.sum(np.where(lam < 0.0, -lam, 0.0), axis=-1)
    gap = np.abs(from_trace_norm - from_eigenvalues)
    if np.any(gap > _NEGATIVITY_ROUTE_TOL):
        worst = np.argmax(gap)
        raise NumericalError(
            f"negativity routes disagree by {gap.flat[worst]:.3e} "
            f"(trace norm {from_trace_norm.flat[worst]:.6e}, "
            f"eigenvalue sum {from_eigenvalues.flat[worst]:.6e})")
    return np.maximum(0.0, from_eigenvalues)


def negativity(joint, dims=(2, 2), subsystem: int = 0) -> float:
    """Entanglement negativity of a bipartite state.

    Partially transposes ``subsystem``, diagonalizes the result once,
    and evaluates both the trace-norm route and the negative-eigenvalue
    route from that spectrum. The two must agree to ``1e-10``; a larger
    gap means the partial transpose lost unit trace and raises
    :class:`NumericalError`. Separable states give zero.
    """
    if not isinstance(joint, DensityOperator):
        joint = DensityOperator(joint)
    return float(negativities(joint.matrix, dims, subsystem))


def mutual_information(joint, dims=(2, 2)) -> float:
    """Quantum mutual information ``S(A) + S(B) - S(AB)`` in bits."""
    if not isinstance(joint, DensityOperator):
        joint = DensityOperator(joint)
    s_a = von_neumann_entropy(partial_trace(joint, keep=0, dims=dims))
    s_b = von_neumann_entropy(partial_trace(joint, keep=1, dims=dims))
    s_ab = von_neumann_entropy(joint)
    return s_a + s_b - s_ab


def heat_asymmetry(heat_system, heat_environment) -> np.ndarray:
    """Pointwise imbalance ``|Q_S + Q_E|`` between the heat flows.

    Zero whenever the heat lost by one side is exactly gained by the
    other; nonzero values quantify energy exchanged through coherences
    rather than populations.
    """
    q_s = np.asarray(heat_system, dtype=float)
    q_e = np.asarray(heat_environment, dtype=float)
    if q_s.shape != q_e.shape:
        raise InputError(
            f"heat arrays must share a shape, got {q_s.shape} and {q_e.shape}")
    return np.abs(q_s + q_e)


@dataclass(frozen=True)
class ProportionalityReport:
    """Summary of how nearly one series is a constant multiple of another.

    Points where the denominator magnitude is at or below ``threshold``
    are excluded; ``mask_count`` is the number kept, ``ratio_mean`` the
    mean ratio there, and ``max_relative_spread`` the largest relative
    deviation of the pointwise ratio from the mean.
    """

    mask_count: int
    ratio_mean: float
    max_relative_spread: float
    threshold: float


def proportionality_report(numerator, denominator,
                           threshold: float) -> ProportionalityReport:
    """Measure proportionality of two series away from small denominators."""
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if num.shape != den.shape:
        raise InputError(
            f"series must share a shape, got {num.shape} and {den.shape}")
    if not threshold >= 0.0:
        raise InputError(f"threshold must be nonnegative, got {threshold}")
    mask = np.abs(den) > threshold
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise InputError(
            f"no points with |denominator| > {threshold:.3e}; "
            "nothing to compare")
    ratio = num[mask] / den[mask]
    mean = float(np.mean(ratio))
    if mean == 0.0:
        raise InputError("mean ratio is zero; spread is undefined")
    spread = float(np.max(np.abs(ratio - mean)) / abs(mean))
    return ProportionalityReport(mask_count=count, ratio_mean=mean,
                                 max_relative_spread=spread,
                                 threshold=threshold)


@dataclass(frozen=True)
class InfoSeries:
    """Information measures sampled on a common time grid.

    Suffixes ``_s`` and ``_e`` label the system and environment qubits.
    """

    times: np.ndarray
    entropy_s: np.ndarray
    entropy_e: np.ndarray
    coherence_s: np.ndarray
    coherence_e: np.ndarray
    negativity: np.ndarray
    mutual_information: np.ndarray
    heat_asymmetry: np.ndarray
