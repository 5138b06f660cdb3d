"""Entropy, coherence, entanglement, and correlation measures.

All entropies are in bits. The negativity is computed by two routes that
are algebraically identical for a unit-trace Hermitian matrix, the
trace-norm form ``(||rho^T_A||_1 - 1) / 2`` and the absolute sum of the
negative eigenvalues of the partial transpose of the first qubit; both
are read from one spectrum and compared on every call, which checks that
the partial transpose kept unit trace.

:func:`von_neumann_entropies` and :func:`negativities` take a
``(..., n, n)`` array of states (``n = 4`` for the negativity), a
trajectory or a single state, validate it once at entry and evaluate it
with one batched eigensolve; a single state gives a 0-d array. They are
the consumers of the state-check rule of :mod:`strongcouple.spectra`.
A qubit needs no eigensolve: :func:`bloch_entropies` reads its entropy
from the Bloch radius, and its l1 coherence is ``|x|``. Nor does the
negativity of the closed-form joint family, which a run takes from
:func:`strongcouple.channels.joint_negativities_closed_form`;
:func:`negativities` is the general eigensolve route that ``validate``
and the tests compare it against.

Both entropy functions share the eigenvalue floor of
:func:`~strongcouple.spectra.check_spectrum` and one clip rule: an
eigenvalue up to ``1e-12`` counts as zero and its weight goes to the
others, so the two agree to round-off on every qubit state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _as_array, _gate
from .spectra import (check_spectrum, density_stack, partial_transpose_stack,
                      unit_trace_stack)

# Denominator magnitude at or below which _ratio_rows drops a point
RATIO_DENOMINATOR_THRESHOLD = 5e-3
_ENTROPY_CLIP = 1e-12
_NEGATIVITY_ROUTE_TOL = 1e-10


def von_neumann_entropies(states) -> np.ndarray:
    """Entropies ``-sum r log2 r`` in bits of a ``(..., n, n)`` stack.

    The states must be Hermitian with unit trace. Eigenvalues in
    ``[-1e-10, 1e-12]`` are treated as exact zeros, which absorbs
    roundoff from rank-deficient states, and their weight goes to the
    others: the spectrum is renormalised after the clip, the rule of
    :func:`bloch_entropies`. An eigenvalue below ``-1e-10`` means the
    input is not a physical state and raises :class:`InputError`.
    """
    lam = np.linalg.eigvalsh(unit_trace_stack(states))
    check_spectrum(lam[..., 0])
    lam = np.where(lam < _ENTROPY_CLIP, 0.0, lam)
    lam = lam / np.sum(lam, axis=-1, keepdims=True)
    terms = lam * np.log2(np.where(lam > 0.0, lam, 1.0))
    return -np.sum(np.where(lam > 0.0, terms, 0.0), axis=-1) + 0.0


def _radius_floor(radii: np.ndarray) -> np.ndarray:
    """The smaller eigenvalue ``(1 - r)/2`` of each qubit of Bloch radius
    ``r``, held to the eigenvalue floor by
    :func:`~strongcouple.spectra.check_spectrum`."""
    low = 0.5 * (1.0 - radii)
    check_spectrum(low)
    return low


def bloch_entropies(radii) -> np.ndarray:
    """Entropies in bits of qubit states with Bloch radii ``radii``.

    The eigenvalues are ``(1 -+ r)/2``. The smaller one raises
    :class:`InputError` below ``-1e-10`` and counts as zero up to
    ``1e-12``, and the larger one is one minus the smaller, so a clipped
    state has entropy zero; this is the clip rule of
    :func:`von_neumann_entropies`.
    """
    low = _radius_floor(_as_array(radii, "Bloch radii"))
    low = np.where(low < _ENTROPY_CLIP, 0.0, low)
    terms = np.where(low > 0.0, low * np.log2(np.where(low > 0.0, low, 1.0)),
                     0.0) + (1.0 - low) * np.log1p(-low) / math.log(2.0)
    return -terms + 0.0


def negativities(joints) -> np.ndarray:
    """Negativities of a ``(..., 4, 4)`` stack of two-qubit states.

    Validates the stack with :func:`~strongcouple.spectra.density_stack`,
    partially transposes the first qubit, diagonalizes the result once,
    and evaluates both the trace-norm route and the negative-eigenvalue
    route from that spectrum. The two must agree to ``1e-10``; a larger
    gap means the partial transpose lost unit trace and raises
    :class:`NumericalError`. Separable states give zero.
    """
    pt = partial_transpose_stack(density_stack(joints))
    lam = np.linalg.eigvalsh(pt)
    from_trace_norm = 0.5 * (np.sum(np.abs(lam), axis=-1) - 1.0)
    from_eigenvalues = np.sum(np.where(lam < 0.0, -lam, 0.0), axis=-1)
    gap = abs(from_trace_norm - from_eigenvalues)
    _gate(gap, _NEGATIVITY_ROUTE_TOL, lambda i: (
        f"negativity routes disagree by {gap.flat[i]:.3e} "
        f"(trace norm {from_trace_norm.flat[i]:.6e}, "
        f"eigenvalue sum {from_eigenvalues.flat[i]:.6e})"))
    return np.maximum(0.0, from_eigenvalues)


def heat_asymmetry(heat_system, heat_environment) -> np.ndarray:
    """Pointwise imbalance ``|Q_S + Q_E|`` between the heat flows.

    Zero whenever the heat lost by one side is exactly gained by the
    other; nonzero values quantify energy exchanged through coherences
    rather than populations.
    """
    q_s = _as_array(heat_system, "system heat")
    q_e = _as_array(heat_environment, "environment heat")
    if q_s.shape != q_e.shape:
        raise InputError(
            f"heat arrays must share a shape, got {q_s.shape} and {q_e.shape}")
    return np.abs(q_s + q_e)


def _ratio_rows(numerator, denominator) -> tuple:
    """The ratio statistics of each row of two finite ``(R, T)`` series.

    Returns three lists of ``R`` Python numbers: the points kept, those
    with ``|denominator| > RATIO_DENOMINATOR_THRESHOLD``; the mean ratio
    there, NaN where no point is kept; and the largest relative
    deviation of the pointwise ratio from the mean, NaN where the mean
    is NaN or zero. The ratio is divided once over the whole block, row
    after row, and each row's mean and spread are read from its own
    slice of it, so that a row's numbers equal those of the row alone,
    bit for bit.
    """
    kept = np.abs(denominator) > RATIO_DENOMINATOR_THRESHOLD
    counts = np.count_nonzero(kept, axis=-1).tolist()
    ratios = numerator[kept] / denominator[kept]
    means, spreads, end = [], [], 0
    for count in counts:
        mean = spread = math.nan
        if count:
            ratio = ratios[end:end + count]
            mean = float(np.mean(ratio))
            if mean != 0.0:
                spread = float(abs(ratio - mean).max() / abs(mean))
        end += count
        means.append(mean)
        spreads.append(spread)
    return counts, means, spreads


@dataclass(frozen=True)
class InfoSeries:
    """Information measures sampled on a common time grid.

    Suffixes ``_s`` and ``_e`` label the system and environment qubits.
    All arrays have the shape of ``times``, ``(T,)`` or ``(R, T)`` for a
    block of grids.
    """

    times: np.ndarray
    entropy_s: np.ndarray
    entropy_e: np.ndarray
    coherence_s: np.ndarray
    coherence_e: np.ndarray
    negativity: np.ndarray
    mutual_information: np.ndarray
    heat_asymmetry: np.ndarray

    def __getitem__(self, row) -> InfoSeries:
        """Row ``row`` of a block, as views of its arrays."""
        return InfoSeries(**{k: v[row] for k, v in vars(self).items()})
