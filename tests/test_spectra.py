"""Operator validation, the eigensolver and its gauge, and bipartite helpers."""

import numpy as np
import pytest

from conftest import _peak
from strongcouple.channels import (GadcParams, joint_initial_state,
                                   joint_states_closed_form)
from strongcouple.errors import InputError
from strongcouple.experiment import ExperimentConfig
from strongcouple.spectra import (PSD_FLOOR, DensityOperator,
                                  HermitianOperator, check_spectrum,
                                  check_unit_traces, density_stack,
                                  eig_hermitian, hermitian_stack,
                                  partial_trace, partial_transpose_stack,
                                  unit_trace_stack)

BELL = 0.5 * np.array([[1, 0, 0, 1],
                       [0, 0, 0, 0],
                       [0, 0, 0, 0],
                       [1, 0, 0, 1]], dtype=complex)


class TestHermitianOperator:
    def test_accepts_hermitian(self):
        m = np.array([[1.0, 2 + 1j], [2 - 1j, -3.0]])
        op = HermitianOperator(m)
        assert op.dim == 2
        assert np.array_equal(op.matrix, 0.5 * (m + m.conj().T))

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            HermitianOperator(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_matrix_is_read_only(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestDensityOperator:
    def test_accepts_mixed_state(self):
        rho = DensityOperator(np.diag([0.25, 0.75]))
        assert rho.dim == 2

    def test_rejects_wrong_trace(self):
        with pytest.raises(InputError):
            DensityOperator(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InputError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_tolerates_roundoff_negative(self):
        rho = DensityOperator(np.diag([1.0 + 1e-11, -1e-11]))
        assert rho.dim == 2


def _bits(a) -> bytes:
    """The bytes of ``a`` in C order, which tell +0 from -0."""
    return np.ascontiguousarray(a).tobytes()


def _near_hermitian(rng, shape):
    """Random Hermitian stack plus a part of 1e-14 that is not, with
    about a quarter of its real and imaginary parts, in transposed pairs,
    zeros of random sign."""
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = z + z.conj().swapaxes(-1, -2) + 1e-14 * (
        rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for part in (m.real, m.imag):
        zeros = rng.random(shape) < 0.15
        zeros |= zeros.swapaxes(-1, -2)
        part[zeros] = np.copysign(0.0, rng.normal(size=zeros.sum()))
    return m


class TestStackKernels:
    """hermitian_stack gives the bits of its plain expression, in a new
    C-contiguous array, and eig_hermitian those of plain eigh and its
    gauge; neither writes to its input."""

    SHAPES = [(2001, 4, 4), (7, 2, 2), (3, 5, 3, 3), (1, 1)]

    @staticmethod
    def _inputs(m):
        """``m`` as given, read-only, transposed and broadcast."""
        read_only = m.copy()
        read_only.setflags(write=False)
        return [m, read_only, m.swapaxes(-1, -2),
                np.broadcast_to(m[:1], (2,) + m.shape)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_hermitian_stack_bits(self, rng, shape):
        for given in self._inputs(_near_hermitian(rng, shape)):
            before = _bits(given)
            out = hermitian_stack(given)
            assert _bits(given) == before
            assert _bits(out) == _bits(
                (given + given.conj().swapaxes(-1, -2)) / 2)
            assert out.flags.c_contiguous and out.flags.writeable
            assert not np.shares_memory(out, given)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_eig_hermitian_bits(self, rng, dim):
        # hermitian_stack gives an operator's matrix, exactly Hermitian,
        # back bit for bit, so it prepares the reference for every input
        m = _near_hermitian(rng, (dim, dim))
        for given in self._inputs(m)[:3] + [HermitianOperator(m)]:
            matrix = getattr(given, "matrix", given)
            before = _bits(matrix)
            dec = eig_hermitian(given)
            assert _bits(matrix) == before
            ref_lam, ref_v = np.linalg.eigh(hermitian_stack(matrix))
            rows = np.argmax(np.abs(ref_v), axis=0)
            pivots = np.take_along_axis(ref_v, rows[None, :], axis=0)
            assert _bits(dec.eigenvalues) == _bits(ref_lam)
            assert _bits(dec.eigenvectors) == _bits(
                ref_v * (pivots.conj() / np.abs(pivots)))
            assert not np.shares_memory(dec.eigenvectors, matrix)

    def test_hermitian_stack_holds_one_buffer(self):
        # the input, the result and the half-size deviation array: 1.57
        # times the stack's bytes
        config = ExperimentConfig()
        joint = joint_states_closed_form(config.params, config.times)
        assert joint.shape == (2001, 4, 4)
        assert _peak(lambda: hermitian_stack(joint)) <= 1.75 * joint.nbytes


class TestDensityStack:
    def test_accepts_valid_stack(self, random_density):
        stack = np.stack([random_density(4) for _ in range(5)])
        out = density_stack(stack)
        assert out.shape == (5, 4, 4)
        for m, ref in zip(out, stack):
            assert np.array_equal(m, density_stack(ref))

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.diag([0.5, 0.6]),
        np.diag([1.5, -0.5]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ])
    def test_one_bad_member_rejects_stack(self, bad):
        with pytest.raises(InputError):
            density_stack(np.stack([np.diag([0.3, 0.7]), bad]))


class TestUnitTraceStack:
    def test_skips_positivity_only(self):
        # Hermitian with unit trace but a negative eigenvalue
        stack = np.stack([np.diag([0.3, 0.7]), np.diag([1.5, -0.5])])
        assert np.array_equal(unit_trace_stack(stack), stack)
        with pytest.raises(InputError):
            density_stack(stack)

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.diag([0.5, 0.6]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ], ids=["non_hermitian", "trace_1.1", "nan"])
    def test_rejects_bad_member(self, bad):
        with pytest.raises(InputError):
            unit_trace_stack(np.stack([np.diag([0.3, 0.7]), bad]))


class TestFloors:
    """The trace and spectrum checks fail a NaN, and name it."""

    def test_unit_traces_reject_nan(self):
        check_unit_traces(np.array([1.0, 1.0 + 1e-13]))
        with pytest.raises(InputError, match="trace nan differs"):
            check_unit_traces(np.array([1.0, np.nan, 1.5]))
        with pytest.raises(InputError, match="trace nan differs"):
            check_unit_traces(np.complex128(complex(np.nan, 0.0)))

    def test_spectrum_rejects_nan(self):
        check_spectrum(np.array([0.0, PSD_FLOOR]))
        with pytest.raises(InputError, match="eigenvalue nan"):
            check_spectrum(np.array([0.2, np.nan]))
        with pytest.raises(InputError, match="eigenvalue nan"):
            check_spectrum(np.float64(np.nan))


class TestEigHermitian:
    """``eig_hermitian``, the eigensolver of a single Hermitian matrix."""

    def test_known_two_by_two(self):
        lam = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvalues
        assert np.allclose(lam, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
    def test_matches_reference_solver(self, rng, dim):
        for _ in range(10):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = m + m.conj().T
            lam = eig_hermitian(h).eigenvalues
            ref = np.linalg.eigvalsh(h)
            assert np.max(np.abs(lam - ref)) < 1e-12 * max(
                1.0, np.max(np.abs(ref)))

    def test_reconstruction_and_orthonormality(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = m + m.conj().T
        dec = eig_hermitian(h)
        lam, v = dec.eigenvalues, dec.eigenvectors
        assert np.max(np.abs(v @ np.diag(lam) @ v.conj().T - h)) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-13

    def test_ascending_order(self, rng):
        m = rng.normal(size=(5, 5))
        lam = eig_hermitian(m + m.T).eigenvalues
        assert np.all(np.diff(lam) >= 0.0)

    def test_deterministic_gauge(self):
        h = np.array([[1.0, 1j], [-1j, 2.0]])
        v1 = eig_hermitian(h).eigenvectors
        v2 = eig_hermitian(h).eigenvectors
        assert np.array_equal(v1, v2)
        for k in range(2):
            pivot = v1[np.argmax(np.abs(v1[:, k])), k]
            assert abs(pivot.imag) < 1e-14 and pivot.real > 0.0

    def test_diagonal_matrix(self):
        lam = eig_hermitian(np.diag([3.0, 1.0, 2.0])).eigenvalues
        assert np.allclose(lam, [1.0, 2.0, 3.0])


class TestTensorAndTraces:
    def test_tensor_product_ordering(self):
        # product states are numpy.kron products: the first factor, the
        # system, is the slow index, so |g> (x) |E1> sits at index 1
        joint = joint_initial_state(GadcParams(alpha=1.0, w0=0.0))
        assert joint[1, 1] == 1.0
        assert np.trace(joint) == 1.0

    def test_partial_trace_product_state(self, random_density):
        rho_a = random_density()
        rho_b = random_density()
        joint = np.kron(rho_a, rho_b)
        back_a = partial_trace(joint, keep=0)
        back_b = partial_trace(joint, keep=1)
        assert np.max(np.abs(back_a - rho_a)) < 1e-12
        assert np.max(np.abs(back_b - rho_b)) < 1e-12

    def test_partial_trace_bell_state(self):
        for keep in (0, 1):
            red = partial_trace(BELL, keep=keep)
            assert np.max(np.abs(red - 0.5 * np.eye(2))) < 1e-14

    def test_partial_trace_floor_covers_the_marginal(self):
        # a marginal's lowest eigenvalue is bounded only by twice the
        # input's, so the input floor is PSD_FLOOR / 2: this input clears
        # PSD_FLOOR itself, but its first marginal has eigenvalue -1.8e-10
        state = np.diag([-0.9e-10, -0.9e-10, 0.5, 0.5 + 1.8e-10])
        assert np.linalg.eigvalsh(state)[0] > PSD_FLOOR
        marginal = np.diag([-1.8e-10, 1.0 + 1.8e-10])
        with pytest.raises(InputError, match="eigenvalue"):
            density_stack(marginal)
        for keep in (0, 1):
            with pytest.raises(InputError, match=(
                    r"eigenvalue -9\.000e-11 below -5e-11, the floor -1e-10 "
                    r"over the traced-out dimension 2")):
                partial_trace(state, keep=keep)
        # just above the halved floor, both marginals are density operators
        state = np.diag([-0.49e-10, -0.49e-10, 0.5, 0.5 + 0.98e-10])
        for keep in (0, 1):
            density_stack(partial_trace(state, keep=keep))

    def test_partial_trace_keep_validation(self):
        with pytest.raises(InputError):
            partial_trace(BELL, keep=2)
        # an array or a list is no keep, not an ambiguous truth value,
        # and a boolean is none either, though True == 1
        for keep in ((), (0, 2), [0, 1], np.array([0, 1]), np.array([1]),
                     (0, np.array([0, 1])), True, (0, np.True_)):
            with pytest.raises(InputError, match="keep must be"):
                partial_trace(BELL, keep=keep)
        # any other real scalar equal to 0 or 1 names that qubit
        state = np.kron(np.diag([0.9, 0.1]), np.diag([0.3, 0.7]))
        for keep, same in ((0.0, 0), (np.int64(1), 1),
                           ((np.float64(0.0), 1), (0, 1))):
            assert np.array_equal(partial_trace(state, keep),
                                  partial_trace(state, same))

    def test_partial_trace_both_marginals(self, random_density,
                                          monkeypatch):
        # a tuple of keeps stacks the single marginals, from one eigensolve
        joints = np.stack([np.kron(random_density(), random_density())
                           for _ in range(3)])
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(m) or eigvalsh(m))
        both = partial_trace(joints, keep=(0, 1))
        assert len(calls) == 1
        assert both.shape == (2, 3, 2, 2)
        for keep in (0, 1):
            assert np.array_equal(both[keep], partial_trace(joints, keep))

    @pytest.mark.parametrize("function", [
        lambda m: partial_trace(m, keep=0), partial_transpose_stack,
    ], ids=["partial_trace", "partial_transpose_stack"])
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_two_qubit_shape_required(self, function, dim):
        with pytest.raises(InputError, match=r"shape \(\.\.\., 4, 4\)"):
            function(np.eye(dim) / dim)

    def test_partial_transpose_bell(self):
        pt = partial_transpose_stack(BELL)
        assert pt.shape == (4, 4)
        lam = np.linalg.eigvalsh(pt)
        assert abs(lam[0] + 0.5) < 1e-14

    def test_partial_transpose_involution(self, random_density):
        joint = np.kron(random_density(), random_density())
        back = partial_transpose_stack(partial_transpose_stack(joint))
        assert np.array_equal(back, joint)

    def test_partial_transpose_stack(self, random_density):
        # a lone matrix gives the matching element of the stack call
        stack = density_stack([random_density(4) for _ in range(3)])
        out = partial_transpose_stack(stack)
        for m, ref in zip(out, stack):
            assert np.array_equal(m, partial_transpose_stack(ref))

    def test_partial_transpose_product(self, random_density):
        rho_a = random_density()
        rho_b = random_density()
        joint = np.kron(rho_a, rho_b)
        pt = partial_transpose_stack(joint)
        assert np.max(np.abs(pt - np.kron(rho_a.T, rho_b))) < 1e-14

