"""Operator validation, the eigensolver and its gauge, and tensor helpers."""

import numpy as np
import pytest

from strongcouple.errors import InputError
from strongcouple.spectra import (DensityOperator, HermitianOperator,
                                  density_stack, eig_hermitian,
                                  partial_trace, partial_transpose,
                                  partial_transpose_stack, tensor_product,
                                  trace_norm, unit_trace_stack)

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


class TestDensityStack:
    def test_accepts_valid_stack(self, random_density):
        stack = np.stack([random_density(4) for _ in range(5)])
        out = density_stack(stack)
        assert out.shape == (5, 4, 4)
        for m, ref in zip(out, stack):
            assert np.array_equal(m, DensityOperator(ref).matrix)

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


class TestEigHermitian:
    def test_known_two_by_two(self):
        dec = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
    def test_matches_reference_solver(self, rng, dim):
        for _ in range(10):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = m + m.conj().T
            dec = eig_hermitian(h)
            ref = np.linalg.eigvalsh(h)
            assert np.max(np.abs(dec.eigenvalues - ref)) < 1e-12 * max(
                1.0, np.max(np.abs(ref)))

    def test_reconstruction_and_orthonormality(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = m + m.conj().T
        dec = eig_hermitian(h)
        v, lam = dec.eigenvectors, dec.eigenvalues
        assert np.max(np.abs(v @ np.diag(lam) @ v.conj().T - h)) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-13

    def test_ascending_order(self, rng):
        m = rng.normal(size=(5, 5))
        dec = eig_hermitian(m + m.T)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_deterministic_gauge(self):
        h = np.array([[1.0, 1j], [-1j, 2.0]])
        v1 = eig_hermitian(h).eigenvectors
        v2 = eig_hermitian(h).eigenvectors
        assert np.array_equal(v1, v2)
        for k in range(2):
            pivot = v1[np.argmax(np.abs(v1[:, k])), k]
            assert abs(pivot.imag) < 1e-14 and pivot.real > 0.0

    def test_diagonal_matrix(self):
        dec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])


class TestTensorAndTraces:
    def test_tensor_product_ordering(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        joint = tensor_product(a, b)
        assert joint[1, 1] == 1.0
        assert np.trace(joint) == 1.0

    def test_partial_trace_product_state(self, random_density):
        rho_a = random_density()
        rho_b = random_density()
        joint = DensityOperator(np.kron(rho_a, rho_b))
        back_a = partial_trace(joint, keep=0).matrix
        back_b = partial_trace(joint, keep=1).matrix
        assert np.max(np.abs(back_a - rho_a)) < 1e-12
        assert np.max(np.abs(back_b - rho_b)) < 1e-12

    def test_partial_trace_bell_state(self):
        for keep in (0, 1):
            red = partial_trace(DensityOperator(BELL), keep=keep).matrix
            assert np.max(np.abs(red - 0.5 * np.eye(2))) < 1e-14

    def test_partial_trace_keep_validation(self):
        with pytest.raises(InputError):
            partial_trace(DensityOperator(BELL), keep=2)

    def test_dims_must_factor(self):
        rho = DensityOperator(np.eye(6) / 6.0)
        with pytest.raises(InputError):
            partial_trace(rho, keep=0)
        red = partial_trace(rho, keep=0, dims=(2, 3))
        assert red.dim == 2

    def test_partial_transpose_bell(self):
        pt = partial_transpose(DensityOperator(BELL), subsystem=0)
        lam = eig_hermitian(pt).eigenvalues
        assert abs(lam[0] + 0.5) < 1e-14

    def test_partial_transpose_involution(self, random_density):
        joint = DensityOperator(np.kron(random_density(), random_density()))
        for sub in (0, 1):
            pt = partial_transpose(joint, subsystem=sub)
            back = partial_transpose(pt, subsystem=sub)
            assert np.max(np.abs(back.matrix - joint.matrix)) < 1e-14

    def test_partial_transpose_stack(self, random_density):
        stack = density_stack([random_density(4) for _ in range(3)])
        for sub in (0, 1):
            out = partial_transpose_stack(stack, subsystem=sub)
            for m, ref in zip(out, stack):
                assert np.array_equal(
                    m, partial_transpose(ref, subsystem=sub).matrix)

    def test_partial_transpose_product(self, random_density):
        rho_a = random_density()
        rho_b = random_density()
        joint = DensityOperator(np.kron(rho_a, rho_b))
        pt = partial_transpose(joint, subsystem=0).matrix
        assert np.max(np.abs(pt - np.kron(rho_a.T, rho_b))) < 1e-14


class TestTraceNorm:
    def test_known_value(self):
        assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-14

    def test_matches_eigenvalue_sum(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = m + m.conj().T
        ref = np.sum(np.abs(np.linalg.eigvalsh(h)))
        assert abs(trace_norm(h) - ref) < 1e-12
