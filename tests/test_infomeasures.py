"""Entropies, coherence, negativity, and the proportionality report."""

import math

import numpy as np
import pytest

from strongcouple.channels import (GadcParams, environment_state, joint_state,
                                   joint_state_closed_form,
                                   joint_states_closed_form, system_state,
                                   system_states)
from strongcouple.errors import InputError, NumericalError
from strongcouple.infomeasures import (bloch_entropies, heat_asymmetry,
                                       l1_coherence,
                                       l1_coherences, mutual_information,
                                       negativities, negativity,
                                       proportionality_report,
                                       von_neumann_entropies,
                                       von_neumann_entropy)
from strongcouple.spectra import DensityOperator

BELL = 0.5 * np.array([[1, 0, 0, 1],
                       [0, 0, 0, 0],
                       [0, 0, 0, 0],
                       [1, 0, 0, 1]], dtype=complex)


def default_params():
    return GadcParams(alpha=1.0 / math.sqrt(2.0),
                      w0=1.0 / (1.0 + math.exp(-1.0)))


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(0.5 * np.eye(2)) - 1.0) < 1e-14

    def test_thermal_value(self):
        w0 = 1.0 / (1.0 + math.exp(-1.0))
        ref = -(w0 * math.log2(w0) + (1 - w0) * math.log2(1 - w0))
        assert abs(von_neumann_entropy(np.diag([w0, 1 - w0])) - ref) < 1e-13

    def test_roundoff_negative_eigenvalue_clipped(self):
        rho = DensityOperator(np.diag([1.0 + 1e-11, -1e-11]))
        assert abs(von_neumann_entropy(rho)) < 1e-10

    def test_invalid_state_rejected(self):
        with pytest.raises(InputError):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_unitary_invariance(self, rng, random_density, dim):
        rho = random_density(dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(m)
        conjugated = u @ rho @ u.conj().T
        dev = abs(von_neumann_entropy(conjugated) - von_neumann_entropy(rho))
        assert dev < 1e-10


class TestBlochEntropies:
    def test_match_eigensolver(self, random_density):
        states = np.stack([random_density(2) for _ in range(50)])
        z = (states[:, 0, 0] - states[:, 1, 1]).real
        radius = np.sqrt(z * z + 4.0 * np.abs(states[:, 0, 1]) ** 2)
        assert np.max(np.abs(bloch_entropies(radius)
                             - von_neumann_entropies(states))) < 1e-13

    def test_pure_and_mixed(self):
        out = bloch_entropies(np.array([1.0, 1.0 + 1e-13, 0.0]))
        assert out[0] == 0.0 and out[1] == 0.0
        assert abs(out[2] - 1.0) < 1e-15

    def test_unphysical_radius_rejected(self):
        with pytest.raises(InputError):
            bloch_entropies(np.array([0.5, 1.0 + 1e-9]))


class TestCoherence:
    def test_diagonal_state(self):
        assert l1_coherence(np.diag([0.4, 0.6])) == 0.0

    def test_known_value(self):
        rho = np.array([[0.5, 0.3], [0.3, 0.5]])
        assert abs(l1_coherence(rho) - 0.6) < 1e-14

    def test_equal_superposition(self):
        plus = 0.5 * np.ones((2, 2))
        assert abs(l1_coherence(plus) - 1.0) < 1e-14

    def test_monotone_along_decay(self):
        pr = default_params()
        grid = np.linspace(0.0, 6.0, 61)
        c_s = np.array([l1_coherence(system_state(pr, t)) for t in grid])
        c_e = np.array([l1_coherence(environment_state(pr, t)) for t in grid])
        assert np.all(np.diff(c_s) < 0.0)
        assert np.all(np.diff(c_e) > 0.0)

    def test_closed_forms_at_default_parameters(self):
        pr = default_params()
        for t in (0.0, 0.4, 1.7, 6.0):
            c_s = l1_coherence(system_state(pr, t))
            c_e = l1_coherence(environment_state(pr, t))
            assert abs(c_s - math.exp(-t / 2.0)) < 1e-12
            assert abs(c_e - math.sqrt(1.0 - math.exp(-t))) < 1e-12


class TestNegativity:
    def test_bell_state(self):
        assert abs(negativity(BELL) - 0.5) < 1e-12

    def test_product_state(self, random_density):
        joint = np.kron(random_density(), random_density())
        assert negativity(joint) < 1e-12

    def test_werner_state(self):
        """p Bell + (1-p) I/4 has negativity max(0, (3p-1)/4)."""
        for p in (0.2, 1.0 / 3.0, 0.6, 0.9):
            rho = p * BELL + (1.0 - p) * np.eye(4) / 4.0
            ref = max(0.0, (3.0 * p - 1.0) / 4.0)
            assert abs(negativity(rho) - ref) < 1e-12

    def test_subsystem_symmetry(self):
        pr = default_params()
        joint = joint_state_closed_form(pr, 0.7)
        n0 = negativity(joint, subsystem=0)
        n1 = negativity(joint, subsystem=1)
        assert abs(n0 - n1) < 1e-12

    def test_agrees_with_reference_eigensolver(self, random_density):
        for _ in range(10):
            joint = random_density(4)
            pt = joint.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3) \
                .reshape(4, 4)
            lam = np.linalg.eigvalsh(pt)
            ref = float(-np.sum(lam[lam < 0.0]))
            assert abs(negativity(joint) - ref) < 1e-12


    def test_route_gate_catches_lost_trace(self):
        """Both routes read one spectrum, so they differ by (tr - 1) / 2."""
        with pytest.raises(NumericalError, match="negativity routes disagree"):
            negativities(np.stack([BELL, 1.1 * BELL]))


class TestStackForms:
    def test_match_single_state_functions(self):
        pr = default_params()
        grid = np.linspace(0.0, 8.0, 17)
        marginals = system_states(pr, grid)
        joints = joint_states_closed_form(pr, grid)
        ent = von_neumann_entropies(joints)
        coh = l1_coherences(marginals)
        neg = negativities(joints)
        for i, t in enumerate(grid):
            assert ent[i] == von_neumann_entropy(joint_state_closed_form(pr, t))
            assert coh[i] == l1_coherence(system_state(pr, t))
            assert neg[i] == negativity(joint_state_closed_form(pr, t))


class TestMutualInformation:
    def test_product_state(self, random_density):
        joint = np.kron(random_density(), random_density())
        assert abs(mutual_information(joint)) < 1e-11

    def test_bell_state(self):
        assert abs(mutual_information(BELL) - 2.0) < 1e-12

    def test_positive_along_decay(self):
        pr = default_params()
        assert abs(mutual_information(joint_state(pr, 0.0))) < 1e-11
        for t in (0.3, 1.0, 3.0):
            assert mutual_information(joint_state(pr, t)) > 0.01

    def test_two_route_agreement(self):
        """Package pipeline against a plain eigvalsh computation."""
        pr = default_params()
        joint = joint_state(pr, 1.0).matrix

        def entropy(m):
            lam = np.linalg.eigvalsh(m)
            lam = lam[lam > 1e-12]
            return float(-np.sum(lam * np.log2(lam)))

        reduced_s = np.trace(joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        reduced_e = np.trace(joint.reshape(2, 2, 2, 2), axis1=0, axis2=2)
        ref = entropy(reduced_s) + entropy(reduced_e) - entropy(joint)
        assert abs(mutual_information(joint) - ref) < 1e-10


class TestHeatAsymmetry:
    def test_values(self):
        out = heat_asymmetry([0.3, 0.1], [-0.2, -0.1])
        assert np.allclose(out, [0.1, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            heat_asymmetry([0.1, 0.2], [0.1])


class TestProportionalityReport:
    def test_exact_proportionality(self):
        x = np.linspace(0.1, 1.0, 50)
        report = proportionality_report(0.73 * x, x, threshold=0.0)
        assert report.mask_count == 50
        assert abs(report.ratio_mean - 0.73) < 1e-14
        assert report.max_relative_spread < 1e-12

    def test_threshold_masks_small_denominators(self):
        den = np.array([1e-6, 0.5, 1.0])
        num = np.array([100.0, 0.5, 1.0])
        report = proportionality_report(num, den, threshold=1e-3)
        assert report.mask_count == 2
        assert abs(report.ratio_mean - 1.0) < 1e-14

    def test_empty_mask_rejected(self):
        with pytest.raises(InputError):
            proportionality_report([1.0, 2.0], [0.0, 0.0], threshold=1.0)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            proportionality_report([1.0], [1.0, 2.0], threshold=0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InputError):
            proportionality_report([1.0], [1.0], threshold=-1.0)

    def test_uncorrelated_noise_has_large_spread(self, rng):
        """Negative control: the spread statistic must expose non-ratios."""
        num = rng.uniform(0.5, 1.5, size=200)
        den = rng.uniform(0.5, 1.5, size=200)
        report = proportionality_report(num, den, threshold=0.0)
        assert report.max_relative_spread > 0.3
