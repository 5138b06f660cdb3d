"""Entropies, coherence, negativity, and the per-row ratio statistics."""

import math

import numpy as np
import pytest

from strongcouple import infomeasures
from strongcouple.channels import (GadcParams, environment_bloch,
                                   environment_states,
                                   joint_states_closed_form, system_bloch,
                                   system_states)
from strongcouple.errors import InputError, NumericalError
from strongcouple.experiment import ExperimentConfig, run
from strongcouple.infomeasures import (RATIO_DENOMINATOR_THRESHOLD,
                                       _ratio_rows, bloch_entropies,
                                       heat_asymmetry, negativities,
                                       von_neumann_entropies)
from strongcouple.spectra import partial_trace

BELL = 0.5 * np.array([[1, 0, 0, 1],
                       [0, 0, 0, 0],
                       [0, 0, 0, 0],
                       [1, 0, 0, 1]], dtype=complex)


def default_params():
    return GadcParams(alpha=1.0 / math.sqrt(2.0),
                      w0=1.0 / (1.0 + math.exp(-1.0)))


class TestEntropy:
    def test_pure_state(self):
        assert float(von_neumann_entropies(np.diag([1.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        assert abs(float(von_neumann_entropies(0.5 * np.eye(2))) - 1.0) < 1e-14

    def test_thermal_value(self):
        w0 = 1.0 / (1.0 + math.exp(-1.0))
        ref = -(w0 * math.log2(w0) + (1 - w0) * math.log2(1 - w0))
        s = float(von_neumann_entropies(np.diag([w0, 1 - w0])))
        assert abs(s - ref) < 1e-13

    def test_roundoff_negative_eigenvalue_clipped(self):
        rho = np.diag([1.0 + 1e-11, -1e-11])
        assert abs(float(von_neumann_entropies(rho))) < 1e-10

    def test_invalid_state_rejected(self):
        with pytest.raises(InputError):
            von_neumann_entropies(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_unitary_invariance(self, rng, random_density, dim):
        rho = random_density(dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u, _ = np.linalg.qr(m)
        conjugated = u @ rho @ u.conj().T
        dev = abs(float(von_neumann_entropies(conjugated)
                        - von_neumann_entropies(rho)))
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

    def test_nan_radius_rejected(self):
        # a NaN fails the eigenvalue floor rather than passing as an entropy
        with pytest.raises(InputError, match="eigenvalue nan"):
            bloch_entropies([0.5, math.nan])
        with pytest.raises(InputError, match="eigenvalue nan"):
            bloch_entropies(math.nan)


class TestCoherence:
    """The l1 coherence of a qubit marginal, ``2 |rho_ge| = |x|``, as a run
    takes it from the Bloch series."""

    def test_diagonal_state(self):
        # alpha = 1 starts the system in |g>: both marginals stay diagonal
        pr = GadcParams(alpha=1.0, w0=0.4)
        grid = np.linspace(0.0, 6.0, 13)
        assert np.all(system_bloch(pr, grid).x2 == 0.0)
        assert np.all(environment_bloch(pr, grid).x2 == 0.0)

    def test_equal_superposition(self):
        # alpha = 1/sqrt(2) starts the system in |+>, of coherence one
        x2 = system_bloch(GadcParams(alpha=math.sqrt(0.5), w0=0.4), 0.0).x2
        assert abs(math.sqrt(x2) - 1.0) < 1e-14

    def test_monotone_along_decay(self):
        pr = default_params()
        grid = np.linspace(0.0, 6.0, 61)
        c_s = np.sqrt(system_bloch(pr, grid).x2)
        c_e = np.sqrt(environment_bloch(pr, grid).x2)
        assert np.all(np.diff(c_s) < 0.0)
        assert np.all(np.diff(c_e) > 0.0)

    def test_closed_forms_at_default_parameters(self):
        pr = default_params()
        grid = np.array([0.0, 0.4, 1.7, 6.0])
        for bloch, states, ref in (
                (system_bloch, system_states, np.exp(-grid / 2.0)),
                (environment_bloch, environment_states,
                 np.sqrt(1.0 - np.exp(-grid)))):
            coherence = np.sqrt(bloch(pr, grid).x2)
            off_diagonal = 2.0 * np.abs(states(pr, grid)[:, 0, 1])
            assert np.max(np.abs(coherence - off_diagonal)) < 1e-14
            assert np.max(np.abs(coherence - ref)) < 1e-12

    def test_environment_coherence_right_at_small_times(self):
        # 2 a b sqrt(d), d = 1 - exp(-gamma t), against 50 digits over
        # the first 200 points of a 200001-point default run, where d is
        # small: the run's x^2 = coh d, with d from expm1, keeps the
        # digits that coh - coh g would cancel
        mpmath = pytest.importorskip("mpmath")
        config = ExperimentConfig(n_samples=200001)
        info = run(config).info
        worst = 0.0
        with mpmath.workdps(50):
            a = mpmath.mpf(config.alpha)
            gamma = mpmath.mpf(config.gamma)
            for t, value in zip(info.times[1:200].tolist(),
                                info.coherence_e[1:200].tolist()):
                ref = 2 * a * mpmath.sqrt(
                    -(1 - a * a) * mpmath.expm1(-gamma * mpmath.mpf(t)))
                worst = max(worst, float(abs(value - ref) / ref))
        assert info.coherence_e[0] == 0.0
        assert worst <= 1e-14


class TestNegativity:
    def test_bell_state(self):
        assert abs(float(negativities(BELL)) - 0.5) < 1e-12

    def test_product_state(self, random_density):
        joint = np.kron(random_density(), random_density())
        assert float(negativities(joint)) < 1e-12

    def test_werner_state(self):
        """p Bell + (1-p) I/4 has negativity max(0, (3p-1)/4)."""
        for p in (0.2, 1.0 / 3.0, 0.6, 0.9):
            rho = p * BELL + (1.0 - p) * np.eye(4) / 4.0
            ref = max(0.0, (3.0 * p - 1.0) / 4.0)
            assert abs(float(negativities(rho)) - ref) < 1e-12

    def test_subsystem_symmetry(self):
        """negativities transposes the first qubit; a plain numpy
        transpose of the second gives the same negativity."""
        joint = joint_states_closed_form(default_params(), 0.7)
        pt = joint.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        lam = np.linalg.eigvalsh(pt)
        other = float(-np.sum(lam[lam < 0.0]))
        assert other > 0.05
        assert abs(float(negativities(joint)) - other) < 1e-12

    def test_agrees_with_reference_eigensolver(self, random_density):
        for _ in range(10):
            joint = random_density(4)
            pt = joint.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3) \
                .reshape(4, 4)
            lam = np.linalg.eigvalsh(pt)
            ref = float(-np.sum(lam[lam < 0.0]))
            assert abs(float(negativities(joint)) - ref) < 1e-12

    def test_route_gate_catches_lost_trace(self, monkeypatch):
        """Both routes read one spectrum, so they differ by (tr - 1) / 2.

        Validated input cannot lose trace, so the fault is injected into
        the partial transpose.
        """
        transpose = infomeasures.partial_transpose_stack
        monkeypatch.setattr(infomeasures, "partial_transpose_stack",
                            lambda *args: 1.1 * transpose(*args))
        with pytest.raises(NumericalError, match="negativity routes disagree "
                                                 r"by 5\.000e-02"):
            negativities(np.stack([BELL, BELL]))


class TestMutualInformation:
    """The series ``S_s + S_e - S_se`` that a run records, all three
    entropies of one state of the closed-form family."""

    def test_product_state(self):
        # the initial state is a product for every configuration
        for alpha, beta in ((0.3, 0.5), (0.7, 1.0), (0.95, 4.0)):
            info = run(ExperimentConfig(alpha=alpha, beta=beta, t_max=2.0,
                                        n_samples=101)).info
            assert abs(info.mutual_information[0]) < 1e-11

    def test_positive_along_decay(self):
        info = run(ExperimentConfig(t_max=3.0, n_samples=301)).info
        assert abs(info.mutual_information[0]) < 1e-11
        for i in (30, 100, 300):
            assert info.mutual_information[i] > 0.01

    def test_two_route_agreement(self):
        """Run's closed forms against a plain eigvalsh computation."""
        result = run(ExperimentConfig(t_max=2.0, n_samples=401))
        pr, t = result.params, result.times[200]

        def entropy(m):
            lam = np.linalg.eigvalsh(m)
            lam = lam[lam > 1e-12]
            return float(-np.sum(lam * np.log2(lam)))

        # one state of the closed-form family and its two partial traces
        state = joint_states_closed_form(pr, t)
        ref = (entropy(partial_trace(state, 0))
               + entropy(partial_trace(state, 1)) - entropy(state))
        assert abs(result.info.mutual_information[200] - ref) < 1e-10


class TestHeatAsymmetry:
    def test_values(self):
        out = heat_asymmetry([0.3, 0.1], [-0.2, -0.1])
        assert np.allclose(out, [0.1, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            heat_asymmetry([0.1, 0.2], [0.1])


class TestRatioRows:
    """``_ratio_rows`` on one ``(1, T)`` row."""

    def test_exact_proportionality(self):
        x = np.linspace(0.1, 1.0, 50)
        (count,), (mean,), (spread,) = _ratio_rows(0.73 * x[None], x[None])
        assert count == 50
        assert abs(mean - 0.73) < 1e-14
        assert spread < 1e-12

    def test_threshold_masks_small_denominators(self):
        # the fixed threshold 5e-3 drops denominators at or below it
        assert RATIO_DENOMINATOR_THRESHOLD == 5e-3
        above = np.nextafter(5e-3, 1.0)
        den = np.array([[1e-6, -5e-3, 5e-3, above, 0.5, 1.0]])
        num = np.array([[100.0, 100.0, 100.0, above, 0.5, 1.0]])
        (count,), (mean,), _ = _ratio_rows(num, den)
        assert count == 3
        assert abs(mean - 1.0) < 1e-14

    def test_empty_mask_reads_nan(self):
        (count,), (mean,), (spread,) = _ratio_rows(
            np.array([[1.0, 2.0]]), np.array([[5e-3, -1e-3]]))
        assert count == 0
        assert math.isnan(mean)
        assert math.isnan(spread)

    def test_uncorrelated_noise_has_large_spread(self, rng):
        """Negative control: the spread statistic must expose non-ratios."""
        num = rng.uniform(0.5, 1.5, size=(1, 200))
        den = rng.uniform(0.5, 1.5, size=(1, 200))
        _, _, (spread,) = _ratio_rows(num, den)
        assert spread > 0.3
