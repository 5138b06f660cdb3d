"""Eigenbranch tracking, the three energy integrals, and closure."""

import math

import numpy as np
import pytest

import oracles
from strongcouple.channels import (QUBIT_HAMILTONIAN, GadcParams,
                                   environment_bloch, environment_states,
                                   system_bloch, system_state, system_states)
from strongcouple.errors import InputError, NumericalError, TrackingError
from strongcouple.experiment import ExperimentConfig
from strongcouple.firstlaw import (_spectra, _track, qubit_thermo_trajectory,
                                   thermo_trajectory)
from strongcouple.spectra import eig_hermitian, eigh_stack


def default_params():
    return GadcParams(alpha=1.0 / math.sqrt(2.0), w0=oracles.W0_DEFAULT)


def tracked(decomps):
    """The stacked tracker on a sequence of eigendecompositions."""
    return _track(np.stack([d.eigenvalues for d in decomps]),
                  np.stack([d.eigenvectors for d in decomps]))


def constant(matrix):
    """A state builder that returns ``matrix`` at every time."""
    return lambda t: np.broadcast_to(matrix, (t.size,) + matrix.shape)


class TestEigenTrack:
    def test_fixes_branch_swap(self):
        lam, vec = tracked([eig_hermitian(np.diag([0.2, 0.8])),
                            eig_hermitian(np.diag([0.8, 0.2]))])
        # branch 0 starts on the first basis vector and must stay there
        assert abs(lam[1, 0] - 0.8) < 1e-15
        assert abs(vec[1, 0, 0]) > 0.99

    def test_identity_when_continuous(self):
        pr = default_params()
        lam, vec = eigh_stack(system_states(pr, np.linspace(0.0, 1.0, 11)))
        lam_t, vec_t = _track(lam, vec)
        assert np.array_equal(lam_t, lam)
        assert np.array_equal(vec_t, vec)

    def test_ambiguous_overlap_raises(self):
        with pytest.raises(TrackingError):
            tracked([eig_hermitian(np.diag([-1.0, 1.0])),
                     eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))])


class TestSampleTrajectory:
    """A sampled trajectory: the grid, the stack a state builder returns
    on it, and the overlaps of their tracked spectra."""

    def test_overlap_rows_and_columns_sum_to_one(self):
        pr = default_params()
        times = np.linspace(0.0, 2.0, 5)
        overlaps = _spectra(QUBIT_HAMILTONIAN, system_states(pr, times),
                            times).overlaps
        assert np.max(np.abs(overlaps.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(overlaps.sum(axis=2) - 1.0)) < 1e-12

    def test_state_count_mismatch(self):
        pr = default_params()
        with pytest.raises(InputError, match="got states of shape"):
            thermo_trajectory(QUBIT_HAMILTONIAN,
                              lambda t: system_states(pr, t[:1]),
                              np.linspace(0.0, 1.0, 4))

    @pytest.mark.parametrize("times", [[0.0], [[0.0, 1.0]], [1.0, 0.5]])
    def test_bad_grids(self, times):
        pr = default_params()
        with pytest.raises(InputError):
            thermo_trajectory(QUBIT_HAMILTONIAN,
                              lambda t: system_states(pr, t), times)


class TestIntegralsExactCases:
    def test_driven_spectrum_pure_work(self):
        """Linear level drift on a stationary diagonal state: all work."""
        times = np.linspace(0.0, 2.0, 21)
        traj = thermo_trajectory(
            lambda t: np.stack([np.diag([0.0, 1.0 + 0.1 * u]) for u in t]),
            constant(np.diag([0.3, 0.7])), times)
        assert np.max(np.abs(traj.work - 0.7 * 0.1 * times)) < 1e-13
        assert np.max(np.abs(traj.heat)) < 1e-13
        assert np.max(np.abs(traj.coherent_energy)) < 1e-13

    def test_static_hamiltonian_zero_work(self):
        pr = default_params()
        traj = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: system_states(pr, t),
                                 np.linspace(0.0, 5.0, 101))
        assert np.max(np.abs(traj.work)) < 1e-13

    def test_pure_rotation_all_coherent(self):
        """Constant spectrum rotating in a static field: no heat, no work."""
        h = np.diag([0.0, 1.0])

        def states(t):
            c, s = np.cos(t), np.sin(t)
            u = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
            return u @ np.diag([0.3, 0.7]) @ u.swapaxes(-1, -2)

        times = np.linspace(0.0, 1.2, 241)
        traj = thermo_trajectory(h, states, times)
        assert np.max(np.abs(traj.work)) < 1e-12
        assert np.max(np.abs(traj.heat)) < 1e-12
        ref = -0.4 * np.sin(times) ** 2
        assert np.max(np.abs(traj.coherent_energy - ref)) < 1e-4

    def test_phase_gauge_invariance(self):
        """Conjugating the state by phases that commute with H changes
        nothing: the integrals see only eigenvalues and overlap moduli."""
        pr = default_params()
        d = np.diag([np.exp(0.71j), np.exp(-1.3j)])
        times = np.linspace(0.0, 2.0, 41)
        base = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: system_states(pr, t), times)
        phased = thermo_trajectory(
            QUBIT_HAMILTONIAN,
            lambda t: d @ system_states(pr, t) @ d.conj().T, times)
        for name in ("work", "heat", "coherent_energy"):
            assert np.max(np.abs(getattr(base, name)
                                 - getattr(phased, name))) < 1e-12

    def test_energy_shift_changes_neither_heat_nor_coherent(self):
        """H -> H + cI shifts only the work ledger, which is zero here."""
        pr = default_params()
        times = np.linspace(0.0, 3.0, 61)
        base = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: system_states(pr, t), times)
        shifted = thermo_trajectory(QUBIT_HAMILTONIAN + 2.5 * np.eye(2),
                                    lambda t: system_states(pr, t), times)
        for name in ("heat", "coherent_energy"):
            assert np.max(np.abs(getattr(base, name)
                                 - getattr(shifted, name))) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_incoherent_initial_state_no_coherent_energy(self, alpha):
        pr = GadcParams(alpha=alpha, w0=oracles.W0_DEFAULT)
        times = np.linspace(0.0, 5.0, 201)
        for states in (system_states, environment_states):
            # the closure gate is not under test: at alpha = 0 this grid
            # leaves a residual near 1e-4
            traj = thermo_trajectory(QUBIT_HAMILTONIAN,
                                     lambda t: states(pr, t), times,
                                     closure_tolerance=1.0)
            assert np.max(np.abs(traj.coherent_energy)) < 1e-12


def trace_change(hamiltonian, states):
    """``tr(H (rho_t - rho_0))`` along a stack of states."""
    return np.einsum("ij,tji->t", hamiltonian, states - states[0]).real


class TestInternalEnergyChange:
    def test_matches_trace_difference(self):
        """The qubit route reads Delta U off its Bloch matrices."""
        pr = default_params()
        times = np.linspace(0.0, 3.0, 31)
        h = QUBIT_HAMILTONIAN
        traj = qubit_thermo_trajectory(h, system_bloch(pr, times))
        du = trace_change(h, system_states(pr, times))
        assert np.max(np.abs(traj.internal_energy_change - du)) < 1e-15

    def test_total_energy_conserved_pointwise(self):
        pr = default_params()
        times = np.linspace(0.0, 8.0, 17)
        du_s = trace_change(QUBIT_HAMILTONIAN, system_states(pr, times))
        du_e = trace_change(QUBIT_HAMILTONIAN,
                            environment_states(pr, times))
        assert np.max(np.abs(du_s + du_e)) < 1e-10

    def test_matches_trajectory_series(self):
        pr = default_params()
        times = np.linspace(0.0, 2.0, 201)
        h = QUBIT_HAMILTONIAN
        traj = thermo_trajectory(h, lambda t: system_states(pr, t), times)
        du = trace_change(h, system_states(pr, np.array([0.0, 2.0])))
        assert abs(du[-1] - traj.internal_energy_change[-1]) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            thermo_trajectory(np.eye(2), constant(np.eye(4) / 4.0),
                              np.linspace(0.0, 1.0, 3))


class TestAgainstOracle:
    def test_system_integrals(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 2001)
        traj = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: system_states(pr, t), times)
        for t_ref in (0.5, 2.0, 10.0):
            i = int(round(t_ref / 10.0 * 2000))
            q_ref, c_ref = oracles.FROZEN[("system", t_ref)]
            assert abs(traj.heat[i] - q_ref) < 5e-7
            assert abs(traj.coherent_energy[i] - c_ref) < 5e-7

    def test_environment_integrals_frozen(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 2001)
        traj = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: environment_states(pr, t), times)
        for t_ref in (0.5, 2.0, 10.0):
            i = int(round(t_ref / 10.0 * 2000))
            q_ref, c_ref = oracles.FROZEN[("environment", t_ref)]
            assert abs(traj.heat[i] - q_ref) < 5e-5
            assert abs(traj.coherent_energy[i] - c_ref) < 5e-5

    def test_environment_integrals_live_quadrature(self):
        """Dense grid against the scipy route, sharing no package code."""
        pytest.importorskip("scipy")
        pr = default_params()
        times = np.linspace(0.0, 0.5, 4001)
        traj = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: environment_states(pr, t), times)
        q_ref, c_ref = oracles.heat_and_coherent("environment", 0.5)
        assert abs(traj.heat[-1] - q_ref) < 1e-6
        assert abs(traj.coherent_energy[-1] - c_ref) < 1e-6

    def test_system_integrals_live_quadrature(self):
        pytest.importorskip("scipy")
        pr = default_params()
        times = np.linspace(0.0, 2.0, 2001)
        traj = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: system_states(pr, t), times)
        q_ref, c_ref = oracles.heat_and_coherent("system", 2.0)
        assert abs(traj.heat[-1] - q_ref) < 1e-6
        assert abs(traj.coherent_energy[-1] - c_ref) < 1e-6


class TestThermoTrajectory:
    def test_times_preserved(self):
        pr = default_params()
        times = np.linspace(0.0, 4.0, 101)
        traj = thermo_trajectory(QUBIT_HAMILTONIAN,
                                 lambda t: system_states(pr, t), times)
        assert np.array_equal(traj.times, times)
        assert traj.work.shape == times.shape

    def test_closure_gate(self):
        pr = default_params()
        with pytest.raises(NumericalError):
            thermo_trajectory(QUBIT_HAMILTONIAN,
                              lambda t: environment_states(pr, t),
                              np.linspace(0.0, 10.0, 101),
                              closure_tolerance=1e-8)

    def test_closure_improves_with_refinement(self):
        pr = default_params()
        h = QUBIT_HAMILTONIAN
        coarse = thermo_trajectory(h, lambda t: environment_states(pr, t),
                                   np.linspace(0.0, 10.0, 1001))
        fine = thermo_trajectory(h, lambda t: environment_states(pr, t),
                                 np.linspace(0.0, 10.0, 2001))
        ratio = coarse.max_closure_residual / fine.max_closure_residual
        assert 3.0 <= ratio <= 5.0

    def test_requires_callable(self):
        pr = default_params()
        with pytest.raises(InputError):
            thermo_trajectory(QUBIT_HAMILTONIAN,
                              [system_state(pr, 0.0)],
                              np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("kwargs", [
        {"closure_tolerance": math.nan},
        {"closure_tolerance": 0.0},
    ])
    def test_rejects_bad_settings(self, kwargs):
        pr = default_params()
        with pytest.raises(InputError):
            thermo_trajectory(QUBIT_HAMILTONIAN,
                              lambda t: system_states(pr, t),
                              np.linspace(0.0, 1.0, 11), **kwargs)


def _greedy_loop(decomps):
    """Step-by-step greedy matching against the tracked previous basis.

    Reference for the stacked tracker: returns the tracked eigenvalue and
    eigenvector stacks, or ``(step, best overlap)`` of the first step
    whose matching is ambiguous.
    """
    tracked = [decomps[0]]
    for step, cur in enumerate(decomps[1:], start=1):
        overlap = np.abs(tracked[-1].eigenvectors.conj().T @ cur.eigenvectors)
        dim = overlap.shape[0]
        perm = np.full(dim, -1, dtype=int)
        for _ in range(dim):
            i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
            if overlap[i, j] <= 1.0 / math.sqrt(2.0):
                return step, overlap[i, j]
            perm[i] = j
            overlap[i, :] = -1.0
            overlap[:, j] = -1.0
        tracked.append(type(cur)(eigenvalues=cur.eigenvalues[perm],
                                 eigenvectors=cur.eigenvectors[:, perm]))
    return (np.stack([d.eigenvalues for d in tracked]),
            np.stack([d.eigenvectors for d in tracked]))


def _rotation(a, b=0.0):
    """Rotation by ``a`` in the (0, 1) plane after ``b`` in the (1, 2)
    plane of three dimensions."""
    first, second = np.eye(3), np.eye(3)
    first[:2, :2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    second[1:, 1:] = [[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]]
    return first @ second


class TestStackTracking:
    """The stacked tracker against the step-by-step greedy loop."""

    def test_forced_swap_matches_loop(self):
        # a rising level of a slowly rotating operator crosses the other
        # two, between steps 6 and 7 and between steps 11 and 12
        steps = np.arange(15)
        rising = 0.32 + 0.05 * steps
        decs = [eig_hermitian(_rotation(0.05 * k)
                              @ np.diag([rising[k], 0.65, 0.9])
                              @ _rotation(0.05 * k).T) for k in steps]
        lam, vec = _greedy_loop(decs)
        lam_t, vec_t = tracked(decs)
        assert np.array_equal(lam_t, lam)
        assert np.array_equal(vec_t, vec)
        # branch 0 follows the rising level through both swaps
        assert np.max(np.abs(lam[:, 0] - rising)) < 1e-12

    def test_ambiguous_step_matches_loop(self):
        # the turned basis matches two branches, then none above 1/sqrt(2)
        h = np.diag([0.1, 0.4, 0.8])
        turned = _rotation(0.7, 0.9)
        decs = [eig_hermitian(h)] * 4 \
            + [eig_hermitian(turned @ h @ turned.T)] \
            + [eig_hermitian(h)] * 2
        step, best = _greedy_loop(decs)
        assert step == 4 and 0.5 < best < 1.0 / math.sqrt(2.0)
        with pytest.raises(TrackingError) as info:
            tracked(decs)
        message = str(info.value)
        assert "branch matching ambiguous" in message
        assert f"step {step}:" in message
        assert f"best overlap {best:.4f}" in message

    def test_trajectory_error_names_time(self):
        times = np.linspace(0.0, 1.0, 11)
        h = np.diag([0.1, 0.4, 0.8])
        turned = _rotation(0.7, 0.9)

        def hamiltonian(t):
            return np.stack([turned @ h @ turned.T if u > 0.55 else h
                             for u in t])

        # the internal grid splits the first interval in 32, so the step
        # to t = 0.6 is step 6 + 31
        with pytest.raises(TrackingError,
                           match=r"branch matching ambiguous at step 37 "
                                 r"\(t = 0\.6\)"):
            thermo_trajectory(hamiltonian, constant(np.eye(3) / 3.0), times)


class TestStateBuilder:
    @pytest.mark.parametrize("member", [
        np.diag([1.2, -0.2]),
        np.diag([0.6, 0.5]),
    ], ids=["non_psd", "trace_1.1"])
    def test_rejects_one_bad_member(self, member):
        pr = default_params()

        def builder(t):
            stack = system_states(pr, t).copy()
            stack[t.size // 2] = member
            return stack

        with pytest.raises(InputError):
            thermo_trajectory(QUBIT_HAMILTONIAN, builder,
                              np.linspace(0.0, 2.0, 21))

    def test_closure_gate_names_time(self):
        pr = default_params()
        h = QUBIT_HAMILTONIAN
        times = np.linspace(0.0, 10.0, 101)
        residual = thermo_trajectory(h, lambda t: environment_states(pr, t),
                                     times, closure_tolerance=1.0
                                     ).closure_residual
        # the residual accumulates; the step where it grows most is early,
        # far from the worst point at the end of the grid
        step = int(np.argmax(np.abs(np.diff(residual))))
        assert times[step + 1] < 1.0 < times[int(np.argmax(residual))]
        with pytest.raises(NumericalError,
                           match=r"first-law closure residual .* at t = ") \
                as exc:
            thermo_trajectory(h, lambda t: environment_states(pr, t), times,
                              closure_tolerance=1e-8)
        assert (f"between t = {times[step]:.6g} and "
                f"t = {times[step + 1]:.6g}") in str(exc.value)


SIDES = {"system": system_bloch, "environment": environment_bloch}
W0_DEFAULT = oracles.W0_DEFAULT


def qubit_route(config, side):
    pr = config.params
    return qubit_thermo_trajectory(QUBIT_HAMILTONIAN,
                                   SIDES[side](pr, config.times))


class TestQubitRoute:
    """The closed-form split, checked against references that do not
    rest on its closure residual."""

    @pytest.mark.parametrize("side", ["system", "environment"])
    def test_matches_frozen_oracle(self, side):
        traj = qubit_route(ExperimentConfig(), side)
        for t_ref in (0.5, 2.0, 10.0):
            i = int(round(t_ref / 10.0 * 2000))
            q_ref, c_ref = oracles.FROZEN[(side, t_ref)]
            assert abs(traj.heat[i] - q_ref) <= 1e-11
            assert abs(traj.coherent_energy[i] - c_ref) <= 1e-11

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.01}, {"beta": 0.05}, {"beta": 0.1}, {"beta": 0.2},
        {"gamma": 50.0}, {"n_samples": 101},
        {"alpha": 0.0}, {"alpha": 1.0},
        {"alpha": math.sqrt(W0_DEFAULT + 1e-8)},
        {"alpha": math.sqrt(W0_DEFAULT - 1e-8)},
        {"alpha": math.sqrt(W0_DEFAULT + 1e-12)},
        {"alpha": 0.3}, {"alpha": 0.3, "beta": math.inf},
        {"alpha": 0.3, "beta": 1e-8, "t_max": 40.0},
        {"alpha": 1e-8, "beta": 1e-8, "t_max": 40.0},
    ], ids=["beta0.01", "beta0.05", "beta0.1", "beta0.2", "gamma50",
            "n101", "alpha0", "alpha1", "alpha2_w0_plus", "alpha2_w0_minus",
            "alpha2_w0_closer", "complex_roots", "complex_roots_cold",
            "mixed_end", "mixed_end_complex_roots"])
    @pytest.mark.parametrize("side", ["system", "environment"])
    def test_matches_live_quadrature(self, kwargs, side):
        """Adaptive quadrature of the Bloch integrand in time, including
        the steep start at high temperature, the near-linear q at
        alpha^2 = w0, the incoherent states, and a system that ends
        nearly maximally mixed, where q has a root, or a pair, near
        g = 0."""
        pytest.importorskip("scipy")
        config = ExperimentConfig(**kwargs)
        pr = config.params
        traj = qubit_route(config, side)
        for i in np.linspace(1, config.times.size - 1, 5).astype(int):
            ref = oracles.bloch_heat(side, config.times[i], pr.alpha, pr.w0,
                                     pr.gamma_rate)
            assert abs(traj.heat[i] - ref) <= 1e-9

    @pytest.mark.parametrize("kwargs", [
        {}, {"beta": 0.01},
        {"alpha": math.sqrt(W0_DEFAULT + 1e-8)},
        {"alpha": math.sqrt(W0_DEFAULT - 1e-8)},
        {"alpha": 0.3}, {"alpha": 0.3, "beta": math.inf},
        {"alpha": 0.3, "beta": 1e-8, "t_max": 40.0},
        {"alpha": 1e-8, "beta": 1e-8, "t_max": 40.0},
    ], ids=["default", "beta0.01", "alpha2_w0_plus", "alpha2_w0_minus",
            "complex_roots", "complex_roots_cold", "mixed_end",
            "mixed_end_complex_roots"])
    @pytest.mark.parametrize("side", ["system", "environment"])
    def test_matches_exact_antiderivative(self, kwargs, side):
        """The double-precision evaluation against 60 digits, at every
        point: each root form keeps all the digits of the heat."""
        pytest.importorskip("mpmath")
        config = ExperimentConfig(n_samples=41, **kwargs)
        pr = config.params
        ref = oracles.bloch_heat_exact(side, config.times, pr.alpha, pr.w0,
                                       pr.gamma_rate)
        traj = qubit_route(config, side)
        assert np.max(np.abs(traj.heat - ref)) <= 1e-14

    @pytest.mark.parametrize("side", ["system", "environment"])
    def test_generic_route_converges_to_it(self, side):
        config = ExperimentConfig()
        pr = config.params
        states = system_states if side == "system" else environment_states
        generic = thermo_trajectory(QUBIT_HAMILTONIAN,
                                    lambda t: states(pr, t), config.times)
        exact = qubit_route(config, side)
        assert np.max(np.abs(generic.heat - exact.heat)) <= 1e-5
        assert np.max(np.abs(generic.coherent_energy
                             - exact.coherent_energy)) <= 1e-4

    def test_split_sums_to_energy_change(self):
        traj = qubit_route(ExperimentConfig(alpha=0.3, beta=math.inf),
                           "environment")
        assert np.array_equal(traj.work, np.zeros_like(traj.times))
        assert traj.max_closure_residual <= 1e-15
        assert traj.heat[0] == traj.coherent_energy[0] == 0.0

    def test_wrong_coefficients_trip_closure(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 101)
        series = system_bloch(pr, times)
        z0, z1, c0, c1 = series.coefficients
        tilted = series._replace(coefficients=(z0, z1 + 1e-3, c0, c1))
        with pytest.raises(NumericalError,
                           match=r"first-law closure residual .* at t = ") \
                as exc:
            qubit_thermo_trajectory(QUBIT_HAMILTONIAN, tilted)
        assert "Bloch coefficients disagree" in str(exc.value)
        assert "refine the time grid" not in str(exc.value)

    @pytest.mark.parametrize("hamiltonian", [
        np.array([[0.0, 0.1], [0.1, 1.0]]),
        np.diag([0.0, 1.0, 2.0]),
    ], ids=["off_diagonal", "three_levels"])
    def test_rejects_other_hamiltonians(self, hamiltonian):
        pr = default_params()
        with pytest.raises(InputError):
            qubit_thermo_trajectory(hamiltonian,
                                    system_bloch(pr, np.linspace(0, 1, 5)))
