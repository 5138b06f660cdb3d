"""Eigenbranch tracking, the three energy integrals, and closure."""

import math

import numpy as np
import pytest

import oracles
from strongcouple.channels import (GadcParams, environment_hamiltonian,
                                   environment_state, environment_states,
                                   system_hamiltonian, system_state,
                                   system_states)
from strongcouple.errors import InputError, NumericalError, TrackingError
from strongcouple.firstlaw import (coherent_energy_integral, eigen_track,
                                   heat_integral, internal_energy_change,
                                   sample_trajectory, thermo_trajectory,
                                   work_integral)
from strongcouple.spectra import DensityOperator, eig_hermitian


def default_params():
    return GadcParams(alpha=1.0 / math.sqrt(2.0), w0=oracles.W0_DEFAULT)


class TestEigenTrack:
    def test_fixes_branch_swap(self):
        decs = [eig_hermitian(np.diag([0.2, 0.8])),
                eig_hermitian(np.diag([0.8, 0.2]))]
        tracked = eigen_track(decs)
        # branch 0 starts on the first basis vector and must stay there
        assert abs(tracked[1].eigenvalues[0] - 0.8) < 1e-15
        assert abs(tracked[1].eigenvectors[0, 0]) > 0.99

    def test_identity_when_continuous(self):
        times = np.linspace(0.0, 1.0, 11)
        pr = default_params()
        decs = [eig_hermitian(system_state(pr, t)) for t in times]
        tracked = eigen_track(decs)
        for dec, ref in zip(tracked, decs):
            assert np.array_equal(dec.eigenvalues, ref.eigenvalues)

    def test_ambiguous_overlap_raises(self):
        decs = [eig_hermitian(np.diag([-1.0, 1.0])),
                eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))]
        with pytest.raises(TrackingError):
            eigen_track(decs)

    def test_empty_input_raises(self):
        with pytest.raises(InputError):
            eigen_track([])


class TestSampleTrajectory:
    def test_overlap_rows_and_columns_sum_to_one(self):
        pr = default_params()
        samples = sample_trajectory(system_hamiltonian(pr),
                                    lambda t: system_state(pr, t),
                                    np.linspace(0.0, 2.0, 5))
        for s in samples:
            assert np.max(np.abs(s.overlaps.sum(axis=0) - 1.0)) < 1e-12
            assert np.max(np.abs(s.overlaps.sum(axis=1) - 1.0)) < 1e-12

    def test_accepts_precomputed_states(self):
        pr = default_params()
        times = np.linspace(0.0, 1.0, 4)
        states = [system_state(pr, t) for t in times]
        samples = sample_trajectory(system_hamiltonian(pr), states, times)
        assert len(samples) == 4

    def test_state_count_mismatch(self):
        pr = default_params()
        with pytest.raises(InputError):
            sample_trajectory(system_hamiltonian(pr),
                              [system_state(pr, 0.0)],
                              np.linspace(0.0, 1.0, 4))

    @pytest.mark.parametrize("times", [[0.0], [[0.0, 1.0]], [1.0, 0.5]])
    def test_bad_grids(self, times):
        pr = default_params()
        with pytest.raises(InputError):
            sample_trajectory(system_hamiltonian(pr),
                              lambda t: system_state(pr, t), times)


class TestIntegralsExactCases:
    def test_driven_spectrum_pure_work(self):
        """Linear level drift on a stationary diagonal state: all work."""
        rho = DensityOperator(np.diag([0.3, 0.7]))
        times = np.linspace(0.0, 2.0, 21)
        samples = sample_trajectory(
            lambda t: np.diag([0.0, 1.0 + 0.1 * t]),
            lambda t: rho, times)
        assert np.max(np.abs(work_integral(samples) - 0.7 * 0.1 * times)) \
            < 1e-13
        assert np.max(np.abs(heat_integral(samples))) < 1e-13
        assert np.max(np.abs(coherent_energy_integral(samples))) < 1e-13

    def test_static_hamiltonian_zero_work(self):
        pr = default_params()
        samples = sample_trajectory(system_hamiltonian(pr),
                                    lambda t: system_state(pr, t),
                                    np.linspace(0.0, 5.0, 101))
        assert np.max(np.abs(work_integral(samples))) < 1e-13

    def test_pure_rotation_all_coherent(self):
        """Constant spectrum rotating in a static field: no heat, no work."""
        h = np.diag([0.0, 1.0])

        def state(t):
            c, s = np.cos(t), np.sin(t)
            u = np.array([[c, -s], [s, c]])
            return DensityOperator(u @ np.diag([0.3, 0.7]) @ u.T)

        times = np.linspace(0.0, 1.2, 241)
        samples = sample_trajectory(h, state, times)
        assert np.max(np.abs(work_integral(samples))) < 1e-12
        assert np.max(np.abs(heat_integral(samples))) < 1e-12
        ref = -0.4 * np.sin(times) ** 2
        assert np.max(np.abs(coherent_energy_integral(samples) - ref)) < 1e-4

    def test_phase_gauge_invariance(self):
        """Conjugating the state by phases that commute with H changes
        nothing: the integrals see only eigenvalues and overlap moduli."""
        pr = default_params()
        d = np.diag([np.exp(0.71j), np.exp(-1.3j)])
        times = np.linspace(0.0, 2.0, 41)
        base = sample_trajectory(system_hamiltonian(pr),
                                 lambda t: system_state(pr, t), times)
        phased = sample_trajectory(
            system_hamiltonian(pr),
            lambda t: DensityOperator(
                d @ system_state(pr, t).matrix @ d.conj().T), times)
        for integral in (work_integral, heat_integral,
                         coherent_energy_integral):
            assert np.max(np.abs(integral(base) - integral(phased))) < 1e-12

    def test_energy_shift_changes_neither_heat_nor_coherent(self):
        """H -> H + cI shifts only the work ledger, which is zero here."""
        pr = default_params()
        times = np.linspace(0.0, 3.0, 61)
        base = sample_trajectory(system_hamiltonian(pr),
                                 lambda t: system_state(pr, t), times)
        shifted = sample_trajectory(system_hamiltonian(pr) + 2.5 * np.eye(2),
                                    lambda t: system_state(pr, t), times)
        for integral in (heat_integral, coherent_energy_integral):
            assert np.max(np.abs(integral(base) - integral(shifted))) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_incoherent_initial_state_no_coherent_energy(self, alpha):
        pr = GadcParams(alpha=alpha, w0=oracles.W0_DEFAULT)
        times = np.linspace(0.0, 5.0, 201)
        for h, state in ((system_hamiltonian(pr), system_state),
                         (environment_hamiltonian(pr), environment_state)):
            samples = sample_trajectory(h, lambda t: state(pr, t), times)
            assert np.max(np.abs(coherent_energy_integral(samples))) < 1e-12


class TestInternalEnergyChange:
    def test_matches_trace_difference(self):
        pr = default_params()
        h = system_hamiltonian(pr)
        rho0 = system_state(pr, 0.0).matrix
        rho1 = system_state(pr, 3.0).matrix
        du = internal_energy_change(h, rho1, rho0)
        assert abs(du - np.trace(h @ (rho1 - rho0)).real) < 1e-15
        assert internal_energy_change(h, rho0, rho0) == 0.0

    def test_total_energy_conserved_pointwise(self):
        pr = default_params()
        h_s, h_e = system_hamiltonian(pr), environment_hamiltonian(pr)
        s0 = system_state(pr, 0.0).matrix
        e0 = environment_state(pr, 0.0).matrix
        for t in np.linspace(0.0, 8.0, 17):
            du_s = internal_energy_change(h_s, system_state(pr, t).matrix, s0)
            du_e = internal_energy_change(h_e,
                                          environment_state(pr, t).matrix, e0)
            assert abs(du_s + du_e) < 1e-10

    def test_matches_trajectory_series(self):
        pr = default_params()
        times = np.linspace(0.0, 2.0, 201)
        traj = thermo_trajectory(system_hamiltonian(pr),
                                 lambda t: system_states(pr, t), times)
        du = internal_energy_change(system_hamiltonian(pr),
                                    system_state(pr, 2.0).matrix,
                                    system_state(pr, 0.0).matrix)
        assert abs(du - traj.internal_energy_change[-1]) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            internal_energy_change(np.eye(2), np.eye(4) / 4.0, np.eye(4) / 4.0)


class TestAgainstOracle:
    def test_system_integrals(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 2001)
        traj = thermo_trajectory(system_hamiltonian(pr),
                                 lambda t: system_states(pr, t), times)
        for t_ref in (0.5, 2.0, 10.0):
            i = int(round(t_ref / 10.0 * 2000))
            q_ref, c_ref = oracles.FROZEN[("system", t_ref)]
            assert abs(traj.heat[i] - q_ref) < 5e-7
            assert abs(traj.coherent_energy[i] - c_ref) < 5e-7

    def test_environment_integrals_frozen(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 2001)
        traj = thermo_trajectory(environment_hamiltonian(pr),
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
        traj = thermo_trajectory(environment_hamiltonian(pr),
                                 lambda t: environment_states(pr, t), times)
        q_ref, c_ref = oracles.heat_and_coherent("environment", 0.5)
        assert abs(traj.heat[-1] - q_ref) < 1e-6
        assert abs(traj.coherent_energy[-1] - c_ref) < 1e-6

    def test_system_integrals_live_quadrature(self):
        pytest.importorskip("scipy")
        pr = default_params()
        times = np.linspace(0.0, 2.0, 2001)
        traj = thermo_trajectory(system_hamiltonian(pr),
                                 lambda t: system_states(pr, t), times)
        q_ref, c_ref = oracles.heat_and_coherent("system", 2.0)
        assert abs(traj.heat[-1] - q_ref) < 1e-6
        assert abs(traj.coherent_energy[-1] - c_ref) < 1e-6


class TestThermoTrajectory:
    def test_times_preserved(self):
        pr = default_params()
        times = np.linspace(0.0, 4.0, 101)
        traj = thermo_trajectory(system_hamiltonian(pr),
                                 lambda t: system_states(pr, t), times)
        assert np.array_equal(traj.times, times)
        assert traj.work.shape == times.shape

    def test_closure_gate(self):
        pr = default_params()
        with pytest.raises(NumericalError):
            thermo_trajectory(environment_hamiltonian(pr),
                              lambda t: environment_states(pr, t),
                              np.linspace(0.0, 10.0, 101),
                              closure_tolerance=1e-8)

    def test_closure_improves_with_refinement(self):
        pr = default_params()
        h = environment_hamiltonian(pr)
        coarse = thermo_trajectory(h, lambda t: environment_states(pr, t),
                                   np.linspace(0.0, 10.0, 1001))
        fine = thermo_trajectory(h, lambda t: environment_states(pr, t),
                                 np.linspace(0.0, 10.0, 2001))
        ratio = coarse.max_closure_residual / fine.max_closure_residual
        assert 3.0 <= ratio <= 5.0

    def test_requires_callable(self):
        pr = default_params()
        with pytest.raises(InputError):
            thermo_trajectory(system_hamiltonian(pr),
                              [system_state(pr, 0.0)],
                              np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("kwargs", [
        {"endpoint_subdivision": 0},
        {"closure_tolerance": 0.0},
    ])
    def test_rejects_bad_settings(self, kwargs):
        pr = default_params()
        with pytest.raises(InputError):
            thermo_trajectory(system_hamiltonian(pr),
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
        tracked = eigen_track(decs)
        assert np.array_equal(np.stack([d.eigenvalues for d in tracked]), lam)
        assert np.array_equal(np.stack([d.eigenvectors for d in tracked]),
                              vec)
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
            eigen_track(decs)
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

        with pytest.raises(TrackingError,
                           match=r"branch matching ambiguous at step 6 "
                                 r"\(t = 0\.6\)"):
            thermo_trajectory(hamiltonian,
                              lambda t: np.broadcast_to(np.eye(3) / 3.0,
                                                        (t.size, 3, 3)),
                              times, endpoint_subdivision=1)


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
            thermo_trajectory(system_hamiltonian(pr), builder,
                              np.linspace(0.0, 2.0, 21))

    @pytest.mark.parametrize("side", ["system", "environment"])
    def test_agrees_with_sample_trajectory(self, side):
        """The stacked route against per-instant states on the default
        grid, including the subdivided first interval."""
        pr = default_params()
        if side == "system":
            h, state, states = system_hamiltonian(pr), system_state, \
                system_states
        else:
            h, state, states = environment_hamiltonian(pr), \
                environment_state, environment_states
        times = np.linspace(0.0, 10.0, 2001)
        traj = thermo_trajectory(h, lambda t: states(pr, t), times)
        merged = np.unique(np.concatenate(
            [np.linspace(times[0], times[1], 33), times]))
        public = np.searchsorted(merged, times)
        samples = sample_trajectory(h, lambda t: state(pr, t), merged)
        for integral, series in ((work_integral, traj.work),
                                 (heat_integral, traj.heat),
                                 (coherent_energy_integral,
                                  traj.coherent_energy)):
            assert np.max(np.abs(integral(samples)[public] - series)) < 1e-13

    def test_closure_gate_names_time(self):
        pr = default_params()
        with pytest.raises(NumericalError,
                           match=r"first-law closure residual .* at t = "):
            thermo_trajectory(environment_hamiltonian(pr),
                              lambda t: environment_states(pr, t),
                              np.linspace(0.0, 10.0, 101),
                              closure_tolerance=1e-8)
