"""Eigenbranch tracking, the three energy integrals, and closure."""

import math
import re

import numpy as np
import pytest

import oracles
from strongcouple.channels import (QUBIT_HAMILTONIAN, GadcParams,
                                   environment_bloch, environment_states,
                                   system_bloch, system_states)
from strongcouple.errors import InputError, NumericalError, TrackingError
from strongcouple.experiment import ExperimentConfig
from strongcouple.firstlaw import (_track, qubit_thermo_trajectory,
                                   thermo_trajectory)
from strongcouple.infomeasures import bloch_entropies
from strongcouple.spectra import hermitian_stack


def default_params():
    return GadcParams(alpha=1.0 / math.sqrt(2.0), w0=oracles.W0_DEFAULT)


def spectra_of(matrices):
    """The eigenvalue and eigenvector stacks of a sequence of Hermitian
    matrices, one per unit of time."""
    return np.linalg.eigh(hermitian_stack(matrices))


def tracked(matrices):
    """The stacked tracker on a sequence of Hermitian matrices, one per
    unit of time."""
    lam, vec = spectra_of(matrices)
    return _track(lam, vec, np.arange(len(lam), dtype=float))


def constant(matrix, times):
    """The stack that holds ``matrix`` at every point of ``times``."""
    return np.broadcast_to(matrix, (times.size,) + matrix.shape)


class TestEigenTrack:
    def test_fixes_branch_swap(self):
        lam, vec = tracked([np.diag([0.2, 0.8]), np.diag([0.8, 0.2])])
        # branch 0 starts on the first basis vector and must stay there
        assert abs(lam[1, 0] - 0.8) < 1e-15
        assert abs(vec[1, 0, 0]) > 0.99

    def test_identity_when_continuous(self):
        pr = default_params()
        times = np.linspace(0.0, 1.0, 11)
        lam, vec = np.linalg.eigh(system_states(pr, times))
        lam_t, vec_t = _track(lam, vec, times)
        assert np.array_equal(lam_t, lam)
        assert np.array_equal(vec_t, vec)

    def test_ambiguous_overlap_raises(self):
        with pytest.raises(TrackingError):
            tracked([np.diag([-1.0, 1.0]),
                     np.array([[0.0, 1.0], [1.0, 0.0]])])


class TestSampleTrajectory:
    """A sampled trajectory: the grid, the stack of states on it, and the
    energies of its tracked eigenbranches."""

    def test_overlap_rows_and_columns_sum_to_one(self):
        """Seen through the branch energies ``eps_k = sum_n E_n P_nk``:
        the overlap table's rows sum to one, so the branch energies sum
        to ``E0 + E1``; its columns do, so each lies in ``[E0, E1]``."""
        pr = default_params()
        times = np.linspace(0.0, 2.0, 5)
        e0, e1 = QUBIT_HAMILTONIAN.real.diagonal()
        _, vectors = _track(*np.linalg.eigh(system_states(pr, times)), times)
        energies = np.array([e0, e1]) @ np.abs(vectors) ** 2
        assert np.max(np.abs(energies.sum(axis=1) - (e0 + e1))) < 1e-12
        assert (energies >= e0).all() and (energies <= e1).all()

    def test_state_count_mismatch(self):
        pr = default_params()
        times = np.linspace(0.0, 1.0, 4)
        with pytest.raises(InputError, match="got states of shape"):
            thermo_trajectory(system_states(pr, times[:1]), times)

    @pytest.mark.parametrize("shape, hermitian", [
        ((5, 4, 4), True), ((7, 2, 2), True), ((7, 2, 2), False),
    ], ids=["dimension", "count", "count_non_hermitian"])
    def test_shape_checked_before_eigensolve(self, monkeypatch, shape,
                                             hermitian):
        """A stack of the wrong shape is refused by its shape, before
        the eigensolve and before the checks of the states themselves."""
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigensolve before the shape check")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        n = shape[-1]
        states = np.broadcast_to(np.eye(n) / n, shape).copy()
        if not hermitian:
            states[:, 0, 1] = 0.1
        with pytest.raises(InputError, match=re.escape(
                f"got states of shape {shape} for 5 time points")):
            thermo_trajectory(states, np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("times", [[0.0], [[0.0, 1.0]], [1.0, 0.5],
                                       "abc"])
    def test_bad_grids(self, times):
        pr = default_params()
        states = system_states(pr, np.linspace(0.0, 1.0, 2))
        with pytest.raises(InputError):
            thermo_trajectory(states, times)


# grids that are increasing wherever they compare, but not finite
NON_FINITE_GRIDS = ([0.0, 1.0, math.inf], [0.0, 1.0, math.nan],
                    [0.0, 1.0, math.inf, math.inf], [-math.inf, 0.0, 1.0])


@pytest.mark.parametrize("times", NON_FINITE_GRIDS)
def test_generic_route_rejects_non_finite_grid(times):
    states = system_states(default_params(), np.linspace(0.0, 1.0, len(times)))
    with pytest.raises(InputError, match="times must be finite"):
        thermo_trajectory(states, times)


@pytest.mark.parametrize("times", NON_FINITE_GRIDS)
def test_qubit_route_rejects_non_finite_grid(times):
    series = system_bloch(default_params(), np.linspace(0.0, 1.0, len(times)))
    with pytest.raises(InputError, match="times must be finite"):
        qubit_thermo_trajectory(series._replace(times=np.array(times)))
    block = np.array([np.linspace(0.0, 1.0, len(times)), times])
    with pytest.raises(InputError, match="times must be finite"):
        qubit_thermo_trajectory(series._replace(times=block))


def overlap_reference(states, times):
    """Heat, coherent energy, Delta U and closure residual of the generic
    route in its overlap-tensor form, ``P_nk = |<n|k>|^2`` in full, and
    whether the tracking swapped any point's branches. It diagonalizes
    the stack as the route does, so the two forms share their
    eigenvectors bit for bit."""
    energies = QUBIT_HAMILTONIAN.real.diagonal()
    lam, vec = np.linalg.eigh(hermitian_stack(states))
    populations, vectors = _track(lam, vec, times)
    overlaps = np.abs(vectors) ** 2

    def cumtrapz(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(times))
        return out

    dr = np.gradient(populations, times, axis=0)
    dp = np.gradient(overlaps, times, axis=0)
    heat = cumtrapz(np.einsum("n,tnk,tk->t", energies, overlaps, dr))
    coherent = cumtrapz(np.einsum("n,tk,tnk->t", energies, populations, dp))
    u = np.einsum("n,tk,tnk->t", energies, populations, overlaps)
    du = u - u[0]
    residual = np.abs(du - np.zeros_like(times) - heat - coherent)
    return (heat, coherent, du, residual), not np.array_equal(populations,
                                                              lam)


class TestBranchEnergyForm:
    """The generic route integrates on branch energies; with the levels
    ``(0, 1)`` that is the overlap-tensor form of the heat, bit for bit."""

    @pytest.mark.parametrize("beta", [0.2, 1.0, math.inf])
    @pytest.mark.parametrize("side", ["system", "environment"])
    def test_equals_overlap_tensor_form(self, side, beta):
        states = system_states if side == "system" else environment_states
        for alpha in (0.0, 0.3, 1.0 / math.sqrt(2.0), 0.9, 1.0):
            pr = GadcParams.from_inverse_temperature(alpha, beta)
            for times in (np.linspace(0.0, 10.0, 101),
                          10.0 * np.linspace(0.0, 1.0, 1001) ** 2):
                stack = states(pr, times)
                # the gate is not under test: the hot coarse grid leaves
                # residuals near 1e-3
                traj = thermo_trajectory(stack, times, closure_tolerance=1.0)
                ref, swapped = overlap_reference(stack, times)
                # at alpha = 0 the populations cross, so the tracking
                # swaps the branches that eigh orders by value
                assert swapped == (alpha == 0.0), alpha
                for name, want in zip(("heat", "coherent_energy",
                                       "internal_energy_change",
                                       "closure_residual"), ref):
                    assert np.array_equal(getattr(traj, name), want), (
                        alpha, name)


class TestIntegralsExactCases:
    def test_static_hamiltonian_zero_work(self):
        pr = default_params()
        times = np.linspace(0.0, 5.0, 101)
        traj = thermo_trajectory(system_states(pr, times), times)
        assert np.max(np.abs(traj.work)) < 1e-13

    def test_pure_rotation_all_coherent(self):
        """Constant spectrum rotating in a static field: no heat, no work."""

        times = np.linspace(0.0, 1.2, 241)
        c, s = np.cos(times), np.sin(times)
        u = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        states = u @ np.diag([0.3, 0.7]) @ u.swapaxes(-1, -2)
        traj = thermo_trajectory(states, times)
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
        base = thermo_trajectory(system_states(pr, times), times)
        phased = thermo_trajectory(
            d @ system_states(pr, times) @ d.conj().T, times)
        for name in ("work", "heat", "coherent_energy"):
            assert np.max(np.abs(getattr(base, name)
                                 - getattr(phased, name))) < 1e-12

    def test_independent_of_eigenvector_phase(self, rng):
        """The route reads its eigenvectors only through moduli, so it
        needs no phase convention: conjugating random marginals by
        ``diag(1, e^{i phi})`` moves each eigenvector's lower component
        by a phase and every integral by round-off alone."""
        times = np.linspace(0.0, 10.0, 2001)
        names = ("heat", "coherent_energy", "internal_energy_change",
                 "closure_residual")
        for alpha, w0, phi in rng.uniform(0.0, 1.0, (30, 3)):
            pr = GadcParams(alpha=alpha, w0=w0)
            d = np.diag([1.0, np.exp(2j * np.pi * phi)])
            for states in (system_states(pr, times),
                           environment_states(pr, times)):
                # the gate is not under test
                base = thermo_trajectory(states, times, closure_tolerance=1.0)
                phased = thermo_trajectory(d @ states @ d.conj(), times,
                                           closure_tolerance=1.0)
                for name in names:
                    assert np.max(np.abs(getattr(base, name)
                                         - getattr(phased, name))) < 1e-13, (
                        alpha, w0, name)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_incoherent_initial_state_no_coherent_energy(self, alpha):
        pr = GadcParams(alpha=alpha, w0=oracles.W0_DEFAULT)
        times = np.linspace(0.0, 5.0, 201)
        for states in (system_states, environment_states):
            # the closure gate is not under test: at alpha = 0 this grid
            # leaves a residual near 1e-4
            traj = thermo_trajectory(states(pr, times), times,
                                     closure_tolerance=1.0)
            assert np.max(np.abs(traj.coherent_energy)) < 1e-12


def trace_change(hamiltonian, states):
    """``tr(H (rho_t - rho_0))`` along a stack of states."""
    return np.einsum("ij,tji->t", hamiltonian, states - states[0]).real


class TestInternalEnergyChange:
    def test_matches_trace_difference(self):
        """The qubit route reads Delta U off its closed-form populations."""
        pr = default_params()
        times = np.linspace(0.0, 3.0, 31)
        h = QUBIT_HAMILTONIAN
        traj = qubit_thermo_trajectory(system_bloch(pr, times))
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
        traj = thermo_trajectory(system_states(pr, times), times)
        du = trace_change(QUBIT_HAMILTONIAN,
                          system_states(pr, np.array([0.0, 2.0])))
        assert abs(du[-1] - traj.internal_energy_change[-1]) < 1e-12

    def test_dimension_mismatch(self):
        """Only qubit states: a valid stack of another size names its
        shape."""
        times = np.linspace(0.0, 1.0, 3)
        for dim in (4, 3):
            with pytest.raises(InputError, match=rf"states of shape "
                                                 rf"\(\d+, {dim}, {dim}\)"):
                thermo_trajectory(constant(np.eye(dim) / dim, times), times)


class TestAgainstOracle:
    def test_system_integrals(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 2001)
        traj = thermo_trajectory(system_states(pr, times), times)
        for t_ref in (0.5, 2.0, 10.0):
            i = int(round(t_ref / 10.0 * 2000))
            q_ref, c_ref = oracles.FROZEN[("system", t_ref)]
            assert abs(traj.heat[i] - q_ref) < 5e-7
            assert abs(traj.coherent_energy[i] - c_ref) < 5e-7

    def test_environment_integrals_frozen(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 2001)
        traj = thermo_trajectory(environment_states(pr, times), times)
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
        traj = thermo_trajectory(environment_states(pr, times), times)
        q_ref, c_ref = oracles.heat_and_coherent("environment", 0.5)
        assert abs(traj.heat[-1] - q_ref) < 1e-6
        assert abs(traj.coherent_energy[-1] - c_ref) < 1e-6

    def test_system_integrals_live_quadrature(self):
        pytest.importorskip("scipy")
        pr = default_params()
        times = np.linspace(0.0, 2.0, 2001)
        traj = thermo_trajectory(system_states(pr, times), times)
        q_ref, c_ref = oracles.heat_and_coherent("system", 2.0)
        assert abs(traj.heat[-1] - q_ref) < 1e-6
        assert abs(traj.coherent_energy[-1] - c_ref) < 1e-6


class TestThermoTrajectory:
    def test_times_preserved(self):
        pr = default_params()
        times = np.linspace(0.0, 4.0, 101)
        traj = thermo_trajectory(system_states(pr, times), times)
        assert np.array_equal(traj.times, times)
        assert traj.work.shape == times.shape

    def test_closure_gate(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 101)
        with pytest.raises(NumericalError):
            thermo_trajectory(environment_states(pr, times), times,
                              closure_tolerance=1e-8)

    def test_closure_improves_with_refinement(self):
        pr = default_params()
        coarse, fine = (
            thermo_trajectory(environment_states(pr, times), times)
            for times in (np.linspace(0.0, 10.0, 1001),
                          np.linspace(0.0, 10.0, 2001)))
        ratio = coarse.max_closure_residual / fine.max_closure_residual
        assert 3.0 <= ratio <= 5.0

    @pytest.mark.parametrize("kwargs", [
        {"closure_tolerance": math.nan},
        {"closure_tolerance": 0.0},
    ])
    def test_rejects_bad_settings(self, kwargs):
        pr = default_params()
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(InputError):
            thermo_trajectory(system_states(pr, times), times, **kwargs)


def _greedy_loop(matrices):
    """Step-by-step greedy matching against the tracked previous basis.

    Reference for the stacked tracker on the Hermitian ``matrices``:
    returns the tracked eigenvalue and eigenvector stacks, or ``(step,
    best overlap)`` of the first step whose matching is ambiguous.
    """
    lams, vecs = spectra_of(matrices)
    tracked = [(lams[0], vecs[0])]
    for step in range(1, len(lams)):
        overlap = np.abs(tracked[-1][1].conj().T @ vecs[step])
        dim = overlap.shape[0]
        perm = np.full(dim, -1, dtype=int)
        for _ in range(dim):
            i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
            if overlap[i, j] <= 1.0 / math.sqrt(2.0):
                return step, overlap[i, j]
            perm[i] = j
            overlap[i, :] = -1.0
            overlap[:, j] = -1.0
        tracked.append((lams[step][perm], vecs[step][:, perm]))
    return (np.stack([lam for lam, _ in tracked]),
            np.stack([vec for _, vec in tracked]))


def _rotation(a):
    """Rotation of the plane by ``a``."""
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


# a turn by exactly 45 degrees: the entries of each column are equal, so
# both overlaps with the unturned basis are 1/sqrt(2)
_TURN = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)


class TestStackTracking:
    """The stacked tracker against the step-by-step greedy loop."""

    def test_forced_swap_matches_loop(self):
        # an arching level of a slowly rotating qubit operator crosses
        # the other twice, between steps 2 and 3 and between 11 and 12
        steps = np.arange(15)
        arching = 0.7 - 0.01 * (steps - 7) ** 2
        matrices = [_rotation(0.05 * k) @ np.diag([arching[k], 0.5])
                    @ _rotation(0.05 * k).T for k in steps]
        lam, vec = _greedy_loop(matrices)
        lam_t, vec_t = tracked(matrices)
        assert np.array_equal(lam_t, lam)
        assert np.array_equal(vec_t, vec)
        # branch 0 follows the arching level through both swaps
        assert np.max(np.abs(lam[:, 0] - arching)) < 1e-12

    def test_ambiguous_step_matches_loop(self):
        h = np.diag([0.1, 0.4])
        matrices = [h] * 4 + [_TURN @ h @ _TURN.T] + [h] * 2
        step, best = _greedy_loop(matrices)
        assert step == 4 and best <= 1.0 / math.sqrt(2.0)
        with pytest.raises(TrackingError) as info:
            tracked(matrices)
        message = str(info.value)
        assert "branch matching ambiguous" in message
        assert f"step {step} (t = {step}):" in message
        assert f"best overlap {best:.4f}" in message

    def test_trajectory_error_names_time(self):
        times = np.linspace(0.0, 1.0, 11)
        rho = np.diag([0.2, 0.8])
        turned = _TURN @ rho @ _TURN.T

        states = np.stack([turned if u > 0.55 else rho for u in times])
        with pytest.raises(TrackingError,
                           match=r"branch matching ambiguous at step 6 "
                                 r"\(t = 0\.6\)"):
            thermo_trajectory(states, times)


class TestStateBuilder:
    @pytest.mark.parametrize("member", [
        np.diag([1.2, -0.2]),
        np.diag([0.6, 0.5]),
    ], ids=["non_psd", "trace_1.1"])
    def test_rejects_one_bad_member(self, member):
        pr = default_params()
        times = np.linspace(0.0, 2.0, 21)
        stack = system_states(pr, times).copy()
        stack[times.size // 2] = member
        with pytest.raises(InputError):
            thermo_trajectory(stack, times)

    def test_closure_gate_names_time(self):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 101)
        states = system_states(pr, times)
        residual = thermo_trajectory(states, times, closure_tolerance=1.0
                                     ).closure_residual
        # the residual accumulates; the step where it grows most, between
        # t = 0.7 and 0.8, is apart from the worst point, at t = 1.8
        step = int(np.argmax(np.abs(np.diff(residual))))
        assert times[step + 1] < 1.0 < times[int(np.argmax(residual))]
        with pytest.raises(NumericalError,
                           match=r"first-law closure residual .* at t = ") \
                as exc:
            thermo_trajectory(states, times, closure_tolerance=1e-8)
        assert (f"between t = {times[step]:.6g} and "
                f"t = {times[step + 1]:.6g}") in str(exc.value)


SIDES = {"system": system_bloch, "environment": environment_bloch}
W0_DEFAULT = oracles.W0_DEFAULT


def qubit_route(config, side):
    pr = config.params
    return qubit_thermo_trajectory(SIDES[side](pr, config.times))


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
        generic = thermo_trajectory(states(pr, config.times), config.times)
        exact = qubit_route(config, side)
        assert np.max(np.abs(generic.heat - exact.heat)) <= 1e-5
        assert np.max(np.abs(generic.coherent_energy
                             - exact.coherent_energy)) <= 1e-4

    # bounds on |Richardson - exact| over alpha, about 3x the measured
    # 6.4e-9, 1.0e-10 and 1e-12 for the environment and 2.5e-12 for the
    # system; the hot environment's coherence grows as sqrt(t) at the
    # start, which the graded grid resolves
    GENERIC_BOUNDS = {("environment", 0.05): 2e-8,
                      ("environment", 0.2): 3e-10}

    @pytest.mark.parametrize("beta", [0.05, 0.2, 1.0, math.inf])
    @pytest.mark.parametrize("side", ["system", "environment"])
    def test_generic_route_on_graded_grids(self, side, beta):
        """The paper's definition of heat, in the eigenbasis, as a
        reference for the exact split across temperatures: on grids
        ``t = 10 s^2`` with ``s`` uniform, graded toward ``t = 0``, the
        generic route converges at second order, and its Richardson
        value from 2001 and 4001 points meets the qubit route."""
        states = system_states if side == "system" else environment_states
        fine = 10.0 * np.linspace(0.0, 1.0, 4001) ** 2
        coarse = fine[::2]
        bound = self.GENERIC_BOUNDS.get((side, beta), 1e-11)
        for alpha in (0.0, 0.3, 0.5, 1.0 / math.sqrt(2.0), 0.85, 1.0):
            pr = GadcParams.from_inverse_temperature(alpha, beta)
            on_coarse = thermo_trajectory(states(pr, coarse), coarse)
            on_fine = thermo_trajectory(states(pr, fine), fine)
            richardson = (4.0 * on_fine.heat[::2] - on_coarse.heat) / 3.0
            exact = qubit_thermo_trajectory(SIDES[side](pr, coarse)).heat
            assert np.max(np.abs(richardson - exact)) <= bound, alpha
            if alpha == 1.0 and beta == math.inf:
                # ground system, ground environment: nothing moves
                assert on_coarse.max_closure_residual == 0.0
                assert on_fine.max_closure_residual == 0.0
            else:
                ratio = (on_coarse.max_closure_residual
                         / on_fine.max_closure_residual)
                assert 3.9 <= ratio <= 4.1, alpha

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
        lead, slope, coh = series.coefficients
        tilted = series._replace(coefficients=(lead, slope + 1e-3, coh))
        with pytest.raises(NumericalError,
                           match=r"first-law closure residual .* at t = ") \
                as exc:
            qubit_thermo_trajectory(tilted)
        assert "Bloch coefficients disagree" in str(exc.value)
        assert "refine the time grid" not in str(exc.value)

    @pytest.mark.parametrize("count", [2, 4])
    def test_coefficient_count_checked(self, count):
        # three coefficients, (lead, slope, coh); a stale four-entry set
        # or a short one is refused by name before any is read
        series = system_bloch(default_params(), np.linspace(0.0, 1.0, 5))
        coefficients = (series.coefficients + (0.0,))[:count]
        with pytest.raises(InputError, match=re.escape(
                "BlochSeries.coefficients must hold 3 entries (lead, "
                f"slope, coh), got {count}")):
            qubit_thermo_trajectory(
                series._replace(coefficients=coefficients))


# (alpha, w0) rows that between them reach every branch of the heat's
# root analysis on the system's side, and every branch but the near-zero
# coordinate on the environment's, whose keep variable starts at 0
BRANCH_ROWS = (
    (0.0, 0.75),  # no initial coherence: coh = 0
    (1.0, 0.75),  # the same at alpha = 1
    (0.75, 0.5625),  # alpha^2 = w0 exactly: slope = 0, q is linear,
    # with its root near k = 0
    (0.6, 1.0),  # zero temperature: a complex root pair
    (1.0 / math.sqrt(2.0), oracles.W0_DEFAULT),  # two real roots, a
    # near one taken by the log of its distance and a far one by log1p
    (0.6, 0.52),  # the system ends nearly maximally mixed: a root near
    # g = 0
    (0.6, 0.5),  # the system ends and the environment starts maximally
    # mixed: a real root at k = 0, where z vanishes, of weight 0
)
NO_COHERENCE, LINEAR, COMPLEX, REAL, NEAR_ZERO, ZERO_WEIGHT = (
    "no coherence", "linear q", "complex pair", "two real roots",
    "near-zero coordinate", "zero-weight root")


def _branches(lead, slope, coh, k0) -> set:
    """The branches of the heat's root analysis that a row takes, from
    its lines ``z = lead + slope k`` and ``q = z^2 + coh k`` in its keep
    variable ``k`` and its start ``k0``. A real root is taken in ``k``
    where it lies inside ``|k| < k0`` and nearer ``k = 0`` than the
    start, and it carries no weight where ``z`` vanishes on it, which
    for ``q = z^2 + coh k`` is at ``k = 0``, where ``lead = 0``."""
    if coh == 0.0:
        return {NO_COHERENCE}
    if slope == 0.0:
        taken, roots = {LINEAR}, [-lead * lead / coh]
    else:
        # b^2 - 4 a c of q = slope^2 k^2 + (2 lead slope + coh) k + lead^2
        disc = coh * coh + 4.0 * slope * lead * coh
        if disc < 0.0:
            return {COMPLEX}
        taken = {REAL}
        roots = np.roots([slope * slope, 2.0 * lead * slope + coh,
                          lead * lead]).real.tolist()
    if any(abs(r) < min(abs(r - k0), k0) for r in roots):
        taken.add(NEAR_ZERO)
    if lead == 0.0:
        taken.add(ZERO_WEIGHT)
    return taken


# the branches each of BRANCH_ROWS takes, by side
BRANCHES = {
    "system": [{NO_COHERENCE}, {NO_COHERENCE}, {LINEAR, NEAR_ZERO},
               {COMPLEX}, {REAL, NEAR_ZERO}, {REAL, NEAR_ZERO},
               {REAL, NEAR_ZERO, ZERO_WEIGHT}],
    "environment": [{NO_COHERENCE}, {NO_COHERENCE}, {LINEAR}, {COMPLEX},
                    {REAL}, {REAL}, {REAL, ZERO_WEIGHT}],
}


def _block_and_rows(side):
    """One Bloch block over :data:`BRANCH_ROWS`, then each of them again
    at a second rate, with its own rate and horizon per row, and the
    series of each row sliced from it. A row and its repeat share their
    coefficients and start on every branch."""
    params = [GadcParams(alpha=a, w0=w0, gamma_rate=0.5 + i)
              for i, (a, w0) in enumerate(BRANCH_ROWS + BRANCH_ROWS)]
    times = np.array([np.linspace(0.0, 3.0 + i, 41)
                      for i in range(len(params))])
    block = SIDES[side](params, times)
    rows = [block._replace(
        times=block.times[i], keep=block.keep[i], step=block.step[i],
        coefficients=tuple(float(np.ravel(c)[i]) if np.ndim(c) else c
                           for c in block.coefficients),
        x2=block.x2[i], radius=block.radius[i],
        populations=block.populations[i]) for i in range(len(params))]
    return block, rows


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


FIELDS = ("times", "work", "heat", "coherent_energy",
          "internal_energy_change", "closure_residual")


class TestBlocks:
    """A block of Bloch series, with ``(R, T)`` arrays, is split in one
    call whose rows are the rows' own splits bit for bit."""

    def test_rows_reach_every_branch(self):
        n = len(BRANCH_ROWS)
        for side, branches in BRANCHES.items():
            block, _ = _block_and_rows(side)
            table = np.column_stack(
                [np.broadcast_to(c, (2 * n, 1)) for c in block.coefficients]
                + [block.keep[:, :1]])
            # each repeat has its row's coefficients and start, bit for bit
            assert table[n:].tobytes() == table[:n].tobytes()
            assert [_branches(*row) for row in table[:n].tolist()] \
                == branches, side
            # the system ends and the environment starts at z = lead,
            # maximally mixed at w0 = 0.5
            lead = table[:n, 0]
            assert lead[6] == 0.0 and 0.0 < lead[5] < 0.05

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_block_equals_rows(self, side):
        block, rows = _block_and_rows(side)
        whole = qubit_thermo_trajectory(block)
        assert whole.heat.shape == block.times.shape
        for i, row in enumerate(rows):
            alone = qubit_thermo_trajectory(row)
            for field in FIELDS:
                assert _same_bits(getattr(whole, field)[i],
                                  getattr(alone, field)), (i, field)
        assert whole.max_closure_residual == max(
            qubit_thermo_trajectory(row).max_closure_residual
            for row in rows)

    def test_signed_zeros_stay_apart(self):
        # z1 = -0.0 and 0.0 compare equal but give heats of opposite
        # zero signs; each row of a block keeps its own
        pr = GadcParams(alpha=1.0, w0=1.0)
        times = np.linspace(0.0, 2.0, 5)
        series = system_bloch(pr, times)
        # the ground state at zero temperature: slope = -2 (0 w0 - 1 w1)
        assert [c.hex() for c in series.coefficients] == [
            (1.0).hex(), (-0.0).hex(), (0.0).hex()]
        signed = system_bloch([pr, pr], times)._replace(
            coefficients=(1.0, np.array([[-0.0], [0.0]]), 0.0))
        whole = qubit_thermo_trajectory(signed)
        for i, z1 in enumerate((-0.0, 0.0)):
            alone = qubit_thermo_trajectory(series._replace(
                coefficients=(1.0, z1, 0.0)))
            for field in FIELDS:
                assert _same_bits(getattr(whole, field)[i],
                                  getattr(alone, field)), (i, field)
        assert (np.signbit(whole.heat[0]) != np.signbit(whole.heat[1])).all()

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_block_of_one_is_the_series(self, side):
        pr = default_params()
        times = np.linspace(0.0, 10.0, 101)
        series = qubit_thermo_trajectory(SIDES[side](pr, times))
        block = qubit_thermo_trajectory(SIDES[side](pr, times[None, :]))
        for field in FIELDS:
            assert getattr(block, field).shape == (1, 101)
            assert _same_bits(getattr(block, field)[0],
                              getattr(series, field)), field

    def test_closure_gate_names_the_worst_row(self):
        # rows 2 and 4 carry the same wrong slope, which row 4's longer
        # horizon turns into the larger residual; the block's message is
        # the one row 4's own series raises, not row 2's
        block, rows = _block_and_rows("system")
        lead, slope, coh = block.coefficients
        wrong = np.zeros_like(slope)
        wrong[[2, 4]] = 1e-3
        messages = []
        for i in (2, 4):
            with pytest.raises(NumericalError) as alone:
                qubit_thermo_trajectory(rows[i]._replace(coefficients=(
                    rows[i].coefficients[0], rows[i].coefficients[1] + 1e-3,
                    *rows[i].coefficients[2:])))
            messages.append(str(alone.value))
        with pytest.raises(NumericalError) as together:
            qubit_thermo_trajectory(
                block._replace(coefficients=(lead, slope + wrong, coh)))
        assert messages[0] != messages[1]
        assert str(together.value) == messages[1]
        assert "Bloch coefficients disagree" in str(together.value)

    @pytest.mark.parametrize("times", [
        np.zeros((2, 1)), np.zeros((2, 3, 4)), np.array([[0.0, 1.0],
                                                         [1.0, 0.5]])])
    def test_block_grid_checked(self, times):
        series = system_bloch(default_params(), np.linspace(0.0, 1.0, 5))
        with pytest.raises(InputError, match="times must"):
            qubit_thermo_trajectory(series._replace(times=times))


def _sums_after_start(params, times):
    """``Q_S + Q_E`` and ``S_S + S_E`` on ``times`` without ``t = 0``."""
    bloch_s = system_bloch(params, times)
    bloch_e = environment_bloch(params, times)
    heat = (qubit_thermo_trajectory(bloch_s).heat
            + qubit_thermo_trajectory(bloch_e).heat)
    entropy = bloch_entropies(bloch_s.radius) + bloch_entropies(bloch_e.radius)
    return heat[1:], entropy[1:]


class TestDecaySymmetry:
    """The environment's Bloch lines are the system's with g -> 1 - g,
    g = exp(-gamma t). So the heat asymmetry A(g) = Q_S + Q_E, the
    integral of an integrand odd about g = 1/2 from g = 1, and the
    entropy sum S_S + S_E both take the same value at g and at 1 - g:
    they depend on g only through u = g (1 - g), as the negativity
    does."""

    def test_heat_and_entropy_sums_symmetric(self, rng):
        configs = [(rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-3.0, 2.0))
                   for _ in range(300)]
        w0 = 1.0 / (1.0 + math.exp(-1.0))
        configs += [(0.3, math.inf), (0.0, 1.0), (1.0, 1.0),
                    (math.sqrt(w0), 1.0), (1.0, math.inf)]
        worst_heat = worst_entropy = 0.0
        for alpha, beta in configs:
            pr = GadcParams.from_inverse_temperature(alpha, beta)
            g = np.sort(rng.uniform(0.0, 1.0, 50))[::-1]
            # each grid starts at t = 0, g = 1, where the heat is zero
            heat, entropy = _sums_after_start(
                pr, np.concatenate([[0.0], -np.log(g)]))
            mirror_heat, mirror_entropy = _sums_after_start(
                pr, np.concatenate([[0.0], -np.log1p(-g[::-1])]))
            worst_heat = max(worst_heat, float(np.max(np.abs(
                heat - mirror_heat[::-1]))))
            worst_entropy = max(worst_entropy, float(np.max(np.abs(
                entropy - mirror_entropy[::-1]))))
        assert worst_heat <= 1e-14
        assert worst_entropy <= 1e-13

    def test_heat_asymmetry_stationary_at_half_decay(self, rng):
        # each heat is the integral of f = (E0 - E1)/2 z q' / (2 q) in
        # its marginal's keep variable k, with z = lead + slope k and
        # q = z^2 + coh k from its Bloch coefficients; the environment
        # keeps d = 1 - g, dd/dg = -1, so dA/dg = f_S(g) - f_E(1 - g),
        # which vanishes at g = 1/2, gamma t = ln 2, where the negativity
        # peaks
        e0, e1 = QUBIT_HAMILTONIAN.real.diagonal()

        def integrand(coefficients, k):
            lead, slope, coh = coefficients
            z = lead + slope * k
            q = z * z + coh * k
            return 0.5 * (e0 - e1) * z * (2.0 * z * slope + coh) / (2.0 * q)

        configs = [(rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.0))
                   for _ in range(2000)]
        configs += [(rng.uniform(0.0, 1.0), 1.0) for _ in range(20)]
        configs += [(alpha, rng.uniform(0.5, 1.0))
                    for alpha in (0.0, 1.0) for _ in range(20)]
        configs += [(math.sqrt(w0), w0) for w0 in rng.uniform(0.5, 1.0, 20)]
        for alpha, w0 in configs:
            pr = GadcParams(alpha=float(alpha), w0=float(w0))
            f_s = integrand(system_bloch(pr, 0.0).coefficients, 0.5)
            f_e = -integrand(environment_bloch(pr, 0.0).coefficients,
                             1.0 - 0.5)
            assert abs(f_s + f_e) <= 1e-14 * (abs(f_s) + abs(f_e))
