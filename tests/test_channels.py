"""Channel construction, closed-form states, and route consistency."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
import strongcouple
from strongcouple import channels
from strongcouple.channels import (QUBIT_HAMILTONIAN, GadcParams,
                                   KrausChannel, apply_channel,
                                   environment_bloch,
                                   environment_initial_state,
                                   environment_kraus, environment_state,
                                   environment_states, gadc_coupling_matrix,
                                   gadc_unitary, iterate_map_check,
                                   joint_initial_state,
                                   joint_negativities_closed_form,
                                   joint_radii_closed_form, joint_state,
                                   joint_state_closed_form, joint_states,
                                   joint_states_closed_form, p_of_t,
                                   system_bloch, system_initial_state,
                                   system_kraus, system_state,
                                   system_state_from_dilation, system_states)
from strongcouple.errors import InputError, NumericalError
from strongcouple.infomeasures import negativities
from strongcouple.spectra import (DensityOperator, eig_hermitian,
                                  partial_trace)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def default_params(**overrides):
    base = dict(alpha=1.0 / math.sqrt(2.0), w0=0.7310585786300049)
    base.update(overrides)
    return GadcParams(**base)


class TestGadcParams:
    @pytest.mark.parametrize("field,value", [
        ("alpha", -0.1), ("alpha", 1.1),
        ("w0", -0.1), ("w0", 1.0001),
        ("gamma_rate", 0.0), ("gamma_rate", -1.0),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(InputError):
            default_params(**{field: value})

    @pytest.mark.parametrize("overrides", [
        {"gamma_rate": math.inf},
        {"gamma_rate": math.nan},
    ], ids=["rate_inf", "rate_nan"])
    def test_rejects_non_finite(self, overrides):
        with pytest.raises(InputError):
            default_params(**overrides)

    def test_thermal_weight(self):
        pr = GadcParams.from_inverse_temperature(alpha=0.5, beta=1.0)
        assert abs(pr.w0 - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15
        assert pr.w1 == 1.0 - pr.w0

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(GadcParams)] \
            == ["alpha", "w0", "gamma_rate"]

    def test_zero_temperature(self):
        pr = GadcParams.from_inverse_temperature(alpha=0.5, beta=math.inf)
        assert pr.w0 == 1.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(InputError):
            GadcParams.from_inverse_temperature(alpha=0.5, beta=0.0)


class TestKrausChannel:
    def test_rejects_incomplete_set(self):
        with pytest.raises(InputError):
            KrausChannel(operators=(0.5 * np.eye(2),))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(InputError):
            KrausChannel(operators=(np.eye(2), np.eye(3)))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            KrausChannel(operators=())

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(KrausChannel)] \
            == ["operators", "label"]

    def test_completeness_random_params(self, rng):
        for _ in range(25):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)))
            p = float(rng.uniform(0, 1))
            for channel in (system_kraus(pr, p), environment_kraus(pr, p)):
                total = sum(k.conj().T @ k for k in channel.operators)
                assert np.max(np.abs(total - np.eye(2))) < 1e-14

    @pytest.mark.parametrize("builder", [system_kraus, environment_kraus])
    @pytest.mark.parametrize("p", [-0.2, 2.0, math.nan])
    def test_builders_reject_bad_p(self, builder, p):
        with pytest.raises(InputError, match="p must lie in"):
            builder(default_params(), p)


class TestDilationMatrices:
    def test_unitary_for_all_p(self):
        for p in np.linspace(0.0, 1.0, 100):
            u = gadc_unitary(p)
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-14

    def test_identity_at_zero(self):
        assert np.array_equal(gadc_unitary(0.0), np.eye(4))
        assert np.array_equal(gadc_coupling_matrix(0.0), np.eye(4))

    def test_swap_at_one(self):
        assert np.max(np.abs(gadc_coupling_matrix(1.0) - SWAP)) == 0.0
        assert np.max(np.abs(np.abs(gadc_unitary(1.0)) - SWAP)) < 1e-15

    def test_coupling_matrix_not_unitary_inside(self):
        m = gadc_coupling_matrix(0.5)
        dev = np.max(np.abs(m @ m.conj().T - np.eye(4)))
        assert abs(dev - 1.0) < 1e-12
        assert np.max(np.abs(m - m.T)) == 0.0

    def test_coupling_matrix_stack(self):
        stack = gadc_coupling_matrix(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(stack, [gadc_coupling_matrix(p)
                                      for p in (0.0, 0.5, 1.0)])

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_bad_p(self, p):
        with pytest.raises(InputError):
            gadc_unitary(p)
        with pytest.raises(InputError):
            gadc_coupling_matrix(p)


class TestDecayProbability:
    def test_values(self):
        assert p_of_t(1.0, 0.0) == 0.0
        assert abs(p_of_t(1.0, 1.0) - (1.0 - math.exp(-1.0))) < 1e-15
        assert abs(p_of_t(2.0, 0.5) - p_of_t(1.0, 1.0)) < 1e-15

    def test_rejects_negative_time(self):
        with pytest.raises(InputError):
            p_of_t(1.0, -0.5)

    def test_rejects_nan_time(self):
        with pytest.raises(InputError, match="nan"):
            p_of_t(1.0, math.nan)


class TestClosedFormStates:
    def test_initial_states(self):
        pr = default_params()
        rho_s = system_state(pr, 0.0).matrix
        assert np.max(np.abs(rho_s - system_initial_state(pr).matrix)) < 1e-15
        rho_e = environment_state(pr, 0.0).matrix
        assert np.max(np.abs(rho_e
                             - environment_initial_state(pr).matrix)) < 1e-15

    def test_system_relaxes_to_thermal(self):
        pr = default_params()
        rho = system_state(pr, 60.0).matrix
        assert np.max(np.abs(rho - np.diag([pr.w0, pr.w1]))) < 1e-12

    def test_rejects_negative_time(self):
        with pytest.raises(InputError):
            system_state(default_params(), -1.0)

    def test_three_routes_agree(self, rng):
        for _ in range(20):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)))
            p = float(rng.uniform(0, 0.999))
            t = -math.log1p(-p)
            via_kraus = apply_channel(system_kraus(pr, p),
                                      system_initial_state(pr)).matrix
            via_dilation = system_state_from_dilation(pr, p).matrix
            via_closed = system_state(pr, t).matrix
            assert np.max(np.abs(via_kraus - via_dilation)) < 1e-12
            assert np.max(np.abs(via_kraus - via_closed)) < 1e-12

    @pytest.mark.parametrize("single, stack", [
        (system_state, system_states),
        (environment_state, environment_states),
        (joint_state, joint_states),
        (joint_state_closed_form, joint_states_closed_form),
    ])
    def test_stacks_match_single_instants(self, single, stack):
        pr = default_params()
        grid = np.linspace(0.0, 8.0, 17)
        states = stack(pr, grid)
        assert states.shape[0] == grid.size
        for t, m in zip(grid, states):
            assert np.array_equal(m, single(pr, t).matrix)
        with pytest.raises(InputError):
            stack(pr, np.array([0.0, -1.0]))

    def test_environment_kraus_populations(self):
        pr = default_params()
        out = apply_channel(environment_kraus(pr, 0.4),
                            environment_initial_state(pr)).matrix
        ref = environment_state(pr, -math.log1p(-0.4)).matrix
        assert abs(out[0, 0] - ref[0, 0]) < 1e-12
        assert abs(out[1, 1] - ref[1, 1]) < 1e-12


class TestJointFamilies:
    def test_unitary_family_spectrum_constant(self):
        pr = default_params()
        lam0 = eig_hermitian(joint_initial_state(pr)).eigenvalues
        for t in (0.1, 1.0, 5.0, 10.0):
            lam = eig_hermitian(joint_state(pr, t)).eigenvalues
            assert np.max(np.abs(lam - lam0)) < 1e-13

    def test_unitary_family_system_marginal(self):
        pr = default_params()
        for t in (0.0, 0.3, 2.0, 8.0):
            red = partial_trace(joint_state(pr, t), keep=0, dims=(2, 2))
            ref = system_state(pr, t).matrix
            assert np.max(np.abs(red.matrix - ref)) < 1e-13

    def test_closed_form_family_both_marginals(self):
        pr = default_params()
        for t in (0.0, 0.3, 2.0, 8.0):
            joint = joint_state_closed_form(pr, t)
            red_s = partial_trace(joint, keep=0, dims=(2, 2)).matrix
            red_e = partial_trace(joint, keep=1, dims=(2, 2)).matrix
            assert np.max(np.abs(red_s - system_state(pr, t).matrix)) < 1e-13
            assert np.max(np.abs(red_e
                                 - environment_state(pr, t).matrix)) < 1e-13

    def test_closed_form_family_is_coupling_conjugation(self):
        pr = default_params()
        for t in (0.2, 1.0, 4.0):
            m = gadc_coupling_matrix(p_of_t(pr.gamma_rate, t))
            direct = m @ joint_initial_state(pr).matrix @ m.conj().T
            ref = joint_state_closed_form(pr, t).matrix
            assert np.max(np.abs(direct - ref)) < 1e-14

    def test_families_share_diagonal(self):
        pr = default_params()
        a = joint_state(pr, 1.3).matrix
        b = joint_state_closed_form(pr, 1.3).matrix
        assert np.max(np.abs(np.diag(a) - np.diag(b))) < 1e-14


class TestBlochSeries:
    @pytest.mark.parametrize("bloch, states", [
        (system_bloch, system_states),
        (environment_bloch, environment_states),
    ], ids=["system", "environment"])
    def test_components_match_matrices(self, rng, bloch, states):
        grid = np.linspace(0.0, 6.0, 25)
        for _ in range(20):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)),
                            gamma_rate=float(rng.uniform(0.1, 3.0)))
            series = bloch(pr, grid)
            z0, z1, _, _ = series.coefficients
            m = states(pr, grid)
            z = (m[:, 0, 0] - m[:, 1, 1]).real
            x = 2.0 * m[:, 0, 1].real
            assert np.max(np.abs(z0 + z1 * series.decay - z)) < 1e-14
            assert np.max(np.abs(series.x2 - x * x)) < 1e-14
            assert np.max(np.abs(series.radius
                                 - np.hypot(z, x))) < 1e-14
            assert np.array_equal(series.decay, np.exp(-pr.gamma_rate * grid))
            assert np.max(np.abs(series.matrices - m)) == 0.0

    def test_lines_in_decay_factor(self):
        pr = default_params()
        series = environment_bloch(pr, np.linspace(0.0, 3.0, 7))
        z0, z1, c0, c1 = series.coefficients
        z = z0 + z1 * series.decay
        assert np.max(np.abs(series.radius
                             - np.sqrt(z * z + c0 + c1 * series.decay))) \
            < 1e-15
        # the environment starts thermal and without coherence
        assert series.x2[0] == 0.0
        assert abs(z[0] - (2.0 * pr.w0 - 1.0)) < 1e-15

    def test_no_eigensolve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Bloch series must not diagonalize")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        pr = default_params()
        grid = np.linspace(0.0, 5.0, 11)
        system_bloch(pr, grid)
        environment_bloch(pr, grid)
        joint_states_closed_form(pr, grid)

    def test_rejects_negative_time(self):
        with pytest.raises(InputError):
            system_bloch(default_params(), np.array([0.0, -1.0]))


class TestJointRadii:
    def test_match_joint_spectrum(self, rng):
        grid = np.linspace(0.0, 8.0, 33)
        for _ in range(20):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)))
            lam = np.linalg.eigvalsh(joint_states_closed_form(pr, grid))
            radius = joint_radii_closed_form(pr, grid)
            expected = np.column_stack([np.zeros_like(grid),
                                        np.zeros_like(grid),
                                        0.5 * (1.0 - radius),
                                        0.5 * (1.0 + radius)])
            assert np.max(np.abs(np.sort(lam, axis=1)
                                 - np.sort(expected, axis=1))) < 1e-14


class TestJointNegativities:
    """The closed-form root of the partial transpose's quartic."""

    def test_matches_eigensolve_route(self, rng):
        grid = np.linspace(0.0, 8.0, 161)
        cases = [default_params(), default_params(w0=1.0),
                 default_params(gamma_rate=50.0), default_params(alpha=0.0),
                 default_params(alpha=1.0)]
        cases += [GadcParams(alpha=float(rng.uniform(0, 1)),
                             w0=float(rng.uniform(0, 1)),
                             gamma_rate=float(rng.uniform(0.1, 5.0)))
                  for _ in range(20)]
        for pr in cases:
            eigen = negativities(joint_states_closed_form(pr, grid))
            closed = joint_negativities_closed_form(pr, grid)
            assert np.max(np.abs(closed - eigen)) <= 1e-14

    @pytest.mark.parametrize("overrides,t", [
        # zero temperature: N grows as sqrt(u) from t = 0
        ({"w0": 1.0}, 1e-12), ({"w0": 1.0}, 0.3), ({"w0": 1.0}, 5.0),
        ({"gamma_rate": 50.0}, 0.001), ({"gamma_rate": 50.0}, 0.2),
        ({"alpha": 0.0}, 0.1), ({"alpha": 0.0}, 1.0),
        ({"alpha": 1.0}, 0.1), ({"alpha": 1.0}, 1.0),
        # alpha^2 = w0 to round-off: D = 0, so N is zero to 1e-17
        ({"alpha": math.sqrt(0.7310585786300049)}, 0.5),
        ({}, math.log(2.0)),
    ])
    def test_absolute_accuracy(self, overrides, t):
        pytest.importorskip("mpmath")
        pr = default_params(**overrides)
        exact = oracles.negativity_exact(pr.alpha, pr.w0, pr.gamma_rate, t)
        closed = joint_negativities_closed_form(pr, [t])[0]
        assert abs(closed - exact) <= 1e-15

    @pytest.mark.parametrize("t", [40.0, 1e-9])
    def test_relative_accuracy_where_tiny(self, t):
        # at t = 40 the negativity is 1.8e-18, below the eigensolve's
        # absolute round-off; at gamma t = 1e-9 it needs 1 - exp(-gamma t)
        # to full relative precision
        pytest.importorskip("mpmath")
        pr = default_params()
        exact = oracles.negativity_exact(pr.alpha, pr.w0, pr.gamma_rate, t)
        closed = joint_negativities_closed_form(pr, [t])[0]
        assert exact > 0.0
        assert abs(closed - exact) <= 1e-12 * exact

    def test_zero_where_u_d_vanishes(self):
        # D = 0 at alpha^2 = w0 and at alpha = 1 with w0 = 1; u = 0 at t = 0
        grid = np.linspace(0.0, 5.0, 21)
        for pr in (default_params(alpha=0.5, w0=0.25),
                   default_params(alpha=1.0, w0=1.0)):
            assert np.all(joint_negativities_closed_form(pr, grid) == 0.0)
        assert joint_negativities_closed_form(default_params(), [0.0])[0] \
            == 0.0

    def test_symmetric_under_g_to_one_minus_g(self, rng):
        grid = np.linspace(0.01, 6.0, 200)
        for _ in range(10):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)),
                            gamma_rate=float(rng.uniform(0.1, 5.0)))
            # exp(-gamma t') = 1 - exp(-gamma t)
            mirror = -np.log(-np.expm1(-pr.gamma_rate * grid)) / pr.gamma_rate
            assert np.max(np.abs(joint_negativities_closed_form(pr, grid)
                                 - joint_negativities_closed_form(pr, mirror))
                          ) <= 1e-14

    def test_nondecreasing_in_u_and_peaks_at_ln2(self, rng):
        # u = g (1 - g) rises from 0 to 1/4 as gamma t goes from 0 to ln 2
        for _ in range(200):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)))
            rising = joint_negativities_closed_form(
                pr, np.linspace(0.0, math.log(2.0), 101))
            assert np.all(np.diff(rising) >= 0.0)
            grid = np.linspace(0.0, 4.0 * math.log(2.0), 401)
            neg = joint_negativities_closed_form(pr, grid)
            if neg[100] > 0.0:
                assert neg[100] == np.max(neg)

    def test_no_eigensolve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form must not diagonalize")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        joint_negativities_closed_form(default_params(),
                                       np.linspace(0.0, 5.0, 11))

    def test_convergence_gate_names_itself(self, monkeypatch):
        # one Newton step from the lower bound is far from the root
        monkeypatch.setattr(channels, "_NEGATIVITY_NEWTON_STEPS", 1)
        grid = np.linspace(0.0, 5.0, 11)
        with pytest.raises(NumericalError,
                           match=r"negativity Newton convergence: last step "
                                 r"\S+ of the root exceeds 1e-12 relative "
                                 r"at t = \S+") as info:
            joint_negativities_closed_form(default_params(), grid)
        t = float(str(info.value).rsplit("= ", 1)[1])
        assert t in grid

    def test_rejects_negative_time(self):
        with pytest.raises(InputError):
            joint_negativities_closed_form(default_params(), [0.0, -1.0])

    def test_rejects_nan_time(self):
        # a NaN time is an input error, not a failed Newton iteration
        with pytest.raises(InputError, match="time must be nonnegative, "
                                             "got nan"):
            joint_negativities_closed_form(default_params(), [math.nan])


class TestDecayInput:
    """Times enter every closed form through one NaN-safe check."""

    def test_joint_radii_reject_nan_time(self):
        with pytest.raises(InputError, match="time must be nonnegative, "
                                             "got nan"):
            joint_radii_closed_form(default_params(), [math.nan, 1.0])

    @pytest.mark.parametrize("closed_form", [
        system_states, joint_states_closed_form, joint_radii_closed_form,
        joint_negativities_closed_form,
    ])
    def test_infinite_time_is_the_thermal_limit(self, closed_form):
        pr = default_params()
        assert np.array_equal(closed_form(pr, [math.inf]),
                              closed_form(pr, [1e3]))


class TestIterateMap:
    def test_single_step_matches_channel(self):
        pr = default_params()
        single = iterate_map_check(pr, 0.5, 1).matrix
        ref = apply_channel(system_kraus(pr, 0.5),
                            system_initial_state(pr)).matrix
        assert np.max(np.abs(single - ref)) < 1e-14

    @pytest.mark.parametrize("n_steps", [1, 10])
    def test_equals_channel_composition_bitwise(self, n_steps):
        pr = default_params()
        step = system_kraus(pr, pr.gamma_rate * 1.0 / n_steps)
        rho = system_initial_state(pr)
        for _ in range(n_steps):
            rho = apply_channel(step, rho)
        assert np.array_equal(iterate_map_check(pr, 1.0, n_steps).matrix,
                              rho.matrix)

    def test_first_order_convergence(self):
        pr = default_params()
        target = system_state(pr, 1.0).matrix
        devs = [np.max(np.abs(iterate_map_check(pr, 1.0, n).matrix - target))
                for n in (10, 100, 1000)]
        assert devs[0] > devs[1] > devs[2]
        assert 8.0 < devs[0] / devs[1] < 13.0
        assert 8.0 < devs[1] / devs[2] < 13.0

    def test_rejects_bad_steps(self):
        with pytest.raises(InputError):
            iterate_map_check(default_params(), 1.0, 0)
        with pytest.raises(InputError):
            iterate_map_check(default_params(gamma_rate=3.0), 1.0, 2)

    def test_rejects_nan_time(self):
        # named as a time, not as a bad per-step probability
        with pytest.raises(InputError, match="time must be nonnegative"):
            iterate_map_check(default_params(), math.nan, 10)


class TestOperators:
    def test_hamiltonians(self):
        assert np.array_equal(QUBIT_HAMILTONIAN, np.diag([0.0, 1.0]))
        assert QUBIT_HAMILTONIAN.dtype == complex
        with pytest.raises(ValueError):
            QUBIT_HAMILTONIAN[1, 1] = 2.0
        # the package namespace lists functions and classes only
        assert "QUBIT_HAMILTONIAN" not in strongcouple.__all__

    def test_apply_channel_dimension_mismatch(self):
        channel = system_kraus(default_params(), 0.0)
        with pytest.raises(InputError):
            apply_channel(channel, DensityOperator(np.eye(4) / 4.0))
