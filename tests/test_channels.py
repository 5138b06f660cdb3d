"""Channel construction, closed-form states, and route consistency."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import oracles
import strongcouple
from strongcouple import channels
from strongcouple.channels import (QUBIT_HAMILTONIAN, GadcParams,
                                   apply_channel, environment_bloch,
                                   environment_initial_state,
                                   environment_kraus, environment_states,
                                   gadc_coupling_matrix, gadc_unitary,
                                   iterate_map_check, joint_initial_state,
                                   joint_negativities_closed_form,
                                   joint_radii_closed_form, joint_states,
                                   joint_states_closed_form, system_bloch,
                                   system_initial_state, system_kraus,
                                   system_state_from_dilation, system_states)
from strongcouple.errors import InputError, NumericalError
from strongcouple.infomeasures import negativities
from strongcouple.spectra import partial_trace

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)
EPS = np.finfo(float).eps


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

    @pytest.mark.parametrize("field", ["alpha", "w0", "gamma_rate"])
    def test_rejects_integer_beyond_float_range(self, field):
        # named where the parameters are built, not left to an
        # OverflowError of the closed forms
        with pytest.raises(InputError, match=f"{field} must be a real "
                                             "number in the float range"):
            default_params(**{field: 10 ** 400})

    def test_rejects_beta_beyond_float_range(self):
        with pytest.raises(InputError, match="beta must be a real number "
                                             "in the float range"):
            GadcParams.from_inverse_temperature(0.5, 10 ** 400)

    def test_fields_converted_to_float(self):
        pr = GadcParams(alpha=1, w0=0, gamma_rate=2)
        assert [type(v) for v in dataclasses.astuple(pr)] == [float] * 3
        with pytest.raises(InputError, match="w0 must be a real number"):
            GadcParams(alpha=0.5, w0="0.5")


QUBIT = np.eye(2) / 2.0


class TestKrausChannel:
    """What :func:`apply_channel` checks of the operators it is given."""

    def test_rejects_incomplete_set(self):
        with pytest.raises(InputError, match="completeness"):
            apply_channel((0.5 * np.eye(2),), QUBIT)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(InputError, match="expected a numeric array of "
                                             "Kraus operators"):
            apply_channel((np.eye(2), np.eye(3)), QUBIT)

    @pytest.mark.parametrize("operators", ["abc", lambda k: k],
                             ids=["text", "callable"])
    def test_rejects_non_numeric(self, operators):
        with pytest.raises(InputError, match="expected a numeric array of "
                                             "Kraus operators"):
            apply_channel(operators, QUBIT)

    def test_rejects_empty(self):
        with pytest.raises(InputError, match="at least one"):
            apply_channel((), QUBIT)

    @pytest.mark.parametrize("operator", [1.0, np.array([1.0, 0.0]),
                                          np.ones((2, 3))],
                             ids=["scalar", "1d", "non_square"])
    def test_rejects_non_square_operator(self, operator):
        # named as a shape problem, not an IndexError from the shape tuple
        with pytest.raises(InputError, match="square matrices"):
            apply_channel((operator,), QUBIT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan)],
                             ids=["nan", "inf", "-inf", "imag_nan"])
    def test_rejects_non_finite_operators(self, bad):
        # named as the operators' fault before any product, so no
        # RuntimeWarning and no blame on the state
        ops = system_kraus(default_params(), 0.3)
        ops[2, 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError,
                               match="Kraus operators have non-finite"):
                apply_channel(ops, QUBIT)

    def test_rejects_overflowing_operators_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="completeness"):
                apply_channel(np.full((1, 2, 2), 1e200), QUBIT)

    def test_completeness_random_params(self, rng):
        for _ in range(25):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)))
            p = float(rng.uniform(0, 1))
            for ops in (system_kraus(pr, p), environment_kraus(pr, p)):
                assert ops.dtype == complex
                total = sum(k.conj().T @ k for k in ops)
                assert np.max(np.abs(total - np.eye(2))) < 1e-14

    @pytest.mark.parametrize("builder", [system_kraus, environment_kraus])
    @pytest.mark.parametrize("p", [-0.2, 2.0, math.nan])
    def test_builders_reject_bad_p(self, builder, p):
        with pytest.raises(InputError, match="p must lie in"):
            builder(default_params(), p)


def _draws(rng, n=40):
    """Random ``(params, p)`` draws with the edges alpha, w0, p in {0, 1}."""
    draws = [(GadcParams(alpha=a, w0=w0), p)
             for a in (0.0, 1.0) for w0 in (0.0, 1.0) for p in (0.0, 1.0)]
    draws += [(GadcParams(alpha=float(rng.uniform(0, 1)),
                          w0=float(rng.uniform(0, 1))),
               float(rng.uniform(0, 1))) for _ in range(n)]
    return draws


def _as_columns(draws):
    params, ps = zip(*draws)
    return channels._columns(params), np.array(ps)[:, None]


class TestStackedKraus:
    """A stack of draws gives each draw the numbers it gives alone."""

    def test_single_draw_is_the_textbook_operators_bitwise(self, rng):
        for pr, p in _draws(rng):
            sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
            w0, w1 = math.sqrt(pr.w0), math.sqrt(pr.w1)
            a, b = pr.alpha, pr.beta_amp
            system = [w0 * np.array([[1, 0], [0, sq]], dtype=complex),
                      w0 * np.array([[0, sp], [0, 0]], dtype=complex),
                      w1 * np.array([[0, 0], [sp, 0]], dtype=complex),
                      w1 * np.array([[sq, 0], [0, 1]], dtype=complex)]
            environment = [np.array([[a, 0.0], [1j * sp * b, sq * a]]),
                           np.array([[sq * b, 1j * sp * a], [0.0, b]])]
            assert np.array_equal(system_kraus(pr, p), system)
            assert np.array_equal(environment_kraus(pr, p),
                                  environment)

    @pytest.mark.parametrize("builder, count", [(system_kraus, 4),
                                                (environment_kraus, 2)])
    def test_stack_equals_single_draws_bitwise(self, rng, builder, count):
        draws = _draws(rng)
        stacked = builder(*_as_columns(draws))
        assert stacked.shape == (len(draws), 1, count, 2, 2)
        for row, (pr, p) in zip(stacked[:, 0], draws):
            assert np.array_equal(row, builder(pr, p))

    def test_one_set_broadcasts_over_an_array_of_p(self):
        pr = default_params()
        ps = np.linspace(0.0, 1.0, 7)
        stacked = system_kraus(pr, ps)
        assert stacked.shape == (7, 4, 2, 2)
        for row, p in zip(stacked, ps):
            assert np.array_equal(row, system_kraus(pr, p))

    def test_completeness_checked_per_channel(self):
        ops = np.stack([system_kraus(default_params(), 0.3)] * 3)
        apply_channel(ops, QUBIT)
        ops[1, 0] *= 1.0 + 1e-6
        with pytest.raises(InputError, match="completeness"):
            apply_channel(ops, QUBIT)

    def test_apply_channel_stack_equals_per_state_bitwise(self, rng,
                                                          random_density):
        draws = _draws(rng)
        states = np.array([random_density(2) for _ in draws])
        params, p = _as_columns(draws)
        for builder in (system_kraus, environment_kraus):
            # one channel per draw, each on its own state
            out = apply_channel(builder(params, p), states[:, None])
            for row, (pr, pd), rho in zip(out[:, 0], draws, states):
                assert np.array_equal(row, apply_channel(builder(pr, pd),
                                                         rho))
            # one channel on the whole stack of states
            channel = builder(*draws[-1])
            out = apply_channel(channel, states)
            for row, rho in zip(out, states):
                assert np.array_equal(row, apply_channel(channel, rho))

    @pytest.mark.parametrize("n_steps", [1, 10, 1000])
    def test_iterate_map_within_round_off_of_the_kraus_loop(self, rng,
                                                            n_steps):
        # the reference is the arithmetic of one operator at a time: each
        # step sums K rho K^+ over the operators in order, then takes the
        # Hermitian average; the final state is averaged once more. The
        # transfer-matrix power groups the same products differently, so
        # it agrees to a round-off bound that grows with the step count
        # (at most about 0.5 n eps over 40 random draws, n = 10 to 3000)
        for pr, _ in _draws(rng, n=4):
            ops = system_kraus(pr, pr.gamma_rate * 0.8 / n_steps)
            m = system_initial_state(pr)
            for _ in range(n_steps):
                out = sum(k @ m @ k.conj().T for k in ops)
                m = (out + out.conj().T) / 2
            m = (m + m.conj().T) / 2
            gap = np.max(np.abs(iterate_map_check(pr, 0.8, n_steps) - m))
            assert gap <= 4 * n_steps * EPS


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


class TestClosedFormStates:
    def test_initial_states(self):
        pr = default_params()
        rho_s = system_states(pr, 0.0)
        assert np.max(np.abs(rho_s - system_initial_state(pr))) < 1e-15
        rho_e = environment_states(pr, 0.0)
        assert np.max(np.abs(rho_e - environment_initial_state(pr))) < 1e-15

    def test_system_relaxes_to_thermal(self):
        pr = default_params()
        rho = system_states(pr, 60.0)
        assert np.max(np.abs(rho - np.diag([pr.w0, pr.w1]))) < 1e-12

    def test_rejects_negative_time(self):
        with pytest.raises(InputError):
            system_states(default_params(), -1.0)

    def test_three_routes_agree(self, rng):
        for _ in range(20):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)))
            p = float(rng.uniform(0, 0.999))
            t = -math.log1p(-p)
            via_kraus = apply_channel(system_kraus(pr, p),
                                      system_initial_state(pr))
            via_dilation = system_state_from_dilation(pr, p)
            via_closed = system_states(pr, t)
            assert np.max(np.abs(via_kraus - via_dilation)) < 1e-12
            assert np.max(np.abs(via_kraus - via_closed)) < 1e-12

    def test_environment_kraus_populations(self):
        pr = default_params()
        out = apply_channel(environment_kraus(pr, 0.4),
                            environment_initial_state(pr))
        ref = environment_states(pr, -math.log1p(-0.4))
        assert abs(out[0, 0] - ref[0, 0]) < 1e-12
        assert abs(out[1, 1] - ref[1, 1]) < 1e-12


class TestJointFamilies:
    def test_unitary_family_spectrum_constant(self):
        pr = default_params()
        lam0 = np.linalg.eigvalsh(joint_initial_state(pr))
        lam = np.linalg.eigvalsh(joint_states(pr, [0.1, 1.0, 5.0, 10.0]))
        assert np.max(np.abs(lam - lam0)) < 1e-13

    def test_unitary_family_system_marginal(self):
        pr = default_params()
        for t in (0.0, 0.3, 2.0, 8.0):
            red = partial_trace(joint_states(pr, t), keep=0)
            ref = system_states(pr, t)
            assert np.max(np.abs(red - ref)) < 1e-13

    def test_closed_form_family_both_marginals(self):
        pr = default_params()
        for t in (0.0, 0.3, 2.0, 8.0):
            joint = joint_states_closed_form(pr, t)
            red_s = partial_trace(joint, keep=0)
            red_e = partial_trace(joint, keep=1)
            assert np.max(np.abs(red_s - system_states(pr, t))) < 1e-13
            assert np.max(np.abs(red_e - environment_states(pr, t))) < 1e-13

    def test_closed_form_family_is_coupling_conjugation(self):
        pr = default_params()
        for t in (0.2, 1.0, 4.0):
            m = gadc_coupling_matrix(-math.expm1(-pr.gamma_rate * t))
            direct = m @ joint_initial_state(pr) @ m.conj().T
            ref = joint_states_closed_form(pr, t)
            assert np.max(np.abs(direct - ref)) < 1e-14

    def test_builders_are_the_textbook_products_bitwise(self, rng):
        # the product state is formed without numpy.kron and the dilated
        # state from the unchecked product: both give the bits of the
        # plain constructions, at the edges p in {0, 1} and alpha in
        # {0, 1} and at random interior points
        cases = [(alpha, w0, p) for alpha in (0.0, 1.0)
                 for w0 in (0.0, 0.3, 1.0) for p in (0.0, 1.0)]
        cases += [tuple(rng.uniform(0.0, 1.0, 3)) for _ in range(100)]
        cases += [(float(rng.uniform(0.0, 1.0)), 0.6, p) for p in (0.0, 1.0)]
        cases += [(alpha, float(rng.uniform(0.0, 1.0)), 0.4)
                  for alpha in (0.0, 1.0)]
        for alpha, w0, p in cases:
            pr = GadcParams(alpha=float(alpha), w0=float(w0), gamma_rate=1.7)
            rho0 = np.kron(system_initial_state(pr),
                           environment_initial_state(pr))
            assert np.array_equal(joint_initial_state(pr), rho0)
            t = math.inf if p == 1.0 else -math.log1p(-p) / pr.gamma_rate
            # the decay probability as joint_states forms it from t
            u = gadc_unitary(-np.expm1(-pr.gamma_rate * np.asarray(t)))
            m = u @ rho0 @ u.conj().T
            # the builder returns the Hermitian average of its matrix
            assert np.array_equal(joint_states(pr, t), (m + m.conj().T) / 2)

    def test_families_share_diagonal(self):
        pr = default_params()
        a = joint_states(pr, 1.3)
        b = joint_states_closed_form(pr, 1.3)
        assert np.max(np.abs(np.diag(a) - np.diag(b))) < 1e-14


class TestBlochSeries:
    @pytest.mark.parametrize("bloch, states, keep", [
        (system_bloch, system_states, lambda s: np.exp(-s)),
        (environment_bloch, environment_states, lambda s: -np.expm1(-s)),
    ], ids=["system", "environment"])
    def test_components_match_matrices(self, rng, bloch, states, keep):
        grid = np.linspace(0.0, 6.0, 25)
        for _ in range(20):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)),
                            gamma_rate=float(rng.uniform(0.1, 3.0)))
            series = bloch(pr, grid)
            lead, slope, _ = series.coefficients
            m = states(pr, grid)
            z = (m[:, 0, 0] - m[:, 1, 1]).real
            x = 2.0 * m[:, 0, 1].real
            assert np.max(np.abs(lead + slope * series.keep - z)) < 1e-14
            assert np.max(np.abs(series.x2 - x * x)) < 1e-14
            assert np.max(np.abs(series.radius
                                 - np.hypot(z, x))) < 1e-14
            assert np.array_equal(series.keep, keep(pr.gamma_rate * grid))
            diagonal = np.diagonal(m, axis1=1, axis2=2)
            assert np.max(np.abs(series.populations - diagonal)) == 0.0

    def test_one_coefficient_set_on_two_keep_variables(self, rng):
        # both marginals carry the system's coefficients; the system
        # keeps g, the environment d = 1 - g, and the environment's step
        # is the system's negated, bit for bit
        for _ in range(20):
            pr = GadcParams(alpha=float(rng.uniform(0, 1)),
                            w0=float(rng.uniform(0, 1)),
                            gamma_rate=float(rng.uniform(0.1, 3.0)))
            grid = np.sort(rng.uniform(0.0, 6.0, 9))
            s, e = system_bloch(pr, grid), environment_bloch(pr, grid)
            assert e.coefficients == s.coefficients
            assert len(s.coefficients) == 3
            g, d = np.exp(-pr.gamma_rate * grid), -np.expm1(
                -pr.gamma_rate * grid)
            assert np.array_equal(s.keep, g) and np.array_equal(e.keep, d)
            assert np.array_equal(s.step, g - g[0])
            assert np.array_equal(e.step, -(g - g[0]))

    def test_lines_in_keep_variable(self):
        pr = default_params()
        series = environment_bloch(pr, np.linspace(0.0, 3.0, 7))
        lead, slope, coh = series.coefficients
        z = lead + slope * series.keep
        assert np.max(np.abs(series.radius
                             - np.sqrt(z * z + coh * series.keep))) \
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

    def test_populations_checked_for_unit_trace(self, monkeypatch):
        populations = channels._qubit_populations
        monkeypatch.setattr(
            channels, "_qubit_populations",
            lambda params, keep, lose: 1.1 * populations(params, keep, lose))
        with pytest.raises(InputError, match=r"trace 1\.1 differs from 1 by "
                                             "more than 1e-12"):
            system_bloch(default_params(), np.linspace(0.0, 5.0, 11))

    @pytest.mark.parametrize("bloch", [system_bloch, environment_bloch])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_population_fails_the_unit_trace(self, monkeypatch,
                                                        bloch, bad):
        # no accepted input makes a population non-finite; a pair that
        # holds one sums to no finite trace, so the unit-trace check
        # refuses it
        populations = channels._qubit_populations

        def patched(params, keep, lose):
            pops = populations(params, keep, lose)
            pops[..., 3, 0] = bad
            return pops

        monkeypatch.setattr(channels, "_qubit_populations", patched)
        with pytest.raises(InputError, match=f"trace {bad} differs from 1"):
            bloch(default_params(), np.linspace(0.0, 5.0, 11))


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


def _bytes(value) -> list:
    """The bytes of a closed form's arrays: the array, or each field of a
    Bloch series but its times."""
    if isinstance(value, channels.BlochSeries):
        return [np.asarray(field).tobytes() for field in value[1:]]
    return [value.tobytes()]


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

    @pytest.mark.parametrize("closed_form", [
        system_states, environment_states, joint_states,
        joint_states_closed_form, joint_radii_closed_form,
        joint_negativities_closed_form, system_bloch, environment_bloch,
    ])
    def test_overflowing_decay_is_the_infinite_time_silently(self,
                                                             closed_form):
        # gamma_rate t = 1e310 is beyond the float range: the exponent is
        # -inf, which gives the t = inf values bit for bit, with no
        # overflow warning
        pr = GadcParams(alpha=0.6, w0=0.7, gamma_rate=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beyond = closed_form(pr, [0.0, 1e10])
        limit = closed_form(pr, [0.0, math.inf])
        assert _bytes(beyond) == _bytes(limit)


class TestIterateMap:
    def test_single_step_matches_channel(self):
        pr = default_params()
        single = iterate_map_check(pr, 0.5, 1)
        ref = apply_channel(system_kraus(pr, 0.5), system_initial_state(pr))
        assert np.max(np.abs(single - ref)) < 1e-14

    @pytest.mark.parametrize("n_steps", [1, 10])
    def test_within_round_off_of_channel_composition(self, n_steps):
        # to the round-off bound of the transfer-matrix power against
        # the step-by-step reference
        pr = default_params()
        step = system_kraus(pr, pr.gamma_rate * 1.0 / n_steps)
        rho = system_initial_state(pr)
        for _ in range(n_steps):
            rho = apply_channel(step, rho)
        gap = np.max(np.abs(iterate_map_check(pr, 1.0, n_steps) - rho))
        assert gap <= 4 * n_steps * EPS

    def test_first_order_convergence(self):
        """The deviation falls tenfold per decade of steps, 10 to 10^6.

        The power composes an affine map whose last row is exact, so the
        per-step completeness gap of about 1e-16 cannot compound into the
        trace; near 10^8 steps the round-off, about n eps, overtakes the
        1/n deviation.
        """
        pr = default_params()
        target = system_states(pr, 1.0)
        devs = [np.max(np.abs(iterate_map_check(pr, 1.0, n) - target))
                for n in (10, 100, 1000, 10_000, 10**5, 10**6)]
        for coarse, fine in zip(devs, devs[1:]):
            assert 8.0 < coarse / fine < 13.0

    def test_rejects_bad_steps(self):
        # the step count is named, not reported as a bad probability or
        # left to a TypeError of range()
        for n_steps in (0, -3, math.nan, math.inf, 2.5):
            with pytest.raises(InputError, match="n_steps must be an "
                                                 "integer >= 1"):
                iterate_map_check(default_params(), 1.0, n_steps)
        with pytest.raises(InputError):
            iterate_map_check(default_params(gamma_rate=3.0), 1.0, 2)
        assert np.array_equal(iterate_map_check(default_params(), 1.0, 10.0),
                              iterate_map_check(default_params(), 1.0, 10))

    @pytest.mark.parametrize("n_steps", [10**4, 10**6, 2**50],
                             ids=["1e4", "1e6", "2**50"])
    def test_unit_trace_at_large_step_counts(self, n_steps):
        # a power of the transfer matrix would compound the per-step
        # completeness gap past the 1e-12 trace check from 2 * 10^4 steps
        # on; the affine map keeps the trace to one rounding at any count,
        # silently, and the O(1/n) approach to the closed form where n eps
        # is still far below 1/n
        for pr, t in ((GadcParams(alpha=0.6, w0=0.7), 1.0),
                      (default_params(), 1.0), (default_params(), 0.0)):
            rho = iterate_map_check(pr, t, n_steps)
            assert abs(np.trace(rho).real - 1.0) <= EPS
            if n_steps <= 10**6:
                gap = np.max(np.abs(rho - system_states(pr, t)))
                assert gap <= 1.0 / n_steps

    def test_markov_convergence_at_large_step_counts(self):
        rows = strongcouple.markov_convergence(
            GadcParams(alpha=0.6, w0=0.7), step_counts=(10_000, 10**6))
        assert [n for n, _ in rows] == [10_000, 10**6]
        assert rows[0][1] > rows[1][1]

    @pytest.mark.parametrize("n_steps", [2**50 + 1, 10**19, 10**300],
                             ids=["2**50+1", "1e19", "1e300"])
    def test_rejects_step_counts_past_the_round_off_bound(self, n_steps):
        # named as the step count, not left to an overflow in the power
        # (a RuntimeWarning from 10^19 steps on) or to a trace check
        with pytest.raises(InputError, match=r"n_steps must be at most "
                                             r"2\*\*50"):
            iterate_map_check(default_params(), 1.0, n_steps)
        with pytest.raises(InputError, match=r"n_steps must be at most"):
            strongcouple.markov_convergence(default_params(),
                                            step_counts=(10, n_steps))

    def test_rejects_nan_time(self):
        # named as a time, not as a bad per-step probability
        with pytest.raises(InputError, match="time must be nonnegative"):
            iterate_map_check(default_params(), math.nan, 10)

    def test_rejects_infinite_time(self):
        # no step count can follow advice to increase it at t = inf
        with pytest.raises(InputError, match="time must be nonnegative "
                                             "and finite, got inf"):
            iterate_map_check(default_params(), math.inf, 10)

    @pytest.mark.parametrize("t", [np.array([1.0, 2.0]), "1.0", None],
                             ids=["array", "text", "none"])
    def test_rejects_time_that_is_no_real_number(self, t):
        # an input error naming the time, not numpy's ambiguous truth
        # value of an array or the TypeError of a comparison
        with pytest.raises(InputError, match="time must be a real number"):
            iterate_map_check(default_params(), t, 10)


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
            apply_channel(channel, np.eye(4) / 4.0)
