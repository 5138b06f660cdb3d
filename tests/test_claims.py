"""The README headline's claims, one named test each.

Each test's docstring quotes the README sentence it backs, and the
README cites the test beside that sentence. The headline's sixteen
configurations are run once, on 4001 points to ``t_max = 10``, and
shared by the tests that read them.

The paper's claim ties the heat imbalance ``|Q_S + Q_E|`` to the
entanglement the two qubits build. Here the imbalance is the net
coherent energy, it is transient, it peaks where the negativity does in
all but one of the sixteen configurations, and it is proportional to the
negativity only near the default. Across configurations it is neither
necessary for entanglement (``alpha`` 0 and 1) nor sufficient (the
separable line ``alpha**2 = w0``).
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from strongcouple import channels as ch  # noqa: E402
from strongcouple.experiment import ExperimentConfig, run  # noqa: E402
from strongcouple.infomeasures import negativities  # noqa: E402

HEADLINE_ALPHAS = (0.3, 0.5, 0.707, 0.85)
HEADLINE_BETAS = (0.5, 1.0, 3.0, math.inf)


@pytest.fixture(scope="module")
def headline():
    """The README headline's sixteen runs, keyed by ``(alpha, beta)``."""
    return {(a, b): run(ExperimentConfig(alpha=a, beta=b, n_samples=4001))
            for a in HEADLINE_ALPHAS for b in HEADLINE_BETAS}


def _eigensolved(config, t) -> float:
    """The negativity of the closed-form family's state at ``t``, by an
    eigensolve of its partial transpose."""
    return float(negativities(
        ch.joint_states_closed_form(config.params, [t]))[0])


def test_mismatch_is_transient(headline):
    """"The mismatch `|Q_S + Q_E|` is transient."

    It reaches 0.013 to 0.14 in the sixteen configurations and is back
    under 4.1e-05 at ``t_max = 10``; on the default configuration it is
    2.8e-17 at ``t_max = 40``.
    """
    for key, result in headline.items():
        asym = result.info.heat_asymmetry
        assert asym.max() > 1e-2, key
        assert asym[-1] <= 5e-5, key
    late = run(ExperimentConfig(t_max=40.0, n_samples=4001))
    assert late.info.heat_asymmetry[-1] <= 1e-15


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0),
       beta=st.one_of(st.just(math.inf),
                      st.floats(min_value=1e-2, max_value=1e2)),
       gamma=st.floats(min_value=0.1, max_value=10.0),
       t_max=st.floats(min_value=0.1, max_value=100.0),
       n_samples=st.integers(min_value=3, max_value=2000))
def test_heat_imbalance_is_the_net_coherent_energy(alpha, beta, gamma,
                                                   t_max, n_samples):
    """"Neither Hamiltonian does work and the total energy is conserved,
    so the mismatch is the part of the two coherent energies that does
    not cancel: `Q_S + Q_E = -(C_S + C_E)` at every time."
    """
    # no work is done and the total energy is conserved, so the heat the
    # two sides do not trade, Q_S + Q_E, is minus the coherent energy
    # C_S + C_E they build, at every grid point; 1.1e-16 is the worst of
    # 200 such runs
    result = run(ExperimentConfig(alpha=alpha, beta=beta, gamma=gamma,
                                  t_max=t_max, n_samples=n_samples))
    s, e = result.thermo_s, result.thermo_e
    assert abs(s.heat + e.heat + s.coherent_energy
               + e.coherent_energy).max() <= 1e-14


def test_mismatch_peaks_with_the_negativity(headline):
    """"The mismatch peaks there too in 15 of them. The exception is
    `alpha = 0.3, beta = 3`, where it peaks at `gamma t = 0.87`."

    "There" is ``gamma t = ln 2``, where the negativity peaks: on the
    grid, at 0.6925, the point nearest ln 2, in all sixteen.
    """
    times = next(iter(headline.values())).times
    nearest = times[abs(times - math.log(2.0)).argmin()]
    for key, result in headline.items():
        assert times[result.info.negativity.argmax()] == nearest, key
        peak = times[result.info.heat_asymmetry.argmax()]
        if key == (0.3, 3.0):
            assert peak == pytest.approx(0.87, abs=1e-9)
        else:
            assert peak == nearest, key


def test_ratio_spread(headline):
    """"It is 0.011 at the default (`alpha = 1/sqrt(2)`, `beta = 1`) and
    0.04 at `alpha = 0.5, beta = 0.5`. Elsewhere it is 0.35 to 3.8, and
    at `alpha = 0.85, beta = 1` no point clears the threshold
    (`ratio_points` 0, `ratio_mean` NaN)."

    "It" is ``ratio_max_relative_spread``, the pointwise relative spread
    of the mismatch over the negativity where the negativity is above
    5e-3; measured 0.01105, 0.04044, and 0.3493 to 3.817 elsewhere.
    """
    default = run(ExperimentConfig()).diagnostics
    assert default["ratio_max_relative_spread"] == pytest.approx(
        0.011, abs=5e-4)
    near = {(0.707, 1.0): 0.011, (0.5, 0.5): 0.04}
    for key, result in headline.items():
        d = result.diagnostics
        spread = d["ratio_max_relative_spread"]
        if key == (0.85, 1.0):
            assert d["ratio_points"] == 0.0
            assert math.isnan(d["ratio_mean"]) and math.isnan(spread)
        elif key in near:
            assert spread == pytest.approx(near[key], abs=5e-4), key
        else:
            assert 0.345 <= spread <= 3.85, key


@pytest.mark.parametrize("alpha, beta, peak", [
    (0.0, 0.2, 0.1302), (0.0, 1.0, 0.2550), (0.0, math.inf, 0.5000),
    (1.0, 0.2, 0.0804), (1.0, 1.0, 0.0239)])
def test_entanglement_without_imbalance(alpha, beta, peak):
    """"Entanglement forms without the heat imbalance."

    At ``alpha`` 0 and 1 the system starts without coherence: the
    mismatch is exactly 0 at every time while the negativity still
    peaks, at ``t* = ln 2``, at the quoted four digits.
    """
    d = run(ExperimentConfig(alpha=alpha, beta=beta,
                             n_samples=4001)).diagnostics
    assert d["heat_asymmetry_max"] == 0.0
    assert d["negativity_peak"] == pytest.approx(peak, abs=5e-5)


def test_separable_line():
    """"On the separable line `alpha**2 = w0`, where `w0` is the thermal
    weight of the environment's ground level, the negativity is 0 at
    every time, while the mismatch still peaks at 0.081 (`beta = 0.2`)
    and 0.063 (`beta = 1`)."
    """
    # alpha^2 = w0, bit for bit on these betas: the negativity
    # vanishes at every time, and t* still maximises it, so the peak
    # time is t*, not the grid's 0. The converse of the paper's claim:
    # the heats still fail to balance, by 0.081 at beta = 0.2 and
    # 0.063 at beta = 1, so a heat imbalance needs no entanglement
    times = np.linspace(0.0, 10.0, 41)
    for beta in (0.2, 1.0):
        w0 = 1.0 / (1.0 + math.exp(-beta))
        config = ExperimentConfig(alpha=math.sqrt(w0), beta=beta)
        assert config.alpha ** 2 == config.params.w0 == w0
        result = run(config)
        d = result.diagnostics
        assert not result.info.negativity.any()
        assert d["negativity_peak"] == 0.0
        assert d["negativity_peak_time"] == math.log(2.0)
        assert d["heat_asymmetry_max"] > 1e-3
        assert _eigensolved(config, math.log(2.0)) \
            <= ch.NEGATIVITY_NEWTON_TOL
        # both joint families, eigensolved: at most 3.1e-16
        for family in (ch.joint_states, ch.joint_states_closed_form):
            assert negativities(family(config.params, times)).max() \
                <= 1e-15, (beta, family.__name__)


def test_entangled_off_the_separable_line(rng):
    """"Off that line the joint state is entangled at every time after
    0."

    300 seeded runs of 201 points to ``t_max = 10`` over ``alpha`` in
    (0, 1) and ``beta`` in [1e-2, 1e2], at least 1e-3 off the line in
    ``alpha**2 - w0``: the negativity is 0 at ``t = 0`` and positive at
    every later point, 8.6e-08 at the smallest.
    """
    runs = 0
    while runs < 300:
        config = ExperimentConfig(alpha=rng.uniform(0.0, 1.0),
                                  beta=10.0 ** rng.uniform(-2.0, 2.0),
                                  n_samples=201)
        if abs(config.alpha ** 2 - config.params.w0) <= 1e-3:
            continue
        neg = run(config).info.negativity
        assert neg[0] == 0.0 and (neg[1:] > 0.0).all(), config
        runs += 1
