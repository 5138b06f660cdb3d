"""Property test over the physical domain of run().

Every configuration with ``alpha`` in [0, 1], ``beta`` in (0, inf], any
decay rate and horizon, and a small grid passes every gate of
:func:`strongcouple.run` with finite series. A gate that names itself
would be an acceptable failure, but across the domain none trips, so any
error fails the test with its message; in particular no physical
configuration is sent back with "refine the time grid", and no series
turns NaN at the extremes of double precision.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from strongcouple.experiment import ExperimentConfig, run  # noqa: E402

ALPHA_DEFAULT = 1.0 / math.sqrt(2.0)


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0),
       beta=st.floats(min_value=0.0, max_value=math.inf, exclude_min=True),
       gamma=st.floats(min_value=1e-3, max_value=1e3),
       gamma_t_max=st.floats(min_value=1e-3, max_value=1e3),
       n_samples=st.integers(min_value=3, max_value=64))
# configurations that failed the closure gate when the split came from
# finite differences on the grid (t_max = 10)
@example(alpha=ALPHA_DEFAULT, beta=0.01, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=0.05, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=0.1, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=0.2, gamma=1.0, gamma_t_max=10.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=1.0, gamma=50.0, gamma_t_max=500.0,
         n_samples=2001)
@example(alpha=ALPHA_DEFAULT, beta=1.0, gamma=1.0, gamma_t_max=10.0,
         n_samples=101)
# no negativity above the ratio floor
@example(alpha=ALPHA_DEFAULT, beta=1e-3, gamma=1.0, gamma_t_max=0.01,
         n_samples=11)
# marginals that start or end (nearly) maximally mixed, with roots of
# q = |r|^2 at or near the ends of the range of g, down to underflow
@example(alpha=0.3, beta=5e-324, gamma=1.0, gamma_t_max=10.0, n_samples=5)
@example(alpha=0.8417368221127677, beta=2.220446049250313e-16, gamma=1.0,
         gamma_t_max=36.0, n_samples=3)
@example(alpha=1e-8, beta=1e-8, gamma=1.0, gamma_t_max=18.0, n_samples=3)
@example(alpha=0.5, beta=1e-5, gamma=1.0, gamma_t_max=19.0, n_samples=3)
@example(alpha=6.771510516134501e-127, beta=6.771510516134501e-127,
         gamma=1.0, gamma_t_max=373.0, n_samples=3)
@example(alpha=2.735651053751712e-156, beta=2.735651053751712e-156,
         gamma=1.0, gamma_t_max=1.0, n_samples=3)
def test_every_configuration_passes_every_gate(alpha, beta, gamma,
                                               gamma_t_max, n_samples):
    config = ExperimentConfig(alpha=alpha, beta=beta, gamma=gamma,
                              t_max=gamma_t_max / gamma, n_samples=n_samples)
    result = run(config)
    d = result.diagnostics
    assert max(d["closure_system_max"], d["closure_environment_max"]) \
        <= config.integrator.closure_tolerance
    for traj in (result.thermo_s, result.thermo_e):
        assert np.all(np.isfinite(traj.heat))
        assert np.all(np.isfinite(traj.coherent_energy))
    info = result.info
    for series in (info.entropy_s, info.entropy_e, info.coherence_s,
                   info.coherence_e, info.negativity):
        assert np.all(np.isfinite(series))
