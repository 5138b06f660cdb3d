import os
import tracemalloc

import numpy as np
import pytest

from strongcouple import channels


@pytest.fixture
def rng():
    """Seeded generator; override the seed with STRONGCOUPLE_SEED."""
    seed = int(os.environ.get("STRONGCOUPLE_SEED", "1234"))
    return np.random.default_rng(seed)


@pytest.fixture
def random_density(rng):
    """Factory for random full-rank density matrices."""

    def make(dim=2):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        return rho / np.trace(rho).real

    return make


def _peak(call) -> int:
    """The peak bytes tracemalloc traces over a second call of ``call``;
    the first warms the caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tilt(series, rows):
    """The same series with its z slope off by 1e-3 on the rows where
    ``rows`` is true, a wrong coefficient that the closure gate must
    catch."""
    lead, slope, coh = series.coefficients
    return series._replace(coefficients=(lead, slope + 1e-3 * rows, coh))


def _selected_rows(selected, params):
    """``selected`` of each parameter set of ``params``, a block's
    columns or one set, in the shape of the columns."""
    cols = channels._columns(params)
    flags = [selected(channels.GadcParams(alpha=a, w0=w0, gamma_rate=g))
             for a, w0, g in zip(np.ravel(cols.alpha).tolist(),
                                 np.ravel(cols.w0).tolist(),
                                 np.ravel(cols.gamma_rate).tolist())]
    return np.reshape(flags, np.shape(cols.alpha))


@pytest.fixture
def break_system_bloch_when(monkeypatch):
    """Break the system Bloch line only for parameter sets passing a test.

    The test is applied per row, to each parameter set of a block. The
    break is in the public system Bloch series, which a run calls with
    the columns and the grid of its block.
    """

    def install(selected):
        original = channels.system_bloch

        def patched(params, times):
            return _tilt(original(params, times),
                         _selected_rows(selected, params))

        monkeypatch.setattr(channels, "system_bloch", patched)

    return install


@pytest.fixture
def broken_system_bloch(break_system_bloch_when):
    """Make every run's system Bloch line disagree with its populations."""
    break_system_bloch_when(lambda params: True)
