import os

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


def _tilt(series):
    """The same series with its z slope off by 1e-3, a wrong coefficient
    that the closure gate must catch."""
    z0, z1, c0, c1 = series.coefficients
    return series._replace(coefficients=(z0, z1 + 1e-3, c0, c1))


@pytest.fixture
def broken_system_bloch(monkeypatch):
    """Make every run's system Bloch line disagree with its matrices."""
    original = channels.system_bloch
    monkeypatch.setattr(channels, "system_bloch",
                        lambda params, times: _tilt(original(params, times)))


@pytest.fixture
def break_system_bloch_when(monkeypatch):
    """Break the system Bloch line only for parameters passing a test."""

    def install(selected):
        original = channels.system_bloch

        def patched(params, times):
            series = original(params, times)
            return _tilt(series) if selected(params) else series

        monkeypatch.setattr(channels, "system_bloch", patched)

    return install
