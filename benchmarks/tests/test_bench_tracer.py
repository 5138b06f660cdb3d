"""Tests for the benchmark's layer tracer.

Run from the repository root: ``python3 -m pytest benchmarks/tests -q``.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(4.0)

    def middle():
        clock.advance(2.0)
        traced_leaf()

    def outer():
        clock.advance(1.0)
        traced_middle()
        clock.advance(3.0)

    traced_leaf = tracer.wrap(leaf, "leaf", "a")
    traced_middle = tracer.wrap(middle, "middle", "b")
    tracer.wrap(outer, "outer", "a")()

    # outer spans 10 s with a 6 s child; middle spans 6 s with a 4 s child
    assert tracer.layers["a"].self_s == pytest.approx(4.0 + 4.0)
    assert tracer.layers["b"].self_s == pytest.approx(2.0)
    assert tracer.layers["a"].calls == 2
    assert tracer.layers["b"].calls == 1
    total = sum(s.self_s for s in tracer.layers.values())
    assert total == pytest.approx(10.0)
    assert tracer.names == {"outer": 1, "middle": 1, "leaf": 1}


def test_errors_count_exceptions_leaving_a_layer():
    tracer = Tracer()

    def fail():
        raise ValueError("gate")

    inner = tracer.wrap(fail, "fail", "b")
    relay = tracer.wrap(lambda: inner(), "relay", "b")

    def catch():
        with pytest.raises(ValueError):
            relay()

    tracer.wrap(catch, "catch", "a")()
    # raised inside b and passed on within b: one error leaves b
    assert tracer.layers["b"].errors == 1
    assert tracer.layers["a"].errors == 0

    with pytest.raises(ValueError):
        relay()
    assert tracer.layers["b"].errors == 2


@pytest.fixture(scope="module")
def pkg():
    return workloads.import_package()


def _bindings(pkg):
    """Every name bound in a package module, and every class ``__init__``."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "strongcouple" or name.startswith("strongcouple."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    snap[(value, "__init__")] = vars(value).get("__init__")
    return snap


def test_bindings_are_wrapped_then_restored(pkg):
    import strongcouple.cli as cli
    import strongcouple.experiment as experiment
    import strongcouple.firstlaw as firstlaw
    import strongcouple.spectra as spectra

    before = _bindings(pkg)
    run, main = experiment.run, cli.main
    thermo = firstlaw.thermo_trajectory
    init = spectra.DensityOperator.__init__
    with pytest.raises(RuntimeError):
        with Tracer().installed(pkg, extra=[cli.main]):
            # names imported by name into cli and experiment are wrapped
            assert cli.run is not run and pkg.run is not run
            assert experiment.thermo_trajectory is not thermo
            assert experiment.thermo_trajectory is firstlaw.thermo_trajectory
            assert cli.main is not main
            assert spectra.DensityOperator.__init__ is not init
            raise RuntimeError("body fails; bindings must still come back")
    assert _bindings(pkg) == before
    assert cli.run is run and cli.main is main
    assert experiment.thermo_trajectory is thermo
    assert spectra.DensityOperator.__init__ is init


def test_constructions_are_spectra_calls_counted_once(pkg):
    import numpy as np

    tracer = Tracer()
    with tracer.installed(pkg):
        pkg.DensityOperator(np.eye(2) / 2)
        pkg.eig_hermitian(np.eye(2))
    # one DensityOperator (its super().__init__ is not a second span),
    # then eig_hermitian with the HermitianOperator and result it builds
    assert tracer.names == {"DensityOperator": 1, "eig_hermitian": 1,
                            "HermitianOperator": 1,
                            "SpectralDecomposition": 1}
    assert tracer.layers["spectra"].calls == 4
    assert set(tracer.layers) == {"spectra"}
