"""Tests for the benchmark's CPU-speed probe.

Run from the repository root: ``python3 -m pytest benchmarks/tests -q``.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402


def probe_with(samples):
    """A probe holding ``(kernel, start, duration)`` samples, no timer."""
    probe = SpeedProbe()
    for kernel, start, duration in samples:
        probe.record(kernel, start, duration)
    return probe


def steady(t0, t1, factor, step=0.01):
    """Samples of every kernel from t0 to t1, ``factor`` times nominal."""
    out = []
    t, k = t0, 0
    while t < t1:
        out.append((k, t, factor * NOMINAL_S[k]))
        t, k = t + step, (k + 1) % len(NOMINAL_S)
    return out


def test_probe_time_counts_samples_started_in_the_interval():
    probe = probe_with([(0, 1.0, 0.25), (1, 2.0, 0.5), (0, 3.0, 1.0)])
    assert probe.probe_s(0.0, 10.0) == pytest.approx(1.75)
    assert probe.probe_s(1.5, 3.0) == pytest.approx(0.5)
    assert probe.probe_s(3.5, 4.0) == 0.0


def test_slowness_is_geometric_mean_of_kernel_ratios():
    probe = probe_with([(0, 0.1, 2 * NOMINAL_S[0]),
                        (1, 0.2, 8 * NOMINAL_S[1])])
    assert probe.slowness(0.0, 0.4) == pytest.approx(4.0)


def test_slowness_follows_the_speed_around_the_interval():
    # reference speed for 10 s, then a CPU 30% slower for 10 s
    probe = probe_with(steady(0.0, 10.0, 1.0) + steady(10.0, 20.0, 1.3))
    assert probe.slowness(1.0, 9.0) == pytest.approx(1.0)
    assert probe.slowness(11.0, 19.0) == pytest.approx(1.3)
    # a short interval is widened to MIN_WINDOW_S around its middle:
    # half a second at each speed
    assert probe.slowness(9.9, 10.1) == pytest.approx(1.15, rel=0.02)


def test_slowness_needs_a_sample_of_every_kernel():
    probe = probe_with([(0, 0.1, NOMINAL_S[0]), (0, 0.2, NOMINAL_S[0])])
    with pytest.raises(RuntimeError, match="small_arrays"):
        probe.slowness(0.0, 0.4)


def test_installed_probe_samples_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval_s=0.005)
    with probe.installed():
        t0 = time.perf_counter()
        net0 = probe.net_clock()
        end = t0 + 0.2
        while time.perf_counter() < end:
            pass
        t1 = time.perf_counter()
        net1 = probe.net_clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    taken = probe.probe_s(t0, t1)
    assert len(probe.samples.starts) >= 10
    assert taken > 0
    # the net clock leaves out exactly the time spent in samples
    assert (t1 - t0) - (net1 - net0) == pytest.approx(taken, abs=1e-3)
    # one more sample of each kernel after the body
    assert all(s.starts[-1] >= t1 for s in probe.kernels)
    assert 0.1 < probe.slowness(t0, t1) < 10


def test_kernels_are_deterministic():
    first = [kernel() for kernel in speed.make_kernels()]
    assert [kernel() for kernel in speed.make_kernels()] == first
    assert len(first) == len(speed.KERNEL_NAMES) == len(NOMINAL_S)
