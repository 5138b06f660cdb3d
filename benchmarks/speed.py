"""CPU-speed probe that runs inside the measured thread.

On a shared host the speed of the CPU itself drifts by 10-25% over
seconds to minutes, so plain wall times of the same operation spread
too widely between runs to bound a regression. A reference loop run
right before and after an operation does not track the drift, and one
run on the other CPU at the same time does not either; references
interleaved finely with the work do.

:class:`SpeedProbe` interleaves them: a real-time interval timer
(``SIGALRM``) interrupts the measured thread every ``interval_s`` and
the handler times one of two fixed reference kernels, in turn: a
pure-Python loop and a chain of 4x4 complex numpy products
(interpreter and numpy dispatch overhead, like the package's per-point
code). Both touch little memory, so the program's own cache footprint
hardly changes their durations: sampled between the package's work
they take 0.9-1.4 times their tight-loop time. Each sample records
which kernel ran, when, and for how long. From them,

* :meth:`SpeedProbe.probe_s` is the time the handler spent between two
  instants, which is subtracted from an operation's wall time, and
* :meth:`SpeedProbe.slowness` is, around an interval, the geometric
  mean over the kernels of their mean duration over their duration at
  the reference speed (:data:`NOMINAL_S`). Dividing a net wall time by
  it gives the time at the reference speed.

On the machine these constants were measured on (2-vCPU shared Xeon at
2.1 GHz, Python 3.11, numpy 2.4), back-to-back 801-point runs in one
process over two minutes had a coefficient of variation of 0.113 and
0.137 in net wall time, and 0.029 and 0.041 scaled by a pure-Python
loop and a 4x4 numpy chain like these two. A third kernel of random reads from a Python list narrowed
that to 0.021 and 0.033, but sampled between the package's work it ran
6-13 times slower than in a tight loop, because the package's own work
evicts the list from cache; a program change that altered its cache
footprint would then move the scaling, so it is not used.

Only the main thread of a process can receive the signal; the probe is
installed there.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
import signal
import time

INTERVAL_S = 0.01
# slowness is averaged over at least this much time around an interval
MIN_WINDOW_S = 1.0


def python_loop() -> int:
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s


def small_arrays(half, identity) -> complex:
    a = identity
    for _ in range(50):
        a = half.conj().T @ a @ half
        abs(a[0, 1])
    return a[0, 0]


def make_kernels() -> tuple:
    """The kernels as calls without arguments, in sampling order.

    numpy is imported here, not at module import, so that the callers
    can cap its thread pools first.
    """
    import numpy as np

    identity = np.eye(4, dtype=complex)
    return (python_loop,
            functools.partial(small_arrays, 0.5 * identity, identity))


KERNEL_NAMES = ("python_loop", "small_arrays")
# mean duration of each kernel at the reference speed: as sampled
# between the package's own work on the machine named in the module
# docstring, on a typical minute. Only the ratios of later samples to
# these matter; they make slowness about 1 there, so that scaled times
# read close to wall times.
NOMINAL_S = (2.9e-4, 2.7e-4)


class _Series:
    """Sample start times with a running sum of their durations."""

    def __init__(self):
        self.starts: list[float] = []
        self.cum: list[float] = [0.0]

    def add(self, start, duration):
        self.starts.append(start)
        self.cum.append(self.cum[-1] + duration)

    def span(self, t0, t1) -> tuple[int, float]:
        """Number and total duration of samples started in ``[t0, t1)``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return hi - lo, self.cum[hi] - self.cum[lo]


class SpeedProbe:
    """Samples the CPU's speed while installed; see the module docstring.

    ``clock`` gives the time of every sample; ``net_clock`` is that clock
    minus the time spent in samples so far, for timers (such as the
    tracer's) that should not count the probe.
    """

    def __init__(self, interval_s=INTERVAL_S, clock=time.perf_counter):
        self.interval_s = interval_s
        self.clock = clock
        self._kernels = make_kernels()
        self.samples = _Series()
        self.kernels = [_Series() for _ in KERNEL_NAMES]
        self._turn = 0

    def record(self, kernel, start, duration):
        self.samples.add(start, duration)
        self.kernels[kernel].add(start, duration)

    def _sample(self, kernel):
        start = self.clock()
        self._kernels[kernel]()
        self.record(kernel, start, self.clock() - start)

    def _on_alarm(self, signum, frame):
        self._sample(self._turn)
        self._turn = (self._turn + 1) % len(KERNEL_NAMES)

    @contextlib.contextmanager
    def installed(self):
        """Sample every ``interval_s`` while the body runs, and after it.

        When the body has returned, each kernel runs once more, so that
        even a body shorter than the interval has a sample of each.
        """
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            for kernel in range(len(KERNEL_NAMES)):
                self._sample(kernel)

    def net_clock(self) -> float:
        return self.clock() - self.samples.cum[-1]

    def probe_s(self, t0, t1) -> float:
        """Time spent in samples that started in ``[t0, t1)``."""
        return self.samples.span(t0, t1)[1]

    def kernel_slowness(self, t0, t1) -> list[float]:
        """Each kernel's mean duration around ``[t0, t1]`` over NOMINAL_S.

        The window is widened symmetrically to MIN_WINDOW_S when the
        interval is shorter, so that a short operation still averages
        enough samples.
        """
        half = max(t1 - t0, MIN_WINDOW_S) / 2
        mid = (t0 + t1) / 2
        ratios = []
        for series, nominal, name in zip(self.kernels, NOMINAL_S,
                                         KERNEL_NAMES):
            n, total = series.span(mid - half, mid + half)
            if n == 0:
                raise RuntimeError(
                    f"no {name} samples between "
                    f"{mid - half:.3f} and {mid + half:.3f}")
            ratios.append(total / n / nominal)
        return ratios

    def slowness(self, t0, t1) -> float:
        """Slowness of the CPU around ``[t0, t1]``; 1.0 is the reference.

        The geometric mean of :meth:`kernel_slowness`: 1.2 means the
        kernels ran 20% longer than at the reference speed.
        """
        ratios = self.kernel_slowness(t0, t1)
        return math.exp(sum(map(math.log, ratios)) / len(ratios))

    def summary(self, t0, t1) -> dict:
        """Plain-data description of the samples around ``[t0, t1)``."""
        n, total = self.samples.span(t0, t1)
        return {"probe_s": total, "samples": n,
                "slowness": self.slowness(t0, t1),
                "kernel_slowness": self.kernel_slowness(t0, t1)}
