"""Layer tracer that works from outside the package.

The tracer wraps every public name of ``strongcouple`` (``__all__``) plus
``cli.main`` in every module namespace that binds it, so calls made
through ``from .experiment import run`` style imports are seen too. Each
call is a span attributed to the module that defines the name; the
module is the layer. A span's self time is its duration minus the time
covered by its child spans, so the layer self times add up to the time
spent inside traced calls.

Classes count as calls when constructed: their ``__init__`` is wrapped
in place, so ``DensityOperator`` validation (a 4x4 eigensolve) lands in
``spectra`` rather than in the caller that built the state. Exception
classes are not wrapped. Private helpers are not wrapped and fall into
their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from collections import Counter


class LayerStats:
    __slots__ = ("self_s", "calls", "errors")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.errors = 0


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer):
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Collects per-layer self time, call counts and escaping exceptions.

    ``clock`` is the time source; tests pass a fake one. An exception
    counts as an error of a layer when it leaves a span of that layer
    for a caller in another layer (or for untraced code).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.names: Counter = Counter()
        self._stack: list[_Frame] = []

    def snapshot(self) -> dict:
        """Plain-data copy of the counts, safe to send between processes."""
        return {"layers": {name: [s.self_s, s.calls, s.errors]
                           for name, s in self.layers.items()},
                "names": dict(self.names)}

    def _span(self, fn, name, layer, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame(layer)
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except Exception:
            if parent is None or parent.layer != layer:
                self._stats(layer).errors += 1
            raise
        finally:
            duration = self.clock() - start
            stack.pop()
            stats = self._stats(layer)
            stats.self_s += duration - frame.child_s
            stats.calls += 1
            self.names[name] += 1
            if parent is not None:
                parent.child_s += duration

    def _stats(self, layer) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def wrap(self, fn, name, layer):
        """Return ``fn`` wrapped so that each call is a span of ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._span(fn, name, layer, args, kwargs)

        return traced

    def _wrap_init(self, cls, layer):
        init = cls.__init__
        tracer = self

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            # a subclass constructor calling super().__init__ is one span
            if type(obj) is not cls:
                return init(obj, *args, **kwargs)
            return tracer._span(init, cls.__name__, layer,
                                (obj,) + args, kwargs)

        return traced_init

    @contextlib.contextmanager
    def installed(self, package, extra=()):
        """Wrap ``package.__all__`` plus ``extra`` objects; restore on exit.

        ``extra`` holds further functions to trace, such as ``cli.main``.
        Every binding replaced in a ``package`` module namespace and every
        ``__init__`` replaced on a class is put back, even if the body
        raises.
        """
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        targets = [getattr(package, n) for n in package.__all__]
        targets.extend(extra)
        patches = []
        try:
            for obj in targets:
                layer = obj.__module__.rsplit(".", 1)[-1]
                if isinstance(obj, type):
                    if issubclass(obj, BaseException) \
                            or "__init__" not in vars(obj):
                        continue
                    patches.append((obj, "__init__", vars(obj)["__init__"]))
                    obj.__init__ = self._wrap_init(obj, layer)
                elif isinstance(obj, types.FunctionType):
                    wrapped = self.wrap(obj, obj.__name__, layer)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is obj:
                                patches.append((module, attr, obj))
                                setattr(module, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
