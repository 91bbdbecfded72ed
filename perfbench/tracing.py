"""Per-layer accounting for the traced run, wrapped around lazyfst's
functions from outside.

Hot boundaries (`cache.expand` runs over a million times per pass) keep
count/total/self accumulators instead of one span per call.  A layer's
self time is its time minus the time of the wrapped calls it made.
Every loaded `lazyfst` module attribute that refers to a wrapped
function is replaced, so `from .cache import expand` style imports are
traced too; `patched` restores them all on exit.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager


class Layer:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Layers:
    """Accumulators for every traced boundary of one phase."""

    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.counts: Counter = Counter()   # work counted by `after` hooks
        self.absent: list[str] = []
        self._stack = [0.0]   # time spent in wrapped children, per open call

    def __getitem__(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def wrap(self, name: str, fn, after=None):
        """Time `fn` as layer `name`; `after(args, result)` may count work."""
        layer = self[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stack[-1] += elapsed
                layer.calls += 1
                layer.total += elapsed
                layer.self_time += elapsed - children
            if after is not None:
                after(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        return {name: layer.self_time for name, layer in self.layers.items()}


@contextmanager
def patched(layers: Layers, targets):
    """Install wrappers for `targets`, a list of (layer name, owner,
    attribute, after) with `owner` a module or class.  A missing attribute
    is recorded in `layers.absent` instead of failing the run."""
    undo = []
    try:
        for name, owner, attr, after in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                layers.absent.append(name)
                continue
            wrapper = layers.wrap(name, fn, after)
            owners = [owner] if isinstance(owner, type) else [
                mod for key, mod in list(sys.modules.items())
                if key == "lazyfst" or key.startswith("lazyfst.")]
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is fn:
                        undo.append((obj, key, value))
                        setattr(obj, key, wrapper)
        yield layers
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)
