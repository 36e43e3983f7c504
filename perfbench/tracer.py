"""Outside-in tracing of the ``mgimplicit`` layers.

The tracer replaces, for the duration of a ``with tracer.installed(mg):``
block, every public function of the modules in ``LAYERS`` by a wrapper that
records a span, and restores the originals on exit.  A function is replaced
under every name it is bound to -- in its defining module, in the modules
that import it by name, and in the package namespace -- so calls between
modules are caught as well as calls from outside.  The ``MultiPoly``
arithmetic operators and ``LinearFormMatrix.specialize`` are patched on
their classes, so operator expressions are caught too.

Spans are aggregated in memory as they close: per span name the number of
calls, the inclusive time and the self time (inclusive time minus the
inclusive time of the spans it directly caused).  Nothing in ``src/`` is
changed.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("regions", "complexes", "linalg", "multipoly", "implicitize", "problem")
# (module, class, attribute, span name) of the patched methods
METHODS = (
    ("multipoly", "MultiPoly", "__mul__", "multipoly.mul"),
    ("multipoly", "MultiPoly", "__add__", "multipoly.add"),
    ("multipoly", "MultiPoly", "__sub__", "multipoly.sub"),
    ("complexes", "LinearFormMatrix", "specialize", "complexes.specialize"),
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Per-span-name call counts and self times, plus named counters fed by
    observers of a span's return value."""

    def __init__(self, names=None):
        # restrict tracing to these span names (all layers when None)
        self.names = names
        self.stats = {}
        self.counters = {}
        self._stack = []

    def reset(self):
        self.stats = {}
        self.counters = {}

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def stat(self, name) -> Stat:
        return self.stats.get(name) or Stat()

    def _wrap(self, name, fn, observe=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.self_s += dur - child
                st.total_s += dur
                if stack:
                    stack[-1] += dur
            if observe is not None:
                observe(self, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _targets(self, mg):
        """(owner, attribute, original, span name) for every binding to patch."""
        modules = [sys.modules[f"{mg.__name__}.{layer}"] for layer in LAYERS]
        functions = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    functions[id(obj)] = f"{layer}.{attr}"
        out = []
        for owner in modules + [mg]:
            for attr, obj in vars(owner).items():
                name = functions.get(id(obj))
                if name is not None:
                    out.append((owner, attr, obj, name))
        for layer, cls, attr, name in METHODS:
            owner = getattr(sys.modules[f"{mg.__name__}.{layer}"], cls)
            out.append((owner, attr, owner.__dict__[attr], name))
        if self.names is not None:
            out = [t for t in out if t[3] in self.names]
        return out

    @contextmanager
    def installed(self, mg):
        """Trace the package ``mg`` inside the block."""
        targets = self._targets(mg)
        wrappers = {}
        for owner, attr, fn, name in targets:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn, OBSERVERS.get(name))
            setattr(owner, attr, wrappers[id(fn)])
        try:
            yield self
        finally:
            for owner, attr, fn, _ in targets:
                setattr(owner, attr, fn)


def _matrix_entries(tracer, m):
    tracer.add("complexes.matrix_entries", m.rows * m.cols)


def _rank_drop_points(tracer, report):
    tracer.add("rank_drop.points_used", len(report.point_ranks))
    tracer.add("rank_drop.points_sampled", len(report.point_ranks) + report.skipped_base_locus)


OBSERVERS = {
    "complexes.representation_matrix": _matrix_entries,
    "implicitize.rank_drop_check": _rank_drop_points,
}
