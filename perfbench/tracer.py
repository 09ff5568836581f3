"""Spans around the calls into each ringconv module, recorded from outside.

The tracer replaces every public function of ``core``, ``special``,
``hankel``, ``operators`` and ``oracle`` (plus ``Field2D.__call__`` and the
scipy ``fftconvolve``/``i0e`` as bound in ``ringconv.oracle``) with a wrapper
that records one span per call: name, start, end, parent span and operation
id.  The modules import each other with ``from .x import y`` and call their
own helpers through module globals, so each wrapper is bound in every
``ringconv`` namespace that holds the original object.  Nothing is changed
inside the package's files; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("core", "special", "hankel", "operators", "oracle")


def _size_of(name):
    """Counter reading the element count of argument ``name`` (or the first)."""

    def count(args, kwargs):
        return int(np.size(args[0] if args else kwargs[name]))

    return count


def _mc_draws(args, kwargs):
    """Two uniform draws per sample per pass, from the call's arguments."""
    return 2 * int(args[2] if len(args) > 2 else kwargs["samples"])


# Work counts derived from call arguments ("computed", not measured inside).
_COUNTERS = {
    "core.eval_conv": _size_of("rho"),
    "special.bessel_j0": _size_of("x"),
    "oracle.fftconvolve": _size_of("in1"),
    "oracle.mc_conv_histogram": _mc_draws,
    "oracle.mc_radiality_check": _mc_draws,
}


class Tracer:
    """Collects spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans = []  # (span_id, name, start_ns, end_ns, parent_id, op_id, points)
        self.mc_streams = []  # (op_id, seed, draws) per sampler call
        self.op_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []
        self.names = set()  # every span name a wrapper can record

    def _stack(self):
        """This thread's open spans; a call on a worker thread never parents to another's."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """``fn`` recording one span named ``name`` per call."""
        tracer = self
        count = _COUNTERS.get(name)
        is_mc = name.startswith("oracle.mc_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = count(args, kwargs) if count else 0
            if is_mc:
                seed = args[4] if len(args) > 4 else kwargs["seed"]
                tracer.mc_streams.append((tracer.op_id, int(seed), points))
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id, points))

        return traced

    def install(self):
        """Wrap the public functions and bind the wrappers everywhere they are named."""
        import ringconv.oracle
        import ringconv.operators

        originals = {}  # id -> (function, span name); holds the functions, so ids stay unique
        for layer in LAYERS:
            module = sys.modules[f"ringconv.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        for attr in ("fftconvolve", "i0e"):
            obj = getattr(ringconv.oracle, attr, None)
            if obj is not None:
                originals[id(obj)] = (obj, f"oracle.{attr}")
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in originals.items()}
        self.names.update(name for _, name in originals.values())

        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "ringconv" or n.startswith("ringconv."))]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

        field = getattr(ringconv.operators, "Field2D", None)
        if field is not None:
            call = field.__dict__["__call__"]
            self._restore.append((field, "__call__", call))
            field.__call__ = self.wrap("operators.Field2D.call", call)
            self.names.add("operators.Field2D.call")

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def take(self):
        """Return and forget the spans and sampler calls recorded so far."""
        spans, streams = self.spans, self.mc_streams
        self.spans, self.mc_streams = [], []
        return spans, streams


def aggregate(spans):
    """Per span name: calls, total seconds, self seconds and summed points.

    Self time is a span's duration minus the durations of its direct children;
    on one thread the children of a span cover disjoint parts of it.
    """
    child_ns = defaultdict(int)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0})
    for span_id, name, start, end, _, _, points in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child_ns[span_id]) * 1e-9
        row["points"] += points
    return dict(table)


def unique_draws(streams):
    """Distinct uniform draws per operation: one stream per (seed, sample count)."""
    distinct = {(op, seed, draws) for op, seed, draws in streams}
    return sum(draws for _, _, draws in distinct)
