"""Spans and profile folding for the traced benchmark pass.

The simulator carries no tracing of its own that the benchmark may use,
so every span here is recorded from the benchmark's side: :meth:`Tracer.patch`
swaps a public function or method of the system under test for a wrapper
that opens a span around the original call, and :meth:`Tracer.unpatch`
puts the original back.  Spans stay in memory until :meth:`Tracer.dump`.

Work that runs inside engine callbacks (processor, controllers, network)
has no public call to wrap, so its share of host time comes from a
deterministic profiler instead, folded by ``repro.<module>``
(:func:`fold_profile`).
"""

import contextlib
import functools
import json
import pstats
import time
from collections import Counter, defaultdict

#: Simulator packages whose self time the traced pass reports; all
#: other code (builtins, numpy, ``repro.system``, the benchmark) folds
#: into ``other``.
PROFILED_MODULES = (
    "engine", "processor", "protocol", "directory", "network",
    "memory", "coherence", "core", "stats", "harness",
)

#: Span names the benchmark opens itself; every other span wraps a call
#: into the system under test.
ROUND = "bench.round"
OP = "bench.op"


class NullTracer:
    """The untraced pass: no spans, no counts."""

    def span(self, name, op=False):
        return contextlib.nullcontext()


class Tracer:
    """Spans in memory: ``[name, start, end, parent index, op id]``.

    A span opened with ``op=True`` starts a new op id; every span opened
    inside it shares that id.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._ops = 0
        self._patched = []

    @contextlib.contextmanager
    def span(self, name, op=False):
        parent = self._stack[-1] if self._stack else None
        if op:
            self._ops += 1
            op_id = self._ops
        else:
            op_id = self.spans[parent][4] if parent is not None else None
        record = [name, time.perf_counter(), None, parent, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    def patch(self, owner, attr, name, op=False, count=None):
        """Wrap ``owner.attr`` (a module function, a class, a method or a
        classmethod) in a span named ``name``.  ``count`` is an optional
        ``(counter name, fn(result) -> int)`` pair tallied per call."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            with self.span(name, op=op):
                result = func(*args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        self._patched.append((owner, attr, raw))

    def unpatch(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def durations(self, name):
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def summary(self):
        """{name: {"count", "total_s", "self_s"}}; self time is a span's
        duration minus the durations of its direct children."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def unaccounted_frac(self):
        """Share of the rounds' wall time outside every top-most span
        around a call into the system under test."""
        rounds = sum(self.durations(ROUND))
        covered = 0.0
        for name, start, end, parent, _ in self.spans:
            if name.startswith("bench."):
                continue
            if parent is None or self.spans[parent][0].startswith("bench."):
                covered += end - start
        return 1.0 - covered / rounds if rounds > 0 else 0.0

    def dump(self, path):
        payload = {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                for name, start, end, parent, op_id in self.spans
            ],
            "summary": self.summary(),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def layer_of(filename):
    """``repro.<module>`` of a profiled source file, else ``other``."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return "other"
    rest = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
    if len(rest) >= 2 and rest[0] in PROFILED_MODULES:
        return rest[0]
    return "other"


def fold_profile(profiler):
    """{module: share of total self time} for a finished ``cProfile``."""
    self_time = Counter()
    for (filename, _line, _func), entry in pstats.Stats(profiler).stats.items():
        self_time[layer_of(filename)] += entry[2]
    total = sum(self_time.values())
    return {
        module: (self_time[module] / total if total else 0.0)
        for module in PROFILED_MODULES + ("other",)
    }
