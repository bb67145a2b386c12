"""A convenient, append-only builder for per-processor traces.

Two ways to emit, freely mixed in program order:

* **scalar** — ``read``/``write``/``lock``/``unlock``/``barrier`` append one
  op each to small Python lists (the synthetic generators and the tests);
* **bulk** — :meth:`TraceBuilder.extend` appends whole numpy arrays as one
  chunk (the paper generators emit each per-processor phase this way).

Buffered scalar ops are flushed as a chunk before every ``extend``, and
:meth:`TraceBuilder.build` concatenates the chunks, so the resulting
:class:`~repro.trace.ops.Trace` is the same whichever way an op arrived.

``compute(n)`` always feeds the *gap* of the next op, and that includes
the first op of an ``extend`` chunk: the pending gap is added to the
chunk's first gap.  An empty chunk leaves the pending gap pending.
"""

import numpy as np

from repro.errors import TraceError
from repro.trace.ops import (
    OP_BARRIER,
    OP_LOCK,
    OP_READ,
    OP_UNLOCK,
    OP_WRITE,
    Trace,
)


class TraceBuilder:
    """Builds one processor's :class:`~repro.trace.ops.Trace`.

    ``compute(n)`` accumulates into the *gap* of the next memory operation,
    so interleaving ``compute``/``read``/``write`` calls in program order
    produces the compact encoding directly.

    >>> b = TraceBuilder()
    >>> b.compute(10).read(0x40).write(0x40).barrier(0)
    TraceBuilder(ops=3)
    >>> trace = b.build()
    >>> trace.counts()
    {'read': 1, 'write': 1, 'barrier': 1}

    ``extend(kinds, addrs, gaps=0)`` appends arrays in one call; a scalar
    ``kinds`` or ``gaps`` applies to every op, and a pending ``compute``
    joins the chunk's first op:

    >>> b = TraceBuilder().compute(5)
    >>> b.extend(OP_READ, np.arange(0, 96, 32), gaps=[0, 2, 2])
    TraceBuilder(ops=3)
    >>> [b.build().op(i) for i in range(3)]
    [(5, 0, 0), (2, 0, 32), (2, 0, 64)]
    """

    def __init__(self):
        self._chunks = []
        self._gaps = []
        self._kinds = []
        self._addrs = []
        self._pending_gap = 0

    def __repr__(self):
        return f"TraceBuilder(ops={len(self)})"

    def compute(self, cycles):
        """Accumulate compute cycles before the next operation."""
        if cycles < 0:
            raise TraceError("negative compute time")
        self._pending_gap += int(cycles)
        return self

    def _emit(self, kind, addr):
        self._gaps.append(self._pending_gap)
        self._kinds.append(kind)
        self._addrs.append(int(addr))
        self._pending_gap = 0
        return self

    def read(self, addr):
        return self._emit(OP_READ, addr)

    def write(self, addr):
        return self._emit(OP_WRITE, addr)

    def lock(self, addr):
        return self._emit(OP_LOCK, addr)

    def unlock(self, addr):
        return self._emit(OP_UNLOCK, addr)

    def barrier(self, barrier_id=0):
        return self._emit(OP_BARRIER, barrier_id)

    def _flush_scalars(self):
        if self._kinds:
            self._chunks.append(
                (
                    np.array(self._gaps, dtype=np.int64),
                    np.array(self._kinds, dtype=np.uint8),
                    np.array(self._addrs, dtype=np.int64),
                )
            )
            self._gaps, self._kinds, self._addrs = [], [], []

    def extend(self, kinds, addrs, gaps=0):
        """Append ``len(addrs)`` ops as one chunk.

        ``addrs`` is a 1-D array; ``kinds`` and ``gaps`` are arrays of the
        same length or scalars broadcast to it.  The pending compute gap is
        added to the first op's gap (an empty chunk leaves it pending).
        The builder keeps its own copies of the arrays.
        """
        addrs = np.array(addrs, dtype=np.int64)
        if addrs.ndim != 1:
            raise TraceError("extend() takes a 1-D addrs array")
        n = len(addrs)
        try:
            kinds = np.array(np.broadcast_to(kinds, n), dtype=np.uint8)
            gaps = np.array(np.broadcast_to(gaps, n), dtype=np.int64)
        except ValueError:
            raise TraceError("extend() arrays must have equal length") from None
        if n == 0:
            return self
        if gaps.min() < 0:
            raise TraceError("negative compute time")
        gaps[0] += self._pending_gap
        self._pending_gap = 0
        self._flush_scalars()
        self._chunks.append((gaps, kinds, addrs))
        return self

    def read_range(self, base, nbytes, stride):
        """Reads covering ``[base, base+nbytes)`` at the given byte stride."""
        return self.extend(OP_READ, base + np.arange(0, nbytes, stride))

    def write_range(self, base, nbytes, stride):
        return self.extend(OP_WRITE, base + np.arange(0, nbytes, stride))

    def __len__(self):
        return sum(len(kinds) for _gaps, kinds, _addrs in self._chunks) + len(self._kinds)

    def build(self):
        self._flush_scalars()
        if not self._chunks:
            return Trace([], [], [])
        return Trace(*(np.concatenate(column) for column in zip(*self._chunks)))
