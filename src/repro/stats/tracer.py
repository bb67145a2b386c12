"""Protocol event tracing.

A :class:`MessageTracer` records every message a machine sends —
timestamp, kind, endpoints, block, flags — optionally filtered to a
block or transaction set.  It is fed by an instrument's ``message_send``
probe::

    tracer = MessageTracer(blocks=[block])
    Machine(config, program, instrument=Instrument(tracer=tracer)).run()

so an instrumented run (the interpreted engine, whose every send passes
the probe) records all of them.  Useful for debugging protocol behaviour
and for teaching: ``dsi-sim run --show-trace 40`` prints the first
messages of a run, and :meth:`MessageTracer.block_history` reconstructs
one block's whole coherence life.
"""

from repro.stats.report import format_table


class TraceEvent:
    """One recorded message."""

    __slots__ = ("time", "kind", "src", "dst", "block", "flags", "local", "txn_id")

    def __init__(self, time, kind, src, dst, block, flags, local, txn_id=None):
        self.time = time
        self.kind = kind
        self.src = src
        self.dst = dst
        self.block = block
        self.flags = flags
        self.local = local
        self.txn_id = txn_id

    def row(self):
        path = f"{self.src}->{self.dst}" + (" (local)" if self.local else "")
        txn = "" if self.txn_id is None else self.txn_id
        return [self.time, self.kind, path, self.block, txn, self.flags]

    def __repr__(self):
        return f"TraceEvent({self.time}, {self.kind}, {self.src}->{self.dst}, blk={self.block})"


#: Default bound on retained events.  A full-scale barnes run sends every
#: message through the tracer; unbounded retention used to hold all of
#: them in RAM.
DEFAULT_MAX_EVENTS = 100_000


class MessageTracer:
    """Records messages as they are sent.

    Parameters
    ----------
    blocks:
        Optional iterable of block numbers; only messages for these blocks
        are recorded.
    txns:
        Optional iterable of causal transaction ids (``Message.txn_id``);
        only messages carrying one of these ids are recorded.  Ids are only
        assigned when an :class:`~repro.obs.instrument.Instrument` is
        attached to the machine, and are deterministic across instrumented
        re-runs of the same configuration — so an id reported by
        ``dsi-sim why`` can be replayed with ``dsi-sim trace --txn``.
    max_events:
        Retain at most this many events; further matching messages are
        *counted* (``dropped``) but not stored, and the drop count is
        reported by :meth:`format`.  ``None`` applies the default bound
        (100k); 0 means unbounded.
    limit:
        Backwards-compatible alias for ``max_events`` (the pre-cap
        keyword); ignored when ``max_events`` is given explicitly.
    """

    def __init__(self, blocks=None, limit=0, max_events=None, txns=None):
        self.blocks = set(blocks) if blocks is not None else None
        self.txns = set(txns) if txns is not None else None
        if max_events is None:
            max_events = limit if limit else DEFAULT_MAX_EVENTS
        self.max_events = max_events
        self.dropped = 0
        self.events = []

    @property
    def limit(self):
        return self.max_events

    @property
    def full(self):
        return bool(self.max_events) and len(self.events) >= self.max_events

    def record(self, time, msg, is_local):
        if self.blocks is not None and msg.block not in self.blocks:
            return
        if self.txns is not None and msg.txn_id not in self.txns:
            return
        if self.full:
            self.dropped += 1
            return
        flags = []
        if msg.si:
            flags.append("si")
        if msg.tearoff:
            flags.append("tearoff")
        if msg.dirty:
            flags.append("dirty")
        if msg.acks_pending:
            flags.append("acks_pending")
        if msg.version is not None and msg.kind.name in ("GETS", "GETX", "UPGRADE"):
            flags.append(f"v{msg.version}")
        self.events.append(
            TraceEvent(
                time,
                msg.kind.name,
                msg.src,
                msg.dst,
                msg.block,
                ",".join(flags),
                is_local,
                txn_id=msg.txn_id,
            )
        )

    # ------------------------------------------------------------------
    def block_history(self, block):
        """Every recorded event touching one block, in time order."""
        return [e for e in self.events if e.block == block]

    def between(self, src, dst):
        """Events on one directed channel."""
        return [e for e in self.events if e.src == src and e.dst == dst]

    def format(self, limit=None):
        rows = [event.row() for event in self.events[: limit or len(self.events)]]
        text = format_table(["time", "message", "path", "block", "txn", "flags"], rows)
        if self.dropped:
            text += (
                f"\n... {self.dropped} further event(s) dropped "
                f"(max_events={self.max_events})"
            )
        return text

    def __len__(self):
        return len(self.events)

