"""Causal coherence tracing and exact cycle accounting (``dsi-sim why``).

The probe bus (:mod:`repro.obs.instrument`) reports *events*; this module
stitches them into **transactions**.  Every coherence transaction gets a
``txn_id`` at the requesting cache (:meth:`Instrument.alloc_txn`), the id
rides the request message and is echoed by everything causally downstream
— the directory's serialization, the INV fan-out it triggers, the acks
that come back, the grant, and the WC ACK_DONE — so the
:class:`CausalInstrument` can rebuild each transaction's causal chain
from the probe stream alone.

On top of the chains it produces an **exact cycle accounting**: every
simulated cycle of every node's execution time is attributed to exactly
one of :data:`CAUSAL_CATEGORIES`:

``compute``
    Trace gap cycles — the work between memory references.
``cache-hit``
    Cycles retiring hits (including the hit cost of WC buffered writes).
``miss-data``
    Miss stall not attributable to a finer cause: controller occupancy at
    the requester and the home's classification/response work.
``network-transit``
    Miss stall spent with the decisive message in the network (injection
    queueing + transit), request and grant leg.
``directory-occupancy``
    Miss stall between the request's arrival at the home and the home
    *serializing* it: controller occupancy, queueing behind other
    blocks, deferral behind a busy entry, waiting out a crossing
    writeback.
``inv-roundtrip``
    Miss stall the directory spent waiting for invalidation
    acknowledgments before it could respond (the grant's ``inval_wait``).
``ack-stall``
    Miss stall at the requester after a parallel grant, waiting for the
    directory's ACK_DONE.  Structural under the modeled SC/WC protocols:
    blocking plain accesses never receive parallel grants, so this total
    is normally zero — acknowledgment waiting surfaces as ``sync``
    (lock-word transfers) and ``write-buffer-stall`` instead.  Causal
    chains of sync transactions still show their ack-stall phase.
``write-buffer-stall``
    WC write-buffer pressure: full-buffer stalls, reads waiting on a
    buffered write, and sync-time drains.
``sync``
    Synchronization: lock/unlock/barrier waiting (including lock-word
    transfer) and the DSI sync-point flush.
``lease-expiry-reload``
    (Tardis) the entire stall of a read miss that only exists because
    the copy's lease expired — the cost side of timestamp
    self-invalidation.

**Conservation invariant** — for every node, the ten categories sum to
that node's execution time *exactly*.  :meth:`CausalInstrument.on_quiesce`
enforces it (like the PR 4 coherence audit) and raises
:class:`~repro.errors.AuditError` on any mismatch.  The check is exact
because both sides are integer cycle counts over the same run: the
processor's own :class:`~repro.stats.breakdown.Breakdown` already tiles
the node's time, and each blocking miss window is re-tiled here from the
transaction's causal marks, which telescope by construction.

Attribution rules:

* Only *blocking, non-sync* transactions contribute miss cycles (the
  processor is stalled on them, so their window equals its measured miss
  stall).  WC buffered writes overlap with execution and contribute
  nothing; lock-word transfers live inside ``sync``.
* A Tardis *renewal* (the cache held the block and only dropped it
  because the lease expired — flagged at MSHR allocation) attributes its
  whole window to ``lease-expiry-reload``.
* Tardis has no invalidations, so ``inv-roundtrip`` and ``ack-stall``
  are zero *by construction* — the accounting proves it per run instead
  of merely observing fewer messages.
"""

from collections import Counter

from repro.errors import AuditError
from repro.network.message import MsgKind
from repro.obs.instrument import Instrument

#: Schema version of the ``dsi-sim why`` JSON payload.
WHY_SCHEMA_VERSION = 1

#: The ten cycle-accounting categories, in display order.
CAUSAL_CATEGORIES = (
    "compute",
    "cache-hit",
    "miss-data",
    "network-transit",
    "directory-occupancy",
    "inv-roundtrip",
    "ack-stall",
    "write-buffer-stall",
    "sync",
    "lease-expiry-reload",
)

#: Categories fed by per-transaction miss-window tiling (the rest come
#: from the processor breakdown at quiesce).
MISS_CATEGORIES = (
    "miss-data",
    "network-transit",
    "directory-occupancy",
    "inv-roundtrip",
    "ack-stall",
    "lease-expiry-reload",
)

#: The INV-attributed subset (must be exactly zero under Tardis).
INV_CATEGORIES = ("inv-roundtrip", "ack-stall")

_REQUEST_KINDS = frozenset((MsgKind.GETS, MsgKind.GETX, MsgKind.UPGRADE))
_GRANT_KINDS = frozenset((MsgKind.DATA, MsgKind.DATA_EX, MsgKind.UPGRADE_ACK))


class TxnTrace:
    """One coherence transaction's causal marks.

    All times are simulated cycles.  ``None`` marks a hop that never
    happened (e.g. ``ack_done_send`` for an SC transaction)."""

    __slots__ = (
        "txn_id", "node", "block", "kind", "open", "blocking", "sync",
        "renewal", "req_send", "req_recv", "dir_node", "dir_begin",
        "grant_kind", "grant_send", "grant_recv", "inval_wait",
        "acks_pending", "ack_done_send", "ack_done_recv", "invs", "done",
        "segments",
    )

    def __init__(self, txn_id, node, block, kind, opened, blocking, sync, renewal):
        self.txn_id = txn_id
        self.node = node
        self.block = block
        self.kind = kind
        self.open = opened
        self.blocking = blocking
        self.sync = sync
        self.renewal = renewal
        self.req_send = None
        self.req_recv = None
        self.dir_node = None
        self.dir_begin = None
        self.grant_kind = None
        self.grant_send = None
        self.grant_recv = None
        self.inval_wait = 0
        self.acks_pending = False
        self.ack_done_send = None
        self.ack_done_recv = None
        self.invs = []  # [target, sent_at, acked_at | None]
        self.done = None
        self.segments = None  # [(category, cycles)] once finalized

    # ------------------------------------------------------------------
    @property
    def duration(self):
        if self.done is None:
            return 0
        return self.done - self.open

    @property
    def counted(self):
        """Whether this window entered the per-node miss totals."""
        return self.blocking and not self.sync

    def tile(self):
        """Tile the window ``[open, done]`` into labeled segments.

        The marks telescope: each boundary is clamped monotonically into
        the window, so the segment lengths always sum to the exact window
        length — the property the conservation check rests on.  A missing
        mark merges its would-be segment into the next present one."""
        t0, t1 = self.open, self.done
        if t1 <= t0:
            return []
        if self.renewal:
            return [("lease-expiry-reload", t1 - t0)]
        grant = self.grant_send
        marks = [
            ("miss-data", self.req_send),
            ("network-transit", self.req_recv),
            ("directory-occupancy", self.dir_begin),
        ]
        if grant is not None:
            marks.append(("miss-data", grant - self.inval_wait))
            marks.append(("inv-roundtrip", grant))
        marks.append(("network-transit", self.grant_recv))
        tail = "ack-stall" if self.acks_pending else "miss-data"
        segments = []
        prev = t0
        for label, at in marks:
            if at is None:
                continue
            at = min(max(at, prev), t1)
            if at > prev:
                segments.append((label, at - prev))
                prev = at
        if t1 > prev:
            segments.append((tail, t1 - prev))
        return segments

    # ------------------------------------------------------------------
    def chain(self):
        """The replayable causal chain: ``(time, node, description)``
        hops in time order."""
        hops = [(self.open, self.node, f"MSHR open ({self.kind}, blk {self.block})")]
        if self.req_send is not None:
            hops.append((self.req_send, self.node, "request injected"))
        if self.req_recv is not None:
            hops.append((self.req_recv, self.dir_node, "request at home"))
        if self.dir_begin is not None:
            hops.append((self.dir_begin, self.dir_node, "home serialized request"))
        for target, sent, acked in self.invs:
            hops.append((sent, self.dir_node, f"INV -> node {target}"))
            if acked is not None:
                hops.append((acked, self.dir_node, f"ack from node {target}"))
        if self.grant_send is not None:
            label = self.grant_kind or "grant"
            if self.inval_wait:
                label += f" (after {self.inval_wait} cycles of inv wait)"
            hops.append((self.grant_send, self.dir_node, f"{label} sent"))
        if self.grant_recv is not None:
            hops.append((self.grant_recv, self.node, "grant received"))
        if self.ack_done_send is not None:
            hops.append((self.ack_done_send, self.dir_node, "ACK_DONE sent"))
        if self.ack_done_recv is not None:
            hops.append((self.ack_done_recv, self.node, "ACK_DONE received"))
        if self.done is not None:
            hops.append((self.done, self.node, "transaction complete"))
        hops.sort(key=lambda hop: (hop[0] if hop[0] is not None else 0))
        return hops

    def flags(self):
        parts = []
        if not self.blocking:
            parts.append("non-blocking")
        if self.sync:
            parts.append("sync")
        if self.renewal:
            parts.append("lease-renewal")
        if self.acks_pending:
            parts.append("parallel-grant")
        return parts

    def as_dict(self):
        return {
            "txn": self.txn_id,
            "node": self.node,
            "block": self.block,
            "kind": self.kind,
            "open": self.open,
            "done": self.done,
            "cycles": self.duration,
            "counted": self.counted,
            "flags": self.flags(),
            "inval_wait": self.inval_wait,
            "invalidations": len(self.invs),
            "segments": [
                {"category": label, "cycles": cycles}
                for label, cycles in (self.segments or self.tile())
            ],
            "chain": [
                {"at": at, "node": node, "event": event}
                for at, node, event in self.chain()
            ],
        }

    def __repr__(self):
        return (
            f"TxnTrace(#{self.txn_id} {self.kind} blk={self.block} "
            f"node={self.node} {self.open}..{self.done})"
        )


class CausalInstrument(Instrument):
    """An :class:`Instrument` that rebuilds per-transaction causal DAGs
    and produces the exact cycle accounting behind ``dsi-sim why``.

    Strictly a consumer layer (the :class:`AnalyticsInstrument`
    contract): every override calls ``super()`` first and never touches
    simulator state, so instrumented runs stay bit-identical to bare
    ones — ``tests/test_obs.py`` proves it, fast path included.

    Parameters
    ----------
    max_txns:
        Bound on *retained* finished transactions (for top-K chains).
        Accounting totals are exact regardless — each transaction is
        folded into its node's category totals the moment it completes,
        before any retention decision.
    keep_txns:
        Optional iterable of txn ids retained unconditionally (the
        ``dsi-sim trace --txn`` replay path).
    """

    def __init__(self, max_txns=50_000, keep_txns=None, **kwargs):
        super().__init__(**kwargs)
        self.max_txns = max_txns
        self.keep_txns = frozenset(keep_txns or ())
        self._open_txns = {}
        self._kept = {}
        self.retained = []
        self.txns_dropped = 0
        self.txn_total = 0
        self.txn_blocking = 0
        self.txn_sync = 0
        self.txn_renewal = 0
        self.txn_unfinished = 0
        self._node_miss = {}
        self.accounting = None  # set at quiesce

    # ------------------------------------------------------------------
    # Probe overrides (super() first, read-only)
    # ------------------------------------------------------------------
    def mshr_open(self, node, block, kind, txn_id=None, blocking=False,
                  sync=False, renewal=False):
        super().mshr_open(node, block, kind, txn_id=txn_id, blocking=blocking,
                          sync=sync, renewal=renewal)
        if txn_id is None:
            return
        self.txn_total += 1
        if blocking:
            self.txn_blocking += 1
        if sync:
            self.txn_sync += 1
        if renewal:
            self.txn_renewal += 1
        self._open_txns[txn_id] = TxnTrace(
            txn_id, node, block, kind, self.now, blocking, sync, renewal
        )

    def message_send(self, msg, is_network):
        super().message_send(msg, is_network)
        if msg.txn_id is None:
            return
        txn = self._open_txns.get(msg.txn_id)
        if txn is None:
            return
        kind = msg.kind
        if kind in _REQUEST_KINDS:
            if txn.req_send is None:
                txn.req_send = self.now
        elif kind in _GRANT_KINDS:
            txn.grant_kind = kind.name
            txn.grant_send = self.now
            txn.inval_wait = msg.inval_wait
            txn.acks_pending = msg.acks_pending
        elif kind is MsgKind.ACK_DONE:
            txn.ack_done_send = self.now

    def message_receive(self, msg, is_network):
        super().message_receive(msg, is_network)
        if msg.txn_id is None:
            return
        txn = self._open_txns.get(msg.txn_id)
        if txn is None:
            return
        kind = msg.kind
        if kind in _REQUEST_KINDS:
            if txn.req_recv is None:
                txn.req_recv = self.now
        elif kind in _GRANT_KINDS:
            txn.grant_recv = self.now
        elif kind is MsgKind.ACK_DONE:
            txn.ack_done_recv = self.now

    def dir_txn_begin(self, home, block, kind, requester, txn_id=None):
        super().dir_txn_begin(home, block, kind, requester, txn_id=txn_id)
        if txn_id is None:
            return
        txn = self._open_txns.get(txn_id)
        if txn is not None:
            # Keep the *latest* serialization point: a request replayed
            # after a deferral drain or a crossing writeback is only
            # served then — the wait in between is directory occupancy.
            txn.dir_node = home
            txn.dir_begin = self.now

    def inv_sent(self, home, block, target, txn_id=None):
        super().inv_sent(home, block, target, txn_id=txn_id)
        if txn_id is None:
            return
        txn = self._open_txns.get(txn_id)
        if txn is not None:
            txn.invs.append([target, self.now, None])

    def inv_acked(self, home, block, target, txn_id=None):
        super().inv_acked(home, block, target, txn_id=txn_id)
        if txn_id is None:
            return
        txn = self._open_txns.get(txn_id)
        if txn is not None:
            for entry in txn.invs:
                if entry[0] == target and entry[2] is None:
                    entry[2] = self.now
                    break

    def txn_done(self, node, block, txn_id):
        super().txn_done(node, block, txn_id)
        txn = self._open_txns.pop(txn_id, None)
        if txn is None:
            return
        txn.done = self.now
        txn.segments = txn.tile()
        if txn.counted:
            totals = self._node_miss.get(txn.node)
            if totals is None:
                totals = self._node_miss[txn.node] = Counter()
            for label, cycles in txn.segments:
                totals[label] += cycles
        if txn.txn_id in self.keep_txns:
            self._kept[txn.txn_id] = txn
        elif len(self.retained) < self.max_txns:
            self.retained.append(txn)
        else:
            self.txns_dropped += 1

    # ------------------------------------------------------------------
    # Quiesce: assemble the accounting and enforce conservation
    # ------------------------------------------------------------------
    def on_quiesce(self, machine):
        super().on_quiesce(machine)
        self.txn_unfinished = len(self._open_txns)
        per_node = []
        failures = []
        for proc in machine.processors:
            node = proc.node
            breakdown = proc.breakdown
            finish = proc.finish_time or 0
            compute = int(proc.trace.gaps.sum()) if len(proc.trace) else 0
            cache_hit = breakdown.compute - compute
            miss = self._node_miss.get(node, Counter())
            categories = {category: 0 for category in CAUSAL_CATEGORIES}
            categories["compute"] = compute
            categories["cache-hit"] = cache_hit
            categories["sync"] = breakdown.sync + breakdown.dsi
            categories["write-buffer-stall"] = (
                breakdown.synch_wb + breakdown.read_wb + breakdown.wb_full
            )
            for label in MISS_CATEGORIES:
                categories[label] = miss.get(label, 0)
            total = sum(categories.values())
            miss_breakdown = (
                breakdown.read_inval + breakdown.read_other
                + breakdown.write_inval + breakdown.write_other
            )
            miss_tiled = sum(miss.values())
            if cache_hit < 0:
                failures.append(
                    f"node {node}: negative cache-hit residual {cache_hit}"
                )
            if miss_tiled != miss_breakdown:
                failures.append(
                    f"node {node}: tiled miss cycles {miss_tiled} != "
                    f"breakdown miss stall {miss_breakdown}"
                )
            if total != finish:
                failures.append(
                    f"node {node}: categories sum to {total}, "
                    f"exec time is {finish}"
                )
            per_node.append(
                {"node": node, "exec_time": finish, "categories": categories}
            )
        if failures:
            raise AuditError(
                "cycle accounting lost conservation:\n  " + "\n  ".join(failures)
            )
        totals = {category: 0 for category in CAUSAL_CATEGORIES}
        for entry in per_node:
            for category, cycles in entry["categories"].items():
                totals[category] += cycles
        self.accounting = {
            "exec_time": max(
                (entry["exec_time"] for entry in per_node), default=0
            ),
            "node_cycles": sum(entry["exec_time"] for entry in per_node),
            "categories": totals,
            "per_node": per_node,
        }
        return self.accounting

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def txn(self, txn_id):
        """A retained transaction by id (``None`` if unknown/dropped)."""
        kept = self._kept.get(txn_id)
        if kept is not None:
            return kept
        for txn in self.retained:
            if txn.txn_id == txn_id:
                return txn
        return None

    def top_transactions(self, top=10):
        """The costliest retained transactions: blocking windows first
        (they explain measured stall), widest first."""
        ranked = sorted(
            self.retained,
            key=lambda txn: (txn.counted, txn.duration, -txn.txn_id),
            reverse=True,
        )
        return ranked[:top]

    def why_report(self, workload=None, protocol=None, top=10):
        """The schema-versioned ``dsi-sim why`` payload."""
        if self.accounting is None:
            raise AuditError("why_report called before the machine quiesced")
        inv_cycles = sum(
            self.accounting["categories"][label] for label in INV_CATEGORIES
        )
        return {
            "schema_version": WHY_SCHEMA_VERSION,
            "workload": workload,
            "protocol": protocol,
            "exec_time": self.accounting["exec_time"],
            "node_cycles": self.accounting["node_cycles"],
            "categories": dict(self.accounting["categories"]),
            "inv_attributed_cycles": inv_cycles,
            "per_node": self.accounting["per_node"],
            "transactions": {
                "total": self.txn_total,
                "blocking": self.txn_blocking,
                "sync": self.txn_sync,
                "lease_renewals": self.txn_renewal,
                "unfinished": self.txn_unfinished,
                "retained": len(self.retained),
                "dropped": self.txns_dropped,
            },
            "conservation": {
                "ok": True,
                "nodes": len(self.accounting["per_node"]),
            },
            "top": [txn.as_dict() for txn in self.top_transactions(top)],
        }


def diff_why(base, other):
    """Mechanistic two-variant diff of two ``why_report`` payloads.

    Positive deltas mean ``other`` spends *more* cycles there than
    ``base`` — e.g. base→DSI-V should show a negative ``inv-roundtrip``
    delta bought with a positive ``miss-data``/``compute``-relative
    share, and base→Tardis drives both INV categories to zero."""
    categories = {}
    for label in CAUSAL_CATEGORIES:
        b = base["categories"].get(label, 0)
        o = other["categories"].get(label, 0)
        categories[label] = {"base": b, "other": o, "delta": o - b}
    return {
        "schema_version": WHY_SCHEMA_VERSION,
        "workload": base.get("workload"),
        "base": base.get("protocol"),
        "other": other.get("protocol"),
        "exec_time": {
            "base": base["exec_time"],
            "other": other["exec_time"],
            "delta": other["exec_time"] - base["exec_time"],
        },
        "inv_attributed_cycles": {
            "base": base["inv_attributed_cycles"],
            "other": other["inv_attributed_cycles"],
            "delta": other["inv_attributed_cycles"] - base["inv_attributed_cycles"],
        },
        "categories": categories,
    }


def format_txn(txn, width=72):
    """ASCII rendering of one transaction: header, causal chain, and the
    tiled segment bar (the ``trace --txn`` / ``why`` chain view)."""
    flags = txn.flags()
    suffix = f" [{', '.join(flags)}]" if flags else ""
    lines = [
        f"txn #{txn.txn_id}: {txn.kind} blk {txn.block} @ node {txn.node}, "
        f"{txn.open}..{txn.done} ({txn.duration} cycles){suffix}"
    ]
    for at, node, event in txn.chain():
        where = f"n{node}" if node is not None else "--"
        lines.append(f"  {at:>10}  {where:>4}  {event}")
    segments = txn.segments or txn.tile()
    if segments:
        total = sum(cycles for _, cycles in segments) or 1
        lines.append("  segments:")
        for label, cycles in segments:
            bar = "#" * max(1, round(cycles * min(width, 40) / total))
            lines.append(f"    {label:<20} {cycles:>10}  {bar}")
        if not txn.counted:
            lines.append(
                "    (window overlaps execution or sync; "
                "not counted in miss totals)"
            )
    return "\n".join(lines)


def format_why(report, diff=None):
    """ASCII rendering of a ``why_report`` payload (and optional diff)."""
    from repro.stats.report import format_table

    lines = [
        f"why: {report['workload']} / {report['protocol']} — "
        f"exec_time {report['exec_time']}, "
        f"{report['conservation']['nodes']} nodes, conservation OK"
    ]
    node_cycles = report["node_cycles"] or 1
    rows = []
    for label in CAUSAL_CATEGORIES:
        cycles = report["categories"].get(label, 0)
        rows.append([label, cycles, f"{100.0 * cycles / node_cycles:.1f}%"])
    lines.append(format_table(["category", "cycles", "share"], rows))
    txns = report["transactions"]
    lines.append(
        f"transactions: {txns['total']} total, {txns['blocking']} blocking, "
        f"{txns['sync']} sync, {txns['lease_renewals']} lease renewals, "
        f"{txns['dropped']} dropped past retention"
    )
    if diff is not None:
        lines.append(
            f"\ndiff vs {diff['base']}: exec_time "
            f"{diff['exec_time']['base']} -> {diff['exec_time']['other']} "
            f"({diff['exec_time']['delta']:+d})"
        )
        rows = [
            [
                label,
                diff["categories"][label]["base"],
                diff["categories"][label]["other"],
                f"{diff['categories'][label]['delta']:+d}",
            ]
            for label in CAUSAL_CATEGORIES
        ]
        lines.append(format_table(["category", diff["base"], diff["other"], "delta"], rows))
    return "\n".join(lines)
