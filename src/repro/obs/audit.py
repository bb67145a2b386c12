"""Runtime message accounting and the quiesce-time coherence audit.

The PR that introduced ``repro.coherence.explore`` proved the protocol's
invariants over a *bounded model*; this module turns the same claims into
always-on (when instrumented) runtime assertions over *actual runs*:

:class:`MessageLedger`
    Fed from the ``message_send``/``message_receive`` probes.  Every
    receive must match an earlier send on the same ``(kind, src, dst,
    block)`` channel, every INV_ACK/INV_ACK_DATA must answer an INV the
    home actually issued, and at quiesce nothing may remain outstanding.

:func:`audit_coherence`
    Walks the quiesced machine and cross-checks every directory entry
    against the caches: an Exclusive entry's owner must hold the only
    copy in E, a Shared entry's sharer bits must match the valid
    non-tear-off S copies, an Idle entry must have no tracked copies, and
    no MSHR, busy entry or deferred queue may survive the last processor.
    Each cache's block index must equal a scan of its sets' valid frames.
    Tear-off copies (§3.3) are deliberately untracked by the full map and
    are exempt.

Failures raise :class:`~repro.errors.AuditError` with a block-level diff
— loud, specific, and pointing at the first divergent block.
"""

from collections import Counter

from repro.directory.state import DIR_EXCLUSIVE, DIR_SHARED
from repro.errors import AuditError
from repro.network.message import MsgKind

_ACKS = (MsgKind.INV_ACK, MsgKind.INV_ACK_DATA)


class MessageLedger:
    """Send/receive and INV/ack double-entry bookkeeping.

    ``on_send``/``on_receive`` raise immediately on an impossible event
    (an acknowledgment for an invalidation that was never sent, a receive
    with no matching send); :meth:`check_quiesced` raises if anything is
    still outstanding once the machine has quiesced.
    """

    __slots__ = ("outstanding", "inv_pending", "sends", "receives")

    def __init__(self):
        self.outstanding = Counter()  # (kind name, src, dst, block) -> in flight
        self.inv_pending = Counter()  # (home, target, block) -> unacked INVs
        self.sends = 0
        self.receives = 0

    def on_send(self, msg, now):
        self.sends += 1
        self.outstanding[(msg.kind.name, msg.src, msg.dst, msg.block)] += 1
        if msg.kind is MsgKind.INV:
            self.inv_pending[(msg.src, msg.dst, msg.block)] += 1
        elif msg.kind in _ACKS:
            key = (msg.dst, msg.src, msg.block)
            if not self.inv_pending[key]:
                raise AuditError(
                    f"cycle {now}: node {msg.src} acknowledged an invalidation "
                    f"of block {msg.block} that home {msg.dst} never sent"
                )
            self.inv_pending[key] -= 1

    def on_receive(self, msg, now):
        self.receives += 1
        key = (msg.kind.name, msg.src, msg.dst, msg.block)
        if not self.outstanding[key]:
            raise AuditError(
                f"cycle {now}: {msg.kind.name} {msg.src}->{msg.dst} "
                f"(block {msg.block}) received but never sent"
            )
        self.outstanding[key] -= 1

    def check_quiesced(self):
        """Raise unless every send was received and every INV acknowledged;
        returns the matched totals."""
        lost = sorted((key, n) for key, n in self.outstanding.items() if n)
        unacked = sorted((key, n) for key, n in self.inv_pending.items() if n)
        if lost or unacked:
            lines = [
                f"{kind} {src}->{dst} (block {block}) x{n} sent but never received"
                for (kind, src, dst, block), n in lost
            ]
            lines += [
                f"INV {home}->{target} (block {block}) x{n} never acknowledged"
                for (home, target, block), n in unacked
            ]
            raise AuditError(
                "message ledger unbalanced at quiesce:\n  " + "\n  ".join(lines)
            )
        return {"sends": self.sends, "receives": self.receives}


def _holders(copies):
    """Tracked {node: state letter} among actual cache copies (tear-off
    copies are untracked by design and excluded)."""
    return {
        node: state
        for node, (state, _dirty, _s_bit, tearoff) in copies.items()
        if not tearoff
    }


def _fmt(holding):
    if not holding:
        return "no tracked copies"
    return ", ".join(f"node {node}:{state}" for node, state in sorted(holding.items()))


def audit_coherence(machine):
    """Cross-check the full map against the caches of a quiesced machine.

    Raises :class:`~repro.errors.AuditError` with one diff line per
    divergent block; returns ``{"blocks": ..., "copies": ...}`` counts on
    success.

    Under Tardis the full map tracks only the exclusive owner — leased
    shared copies are deliberately untracked (that is the protocol's whole
    point), so the audit compares E copies only: an Exclusive entry's
    owner must hold the sole E copy, and no E copy may exist anywhere the
    directory does not record an owner.  Leased S copies are legal
    everywhere, including for blocks with no directory entry.
    """
    tardis = machine.config.tardis
    problems = []
    copies_by_block = {}
    for controller in machine.controllers:
        if controller.mshrs:
            problems.append(
                f"cache {controller.node}: MSHRs still open at quiesce for "
                f"blocks {sorted(controller.mshrs)}"
            )
        cache = controller.cache
        scanned = cache.valid_blocks()
        if cache.index != scanned:
            stale = sorted(set(cache.index.items()) ^ set(scanned.items()))
            problems.append(
                f"cache {controller.node}: block index disagrees with its sets "
                f"on blocks {sorted({block for block, _frame in stale})}"
            )
        for block, copy in cache.snapshot().items():
            copies_by_block.setdefault(block, {})[controller.node] = copy
    blocks = copies = 0
    known = set()
    for directory in machine.directories:
        for block, entry in sorted(directory.entries.items()):
            blocks += 1
            known.add(block)
            if entry.busy:
                problems.append(
                    f"block {block}: directory {directory.node} transaction "
                    f"still busy at quiesce"
                )
            if entry.deferred:
                problems.append(
                    f"block {block}: {len(entry.deferred)} request(s) still "
                    f"deferred at directory {directory.node}"
                )
            actual = copies_by_block.get(block, {})
            copies += len(actual)
            tracked = _holders(actual)
            if tardis:
                tracked = {node: s for node, s in tracked.items() if s == "E"}
                expected = {entry.owner: "E"} if entry.state == DIR_EXCLUSIVE else {}
            elif entry.state == DIR_EXCLUSIVE:
                expected = {entry.owner: "E"}
            elif entry.state == DIR_SHARED:
                expected = {node: "S" for node in entry.sharer_list()}
            else:
                expected = {}
            if tracked != expected:
                problems.append(
                    f"block {block}: directory {directory.node} says "
                    f"{entry.state_name()} ({_fmt(expected)}) but caches hold "
                    f"{_fmt(tracked)}"
                )
    for block, actual in sorted(copies_by_block.items()):
        if block in known:
            continue
        tracked = _holders(actual)
        if tardis:
            tracked = {node: s for node, s in tracked.items() if s == "E"}
        if tracked:
            problems.append(
                f"block {block}: cached ({_fmt(tracked)}) but has no "
                f"directory entry"
            )
    if problems:
        raise AuditError(
            "coherence audit failed at quiesce:\n  " + "\n  ".join(problems)
        )
    return {"blocks": blocks, "copies": copies}
