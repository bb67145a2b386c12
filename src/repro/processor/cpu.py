"""The trace-driven processor model.

Each processor walks its trace, folding compute gaps and cache hits into
*computation* time, and blocking (or, under WC, buffering) on everything
else.  To keep the event count proportional to misses rather than
references, runs of hits are batched: the processor advances its local
time privately and re-synchronizes with the global event queue whenever
it blocks or after ``config.quantum`` cycles — the same bounded-lookahead
approach the Wisconsin Wind Tunnel used (its quantum was the 100-cycle
network latency).  Every *blocking* operation is realigned to the exact
cycle first, so stall accounting is precise.

Every hit goes through the controller's ``try_read``/``try_write``, so
the one hit path is also the one the coherence monitor and Tardis see.
The per-op overhead around it is kept small by walking the trace as
Python lists: the processor converts it window by window (``CHUNK`` ops
at a time — gaps, kinds and block numbers) instead of indexing numpy
scalars per op, and instead of converting the whole trace up front,
which would hold every processor's trace as Python ints at once.

Stall attribution follows the paper's Figure 3 categories: the directory
reports how long it waited for invalidation acknowledgments before
responding (``inval_wait``), which becomes read/write *invalidation* time;
the rest of a miss is read/write *other*; synchronization operations
accumulate ``synch_wb`` (write-buffer drain), ``dsi`` (self-invalidation
flush) and ``sync`` (lock/barrier waiting, including lock-word transfer).
"""

from repro.stats.breakdown import Breakdown
from repro.trace.ops import OP_LOCK, OP_READ, OP_UNLOCK, OP_WRITE

#: ops per trace window converted to Python lists (see the module docstring)
CHUNK = 4096


class StampSource:
    """Globally increasing write stamps (the simulated "data")."""

    __slots__ = ("_next",)

    def __init__(self):
        self._next = 0

    def next(self):
        self._next += 1
        return self._next


class Processor:
    """One trace-driven CPU."""

    def __init__(self, sim, config, node, controller, trace, locks, barrier, stamps,
                 instrument=None):
        self.sim = sim
        self.node = node
        self.controller = controller
        self.trace = trace
        self.locks = locks
        self.barrier = barrier
        self.stamps = stamps
        self.obs = instrument
        self.block_shift = config.block_shift
        self.hit_cycles = config.cache_hit_cycles
        self.quantum = max(1, config.quantum)
        self.breakdown = Breakdown()
        self.idx = 0  # global trace index of the next op
        self._gap_charged = False
        self._stall_start = 0
        self.finished = False
        self.finish_time = None
        # The current trace window: ops [_base, _base + len(_kinds)) as lists.
        self._base = 0
        self._gaps = self._kinds = self._blocks = []

    def start(self):
        self.sim.schedule(0, self._run)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _load_window(self, idx):
        trace = self.trace
        end = idx + CHUNK
        self._base = idx
        self._gaps = trace.gaps[idx:end].tolist()
        self._kinds = trace.kinds[idx:end].tolist()
        self._blocks = (trace.addrs[idx:end] >> self.block_shift).tolist()

    def _run(self):
        sim = self.sim
        ctrl = self.controller
        try_read, try_write = ctrl.try_read, ctrl.try_write
        next_stamp = self.stamps.next
        breakdown = self.breakdown
        quantum = self.quantum
        hit_cycles = self.hit_cycles
        base = self._base
        gaps, kinds, blocks = self._gaps, self._kinds, self._blocks
        n = len(kinds)
        i = self.idx - base  # window-local index; self.idx = base + i on exit
        charged = self._gap_charged
        elapsed = 0
        while True:
            if i >= n:
                idx = base + i
                if idx >= len(self.trace):
                    if elapsed:
                        break
                    self.idx = idx
                    self._finish()
                    return
                self._load_window(idx)
                base = idx
                gaps, kinds, blocks = self._gaps, self._kinds, self._blocks
                n = len(kinds)
                i = 0
            if not charged:
                elapsed += gaps[i]
                charged = True
                if elapsed >= quantum:
                    break
            kind = kinds[i]
            if kind == OP_READ:
                if try_read(blocks[i]):
                    elapsed += hit_cycles
                    i += 1
                    charged = False
                    if elapsed >= quantum:
                        break
                    continue
                if elapsed:
                    break
                self._stall(base + i)
                ctrl.read(blocks[i], self._read_done)
                return
            if kind == OP_WRITE:
                if try_write(blocks[i], next_stamp()):
                    elapsed += hit_cycles
                    i += 1
                    charged = False
                    if elapsed >= quantum:
                        break
                    continue
                if elapsed:
                    break
                self._stall(base + i)
                if ctrl.write(blocks[i], next_stamp(), self._write_done) == "wait":
                    return
                # WC: the write was buffered and its request issued.
                elapsed += hit_cycles
                i += 1
                charged = False
                continue
            # Synchronization operation: always realign first.
            if elapsed:
                break
            self._stall(base + i)
            self._do_sync(kind, int(self.trace.addrs[base + i]))
            return
        # Re-enter the event queue after ``elapsed`` cycles of hits and gaps.
        self.idx = base + i
        self._gap_charged = charged
        breakdown.compute += elapsed
        sim.schedule(elapsed, self._run)

    def _stall(self, idx):
        """Block on op ``idx`` (its gap charged) at the current cycle."""
        self.idx = idx
        self._gap_charged = True
        self._stall_start = self.sim.now

    # ------------------------------------------------------------------
    # Completion callbacks
    # ------------------------------------------------------------------
    def _advance(self):
        self.idx += 1
        self._gap_charged = False
        self.sim.schedule(0, self._run)

    def _read_done(self, inval_wait, reason):
        stall = self.sim.now - self._stall_start
        breakdown = self.breakdown
        if reason == "read_wb":
            breakdown.read_wb += stall
        else:
            inval = min(inval_wait, stall)
            breakdown.read_inval += inval
            breakdown.read_other += stall - inval
        self._advance()

    def _write_done(self, inval_wait, reason):
        stall = self.sim.now - self._stall_start
        breakdown = self.breakdown
        if reason == "wb_full":
            breakdown.wb_full += stall
        else:
            inval = min(inval_wait, stall)
            breakdown.write_inval += inval
            breakdown.write_other += stall - inval
        self._advance()

    # ------------------------------------------------------------------
    # Synchronization operations
    # ------------------------------------------------------------------
    def _do_sync(self, kind, addr):
        sim = self.sim
        breakdown = self.breakdown
        drain_start = sim.now
        if self.obs is not None:
            name = "lock" if kind == OP_LOCK else ("unlock" if kind == OP_UNLOCK else "barrier")
            self.obs.sync_enter(self.node, name)

        def drained():
            breakdown.synch_wb += sim.now - drain_start
            flush_start = sim.now

            def flushed():
                breakdown.dsi += sim.now - flush_start
                if kind == OP_LOCK:
                    self._lock(addr)
                elif kind == OP_UNLOCK:
                    self._unlock(addr)
                else:
                    self._barrier(addr)

            self.controller.flush_si(flushed)

        self.controller.drain_wb(drained)

    def _sync_write(self, block, done):
        status = self.controller.sync_write(
            block, self.stamps.next(), lambda _iw, _reason: done()
        )
        if status == "done":
            done()

    def _lock(self, addr):
        sim = self.sim
        start = sim.now
        block = addr >> self.block_shift

        def after_swap():
            if self.locks.acquire(addr, self.node, granted):
                self.breakdown.sync += sim.now - start
                if self.obs is not None:
                    self.obs.sync_exit(self.node, "lock")
                self._advance()

        def granted():
            # Handed the lock: the holder's release write invalidated our
            # copy of the lock word, so swap it back in.
            self._sync_write(block, finish)

        def finish():
            self.breakdown.sync += sim.now - start
            if self.obs is not None:
                self.obs.sync_exit(self.node, "lock")
            self._advance()

        self._sync_write(block, after_swap)

    def _unlock(self, addr):
        sim = self.sim
        start = sim.now
        block = addr >> self.block_shift

        def after_release():
            self.locks.release(addr, self.node)
            self.breakdown.sync += sim.now - start
            if self.obs is not None:
                self.obs.sync_exit(self.node, "unlock")
            self._advance()

        self._sync_write(block, after_release)

    def _barrier(self, barrier_id):
        sim = self.sim
        start = sim.now

        def released():
            self.breakdown.sync += sim.now - start
            if self.obs is not None:
                self.obs.sync_exit(self.node, "barrier")
            self._advance()

        self.barrier.arrive(self.node, barrier_id, released)

    # ------------------------------------------------------------------
    def _finish(self):
        drain_start = self.sim.now

        def drained():
            self.breakdown.synch_wb += self.sim.now - drain_start
            self.finished = True
            self.finish_time = self.sim.now

        self.controller.drain_wb(drained)

    def deadlock_diagnostic(self):
        if not self.finished:
            return f"proc {self.node}: stopped at op {self.idx}/{len(self.trace)}"
        return None
