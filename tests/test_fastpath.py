"""Direct-execution fast-path boundary behaviour.

The batcher (:mod:`repro.processor.fastpath`) must hand control back to
the interpreted loop at exactly the right ops: the first miss, the first
touch of a DSI-marked or tear-off block, the first write-buffer
interaction, and every synchronization operation.  These tests pin that
boundary two ways:

* **Probe-sequence equality** — a recording instrument captures every
  timestamped probe (transitions, messages, fills, self-invalidations,
  write-buffer and sync events) from a batched run and an interpreted
  run of the same deterministic trace; the sequences must be identical.
  Since the interpreted hit path fires no probes, any op the batcher
  wrongly retires (or wrongly hands off at a different cycle) shows up
  as a sequence difference.
* **Counter arithmetic** — on traces simple enough to reason about
  exactly, the batcher's ``retired_ops`` / ``handoffs`` / ``boundaries``
  counters are asserted against hand-computed values.
"""

from dataclasses import replace

import pytest

from repro.config import Consistency, IdentifyScheme, SIMechanism, SystemConfig
from repro.engine.simulator import Simulator
from repro.network.message import Message
from repro.obs.instrument import Instrument
from repro.stats.record import RunRecord
from repro.system import ENGINE_LAYERS, Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program

BLOCK = 32  # bytes per block (config default)
SEGMENT = 1 << 22  # bytes per home segment (repro.memory.address)


def _addr(block, segment=0):
    # ``home_exclusion`` (on by default) exempts locally-homed blocks
    # from DSI, so blocks that must earn marked/tear-off grants for
    # processor 0 have to live in another processor's segment.
    return segment * SEGMENT + block * BLOCK


# ---------------------------------------------------------------------------
# Probe recording
# ---------------------------------------------------------------------------

_PROBES = (
    "message_send",
    "message_receive",
    "cache_fill",
    "cache_evict",
    "cache_self_invalidate",
    "protocol_transition",
    "mshr_open",
    "mshr_close",
    "dir_grant",
    "inv_sent",
    "inv_acked",
    "fifo_push",
    "fifo_pop",
    "fifo_overflow",
    "wb_fill",
    "wb_drain",
    "sync_enter",
    "sync_exit",
)


def _plain(value):
    if isinstance(value, Message):
        return (value.kind.name, value.block, value.src, value.dst)
    return value


class ProbeRecorder(Instrument):
    """Instrument that keeps the full timestamped probe sequence."""

    def __init__(self):
        super().__init__()
        self.seq = []


def _recording(name, original):
    def probe(self, *args, **kwargs):
        entry = (self.now, name) + tuple(_plain(a) for a in args)
        if kwargs:
            entry += tuple(sorted((k, _plain(v)) for k, v in kwargs.items()))
        self.seq.append(entry)
        return original(self, *args, **kwargs)

    return probe


for _name in _PROBES:
    setattr(ProbeRecorder, _name, _recording(_name, getattr(Instrument, _name)))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _run(config, program, record_probes=False):
    instrument = ProbeRecorder() if record_probes else None
    machine = Machine(config, program, instrument=instrument)
    result = machine.run()
    return machine, RunRecord.from_result(result), instrument


def _reference(config):
    return replace(config, compiled_dispatch=False, direct_execution=False)


def _fastpaths(machine):
    return [p._fast for p in machine.processors]


# ---------------------------------------------------------------------------
# Exact counter arithmetic on single-processor traces
# ---------------------------------------------------------------------------


class TestExactBoundaries:
    def test_private_hit_run_fully_retired(self):
        # write A (cold miss, scalar), then 100 reads of A (all retired).
        builder = TraceBuilder().write(_addr(5))
        for _ in range(100):
            builder.read(_addr(5))
        program = Program("private", [builder.build()])
        config = SystemConfig(n_processors=1, quantum=1000)
        machine, record, _ = _run(config, program)
        fast = _fastpaths(machine)[0]
        assert fast is not None  # never bailed out
        assert fast.retired_ops == 100
        assert fast.handoffs == 1  # exactly the cold miss
        assert fast.boundaries == 0  # quantum never reached
        assert record.misses.read_hits == 100
        # And the interpreted run agrees on everything measured.
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record

    def test_hit_boundary_reenters_event_queue(self):
        # 100 reads x 1 cycle against quantum=10: the batcher must stop at
        # every quantum boundary exactly as the interpreted loop does.
        builder = TraceBuilder().write(_addr(5))
        for _ in range(100):
            builder.read(_addr(5))
        program = Program("quantum", [builder.build()])
        config = SystemConfig(n_processors=1, quantum=10)
        machine, record, _ = _run(config, program)
        fast = _fastpaths(machine)[0]
        assert fast.retired_ops == 100
        assert fast.boundaries == 10  # 100 hit cycles / 10-cycle quantum
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired

    def test_gap_boundary_carries_gap_charge(self):
        # Gaps of 7 + 1 hit cycle against quantum=10: boundaries land
        # mid-gap, exercising the gap-charged carry path.
        builder = TraceBuilder().write(_addr(5))
        for _ in range(50):
            builder.compute(7).read(_addr(5))
        program = Program("gaps", [builder.build()])
        config = SystemConfig(n_processors=1, quantum=10)
        machine, record, _ = _run(config, program)
        fast = _fastpaths(machine)[0]
        assert fast.retired_ops == 50
        assert fast.boundaries > 0
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired

    def test_miss_dominated_stream_bails_out(self):
        # Reads of 6000 distinct blocks: nothing ever re-hits (capacity
        # misses), so after the first window the batcher must unplug
        # itself — and the record must not change.
        builder = TraceBuilder()
        for i in range(6000):
            builder.read(_addr(1000 + 7 * i))
        program = Program("colds", [builder.build()])
        config = SystemConfig(n_processors=1)
        machine, record, _ = _run(config, program)
        assert _fastpaths(machine)[0] is None  # bailed out mid-run
        _, ref_record, _ = _run(_reference(config), program)
        assert record == ref_record


# ---------------------------------------------------------------------------
# The full boundary soup: tear-off reads, FIFO self-invalidation,
# write-buffer stalls, locks — probe-for-probe against the interpreter
# ---------------------------------------------------------------------------


def _boundary_program():
    """Two processors alternating private hits with every handoff cause.

    Processor 1 produces shared blocks under a lock; processor 0 consumes
    them (the repeated invalidate-then-remiss pattern drives the version
    scheme to grant tear-off copies), with runs of private hits in
    between, enough distinct writes to overflow a 2-entry write buffer,
    and more marked blocks than a 4-entry FIFO holds.
    """
    shared = [_addr(100 + i, segment=1) for i in range(10)]
    lock = _addr(900, segment=1)

    p0 = TraceBuilder()
    p1 = TraceBuilder()
    for round_no in range(6):
        # Producer: update every shared block under the lock.
        p1.lock(lock)
        for addr in shared:
            p1.write(addr)
        p1.unlock(lock)
        # Consumer: a run of private hits, then read all shared blocks
        # (cold/coherence misses, later tear-off grants), then a burst of
        # private writes that outruns the write buffer.
        private = _addr(200 + 16 * round_no)
        p0.write(private)
        for _ in range(20):
            p0.read(private)
        p0.lock(lock)
        for addr in shared:
            p0.read(addr)
        if round_no % 2:
            # Write rounds (back half only, so the front half keeps its
            # read-only history and earns tear-off grants): identified
            # blocks granted exclusive carry the s bit, not tear-off, so
            # they enter the 4-entry FIFO — six of them force overflow
            # self-invalidations.
            for addr in shared[4:]:
                p0.write(addr)
        p0.unlock(lock)
        for i in range(6):
            p0.write(_addr(300 + 32 * round_no + i))
        p0.barrier(round_no)
        p1.barrier(round_no)
    return Program("boundary", [p0.build(), p1.build()])


def _boundary_config():
    return SystemConfig(
        n_processors=2,
        consistency=Consistency.WC,
        identify=IdentifyScheme.VERSION,
        si_mechanism=SIMechanism.FIFO,
        tearoff=True,
        fifo_entries=4,
        write_buffer_entries=2,
    )


class TestBoundarySoup:
    @pytest.fixture(scope="class")
    def runs(self):
        program = _boundary_program()
        config = _boundary_config()
        fast = _run(config, program, record_probes=True)
        ref = _run(_reference(config), program, record_probes=True)
        return fast, ref

    def test_scenario_exercises_every_handoff_cause(self, runs):
        (machine, record, instrument), _ = runs
        fast = _fastpaths(machine)[0]
        assert fast is not None and fast.retired_ops > 0  # private hits batched
        assert fast.handoffs > 0
        assert record.misses.fifo_overflows > 0  # FIFO self-invalidation
        assert instrument.counts["cache_fill_tearoff"] > 0  # tear-off grants
        assert instrument.counts["wb_fill"] > 0  # write buffer touched
        assert sum(b.wb_full for b in record.breakdowns) > 0  # ...and stalled
        assert instrument.counts["self_invalidate"] > 0

    def test_probe_sequences_identical(self, runs):
        (_, _, fast_inst), (_, _, ref_inst) = runs
        assert fast_inst.seq, "no probes recorded"
        # Timestamped probe-for-probe equality: the batcher handed off at
        # exactly the ops — and cycles — the interpreted loop blocked at.
        assert fast_inst.seq == ref_inst.seq

    def test_records_identical(self, runs):
        (_, fast_record, _), (_, ref_record, _) = runs
        assert fast_record == ref_record
        assert fast_record.events_fired == ref_record.events_fired


# ---------------------------------------------------------------------------
# Composition with the bucketed queue and the lanes
# ---------------------------------------------------------------------------


class TestRelaxedComposition:
    """The batcher rides on top of the bucketed queue and the lanes.

    The fast path and the queue/lanes optimize different layers — hit
    retirement versus transaction plumbing — and a default machine must
    keep batching hits while its record stays bit-identical to the
    interpreted oracle's (probe recording is unavailable here: an
    instrument turns the queue and the lanes off, which is itself
    asserted below)."""

    def _program(self, quantum):
        # Hit runs sized exactly to the quantum, a sync op landing on the
        # batch edge, then a cross-processor read that bails the batcher
        # into the transaction lanes.
        builders = [TraceBuilder(), TraceBuilder()]
        for node, builder in enumerate(builders):
            mine = _addr(3 + node, segment=node)
            builder.write(mine)
            for _ in range(quantum):
                builder.read(mine)
            builder.barrier(0)
            builder.read(_addr(3 + (1 - node), segment=1 - node))
            builder.barrier(1)
        return Program("lanes-edge", [b.build() for b in builders])

    def test_batcher_active_and_observationally_equal(self):
        for quantum in (4, 8):
            program = self._program(quantum)
            config = SystemConfig(n_processors=2, quantum=quantum)
            machine, record, _ = _run(config, program)
            assert machine.layers == ENGINE_LAYERS
            fasts = _fastpaths(machine)
            assert all(f is not None and f.retired_ops >= quantum for f in fasts)
            assert all(f.handoffs > 0 for f in fasts)  # sync + remote miss
            _, ref_record, _ = _run(_reference(config), program)
            assert record == ref_record, f"quantum={quantum} diverged"

    def test_instrumented_relaxed_run_downgrades_and_stays_exact(self):
        program = self._program(4)
        config = SystemConfig(n_processors=2, quantum=4)
        machine, record, instrument = _run(config, program, record_probes=True)
        assert not machine.layers  # instrument turns the queue and lanes off
        assert type(machine.sim) is Simulator
        _, ref_record, ref_instrument = _run(_reference(config), program, record_probes=True)
        assert record == ref_record
        assert instrument.seq == ref_instrument.seq
