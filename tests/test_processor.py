"""Processor model: trace walking, quantum batching, stall accounting."""

import pytest

import repro.processor.cpu as cpu
from conftest import seg_addr, tiny_config
from repro.config import Consistency, IdentifyScheme, SIMechanism, SystemConfig
from repro.errors import SimulationError
from repro.harness.configs import paper_config
from repro.harness.equivalence import reference_config
from repro.network.message import Message
from repro.obs.instrument import Instrument
from repro.stats.breakdown import CATEGORIES, Breakdown
from repro.stats.record import RunRecord
from repro.system import Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import OP_BARRIER, OP_LOCK, Program


def one_proc(build, **config_over):
    builder = TraceBuilder()
    build(builder)
    program = Program("p", [builder.build()])
    config = tiny_config(n_procs=1, **config_over)
    machine = Machine(config, program)
    result = machine.run()
    return result


class TestComputeAccounting:
    def test_pure_compute(self):
        result = one_proc(lambda b: b.compute(500).read(seg_addr(0)))
        assert result.breakdowns[0].compute == 500
        assert result.exec_time == 500 + 18  # compute + local miss

    def test_empty_trace_finishes_at_zero(self):
        result = one_proc(lambda b: None)
        assert result.exec_time == 0
        assert result.breakdowns[0].total() == 0

    def test_gap_charged_once_across_stalls(self):
        result = one_proc(lambda b: b.compute(100).write(seg_addr(0)))
        assert result.breakdowns[0].compute == 100

    def test_every_cycle_attributed(self):
        """exec time == sum of all breakdown categories (single proc)."""

        def build(b):
            b.compute(50)
            for i in range(5):
                b.read(seg_addr(0, 32 * i)).write(seg_addr(0, 32 * i)).compute(9)

        result = one_proc(build)
        assert result.breakdowns[0].total() == result.exec_time


class TestQuantum:
    @pytest.mark.parametrize("quantum", [1, 10, 100, 1000])
    def test_single_proc_timing_independent_of_quantum(self, quantum):
        def build(b):
            b.compute(37)
            for i in range(20):
                b.read(seg_addr(0, 32 * (i % 4))).compute(13)

        results = one_proc(build, quantum=quantum)
        reference = one_proc(build, quantum=1)
        assert results.exec_time == reference.exec_time
        assert results.breakdowns[0].as_dict() == reference.breakdowns[0].as_dict()

    def test_batching_reduces_events(self):
        def build(b):
            for i in range(200):
                b.read(seg_addr(0)).compute(3)

        precise = one_proc(build, quantum=1)
        batched = one_proc(build, quantum=100)
        assert batched.events_fired < precise.events_fired

    def test_multiproc_quantum_changes_timing_only_slightly(self):
        """Quantum batching is the WWT approximation: cross-processor
        timing may shift within a quantum but results stay close."""
        builders = [TraceBuilder(), TraceBuilder()]
        for i in range(50):
            builders[0].write(seg_addr(0, 32 * (i % 4))).compute(7)
            builders[1].read(seg_addr(0, 32 * (i % 4))).compute(5)
        for builder in builders:
            builder.barrier(0)
        program = Program("q", [b.build() for b in builders])
        precise = Machine(tiny_config(n_procs=2, quantum=1), program).run()
        batched = Machine(tiny_config(n_procs=2, quantum=100, check_invariants=False), program).run()
        assert abs(batched.exec_time - precise.exec_time) / precise.exec_time < 0.25


class TestBreakdownClass:
    def test_categories_complete(self):
        assert "compute" in CATEGORIES and "dsi" in CATEGORIES
        breakdown = Breakdown()
        assert breakdown.total() == 0

    def test_add_and_merge(self):
        a = Breakdown()
        a.add("compute", 10)
        b = Breakdown()
        b.add("compute", 5)
        b.add("sync", 2)
        a.merge(b)
        assert a.compute == 15 and a.sync == 2
        assert a.total() == 17

    def test_fractions_sum_to_one(self):
        breakdown = Breakdown()
        breakdown.add("compute", 30)
        breakdown.add("read_other", 70)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_of_empty(self):
        assert all(v == 0.0 for v in Breakdown().fractions().values())

    def test_copy_is_independent(self):
        a = Breakdown()
        a.add("compute", 1)
        b = a.copy()
        b.add("compute", 1)
        assert a.compute == 1 and b.compute == 2

    def test_repr_shows_nonzero(self):
        a = Breakdown()
        a.add("sync", 4)
        assert "sync=4" in repr(a)


class TestMachineGuards:
    def test_run_only_once(self):
        program = Program("p", [TraceBuilder().read(seg_addr(0)).build()])
        machine = Machine(tiny_config(n_procs=1), program)
        machine.run()
        with pytest.raises(SimulationError):
            machine.run()

    def test_proc_count_mismatch_rejected(self):
        program = Program("p", [TraceBuilder().build()])
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Machine(tiny_config(n_procs=2), program)

    def test_per_proc_times_reported(self):
        builders = [TraceBuilder().compute(10), TraceBuilder().compute(30)]
        program = Program("p", [b.build() for b in builders])
        result = Machine(tiny_config(n_procs=2), program).run()
        assert result.exec_time == max(result.per_proc_time)


# ---------------------------------------------------------------------------
# Trace windows: the walk converts CHUNK ops at a time to Python lists
# ---------------------------------------------------------------------------


def _window_program():
    """Two processors whose sync ops, quantum-crossing gaps and trace ends
    sit on window edges for CHUNK = 3 (indices 0, 3, 6, ...; every op is
    an edge at CHUNK = 1)."""
    own = [seg_addr(0), seg_addr(1)]
    shared = seg_addr(1, 32 * 5)
    lock = seg_addr(1, 32 * 9)
    builders = []
    for node in (0, 1):
        mine, other = own[node], own[1 - node]
        b = TraceBuilder()
        b.write(mine).read(mine).read(mine)  # 0-2: cold miss, hits
        b.barrier(0)  # 3: sync op opens a window
        b.compute(3).read(mine)  # 4
        b.read(other if node else shared)  # 5: remote miss closes it
        b.compute(45).read(mine)  # 6: quantum-crossing gap opens one
        b.write(shared).write(shared)  # 7-8: miss, then a WC merge
        b.lock(lock)  # 9
        b.write(shared)  # 10
        b.unlock(lock)  # 11
        b.barrier(1)  # 12
        b.read(shared)  # 13
        b.compute(19).read(shared)  # 14: gap + hit cross; trace ends at 15
        builders.append(b)
    program = Program("windows", [b.build() for b in builders])
    for trace in program.traces:
        assert len(trace) == 15
        assert trace.kinds[3] == OP_BARRIER and trace.kinds[9] == OP_LOCK
        assert trace.gaps[6] == 45
    return program


def _window_run(monkeypatch, chunk, config, program):
    monkeypatch.setattr(cpu, "CHUNK", chunk)
    machine = Machine(config, program)
    record = RunRecord.from_result(machine.run())
    assert [proc.idx for proc in machine.processors] == [
        len(trace) for trace in program.traces
    ]
    return record


class TestTraceWindows:
    @pytest.mark.parametrize("check", [True, False], ids=["monitored", "bare"])
    @pytest.mark.parametrize("protocol", ["SC", "W", "V", "TARDIS"])
    def test_records_independent_of_window_size(self, monkeypatch, protocol, check):
        program = _window_program()
        config = paper_config(
            protocol, n_procs=2, quantum=20, check_invariants=check,
            write_buffer_entries=2, max_events=100_000,
        )
        records = [
            _window_run(monkeypatch, chunk, config, program) for chunk in (1, 3, 4096)
        ]
        assert records[0].exec_time > 0
        for record in records[1:]:
            assert record == records[0]
            assert record.events_fired == records[0].events_fired
        # ...and the windowed walk matches the interpreted oracle.
        oracle = _window_run(monkeypatch, 3, reference_config(config), program)
        assert oracle == records[0]

    def test_walk_holds_one_window_at_a_time(self, monkeypatch):
        # Only CHUNK ops are ever held as lists (whole-trace conversion
        # would hold every processor's trace as Python ints at once).
        program = _window_program()
        monkeypatch.setattr(cpu, "CHUNK", 4)
        machine = Machine(tiny_config(n_procs=2), program)
        machine.run()
        for proc in machine.processors:
            assert proc._base == 12  # the fourth window: ops 12-14
            assert proc._kinds == [int(k) for k in program.traces[proc.node].kinds[12:]]


# ---------------------------------------------------------------------------
# The boundary soup: tear-off reads, FIFO self-invalidation, write-buffer
# stalls, locks — probe for probe against the interpreted oracle
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


def _soup_addr(block, segment=0):
    # ``home_exclusion`` (on by default) exempts locally-homed blocks
    # from DSI, so blocks that must earn marked/tear-off grants for
    # processor 0 have to live in another processor's segment.
    return (segment << 22) + block * 32


def _boundary_program():
    """Two processors alternating private hits with every stall cause.

    Processor 1 produces shared blocks under a lock; processor 0 consumes
    them (the repeated invalidate-then-remiss pattern drives the version
    scheme to grant tear-off copies), with runs of private hits in
    between, enough distinct writes to overflow a 2-entry write buffer,
    and more marked blocks than a 4-entry FIFO holds.
    """
    shared = [_soup_addr(100 + i, segment=1) for i in range(10)]
    lock = _soup_addr(900, segment=1)

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
        private = _soup_addr(200 + 16 * round_no)
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
            p0.write(_soup_addr(300 + 32 * round_no + i))
        p0.barrier(round_no)
        p1.barrier(round_no)
    return Program("boundary", [p0.build(), p1.build()])


def _soup_run(config, program):
    instrument = ProbeRecorder()
    result = Machine(config, program, instrument=instrument).run()
    return RunRecord.from_result(result), instrument


class TestBoundarySoup:
    @pytest.fixture(scope="class")
    def runs(self):
        program = _boundary_program()
        config = SystemConfig(
            n_processors=2,
            consistency=Consistency.WC,
            identify=IdentifyScheme.VERSION,
            si_mechanism=SIMechanism.FIFO,
            tearoff=True,
            fifo_entries=4,
            write_buffer_entries=2,
        )
        return _soup_run(config, program), _soup_run(reference_config(config), program)

    def test_scenario_exercises_every_stall_cause(self, runs):
        (record, instrument), _ = runs
        assert record.misses.read_hits > 0  # private hit runs
        assert record.misses.fifo_overflows > 0  # FIFO self-invalidation
        assert instrument.counts["cache_fill_tearoff"] > 0  # tear-off grants
        assert instrument.counts["wb_fill"] > 0  # write buffer touched
        assert sum(b.wb_full for b in record.breakdowns) > 0  # ...and stalled
        assert instrument.counts["self_invalidate"] > 0

    def test_probe_sequences_identical(self, runs):
        (_, instrument), (_, ref_instrument) = runs
        assert instrument.seq, "no probes recorded"
        # Timestamped probe-for-probe equality: the default engine blocked
        # at exactly the ops — and cycles — the interpreted oracle did.
        assert instrument.seq == ref_instrument.seq

    def test_records_identical(self, runs):
        (record, _), (ref_record, _) = runs
        assert record == ref_record
        assert record.events_fired == ref_record.events_fired
