"""The engine's bucketed queue and protocol lanes: bit-identity and seams.

Every unwatched compiled run retires transactions on two cheaper
substrates under the same event *structure* as the interpreted oracle:
the per-cycle bucketed event queue
(:class:`repro.engine.simulator.BucketSimulator`) and the Message-free
protocol lanes.  Both are bit-identical layers — every measured
:class:`~repro.stats.record.RunRecord` field, ``events_fired`` included,
matches the interpreted run.  The full 46-variant x 5-workload proof
runs via ``python -m repro.harness.equivalence`` (CI's check-protocol
job); this module pins the deterministic edge cases and the engine
seams:

* bucketed-queue firing order is the flat heap's, event for event —
  including same-cycle events scheduled *during* a sweep — and both
  queues stop at the same event under ``max_events``;
* span-boundary arithmetic: a sync op landing exactly on a processor
  batch edge, FIFO-overflow bursts in mid-batch, and a Tardis lease
  expiring exactly at the read that would renew it;
* the seams: interpreted dispatch, instrumentation, the invariant
  monitor and custom network classes all keep the flat heap and the
  table handlers; Tardis keeps the bucketed queue but stays off the
  lanes.
"""

import pytest

import repro.system as system_mod
from repro.config import (
    Consistency,
    ExecutionMode,
    IdentifyScheme,
    SIMechanism,
    SystemConfig,
)
from repro.engine.simulator import BucketSimulator, Simulator
from repro.errors import SimulationError
from repro.harness.equivalence import compare_records, reference_config
from repro.network.network import Network
from repro.obs.instrument import Instrument
from repro.stats.record import RunRecord
from repro.system import ENGINE_LAYERS, Machine
from repro.trace.builder import TraceBuilder
from repro.trace.ops import Program
from repro.workloads import by_name

BLOCK = 32
SEGMENT = 1 << 22


def _addr(block, segment=0):
    return segment * SEGMENT + block * BLOCK


def _assert_identical(config, program):
    """The default engine's record, asserted equal to the oracle's."""
    default = RunRecord.from_result(Machine(config, program).run())
    oracle = RunRecord.from_result(Machine(reference_config(config), program).run())
    diffs = compare_records(default, oracle)
    assert not diffs, f"default engine diverged on: {', '.join(diffs)}"
    return default


# ---------------------------------------------------------------------------
# Bucketed event queue: firing order is the flat heap's
# ---------------------------------------------------------------------------


class TestBucketSimulator:
    def _both(self):
        return Simulator(), BucketSimulator()

    def test_interleaved_delays_fire_in_heap_order(self):
        logs = []
        for sim in self._both():
            log = []
            for delay, tag in [(5, "a"), (0, "b"), (5, "c"), (2, "d"), (0, "e")]:
                sim.schedule(delay, log.append, (delay, tag))
            sim.run()
            logs.append(log)
        assert logs[0] == logs[1]
        assert logs[0] == [(0, "b"), (0, "e"), (2, "d"), (5, "a"), (5, "c")]

    def test_same_cycle_event_scheduled_mid_sweep_fires_in_sweep(self):
        # An event scheduled with delay 0 *during* its own cycle's sweep
        # must fire in that sweep, after everything already queued there
        # — the flat heap's same-time-later-seq order.
        for sim in self._both():
            log = []
            sim.schedule(3, lambda: (log.append("first"), sim.schedule(0, log.append, "chained")))
            sim.schedule(3, log.append, "second")
            sim.run()
            assert log == ["first", "second", "chained"]
            assert sim.now == 3
            assert sim.events_fired == 3

    def test_at_and_step_match_flat_heap(self):
        for sim in self._both():
            log = []
            sim.at(7, log.append, "late")
            sim.at(2, log.append, "early")
            assert sim.step()
            assert log == ["early"] and sim.now == 2
            assert sim.step()
            assert log == ["early", "late"] and sim.now == 7
            assert not sim.step()

    def test_until_pauses_without_draining(self):
        for sim in self._both():
            log = []
            sim.schedule(1, log.append, "x")
            sim.schedule(10, log.append, "y")
            sim.run(until=5)
            assert log == ["x"] and sim.now == 5
            sim.run()
            assert log == ["x", "y"]

    def test_max_events_guard_still_trips(self):
        sim = BucketSimulator(max_events=10)

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_max_events_stops_both_queues_at_the_same_event(self):
        # 50 events in one cycle: the bound trips mid-bucket, after the
        # same callback on both queues.
        stops = []
        for sim in (Simulator(max_events=10), BucketSimulator(max_events=10)):
            fired = []
            for tag in range(50):
                sim.schedule(1, fired.append, tag)
            with pytest.raises(SimulationError, match="max_events"):
                sim.run()
            stops.append((sim.events_fired, len(fired)))
        assert stops[0] == stops[1] == (11, 11)

    def test_negative_delay_rejected(self):
        for sim in self._both():
            with pytest.raises(SimulationError):
                sim.schedule(-1, lambda: None)
            with pytest.raises(SimulationError):
                sim.at(-1, lambda: None)


# ---------------------------------------------------------------------------
# Engine seams: who runs the queue and the lanes
# ---------------------------------------------------------------------------


def _tiny_program():
    return by_name("producer_consumer", n_procs=4)


def _assert_table_engine(machine):
    assert machine.layers == frozenset()
    assert type(machine.sim) is Simulator
    assert not any(c.lanes for c in machine.controllers)


class TestModeSeams:
    def test_default_machine_uses_bucketed_queue_and_lanes(self):
        # execution_mode selects nothing: both values get the full engine.
        for mode in ExecutionMode:
            machine = Machine(
                SystemConfig(n_processors=4, execution_mode=mode), _tiny_program()
            )
            assert machine.layers == ENGINE_LAYERS
            assert isinstance(machine.sim, BucketSimulator)
            assert all(c.lanes for c in machine.controllers)

    def test_reference_machine_keeps_flat_heap(self):
        config = SystemConfig(n_processors=4, compiled_dispatch=False)
        _assert_table_engine(Machine(config, _tiny_program()))

    def test_instrument_forces_reference(self):
        machine = Machine(
            SystemConfig(n_processors=4), _tiny_program(), instrument=Instrument()
        )
        _assert_table_engine(machine)

    def test_invariant_monitor_forces_reference(self):
        config = SystemConfig(n_processors=4, check_invariants=True)
        _assert_table_engine(Machine(config, _tiny_program()))

    def test_custom_network_forces_reference(self):
        class MyNetwork(Network):
            pass

        machine = Machine(
            SystemConfig(n_processors=4), _tiny_program(), network_cls=MyNetwork
        )
        _assert_table_engine(machine)

    def test_tardis_keeps_queue_but_not_lanes(self):
        machine = Machine(SystemConfig(n_processors=4, tardis=True), _tiny_program())
        assert machine.layers == {"queue"}
        assert isinstance(machine.sim, BucketSimulator)
        assert not any(c.lanes for c in machine.controllers)

    def test_layer_narrowing_disables_lanes(self, monkeypatch):
        # The equivalence harness localizes mismatches by narrowing the
        # layer set; queue-only machines must not bind the lanes.
        monkeypatch.setattr(system_mod, "ENGINE_LAYERS", frozenset({"queue"}))
        machine = Machine(SystemConfig(n_processors=4), _tiny_program())
        assert isinstance(machine.sim, BucketSimulator)
        assert not any(c.lanes for c in machine.controllers)


# ---------------------------------------------------------------------------
# Span-boundary regressions (deterministic, hand-sized)
# ---------------------------------------------------------------------------


class TestBatchBoundaries:
    def test_sync_exactly_on_batch_edge(self):
        # Two processors ping through a barrier placed so the preceding
        # hit run's cost lands exactly on the processor quantum: with
        # hit_cycles=1 and quantum=N, N hits complete *at* the batch
        # edge and the sync op is the first op of the next span.  Sweep
        # the quantum across the run length so every alignment of the
        # barrier relative to the edge occurs, including exact ones.
        for quantum in (4, 5, 6, 8):
            builders = [TraceBuilder(), TraceBuilder()]
            for node, builder in enumerate(builders):
                mine = _addr(2 + node, segment=node)
                builder.write(mine)
                for _ in range(quantum):  # hits filling exactly one span
                    builder.read(mine)
                builder.barrier(0)
                theirs = _addr(2 + (1 - node), segment=1 - node)
                builder.read(theirs)
                builder.barrier(1)
            program = Program("sync-edge", [b.build() for b in builders])
            config = SystemConfig(n_processors=2, quantum=quantum)
            record = _assert_identical(config, program)
            assert record.misses.read_misses >= 2  # the cross reads missed

    def test_fifo_overflow_burst_mid_batch(self):
        # A DSI-FIFO config with a tiny FIFO: every fill of a marked
        # block pushes an entry and the burst overflows the FIFO in the
        # middle of a hit span.  The overflow invalidation changes which
        # later accesses hit — any queue or lane drift in when the
        # burst lands shows up as a miss-mix difference.
        config = SystemConfig(
            n_processors=4,
            identify=IdentifyScheme.VERSION,
            si_mechanism=SIMechanism.FIFO,
            fifo_entries=2,
            cache_size=16384,
        )
        program = by_name("sparse", n_procs=4, x_words=512, iterations=3,
                          a_words_per_proc=128)
        record = _assert_identical(config, program)
        assert record.misses.fifo_overflows > 0  # the burst actually burst

    def test_tardis_lease_expiry_exactly_at_read(self):
        # lease=1: every granted lease is already expiring at the next
        # logical tick, so reads keep landing exactly on the expiry
        # boundary and must renew rather than hit.  Tardis runs the
        # bucketed queue without lanes — the boundary being probed is
        # the queue's, at the lease-check cycle.
        config = SystemConfig(n_processors=4, tardis=True, lease=1)
        program = by_name("producer_consumer", n_procs=4)
        _assert_identical(config, program)

    def test_wc_write_buffer_and_tearoff_shapes(self):
        # The lane write path's pre-action row choice (a store to the
        # registered SC tear-off copy must take the GETX shape, not the
        # upgrade shape) and the WC buffered path both replayed against
        # the oracle on a workload with real write sharing.
        for fields in (
            {"identify": IdentifyScheme.STATES, "sc_tearoff": True},
            {"consistency": Consistency.WC, "identify": IdentifyScheme.VERSION,
             "tearoff": True},
        ):
            config = SystemConfig(n_processors=4, cache_size=16384, **fields)
            program = by_name("producer_consumer", n_procs=4)
            _assert_identical(config, program)
