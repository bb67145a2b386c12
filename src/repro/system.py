"""Machine assembly: wire processors, caches, directories and the network
into one simulated multiprocessor and run a program on it.

This is the main entry point of the library::

    from repro import Machine, SystemConfig, workloads

    program = workloads.em3d(n_procs=32)
    result = Machine(SystemConfig(n_processors=32), program).run()
    print(result.exec_time, result.aggregate_breakdown().as_dict())
"""

from repro.config import SystemConfig
from repro.core.identify import make_policy
from repro.directory.controller import DirectoryController
from repro.engine.simulator import BucketSimulator, Simulator
from repro.errors import ConfigError, SimulationError
from repro.memory.address import RoundRobinHome, SegmentHome
from repro.network.network import Network
from repro.processor.cpu import Processor, StampSource
from repro.processor.sync import BarrierManager, LockManager
from repro.protocol.controller import CacheController
from repro.protocol.monitor import CoherenceMonitor, TardisMonitor
from repro.stats.counters import MessageCounters, MissCounters
from repro.stats.report import RunResult


#: The engine's bit-identical layers on top of compiled dispatch: the
#: per-cycle bucketed event queue and the Message-free protocol lanes.
#: Every unwatched compiled run uses both; the equivalence harness
#: narrows this set to localize a mismatch to one layer.
ENGINE_LAYERS = frozenset({"queue", "lanes"})


class Machine:
    """A complete simulated multiprocessor bound to one program."""

    def __init__(self, config, program, network_cls=Network, instrument=None):
        if not isinstance(config, SystemConfig):
            raise ConfigError("config must be a SystemConfig")
        if program.n_procs != config.n_processors:
            raise ConfigError(
                f"program has {program.n_procs} processors but the machine is "
                f"configured for {config.n_processors}"
            )
        self.config = config
        self.program = program
        # The queue and the lanes ride on compiled dispatch, so the
        # interpreted oracle (``compiled_dispatch`` off) runs without
        # them.  Anything watching the event stream (instrumentation, the
        # invariant monitor) also keeps them off: the probe-bus and audit
        # guarantees are defined over the oracle's event shapes.  Custom
        # network classes do too — the lanes fold the base class's
        # constant transit latency into their hop arithmetic.  Tardis
        # timestamps ride on every request/grant, so leased configs keep
        # the queue but stay on the table handlers.
        watched = (
            instrument is not None
            or config.check_invariants
            or network_cls is not Network
        )
        layers = ENGINE_LAYERS if config.compiled_dispatch and not watched else frozenset()
        if config.tardis:
            layers -= {"lanes"}
        self.layers = layers
        sim_cls = BucketSimulator if "queue" in layers else Simulator
        self.sim = sim_cls(max_events=config.max_events or None)
        self.counters = MessageCounters()
        self.misses = MissCounters()
        self.instrument = instrument
        if instrument is not None:
            instrument.bind(self.sim, config.n_processors)
        self.network = network_cls(self.sim, config, self.counters, instrument=instrument)
        if program.home == "segment":
            self.home_map = SegmentHome(config.n_processors, config.block_shift)
        elif program.home == "round-robin":
            self.home_map = RoundRobinHome(config.n_processors)
        else:
            raise ConfigError(f"unknown home policy {program.home!r}")
        if config.check_invariants:
            monitor_cls = TardisMonitor if config.tardis else CoherenceMonitor
            self.monitor = monitor_cls(config)
        else:
            self.monitor = None
        policy = make_policy(config)
        self.directories = [
            DirectoryController(
                self.sim, config, node, self.network, policy, instrument=instrument
            )
            for node in range(config.n_processors)
        ]
        self.controllers = [
            CacheController(
                self.sim, config, node, self.network, self.home_map, self.misses,
                self.monitor, instrument=instrument,
            )
            for node in range(config.n_processors)
        ]
        for node in range(config.n_processors):
            self.network.attach(node, self.controllers[node], self.directories[node])
        if "lanes" in layers:
            for controller in self.controllers:
                controller.lanes = True
        self.locks = LockManager()
        self.barrier = BarrierManager(self.sim, config.n_processors, config.barrier_latency)
        if config.tardis:
            # A barrier orders every node's accesses; join pts so no node
            # leaves still reading leases from before a remote's writes.
            # (Locks need no hook: the acquirer's sync write to the lock
            # word jumps its pts past the releaser's.)
            self.barrier.on_release = self._tardis_pts_join
        self.stamps = StampSource()
        self.processors = [
            Processor(
                self.sim,
                config,
                node,
                self.controllers[node],
                program.traces[node],
                self.locks,
                self.barrier,
                self.stamps,
                instrument=instrument,
            )
            for node in range(config.n_processors)
        ]
        self._register_deadlock_hooks()
        self._ran = False

    def _tardis_pts_join(self, nodes):
        peak = max(controller.pts for controller in self.controllers)
        for controller in self.controllers:
            controller.pts = peak

    def _register_deadlock_hooks(self):
        sim = self.sim
        for proc in self.processors:
            sim.add_deadlock_hook(proc.deadlock_diagnostic)
        for controller in self.controllers:
            sim.add_deadlock_hook(controller.deadlock_diagnostic)
        for directory in self.directories:
            sim.add_deadlock_hook(directory.deadlock_diagnostic)
        sim.add_deadlock_hook(self.network.deadlock_diagnostic)
        sim.add_deadlock_hook(self.locks.deadlock_diagnostic)
        sim.add_deadlock_hook(self.barrier.deadlock_diagnostic)

    def progress(self):
        """Live progress counters for an in-flight run.

        Read-only and safe to call from another thread while :meth:`run`
        executes (plain int reads of monotone counters, no locking): the
        harness heartbeat sampler (``repro.harness.telemetry``) polls
        this to stream sim-cycle / event / retired-op counts without
        perturbing the simulation.  ``ops_retired`` is the per-processor
        trace index, advanced at quantum boundaries — a retirement proxy,
        exact once the run quiesces.
        """
        return {
            "sim_cycles": self.sim.now,
            "events_fired": self.sim.events_fired,
            "ops_retired": sum(proc.idx for proc in self.processors),
            "ops_total": sum(len(trace.kinds) for trace in self.program.traces),
        }

    def run(self):
        """Run the program to completion; returns a
        :class:`~repro.stats.report.RunResult`."""
        if self._ran:
            raise SimulationError("Machine.run may only be called once")
        self._ran = True
        for proc in self.processors:
            proc.start()
        self.sim.run()
        unfinished = [p.node for p in self.processors if not p.finished]
        if unfinished:
            raise SimulationError(f"processors never finished: {unfinished}")
        if self.instrument is not None:
            # Read-only by contract: consumer layers audit the quiesced
            # machine here (instrumented runs stay bit-identical to bare).
            self.instrument.on_quiesce(self)
        finish_times = [proc.finish_time for proc in self.processors]
        return RunResult(
            label=self.config.describe(),
            workload=self.program.name,
            exec_time=max(finish_times),
            per_proc_time=finish_times,
            breakdowns=[proc.breakdown for proc in self.processors],
            messages=self.counters,
            misses=self.misses,
            events_fired=self.sim.events_fired,
            dir_busy_cycles=sum(d.resource.busy_cycles for d in self.directories),
            ni_busy_cycles=sum(ni.busy_cycles for ni in self.network.interfaces),
        )


def simulate(config, program, network_cls=Network, instrument=None):
    """Convenience: build a machine, run the program, return the result."""
    return Machine(config, program, network_cls=network_cls, instrument=instrument).run()
