"""Message tracer: recording, filtering, formatting."""


from conftest import seg_addr, tiny_config, two_proc_program
from repro.config import SystemConfig
from repro.obs import Instrument
from repro.stats.tracer import MessageTracer
from repro.system import Machine


def run_traced(program, config, tracer):
    """Run ``program`` with ``tracer`` fed by an instrument; returns the
    run result."""
    return Machine(config, program, instrument=Instrument(tracer=tracer)).run()


def traced_run(tracer_kwargs=None, config=None):
    def build(b0, b1, ctx):
        ctx.barrier_all()
        b0.write(seg_addr(0))
        ctx.barrier_all()
        b1.read(seg_addr(0))
        ctx.barrier_all()

    tracer = MessageTracer(**(tracer_kwargs or {}))
    run_traced(two_proc_program(build), config or tiny_config(), tracer)
    return tracer


class TestRecording:
    def test_records_all_messages(self):
        tracer = traced_run()
        kinds = {event.kind for event in tracer.events}
        assert "GETS" in kinds and "GETX" in kinds and "DATA" in kinds

    def test_times_monotone(self):
        tracer = traced_run()
        times = [event.time for event in tracer.events]
        assert times == sorted(times)

    def test_local_flag(self):
        tracer = traced_run()
        local = [e for e in tracer.events if e.local]
        remote = [e for e in tracer.events if not e.local]
        assert local and remote  # block homed on node 0: P0 local, P1 remote

    def test_limit(self):
        tracer = traced_run({"limit": 3})
        assert len(tracer) == 3
        assert tracer.full

    def test_max_events_caps_and_counts_drops(self):
        unbounded = traced_run({"max_events": 0})
        capped = traced_run({"max_events": 3})
        assert len(capped) == 3
        assert capped.dropped == len(unbounded) - 3

    def test_default_cap_applies(self):
        tracer = MessageTracer()
        assert tracer.max_events == 100_000
        assert not tracer.full and tracer.dropped == 0

    def test_max_events_wins_over_limit(self):
        tracer = MessageTracer(limit=5, max_events=7)
        assert tracer.max_events == 7
        assert tracer.limit == 7

    def test_block_filter(self):
        block = seg_addr(0) >> 5
        tracer = traced_run({"blocks": [block]})
        assert tracer.events
        assert all(event.block == block for event in tracer.events)

    def test_default_config_records_every_sent_message(self):
        """On the default engine configuration every message the machine
        counts — lane-sent ones included — reaches the tracer."""
        from repro.harness.configs import workload_args
        from repro.workloads import by_name

        program = by_name("em3d", **workload_args("em3d", quick=True, n_procs=4))
        tracer = MessageTracer(max_events=0)
        result = run_traced(program, SystemConfig(n_processors=4), tracer)
        messages = result.messages
        sent = sum(messages.network.values()) + sum(messages.local.values())
        assert len(tracer) == sent
        assert sum(1 for event in tracer.events if not event.local) == sum(
            messages.network.values()
        )

    def test_block_filter_misses_do_not_count_as_drops(self):
        tracer = traced_run({"blocks": [999_999], "max_events": 1})
        assert len(tracer) == 0
        assert tracer.dropped == 0


class TestQueries:
    def test_block_history_ordered(self):
        block = seg_addr(0) >> 5
        tracer = traced_run()
        history = tracer.block_history(block)
        # GETX (write miss) precedes the read's GETS on this block.
        kinds = [event.kind for event in history]
        assert kinds.index("GETX") < kinds.index("GETS")

    def test_block_history_only_that_block(self):
        def build(b0, b1, ctx):
            ctx.barrier_all()
            b0.write(seg_addr(0))
            b0.write(seg_addr(1))  # second block: other traffic to exclude
            ctx.barrier_all()
            b1.read(seg_addr(0))
            b1.read(seg_addr(1))
            ctx.barrier_all()

        tracer = MessageTracer()
        run_traced(two_proc_program(build), tiny_config(), tracer)
        block = seg_addr(0) >> 5
        history = tracer.block_history(block)
        assert history
        assert all(event.block == block for event in history)
        assert {e.block for e in tracer.events} - {block}
        assert len(history) < len(tracer.events)

    def test_block_history_times_ordered(self):
        block = seg_addr(0) >> 5
        tracer = traced_run()
        times = [e.time for e in tracer.block_history(block)]
        assert times == sorted(times)

    def test_between_channel(self):
        tracer = traced_run()
        channel = tracer.between(1, 0)
        assert all(e.src == 1 and e.dst == 0 for e in channel)
        assert any(e.kind == "GETS" for e in channel)

    def test_format(self):
        tracer = traced_run({"limit": 5})
        text = tracer.format()
        assert "message" in text and "path" in text
        # 2 header lines, 5 event rows, 1 drop-count line.
        assert len(text.splitlines()) == 2 + 5 + 1
        assert "dropped" in text.splitlines()[-1]

    def test_format_no_drop_line_when_nothing_dropped(self):
        tracer = traced_run()
        assert "dropped" not in tracer.format()

    def test_format_limit(self):
        tracer = traced_run()
        assert len(tracer.format(limit=2).splitlines()) == 4


class TestFlags:
    def test_si_flag_recorded(self):
        from repro.config import IdentifyScheme

        def build(b0, b1, ctx):
            addr = seg_addr(0)
            for _ in range(3):
                ctx.barrier_all()
                b0.write(addr)
                ctx.barrier_all()
                b1.read(addr)
            ctx.barrier_all()

        tracer = MessageTracer()
        run_traced(
            two_proc_program(build), tiny_config(identify=IdentifyScheme.VERSION), tracer
        )
        marked = [e for e in tracer.events if "si" in e.flags and e.kind == "DATA"]
        assert marked

    def test_version_on_requests(self):
        from repro.config import IdentifyScheme

        def build(b0, b1, ctx):
            addr = seg_addr(0)
            for _ in range(3):
                ctx.barrier_all()
                b0.write(addr)
                ctx.barrier_all()
                b1.read(addr)
            ctx.barrier_all()

        tracer = MessageTracer()
        run_traced(
            two_proc_program(build), tiny_config(identify=IdentifyScheme.VERSION), tracer
        )
        versioned = [e for e in tracer.events if e.flags.startswith("v") and e.kind == "GETS"]
        assert versioned
