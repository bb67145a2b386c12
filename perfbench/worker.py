"""One benchmark process: set up the system under test, run one workload,
check its outputs and write what it measured to a JSON file.

``perfbench/run.py`` starts this script in a fresh interpreter with
``PYTHONPATH`` set to the checkout's ``src``.  Set-up -- importing the
``dsi-sim`` entry module, ``code_fingerprint()`` and planning -- ends at
the first timed op, whose ``time.monotonic()`` stamp goes into the
output so the parent can measure set-up from the interpreter's launch.
"""

import argparse
import cProfile
import hashlib
import inspect
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace

import calibrate
import tracing
from calibrate import Clock, RawClock
from tracing import OP, ROUND, NullTracer, Tracer

#: The cold simulation workloads: (cache size name in
#: ``repro.harness.configs``, ((workload, protocols), ...)).
SIM_SETS = {
    # Coherence misses, INV/ack traffic and locks: engine, protocol,
    # directory and network carry the time; the hit batcher mostly bails.
    "sim-coherence": (
        "SMALL_CACHE",
        (("barnes", ("SC", "V")), ("em3d", ("SC", "V")), ("sparse", ("SC", "V"))),
    ),
    # Mostly private data in the large cache: ~0.5 events per op, so the
    # processor and cache hit path carry the time.
    "sim-private": ("LARGE_CACHE", (("tomcatv", ("SC", "W", "V", "TARDIS")),)),
}

#: Protocols whose runs the profiled pass and the layer-gain runs of a
#: traced simulation workload repeat; the full round would take those
#: two passes past the run's time budget on sim-coherence.
SIM_SAMPLE = {"sim-coherence": ("V",), "sim-private": ("SC", "V")}

#: scale -> (processors, quick sizing) of the simulation workloads.
SIM_SCALE = {"full": (32, False), "tiny": (4, True)}

#: scale -> processors of the paper workloads (always quick sizing).
PAPER_PROCS = {"full": 8, "tiny": 4}

#: Pool width of the paper workloads; the reference host has 2 CPUs.
JOBS = 2

#: Rounds per pass of the traced ``paper-warm`` run (one round renders
#: every experiment once, in a few tens of milliseconds).
WARM_TRACE_ROUNDS = 20

#: Host-timing fields of a RunRecord, left out of its digest.
TIMING_FIELDS = ("wall_time_s", "sim_cycles_per_s")

SIM_HEADERS = ["workload", "protocol", "exec_time", "norm_time", "miss_rate", "net_msgs", "events"]


def now():
    return time.perf_counter()


def record_digest(record):
    payload = record.to_dict()
    for name in TIMING_FIELDS:
        payload.pop(name, None)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def table_digest(text):
    kept = [line for line in text.splitlines() if not line.startswith("# ")]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()[:16]


def trace_ops(program):
    return sum(len(trace) for trace in program.traces)


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Pass:
    """How to run a round: the tracer, the clock, the pool width (paper
    workloads; None for the default) and the spec indices to run
    (simulation workloads; None for all)."""

    def __init__(self, tracer, clock, jobs=None, only=None):
        self.tracer = tracer
        self.clock = clock
        self.jobs = jobs
        self.only = only


def _fail(op, exc):
    op["error"] = f"{type(exc).__name__}: {exc}"
    traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# Workloads.  Each plans in __init__ (part of set-up) and runs one round
# per call to round(); a round returns its wall time, its ops and its
# rendered tables.  An op dict carries the spec key(s) it produced or
# read, so digest mismatches can be charged to it.
# ----------------------------------------------------------------------
class SimWorkload:
    """Cold, serial runs: every op is a cache miss in a fresh directory,
    then trace generation, machine build, simulation, collection and the
    cache write; a round ends with one summary table."""

    def __init__(self, cli, args, tmp):
        from repro.harness import configs
        from repro.harness.runspec import RunSpec
        from repro.workloads import CATALOG

        procs, quick = SIM_SCALE[args.scale]
        cache_name, groups = SIM_SETS[args.workload]
        self.tmp = tmp
        self.table_id = f"{args.workload}@{args.scale}:seed{args.seed}"
        self.specs = []
        self.sample = []
        for name, protocols in groups:
            workload_args = configs.workload_args(name, quick=quick, n_procs=procs)
            default_seed = inspect.signature(CATALOG[name][0]).parameters["seed"].default
            workload_args["seed"] = default_seed + args.seed
            for protocol in protocols:
                config = configs.paper_config(
                    protocol, cache=getattr(configs, cache_name), n_procs=procs
                )
                if protocol in SIM_SAMPLE[args.workload]:
                    self.sample.append(len(self.specs))
                self.specs.append(RunSpec.create(name, config, **workload_args))
        self.keys = [spec.key()[:16] for spec in self.specs]
        self.all = list(range(len(self.specs)))

    def round(self, p):
        from repro.harness.runpool import ResultCache
        from repro.stats import report

        tracer, clock, only = p.tracer, p.clock, p.only
        ops = []
        start = clock.now()
        with tracer.span(ROUND):
            for index in (self.all if only is None else only):
                spec, key = self.specs[index], self.keys[index]
                op = {"keys": [key], "record": None, "trace_ops": 0, "lookups": 1, "hits": 0,
                      "error": None, "run_wall_s": 0.0}
                op_start = clock.now()
                with tracer.span(OP, op=True):
                    try:
                        cache = ResultCache(tempfile.mkdtemp(dir=self.tmp))
                        if cache.get(spec) is not None:
                            op["hits"] = 1
                        program = spec.build_program()
                        started = now()
                        record = spec.execute(program)
                        record.set_timing(now() - started)
                        cache.put(spec, record)
                        op.update(record=record, trace_ops=trace_ops(program),
                                  run_wall_s=record.wall_time_s)
                    except Exception as exc:
                        _fail(op, exc)
                clock.checkpoint()
                op["op_wall_s"] = clock.now() - op_start
                ops.append(op)
            table = self.table_id if only is None else self.table_id + "/sample"
            rows = self._rows([op["record"] for op in ops], only or self.all)
            text = report.format_table(SIM_HEADERS, rows, title=table)
        wall = clock.now() - start
        render = {"table": table, "text": text, "latency_s": wall, "ops": list(range(len(ops)))}
        return {"wall_s": wall, "ops": ops, "renders": [render], "pool_wall_s": wall, "jobs": 1}

    def _rows(self, records, indices):
        rows = []
        base = None
        for spec, record in zip([self.specs[i] for i in indices], records):
            if record is None:
                continue
            if base is None or base.workload != record.workload:
                base = record
            rows.append([
                spec.workload, spec.config.describe(), record.exec_time,
                f"{record.normalized_to(base):.3f}", f"{record.misses.miss_rate():.4f}",
                record.messages.total_network(), record.events_fired,
            ])
        return rows


class PaperCold:
    """The seven paper experiments, one pool batch into a fresh cache
    directory, then the seven tables."""

    def __init__(self, cli, args, tmp):
        from repro.harness.experiment import ExperimentRunner

        self.cli = cli
        self.tmp = tmp
        self.procs = PAPER_PROCS[args.scale]
        self.experiments = tuple(cli.PAPER_SET)
        planner = ExperimentRunner(n_procs=self.procs, quick=True, jobs=1)
        self.feeds = {name: list(dict.fromkeys(cli.PLANNERS[name](planner)))
                      for name in self.experiments}
        planner.close()
        self.plan = list(dict.fromkeys(spec for name in self.experiments for spec in self.feeds[name]))
        self.keys = {spec: spec.key()[:16] for spec in self.plan}
        # Each round runs its own seeded order of the plan: the order sets
        # how long one worker idles at the end of the batch, so one order
        # per run would make the seed move the throughput.
        self.rng = random.Random(args.seed)

    def round(self, p):
        from repro.harness import runpool
        from repro.harness.experiment import ExperimentRunner

        tracer, clock, jobs = p.tracer, p.clock, p.jobs or JOBS
        # The serial path memoizes programs per process; a fresh dsi-sim
        # process starts with an empty memo.
        runpool._PROGRAMS.clear()
        plan = list(self.plan)
        self.rng.shuffle(plan)
        index = {spec: i for i, spec in enumerate(plan)}
        ops = [{"spec": spec, "keys": [self.keys[spec]], "record": None, "trace_ops": 0, "lookups": 1,
                "hits": 0, "error": None, "run_wall_s": 0.0} for spec in plan]
        renders = []
        batch_wall = 0.0
        start = clock.now()
        with tracer.span(ROUND):
            runner = ExperimentRunner(n_procs=self.procs, quick=True, jobs=jobs,
                                      cache_dir=tempfile.mkdtemp(dir=self.tmp))
            try:
                with tracer.span("harness.prefetch"):
                    runner.prefetch(plan)
                clock.checkpoint()
                batch_wall = clock.now() - start
                for name in self.experiments:
                    with tracer.span("harness.tables"):
                        text = self.cli.EXPERIMENTS[name](runner).format()
                    renders.append({"table": f"{name}@{self.procs}", "text": text,
                                    "latency_s": clock.now() - start,
                                    "ops": [index[spec] for spec in self.feeds[name]]})
            except Exception as exc:
                for op in ops:
                    _fail(op, exc)
            finally:
                runner.close()
        wall = clock.now() - start
        if renders:
            cached = {run["key"] for run in runner.pool.manifest()["runs"] if run["cached"]}
            for spec, op in zip(plan, ops):
                record = runner.run_spec(spec)
                op.update(record=record, run_wall_s=record.wall_time_s or 0.0,
                          hits=int(op["keys"][0] in cached))
        return {"wall_s": wall, "ops": ops, "renders": renders, "pool_wall_s": batch_wall,
                "jobs": jobs}


class PaperWarm:
    """Every paper experiment and ablation re-rendered from a warm result
    cache: each op plans one experiment, looks its records up through a
    fresh RunPool and formats the table.  No simulation may run."""

    def __init__(self, cli, args, fixture):
        from repro.harness import ablations
        from repro.harness.experiment import ExperimentRunner

        self.cli = cli
        self.fixture = fixture
        self.procs = PAPER_PROCS[args.scale]
        self.experiments = tuple(cli.PAPER_SET) + tuple(f"ablation:{name}" for name in ablations.ALL)
        planner = ExperimentRunner(n_procs=self.procs, quick=True, jobs=1)
        self.feeds = {name: list(dict.fromkeys(cli.PLANNERS[name](planner)))
                      for name in self.experiments}
        planner.close()
        self.keys = {spec: spec.key()[:16] for specs in self.feeds.values() for spec in specs}
        self.rng = random.Random(args.seed)

    def round(self, p):
        from repro.harness.experiment import ExperimentRunner

        tracer, clock = p.tracer, p.clock
        order = list(self.experiments)
        self.rng.shuffle(order)
        ops = []
        renders = []
        start = clock.now()
        with tracer.span(ROUND):
            for name in order:
                op = {"keys": [self.keys[spec] for spec in self.feeds[name]], "record": None,
                      "experiment": name, "trace_ops": 0, "lookups": 0, "hits": 0,
                      "error": None, "run_wall_s": 0.0}
                op_start = clock.now()
                with tracer.span(OP, op=True):
                    try:
                        runner = ExperimentRunner(n_procs=self.procs, quick=True, jobs=JOBS,
                                                  cache_dir=self.fixture)
                        try:
                            with tracer.span("harness.plan"):
                                specs = self.cli.PLANNERS[name](runner)
                            with tracer.span("harness.prefetch"):
                                runner.prefetch(specs)
                            with tracer.span("harness.tables"):
                                text = self.cli.EXPERIMENTS[name](runner).format()
                        finally:
                            runner.close()
                        op["hits"] = runner.cache_hits
                        op["lookups"] = runner.cache_hits + runner.total_sim_runs
                        if runner.total_sim_runs:
                            op["error"] = f"{runner.total_sim_runs} simulation(s) ran on a warm cache"
                        renders.append({"table": f"{name}@{self.procs}", "text": text,
                                        "latency_s": clock.now() - op_start, "ops": [len(ops)]})
                    except Exception as exc:
                        _fail(op, exc)
                ops.append(op)
        return {"wall_s": clock.now() - start, "ops": ops, "renders": renders, "pool_wall_s": 0.0,
                "jobs": JOBS}
def build_fixture(workload, fingerprint):
    """Fill the warm cache with this commit's records (cache paths fold in
    the code fingerprint, so each commit builds its own)."""
    from repro.harness.experiment import ExperimentRunner

    marker = os.path.join(workload.fixture, f"ready-{fingerprint[:16]}")
    if os.path.exists(marker):
        return
    runner = ExperimentRunner(n_procs=workload.procs, quick=True, jobs=JOBS, cache_dir=workload.fixture)
    try:
        runner.prefetch([spec for name in workload.experiments for spec in workload.feeds[name]])
        for name in workload.experiments:  # also stores any spec a table reads beyond its plan
            workload.cli.EXPERIMENTS[name](runner)
    finally:
        runner.close()
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write(f"{runner.total_sim_runs} runs\n")


# ----------------------------------------------------------------------
# Correctness: digests against the pins, charged to ops.
# ----------------------------------------------------------------------
class Checker:
    def __init__(self, pins):
        self.pins = pins
        self.seen = {"records": {}, "tables": {}}
        self.mismatches = []
        self.pinned = 0
        self.unpinned = 0

    def check(self, kind, ident, digest):
        """True when ``digest`` agrees with the pin and with every earlier
        digest of ``ident`` in this run."""
        ok = True
        earlier = self.seen[kind].setdefault(ident, digest)
        if earlier != digest:
            self.mismatches.append(f"{kind} {ident}: {digest} differs from {earlier} earlier in this run")
            ok = False
        pinned = self.pins.get(kind, {}).get(ident)
        if pinned is None:
            self.unpinned += 1
        else:
            self.pinned += 1
            if pinned != digest:
                self.mismatches.append(f"{kind} {ident}: {digest} != pinned {pinned}")
                ok = False
        return ok


def check_rounds(rounds, checker, cold):
    """Count failed ops: an exception, a digest that differs from its pin
    or from an earlier one, or (cold workloads) a cache hit.  Returns
    (attempted, failed)."""
    attempted = failed = 0
    for rnd in rounds:
        ops = rnd["ops"]
        bad = set()
        for index, op in enumerate(ops):
            if op["error"]:
                bad.add(index)
            if op["record"] is not None and not checker.check(
                    "records", op["keys"][0], record_digest(op["record"])):
                bad.add(index)
            if cold and op["hits"]:
                op["error"] = "cache hit in a fresh cache directory"
                bad.add(index)
        for render in rnd["renders"]:
            if not checker.check("tables", render["table"], table_digest(render["text"])):
                bad.update(render["ops"])
        attempted += len(ops)
        failed += len(bad)
    return attempted, failed


def check_warm_records(workload, checker):
    """Digest every record the warm tables read, once; returns the
    experiments with a mismatched record."""
    from repro.harness.experiment import ExperimentRunner

    bad = set()
    for name, specs in workload.feeds.items():
        runner = ExperimentRunner(n_procs=workload.procs, quick=True, jobs=JOBS, cache_dir=workload.fixture)
        try:
            runner.prefetch(specs)
            for spec in specs:
                if not checker.check("records", workload.keys[spec], record_digest(runner.run_spec(spec))):
                    bad.add(name)
        finally:
            runner.close()
    return bad


# ----------------------------------------------------------------------
def peak_rss_mb():
    """Largest resident set of this process or any waited-for descendant
    (pool workers included); Linux reports ru_maxrss in KiB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class ProgramSizes:
    """Trace ops per spec, from programs generated outside timed code."""

    def __init__(self):
        self._sizes = {}

    def __call__(self, spec):
        key = (spec.workload, spec.workload_args)
        if key not in self._sizes:
            self._sizes[key] = trace_ops(spec.build_program())
        return self._sizes[key]


def fill_trace_ops(workload, rounds, sizes):
    """Cold paper ops: trace ops of their spec.  Warm ops: trace ops
    behind every record the rendered table read."""
    if isinstance(workload, PaperCold):
        for rnd in rounds:
            for op in rnd["ops"]:
                op["trace_ops"] = sizes(op["spec"])
    elif isinstance(workload, PaperWarm):
        per_experiment = {name: sum(sizes(spec) for spec in specs)
                          for name, specs in workload.feeds.items()}
        for rnd in rounds:
            for op in rnd["ops"]:
                if not op["error"]:
                    op["trace_ops"] = per_experiment[op["experiment"]]


def end_to_end(rounds, clock):
    """The end-to-end metrics, in reference seconds (see calibrate.py)."""
    wall = sum(rnd["wall_s"] for rnd in rounds)
    ops = [op for rnd in rounds for op in rnd["ops"]]
    latencies = [render["latency_s"] * 1e3 for rnd in rounds for render in rnd["renders"]]
    metrics = {
        "sim_ops_per_s": sum(op["trace_ops"] for op in ops if not op["error"]) / wall,
        "renders_per_s": len(latencies) / wall,
        "render_p50_ms": percentile(latencies, 50),
        "render_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"sim_ops_per_s": len(ops), "renders_per_s": len(latencies),
               "render_p50_ms": len(latencies), "render_p99_ms": len(latencies),
               "rounds": len(rounds), "timed_reference_s": wall,
               "host_slowdown": statistics.median(clock.factors)}
    return metrics, samples


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def install_patches(tracer):
    """Wrap the public calls each layer is entered through."""
    from repro.harness import experiment, runpool, runspec
    from repro.stats import record, report
    from repro import system

    tracer.patch(runspec, "by_name", "workloads.gen", count=("workloads.trace_ops", trace_ops))
    tracer.patch(runspec, "Machine", "system.build",
                 count=("system.ops", lambda machine: trace_ops(machine.program)))
    tracer.patch(system.Machine, "run", "system.simulate")
    tracer.patch(record.RunRecord, "from_result", "stats.from_result")
    tracer.patch(record.RunRecord, "to_dict", "stats.to_dict")
    tracer.patch(runpool.ResultCache, "get", "harness.cache_get")
    tracer.patch(runpool.ResultCache, "put", "harness.cache_put")
    tracer.patch(runspec.RunSpec, "key", "harness.spec_key")
    tracer.patch(runpool, "execute_spec", "harness.execute_spec", op=True)
    tracer.patch(report, "format_table", "harness.format")
    tracer.patch(experiment.ExperimentResult, "format", "harness.format")


def run_rounds(workload, p, count):
    return [workload.round(p) for _ in range(count)]


def layer_gains(workload, span_records):
    """Simulate time with each optional SystemConfig layer off / on,
    interleaved per spec over the workload's sample, and bit-identity of
    every toggled run against the spans pass."""
    from repro.config import ExecutionMode
    from repro.stats.record import RunRecord
    from repro.system import Machine

    variants = {
        "default": lambda c: c,
        "no_compiled_dispatch": lambda c: replace(c, compiled_dispatch=False),
        "no_direct_execution": lambda c: replace(c, direct_execution=False),
        "relaxed": lambda c: replace(c, execution_mode=ExecutionMode.RELAXED),
    }
    times = dict.fromkeys(variants, 0.0)
    mismatches = []
    for index in workload.sample:
        spec, key = workload.specs[index], workload.keys[index]
        program = spec.build_program()
        for name, variant in variants.items():
            machine = Machine(variant(spec.config), program)
            started = now()
            result = machine.run()
            times[name] += now() - started
            expected = span_records.get(key)
            if expected is None or record_digest(RunRecord.from_result(result)) != record_digest(expected):
                mismatches.append(f"{spec.describe()} differs from the default engine with {name}")
    gains = {
        "coherence.compiled_dispatch_gain": times["no_compiled_dispatch"] / times["default"],
        "processor.direct_execution_gain": times["no_direct_execution"] / times["default"],
        "engine.relaxed_gain": times["default"] / times["relaxed"],
    }
    return gains, mismatches


def traced_run(workload, setup_times, rounds_per_pass):
    """Untraced, spans and profiler passes of the same rounds; returns
    (per-layer metrics, all rounds, extra mismatches, tracer)."""
    serial = 1 if isinstance(workload, PaperCold) else None
    # Simulation workloads repeat only their sample outside the spans
    # pass, to stay within the run's time budget.
    sample = workload.sample if isinstance(workload, SimWorkload) else None
    pool_rounds = []
    if isinstance(workload, PaperCold):
        pool_rounds = run_rounds(workload, Pass(NullTracer(), RawClock(), JOBS), 1)
    untraced = run_rounds(workload, Pass(NullTracer(), RawClock(), serial, sample), rounds_per_pass)

    tracer = Tracer()
    install_patches(tracer)
    try:
        spans = run_rounds(workload, Pass(tracer, RawClock(), serial), rounds_per_pass)
    finally:
        tracer.unpatch()

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = run_rounds(workload, Pass(NullTracer(), RawClock(), serial, sample), rounds_per_pass)
    finally:
        profiler.disable()
    shares = tracing.fold_profile(profiler)

    summary = tracer.summary()

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def mean_ms(name):
        entry = summary.get(name)
        return entry["total_s"] / entry["count"] * 1e3 if entry else 0.0

    span_ops = [op for rnd in spans for op in rnd["ops"]]
    records = [op["record"] for op in span_ops if op["record"] is not None]
    events = sum(r.events_fired for r in records)
    accesses = sum(r.misses.read_hits + r.misses.read_misses + r.misses.write_hits
                   + r.misses.write_misses for r in records)
    misses = sum(r.misses.read_misses + r.misses.write_misses for r in records)
    simulate_s = total("system.simulate")
    simulated_ops = tracer.counts["system.ops"]
    key_calls = summary.get("harness.spec_key", {}).get("count", 0)
    lookups = sum(op["lookups"] for op in span_ops)
    cache_gets = [d * 1e3 for d in tracer.durations("harness.cache_get")]
    busy_rounds = pool_rounds or untraced
    busy_wall = sum(rnd["pool_wall_s"] * rnd["jobs"] for rnd in busy_rounds)
    busy_runs = sum(op["run_wall_s"] for rnd in busy_rounds for op in rnd["ops"])

    def wall(rounds, keys=None):
        """Wall time of the rounds, or of their ops on ``keys`` only."""
        if keys is None:
            return sum(rnd["wall_s"] for rnd in rounds)
        return sum(op["op_wall_s"] for rnd in rounds for op in rnd["ops"] if op["keys"][0] in keys)

    sampled = {workload.keys[i] for i in sample} if sample is not None else None

    metrics = {
        "workloads.gen_s": total("workloads.gen"),
        "workloads.trace_ops": tracer.counts["workloads.trace_ops"],
        "system.build_s": total("system.build"),
        "system.simulate_s": simulate_s,
        "stats.collect_s": total("stats.from_result") + total("stats.to_dict"),
        "engine.events": events,
        "engine.us_per_event": simulate_s / events * 1e6 if events else 0.0,
        "network.messages": sum(r.messages.total_network() for r in records),
        "directory.busy_cycles": sum(r.dir_busy_cycles for r in records),
        "protocol.miss_rate": misses / accesses if accesses else 0.0,
        "processor.us_per_op": simulate_s / simulated_ops * 1e6 if simulated_ops else 0.0,
        "harness.cache_get_p50_ms": percentile(cache_gets, 50),
        "harness.cache_get_p99_ms": percentile(cache_gets, 99),
        "harness.spec_key_us": total("harness.spec_key") / key_calls * 1e6 if key_calls else 0.0,
        "harness.spec_key_calls_per_op": key_calls / len(span_ops) if span_ops else 0.0,
        "harness.format_ms": mean_ms("harness.format"),
        "harness.cache_put_ms": mean_ms("harness.cache_put"),
        "harness.pool_busy_frac": busy_runs / busy_wall if busy_wall else 0.0,
        "harness.import_s": setup_times["import_s"],
        "harness.fingerprint_s": setup_times["fingerprint_s"],
        "harness.plan_s": setup_times["plan_s"],
        "harness.cache_hit_ratio": sum(op["hits"] for op in span_ops) / lookups if lookups else 0.0,
        "trace.overhead_s": wall(spans, sampled) - wall(untraced, sampled),
        "trace.profile_overhead_s": wall(profiled, sampled) - wall(untraced, sampled),
        "trace.unaccounted_frac": tracer.unaccounted_frac(),
    }
    for module, share in shares.items():
        metrics[f"{module}.self_frac"] = share
    mismatches = []
    gains = dict.fromkeys(
        ("coherence.compiled_dispatch_gain", "processor.direct_execution_gain", "engine.relaxed_gain"),
        0.0,
    )
    if isinstance(workload, SimWorkload):
        span_records = {op["keys"][0]: op["record"] for op in span_ops if op["record"] is not None}
        gains, mismatches = layer_gains(workload, span_records)
    metrics.update(gains)
    return metrics, pool_rounds + untraced + spans + profiled, mismatches, tracer


# ----------------------------------------------------------------------
def setup(args, tmp):
    """Import the dsi-sim entry module, fingerprint the code and plan."""
    started = now()
    import repro.harness.cli as cli
    imported = now()
    from repro.harness.runpool import code_fingerprint

    fingerprint = code_fingerprint()
    fingerprinted = now()
    if args.workload in SIM_SETS:
        workload = SimWorkload(cli, args, tmp)
    elif args.workload == "paper-cold":
        workload = PaperCold(cli, args, tmp)
    else:
        workload = PaperWarm(cli, args, os.path.join(args.work, f"warm-cache-{args.scale}"))
    times = {"import_s": imported - started, "fingerprint_s": fingerprinted - imported,
             "plan_s": now() - fingerprinted}
    return fingerprint, workload, times


def resolved_engine():
    from repro.config import SystemConfig

    config = SystemConfig()
    return {"execution_mode": config.execution_mode.value,
            "compiled_dispatch": config.compiled_dispatch,
            "direct_execution": config.direct_execution}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "fixture"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--pins", default=None)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="caches-", dir=args.work)
    try:
        fingerprint, workload, times = setup(args, tmp)
        out = {"setup": dict(times, t_ready=time.monotonic())}
        kernel = calibrate.Kernel(args.work)
        out["setup"]["factor"] = kernel.sample()
        if args.mode == "fixture":
            build_fixture(workload, fingerprint)
        elif args.mode == "run":
            out.update(run(args, workload, times, kernel))
            out["env"] = dict(resolved_engine(), fingerprint=fingerprint[:16])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


def run(args, workload, setup_times, kernel):
    pins = {}
    if args.pins and os.path.exists(args.pins):
        with open(args.pins, "r", encoding="utf-8") as handle:
            pins = json.load(handle)
    checker = Checker(pins)
    if args.trace:
        rounds_per_pass = WARM_TRACE_ROUNDS if isinstance(workload, PaperWarm) else 1
        metrics, rounds, layer_mismatches, tracer = traced_run(workload, setup_times, rounds_per_pass)
    else:
        # Whole rounds until --seconds reference seconds have passed, so
        # the number of rounds does not depend on the host's speed.
        # paper-cold's batch keeps both CPUs busy, which only the
        # two-CPU kernel tracks.
        if isinstance(workload, PaperCold):
            kernel = calibrate.ParallelKernel(args.work)
        rounds = []
        try:
            clock = Clock(kernel)
            while True:
                clock.checkpoint()
                rounds.append(workload.round(Pass(NullTracer(), clock)))
                if clock.now() >= args.seconds:
                    break
        finally:
            if isinstance(kernel, calibrate.ParallelKernel):
                kernel.close()
        layer_mismatches = []

    # Untimed from here on.
    fill_trace_ops(workload, rounds, ProgramSizes())
    if isinstance(workload, PaperWarm):
        bad = check_warm_records(workload, checker)
        for rnd in rounds:
            for op in rnd["ops"]:
                if op["experiment"] in bad and not op["error"]:
                    op["error"] = "a record this table reads differs from its pin"
    attempted, failed = check_rounds(rounds, checker, cold=not isinstance(workload, PaperWarm))
    attempted += len(layer_mismatches)
    failed += len(layer_mismatches)
    if args.trace:
        metrics["harness.error_rate"] = failed / attempted
        samples = {}
        tracer.dump(os.path.join(args.work, f"spans-{args.workload}-{args.scale}-seed{args.seed}.json"))
    else:
        metrics, samples = end_to_end(rounds, clock)
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "mismatches": checker.mismatches + layer_mismatches,
        "digests": checker.seen,
        "pinned": {"checked": checker.pinned, "unpinned": checker.unpinned},
    }


if __name__ == "__main__":
    sys.exit(main())
