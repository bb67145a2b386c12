"""Batch execution of :class:`~repro.harness.runspec.RunSpec` values.

Three layers:

:func:`run_spec`
    The one per-spec run lifecycle.  Every executor — the
    :class:`RunPool` (serial and in pool workers), the sweep service's
    worker threads and ``dsi-sim run`` — executes and narrates a spec
    through it: ``run_started``, heartbeats and the optional cProfile
    around the run, the result-cache write, and the terminal
    ``run_finished``/``run_failed`` event.  :func:`run_event` and
    :func:`failure_event` are the only builders of per-spec lifecycle
    events, so every executor's stream carries the same fields.

:class:`ResultCache`
    A content-addressed on-disk cache.  Each record lands in
    ``<cache_dir>/<code fingerprint>/<spec key>.json`` — the fingerprint
    digests every source file of the ``repro`` package, so editing the
    simulator invalidates all cached results while repeated sweeps of an
    unchanged tree are pure cache hits.

:class:`RunPool`
    Executes a batch of specs: cache lookups first, then the misses via a
    ``concurrent.futures.ProcessPoolExecutor`` (``jobs`` workers; ``1``
    keeps the in-process serial path for debugging), writing fresh
    records back to the cache.  Worker processes memoize generated
    programs so a sweep of many configs over one workload builds the
    trace once per worker.

Every sweep narrates itself through the harness observatory
(:mod:`repro.harness.telemetry`): the pool emits ``sweep_begin``/
``run_queued``/``run_cached``/``sweep_end`` and each run's terminal
event parent-side, while pool workers ship ``run_started`` and periodic
``heartbeat`` events back over a ``multiprocessing.Queue`` installed by
the executor initializer.  The ``--verbose`` stderr lines are one sink
on that same stream, so logging and structured telemetry cannot drift.
A failing spec or a dying worker never hangs the sweep: the pool drains
every spec, emits one ``run_failed`` (with the traceback) per casualty,
and re-raises the first error only after the drain.
"""

import cProfile
import hashlib
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

import repro
from repro.harness.telemetry import (
    HeartbeatSampler,
    JsonlSink,
    LiveDashboard,
    TelemetryConfig,
    TelemetryHub,
    VerboseSink,
    make_event,
    new_sweep_id,
    profile_sidecar,
)
from repro.stats.record import RunRecord

#: Per-process program memo: (workload, workload_args) -> Program.
#: Lives at module scope so pool workers reuse programs across tasks.
_PROGRAMS = {}

#: :func:`run_spec` keywords for pool workers (telemetry emit hook,
#: heartbeat and profile settings), installed by :func:`_init_worker`;
#: empty keeps the zero-overhead bare path.
_WORKER_OPTIONS = {}


def execute_spec(spec, observer=None, program=None, instrument=None):
    """Build (or reuse) the program and run one spec, stamping run
    telemetry (wall time, simulated cycles per host second) into the
    record.  Top-level so the process pool can pickle it.  ``observer``
    and ``instrument`` pass through to :meth:`RunSpec.execute`; a given
    ``program`` bypasses the memo."""
    if program is None:
        key = (spec.workload, spec.workload_args)
        program = _PROGRAMS.get(key)
        if program is None:
            program = _PROGRAMS[key] = spec.build_program()
    started = time.perf_counter()
    record = spec.execute(program, observer=observer, instrument=instrument)
    record.set_timing(time.perf_counter() - started)
    return record


def run_event(type_, spec, record=None, **fields):
    """One schema-v1 lifecycle event for ``spec`` (``run_queued``,
    ``run_started``, ``run_cached``, ``run_finished``, ``run_failed``).
    A ``record`` adds the terminal measurement fields; ``fields`` the
    type's remaining ones."""
    config = spec.config
    event = make_event(
        type_, spec_key=spec.key(), workload=spec.workload,
        label=config.describe(), **fields,
    )
    if record is not None:
        event.update(
            cache_kb=config.cache_size // 1024,
            net=config.network_latency,
            exec_time=record.exec_time,
            wall_time_s=record.wall_time_s,
        )
    return event


def failure_event(spec, exc):
    """The ``run_failed`` event for a spec that raised ``exc``."""
    return run_event(
        "run_failed", spec,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )


def run_spec(spec, cache=None, emit=None, worker=None, heartbeat_interval=0.0,
             profile_dir=None, execute=None):
    """Execute and narrate one spec: the only per-spec run lifecycle.

    With ``emit`` given, emits ``run_started`` and (``heartbeat_interval``
    > 0) attaches a :class:`HeartbeatSampler`; a ``profile_dir`` wraps
    the run in cProfile and dumps a sidecar there.  ``execute(spec,
    observer)`` runs the simulation (default :func:`execute_spec`, looked
    up at call time).  A fresh record is written to ``cache`` (see
    :func:`_store`).  ``worker`` names the executing worker in events
    (default: this process id).

    Returns ``(record, event, error)``: ``event`` is the terminal
    ``run_finished`` — or, when the run raised, ``run_failed`` with
    ``record`` None and the exception as ``error``.  The caller emits
    ``event`` into whichever stream the run's sweep lives in; without
    ``emit`` nobody is listening and ``event`` is None.
    """
    if worker is None:
        worker = os.getpid()
    sampler = None
    if emit is not None:
        emit(run_event("run_started", spec, worker=worker))
        if heartbeat_interval:
            sampler = HeartbeatSampler(
                emit, spec.key(), worker=worker, interval=heartbeat_interval
            )
    profiler = cProfile.Profile() if profile_dir else None
    record = error = None
    if profiler is not None:
        profiler.enable()
    try:
        record = (execute or execute_spec)(spec, observer=sampler)
    except Exception as exc:
        error = exc
    finally:
        if profiler is not None:
            profiler.disable()
    profile = None
    if profiler is not None:
        os.makedirs(profile_dir, exist_ok=True)
        profile = profile_sidecar(profile_dir, spec.key())
        profiler.dump_stats(profile)
    if error is None and cache is not None:
        _store(cache, spec, record)
    if emit is None:
        return record, None, error
    if error is not None:
        return None, failure_event(spec, error), error
    event = run_event(
        "run_finished", spec, record,
        sim_cycles_per_s=record.sim_cycles_per_s, profile=profile,
    )
    return record, event, None


def _store(cache, spec, record):
    """Write a fresh record to the cache.  A failed write never costs the
    finished record: the run still counts, the sweep completes, and the
    first failure per cache is reported on stderr (later ones are not)."""
    try:
        cache.put(spec, record)
    except OSError as exc:
        if cache.write_error is None:
            cache.write_error = exc
            print(
                f"# result cache write failed, continuing uncached: {exc}",
                file=sys.stderr,
            )


def _init_worker(queue, heartbeat_interval, profile_dir):
    """Pool-worker initializer: :func:`run_spec` emits into the parent's
    queue (``queue.put`` is the emit hook — the parent hub's pump thread
    stamps ``seq``/``sweep`` on arrival)."""
    global _WORKER_OPTIONS
    _WORKER_OPTIONS = {
        "emit": queue.put,
        "heartbeat_interval": heartbeat_interval,
        "profile_dir": profile_dir,
    }


def _pool_run(spec, execute):
    """One pool task: the per-spec path under the worker's telemetry."""
    return run_spec(spec, execute=execute, **_WORKER_OPTIONS)


_FINGERPRINTS = {}


def code_fingerprint():
    """Digest of every ``repro`` source file (cached per process).

    Any edit to the simulator, protocol, workloads or harness changes the
    fingerprint and thereby orphans all previously cached records.  The
    execution mode is folded in too: ``DSI_NO_FASTPATH`` forces every
    config onto the interpreted paths *after* spec construction, so two
    processes differing only in that variable must not share cache
    entries — they fingerprint (and therefore cache) separately.

    Telemetry settings (``DSI_LOG``/``DSI_PROFILE``, ``--log``,
    ``--live``, ``--profile``) are deliberately *not* folded in:
    observability never affects simulation results (the equivalence
    harness proves it), so it must never bust the result cache.
    """
    mode = "reference" if os.environ.get("DSI_NO_FASTPATH") else "fast"
    fingerprint = _FINGERPRINTS.get(mode)
    if fingerprint is None:
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        digest.update(f"execution-mode:{mode}\n".encode("utf-8"))
        for root, dirs, files in sorted(os.walk(package_dir)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, package_dir).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        fingerprint = _FINGERPRINTS[mode] = digest.hexdigest()
    return fingerprint


class ResultCache:
    """Content-addressed record store under one directory."""

    def __init__(self, root, fingerprint=None):
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()
        self.write_error = None  # first failed put (see _store)

    def path_for(self, spec):
        return self.path_for_key(spec.key())

    def path_for_key(self, key):
        return os.path.join(self.root, self.fingerprint[:16], key + ".json")

    def get(self, spec):
        """The cached record for ``spec``, or None (corrupt files miss)."""
        payload = self.get_by_key(spec.key())
        return RunRecord.from_dict(payload["record"]) if payload else None

    def get_by_key(self, key):
        """The raw ``{"spec", "record"}`` payload stored under a spec's
        content address, or None — the sweep service's ``/v1/runs/<key>``
        path, where the caller has only the hash."""
        try:
            with open(self.path_for_key(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            RunRecord.from_dict(payload["record"])  # corrupt files miss
            return payload
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def put(self, spec, record):
        path = self.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"spec": spec.to_dict(), "record": record.to_dict()}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)  # atomic: concurrent sweeps never see partials


class RunPool:
    """Executes batches of specs with caching and parallel fan-out.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``, ``1`` runs
        every spec in-process (serial, debugger-friendly).
    cache_dir:
        Directory for the persistent result cache; ``None`` disables it.
    use_cache:
        ``False`` bypasses the cache entirely (no reads, no writes).
    verbose:
        Log one line per executed or cache-hit spec to stderr (a
        :class:`~repro.harness.telemetry.VerboseSink` on the event
        stream — the same events ``--log`` records).
    fingerprint:
        Override the code fingerprint (tests use this to simulate source
        changes).
    telemetry:
        A :class:`~repro.harness.telemetry.TelemetryConfig` (or ``None``
        to consult ``DSI_LOG``/``DSI_PROFILE``).  Activates the JSONL
        log, the live dashboard, worker heartbeats and host profiling.
        Never affects results or cache keys.
    executor:
        ``f(spec, observer=None) -> RunRecord`` run by :func:`run_spec`
        (default :func:`execute_spec`); it must pickle when ``jobs > 1``.
    """

    def __init__(self, jobs=None, cache_dir=None, use_cache=True, verbose=False,
                 fingerprint=None, telemetry=None, executor=None):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache = (
            ResultCache(cache_dir, fingerprint=fingerprint)
            if (cache_dir and use_cache)
            else None
        )
        self.verbose = verbose
        self.telemetry = TelemetryConfig.resolve(telemetry)
        self.executor = executor
        self.executed = 0
        self.cache_hits = 0
        self.failed = 0
        self._manifest = []
        sinks = []
        if self.telemetry is not None:
            if self.telemetry.log_path:
                sinks.append(JsonlSink(self.telemetry.log_path))
            if self.telemetry.live:
                sinks.append(LiveDashboard(stream=self.telemetry.stream))
        if verbose:
            stream = self.telemetry.stream if self.telemetry is not None else None
            sinks.append(VerboseSink(stream=stream))
        # A hub exists whenever anything observes the sweep — including
        # profile-only runs, whose run_started/heartbeat events still
        # need the pump even with no sink attached.
        self.hub = (
            TelemetryHub(sinks) if (sinks or self.telemetry is not None) else None
        )

    # ------------------------------------------------------------------
    def run_batch(self, specs):
        """Execute (or recall) every spec; returns {spec: RunRecord}.

        One telemetry sweep brackets the batch.  Failures do not abort
        it: every pending spec is drained (each failure emitting
        ``run_failed``), ``sweep_end`` is always emitted, and the first
        error re-raises after the drain.
        """
        records = {}
        pending = []
        cached_records = []
        seen = set()
        for spec in specs:
            if spec in seen:
                continue
            seen.add(spec)
            cached = self.cache.get(spec) if self.cache else None
            if cached is not None:
                cached_records.append((spec, cached))
            else:
                pending.append(spec)
        base = (self.executed, self.cache_hits, self.failed)
        sweep_started = time.perf_counter()
        if self.hub is not None:
            self.hub.begin_sweep(new_sweep_id())
            self.hub.emit(
                make_event(
                    "sweep_begin",
                    specs=len(seen),
                    pending=len(pending),
                    jobs=self.jobs,
                    fingerprint=(
                        self.cache.fingerprint if self.cache else code_fingerprint()
                    )[:16],
                )
            )
        first_error = None
        try:
            for spec, cached in cached_records:
                self.cache_hits += 1
                records[spec] = cached
                self._note(spec, cached, cached=True)
                if self.hub is not None:
                    self.hub.emit(run_event("run_cached", spec, cached))
            if self.hub is not None:
                for spec in pending:
                    self.hub.emit(run_event("run_queued", spec))
            for spec, (record, event, error) in self._execute_all(pending):
                if event is not None:
                    self.hub.emit(event)
                if error is not None:
                    self.failed += 1
                    first_error = first_error or error
                    continue
                self.executed += 1
                self._note(spec, record, cached=False)
                records[spec] = record
        finally:
            if self.hub is not None:
                self.hub.emit(
                    make_event(
                        "sweep_end",
                        executed=self.executed - base[0],
                        cache_hits=self.cache_hits - base[1],
                        failed=self.failed - base[2],
                        wall_s=time.perf_counter() - sweep_started,
                    )
                )
                self.hub.end_sweep()
        if first_error is not None:
            raise first_error
        return records

    def run(self, spec):
        """Convenience: a batch of one."""
        return self.run_batch([spec])[spec]

    def close(self):
        """Stop the telemetry pump and flush/close every sink (the JSONL
        log, the live dashboard's final frame).  Idempotent."""
        if self.hub is not None:
            self.hub.close()

    def manifest(self):
        """Run telemetry for everything this pool served, in service
        order: one entry per spec with its cache disposition, wall time
        and simulation speed (cached entries report the wall time of the
        run that originally produced them)."""
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "runs": [dict(entry) for entry in self._manifest],
        }

    # ------------------------------------------------------------------
    def _execute_all(self, pending):
        """Yield ``(spec, run_spec outcome)`` for every pending spec."""
        if not pending:
            return
        cfg = self.telemetry
        heartbeat = cfg.heartbeat_interval if cfg is not None else 0.0
        profile_dir = cfg.profile_dir if cfg is not None else None
        if self.jobs == 1 or len(pending) == 1:
            emit = self.hub.emit if self.hub is not None else None
            for spec in pending:
                yield spec, run_spec(
                    spec, cache=self.cache, emit=emit, heartbeat_interval=heartbeat,
                    profile_dir=profile_dir, execute=self.executor,
                )
            return
        initializer, initargs = None, ()
        if self.hub is not None:
            initializer = _init_worker
            initargs = (self.hub.worker_queue(), heartbeat, profile_dir)
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)),
                initializer=initializer, initargs=initargs,
            ) as pool:
                futures = [pool.submit(_pool_run, spec, self.executor) for spec in pending]
                for spec, future in zip(pending, futures):
                    try:
                        outcome = future.result()
                    except Exception as exc:  # the worker died
                        event = failure_event(spec, exc) if self.hub is not None else None
                        outcome = (None, event, exc)
                    # The parent writes the cache, so one process owns
                    # the write-failure report for the whole sweep.
                    if outcome[0] is not None and self.cache is not None:
                        _store(self.cache, spec, outcome[0])
                    yield spec, outcome
        finally:
            # The executor has shut down: every worker write hit the
            # queue's pipe before this sentinel, so the pump drains
            # completely before parking.
            if self.hub is not None:
                self.hub.stop_pump()

    # ------------------------------------------------------------------
    def _note(self, spec, record, cached):
        self._manifest.append(
            {
                "key": spec.key()[:16],
                "workload": spec.workload,
                "label": spec.config.describe(),
                "cached": cached,
                "exec_time": record.exec_time,
                "wall_time_s": record.wall_time_s,
                "sim_cycles_per_s": record.sim_cycles_per_s,
            }
        )
