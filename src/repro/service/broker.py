"""The :class:`SweepBroker`: the layer between HTTP and the run pool.

A broker owns what individual :class:`~repro.harness.runpool.RunPool`
instances cannot share: a *persistent* worker pool, a bounded FIFO job
queue, and a process-lifetime memo of every run it has ever served.
Submissions from any number of tenants funnel through one dedupe table
keyed by RunSpec content address, so

* a spec already on disk (the :class:`~repro.harness.runpool.ResultCache`)
  is answered instantly as a cache hit,
* a spec currently queued or executing is *joined* — the second tenant
  attaches to the in-flight run and both sweeps are served by one
  execution,
* only genuinely novel specs consume a queue slot.

Admission control is one queue-depth bound, atomic per sweep: a sweep
whose novel specs would overfill the queue is rejected with
:class:`RejectedError` (HTTP 429 + Retry-After) before anything is
enqueued — a sweep is admitted whole or not at all.

Worker threads execute each run through
:func:`~repro.harness.runpool.run_spec`, the harness's one per-spec
lifecycle (``run_started``, heartbeats, cache write, terminal event).
Telemetry is the same schema-v1 stream the harness logs: each sweep
owns a :class:`~repro.harness.telemetry.TelemetryHub` with a
:class:`~repro.harness.telemetry.BufferSink` for replay, and streaming
subscribers attach atomically (replayed prefix, then live fan-out,
exactly once).  A second, *global* hub sees every unique run's lifecycle
exactly once — that is the stream ``serve --log`` records and the load
test audits for exactly-once execution.
"""

import threading
import time
from collections import deque

from repro.errors import ReproError
from repro.harness.runpool import (
    ResultCache,
    code_fingerprint,
    failure_event,
    run_event,
    run_spec,
)
from repro.harness.telemetry import (
    BufferSink,
    JsonlSink,
    TelemetryHub,
    make_event,
    new_sweep_id,
)


class RejectedError(ReproError):
    """A submission refused by admission control (HTTP 429)."""

    #: Seconds a refused client should wait before resubmitting.
    retry_after = 1.0

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason
        self.status = 429


class BrokerClosedError(ReproError):
    """The broker is shut down; no further submissions are accepted."""


#: Run states.  QUEUED/RUNNING are live; DONE/FAILED are terminal and a
#: run, once terminal, never leaves the memo — late sweeps attach to the
#: stored result.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


class _Run:
    """One unique spec's lifetime inside the broker."""

    __slots__ = (
        "key", "spec", "state", "origin", "watchers", "record", "event",
        "worker", "from_disk",
    )

    def __init__(self, key, spec, origin):
        self.key = key
        self.spec = spec
        self.state = QUEUED
        self.origin = origin  # sweep id whose submission created the run
        self.watchers = []    # jobs awaiting this run's terminal event
        self.record = None    # RunRecord once DONE
        self.event = None     # terminal run_finished/run_failed event
        self.worker = None
        self.from_disk = False

    @property
    def terminal(self):
        return self.state in (DONE, FAILED)


class SweepJob:
    """One tenant submission: an ordered spec batch plus its event hub."""

    def __init__(self, sweep_id, tenant, specs, name=None):
        self.id = sweep_id
        self.tenant = tenant
        self.name = name
        self.specs = tuple(specs)
        self.created = time.time()
        self.buffer = BufferSink()
        self.hub = TelemetryHub([self.buffer])
        self.hub.begin_sweep(sweep_id)
        self.runs = []        # _Run per spec, submission order
        self.remaining = 0    # runs not yet terminal *for this sweep*
        self.executed = 0     # runs this sweep caused to execute
        self.cached = 0       # disk hits + memo hits + in-flight joins
        self.failed = 0
        self.wall_s = None
        self.done = threading.Event()

    @property
    def state(self):
        return "done" if self.done.is_set() else "active"

    def status(self):
        """The ``GET /v1/sweeps/<id>`` payload (terminal runs inline
        their full RunRecord, live ones their current state)."""
        runs = []
        for run in self.runs:
            entry = {
                "spec_key": run.key,
                "workload": run.spec.workload,
                "label": run.spec.config.describe(),
                "status": run.state,
            }
            if run.state == DONE:
                entry["record"] = run.record.to_dict()
            elif run.state == FAILED:
                entry["error"] = run.event["error"]
            runs.append(entry)
        return {
            "sweep": self.id,
            "state": self.state,
            "tenant": self.tenant,
            "name": self.name,
            "created": self.created,
            "counts": {
                "specs": len(self.runs),
                "pending": self.remaining,
                "executed": self.executed,
                "cached": self.cached,
                "failed": self.failed,
            },
            "wall_s": self.wall_s,
            "events_buffered": len(self.buffer.events),
            "events_dropped": self.buffer.dropped,
            "runs": runs,
        }


class _QueueSink:
    """Hub sink feeding one streaming subscriber's queue.  ``close``
    (hub shutdown) delivers the ``None`` sentinel so a blocked reader
    wakes and ends its stream."""

    def __init__(self):
        import queue

        self.queue = queue.Queue()

    def handle(self, event):
        self.queue.put(event)

    def close(self):
        self.queue.put(None)


class SweepBroker:
    """Multi-tenant sweep execution with dedupe and admission control.

    Parameters
    ----------
    cache_dir:
        Root of the on-disk :class:`ResultCache`; ``None`` keeps results
        in memory only (the in-process memo still dedupes).
    jobs:
        Persistent worker *threads*.  Threads, not processes: the broker
        lives inside a threaded HTTP server, workers run whole specs
        through :func:`~repro.harness.runpool.run_spec` (the simulator
        releases no GIL, but service workloads are small and the win
        here is dedupe + cache, not parallel speedup).
    queue_depth:
        Max queued-not-yet-running runs; a sweep whose novel specs would
        exceed it is rejected whole with 429.
    log_path:
        Optional JSONL file receiving the global event stream
        (``dsi-sim serve --log``), readable by ``dsi-sim report``.
    heartbeat_interval:
        Worker heartbeat period in seconds; ``0`` (default) disables —
        service runs are typically sub-second.
    executor:
        ``f(spec, observer=None) -> RunRecord`` (default
        :func:`~repro.harness.runpool.execute_spec`); tests substitute a
        stub to control execution timing.
    """

    def __init__(self, cache_dir=None, jobs=2, queue_depth=64, log_path=None,
                 heartbeat_interval=0.0, executor=None, fingerprint=None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.jobs = jobs
        self.queue_depth = queue_depth
        self.heartbeat_interval = heartbeat_interval
        self.cache = ResultCache(cache_dir, fingerprint=fingerprint) if cache_dir else None
        self.fingerprint = self.cache.fingerprint if self.cache else (
            fingerprint or code_fingerprint()
        )
        self._executor = executor
        self.started = time.time()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue = deque()
        self._runs = {}    # spec key -> _Run (process-lifetime memo)
        self._sweeps = {}  # sweep id -> SweepJob
        self._tenants = {}
        self._closed = False
        # The global stream: every unique run exactly once, stamped with
        # its origin sweep (this hub never has an "active" sweep of its
        # own — events carry the field explicitly).
        self.global_buffer = BufferSink(max_events=500_000)
        sinks = [self.global_buffer]
        if log_path:
            sinks.append(JsonlSink(log_path))
        self._ghub = TelemetryHub(sinks)
        self._threads = [
            threading.Thread(target=self._worker_loop, name=f"sweep-worker-{i}",
                             daemon=True)
            for i in range(jobs)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, specs, tenant="anonymous", name=None):
        """Admit one sweep; returns its :class:`SweepJob`.

        Raises :class:`RejectedError` (whole sweep, nothing partially
        enqueued) when the queue cannot take its novel specs, and
        :class:`BrokerClosedError` after :meth:`close`.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("a sweep needs at least one spec")
        # Deduplicate within the batch and probe the disk cache outside
        # the lock (file I/O); in-memory state is re-checked under it.
        unique, seen = [], set()
        for spec in specs:
            key = spec.key()
            if key not in seen:
                seen.add(key)
                unique.append((key, spec))
        disk = {}
        if self.cache is not None:
            for key, spec in unique:
                record = self.cache.get(spec)
                if record is not None:
                    disk[key] = record

        sweep_id = new_sweep_id()
        job = SweepJob(sweep_id, tenant, [spec for _key, spec in unique], name=name)
        fresh, joined, instant = [], [], []
        with self._cond:
            if self._closed:
                raise BrokerClosedError("broker is closed")
            novel = [
                (key, spec) for key, spec in unique
                if key not in self._runs and key not in disk
            ]
            if len(self._queue) + len(novel) > self.queue_depth:
                self._tenant(tenant)["rejected"] += 1
                raise RejectedError(
                    f"queue full ({len(self._queue)}/{self.queue_depth} queued, "
                    f"sweep needs {len(novel)} slots)"
                )
            counters = self._tenant(tenant)
            counters["sweeps"] += 1
            counters["specs"] += len(unique)
            for key, spec in unique:
                run = self._runs.get(key)
                if run is None and key in disk:
                    run = _Run(key, spec, origin=sweep_id)
                    run.state = DONE
                    run.record = disk[key]
                    run.from_disk = True
                    self._runs[key] = run
                if run is None:
                    run = _Run(key, spec, origin=sweep_id)
                    self._runs[key] = run
                    fresh.append(run)
                elif run.terminal:
                    instant.append(run)
                else:
                    joined.append(run)
                job.runs.append(run)
            job.remaining = len(job.runs)
            self._sweeps[sweep_id] = job

        # Emit the sweep's opening events *before* the fresh runs become
        # executable, so a subscriber's stream is always well-ordered
        # (queued precedes terminal).
        job.hub.emit(make_event(
            "sweep_begin", specs=len(job.runs), pending=len(fresh) + len(joined),
            jobs=self.jobs, fingerprint=self.fingerprint[:16],
        ))
        self._emit_global(make_event(
            "sweep_begin", sweep=sweep_id, specs=len(job.runs),
            pending=len(fresh), jobs=self.jobs, fingerprint=self.fingerprint[:16],
        ))
        for run in fresh + joined:
            job.hub.emit(run_event("run_queued", run.spec))
        for run in fresh:
            self._emit_global(run_event("run_queued", run.spec, sweep=sweep_id))

        # Attach to live runs / settle already-terminal ones, then make
        # the fresh runs executable.
        settled, dropped = [], []
        with self._cond:
            for run in joined:
                if run.terminal:
                    settled.append(run)
                else:
                    run.watchers.append(job)
            for run in fresh:
                run.watchers.append(job)
                if self._closed:  # closed between admission and enqueue
                    dropped.append(run)
                else:
                    self._queue.append(run)
            self._cond.notify_all()
        for run in dropped:
            self._drop(run)
        for run in instant + settled:
            if self._settle(job, run):
                self._finish_job(job)
        return job

    def _tenant(self, tenant):
        return self._tenants.setdefault(
            tenant, {"sweeps": 0, "specs": 0, "rejected": 0}
        )

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------
    def _worker_loop(self):
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait(timeout=0.5)
                if self._queue:
                    run = self._queue.popleft()
                    run.state = RUNNING
                    run.worker = threading.get_ident()
                else:  # closed and drained
                    return
            self._execute(run)

    def _execute(self, run):
        def emit(event):
            self._emit_global(dict(event, sweep=run.origin))

        self._complete(run, run_spec(
            run.spec, cache=self.cache, emit=emit, worker=run.worker,
            heartbeat_interval=self.heartbeat_interval, execute=self._executor,
        ))

    def _complete(self, run, outcome):
        """Settle ``run`` with a :func:`run_spec` outcome: record the
        result, emit its terminal event globally, then to every watcher."""
        record, event, error = outcome
        with self._cond:
            run.state = FAILED if error is not None else DONE
            run.record, run.event = record, event
            watchers, run.watchers = run.watchers, []
        self._emit_global(dict(event, sweep=run.origin))
        for job in watchers:
            if self._settle(job, run):
                self._finish_job(job)

    def _drop(self, run):
        """Fail a queued run that shutdown kept from executing."""
        exc = BrokerClosedError("broker closed before execution")
        self._complete(run, (None, failure_event(run.spec, exc), exc))

    def _settle(self, job, run):
        """Deliver ``run``'s terminal event to ``job``; True when the
        sweep just completed.  The *origin* sweep sees the run's own
        ``run_finished`` (it paid for the execution) and every watcher of
        a failure its ``run_failed``; every other watcher — and any disk
        or memo hit — sees ``run_cached``."""
        own = run.state == FAILED or (run.origin == job.id and not run.from_disk)
        with self._lock:
            job.remaining -= 1
            complete = job.remaining == 0
            if run.state == FAILED:
                job.failed += 1
            elif own:
                job.executed += 1
            else:
                job.cached += 1
        job.hub.emit(run.event if own else run_event("run_cached", run.spec, run.record))
        return complete

    def _finish_job(self, job):
        job.wall_s = time.time() - job.created
        job.hub.emit(make_event(
            "sweep_end", executed=job.executed, cache_hits=job.cached,
            failed=job.failed, wall_s=job.wall_s,
        ))
        self._emit_global(make_event(
            "sweep_end", sweep=job.id, executed=job.executed,
            cache_hits=job.cached, failed=job.failed, wall_s=job.wall_s,
        ))
        job.done.set()

    def _emit_global(self, event):
        self._ghub.emit(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sweep(self, sweep_id):
        """The :class:`SweepJob` for an id, or None."""
        with self._lock:
            return self._sweeps.get(sweep_id)

    def wait(self, sweep_id, timeout=None):
        """Block until a sweep completes; returns its status payload."""
        job = self.sweep(sweep_id)
        if job is None:
            raise KeyError(sweep_id)
        if not job.done.wait(timeout):
            raise TimeoutError(f"sweep {sweep_id} still running after {timeout}s")
        return job.status()

    def subscribe(self, sweep_id):
        """Attach a streaming subscriber; returns ``(replay, sink)``.

        ``replay`` is every event the sweep has emitted so far; further
        events arrive on ``sink.queue`` (``None`` terminates).  The
        snapshot and the attachment are atomic, so the subscriber sees
        each event exactly once.  Callers MUST :meth:`unsubscribe`."""
        job = self.sweep(sweep_id)
        if job is None:
            raise KeyError(sweep_id)
        sink = _QueueSink()
        replay = job.hub.add_sink(sink, replay=lambda: job.buffer.events)
        return replay, sink

    def unsubscribe(self, sweep_id, sink):
        job = self.sweep(sweep_id)
        if job is None:
            return False
        return job.hub.remove_sink(sink)

    def run_payload(self, key):
        """``{"spec", "record"}`` for a run key: in-memory memo first,
        then the on-disk cache.  None when unknown."""
        with self._lock:
            run = self._runs.get(key)
            if run is not None and run.state == DONE:
                return {"spec": run.spec.to_dict(), "record": run.record.to_dict()}
        if self.cache is not None:
            return self.cache.get_by_key(key)
        return None

    def global_events(self):
        """Snapshot of the global (exactly-once) event stream."""
        with self._ghub._lock:
            return list(self.global_buffer.events)

    def stats(self):
        with self._lock:
            executed = sum(
                1 for run in self._runs.values()
                if run.state == DONE and not run.from_disk
            )
            failed = sum(1 for run in self._runs.values() if run.state == FAILED)
            live = sum(1 for run in self._runs.values() if not run.terminal)
            requested = sum(t["specs"] for t in self._tenants.values())
            sweeps = list(self._sweeps.values())
            cached = sum(job.cached for job in sweeps)
            tenants = {name: dict(c) for name, c in self._tenants.items()}
            queue_len = len(self._queue)
        served = executed + cached
        return {
            "uptime_s": time.time() - self.started,
            "closed": self._closed,
            "jobs": self.jobs,
            "queue": {"depth": queue_len, "limit": self.queue_depth},
            "sweeps": {
                "total": len(sweeps),
                "active": sum(1 for job in sweeps if not job.done.is_set()),
                "done": sum(1 for job in sweeps if job.done.is_set()),
            },
            "runs": {
                "unique": len(self._runs),
                "executed": executed,
                "failed": failed,
                "live": live,
                "requested": requested,
                "cache_hits": cached,
                "cache_hit_rate": (cached / served) if served else None,
            },
            "tenants": tenants,
            "fingerprint": self.fingerprint[:16],
            "events": {
                "buffered": len(self.global_buffer.events),
                "dropped": self.global_buffer.dropped,
            },
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, drain=True):
        """Stop the broker.  ``drain=True`` (default) lets the workers
        finish every queued run first; ``drain=False`` fails queued runs
        immediately (in-flight ones still complete).  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            dropped = []
            if not drain:
                dropped = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        for run in dropped:
            self._drop(run)
        for thread in self._threads:
            thread.join(timeout=60)
        with self._lock:
            jobs = list(self._sweeps.values())
        for job in jobs:
            job.hub.close()
        self._ghub.close()
