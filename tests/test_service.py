"""The sweep service: registry, broker, HTTP API.

Unit coverage for :mod:`repro.service` — the broker's admission control
(queue-full 429), in-flight dedupe under concurrency, streaming-subscriber
lifecycle (no leaked sinks), shutdown draining, and the in-process HTTP
façade with its structured errors.
The end-to-end concurrency hammering lives in ``test_service_load.py``.
"""

import json
import threading
import time
import urllib.request
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.harness.runspec import RunSpec
from repro.harness.telemetry import validate_event
from repro.service.app import DsiService
from repro.service.broker import BrokerClosedError, RejectedError, SweepBroker
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.registry import SweepRegistry, default_registry, normalize_name


def tiny_spec(seed=1, procs=2):
    """A spec that simulates in ~15ms — small enough to execute for real."""
    return RunSpec.create(
        "producer_consumer", SystemConfig(n_processors=procs),
        n_procs=procs, blocks=2, iterations=2, seed=seed,
    )


@pytest.fixture(scope="module")
def canned_record():
    """One real RunRecord, reused by stub executors (records are values)."""
    return tiny_spec().execute()


class StubExecutor:
    """Counts executions per spec key; optionally gated on an Event."""

    def __init__(self, record, gate=None, delay=0.0, fail_keys=()):
        self.record = record
        self.gate = gate
        self.delay = delay
        self.fail_keys = set(fail_keys)
        self.calls = Counter()
        self._lock = threading.Lock()

    def __call__(self, spec, observer=None):
        with self._lock:
            self.calls[spec.key()] += 1
        if self.gate is not None:
            assert self.gate.wait(10), "test gate never opened"
        if self.delay:
            time.sleep(self.delay)
        if spec.key() in self.fail_keys:
            raise RuntimeError("synthetic run failure")
        return self.record


def make_broker(canned_record, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("executor", StubExecutor(canned_record))
    return SweepBroker(**kwargs)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_normalize_accepts_colon_spelling(self):
        assert normalize_name("ablation:fifo_depth") == "ablation/fifo_depth"
        assert normalize_name("bench/smoke") == "bench/smoke"

    @pytest.mark.parametrize("bad", ["", None, "a//b", "a/b c", "a/../b "])
    def test_normalize_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            normalize_name(bad)

    def test_register_and_lookup_eager(self):
        registry = SweepRegistry()
        registry.register("team/mine", specs=[tiny_spec()], description="x")
        assert registry.lookup("team/mine") == (tiny_spec(),)
        assert "team/mine" in registry

    def test_loader_is_lazy_and_memoized(self):
        calls = []

        def loader():
            calls.append(1)
            return [tiny_spec()]

        registry = SweepRegistry()
        registry.register("lazy/plan", loader=loader)
        assert registry.describe("lazy")[0]["specs"] is None  # not materialized
        assert not calls
        registry.lookup("lazy/plan")
        registry.lookup("lazy/plan")
        assert len(calls) == 1
        assert registry.describe("lazy")[0]["specs"] == 1

    def test_duplicate_name_refused_unless_overwrite(self):
        registry = SweepRegistry()
        registry.register("a/b", specs=[tiny_spec()])
        with pytest.raises(ConfigError, match="already taken"):
            registry.register("a/b", specs=[tiny_spec(2)])
        registry.register("a/b", specs=[tiny_spec(2)], overwrite=True)
        assert registry.lookup("a/b") == (tiny_spec(2),)

    def test_prefix_matches_whole_segments(self):
        registry = SweepRegistry()
        registry.register("paper/figure3", specs=[tiny_spec()])
        registry.register("papers/other", specs=[tiny_spec()])
        assert registry.names("paper") == ["paper/figure3"]

    def test_default_registry_seeds_bench_and_paper(self):
        registry = default_registry()
        names = registry.names()
        assert "bench/smoke" in names
        assert "paper/figure3" in names
        assert any(name.startswith("ablation/") for name in names)
        specs = registry.lookup("bench/smoke")
        assert len(specs) == 3
        assert all(isinstance(spec, RunSpec) for spec in specs)

    def test_default_registry_paper_plans_materialize(self):
        registry = default_registry(procs=4, quick=True)
        specs = registry.lookup("paper/figure2")
        assert specs
        assert all(isinstance(spec, RunSpec) for spec in specs)
        assert len({spec.key() for spec in specs}) == len(specs)


# ----------------------------------------------------------------------
# Broker
# ----------------------------------------------------------------------
class TestBroker:
    def test_execute_then_cache_hit_across_sweeps(self, canned_record, tmp_path):
        broker = make_broker(canned_record, cache_dir=str(tmp_path / "cache"))
        try:
            first = broker.wait(broker.submit([tiny_spec()]).id, timeout=10)
            assert first["counts"] == {
                "specs": 1, "pending": 0, "executed": 1, "cached": 0, "failed": 0,
            }
            second = broker.wait(broker.submit([tiny_spec()]).id, timeout=10)
            assert second["counts"]["cached"] == 1
            assert second["counts"]["executed"] == 0
            assert broker._executor.calls[tiny_spec().key()] == 1
        finally:
            broker.close()

    def test_disk_cache_shared_across_broker_restarts(self, canned_record, tmp_path):
        cache_dir = str(tmp_path / "cache")
        broker = make_broker(canned_record, cache_dir=cache_dir)
        broker.wait(broker.submit([tiny_spec()]).id, timeout=10)
        broker.close()
        reborn = make_broker(canned_record, cache_dir=cache_dir)
        try:
            status = reborn.wait(reborn.submit([tiny_spec()]).id, timeout=10)
            assert status["counts"]["cached"] == 1
            assert not reborn._executor.calls  # nothing re-executed
        finally:
            reborn.close()

    def test_batch_duplicates_collapse(self, canned_record):
        broker = make_broker(canned_record)
        try:
            job = broker.submit([tiny_spec(1), tiny_spec(2), tiny_spec(1)])
            status = broker.wait(job.id, timeout=10)
            assert status["counts"]["specs"] == 2
            assert status["counts"]["executed"] == 2
        finally:
            broker.close()

    def test_inflight_join_executes_once(self, canned_record):
        gate = threading.Event()
        broker = make_broker(
            canned_record, executor=StubExecutor(canned_record, gate=gate)
        )
        try:
            first = broker.submit([tiny_spec()], tenant="alice")
            second = broker.submit([tiny_spec()], tenant="bob")
            assert not first.done.is_set() and not second.done.is_set()
            gate.set()
            one = broker.wait(first.id, timeout=10)
            two = broker.wait(second.id, timeout=10)
            assert broker._executor.calls[tiny_spec().key()] == 1
            # one sweep paid for the execution, the other was served by it
            dispositions = sorted(
                (s["counts"]["executed"], s["counts"]["cached"]) for s in (one, two)
            )
            assert dispositions == [(0, 1), (1, 0)]
            started = [
                e for e in broker.global_events() if e["type"] == "run_started"
            ]
            assert len(started) == 1
        finally:
            gate.set()
            broker.close()

    def test_queue_full_rejects_whole_sweep(self, canned_record):
        gate = threading.Event()
        broker = SweepBroker(
            jobs=1, queue_depth=2,
            executor=StubExecutor(canned_record, gate=gate),
        )
        try:
            broker.submit([tiny_spec(1)])           # picked up by the worker
            time.sleep(0.05)                        # let it leave the queue
            broker.submit([tiny_spec(2), tiny_spec(3)])  # fills both slots
            with pytest.raises(RejectedError) as excinfo:
                broker.submit([tiny_spec(4)])
            assert excinfo.value.status == 429
            assert "queue full" in str(excinfo.value)
            # the rejected sweep left no trace: no job, no queued run
            assert broker.stats()["sweeps"]["total"] == 2
            assert tiny_spec(4).key() not in broker._runs
            gate.set()
            for job_id in list(broker._sweeps):
                broker.wait(job_id, timeout=10)
        finally:
            gate.set()
            broker.close()

    def test_failed_run_terminates_sweep(self, canned_record):
        spec = tiny_spec()
        broker = make_broker(
            canned_record,
            executor=StubExecutor(canned_record, fail_keys=[spec.key()]),
        )
        try:
            status = broker.wait(broker.submit([spec, tiny_spec(2)]).id, timeout=10)
            assert status["counts"]["failed"] == 1
            assert status["counts"]["executed"] == 1
            failed = next(r for r in status["runs"] if r["status"] == "failed")
            assert "synthetic run failure" in failed["error"]
            # the failure is memoized too: a retry is served the failure
            retry = broker.wait(broker.submit([spec]).id, timeout=10)
            assert retry["counts"]["failed"] == 1
            assert broker._executor.calls[spec.key()] == 1
        finally:
            broker.close()

    def test_subscriber_sees_each_event_exactly_once(self, canned_record):
        gate = threading.Event()
        broker = make_broker(
            canned_record, executor=StubExecutor(canned_record, gate=gate)
        )
        try:
            job = broker.submit([tiny_spec(1), tiny_spec(2)])
            replay, sink = broker.subscribe(job.id)
            gate.set()
            events = list(replay)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    event = sink.queue.get(timeout=0.5)
                except Exception:
                    continue
                if event is None:
                    break
                events.append(event)
                if event["type"] == "sweep_end":
                    break
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(set(seqs))  # no duplicates, total order
            types = Counter(e["type"] for e in events)
            assert types["sweep_begin"] == 1
            assert types["run_queued"] == 2
            assert types["run_finished"] == 2
            assert types["sweep_end"] == 1
            for event in events:
                validate_event(event)
                assert event["sweep"] == job.id
        finally:
            gate.set()
            broker.unsubscribe(job.id, sink)
            broker.close()

    def test_unsubscribe_removes_sink(self, canned_record):
        broker = make_broker(canned_record)
        try:
            job = broker.submit([tiny_spec()])
            broker.wait(job.id, timeout=10)
            _replay, sink = broker.subscribe(job.id)
            assert sink in job.hub.sinks
            assert broker.unsubscribe(job.id, sink)
            assert sink not in job.hub.sinks
            assert not broker.unsubscribe(job.id, sink)  # idempotent
            assert job.hub.sinks == [job.buffer]  # only the replay store left
        finally:
            broker.close()

    def test_close_drains_inflight_runs(self, canned_record):
        broker = SweepBroker(
            jobs=2, executor=StubExecutor(canned_record, delay=0.03)
        )
        jobs = [broker.submit([tiny_spec(i)]) for i in range(6)]
        broker.close(drain=True)
        for job in jobs:
            assert job.done.is_set()
            assert job.status()["counts"]["executed"] == 1
        assert all(not t.is_alive() for t in broker._threads)

    def test_close_without_drain_fails_queued_runs(self, canned_record):
        gate = threading.Event()
        broker = SweepBroker(
            jobs=1, queue_depth=64,
            executor=StubExecutor(canned_record, gate=gate),
        )
        running = broker.submit([tiny_spec(1)])
        time.sleep(0.05)  # worker picks up run 1
        queued = broker.submit([tiny_spec(2)])
        gate.set()
        broker.close(drain=False)
        assert broker.wait(running.id, timeout=10)["counts"]["failed"] == 0
        dropped = broker.wait(queued.id, timeout=10)
        assert dropped["counts"]["failed"] == 1
        assert "closed" in dropped["runs"][0]["error"]

    def test_submit_after_close_raises(self, canned_record):
        broker = make_broker(canned_record)
        broker.close()
        with pytest.raises(BrokerClosedError):
            broker.submit([tiny_spec()])

    def test_unwritable_cache_keeps_records(self, canned_record, tmp_path, capfd):
        blocker = tmp_path / "file"
        blocker.write_text("")
        broker = make_broker(canned_record, cache_dir=str(blocker / "cache"))
        try:
            status = broker.wait(
                broker.submit([tiny_spec(1), tiny_spec(2)]).id, timeout=10
            )
            assert status["counts"]["executed"] == 2
            assert all(run["record"] for run in status["runs"])
        finally:
            broker.close()
        assert capfd.readouterr().err.count("result cache write failed") == 1

    def test_run_payload_from_memo_and_disk(self, canned_record, tmp_path):
        broker = make_broker(canned_record, cache_dir=str(tmp_path / "cache"))
        try:
            spec = tiny_spec()
            broker.wait(broker.submit([spec]).id, timeout=10)
            payload = broker.run_payload(spec.key())
            assert payload["spec"]["workload"] == "producer_consumer"
            assert payload["record"]["exec_time"] == canned_record.exec_time
            assert broker.run_payload("0" * 64) is None
        finally:
            broker.close()


# ----------------------------------------------------------------------
# HTTP façade (in-process, real sockets)
# ----------------------------------------------------------------------
@pytest.fixture()
def service(canned_record, tmp_path):
    svc = DsiService(
        cache_dir=str(tmp_path / "cache"), jobs=2, queue_depth=64,
        executor=StubExecutor(canned_record),
        registry=_tiny_registry(),
    ).start()
    try:
        yield svc
    finally:
        svc.close()


def _tiny_registry():
    registry = SweepRegistry()
    registry.register("bench/tiny", specs=[tiny_spec(1), tiny_spec(2)],
                      description="two tiny runs", source="seed")
    return registry


class TestHttpApi:
    def test_health_and_stats(self, service):
        client = ServiceClient(service.url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        stats = client.stats()
        assert stats["schema"] == 1
        assert stats["queue"] == {"depth": 0, "limit": 64}
        assert stats["registry"]["names"] == 1

    def test_submit_wait_fetch_run(self, service):
        client = ServiceClient(service.url, tenant="t")
        accepted = client.submit_specs([tiny_spec()])
        assert accepted["counts"]["specs"] == 1
        status = client.wait(accepted["sweep"], timeout=10)
        assert status["state"] == "done"
        run = status["runs"][0]
        assert run["status"] == "done"
        fetched = client.run(run["spec_key"])
        assert fetched["record"] == run["record"]

    def test_submit_by_name_and_registry_listing(self, service):
        client = ServiceClient(service.url)
        listing = client.registry()
        assert [row["name"] for row in listing["sweeps"]] == ["bench/tiny"]
        accepted = client.submit_name("bench/tiny")
        status = client.wait(accepted["sweep"], timeout=10)
        assert status["counts"]["specs"] == 2

    def test_invalid_spec_payload_is_structured_400(self, service):
        client = ServiceClient(service.url)
        good = tiny_spec().to_dict()
        bad = tiny_spec(2).to_dict()
        bad["config"]["identify"] = "psychic"
        bad["surprise"] = True
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_specs([good, bad])
        assert excinfo.value.status == 400
        details = excinfo.value.payload["details"]
        assert all(entry["spec"] == 1 for entry in details)  # index is tagged
        assert {entry["field"] for entry in details} == {"config.identify", "surprise"}

    def test_unknown_routes_and_names_are_404(self, service):
        client = ServiceClient(service.url)
        for call in (
            lambda: client.sweep("nope"),
            lambda: client.run("0" * 64),
            lambda: client.submit_name("bench/absent"),
            lambda: client._request("GET", "/v2/everything"),
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_empty_submission_is_400(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/v1/sweeps", body={"specs": []})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/v1/sweeps", body={})
        assert excinfo.value.status == 400

    def test_event_stream_is_schema_valid_ndjson(self, service):
        client = ServiceClient(service.url)
        accepted = client.submit_specs([tiny_spec(1), tiny_spec(2)])
        events = list(client.events(accepted["sweep"], timeout=10))
        assert events[0]["type"] == "sweep_begin"
        assert events[-1]["type"] == "sweep_end"
        for event in events:
            validate_event(event)
        # replaying after completion yields the identical stream
        again = list(client.events(accepted["sweep"], timeout=10))
        assert [e["seq"] for e in again] == [e["seq"] for e in events]

    def test_disconnected_subscriber_leaves_no_sink(self, canned_record, tmp_path):
        gate = threading.Event()
        svc = DsiService(
            jobs=1, executor=StubExecutor(canned_record, gate=gate),
            registry=_tiny_registry(),
        ).start()
        try:
            client = ServiceClient(svc.url)
            accepted = client.submit_specs([tiny_spec()])
            job = svc.broker.sweep(accepted["sweep"])
            response = client._request(
                "GET", f"/v1/sweeps/{accepted['sweep']}/events", stream=True
            )
            response.readline()  # sweep_begin: the handler is attached
            assert len(job.hub.sinks) == 2
            response.close()  # client vanishes mid-stream
            gate.set()  # terminal events now hit the dead socket
            client.wait(accepted["sweep"], timeout=10)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and len(job.hub.sinks) > 1:
                time.sleep(0.05)
            assert job.hub.sinks == [job.buffer]  # the handler unsubscribed
        finally:
            gate.set()
            svc.close()

    def test_429_carries_retry_after_header(self, canned_record):
        gate = threading.Event()
        svc = DsiService(
            jobs=1, queue_depth=1,
            executor=StubExecutor(canned_record, gate=gate),
            registry=_tiny_registry(),
        ).start()
        try:
            client = ServiceClient(svc.url, tenant="hammer")
            client.submit_specs([tiny_spec(1)])  # picked up by the worker
            deadline = time.monotonic() + 10
            while svc.broker.stats()["queue"]["depth"] and time.monotonic() < deadline:
                time.sleep(0.01)
            client.submit_specs([tiny_spec(2)])  # fills the one queue slot
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit_specs([tiny_spec(3)])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 0
            assert "queue full" in excinfo.value.payload["error"]
            assert client.stats()["tenants"]["hammer"]["rejected"] == 1
        finally:
            gate.set()
            svc.close()

    def test_raw_request_content_type_and_bad_json(self, service):
        request = urllib.request.Request(
            service.url + "/v1/sweeps", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "not JSON" in body["error"]
