"""Load test: the service under hundreds of concurrent overlapping sweeps.

Twelve tenant threads fire 300 sweep submissions at one live server,
all drawn from a pool of ten unique tiny RunSpecs that *really
execute* (no stub executor here). The assertions are the service's
core promises:

* each unique spec executes exactly once (verified from the global
  event log, not the counters);
* every other request is served by the shared result — ``/v1/stats``
  shows ``executed == unique`` and a high cache-hit rate;
* ``/v1/health`` answers in under a second the whole time, measured
  by a monitor thread polling throughout the storm.
"""

import threading
import time
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.harness.runspec import RunSpec
from repro.service.app import DsiService
from repro.service.client import ServiceClient, ServiceClientError

TENANTS = 12
SWEEPS_PER_TENANT = 25
UNIQUE_SPECS = 10


def _spec_pool():
    return [
        RunSpec.create(
            "producer_consumer", SystemConfig(n_processors=2),
            n_procs=2, blocks=2, iterations=2, seed=seed,
        )
        for seed in range(UNIQUE_SPECS)
    ]


@pytest.mark.slow
def test_service_survives_concurrent_sweep_storm(tmp_path):
    pool = _spec_pool()
    payloads = [spec.to_dict() for spec in pool]
    service = DsiService(
        cache_dir=str(tmp_path / "cache"), jobs=4, queue_depth=256,
    ).start()
    try:
        stop_monitor = threading.Event()
        health_worst = [0.0]
        health_errors = []

        def monitor():
            probe = ServiceClient(service.url, timeout=5.0)
            while not stop_monitor.is_set():
                begin = time.monotonic()
                try:
                    assert probe.health()["status"] == "ok"
                except Exception as exc:  # noqa: BLE001 - recorded, asserted below
                    health_errors.append(repr(exc))
                    break
                health_worst[0] = max(health_worst[0], time.monotonic() - begin)
                time.sleep(0.02)

        monitor_thread = threading.Thread(target=monitor, daemon=True)
        monitor_thread.start()

        results = []  # (tenant, sweep_id) accepted submissions
        errors = []
        lock = threading.Lock()

        def tenant_worker(tenant_id):
            client = ServiceClient(service.url, tenant=f"tenant-{tenant_id}",
                                   timeout=30.0)
            for i in range(SWEEPS_PER_TENANT):
                # overlapping slices of the pool: every sweep shares specs
                # with its neighbours, so in-flight dedupe has to engage
                start = (tenant_id + i) % UNIQUE_SPECS
                batch = [payloads[start], payloads[(start + 1) % UNIQUE_SPECS]]
                try:
                    accepted = client.submit_specs(batch)
                    with lock:
                        results.append((tenant_id, accepted["sweep"]))
                except ServiceClientError as exc:
                    if exc.status == 429:  # queue-full backpressure is legal
                        time.sleep(exc.retry_after or 0.05)
                        continue
                    with lock:
                        errors.append(repr(exc))

        threads = [
            threading.Thread(target=tenant_worker, args=(t,)) for t in range(TENANTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(t.is_alive() for t in threads), "tenant threads hung"
        assert not errors, f"unexpected client errors: {errors[:5]}"
        assert len(results) >= TENANTS * SWEEPS_PER_TENANT * 0.9

        # every accepted sweep completes
        waiter = ServiceClient(service.url, timeout=30.0)
        for _tenant, sweep_id in results:
            status = waiter.wait(sweep_id, timeout=120)
            assert status["counts"]["failed"] == 0

        stop_monitor.set()
        monitor_thread.join(10)
        assert not health_errors, health_errors
        assert health_worst[0] < 1.0, f"health latency {health_worst[0]:.3f}s"

        # exactly-once execution, proven from the global event log itself
        starts = Counter(
            event["spec_key"]
            for event in service.broker.global_events()
            if event["type"] == "run_started"
        )
        assert len(starts) == UNIQUE_SPECS
        assert set(starts.values()) == {1}, f"re-executed specs: {starts}"

        stats = waiter.stats()
        assert stats["runs"]["executed"] == UNIQUE_SPECS
        assert stats["runs"]["failed"] == 0
        assert stats["runs"]["requested"] >= len(results) * 2
        assert stats["runs"]["cache_hits"] == stats["runs"]["requested"] - UNIQUE_SPECS
        assert stats["runs"]["cache_hit_rate"] > 0.9
        assert stats["sweeps"]["active"] == 0
        assert len(stats["tenants"]) == TENANTS
    finally:
        service.close()
