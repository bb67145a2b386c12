"""Simulation-as-a-service: the ``dsi-sim serve`` subsystem.

Turns the harness into a long-running multi-tenant server.  Every
ingredient already existed — frozen, hashable, JSON-round-trippable
:class:`~repro.harness.runspec.RunSpec` values, the content-addressed
on-disk :class:`~repro.harness.runpool.ResultCache`, and the
schema-versioned harness telemetry stream — this package makes them
reachable over HTTP:

:mod:`repro.service.broker`
    The :class:`~repro.service.broker.SweepBroker`: a persistent worker
    pool shared across requests running each spec through the harness's
    per-spec path (:func:`~repro.harness.runpool.run_spec`), a bounded
    FIFO job queue whose depth is the one admission limit (429 +
    Retry-After), in-flight dedupe keyed by spec content address
    (identical specs from different tenants share one execution), and
    per-sweep telemetry hubs with streaming-subscriber fan-out.

:mod:`repro.service.registry`
    A hierarchical named-sweep registry (``bench/smoke``,
    ``paper/figure3``, ...) seeded from the pinned bench suites and the
    paper figure/table planners, with lookup/list.

:mod:`repro.service.app`
    The stdlib HTTP façade (:class:`~repro.service.app.DsiService`,
    importable and testable in-process) behind ``dsi-sim serve``.

:mod:`repro.service.client`
    :class:`~repro.service.client.ServiceClient`, the programmatic and
    ``dsi-sim submit`` client: submit specs or named sweeps, stream the
    NDJSON event feed, fetch results.

See docs/SERVICE.md for the API reference.
"""

#: Version of the service's JSON payload layout (status, stats, errors).
SERVICE_SCHEMA_VERSION = 1

from repro.service.broker import BrokerClosedError, RejectedError, SweepBroker  # noqa: E402
from repro.service.client import ServiceClient, ServiceClientError  # noqa: E402
from repro.service.registry import SweepRegistry, default_registry  # noqa: E402
from repro.service.app import DsiService  # noqa: E402

__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "BrokerClosedError",
    "DsiService",
    "RejectedError",
    "ServiceClient",
    "ServiceClientError",
    "SweepBroker",
    "SweepRegistry",
    "default_registry",
]
