"""The HTTP façade: ``dsi-sim serve`` and the in-process test server.

Stdlib only (:class:`http.server.ThreadingHTTPServer`), so the service
adds no runtime dependency and a test can stand up a real server on an
ephemeral port in-process.  Routes (see docs/SERVICE.md):

========================================  ======================================
``GET  /v1/health``                       liveness probe (never touches the broker lock)
``GET  /v1/stats``                        uptime, queue depth, cache hit rate, tenants
``GET  /v1/registry[?prefix=...]``        named-sweep listing
``POST /v1/sweeps``                       submit a JSON RunSpec batch
``POST /v1/sweeps?name=bench/smoke``      submit a registry-named sweep
``GET  /v1/sweeps/<id>``                  sweep status + per-run results
``GET  /v1/sweeps/<id>/events``           NDJSON telemetry stream (replay + live)
``GET  /v1/runs/<cache_key>``             one cached ``{"spec", "record"}``
========================================  ======================================

Error responses are JSON: 400 carries the structured
:class:`~repro.harness.runspec.SpecValidationError` detail list, 429
carries ``Retry-After`` (seconds) from admission control, 503 means the
broker is shutting down.
"""

import json
import queue
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from repro.errors import ConfigError, ReproError
from repro.harness.runspec import RunSpec, SpecValidationError
from repro.service import SERVICE_SCHEMA_VERSION
from repro.service.broker import BrokerClosedError, RejectedError, SweepBroker
from repro.service.registry import SweepRegistry, default_registry

#: Largest accepted request body (a full-suite sweep is ~100 KB).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    server_version = "dsi-sim-serve/1"

    # -- plumbing -------------------------------------------------------
    @property
    def broker(self):
        return self.server.broker

    @property
    def registry(self):
        return self.server.registry

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            sys.stderr.write(
                f"[serve] {self.address_string()} {format % args}\n"
            )

    def _send_json(self, status, payload, headers=()):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": f"body larger than {MAX_BODY_BYTES} bytes"})
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            self._send_json(400, {"error": f"request body is not JSON: {exc}"})
            return None
        if not isinstance(body, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return None
        return body

    def _tenant(self, body):
        return (
            self.headers.get("X-Tenant")
            or (body or {}).get("tenant")
            or "anonymous"
        )

    # -- dispatch -------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.strip("/").split("/") if p]
        try:
            if parts == ["v1", "health"]:
                self._health()
            elif parts == ["v1", "stats"]:
                self._stats()
            elif parts == ["v1", "registry"]:
                self._registry_list(url)
            elif len(parts) == 3 and parts[:2] == ["v1", "sweeps"]:
                self._sweep_status(parts[2])
            elif len(parts) == 4 and parts[:2] == ["v1", "sweeps"] and parts[3] == "events":
                self._sweep_events(parts[2])
            elif len(parts) == 3 and parts[:2] == ["v1", "runs"]:
                self._run(parts[2])
            else:
                self._send_json(404, {"error": f"no such resource: {url.path}"})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except ReproError as exc:
            self._send_json(500, {"error": str(exc)})

    def do_POST(self):  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.strip("/").split("/") if p]
        try:
            if parts == ["v1", "sweeps"]:
                self._submit(url)
            else:
                self._send_json(404, {"error": f"no such resource: {url.path}"})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except ReproError as exc:
            self._send_json(500, {"error": str(exc)})

    # -- endpoints ------------------------------------------------------
    def _health(self):
        # Deliberately lock-free: health must answer fast even when the
        # broker is saturated.
        self._send_json(200, {
            "status": "ok",
            "schema": SERVICE_SCHEMA_VERSION,
            "uptime_s": time.time() - self.server.started,
        })

    def _stats(self):
        payload = self.broker.stats()
        payload["schema"] = SERVICE_SCHEMA_VERSION
        payload["registry"] = {"names": len(self.registry)}
        self._send_json(200, payload)

    def _registry_list(self, url):
        params = parse_qs(url.query)
        prefix = params.get("prefix", [None])[0]
        try:
            rows = self.registry.describe(prefix)
        except ConfigError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(200, {"schema": SERVICE_SCHEMA_VERSION, "sweeps": rows})

    def _submit(self, url):
        body = self._read_body()
        if body is None:
            return
        tenant = self._tenant(body)
        params = parse_qs(url.query)
        name = params.get("name", [None])[0]
        if name is not None:
            try:
                specs = list(self.registry.lookup(name))
            except KeyError:
                self._send_json(404, {"error": f"no registered sweep named {name!r}"})
                return
            except ConfigError as exc:
                self._send_json(400, {"error": str(exc)})
                return
        else:
            spec_payloads = body.get("specs")
            if not isinstance(spec_payloads, list) or not spec_payloads:
                self._send_json(400, {
                    "error": "submission needs a non-empty 'specs' list "
                             "(or a ?name= registry reference)"
                })
                return
            specs, errors = _parse_specs(spec_payloads)
            if errors:
                self._send_json(
                    400, {"error": "invalid RunSpec payload", "details": errors}
                )
                return
        try:
            job = self.broker.submit(specs, tenant=tenant, name=name)
        except RejectedError as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after},
                headers=[("Retry-After", f"{exc.retry_after:.3f}")],
            )
            return
        except BrokerClosedError:
            self._send_json(503, {"error": "server is shutting down"})
            return
        status = job.status()
        self._send_json(202, {
            "sweep": job.id,
            "state": status["state"],
            "tenant": tenant,
            "name": name,
            "counts": status["counts"],
        })

    def _sweep_status(self, sweep_id):
        job = self.broker.sweep(sweep_id)
        if job is None:
            self._send_json(404, {"error": f"no such sweep: {sweep_id}"})
            return
        self._send_json(200, job.status())

    def _sweep_events(self, sweep_id):
        try:
            replay, sink = self.broker.subscribe(sweep_id)
        except KeyError:
            self._send_json(404, {"error": f"no such sweep: {sweep_id}"})
            return
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Cache-Control", "no-store")
            self.end_headers()
            ended = False
            for event in replay:
                self.wfile.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
                if event.get("type") == "sweep_end":
                    ended = True
            self.wfile.flush()
            while not ended:
                try:
                    event = sink.queue.get(timeout=1.0)
                except queue.Empty:
                    if self.broker.sweep(sweep_id).done.is_set():
                        break  # done but sweep_end was consumed elsewhere
                    continue
                if event is None:  # hub closed (server shutdown)
                    break
                self.wfile.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
                self.wfile.flush()
                ended = event.get("type") == "sweep_end"
        except (BrokenPipeError, ConnectionResetError):
            pass  # subscriber disconnected mid-stream
        finally:
            # Always detach, or the hub would fan out to a dead queue
            # forever (tests assert no sink leaks here).
            self.broker.unsubscribe(sweep_id, sink)

    def _run(self, key):
        payload = self.broker.run_payload(key)
        if payload is None:
            self._send_json(404, {"error": f"no cached run under key {key[:32]!r}"})
            return
        self._send_json(200, payload)


def _parse_specs(payloads):
    """Validate a payload list into RunSpecs; returns ``(specs, errors)``
    where each error dict is tagged with its spec index."""
    specs, errors = [], []
    for index, payload in enumerate(payloads):
        try:
            specs.append(RunSpec.from_dict(payload))
        except SpecValidationError as exc:
            errors.extend({"spec": index, **detail} for detail in exc.errors)
    return specs, errors


class _Server(ThreadingHTTPServer):
    # The stdlib default accept backlog (5) overflows under concurrent
    # tenants opening a fresh connection per request; a dropped SYN costs
    # the client a full 1s kernel retransmit.  Deepen it well past any
    # realistic connection burst.
    request_queue_size = 128


class DsiService:
    """One running sweep server: broker + registry + HTTP listener.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` is the base
    address either way.  Use as a context manager or call :meth:`close`
    — shutdown stops the listener, then drains the broker.
    """

    def __init__(self, host="127.0.0.1", port=0, broker=None, registry=None,
                 quiet=True, **broker_kwargs):
        self.broker = broker if broker is not None else SweepBroker(**broker_kwargs)
        self._own_broker = broker is None
        if registry is None:
            registry = default_registry()
        elif not isinstance(registry, SweepRegistry):
            raise ConfigError("registry must be a SweepRegistry")
        self.registry = registry
        self._server = _Server((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.broker = self.broker
        self._server.registry = self.registry
        self._server.quiet = quiet
        self._server.started = time.time()
        self.host, self.port = self._server.server_address[:2]
        self._thread = None

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Serve in a background thread (in-process use); returns self."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="dsi-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self):
        """Serve on the calling thread (the CLI path)."""
        self._server.serve_forever()

    def close(self, drain=True):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        if self._own_broker:
            self.broker.close(drain=drain)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()
