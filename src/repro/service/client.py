"""HTTP client for the sweep service (``dsi-sim submit`` and library use).

Pure stdlib (``urllib.request``) against the API in docs/SERVICE.md.
Transport or HTTP-level failures raise :class:`ServiceClientError`
carrying the status code and the server's structured error payload when
one was returned (429 responses include the parsed ``Retry-After``).
"""

import json
import urllib.error
import urllib.request

from repro.errors import ReproError


class ServiceClientError(ReproError):
    """A request the service refused (or could not be delivered)."""

    def __init__(self, message, status=None, payload=None, retry_after=None):
        super().__init__(message)
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


class ServiceClient:
    """Talks to one ``dsi-sim serve`` instance.

    >>> client = ServiceClient("http://127.0.0.1:8775")
    >>> sweep = client.submit_name("bench/smoke", tenant="ci")
    >>> done = client.wait(sweep["sweep"])
    """

    def __init__(self, base_url, tenant=None, timeout=30.0):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport ------------------------------------------------------
    def _request(self, method, path, body=None, stream=False, timeout=None,
                 tenant=None):
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if tenant or self.tenant:
            headers["X-Tenant"] = tenant or self.tenant
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        try:
            response = urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            )
        except urllib.error.HTTPError as exc:
            payload = None
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except (ValueError, OSError):
                pass
            retry_after = exc.headers.get("Retry-After")
            message = (payload or {}).get("error") or f"HTTP {exc.code} on {path}"
            raise ServiceClientError(
                message, status=exc.code, payload=payload,
                retry_after=float(retry_after) if retry_after else None,
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise ServiceClientError(f"cannot reach {url}: {exc}") from exc
        if stream:
            return response
        with response:
            return json.loads(response.read().decode("utf-8"))

    # -- endpoints ------------------------------------------------------
    def health(self):
        return self._request("GET", "/v1/health")

    def stats(self):
        return self._request("GET", "/v1/stats")

    def registry(self, prefix=None):
        path = "/v1/registry"
        if prefix:
            from urllib.parse import quote

            path += "?prefix=" + quote(prefix, safe="")
        return self._request("GET", path)

    def submit_specs(self, specs, tenant=None):
        """POST a batch of RunSpecs (objects or already-serialized
        dicts); returns the acceptance payload with the sweep id."""
        payload = {
            "specs": [
                spec if isinstance(spec, dict) else spec.to_dict()
                for spec in specs
            ]
        }
        return self._request("POST", "/v1/sweeps", body=payload, tenant=tenant)

    def submit_name(self, name, tenant=None):
        """POST a registry-named sweep (``/v1/sweeps?name=bench/smoke``)."""
        from urllib.parse import quote

        return self._request(
            "POST", "/v1/sweeps?name=" + quote(name, safe=""), body={},
            tenant=tenant,
        )

    def sweep(self, sweep_id):
        return self._request("GET", f"/v1/sweeps/{sweep_id}")

    def run(self, cache_key):
        return self._request("GET", f"/v1/runs/{cache_key}")

    def wait(self, sweep_id, timeout=300.0, poll=0.2):
        """Poll until the sweep is done; returns its final status."""
        import time

        deadline = time.monotonic() + timeout
        while True:
            status = self.sweep(sweep_id)
            if status["state"] == "done":
                return status
            if time.monotonic() >= deadline:
                raise ServiceClientError(
                    f"sweep {sweep_id} still {status['state']} after {timeout}s"
                )
            time.sleep(poll)

    def events(self, sweep_id, timeout=300.0):
        """Generator over the sweep's NDJSON event stream (ends at
        ``sweep_end`` or when the server closes the stream)."""
        response = self._request(
            "GET", f"/v1/sweeps/{sweep_id}/events", stream=True, timeout=timeout
        )
        with response:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                yield event
                if event.get("type") == "sweep_end":
                    return
