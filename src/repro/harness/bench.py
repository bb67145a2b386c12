"""The benchmark observatory: pinned suites, BENCH snapshots, regression
comparison.

``dsi-sim bench`` runs one of the pinned suites below and writes a
schema-versioned ``BENCH_<timestamp>.json`` snapshot: per-run wall time,
simulation speed (simulated cycles per host second), execution time,
miss rate, self-invalidations and network-message counts, plus enough
host metadata to interpret drift.  ``dsi-sim bench --compare old new``
diffs two snapshots run-by-run and flags regressions; CI runs the quick
suite on every push and fails the build when simulation speed drops more
than the threshold against the cached baseline.

Two thresholds with different temperaments:

* ``threshold`` guards **host performance** (``sim_cycles_per_s``): this
  is noisy (machine load, thermal state), so only a *drop* beyond the
  threshold counts, improvements never fail, and the default is a
  generous 15%.
* ``sim_threshold`` (opt-in, ``None`` by default) guards **simulated
  quantities** (``exec_time``, network messages): these are deterministic,
  so *any* drift beyond the threshold — either direction — is flagged.
  Use it to catch unintended model changes, not host noise.
"""

import glob
import json
import os
import platform
import sys
import time

from repro.errors import ConfigError
from repro.harness.configs import PROTOCOLS, WORKLOADS, paper_config, workload_args
from repro.harness.runpool import RunPool
from repro.harness.runspec import RunSpec
from repro.stats.report import format_table

#: Version of the BENCH_*.json payload layout.  v2 added ``mode``, the
#: suite's ``SystemConfig.execution_mode``.  Every value now runs the same
#: engine; the field stays so older snapshots load and compare unchanged.
BENCH_SCHEMA_VERSION = 2

#: Pinned suites: (workload, protocol label) pairs.  Pinning matters —
#: a comparison is only meaningful between snapshots of the same suite,
#: matched run-by-run on (workload, protocol).
SUITES = {
    # Seconds on any host; sanity-checks the machinery itself.
    "smoke": (
        ("producer_consumer", "SC"),
        ("producer_consumer", "V"),
        ("producer_consumer", "TARDIS"),
    ),
    # CI gate: three paper workloads at quick scale across the base
    # protocol, weak consistency, DSI-with-versions and Tardis.
    "quick": tuple(
        (workload, protocol)
        for workload in ("em3d", "sparse", "tomcatv")
        for protocol in ("SC", "W", "V", "TARDIS")
    ),
    # The paper grid (Figure 3's bars at quick workload scale).
    "full": tuple(
        (workload, protocol) for workload in WORKLOADS for protocol in PROTOCOLS
    ),
}

#: Default processor counts per suite (overridable via ``procs``).
SUITE_PROCS = {"smoke": 4, "quick": 8, "full": 32}


def suite_specs(suite, procs=None):
    """The pinned run list for a suite as ``(workload, protocol, spec)``
    triples."""
    if suite not in SUITES:
        raise ConfigError(f"unknown bench suite {suite!r}; have {sorted(SUITES)}")
    n_procs = procs if procs else SUITE_PROCS[suite]
    triples = []
    for workload, protocol in SUITES[suite]:
        config = paper_config(protocol, n_procs=n_procs)
        if workload in WORKLOADS:
            args = workload_args(workload, quick=True, n_procs=n_procs)
        else:
            args = {"n_procs": n_procs}
        triples.append((workload, protocol, RunSpec.create(workload, config, **args)))
    return triples


def default_path(when=None):
    """``BENCH_<timestamp>.json`` in the current directory."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(when))
    return f"BENCH_{stamp}.json"


def run_bench(suite="quick", procs=None, jobs=1, repeat=1, verbose=False, telemetry=None):
    """Run one suite and return the snapshot payload.

    ``jobs`` defaults to 1 — serial execution is what makes wall times
    comparable across snapshots (parallel workers contend for the host).
    ``repeat`` re-runs the suite N times and keeps each run's *fastest*
    wall time, the standard defense against warm-up and scheduler noise;
    simulated quantities are deterministic so repeats agree on them.
    The result cache is bypassed: a benchmark that can be served from
    cache measures nothing.

    ``telemetry`` (a :class:`~repro.harness.telemetry.TelemetryConfig`)
    attaches the harness observatory: one pool spans every repeat round,
    so a ``--log`` file captures the whole benchmark as one stream (one
    sweep per round) and ``--profile`` sidecars land once per spec; their
    paths are reported under the snapshot's ``profiles`` key.
    """
    if repeat < 1:
        raise ConfigError("repeat must be >= 1")
    triples = suite_specs(suite, procs=procs)
    n_procs = procs if procs else SUITE_PROCS[suite]
    best = {}
    started = time.time()
    pool = RunPool(
        jobs=jobs, cache_dir=None, use_cache=False, verbose=verbose,
        telemetry=telemetry,
    )
    try:
        for _round in range(repeat):
            records = pool.run_batch([spec for _w, _p, spec in triples])
            for workload, protocol, spec in triples:
                record = records[spec]
                held = best.get(spec)
                if (
                    held is None
                    or (record.wall_time_s or 0) < (held.wall_time_s or float("inf"))
                ):
                    best[spec] = record
    finally:
        pool.close()
    profiles = None
    if pool.telemetry is not None and pool.telemetry.profile:
        from repro.harness.telemetry import profile_sidecar

        sidecars = [
            profile_sidecar(pool.telemetry.profile_dir, spec.key())
            for _w, _p, spec in triples
        ]
        profiles = {
            "dir": pool.telemetry.profile_dir,
            "sidecars": [path for path in sidecars if os.path.exists(path)],
        }
    runs = []
    for workload, protocol, spec in triples:
        record = best[spec]
        runs.append(
            {
                "workload": workload,
                "protocol": protocol,
                "label": spec.config.describe(),
                "key": spec.key()[:16],
                "exec_time": record.exec_time,
                "wall_time_s": record.wall_time_s,
                "sim_cycles_per_s": record.sim_cycles_per_s,
                "miss_rate": record.misses.miss_rate(),
                "self_invalidations": record.misses.self_invalidations,
                "network_messages": record.messages.total_network(),
                "data_blocks_sent": record.messages.data_blocks_sent,
            }
        )
    wall = sum(r["wall_time_s"] or 0 for r in runs)
    cycles = sum(r["exec_time"] for r in runs)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(started)),
        "suite": suite,
        "mode": triples[0][2].config.execution_mode.value,
        "procs": n_procs,
        "jobs": jobs,
        "repeat": repeat,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "totals": {
            "wall_time_s": wall,
            "sim_cycles": cycles,
            "sim_cycles_per_s": (cycles / wall) if wall else None,
        },
        "runs": runs,
    }
    if profiles is not None:
        payload["profiles"] = profiles
    return payload


_RUN_FIELDS = (
    "workload",
    "protocol",
    "exec_time",
    "wall_time_s",
    "sim_cycles_per_s",
    "network_messages",
)


def validate_payload(payload):
    """Raise :class:`~repro.errors.ConfigError` unless ``payload`` is a
    well-formed BENCH snapshot this code can compare."""
    if not isinstance(payload, dict):
        raise ConfigError("bench payload is not a JSON object")
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ConfigError(
            f"bench payload schema_version {version!r} != {BENCH_SCHEMA_VERSION}"
        )
    for field in ("suite", "mode", "created", "runs", "totals", "host"):
        if field not in payload:
            raise ConfigError(f"bench payload missing {field!r}")
    if not isinstance(payload["runs"], list) or not payload["runs"]:
        raise ConfigError("bench payload has no runs")
    for i, run in enumerate(payload["runs"]):
        for field in _RUN_FIELDS:
            if field not in run:
                raise ConfigError(f"bench payload run #{i} missing {field!r}")
    return payload


def load_payload(path):
    """Read and validate one snapshot file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read bench snapshot {path}: {exc}") from exc
    return validate_payload(payload)


def write_payload(payload, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _ratio(new, old):
    if old is None or new is None or not old:
        return None
    return new / old - 1.0


def compare(old, new, threshold=0.15, sim_threshold=None):
    """Diff two snapshots; returns ``(rows, regressions)``.

    Runs are matched on ``(workload, protocol)``.  A row regresses when
    ``sim_cycles_per_s`` *dropped* by more than ``threshold`` (host noise
    in the other direction is fine).  With ``sim_threshold`` set, any
    drift of the deterministic quantities (``exec_time``,
    ``network_messages``) beyond it also regresses the row — those should
    not move at all unless the simulator changed.
    """
    validate_payload(old)
    validate_payload(new)
    old_by = {(r["workload"], r["protocol"]): r for r in old["runs"]}
    new_by = {(r["workload"], r["protocol"]): r for r in new["runs"]}
    rows = []
    regressions = []
    for key in sorted(set(old_by) | set(new_by)):
        workload, protocol = key
        before, after = old_by.get(key), new_by.get(key)
        if before is None or after is None:
            rows.append(
                {
                    "workload": workload,
                    "protocol": protocol,
                    "status": "new" if before is None else "removed",
                    "old_cycles_per_s": before and before["sim_cycles_per_s"],
                    "new_cycles_per_s": after and after["sim_cycles_per_s"],
                    "speed_delta": None,
                    "exec_delta": None,
                    "message_delta": None,
                    "flags": [],
                }
            )
            continue
        speed = _ratio(after["sim_cycles_per_s"], before["sim_cycles_per_s"])
        exec_delta = _ratio(after["exec_time"], before["exec_time"])
        msg_delta = _ratio(after["network_messages"], before["network_messages"])
        flags = []
        if speed is not None and speed < -threshold:
            flags.append(f"cycles/s {speed:+.1%} (limit -{threshold:.0%})")
        if sim_threshold is not None:
            if exec_delta is not None and abs(exec_delta) > sim_threshold:
                flags.append(f"exec_time {exec_delta:+.1%}")
            if msg_delta is not None and abs(msg_delta) > sim_threshold:
                flags.append(f"messages {msg_delta:+.1%}")
        row = {
            "workload": workload,
            "protocol": protocol,
            "status": "REGRESSED" if flags else "ok",
            "old_cycles_per_s": before["sim_cycles_per_s"],
            "new_cycles_per_s": after["sim_cycles_per_s"],
            "speed_delta": speed,
            "exec_delta": exec_delta,
            "message_delta": msg_delta,
            "flags": flags,
        }
        rows.append(row)
        if flags:
            regressions.append(row)
    return rows, regressions


def _kcyc(value):
    return f"{value / 1000:.0f}k" if value else "-"


def _pct(value):
    return f"{value:+.1%}" if value is not None else "-"


def collect_history(directory="."):
    """Every readable ``BENCH_*.json`` under ``directory``, oldest first.

    Returns ``(snapshots, skipped)`` where ``snapshots`` is a list of
    ``(path, payload)`` pairs sorted by the payload's ``created`` stamp
    and ``skipped`` lists ``(path, reason)`` for files that failed
    validation (old schema versions land here rather than aborting the
    listing — a history directory legitimately spans schema bumps).
    """
    snapshots, skipped = [], []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            snapshots.append((path, load_payload(path)))
        except ConfigError as exc:
            skipped.append((path, str(exc)))
    snapshots.sort(key=lambda pair: pair[1]["created"])
    return snapshots, skipped


def format_history(snapshots):
    """One line per snapshot: the drift of total simulation speed over
    time (the ``dsi-sim bench --history`` table)."""
    rows = []
    previous_speed = {}
    for path, payload in snapshots:
        totals = payload["totals"]
        speed = totals["sim_cycles_per_s"]
        suite_mode = (payload["suite"], payload["mode"])
        delta = _ratio(speed, previous_speed.get(suite_mode))
        if speed:
            previous_speed[suite_mode] = speed
        rows.append(
            [
                payload["created"],
                payload["suite"],
                payload["mode"],
                len(payload["runs"]),
                f"{totals['wall_time_s']:.1f}",
                _kcyc(speed),
                _pct(delta),
                os.path.basename(path),
            ]
        )
    return format_table(
        ["created", "suite", "mode", "runs", "wall_s", "cyc/s", "drift", "file"],
        rows,
        title="bench history (drift vs previous snapshot of the same suite+mode)",
    )


def format_compare(rows, threshold=0.15):
    """The regression table ``dsi-sim bench --compare`` prints."""
    table = format_table(
        ["workload", "proto", "old cyc/s", "new cyc/s", "speed", "exec", "msgs", "status"],
        [
            [
                row["workload"],
                row["protocol"],
                _kcyc(row["old_cycles_per_s"]),
                _kcyc(row["new_cycles_per_s"]),
                _pct(row["speed_delta"]),
                _pct(row["exec_delta"]),
                _pct(row["message_delta"]),
                row["status"] + ("" if not row["flags"] else f" [{'; '.join(row['flags'])}]"),
            ]
            for row in rows
        ],
        title=f"bench comparison (fail when cycles/s drops more than {threshold:.0%})",
    )
    return table
