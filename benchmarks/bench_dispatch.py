"""Execution-path microbenchmark: interpreted vs compiled dispatch.

Each workload/protocol pair of :data:`PAIRS` runs on two execution modes
of the same machine:

``interpreted``
    Compiled dispatch off — the reference interpreter (guard-chain
    transition dispatch, the binary-heap event queue, every transaction
    as messages).
``compiled``
    The default engine: transition tables lowered to integer-indexed
    dispatch (:mod:`repro.coherence.compile`), with the bucketed event
    queue and the protocol lanes that ride on it.

Both produce bit-identical :class:`~repro.stats.record.RunRecord` values
(proved by :mod:`repro.harness.equivalence`); this module measures what
that invisibility costs/buys.  Runs under pytest-benchmark
(``pytest benchmarks/bench_dispatch.py --benchmark-only``) or standalone
(``python benchmarks/bench_dispatch.py``) — CI uses the standalone form.
"""

import os
import time

import pytest

from repro.harness.configs import paper_config, workload_args
from repro.harness.runspec import RunSpec

#: (workload, protocol) pairs, each at quick scale on PROCS processors:
#: a coherence-heavy DSI run and a hit-dominated private run.
PAIRS = (("sparse", "V"), ("tomcatv", "SC"))
PROCS = 8

MODES = {
    "interpreted": {"compiled_dispatch": False},
    "compiled": {"compiled_dispatch": True},
}

_no_fastpath = pytest.mark.skipif(
    bool(os.environ.get("DSI_NO_FASTPATH")),
    reason="DSI_NO_FASTPATH forces every mode to interpreted",
)


def make_spec(workload, protocol, mode):
    config = paper_config(protocol, n_procs=PROCS, **MODES[mode])
    return RunSpec.create(
        workload, config, **workload_args(workload, quick=True, n_procs=PROCS)
    )


@_no_fastpath
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("workload, protocol", PAIRS)
def test_dispatch_mode(benchmark, workload, protocol, mode):
    spec = make_spec(workload, protocol, mode)
    program = spec.build_program()
    record = benchmark.pedantic(lambda: spec.execute(program), rounds=3, iterations=1)
    assert record.exec_time > 0


@_no_fastpath
@pytest.mark.parametrize("workload, protocol", PAIRS)
def test_modes_agree(workload, protocol):
    """The timing comparison is only meaningful if the work is identical."""
    specs = {mode: make_spec(workload, protocol, mode) for mode in MODES}
    program = specs["interpreted"].build_program()
    records = {mode: spec.execute(program) for mode, spec in specs.items()}
    assert records["compiled"] == records["interpreted"]


def bench_pair(workload, protocol):
    """Best-of-3 wall seconds per mode; raises if the records differ."""
    print(f"# dispatch microbenchmark: {workload}/{protocol}, {PROCS} processors")
    timings = {}
    baseline_record = None
    for mode in MODES:
        spec = make_spec(workload, protocol, mode)
        program = spec.build_program()
        best = None
        record = None
        for _ in range(3):
            started = time.perf_counter()
            record = spec.execute(program)
            wall = time.perf_counter() - started
            best = wall if best is None else min(best, wall)
        timings[mode] = best
        if baseline_record is None:
            baseline_record = record
        elif record != baseline_record:
            raise SystemExit(f"mode {mode!r} produced a different RunRecord")
    base = timings["interpreted"]
    for mode, wall in timings.items():
        print(f"{mode:12s} {wall * 1000:8.1f} ms   {base / wall:5.2f}x vs interpreted")


def main():
    for workload, protocol in PAIRS:
        bench_pair(workload, protocol)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
