"""Trace-generation microbenchmark: how fast each paper generator builds
its program.

Every cold simulation pays for trace generation before the machine runs,
so this measures the five paper generators (:data:`repro.workloads.CATALOG`)
at full scale on 32 processors, alone.  Runs under pytest-benchmark
(``pytest benchmarks/bench_tracegen.py --benchmark-only``) or standalone
(``python benchmarks/bench_tracegen.py``, best of 3 per generator, in ms
and generated ops per second) — CI uses the standalone form.
"""

import time

import pytest

from repro.workloads import CATALOG, by_name

PROCS = 32


@pytest.mark.parametrize("name", list(CATALOG))
def test_generate(benchmark, name):
    program = benchmark.pedantic(
        lambda: by_name(name, n_procs=PROCS), rounds=3, iterations=1
    )
    assert program.n_procs == PROCS


def main():
    print(f"# trace-generation microbenchmark: full scale, {PROCS} processors, best of 3")
    for name in CATALOG:
        best = None
        for _ in range(3):
            started = time.perf_counter()
            program = by_name(name, n_procs=PROCS)
            wall = time.perf_counter() - started
            best = wall if best is None else min(best, wall)
        ops = program.total_ops()
        print(f"{name:8s} {best * 1000:8.1f} ms  {ops:9d} ops  {ops / best:12,.0f} ops/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
