"""Barnes: hierarchical N-body (paper: "2048 bodies, 5 iterations").

Sharing pattern: the paper attributes Barnes' behaviour to *fine-grain
locking and load imbalance for this small data set* — a large
synchronization component that neither weak consistency nor DSI reduces
(§5.2).  The generator reproduces both properties:

* **tree build**: every body inserts into a shared tree; each touched cell
  is protected by one of a pool of fine-grain locks (lock, read cell,
  write cell, unlock) with real contention;
* **force computation**: a gather over many tree cells and a few other
  processors' bodies, with a heavy per-interaction compute gap;
* **imbalance**: body counts per processor are deterministically skewed
  (up to ~2x), so the per-phase barriers collect long waits.
"""

import numpy as np

from repro.trace.ops import OP_LOCK, OP_READ, OP_UNLOCK, OP_WRITE
from repro.workloads.base import BLOCK, WorkloadContext


def barnes(
    n_procs=32,
    bodies_per_proc=24,
    cells=128,
    locks=32,
    gather=16,
    imbalance=0.8,
    iterations=3,
    compute_per_interaction=6,
    seed=404,
):
    """Build the Barnes program.

    ``imbalance`` skews per-processor body counts: processor ``p`` gets
    ``bodies_per_proc * (1 + imbalance * p / (n_procs - 1))`` bodies.
    """
    ctx = WorkloadContext("barnes", n_procs, seed=seed)
    # Shared tree cells: one cache block each, distributed round-robin.
    cell_addr = np.array([ctx.alloc.alloc(c % n_procs, BLOCK) for c in range(cells)])
    cell_locks = np.array([ctx.new_lock() for _ in range(locks)])
    # Bodies: each processor's bodies in its own segment (a block per body).
    counts = [
        max(1, round(bodies_per_proc * (1 + imbalance * p / max(1, n_procs - 1))))
        for p in range(n_procs)
    ]
    body_addr = {
        p: [ctx.alloc.alloc(p, BLOCK) for _ in range(counts[p])] for p in range(n_procs)
    }

    # Tree build, per body: compute, lock the cell, read it, compute,
    # write it, unlock.
    insert_kinds = [OP_LOCK, OP_READ, OP_WRITE, OP_UNLOCK]
    insert_gaps = [4, 0, 3, 0]
    # Force computation, per body: ``gather`` cell reads with a compute
    # after each, two remote body reads, compute, write the own body.
    force_kinds = [OP_READ] * (gather + 2) + [OP_WRITE]
    force_gaps = [0] + [compute_per_interaction] * gather + [0, compute_per_interaction * 2]

    ctx.barrier_all()
    for _iteration in range(iterations):
        # Phase 1: tree build with fine-grain cell locking.
        for proc in range(n_procs):
            cell = ctx.rng.integers(0, cells, size=counts[proc])
            lock = cell_locks[cell % locks]
            ctx.builders[proc].extend(
                np.tile(insert_kinds, counts[proc]),
                np.stack([lock, cell_addr[cell], cell_addr[cell], lock], axis=1).ravel(),
                np.tile(insert_gaps, counts[proc]),
            )
        ctx.barrier_all()
        # Phase 2: force computation — gather over cells and remote bodies.
        # Which remote body is read depends on the draw just before it, so
        # those draws stay scalar; only the emission is batched.
        for proc in range(n_procs):
            gathered = []
            remote = []
            for _body in range(counts[proc]):
                gathered.append(ctx.rng.integers(0, cells, size=gather))
                for _ in range(2):
                    others = body_addr[int(ctx.rng.integers(0, n_procs))]
                    remote.append(others[int(ctx.rng.integers(0, len(others)))])
            ctx.builders[proc].extend(
                np.tile(force_kinds, counts[proc]),
                np.column_stack(
                    [
                        cell_addr[np.array(gathered, dtype=np.int64)],
                        np.reshape(remote, (counts[proc], 2)),
                        body_addr[proc],
                    ]
                ).ravel(),
                np.tile(force_gaps, counts[proc]),
            )
        ctx.barrier_all()
    return ctx.program(
        seed=seed,
        bodies=sum(counts),
        cells=cells,
        locks=locks,
        iterations=iterations,
        imbalance=imbalance,
    )
