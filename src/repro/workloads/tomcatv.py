"""Tomcatv: vectorized mesh generation (paper: "512x512, 5 iterations").

Sharing pattern: several large arrays are row-partitioned; almost all
accesses are to a processor's own partition, with a small amount of
boundary-row sharing between neighbours and barriers between the phases of
each iteration.  What matters is the *working set*:

* at the small cache size the per-processor working set does not fit, so
  execution is dominated by capacity misses to idle (home-local) blocks
  that **no coherence optimisation helps** — the paper sees no change for
  any protocol at 256 KB;
* at the large cache size the arrays fit and execution is compute-bound
  with a small coherence tail from the boundary rows, yielding the paper's
  few-percent improvements (larger under a slow network, Figure 4).

Default geometry: 3 arrays x ``rows_per_proc=16`` x ``cols=128`` x 4-byte
words = 24 KB per processor — between the scaled cache sizes (16 KB /
128 KB) exactly as 512x512 sat between 256 KB and 2 MB.
"""

import numpy as np

from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import WORD, WorkloadContext

N_ARRAYS = 3


def tomcatv(
    n_procs=32,
    rows_per_proc=16,
    cols=128,
    iterations=3,
    compute_per_point=8,
    read_stride_words=2,
    seed=505,
):
    """Build the Tomcatv program."""
    ctx = WorkloadContext("tomcatv", n_procs, seed=seed)
    row_bytes = cols * WORD
    # arrays[a, p]: base of processor p's partition of array a.
    arrays = np.array(
        [
            [ctx.alloc_words(p, rows_per_proc * cols) for p in range(n_procs)]
            for _ in range(N_ARRAYS)
        ],
        dtype=np.int64,
    )
    stride = read_stride_words * WORD
    # Byte offset of every point of a partition, row by row.
    col_bytes = np.arange(0, row_bytes, stride)
    points = (np.arange(rows_per_proc)[:, None] * row_bytes + col_bytes).ravel()
    # Boundary-row samples of a neighbour's row.
    ghost = np.arange(0, cols, read_stride_words * 4) * WORD

    # Phase 1, per point: read a0, read a1, compute, write a2, then (except
    # at a row's first point) re-read the previous point of a2.  That
    # recurrence models tomcatv's row dependencies: under WC the read finds
    # its block's write still outstanding — the paper's "read wb" stall
    # that cancels the write-buffer win at the small cache size.
    n_points = len(points)
    stencil_keep = np.ones((rows_per_proc, len(col_bytes), 4), dtype=bool)
    stencil_keep[:, :1, 3] = False
    stencil_keep = stencil_keep.ravel()
    stencil_kinds = np.tile([OP_READ, OP_READ, OP_WRITE, OP_READ], n_points)[stencil_keep]
    stencil_gaps = np.tile([0, 0, compute_per_point, 0], n_points)[stencil_keep]
    # Phase 2, per point: read a2, compute, write a0.
    sweep_kinds = np.tile([OP_READ, OP_WRITE], n_points)
    sweep_gaps = np.tile([0, compute_per_point], n_points)

    phases = []
    for proc in range(n_procs):
        a0, a1, a2 = arrays[:, proc]
        ghosts = []
        if proc > 0:
            ghosts.append(arrays[0, proc - 1] + (rows_per_proc - 1) * row_bytes + ghost)
        if proc < n_procs - 1:
            ghosts.append(arrays[0, proc + 1] + ghost)
        stencil = np.stack(
            [a0 + points, a1 + points, a2 + points, a2 + points - stride], axis=1
        ).ravel()[stencil_keep]
        sweep = np.stack([a2 + points, a0 + points], axis=1).ravel()
        phases.append((np.array(ghosts, dtype=np.int64).ravel(), stencil, sweep))

    ctx.barrier_all()
    for _iteration in range(iterations):
        # Phase 1: stencil over own rows of arrays 0/1, writing array 2;
        # boundary rows of the neighbours are read once.
        for builder, (ghosts, stencil, _sweep) in zip(ctx.builders, phases):
            builder.extend(OP_READ, ghosts)
            builder.extend(stencil_kinds, stencil, stencil_gaps)
        ctx.barrier_all()
        # Phase 2: sweep array 2 back into array 0 (private traffic).
        for builder, (_ghosts, _stencil, sweep) in zip(ctx.builders, phases):
            builder.extend(sweep_kinds, sweep, sweep_gaps)
        ctx.barrier_all()
    return ctx.program(
        seed=seed,
        rows=n_procs * rows_per_proc,
        cols=cols,
        arrays=N_ARRAYS,
        iterations=iterations,
        wss_bytes_per_proc=N_ARRAYS * rows_per_proc * cols * WORD,
    )
