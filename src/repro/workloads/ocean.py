"""Ocean: red-black relaxation over a row-partitioned grid
(paper: "98x98, 1 day").

Sharing pattern: each processor owns a thin band of grid rows (the paper's
98-row ocean over 32 processors leaves ~3 rows per processor, so *most*
rows are boundary rows shared with a neighbour).  Within a sweep every
processor first reads its neighbours' adjacent (ghost) rows, then updates
its own rows — and all processors sweep concurrently, so a neighbour's
ghost-row read races with the owner's rewrite *inside* the sweep.  Those
are the paper's "un-synchronized accesses to shared data": no
synchronization separates the conflicting read from the conflicting
write, so self-invalidation (which happens at sync operations) fires too
late and the directory must still send explicit invalidations — DSI has
little effect on Ocean while weak consistency, which simply overlaps the
write latency, helps a lot (§5.2).

Rows mix two update rates, as the real multigrid code does across levels:
even-indexed rows are updated every sweep (alternating columns), odd rows
only on odd sweeps.  A neighbour's ghost re-read of an every-sweep row is
always version-mismatched — DSI marks it, and under tear-off the owner's
next write needs no invalidation; a ghost re-read of an every-other-sweep
row matches half the time and fetches a normal block whose invalidation
remains explicit.  The blend reproduces Table 3's *partial* invalidation
reduction (~half) with little execution-time change.
"""

import numpy as np

from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import WORD, WorkloadContext


def ocean(
    n_procs=32,
    rows_per_proc=3,
    cols=64,
    sweeps_per_day=4,
    days=3,
    compute_per_point=2,
    ghost_stride=2,
    seed=303,
):
    """Build the Ocean program (row-partitioned red-black sweeps; one
    barrier per sweep, mirroring the convergence check of the real code)."""
    ctx = WorkloadContext("ocean", n_procs, seed=seed)
    row_bytes = cols * WORD
    band_base = [ctx.alloc_words(p, rows_per_proc * cols) for p in range(n_procs)]
    ghost_cols = np.arange(0, cols, ghost_stride) * WORD

    def sweep(proc, parity):
        """(kinds, addrs, gaps) of one processor's sweep."""
        ghosts = []
        # Ghost rows: read the adjacent rows of both neighbours.
        if proc > 0:
            ghosts.append(band_base[proc - 1] + (rows_per_proc - 1) * row_bytes + ghost_cols)
        if proc < n_procs - 1:
            ghosts.append(band_base[proc + 1] + ghost_cols)
        ghosts = np.array(ghosts, dtype=np.int64).ravel()
        # Update own rows: even rows every sweep (columns alternate by
        # colour), odd rows on odd sweeps only.  Each point: read,
        # compute, write.
        points = []
        for local_row in range(rows_per_proc):
            global_row = proc * rows_per_proc + local_row
            if global_row % 2 == 0:
                columns = np.arange(parity, cols, 2)
            elif parity == 1:
                columns = np.arange(cols)
            else:
                continue
            points.append(band_base[proc] + local_row * row_bytes + columns * WORD)
        points = np.concatenate(points) if points else np.zeros(0, np.int64)
        return (
            np.append(np.full(len(ghosts), OP_READ), np.tile([OP_READ, OP_WRITE], len(points))),
            np.append(ghosts, np.repeat(points, 2)),
            np.append(np.zeros(len(ghosts), np.int64), np.tile([0, compute_per_point], len(points))),
        )

    sweeps = [[sweep(proc, parity) for proc in range(n_procs)] for parity in (0, 1)]

    ctx.barrier_all()
    for _day in range(days):
        for sweep_index in range(sweeps_per_day):
            for builder, ops in zip(ctx.builders, sweeps[sweep_index % 2]):
                builder.extend(*ops)
            ctx.barrier_all()
    return ctx.program(
        seed=seed,
        rows=n_procs * rows_per_proc,
        cols=cols,
        sweeps_per_day=sweeps_per_day,
        days=days,
    )
