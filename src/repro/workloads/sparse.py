"""Sparse: iterative solve with a broadcast vector
(paper: "512x512 dense, 5 iterations").

Sharing pattern: the solution vector ``x`` is chunk-distributed (chunk
``p`` rewritten by processor ``p`` every iteration) while the
matrix-vector product makes **every processor sweep the whole vector in
the same order** immediately after the barrier.  Homes are round-robin, so
the writer of a chunk is (almost) never its home.

This is the access pattern where DSI shines brightest, for two reasons the
paper's §5.2 highlights:

* **read invalidation** — the first reader of each freshly-written block
  triggers a three-hop owner invalidation at a remote home, and because
  all processors sweep in lockstep, the other ~31 readers queue behind the
  busy directory entry and *all* absorb that invalidation latency.  DSI
  flushes the writer's copy at its synchronization point, so the whole
  convoy finds the block idle.  Weak consistency cannot eliminate any of
  this, which is why the paper measures DSI *outperforming* WC on Sparse.
* **write invalidation** — each owner's rewrite otherwise finds ~31
  sharers; with DSI the readers' (version-mismatched) copies flushed at
  the barrier.

The per-processor self-invalidate set (~``x_words/8`` blocks, default 224
non-home blocks) deliberately exceeds a 64-entry FIFO while the vector is
re-swept within the iteration, reproducing Figure 5: early FIFO
self-invalidation forces re-misses that return *normal* blocks and forfeit
most of DSI's benefit.
"""

import numpy as np

from repro.trace.ops import OP_READ, OP_WRITE
from repro.workloads.base import WORD, WorkloadContext


def sparse(
    n_procs=32,
    x_words=2048,
    rows_per_proc=2,
    sweeps_per_row=2,
    sweep_stride=2,
    a_words_per_proc=1024,
    a_stride=8,
    iterations=4,
    compute_per_chunk=2,
    seed=101,
):
    """Build the Sparse program.

    Each of the ``rows_per_proc`` rows sweeps the full ``x_words``-word
    vector ``sweeps_per_row`` times at ``sweep_stride`` words, interleaved
    with strided reads of a private matrix panel of ``a_words_per_proc``
    words; afterwards every processor rewrites its own chunk of ``x``.
    """
    ctx = WorkloadContext("sparse", n_procs, seed=seed)
    chunk_words = x_words // n_procs
    x_chunks = np.array(ctx.alloc_array(chunk_words), dtype=np.int64)
    a_base = [ctx.alloc_words(p, a_words_per_proc) for p in range(n_procs)]
    y_base = [ctx.alloc_words(p, rows_per_proc) for p in range(n_procs)]
    residual_lock = ctx.new_lock()
    residual = ctx.alloc_words(0, 1)

    # One sweep of x, per visited word: read x, then every fourth word a
    # strided read of the private matrix panel, then compute.
    words = np.arange(0, x_words, sweep_stride)
    swept = iterations and rows_per_proc and sweeps_per_row and len(words)
    if swept and (not chunk_words or words[-1] // chunk_words >= n_procs):
        raise ValueError(f"sparse: x_words={x_words} does not split into {n_procs} chunks")
    if swept and a_words_per_proc == 0:
        raise ValueError("sparse: a_words_per_proc=0 leaves no matrix panel to read")
    owner, offset = np.divmod(words, max(chunk_words, 1))
    x_addr = x_chunks[np.minimum(owner, n_procs - 1)] + offset * WORD
    keep = np.stack([np.ones(len(words), bool), words % (sweep_stride * 4) == 0], axis=1).ravel()
    sweep_is_a = np.tile([False, True], len(words))[keep]
    sweep_x = np.stack([x_addr, np.zeros_like(x_addr)], axis=1).ravel()[keep]
    # A row is its sweeps followed by the y write.  The compute after each
    # word lands on the next x read (or the y write); a row's first op and
    # the panel reads have no gap.
    row_x = np.append(np.tile(sweep_x, sweeps_per_row), 0)
    row_is_a = np.append(np.tile(sweep_is_a, sweeps_per_row), False)
    row_kinds = np.append(np.full(len(row_x) - 1, OP_READ), OP_WRITE)
    row_gaps = np.where(row_is_a, 0, compute_per_chunk)
    row_gaps[0] = 0
    matvec_x = np.tile(row_x, rows_per_proc)
    matvec_is_a = np.tile(row_is_a, rows_per_proc)
    matvec_kinds = np.tile(row_kinds, rows_per_proc)
    matvec_gaps = np.tile(row_gaps, rows_per_proc)
    # The panel cursor advances a_stride words per read and restarts at
    # the top of every product.  (A zero-word panel is only allowed when
    # nothing sweeps, and then no panel read is emitted.)
    a_offset = (np.arange(np.count_nonzero(matvec_is_a)) * a_stride) % (a_words_per_proc or 1)
    y_offset = np.arange(rows_per_proc) * WORD

    matvecs = []
    for proc in range(n_procs):
        addrs = matvec_x.copy()
        addrs[matvec_is_a] = a_base[proc] + a_offset * WORD
        addrs[matvec_kinds == OP_WRITE] = y_base[proc] + y_offset
        matvecs.append(addrs)
    rewrite_kinds = np.append(OP_READ, np.full(chunk_words, OP_WRITE))

    ctx.barrier_all()
    for _iteration in range(iterations):
        # Matrix-vector product: every processor sweeps x front-to-back.
        for builder, addrs in zip(ctx.builders, matvecs):
            builder.extend(matvec_kinds, addrs, matvec_gaps)
        # Lock-protected residual reduction.
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            builder.lock(residual_lock)
            builder.read(residual).compute(4).write(residual)
            builder.unlock(residual_lock)
        ctx.barrier_all()
        # x = f(y): every owner rewrites its chunk, invalidating the world.
        for proc in range(n_procs):
            builder = ctx.builders[proc]
            chunk = x_chunks[proc] + np.arange(chunk_words) * WORD
            builder.extend(rewrite_kinds, np.append(y_base[proc], chunk))
            builder.compute(compute_per_chunk * 8)
        ctx.barrier_all()
    # Round-robin homes: the vector interleaves across the machine, so a
    # reader's miss on a freshly-written block takes a three-hop
    # invalidation through a remote home.
    return ctx.program(
        home="round-robin",
        seed=seed,
        x_words=x_words,
        rows_per_proc=rows_per_proc,
        sweeps_per_row=sweeps_per_row,
        iterations=iterations,
    )
