"""Trace encoding, builder, validation and IO."""

import doctest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.trace import builder as builder_mod
from repro.trace.builder import TraceBuilder
from repro.trace.io import load_program, save_program
from repro.trace.ops import (
    OP_BARRIER,
    OP_LOCK,
    OP_READ,
    OP_UNLOCK,
    OP_WRITE,
    Program,
    Trace,
)


class TestBuilder:
    def test_compute_accumulates_into_gap(self):
        trace = TraceBuilder().compute(5).compute(7).read(0x40).build()
        assert trace.op(0) == (12, OP_READ, 0x40)

    def test_sequence(self):
        trace = (
            TraceBuilder()
            .read(0x40)
            .compute(3)
            .write(0x80)
            .lock(0x100)
            .unlock(0x100)
            .barrier(2)
            .build()
        )
        assert list(trace.kinds) == [OP_READ, OP_WRITE, OP_LOCK, OP_UNLOCK, OP_BARRIER]
        assert trace.op(1) == (3, OP_WRITE, 0x80)
        assert trace.op(4) == (0, OP_BARRIER, 2)

    def test_ranges(self):
        trace = TraceBuilder().read_range(0, 128, 32).write_range(0, 64, 32).build()
        counts = trace.counts()
        assert counts == {"read": 4, "write": 2}

    def test_negative_compute_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder().compute(-1)

    def test_len(self):
        builder = TraceBuilder().read(0).write(0)
        assert len(builder) == 2


_SCALAR = {
    OP_READ: TraceBuilder.read,
    OP_WRITE: TraceBuilder.write,
    OP_LOCK: TraceBuilder.lock,
    OP_UNLOCK: TraceBuilder.unlock,
    OP_BARRIER: TraceBuilder.barrier,
}
_op = st.tuples(
    st.sampled_from(sorted(_SCALAR)), st.integers(0, 1 << 40), st.integers(0, 50)
)
_step = st.one_of(
    st.tuples(st.just("compute"), st.integers(0, 50)),
    st.tuples(st.just("op"), _op),
    st.tuples(st.just("extend"), st.lists(_op, max_size=6)),
)


def _same_trace(a, b):
    for column in ("gaps", "kinds", "addrs"):
        left, right = getattr(a, column), getattr(b, column)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right), column


class TestBulkEmission:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_step, max_size=25))
    def test_extend_equals_one_op_at_a_time(self, steps):
        """Mixing compute, scalar ops and extend chunks (empty chunks and a
        pending gap carried into a chunk included) builds the same trace as
        emitting every op on its own."""
        bulk, single = TraceBuilder(), TraceBuilder()
        for step, arg in steps:
            if step == "compute":
                bulk.compute(arg)
                single.compute(arg)
            elif step == "op":
                kind, addr, _gap = arg
                _SCALAR[kind](bulk, addr)
                _SCALAR[kind](single, addr)
            else:
                kinds, addrs, gaps = np.array(arg, dtype=np.int64).reshape(-1, 3).T
                bulk.extend(kinds, addrs, gaps)
                for kind, addr, gap in arg:
                    _SCALAR[kind](single.compute(gap), addr)
            assert len(bulk) == len(single)
        _same_trace(bulk.build(), single.build())

    def test_pending_gap_joins_first_op_of_chunk(self):
        trace = TraceBuilder().compute(7).extend(OP_WRITE, [64, 96], [1, 2]).build()
        assert [trace.op(i) for i in range(2)] == [(8, OP_WRITE, 64), (2, OP_WRITE, 96)]

    def test_empty_chunk_keeps_gap_pending(self):
        trace = TraceBuilder().compute(7).extend(OP_READ, []).read(0).build()
        assert trace.op(0) == (7, OP_READ, 0)

    def test_scalar_ops_flush_before_chunk(self):
        trace = TraceBuilder().barrier(3).extend(OP_READ, [32]).lock(64).build()
        assert list(trace.kinds) == [OP_BARRIER, OP_READ, OP_LOCK]

    def test_extend_copies_its_input(self):
        addrs = np.array([32, 64])
        builder = TraceBuilder().extend(OP_READ, addrs)
        addrs[0] = 0
        assert builder.build().addrs.tolist() == [32, 64]

    def test_extend_rejects_bad_input(self):
        with pytest.raises(TraceError):
            TraceBuilder().extend(OP_READ, [0, 32], gaps=[-1, 0])
        with pytest.raises(TraceError):
            TraceBuilder().extend([OP_READ] * 3, [0, 32])
        with pytest.raises(TraceError):
            TraceBuilder().extend(OP_READ, [[0, 32]])

    def test_docstring_examples(self):
        assert doctest.testmod(builder_mod).failed == 0


class TestTrace:
    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            Trace([0], [OP_READ, OP_READ], [0, 0])

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            Trace([-1], [OP_READ], [0])

    def test_counts_and_totals(self):
        trace = TraceBuilder().compute(10).read(0).compute(5).barrier(0).build()
        assert trace.total_compute() == 15
        assert trace.barrier_count() == 1

    def test_empty_trace(self):
        trace = TraceBuilder().build()
        assert len(trace) == 0
        assert trace.counts() == {}


class TestProgramValidation:
    def test_unbalanced_barriers_rejected(self):
        t0 = TraceBuilder().barrier(0).build()
        t1 = TraceBuilder().build()
        with pytest.raises(TraceError, match="unbalanced barriers"):
            Program("bad", [t0, t1])

    def test_double_lock_rejected(self):
        trace = TraceBuilder().lock(64).lock(64).build()
        with pytest.raises(TraceError, match="acquired twice"):
            Program("bad", [trace])

    def test_unlock_without_lock_rejected(self):
        trace = TraceBuilder().unlock(64).build()
        with pytest.raises(TraceError, match="not held"):
            Program("bad", [trace])

    def test_lock_held_at_end_rejected(self):
        trace = TraceBuilder().lock(64).build()
        with pytest.raises(TraceError, match="still held"):
            Program("bad", [trace])

    @pytest.mark.parametrize(
        "ops, message",
        [
            ("lock lock", "program 'bad' proc 1: lock 0x40 acquired twice without release"),
            ("read unlock", "program 'bad' proc 1: unlock of 0x40 not held"),
            ("lock read", "program 'bad' proc 1: locks still held at end"),
        ],
    )
    def test_lock_error_messages(self, ops, message):
        """Validation walks only the lock/unlock ops; the messages name the
        processor and the lock word exactly."""
        builder = TraceBuilder().read(0x80).compute(3)
        for op in ops.split():
            getattr(builder, op)(0x40)
        good = TraceBuilder().lock(0x40).read(0x40).unlock(0x40).build()
        with pytest.raises(TraceError) as info:
            Program("bad", [good, builder.write(0x80).build()])
        assert str(info.value) == message

    def test_lock_reacquire_ok(self):
        trace = TraceBuilder().lock(64).unlock(64).lock(64).unlock(64).build()
        Program("ok", [trace])

    def test_empty_program_rejected(self):
        with pytest.raises(TraceError):
            Program("bad", [])

    def test_describe(self):
        trace = TraceBuilder().read(0).barrier(0).build()
        program = Program("p", [trace], meta={"x": 1})
        description = program.describe()
        assert description["name"] == "p"
        assert description["n_procs"] == 1
        assert description["total_ops"] == 2
        assert description["x"] == 1


class TestIO:
    def test_roundtrip(self, tmp_path):
        traces = [
            TraceBuilder().compute(5).read(64).write(64).barrier(0).build(),
            TraceBuilder().read(128).barrier(0).build(),
        ]
        program = Program("roundtrip", traces, home="round-robin", meta={"seed": 3})
        path = tmp_path / "program.npz"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.name == "roundtrip"
        assert loaded.home == "round-robin"
        assert loaded.meta == {"seed": 3}
        assert loaded.n_procs == 2
        for original, restored in zip(program.traces, loaded.traces):
            assert np.array_equal(original.gaps, restored.gaps)
            assert np.array_equal(original.kinds, restored.kinds)
            assert np.array_equal(original.addrs, restored.addrs)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(TraceError):
            load_program(path)
