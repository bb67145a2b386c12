#!/usr/bin/env python
"""Watch the protocol work, message by message.

Runs the paper's Figure-2 scenario — P1 writes a block P2 cached — under
the base protocol and under DSI, printing every coherence message.  The
base run shows the four-hop GETX / INV / INV_ACK / DATA_EX chain; the DSI
run shows the SI_NOTIFY replacing the invalidation pair on the second
round.

Run:  python examples/protocol_trace.py
"""

from repro import IdentifyScheme, Machine, SystemConfig
from repro.obs import Instrument
from repro.stats.tracer import MessageTracer
from repro.workloads.base import WorkloadContext


def conflict_program(rounds):
    """P2 reads a block homed on node 0; P1 then writes it; repeat."""
    ctx = WorkloadContext("conflict", 3, seed=3)
    addr = ctx.alloc_words(0, 8)
    ctx.barrier_all()
    for _round in range(rounds):
        ctx.builders[2].read(addr)
        ctx.barrier_all()
        ctx.builders[1].compute(10).write(addr)
        ctx.barrier_all()
    return ctx.program(), addr >> 5


def trace(config, rounds=2):
    program, block = conflict_program(rounds)
    tracer = MessageTracer(blocks=[block])
    Machine(config, program, instrument=Instrument(tracer=tracer)).run()
    return tracer


def main():
    base = SystemConfig(n_processors=3)
    print("=== base protocol: every conflicting write invalidates ===")
    print(trace(base).format())
    print()
    print("=== with DSI (version numbers): the reader self-invalidates ===")
    print("    (round 1 warms the history; in round 2 the SI_NOTIFY at the")
    print("     barrier replaces the INV/INV_ACK pair on the write path)")
    print(trace(base.with_(identify=IdentifyScheme.VERSION)).format())


if __name__ == "__main__":
    main()
