"""Coherence analytics: sharing-pattern classification, DSI accuracy,
and the runtime accounting audit.

Classifier thresholds are validated two ways: unit tests on hand-built
access streams with known shapes, and end-to-end runs of the synthetic
workloads whose names promise a pattern (``migratory`` must classify as
migratory, ``producer_consumer`` as producer-consumer).
"""

import json

import pytest

from repro.errors import AuditError
from repro.harness.configs import paper_config
from repro.network.message import Message, MsgKind
from repro.obs import AnalyticsInstrument, MessageLedger, SharingClassifier, audit_coherence
from repro.obs.analytics import PATTERNS, REPORT_SCHEMA_VERSION
from repro.system import Machine
from repro.workloads import by_name

BLOCK = 7


def feed(stream, classifier=None):
    """Feed ``(time, node, kind)`` accesses for one block; returns the
    classifier and the block's life."""
    classifier = classifier or SharingClassifier()
    for time, node, kind in stream:
        classifier.on_access(time, BLOCK, node, kind)
    return classifier, classifier.blocks[BLOCK]


class TestClassifier:
    def test_private(self):
        classifier, life = feed([(t, 0, "read") for t in range(10)] + [(20, 0, "write")])
        assert classifier.classify(life) == "private"

    def test_read_mostly_no_writes(self):
        classifier, life = feed([(t, t % 3, "read") for t in range(12)])
        assert classifier.classify(life) == "read-mostly"

    def test_read_mostly_by_ratio(self):
        stream = [(0, 0, "write")] + [(t, 1 + t % 2, "read") for t in range(1, 17)]
        stream += [(20, 0, "write")]
        classifier, life = feed(stream)
        assert life.reads / life.writes >= classifier.read_mostly_ratio
        assert classifier.classify(life) == "read-mostly"

    def test_migratory_read_modify_write_rotation(self):
        stream = []
        t = 0
        for _round in range(4):
            for node in range(3):
                stream.append((t, node, "read"))
                stream.append((t + 1, node, "write"))
                t += 2
        classifier, life = feed(stream)
        assert classifier.classify(life) == "migratory"

    def test_producer_consumer_stable_reader_set(self):
        stream = []
        t = 0
        for _round in range(5):
            stream.append((t, 0, "write"))
            for reader in (1, 2, 3):
                stream.append((t + 1 + reader, reader, "read"))
            t += 10
        classifier, life = feed(stream)
        assert classifier.classify(life) == "producer-consumer"

    def test_widely_shared_alternating_writers(self):
        stream = []
        t = 0
        for round_ in range(6):
            stream.append((t, round_ % 2, "write"))
            for reader in (2, 3, 4):
                stream.append((t + 1 + reader, reader, "read"))
            t += 10
        classifier, life = feed(stream)
        assert classifier.classify(life) == "widely-shared"

    def test_upgrade_counts_as_write(self):
        classifier, life = feed([(0, 0, "read"), (1, 0, "upgrade")])
        assert life.writes == 1 and life.reads == 1

    def test_event_cap_counts_dropped(self):
        classifier = SharingClassifier(max_events_per_block=2)
        classifier, life = feed(
            [(t, t % 2, "read") for t in range(5)], classifier=classifier
        )
        assert len(life.accesses) == 2
        assert life.dropped == 3
        assert classifier.report()["events_dropped"] == 3


class TestDsiAccuracy:
    def test_correct_and_mispredicted(self):
        classifier, life = feed(
            [(10, 1, "read"), (50, 2, "write"), (60, 1, "read"), (90, 2, "write")]
        )
        # SI at t=20: next access after it is the write at 50 -> correct.
        classifier.on_self_invalidate(20, BLOCK, 1)
        # SI at t=55: node 1 re-reads at 60 before the write at 90 -> wrong.
        classifier.on_self_invalidate(55, BLOCK, 1)
        assert classifier._dsi_accuracy(life) == (1, 1)
        report = classifier.report()
        assert report["dsi"]["correct"] == 1
        assert report["dsi"]["mispredicted"] == 1
        assert report["dsi"]["accuracy"] == pytest.approx(0.5)

    def test_never_referenced_again_is_correct(self):
        classifier, life = feed([(10, 1, "read")])
        classifier.on_self_invalidate(20, BLOCK, 1)
        assert classifier._dsi_accuracy(life) == (1, 0)

    def test_other_nodes_reads_do_not_mispredict(self):
        classifier, life = feed([(10, 1, "read"), (30, 2, "read"), (80, 0, "write")])
        classifier.on_self_invalidate(20, BLOCK, 1)
        assert classifier._dsi_accuracy(life) == (1, 0)

    def test_no_si_events(self):
        classifier, life = feed([(10, 1, "read")])
        assert classifier._dsi_accuracy(life) == (0, 0)
        assert classifier.report()["dsi"]["accuracy"] is None


def run_analytics(workload, protocol="SC", n_procs=4, **kwargs):
    instrument = AnalyticsInstrument(**kwargs)
    machine = Machine(
        paper_config(protocol, n_procs=n_procs),
        by_name(workload, n_procs=n_procs),
        instrument=instrument,
    )
    machine.run()
    return instrument, machine


class TestEndToEnd:
    def test_migratory_workload_classifies_migratory(self):
        instrument, _ = run_analytics("migratory")
        report = instrument.report()
        # All four data blocks migrate; only the lock block does not.
        assert report["patterns"]["migratory"] == 4

    def test_producer_consumer_workload_classifies(self):
        instrument, _ = run_analytics("producer_consumer")
        report = instrument.report()
        assert report["patterns"]["producer-consumer"] == report["blocks"] == 8

    def test_dsi_accuracy_under_version_scheme(self):
        instrument, _ = run_analytics("producer_consumer", protocol="V")
        dsi = instrument.report()["dsi"]
        assert dsi["si_marked_grants"] > 0
        assert dsi["self_invalidations"] > 0
        # Barrier-separated single-writer rounds are DSI's best case: the
        # overwhelming majority of speculations must be correct.
        assert dsi["accuracy"] is not None and dsi["accuracy"] > 0.5

    def test_report_schema(self):
        instrument, _ = run_analytics("migratory")
        report = instrument.report(top=3)
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert set(report["patterns"]) == set(PATTERNS)
        assert len(report["top_blocks"]) == 3
        assert json.loads(json.dumps(report)) == report

    def test_quiesce_audit_runs_and_passes(self):
        instrument, _ = run_analytics("migratory")
        audit = instrument.audit_result
        assert audit["messages"]["sends"] == audit["messages"]["receives"] > 0
        assert audit["coherence"]["blocks"] > 0


class TestMessageLedger:
    def _msg(self, kind, src, dst, block=1):
        return Message(kind, block, src, dst)

    def test_balanced_round_trip(self):
        ledger = MessageLedger()
        msg = self._msg(MsgKind.GETS, 0, 1)
        ledger.on_send(msg, 5)
        ledger.on_receive(msg, 15)
        assert ledger.check_quiesced() == {"sends": 1, "receives": 1}

    def test_receive_without_send_raises(self):
        ledger = MessageLedger()
        with pytest.raises(AuditError, match="received but never sent"):
            ledger.on_receive(self._msg(MsgKind.GETS, 0, 1), 5)

    def test_ack_for_unsent_inv_raises(self):
        ledger = MessageLedger()
        ack = self._msg(MsgKind.INV_ACK, 2, 1)  # node 2 answers home 1
        ledger.on_send(self._msg(MsgKind.GETS, 0, 1), 0)  # unrelated traffic
        with pytest.raises(AuditError, match="never sent"):
            ledger.on_send(ack, 5)

    def test_unreceived_send_fails_quiesce(self):
        ledger = MessageLedger()
        ledger.on_send(self._msg(MsgKind.DATA, 1, 0), 5)
        with pytest.raises(AuditError, match="sent but never received"):
            ledger.check_quiesced()

    def test_unacked_inv_fails_quiesce(self):
        ledger = MessageLedger()
        inv = self._msg(MsgKind.INV, 1, 2)
        ledger.on_send(inv, 5)
        ledger.on_receive(inv, 15)
        with pytest.raises(AuditError, match="never acknowledged"):
            ledger.check_quiesced()


class TestCoherenceAudit:
    def test_tampered_sharer_set_is_caught(self):
        from repro.directory.state import DIR_SHARED

        _, machine = run_analytics("producer_consumer", n_procs=2)
        # The machine passed its quiesce audit; now corrupt one entry's
        # sharer set to something the caches provably do not hold.
        directory = machine.directories[0]
        block, entry = sorted(directory.entries.items())[0]
        tracked = {}
        for controller in machine.controllers:
            copy = controller.cache.snapshot().get(block)
            if copy is not None and not copy[3]:  # ignore tear-off copies
                tracked[controller.node] = copy[0]
        entry.state = DIR_SHARED
        entry.sharers = 0b10 if tracked == {0: "S"} else 0b01
        with pytest.raises(AuditError, match=f"block {block}"):
            audit_coherence(machine)

    def test_stale_block_index_is_caught(self):
        _, machine = run_analytics("producer_consumer", n_procs=2)
        cache = next(c.cache for c in machine.controllers if c.cache.index)
        block = min(cache.index)
        del cache.index[block]  # a valid frame the hit path can no longer see
        with pytest.raises(AuditError, match=rf"block index disagrees .*\[{block}\]"):
            audit_coherence(machine)


class TestAnalyzeCli:
    def test_table_output(self, capsys):
        from repro.harness.cli import main

        assert main(["analyze", "migratory", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "sharing patterns" in out
        assert "migratory" in out
        assert "audit: ok" in out

    def test_json_output(self, capsys):
        from repro.harness.cli import main

        assert main(
            ["analyze", "producer_consumer", "--procs", "4", "--protocol", "V", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["report"]["patterns"]["producer-consumer"] > 0
        assert payload["audit"]["messages"]["sends"] > 0

    def test_no_audit_flag(self, capsys):
        from repro.harness.cli import main

        assert main(["analyze", "migratory", "--procs", "4", "--no-audit"]) == 0
        assert "audit: skipped" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        from repro.harness.cli import main

        assert main(["analyze", "no_such_workload"]) == 2
        assert "unknown workload" in capsys.readouterr().err
