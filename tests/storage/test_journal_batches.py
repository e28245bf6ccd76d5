"""Batched intent-journal appends: one fsync per write request.

``append_many`` is every journal backend's one write path.  These tests
pin what it must keep from one-line-per-call appends: each line's exact
bytes, recovery from a crash that tears a batch, the per-entry mirror
of a replicated journal and the ``JournalError`` fallbacks, and count
the fsyncs a write request now costs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import JournalError
from repro.core.sharded import ShardedWormStore
from repro.recovery import (ReplicaSite, ReplicatedIntentJournal,
                            ReplicationTransport)
from repro.service import ServiceRequest, TenantConfig, WormService
from repro.storage import journal as journal_module
from repro.storage.journal import FileIntentJournal, MemoryIntentJournal

KWARGS = {"policy": "sox", "mac_label": "café ☃", "retention_seconds": 0.1,
          "weight": 1e-07, "tuple": (1, 2.5)}


def _record(entry_id, payload, kwargs, tag=None):
    record = {"op": "submit", "id": entry_id, "payload": payload.hex(),
              "kwargs": json.loads(json.dumps(kwargs))}
    if tag is not None:
        record["tag"] = list(tag) if isinstance(tag, tuple) else tag
    return record


def _expected_line(entry_id, payload, kwargs, tag=None) -> bytes:
    return (json.dumps(_record(entry_id, payload, kwargs, tag))
            + "\n").encode()


def _lines(path: Path):
    return path.read_bytes().splitlines(keepends=True)


class TestKnownAnswerLines:
    """Every line is byte for byte ``json.dumps(record) + "\\n"``."""

    def test_append_many_lines(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        payloads = [b"", b"\x00\xff\"\\", b"record-\xe9" * 40]
        tags = [("acme", "acme-t1"), None, "plain-é"]
        ids = journal.append_many(payloads, KWARGS, tags)
        untagged = journal.append_many([b"solo"], {})
        assert ids == [1, 2, 3] and untagged == [4]
        assert _lines(path) == [
            _expected_line(i, p, KWARGS, t)
            for i, p, t in zip(ids, payloads, tags)
        ] + [_expected_line(4, b"solo", {})]

    def test_compact_lines(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        ids = journal.append_many([b"a", b"b", b"c"], KWARGS,
                                  [("t", 1), None, ("t", 3)])
        journal.mark_committed([ids[1]], ["0:1:0"])
        assert journal.compact() == 2
        assert _lines(path) == [_expected_line(1, b"a", KWARGS, ("t", 1)),
                                _expected_line(3, b"c", KWARGS, ("t", 3))]

    def test_commit_line(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        ids = journal.append_many([b"a", b"b"], {})
        journal.mark_committed(ids, ["0:1:0", "1:1:é"])
        assert _lines(path)[-1] == (json.dumps(
            {"op": "commit", "ids": ids, "locators": ["0:1:0", "1:1:é"]})
            + "\n").encode()


class TestTornBatch:
    def test_every_cut_recovers_a_prefix_of_the_batch(self, tmp_path):
        """A crash mid-batch leaves a prefix of its bytes: the earlier
        state plus the batch's complete lines replay, and no surviving
        id is handed out again."""
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        a, b = journal.append_many([b"alpha", b"beta"], {"policy": "sox"},
                                   [("acme", "t-1"), None])
        journal.mark_committed([a], ["0:1:0"])
        before = path.read_bytes()
        batch = [b"gamma", b"delta", b"epsilon"]
        batch_ids = journal.append_many(batch, {}, [("acme", "t-2"), None,
                                                    ("acme", "t-3")])
        raw = path.read_bytes()
        batch_lines = raw[len(before):].splitlines(keepends=True)
        ends = [len(before) + len(b"".join(batch_lines[:n]))
                for n in range(1, len(batch) + 1)]
        for cut in range(len(before), len(raw) + 1):
            path.write_bytes(raw[:cut])
            recovered = FileIntentJournal(path)
            complete = sum(1 for end in ends if end <= cut)
            assert [e.payload for e in recovered.replay()] == (
                [b"beta"] + batch[:complete])
            assert [e.entry_id for e in recovered.replay()] == (
                [b] + batch_ids[:complete])
            assert recovered.pending_count() == 1 + complete
            ledger = {e.entry_id: e for e in recovered.ledger()}
            assert ledger[a].committed and ledger[a].tag == ("acme", "t-1")
            fresh = recovered.append(b"after", {})
            assert fresh not in ledger


class TestPendingCount:
    def test_tracks_replay_without_reading_the_file(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "intent.jsonl"

        def agrees(journal: FileIntentJournal) -> int:
            expected = len(journal.replay())
            with monkeypatch.context() as patched:
                def no_read(*args, **kwargs):
                    raise AssertionError("pending_count() read the journal")
                patched.setattr(Path, "read_text", no_read)
                patched.setattr(Path, "read_bytes", no_read)
                patched.setattr("builtins.open", no_read)
                count = journal.pending_count()
            assert count == expected
            return count

        journal = FileIntentJournal(path)
        assert agrees(journal) == 0
        ids = journal.append_many([b"p%d" % i for i in range(5)], {})
        assert agrees(journal) == 5
        journal.mark_committed(ids[:2], ["0:1:0", "0:1:1"])
        journal.mark_committed([ids[0], 999])  # repeated and unknown ids
        assert agrees(journal) == 3
        with open(path, "ab") as handle:
            handle.write(b'{"op": "commit", "ids": [%d' % ids[2])
        reopened = FileIntentJournal(path)
        assert agrees(reopened) == 3
        reopened.append(b"late", {})
        assert agrees(reopened) == 4
        assert reopened.compact() == 4
        assert agrees(reopened) == 4
        assert agrees(FileIntentJournal(path)) == 4


class TestReplicatedBatch:
    def test_one_artifact_per_entry(self):
        transport = ReplicationTransport()
        replica = ReplicaSite()
        journal = ReplicatedIntentJournal(MemoryIntentJournal(), transport,
                                          replica)
        tags = [("acme", "t-1"), None, "r2"]
        ids = journal.append_many([b"a", b"bb", b"ccc"], {"policy": "sox"},
                                  tags)
        assert replica.applied_count == 3
        assert transport.sync_delay_seconds == pytest.approx(
            3 * transport.link_latency)
        mirrored = replica.journal_ledger()
        assert [(e.entry_id, e.payload, e.kwargs, e.tag) for e in mirrored] \
            == [(i, p, {"policy": "sox"}, t)
                for i, p, t in zip(ids, [b"a", b"bb", b"ccc"], tags)]
        assert [e.tag for e in journal.ledger()] == tags


class TestJournalErrorFallbacks:
    def _store(self, journal, shard_count=2):
        return ShardedWormStore.build(
            shard_count=shard_count, keyring=demo_keyring(),
            config=StoreConfig(group_commit_size=8), journal=journal)

    def test_non_json_kwargs_leave_a_write_batch_unjournalled(self):
        journal = MemoryIntentJournal()
        store = self._store(journal, shard_count=1)
        shared = store.write([b"attachment"]).vrd.rdl[0]
        written = len(journal.ledger())
        with pytest.raises(JournalError):
            journal.append_many([b"x"], {"shared_rds": [shared]})
        receipts = store.write_batch([b"a", b"b"], shared_rds=[shared])
        assert len(receipts) == 2
        assert len(journal.ledger()) == written

    def test_non_json_tag_journals_the_batch_untagged(self, tmp_path):
        journal = FileIntentJournal(tmp_path / "intent.jsonl")
        store = self._store(journal)
        opaque = object()
        assert store.submit_many([b"a", b"b"], [("t", 1), opaque]) is None
        ledger = journal.ledger()
        assert [(e.payload, e.tag) for e in ledger] == [(b"a", None),
                                                         (b"b", None)]
        store.flush()
        assert set(store.take_tagged_receipts()) == {("t", 1), opaque}
        assert journal.pending_count() == 0


class TestFsyncsPerRequest:
    """One fsync per write request, plus one per group commit's mark."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = journal_module.os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(journal_module.os, "fsync", counting)
        return calls

    def _service(self, tmp_path, burst):
        journal = FileIntentJournal(tmp_path / "intent.jsonl")
        store = ShardedWormStore.build(
            shard_count=2, keyring=demo_keyring(),
            config=StoreConfig(group_commit_size=8), journal=journal)
        service = WormService(store, tenants=[
            TenantConfig("acme", rate=0.001, burst=burst, max_deferred=64)])
        return service, journal

    def test_accepted_write_batch_of_eight(self, tmp_path, fsyncs):
        service, journal = self._service(tmp_path, burst=8)
        fsyncs.clear()
        response = service.handle(ServiceRequest(
            "write_batch", "acme",
            {"payloads": [b"rec-%d" % i for i in range(8)]}))
        assert response.status == 201
        assert len(fsyncs) == 2  # the batch's intents, then its commit mark
        assert journal.pending_count() == 0

    def test_deferred_write_batch_of_eight(self, tmp_path, fsyncs):
        service, journal = self._service(tmp_path, burst=1)
        fsyncs.clear()
        response = service.handle(ServiceRequest(
            "write_batch", "acme",
            {"payloads": [b"rec-%d" % i for i in range(8)]}))
        assert response.status == 202
        assert len(fsyncs) == 1
        assert journal.pending_count() == 8
        assert [e.tag for e in journal.replay()] == [
            ("acme", ticket) for ticket in response.body["tickets"]]
