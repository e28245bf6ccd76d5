"""Tests for the group-commit intent journal (crash durability)."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import JournalError
from repro.recovery import (ReplicaSite, ReplicatedIntentJournal,
                            ReplicationTransport)
from repro.storage.journal import (
    FileIntentJournal,
    MemoryIntentJournal,
    JournalEntry,
)


@pytest.fixture(params=["memory", "file", "replicated"])
def journal(request, tmp_path):
    if request.param == "memory":
        return MemoryIntentJournal()
    if request.param == "file":
        return FileIntentJournal(tmp_path / "intent.jsonl")
    return ReplicatedIntentJournal(MemoryIntentJournal(),
                                   ReplicationTransport(), ReplicaSite())


class TestJournalContract:
    @pytest.fixture(autouse=True)
    def mirror_matches_the_ledger(self, journal):
        """After each test, a replicated journal's standby folds the
        very ledger the primary keeps, field for field."""
        yield
        if isinstance(journal, ReplicatedIntentJournal):
            assert journal.replica.journal_ledger() == journal.ledger()

    def test_append_replay_roundtrip(self, journal):
        a = journal.append(b"alpha", {"policy": "sox"})
        b = journal.append(b"beta", {})
        entries = journal.replay()
        assert [e.entry_id for e in entries] == [a, b]
        assert entries[0].payload == b"alpha"
        assert entries[0].kwargs == {"policy": "sox"}
        assert journal.pending_count() == 2

    def test_mark_committed_removes_entries(self, journal):
        a = journal.append(b"alpha", {})
        b = journal.append(b"beta", {})
        journal.mark_committed([a])
        entries = journal.replay()
        assert [e.entry_id for e in entries] == [b]
        assert journal.pending_count() == 1

    def test_replay_preserves_submission_order(self, journal):
        ids = [journal.append(b"p%d" % i, {}) for i in range(5)]
        journal.mark_committed([ids[1], ids[3]])
        assert [e.entry_id for e in journal.replay()] == [
            ids[0], ids[2], ids[4]]

    def test_non_json_kwargs_rejected(self, journal):
        with pytest.raises(JournalError):
            journal.append(b"x", {"bad": object()})
        assert journal.ledger() == []

    def test_ledger_keeps_tags_and_locators(self, journal):
        a, b, c = journal.append_many([b"alpha", b"beta", b"gamma"],
                                      {"policy": "sox"},
                                      [("acme", "t-1"), None, "t-3"])
        journal.mark_committed([a, c], ["0:1:0", "1:1:0"])
        assert journal.ledger() == [
            JournalEntry(a, b"alpha", {"policy": "sox"}, ("acme", "t-1"),
                         committed=True, locator="0:1:0"),
            JournalEntry(b, b"beta", {"policy": "sox"}),
            JournalEntry(c, b"gamma", {"policy": "sox"}, "t-3",
                         committed=True, locator="1:1:0")]
        assert journal.replay() == [journal.ledger()[1]]
        assert journal.pending_count() == 1


class TestFileJournal:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        first = FileIntentJournal(path)
        a = first.append(b"alpha", {})
        first.append(b"beta", {})
        first.mark_committed([a])
        reopened = FileIntentJournal(path)
        entries = reopened.replay()
        assert len(entries) == 1
        assert entries[0].payload == b"beta"

    def test_ids_never_reused_after_reopen(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        first = FileIntentJournal(path)
        a = first.append(b"alpha", {})
        first.mark_committed([a])  # journal now drains to empty
        reopened = FileIntentJournal(path)
        b = reopened.append(b"beta", {})
        assert b > a  # committed ids stay burned

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        journal.append(b"alpha", {})
        with open(path, "a") as handle:
            handle.write('{"op": "submit", "id": 2, "payl')  # crash mid-append
        recovered = FileIntentJournal(path)
        assert [e.payload for e in recovered.replay()] == [b"alpha"]

    def test_garbage_mid_file_raises(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        journal.append(b"alpha", {})
        content = path.read_text()
        path.write_text("GARBAGE\n" + content)
        with pytest.raises(JournalError):
            FileIntentJournal(path)

    def test_compact_keeps_only_live_entries(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        ids = [journal.append(b"p%d" % i, {}) for i in range(4)]
        journal.mark_committed(ids[:3])
        kept = journal.compact()
        assert kept == 1
        lines = [json.loads(line) for line in
                 path.read_text().splitlines() if line.strip()]
        assert len(lines) == 1
        assert lines[0]["id"] == ids[3]
        # Still replayable after compaction.
        assert FileIntentJournal(path).pending_count() == 1

    def test_compaction_keeps_the_id_high_water_mark(self, tmp_path):
        path = tmp_path / "intent.jsonl"
        journal = FileIntentJournal(path)
        ids = [journal.append(b"p%d" % i, {}) for i in range(4)]
        journal.mark_committed(ids[1:])
        assert journal.compact() == 1
        assert FileIntentJournal(path).append(b"next", {}) == 5

    def test_entry_is_frozen_value(self):
        entry = JournalEntry(entry_id=1, payload=b"x", kwargs={})
        with pytest.raises(AttributeError):
            entry.payload = b"y"


class TestTornFinalSegment:
    """Crash-truncation of the *last* segment must never lose earlier
    acknowledged state, and must never be mistaken for tampering."""

    def _journal_with_history(self, path):
        journal = FileIntentJournal(path)
        a = journal.append(b"alpha", {"policy": "sox"},
                           tag=("acme", "t-1"))
        b = journal.append(b"beta", {})
        journal.mark_committed([a], locators=["0:1:0"])
        return journal, a, b

    def test_truncated_mid_byte_keeps_prior_entries(self, tmp_path):
        """Simulate the disk persisting only a prefix of the final
        append (torn write at an arbitrary byte offset)."""
        path = tmp_path / "intent.jsonl"
        journal, a, b = self._journal_with_history(path)
        journal.append(b"gamma", {})
        raw = path.read_bytes()
        # Chop the final line at every offset within it; each prefix
        # must recover exactly the pre-crash acknowledged state.
        tail_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(tail_start + 1, len(raw) - 1):
            path.write_bytes(raw[:cut])
            recovered = FileIntentJournal(path)
            assert [e.payload for e in recovered.replay()] == [b"beta"]

    def test_torn_commit_line_replays_entry(self, tmp_path):
        """A crash mid-``mark_committed`` leaves the entry pending —
        at-least-once: replaying a committed write beats losing one."""
        path = tmp_path / "intent.jsonl"
        journal, a, b = self._journal_with_history(path)
        with open(path, "a") as handle:
            handle.write('{"op": "commit", "ids": [%d], "loc' % b)
        recovered = FileIntentJournal(path)
        assert [e.entry_id for e in recovered.replay()] == [b]
        ledger = {e.entry_id: e for e in recovered.ledger()}
        assert ledger[a].committed and ledger[a].locator == "0:1:0"
        assert not ledger[b].committed

    def test_torn_tail_preserves_tags_and_ledger(self, tmp_path):
        """Tags (tuple form restored from JSON lists) and commit
        locators survive a torn tail intact."""
        path = tmp_path / "intent.jsonl"
        journal, a, b = self._journal_with_history(path)
        with open(path, "ab") as handle:
            handle.write(b'{"op": "submit", "id": 3, "payload": "de')
        recovered = FileIntentJournal(path)
        entries = recovered.replay()
        assert [e.entry_id for e in entries] == [b]
        ledger = recovered.ledger()
        assert ledger[0].tag == ("acme", "t-1")  # tuple, not list
        assert ledger[0].committed
        assert ledger[0].locator == "0:1:0"

    def test_ids_not_reused_after_truncation(self, tmp_path):
        """The torn entry's id stays burned: a fresh append after
        recovery must not collide with the lost intent."""
        path = tmp_path / "intent.jsonl"
        journal, a, b = self._journal_with_history(path)
        c = journal.append(b"gamma", {})
        raw = path.read_bytes()
        tail_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(raw[:tail_start + 20])  # torn "gamma" submit
        recovered = FileIntentJournal(path)
        d = recovered.append(b"delta", {})
        assert d > b  # never reuses a surviving id
        assert recovered.pending_count() == 2  # beta + delta

    def test_empty_final_line_is_clean(self, tmp_path):
        """A crash right after the newline (zero bytes of the next
        record) is indistinguishable from a clean shutdown."""
        path = tmp_path / "intent.jsonl"
        journal, a, b = self._journal_with_history(path)
        with open(path, "a") as handle:
            handle.write("\n")
        recovered = FileIntentJournal(path)
        assert [e.entry_id for e in recovered.replay()] == [b]


class TestRestartedPrimary:
    def test_every_entry_reaches_the_standby_once(self, tmp_path):
        """A primary restarted over its compacted file journal keeps
        mirroring to the same standby: nothing it writes is dropped as
        a retransmission, no id is handed out twice, and the commits
        mirrored before the restart stand."""
        path = tmp_path / "intent.jsonl"
        transport, replica = ReplicationTransport(), ReplicaSite()
        first = ReplicatedIntentJournal(FileIntentJournal(path), transport,
                                        replica)
        ids = first.append_many([b"a", b"b", b"c", b"d"], {})
        first.mark_committed(ids[1:], ["0:1:0", "0:2:0", "0:3:0"])
        first.inner.compact()
        second = ReplicatedIntentJournal(FileIntentJournal(path), transport,
                                         replica)
        after = second.append(b"after-restart", {}, tag=("acme", "t-9"))
        second.mark_committed([ids[0]], ["1:1:0"])
        assert after == 5
        assert replica.journal_ledger() == [
            JournalEntry(1, b"a", {}, committed=True, locator="1:1:0"),
            JournalEntry(2, b"b", {}, committed=True, locator="0:1:0"),
            JournalEntry(3, b"c", {}, committed=True, locator="0:2:0"),
            JournalEntry(4, b"d", {}, committed=True, locator="0:3:0"),
            JournalEntry(5, b"after-restart", {}, ("acme", "t-9"))]
