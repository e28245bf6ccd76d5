"""Crash recovery: the intent journal closes the submit→flush hole.

A host crash between ``submit()`` and the group-commit flush would lose
accepted records silently — the exact failure a compliance store cannot
have.  These tests crash the process (discard the store / replay the
file) at every interesting point and assert the journal's at-least-once
contract: after restart, every unflushed submission is back in the
pending queue and commits normally.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import CrashError
from repro.core.sharded import ShardedWormStore
from repro.faults import FaultPlan, FaultyScpu
from repro.hardware.scpu import SecureCoprocessor
from repro.sim.manual_clock import ManualClock
from repro.storage.journal import FileIntentJournal, MemoryIntentJournal

pytestmark = pytest.mark.chaos


def make_store(journal, keyring=None, clock=None, shard_count=2,
               group_commit_size=4):
    return ShardedWormStore.build(
        shard_count=shard_count,
        keyring=keyring if keyring is not None else demo_keyring(),
        clock=clock if clock is not None else ManualClock(),
        config=StoreConfig(group_commit_size=group_commit_size),
        journal=journal)


@pytest.fixture(params=["memory", "file"])
def journal(request, tmp_path):
    if request.param == "memory":
        return MemoryIntentJournal()
    return FileIntentJournal(tmp_path / "intent.jsonl")


class TestCrashBetweenSubmitAndFlush:
    def test_restart_requeues_unflushed_records(self, journal):
        keyring = demo_keyring()
        store = make_store(journal, keyring=keyring)
        # Three submissions below the group-commit threshold: all pending.
        for i in range(3):
            assert store.submit(b"pending-%d" % i) is None
        assert store.pending_count == 3
        del store  # crash: pending queue was main-CPU memory only

        recovered = make_store(journal, keyring=keyring)
        assert recovered.pending_count == 3  # replayed from the journal
        receipts = recovered.flush()
        assert len(receipts) == 3
        payloads = {recovered.read_record(r.locator) for r in receipts}
        assert payloads == {b"pending-0", b"pending-1", b"pending-2"}
        assert journal.pending_count() == 0  # acknowledged on commit

    def test_committed_records_are_not_replayed(self, journal):
        keyring = demo_keyring()
        store = make_store(journal, keyring=keyring, group_commit_size=2)
        flushed = []
        for i in range(5):  # 2 auto-flushes + 1 leftover
            result = store.submit(b"rec-%d" % i)
            if result:
                flushed.extend(result)
        assert len(flushed) == 4
        del store

        recovered = make_store(journal, keyring=keyring)
        # Only the one unflushed record comes back.
        assert recovered.pending_count == 1
        receipts = recovered.flush()
        assert len(receipts) == 1
        assert recovered.read_record(receipts[0].locator) == b"rec-4"

    def test_write_kwargs_survive_the_crash(self, journal):
        keyring = demo_keyring()
        store = make_store(journal, keyring=keyring)
        store.submit(b"held", policy="sox")
        del store

        recovered = make_store(journal, keyring=keyring)
        receipts = recovered.flush()
        assert len(receipts) == 1
        vrd = receipts[0].vrd
        assert vrd.attr.policy == "sox"


class TestInjectedMidCommitCrash:
    def test_crash_before_witness_loses_nothing(self, tmp_path):
        """The host dies inside the group commit, before the SCPU
        witnessed anything: on restart the journal replays every record
        of the torn group."""
        keyring = demo_keyring()
        journal = FileIntentJournal(tmp_path / "intent.jsonl")
        clock = ManualClock()
        plan = FaultPlan().crash_before("witness_write_batch", after_ops=3)
        scpu = FaultyScpu(SecureCoprocessor(keyring=keyring, clock=clock),
                          plan)
        from repro.core.worm import StrongWormStore
        template = StoreConfig(group_commit_size=2).per_shard()
        store = ShardedWormStore(
            [StrongWormStore(config=template.replace(scpu=scpu))],
            config=StoreConfig(shard_count=1, group_commit_size=2),
            journal=journal)

        store.submit(b"first")
        with pytest.raises(CrashError):
            store.submit(b"second")  # triggers the auto-flush that crashes
        del store  # the "process" dies with the exception

        recovered = make_store(journal, keyring=keyring, shard_count=1)
        assert recovered.pending_count == 2
        receipts = recovered.flush()
        payloads = {recovered.read_record(r.locator) for r in receipts}
        assert payloads == {b"first", b"second"}

    def test_crash_after_commit_replays_as_duplicate(self, tmp_path):
        """The host dies after the SCPU witnessed the group but before
        the journal acknowledgement: at-least-once means the records
        replay and commit again — under a WORM regime a duplicate is
        harmless (two SNs, same bytes) while a lost record is a
        compliance violation."""
        keyring = demo_keyring()
        journal = FileIntentJournal(tmp_path / "intent.jsonl")
        clock = ManualClock()
        plan = FaultPlan().crash_after("witness_write_batch", after_ops=3)
        scpu = FaultyScpu(SecureCoprocessor(keyring=keyring, clock=clock),
                          plan)
        from repro.core.worm import StrongWormStore
        template = StoreConfig(group_commit_size=2).per_shard()
        store = ShardedWormStore(
            [StrongWormStore(config=template.replace(scpu=scpu))],
            config=StoreConfig(shard_count=1, group_commit_size=2),
            journal=journal)

        store.submit(b"first")
        with pytest.raises(CrashError):
            store.submit(b"second")
        del store

        recovered = make_store(journal, keyring=keyring, shard_count=1)
        assert recovered.pending_count == 2  # never acknowledged
        receipts = recovered.flush()
        assert len(receipts) == 2
        payloads = [recovered.read_record(r.locator) for r in receipts]
        assert sorted(payloads) == [b"first", b"second"]
        assert journal.pending_count() == 0
