"""Tamper trip during deferred strengthening: no laundering, no loss.

§4.3's deferred-strength witnessing absorbs bursts with weak constructs
and strengthens them during idle time.  If the card dies mid-backlog,
two things must hold:

* weak signatures are **never laundered to strong** — a record whose
  strengthening failed still presents (and verifies as) its weak
  construct, flagged ``weakly_signed`` to the client;
* the backlog is **reported, not lost** — every still-weak SN remains in
  the queue and shows up in :meth:`StrengtheningQueue.report`.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import ScpuUnavailableError, TamperedError
from repro.core.worm import StrongWormStore
from repro.faults import FaultPlan, FaultyScpu
from repro.hardware.scpu import SecureCoprocessor, Strength
from repro.sim.manual_clock import ManualClock

pytestmark = pytest.mark.chaos


def make_faulty_store(plan):
    scpu = FaultyScpu(
        SecureCoprocessor(keyring=demo_keyring(), clock=ManualClock()), plan)
    return StrongWormStore(config=StoreConfig(scpu=scpu))


class TestTamperDuringStrengthening:
    def test_backlog_reported_not_lost(self, ca):
        plan = FaultPlan().tamper(op="strengthen_batch", after_ops=1)
        store = make_faulty_store(plan)
        receipts = [store.write([b"burst-%d" % i], strength=Strength.WEAK)
                    for i in range(5)]
        assert len(store.strengthening) == 5

        # The card zeroizes on the first strengthen attempt.
        with pytest.raises(TamperedError):
            store.strengthening.drain(store.now)

        # Nothing left the queue without its strong signature.
        report = store.strengthening.report(store.now)
        assert report["backlog"] == 5
        assert report["pending_sns"] == sorted(r.sn for r in receipts)
        assert report["strengthened"] == 0

    def test_weak_signatures_never_laundered(self, ca):
        plan = FaultPlan().tamper(op="strengthen_batch", after_ops=1)
        store = make_faulty_store(plan)
        client = store.make_client(ca)  # certified while the card lived
        receipts = [store.write([b"burst-%d" % i], strength=Strength.WEAK)
                    for i in range(3)]
        with pytest.raises(TamperedError):
            store.strengthening.drain(store.now)

        # Every record still reads and verifies — as WEAK.  A laundered
        # record would verify with weakly_signed=False despite never
        # having received its strong signature.
        for receipt in receipts:
            verified = client.verify_read(store.read(receipt.sn), receipt.sn)
            assert verified.status == "active"
            assert verified.weakly_signed is True

    def test_transient_fault_keeps_entry_for_retry(self):
        # One dropped strengthen request: the entry survives and the
        # next idle slice completes it.
        plan = FaultPlan().transient(op="strengthen_batch", after_ops=1)
        store = make_faulty_store(plan)
        store.write([b"burst"], strength=Strength.WEAK)
        assert len(store.strengthening) == 1
        # The store-level retry layer rides through the single fault.
        assert store.strengthening.drain(store.now) == 1
        assert store.strengthening.report(store.now)["backlog"] == 0
        assert store.retry.stats.retries >= 1

    def test_exhausted_retries_restore_entry(self):
        plan = FaultPlan().transient(op="strengthen_batch", after_ops=1, count=99)
        store = make_faulty_store(plan)
        receipt = store.write([b"burst"], strength=Strength.WEAK)
        with pytest.raises(ScpuUnavailableError):
            store.strengthening.drain(store.now)
        report = store.strengthening.report(store.now)
        assert report["backlog"] == 1
        assert report["pending_sns"] == [receipt.sn]


class TestHashVerificationBacklog:
    def test_failed_verification_stays_queued(self):
        plan = FaultPlan().transient(op="verify_deferred_hash",
                                     after_ops=1, count=99)
        store = make_faulty_store(plan)
        store.write([b"burst"], strength=Strength.HMAC,
                    defer_data_hash=True)
        assert len(store.hash_verification) == 1
        with pytest.raises(ScpuUnavailableError):
            store.hash_verification.drain()
        # The unverified host hash is still in the exposure window —
        # queued, not silently treated as verified.
        assert len(store.hash_verification) == 1
