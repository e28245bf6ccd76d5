"""Unit tests for deferred-strength queues (§4.3)."""

import dataclasses
import hashlib

import pytest

from repro import demo_keyring
from repro.core.deferred import StrengtheningQueue
from repro.core.errors import ScpuUnavailableError
from repro.core.worm import StrongWormStore
from repro.hardware.scpu import SecureCoprocessor, Strength


class TestStrengtheningQueue:
    def test_enqueue_orders_by_deadline(self, store):
        a = store.write([b"a"], strength=Strength.WEAK)
        store.scpu.clock.advance(100.0)
        b = store.write([b"b"], strength=Strength.WEAK)
        # a was issued first → earlier deadline → strengthened first.
        assert store.strengthening.strengthen_next(store.now) == a.sn
        assert store.strengthening.strengthen_next(store.now) == b.sn

    def test_strengthen_upgrades_signatures(self, store, ca):
        receipt = store.write([b"weak"], strength=Strength.WEAK)
        assert receipt.vrd.metasig.key_bits == 512
        weak_fp = receipt.vrd.metasig.key_fingerprint
        store.strengthening.strengthen_next(store.now)
        upgraded = store.vrdt.get_active(receipt.sn)
        assert upgraded.metasig.key_fingerprint != weak_fp
        assert (upgraded.metasig.key_fingerprint
                == store.scpu.public_keys()["s"].fingerprint())

    def test_strong_writes_not_enqueued(self, store):
        store.write([b"strong"], strength=Strength.STRONG)
        assert len(store.strengthening) == 0

    def test_deleted_records_skipped(self, store):
        receipt = store.write([b"doomed"], strength=Strength.WEAK,
                              retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        assert store.strengthening.strengthen_next(store.now) is None
        assert store.strengthening.strengthened_count == 0

    def test_lifetime_violation_counted(self, store):
        store.write([b"forgotten"], strength=Strength.WEAK)
        lifetime = 60 * 60.0  # 512-bit
        store.scpu.clock.advance(lifetime + 100.0)
        store.strengthening.strengthen_next(store.now)
        assert store.strengthening.lifetime_violations == 1

    def test_no_violation_within_lifetime(self, store):
        store.write([b"timely"], strength=Strength.WEAK)
        store.scpu.clock.advance(60.0)
        store.strengthening.strengthen_next(store.now)
        assert store.strengthening.lifetime_violations == 0

    def test_overdue_count(self, store):
        store.write([b"a"], strength=Strength.WEAK)
        assert store.strengthening.overdue_count(store.now) == 0
        store.scpu.clock.advance(31 * 60.0)  # past deadline (half lifetime)
        assert store.strengthening.overdue_count(store.now) == 1

    def test_drain_with_budget(self, store):
        for _ in range(5):
            store.write([b"w"], strength=Strength.WEAK)
        assert store.strengthening.drain(store.now, max_items=2) == 2
        assert len(store.strengthening) == 3
        assert store.strengthening.drain(store.now) == 3

    def test_next_deadline_empty(self, store):
        assert store.strengthening.next_deadline() is None

    def test_invalid_safety_factor(self, store):
        with pytest.raises(ValueError):
            StrengtheningQueue(store, safety_factor=0.0)
        with pytest.raises(ValueError):
            StrengtheningQueue(store, safety_factor=1.5)

    def test_hold_during_queue_wait_does_not_break_strengthening(
            self, store, regulator_key):
        """Regression: lit_hold re-issues metasig with the strong key while
        the record still sits in the strengthening queue; the later
        strengthening pass must treat the already-strong metasig as done
        and still upgrade the weak datasig."""
        from repro.crypto.envelope import Envelope, Purpose
        receipt = store.write([b"held burst record"], strength=Strength.WEAK,
                              retention_seconds=1e6)
        cred = regulator_key.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": receipt.sn}, timestamp=store.now))
        store.lit_hold(receipt.sn, cred, hold_timeout=store.now + 1e6)
        assert store.strengthening.strengthen_next(store.now) == receipt.sn
        upgraded = store.vrdt.get_active(receipt.sn)
        strong_fp = store.scpu.public_keys()["s"].fingerprint()
        assert upgraded.metasig.key_fingerprint == strong_fp
        assert upgraded.datasig.key_fingerprint == strong_fp
        assert upgraded.attr.litigation_hold  # the hold survived

    def test_hmac_writes_enqueued(self, store):
        store.write([b"h"], strength=Strength.HMAC)
        assert len(store.strengthening) == 1
        sn = store.strengthening.strengthen_next(store.now)
        upgraded = store.vrdt.get_active(sn)
        assert upgraded.metasig.scheme == "rsa"


class TestAccountingRegressions:
    """PR 5 fixes: violation double-count and deleted-entry reporting."""

    def test_failed_then_retried_strengthen_counts_one_violation(
            self, store, monkeypatch):
        """Regression: a strengthen attempt past hard expiry that fails
        (entry restored for retry) must count the lapse exactly once —
        it is one record whose construct lapsed, not one lapse per
        attempt."""
        store.write([b"late"], strength=Strength.WEAK)
        lifetime = 60 * 60.0  # 512-bit security lifetime
        store.scpu.clock.advance(lifetime + 100.0)

        real = store.strengthen_vrds
        attempts = []

        def flaky(sns):
            attempts.append(list(sns))
            if len(attempts) == 1:
                raise ScpuUnavailableError("card dropped the request")
            return real(sns)

        monkeypatch.setattr(store, "strengthen_vrds", flaky)
        with pytest.raises(ScpuUnavailableError):
            store.strengthening.strengthen_next(store.now)
        # The entry was restored for retry; the lapse already counted.
        assert len(store.strengthening) == 1
        assert store.strengthening.lifetime_violations == 1
        # The retry completes without counting the same lapse again.
        assert store.strengthening.strengthen_next(store.now) is not None
        assert store.strengthening.lifetime_violations == 1
        assert (store.strengthening.report(store.now)["lifetime_violations"]
                == 1)

    def test_deleted_entries_vanish_from_report(self, store):
        """Regression: report() used to include silently-droppable
        deleted entries in backlog/pending_sns while strengthen_next
        skipped them without a trace."""
        store.write([b"doomed"], strength=Strength.WEAK,
                    retention_seconds=5.0)
        keeper = store.write([b"keeper"], strength=Strength.WEAK,
                             retention_seconds=1e6)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)

        report = store.strengthening.report(store.now)
        assert report["pending_sns"] == [keeper.sn]
        assert report["backlog"] == 1
        assert report["skipped_deleted"] == 1
        assert store.strengthening.skipped_deleted == 1

    def test_next_deadline_ignores_deleted_entries(self, store):
        store.write([b"doomed"], strength=Strength.WEAK,
                    retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.write([b"keeper"], strength=Strength.WEAK,
                    retention_seconds=1e6)
        store.retention.tick(store.now)
        # The deleted record has the earlier deadline but protects
        # nothing; the keeper's (issue + lifetime/2) is what's next.
        assert (store.strengthening.next_deadline()
                == pytest.approx(10.0 + 60 * 60.0 * 0.5))

    def test_overdue_count_ignores_deleted_entries(self, store):
        store.write([b"doomed"], strength=Strength.WEAK,
                    retention_seconds=5.0)
        store.write([b"keeper"], strength=Strength.WEAK,
                    retention_seconds=1e9)
        store.scpu.clock.advance(31 * 60.0)  # past both deadlines
        store.retention.tick(store.now)
        assert store.strengthening.overdue_count(store.now) == 1

    def test_len_is_raw_heap_active_backlog_is_live(self, store):
        store.write([b"doomed"], strength=Strength.WEAK,
                    retention_seconds=5.0)
        store.write([b"keeper"], strength=Strength.WEAK,
                    retention_seconds=1e6)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        # Drain budgets count pops still needed; debt counts live records.
        assert len(store.strengthening) == 2
        assert store.strengthening.active_backlog() == 1

    def test_hash_verify_skip_is_counted(self, store):
        store.write([b"gone soon"], defer_data_hash=True,
                    retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        assert store.hash_verification.verify_next() is None
        assert store.hash_verification.skipped_deleted == 1


class TestHashVerificationQueue:
    def test_honest_hash_verifies(self, store):
        store.write([b"honest data"], defer_data_hash=True)
        assert len(store.hash_verification) == 1
        assert store.hash_verification.verify_next() is True
        assert store.hash_verification.mismatches == []

    def test_host_lie_detected_at_idle_time(self, store):
        receipt = store.write([b"burst data"], defer_data_hash=True)
        # The insider swaps the payload during the burst, before the SCPU
        # gets around to verifying the host-provided hash.
        rd = receipt.vrd.rdl[0]
        store.blocks.unchecked_overwrite(rd.key, b"swapped!!!")
        assert store.hash_verification.verify_next() is False
        assert store.hash_verification.mismatches == [receipt.sn]

    def test_deleted_records_skipped(self, store):
        store.write([b"gone soon"], defer_data_hash=True, retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        assert store.hash_verification.verify_next() is None

    def test_exposure_window_age(self, store):
        store.write([b"pending"], defer_data_hash=True)
        store.scpu.clock.advance(42.0)
        assert store.hash_verification.oldest_pending_age(store.now) == 42.0
        store.hash_verification.drain()
        assert store.hash_verification.oldest_pending_age(store.now) == 0.0

    def test_drain_budget(self, store):
        for _ in range(4):
            store.write([b"d"], defer_data_hash=True)
        assert store.hash_verification.drain(max_items=3) == 3
        assert len(store.hash_verification) == 1

    def test_scpu_hash_mode_not_enqueued(self, store):
        store.write([b"direct"], defer_data_hash=False)
        assert len(store.hash_verification) == 0


class TestGaugeIndexRegressions:
    """Hot-path campaign: gauge pulls read a live-deadline index, not an
    O(n) sweep of the heap that asks the VRDT about every entry."""

    def test_gauge_pulls_do_not_touch_the_vrdt(self, store, monkeypatch):
        for _ in range(8):
            store.write([b"w"], strength=Strength.WEAK)
        store.scpu.clock.advance(31 * 60.0)  # half the entries overdue? no: all

        calls = []
        real = store.vrdt.is_active

        def spy(sn):
            calls.append(sn)
            return real(sn)

        monkeypatch.setattr(store.vrdt, "is_active", spy)
        assert store.strengthening.active_backlog() == 8
        assert store.strengthening.next_deadline() is not None
        assert store.strengthening.overdue_count(store.now) == 8
        assert calls == []

    def test_gauge_pulls_do_not_scan_the_heap(self, store, monkeypatch):
        """The obs wiring pulls these gauges on every snapshot; a pull
        must not iterate the pending heap."""
        import repro.core.deferred as deferred_module
        for _ in range(4):
            store.write([b"w"], strength=Strength.WEAK)
        queue = store.strengthening

        class NoIterHeap(list):
            def __iter__(self):
                raise AssertionError("gauge pull iterated the heap")

        monkeypatch.setattr(queue, "_heap", NoIterHeap(queue._heap))
        assert queue.active_backlog() == 4
        assert queue.next_deadline() is not None
        assert queue.overdue_count(store.now) == 0

    def test_deletion_updates_gauges_without_drain(self, store):
        doomed = store.write([b"doomed"], strength=Strength.WEAK,
                             retention_seconds=5.0)
        keeper = store.write([b"keeper"], strength=Strength.WEAK,
                             retention_seconds=1e6)
        assert store.strengthening.active_backlog() == 2
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)  # deletes doomed, no drain yet
        assert store.strengthening.active_backlog() == 1
        assert len(store.strengthening) == 2  # heap still holds the ghost
        # Draining reconciles: one live strengthen, one skipped ghost.
        assert store.strengthening.strengthen_next(store.now) == keeper.sn
        assert store.strengthening.active_backlog() == 0
        assert doomed.sn not in store.strengthening.report(
            store.now)["pending_sns"]


def _textbook(key, signed):
    """PKCS#1 v1.5 by the book: the signature *key* gives *signed*'s
    envelope, computed with the full private exponent."""
    private = key.keypair.private
    info = bytes.fromhex("3031300d060960864801650304020105000420")
    t = info + hashlib.sha256(signed.envelope.canonical_bytes()).digest()
    k = private.byte_length
    em = b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t
    return pow(int.from_bytes(em, "big"), private.d,
               private.n).to_bytes(k, "big")


def _tampered(signed):
    """*signed* with one signature bit flipped."""
    flipped = bytes([signed.signature[0] ^ 1]) + signed.signature[1:]
    return dataclasses.replace(signed, signature=flipped)


@pytest.fixture
def keyed_store():
    """A store whose keyring the test can read, to check signatures."""
    keyring = demo_keyring()
    return keyring, StrongWormStore(scpu=SecureCoprocessor(keyring=keyring))


class TestBatchedDrains:
    """A drain slice is one card call: all of its live entries at once."""

    def test_a_strengthening_slice_is_one_crossing(self, store, monkeypatch):
        receipts = [store.write([b"w-%d" % i], strength=Strength.WEAK)
                    for i in range(5)]
        calls = []
        real = store.scpu.strengthen_batch
        monkeypatch.setattr(store.scpu, "strengthen_batch",
                            lambda seq: calls.append(seq) or real(seq))
        before = store.scpu.meter.crossings
        assert store.strengthening.drain(store.now) == 5
        assert store.scpu.meter.crossings == before + 1
        assert len(calls) == 1
        strong = store.scpu.public_keys()["s"].fingerprint()
        for receipt in receipts:
            vrd = store.vrdt.get_active(receipt.sn)
            assert vrd.metasig.key_fingerprint == strong
            assert vrd.datasig.key_fingerprint == strong

    def test_a_deferred_hash_slice_is_one_crossing(self, store):
        for i in range(5):
            store.write([b"d-%d" % i, b"e-%d" % i], defer_data_hash=True)
        before = store.scpu.meter.crossings
        assert store.hash_verification.drain() == 5
        assert store.scpu.meter.crossings == before + 1
        assert store.hash_verification.verified_count == 5
        assert store.hash_verification.mismatches == []

    def test_a_deferred_hash_slice_records_each_mismatch(self, store):
        receipts = [store.write([b"d-%d" % i], defer_data_hash=True)
                    for i in range(4)]
        for receipt in receipts[1::2]:
            store.blocks.unchecked_overwrite(receipt.vrd.rdl[0].key, b"lie")
        assert store.hash_verification.drain() == 4
        assert store.hash_verification.mismatches == [
            receipt.sn for receipt in receipts[1::2]]

    def test_a_failed_deferred_hash_slice_goes_back_in_order(
            self, store, monkeypatch):
        for i in range(4):
            store.write([b"d-%d" % i], defer_data_hash=True)
        queued = list(store.hash_verification._pending)

        def dropped(vrds):
            raise ScpuUnavailableError("card dropped the request")

        monkeypatch.setattr(store, "scpu_verify_data_hashes", dropped)
        with pytest.raises(ScpuUnavailableError):
            store.hash_verification.drain(max_items=3)
        assert list(store.hash_verification._pending) == queued
        assert store.hash_verification.verified_count == 0

    @pytest.mark.parametrize("construct", ["metasig", "datasig"])
    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_a_tampered_construct_stops_the_slice_there(self, keyed_store,
                                                        ca, construct, j):
        keyring, store = keyed_store
        client = store.make_client(ca)
        receipts = [store.write([b"w-%d" % i], strength=Strength.WEAK)
                    for i in range(5)]
        vrd = store.vrdt.get_active(receipts[j].sn)
        store.vrdt.replace_active(vrd.with_signatures(
            _tampered(vrd.metasig) if construct == "metasig" else vrd.metasig,
            _tampered(vrd.datasig) if construct == "datasig"
            else vrd.datasig))
        with pytest.raises(ValueError, match="verification failed"):
            store.strengthening.drain(store.now)
        strong = keyring.s_key.fingerprint
        for i, receipt in enumerate(receipts):
            vrd = store.vrdt.get_active(receipt.sn)
            fingerprints = {vrd.metasig.key_fingerprint,
                            vrd.datasig.key_fingerprint}
            # Records before j are strong; j and every later one keep both
            # weak constructs, even when j's metasig checked out.
            assert fingerprints == ({strong} if i < j
                                    else {keyring.burst_key.fingerprint})
            if i > j:
                verified = client.verify_read(store.read(receipt.sn),
                                              receipt.sn)
                assert verified.weakly_signed is True
        report = store.strengthening.report(store.now)
        assert report["pending_sns"] == [r.sn for r in receipts[j:]]
        assert report["strengthened"] == j

    def test_batched_signatures_are_the_per_envelope_signatures(
            self, keyed_store):
        keyring, store = keyed_store
        receipts = [store.write([b"w-%d" % i], strength=Strength.WEAK)
                    for i in range(3)]
        held = store.write([b"hmac"], strength=Strength.HMAC)
        for receipt in receipts:
            for signed in (receipt.vrd.metasig, receipt.vrd.datasig):
                assert signed.signature == _textbook(keyring.burst_key,
                                                     signed)
        store.scpu.clock.advance(10.0)
        assert store.strengthening.drain(store.now) == 4
        for receipt in [*receipts, held]:
            vrd = store.vrdt.get_active(receipt.sn)
            for signed in (vrd.metasig, vrd.datasig):
                assert signed.timestamp == store.now
                assert signed.signature == _textbook(keyring.s_key, signed)
