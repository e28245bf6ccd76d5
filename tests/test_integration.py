"""End-to-end lifecycle and property-based integration tests."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StrongWormStore, demo_keyring
from repro.core.errors import FreshnessError, VerificationError
from repro.crypto.envelope import Envelope, Purpose
from repro.hardware.scpu import SecureCoprocessor, Strength


class TestFullLifecycle:
    def test_archive_story(self, store, client, regulator_key):
        """Write → verify → hold → release → expire → prove deletion."""
        # 1. A broker archives a trade blotter under SEC 17a-4.
        receipt = store.write([b"2026-07-02 trade blotter"],
                              policy="sec17a-4")
        assert client.verify_read(store.read(receipt.sn),
                                  receipt.sn).status == "active"

        # 2. Litigation: a court places a hold.
        cred = regulator_key.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": receipt.sn}, timestamp=store.now))
        store.lit_hold(receipt.sn, cred,
                       hold_timeout=store.now + 10 * 365 * 24 * 3600.0)

        # 3. Retention passes, but the hold keeps the record alive.
        store.scpu.clock.advance(7 * 365 * 24 * 3600.0)
        store.maintenance()
        assert store.vrdt.is_active(receipt.sn)

        # 4. Litigation ends; the release credential arrives.
        release = regulator_key.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": receipt.sn}, timestamp=store.now))
        store.lit_release(receipt.sn, release)
        store.maintenance()

        # 5. Now the record is shredded, and its deletion is provable.
        assert not store.vrdt.is_active(receipt.sn)
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "deleted"

    def test_burst_then_idle_story(self, store, client):
        """A write burst absorbed weakly, then strengthened in idle time."""
        receipts = [store.write([f"burst-{i}".encode()], policy="sox",
                                strength=Strength.WEAK, defer_data_hash=True)
                    for i in range(20)]
        # During the burst: records are readable, flagged weakly signed.
        early = client.verify_read(store.read(receipts[0].sn), receipts[0].sn)
        assert early.weakly_signed

        # Idle period: maintenance strengthens everything in deadline order.
        store.scpu.clock.advance(120.0)
        summary = store.maintenance()
        assert summary["strengthened"] == 20
        assert summary["hashes_verified"] == 20
        assert store.strengthening.lifetime_violations == 0
        assert store.hash_verification.mismatches == []

        # Past the weak lifetime, everything still verifies (strongly).
        store.scpu.clock.advance(2 * 3600.0)
        store.maintenance()
        late = client.verify_read(store.read(receipts[7].sn), receipts[7].sn)
        assert not late.weakly_signed


class TestCrossStoreIsolation:
    def test_signatures_do_not_transfer_between_stores(self, ca):
        """Records from store A cannot be passed off as store B's."""
        a = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        b = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        receipt = a.write([b"from store A"])
        b_client = b.make_client(ca)
        result_from_a = a.read(receipt.sn)
        with pytest.raises(VerificationError):
            b_client.verify_read(result_from_a, receipt.sn)


class TestPropertyBased:
    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["strong", "weak", "hmac"]),
            st.integers(min_value=0, max_value=4096),      # payload size
            st.floats(min_value=1.0, max_value=1e6),       # retention
        ),
        min_size=1, max_size=12))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_committed_record_accounted_for(self, ops):
        """Invariant: after any write/expiry/maintenance mix, every SN in
        [1, SN_current] yields exactly one verifiable proof case."""
        store = StrongWormStore(scpu=SecureCoprocessor(keyring=_keyring()))
        from repro.crypto.keys import CertificateAuthority
        ca = _shared_ca()
        client = store.make_client(ca, accept_unverifiable=True)
        for strength, size, retention in ops:
            store.write([b"\x5a" * size], retention_seconds=retention,
                        strength=strength)
        store.scpu.clock.advance(50.0)
        store.maintenance()
        store.auth.windows.refresh_current(force=True)
        for sn in range(1, store.scpu.current_serial_number + 1):
            verified = client.verify_read(store.read(sn), sn)
            assert verified.status in ("active", "deleted")

    @given(sizes=st.lists(st.integers(min_value=0, max_value=2048),
                          min_size=1, max_size=10))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reads_always_return_written_bytes(self, sizes):
        store = StrongWormStore(scpu=SecureCoprocessor(keyring=_keyring()))
        payloads = {}
        for i, size in enumerate(sizes):
            payload = bytes([i % 256]) * size
            receipt = store.write([payload], retention_seconds=1e9)
            payloads[receipt.sn] = payload
        for sn, payload in payloads.items():
            assert store.read(sn).data == payload


_CACHE: dict = {}


def _keyring():
    """One keyring per test session for hypothesis speed (never mutated)."""
    if "keyring" not in _CACHE:
        _CACHE["keyring"] = demo_keyring()
    import dataclasses
    return dataclasses.replace(_CACHE["keyring"])


def _shared_ca():
    from repro.crypto.keys import CertificateAuthority
    if "ca" not in _CACHE:
        _CACHE["ca"] = CertificateAuthority(bits=512)
    return _CACHE["ca"]
