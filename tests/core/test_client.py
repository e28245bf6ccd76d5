"""Unit tests for client-side verification (the trust chain)."""

import dataclasses

import pytest

from repro.core.client import WormClient
from repro.core.errors import FreshnessError, VerificationError
from repro.core.proofs import (
    ActiveProof,
    BaseBoundProof,
    DeletionProofResponse,
    NeverAllocatedProof,
    ReadResult,
)
from repro.crypto.keys import CertificateAuthority
from repro.hardware.scpu import Strength


class TestTrustBootstrap:
    def test_bad_certificate_rejected_at_construction(self, store, ca):
        certs = store.certificates(ca)
        wrong_ca = CertificateAuthority(bits=512)
        with pytest.raises(VerificationError):
            WormClient(ca_public_key=wrong_ca.root_public_key,
                       certificates=certs, clock=store.scpu.clock)

    def test_add_rotated_burst_certificate(self, store, ca, client):
        receipt_old = store.write([b"old burst"], strength=Strength.WEAK)
        new_cert = store.rotate_burst_key(ca)
        client.add_certificate(new_cert)
        receipt_new = store.write([b"new burst"], strength=Strength.WEAK)
        assert client.verify_read(store.read(receipt_new.sn),
                                  receipt_new.sn).weakly_signed
        # Old-burst-key record still verifies (its cert was kept).
        assert client.verify_read(store.read(receipt_old.sn),
                                  receipt_old.sn).status == "active"


class TestActiveReads:
    def test_verify_active(self, store, client):
        receipt = store.write([b"hello"], policy="sox")
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"
        assert verified.data == b"hello"
        assert not verified.weakly_signed

    def test_weak_read_flagged(self, store, client):
        receipt = store.write([b"hello"], strength=Strength.WEAK)
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.weakly_signed

    def test_multi_record_vr_verifies(self, store, client):
        receipt = store.write([b"part1", b"part2", b"part3"])
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.data == b"part1part2part3"

    def test_answer_for_wrong_sn_rejected(self, store, client):
        a = store.write([b"a"])
        store.write([b"b"])
        result = store.read(a.sn)
        with pytest.raises(VerificationError, match="different SN"):
            client.verify_read(result, a.sn + 1)

    def test_status_proof_mismatch_rejected(self, store, client):
        receipt = store.write([b"x"])
        result = store.read(receipt.sn)
        twisted = dataclasses.replace(result, status="deleted")
        with pytest.raises(VerificationError):
            client.verify_read(twisted, receipt.sn)

    def test_hmac_record_rejected_by_default(self, store, client):
        receipt = store.write([b"x"], strength=Strength.HMAC)
        with pytest.raises(VerificationError, match="HMAC"):
            client.verify_read(store.read(receipt.sn), receipt.sn)

    def test_hmac_record_accepted_when_opted_in(self, store, ca):
        trusting = store.make_client(ca, accept_unverifiable=True)
        receipt = store.write([b"x"], strength=Strength.HMAC)
        verified = trusting.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"

    def test_unknown_proof_object_rejected(self, store, client):
        receipt = store.write([b"x"])
        bogus = ReadResult(sn=receipt.sn, status="active", proof=object())
        with pytest.raises(VerificationError, match="unrecognized"):
            client.verify_read(bogus, receipt.sn)


class TestDeletionProofs:
    def _expired(self, store):
        receipt = store.write([b"brief"], retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        return receipt

    def test_deletion_proof_verifies(self, store, client):
        receipt = self._expired(store)
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "deleted"

    def test_metasig_cannot_stand_in_for_deletion_proof(self, store, client):
        receipt = store.write([b"active"])
        vrd = store.vrdt.get_active(receipt.sn)
        fake = ReadResult(sn=receipt.sn, status="deleted",
                          proof=DeletionProofResponse(proof=vrd.metasig))
        with pytest.raises(VerificationError):
            client.verify_read(fake, receipt.sn)


class TestFreshness:
    def test_stale_never_allocated_rejected(self, store, client):
        envelope = store.vrdt.sn_current_envelope
        store.scpu.clock.advance(client.freshness_window + 10.0)
        result = ReadResult(sn=9999, status="never-allocated",
                            proof=NeverAllocatedProof(sn_current=envelope))
        with pytest.raises(FreshnessError):
            client.verify_read(result, 9999)

    def test_fresh_never_allocated_accepted(self, store, client):
        result = store.read(9999)
        verified = client.verify_read(result, 9999)
        assert verified.status == "never-allocated"

    def test_future_timestamp_rejected(self, store, ca):
        # A client whose clock lags far behind the SCPU sees "future"
        # constructs and refuses them (roughly synchronized clocks are a
        # §4.2.2 footnote requirement).
        from repro.sim.manual_clock import ManualClock
        lagging = store.make_client(ca, clock=ManualClock(0.0))
        store.scpu.clock.advance(3600.0)
        store.auth.windows.refresh_current(force=True)
        result = store.read(9999)
        with pytest.raises(FreshnessError, match="future"):
            lagging.verify_read(result, 9999)

    def test_burst_signature_expires_without_strengthening(self, store, client):
        receipt = store.write([b"x"], strength=Strength.WEAK)
        store.scpu.clock.advance(61 * 60.0)  # past 512-bit lifetime
        with pytest.raises(FreshnessError, match="lifetime"):
            client.verify_read(store.read(receipt.sn), receipt.sn)

    def test_strengthened_record_immune_to_lifetime(self, store, client):
        receipt = store.write([b"x"], strength=Strength.WEAK)
        store.strengthening.drain(store.now)
        store.scpu.clock.advance(61 * 60.0)
        store.auth.windows.refresh_current()
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"
        assert not verified.weakly_signed


class TestBaseProofs:
    def test_base_proof_below(self, store, client):
        for _ in range(3):
            store.write([b"t"], retention_seconds=5.0)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)
        store.write([b"anchor"])
        store.auth.windows.try_advance_base()
        result = store.read(1)
        verified = client.verify_read(result, 1)
        assert verified.status == "deleted"
        assert verified.proof_kind == "below-base"

    def test_base_proof_not_applicable_above(self, store, client):
        receipt = store.write([b"active"])
        base_env = store.vrdt.sn_base_envelope
        fake = ReadResult(sn=receipt.sn, status="deleted",
                          proof=BaseBoundProof(sn_base=base_env))
        with pytest.raises(VerificationError):
            client.verify_read(fake, receipt.sn)


class TestSignatureMemo:
    """The client's LRU memo of signatures that already verified."""

    def test_signature_replayed_onto_other_bytes_misses(self, store, client):
        receipt = store.write([b"memo"], policy="sox")
        result = store.read(receipt.sn)
        client.verify_read(result, receipt.sn)
        vrd = result.vrd
        # The genuine metasig bytes, over attributes with a shorter
        # retention: one field differs, the signature is the same.
        forged_attr = dataclasses.replace(vrd.attr, retention_seconds=1.0)
        metasig = dataclasses.replace(vrd.metasig, envelope=dataclasses.replace(
            vrd.metasig.envelope,
            fields={**vrd.metasig.envelope.fields,
                    "attr": forged_attr.canonical_bytes()}))
        doctored = dataclasses.replace(vrd, attr=forged_attr, metasig=metasig)
        hits, misses = client.sig_cache_hits, client.sig_cache_misses
        with pytest.raises(VerificationError, match="signature check failed"):
            client.verify_vrd(doctored, result.records)
        assert (client.sig_cache_hits, client.sig_cache_misses) == (
            hits, misses + 1)
        # The genuine VRD still answers from the memo, both signatures.
        assert client.verify_vrd(vrd, result.records)
        assert (client.sig_cache_hits, client.sig_cache_misses) == (
            hits + 2, misses + 1)

    @pytest.mark.parametrize("size, counts", [(256, (4, 5)), (3, (2, 7))])
    def test_lru_eviction_counts(self, store, ca, size, counts):
        # Reads of a, b, a check S_s(SN_current), then metasig and
        # datasig.  With room for all five signatures the third read is
        # three hits.  With room for three, b's two misses evict a's
        # metasig and datasig but not the S_s(SN_current) b just used,
        # so each later read hits only that (a FIFO memo would give
        # (1, 8)).
        client = WormClient(ca_public_key=ca.root_public_key,
                            certificates=store.certificates(ca),
                            clock=store.scpu.clock,
                            signature_cache_size=size)
        a = store.write([b"a"]).sn
        b = store.write([b"b"]).sn
        for sn in (a, b, a):
            assert client.verify_read(store.read(sn), sn).status == "active"
        assert (client.sig_cache_hits, client.sig_cache_misses) == counts
