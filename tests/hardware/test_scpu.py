"""Unit tests for the secure coprocessor device."""

import pytest

from repro import demo_keyring
from repro.crypto.envelope import Envelope, Purpose
from repro.crypto.keys import CertificateAuthority, SigningKey
from repro.hardware.scpu import SecureCoprocessor, Strength
from repro.hardware.tamper import TamperedError


@pytest.fixture
def scpu():
    return SecureCoprocessor(keyring=demo_keyring())


class TestSerialNumbers:
    def test_monotonic_consecutive(self, scpu):
        sns = [scpu.issue_serial_number() for _ in range(5)]
        assert sns == [1, 2, 3, 4, 5]
        assert scpu.current_serial_number == 5

    def test_initial_state(self, scpu):
        assert scpu.current_serial_number == 0
        assert scpu.sn_base == 1


class TestWitnessing:
    def test_witness_write_produces_both_signatures(self, scpu):
        sn = scpu.issue_serial_number()
        h = scpu.hash_record_data([b"data"])
        metasig, datasig = scpu.witness_write(sn, b"attrs", h)
        assert metasig.purpose == Purpose.METASIG
        assert datasig.purpose == Purpose.DATASIG
        assert metasig.field("sn") == sn
        assert datasig.field("data_hash") == h
        s_pub = scpu.public_keys()["s"]
        assert scpu.verify_envelope(metasig, s_pub)

    def test_weak_strength_uses_burst_key(self, scpu):
        sn = scpu.issue_serial_number()
        metasig, _ = scpu.witness_write(sn, b"a", b"h", strength=Strength.WEAK)
        assert metasig.key_fingerprint == scpu.public_keys()["burst"].fingerprint()

    def test_hmac_strength_not_rsa(self, scpu):
        sn = scpu.issue_serial_number()
        metasig, datasig = scpu.witness_write(sn, b"a", b"h",
                                              strength=Strength.HMAC)
        assert metasig.scheme == "hmac"
        assert scpu.verify_own_hmac(metasig)
        assert scpu.verify_own_hmac(datasig)

    def test_unknown_strength_rejected(self, scpu):
        with pytest.raises(ValueError):
            scpu.witness_write(1, b"a", b"h", strength="nonsense")

    def test_hash_is_the_data_tree_root(self, scpu):
        from repro.crypto.hashing import chained_hash, data_tree
        assert scpu.hash_record_data([b"a", b"b"]) \
            == data_tree([b"a", b"b"]).root
        assert scpu.hash_record_data([b"a"]) == chained_hash([b"a"])

    def test_hash_batch_returns_each_vr_tree(self, scpu):
        trees = scpu.hash_record_data_batch([[b"a", b"b", b"c"], [b"d"]])
        assert [tree.count for tree in trees] == [3, 1]
        # Record 2 of 3 is promoted at the leaves; its one sibling is the
        # first node of the level above.
        assert trees[0].path(2) == (trees[0].levels[1][:32],)

    def test_hash_cost_scales_with_size(self, scpu):
        mark = scpu.meter.checkpoint()
        scpu.hash_record_data([b"x" * 1024])
        small = scpu.meter.delta(mark)
        mark = scpu.meter.checkpoint()
        scpu.hash_record_data([b"x" * (1024 * 1024)])
        large = scpu.meter.delta(mark)
        assert large > 100 * small

    def test_verify_deferred_hash(self, scpu):
        h = scpu.hash_record_data([b"payload"])
        assert scpu.verify_deferred_hash([b"payload"], h)
        assert not scpu.verify_deferred_hash([b"different"], h)


class TestStrengthening:
    def test_weak_to_strong(self, scpu):
        sn = scpu.issue_serial_number()
        _, datasig = scpu.witness_write(sn, b"a", b"h", strength=Strength.WEAK)
        strong = scpu.strengthen(datasig)
        assert strong.key_fingerprint == scpu.public_keys()["s"].fingerprint()
        assert strong.envelope.fields == datasig.envelope.fields

    def test_hmac_to_strong(self, scpu):
        sn = scpu.issue_serial_number()
        metasig, _ = scpu.witness_write(sn, b"a", b"h", strength=Strength.HMAC)
        strong = scpu.strengthen(metasig)
        assert strong.scheme == "rsa"

    def test_tampered_construct_not_laundered(self, scpu):
        import dataclasses
        sn = scpu.issue_serial_number()
        _, datasig = scpu.witness_write(sn, b"a", b"h", strength=Strength.WEAK)
        forged_env = Envelope(purpose=Purpose.DATASIG,
                              fields={"sn": sn, "data_hash": b"forged"},
                              timestamp=datasig.timestamp)
        forged = dataclasses.replace(datasig, envelope=forged_env)
        with pytest.raises(ValueError):
            scpu.strengthen(forged)

    def test_foreign_signature_not_strengthened(self, scpu):
        mallory = SigningKey.generate(512, role="burst")
        env = Envelope(purpose=Purpose.DATASIG, fields={"sn": 1}, timestamp=0.0)
        with pytest.raises(ValueError):
            scpu.strengthen(mallory.sign_envelope(env))

    def test_rotate_burst_key(self, scpu):
        old_fp = scpu.public_keys()["burst"].fingerprint()
        ca = CertificateAuthority(bits=512)
        cert = scpu.rotate_burst_key(ca, weak_bits=512)
        assert cert is not None and cert.role == "burst"
        assert scpu.public_keys()["burst"].fingerprint() != old_fp

    def test_retired_burst_constructs_refused(self, scpu):
        sn = scpu.issue_serial_number()
        _, datasig = scpu.witness_write(sn, b"a", b"h", strength=Strength.WEAK)
        scpu.rotate_burst_key(None, weak_bits=512)
        with pytest.raises(ValueError, match="retired"):
            scpu.strengthen(datasig)


class TestWindowEvidence:
    def _expire(self, scpu, sns):
        return {sn: scpu.make_deletion_proof(sn) for sn in sns}

    def test_advance_base_with_proofs(self, scpu):
        for _ in range(4):
            scpu.issue_serial_number()
        proofs = self._expire(scpu, [1, 2, 3])
        envelope = scpu.advance_sn_base(4, proofs)
        assert scpu.sn_base == 4
        assert envelope.field("sn_base") == 4

    def test_advance_base_is_one_crossing(self, scpu):
        for _ in range(4):
            scpu.issue_serial_number()
        proofs = self._expire(scpu, [1, 2, 3])
        before = scpu.meter.crossings
        scpu.advance_sn_base(4, proofs)
        assert scpu.meter.crossings == before + 1

    def test_advance_base_missing_proof_rejected(self, scpu):
        for _ in range(4):
            scpu.issue_serial_number()
        proofs = self._expire(scpu, [1, 3])  # hole at 2
        with pytest.raises(ValueError, match="SN 2"):
            scpu.advance_sn_base(4, proofs)
        assert scpu.sn_base == 1

    def test_advance_base_forged_proof_rejected(self, scpu):
        scpu.issue_serial_number()
        scpu.issue_serial_number()
        mallory = SigningKey.generate(512, role="d")
        forged = mallory.sign_envelope(Envelope(
            purpose=Purpose.DELETION_PROOF, fields={"sn": 1}, timestamp=0.0))
        with pytest.raises(ValueError):
            scpu.advance_sn_base(2, {1: forged})

    def test_advance_base_cannot_pass_frontier(self, scpu):
        scpu.issue_serial_number()
        with pytest.raises(ValueError, match="frontier"):
            scpu.advance_sn_base(5, {})

    def test_advance_base_never_backwards(self, scpu):
        for _ in range(3):
            scpu.issue_serial_number()
        scpu.advance_sn_base(3, self._expire(scpu, [1, 2]))
        with pytest.raises(ValueError, match="only advance"):
            scpu.advance_sn_base(2, {})

    def test_advance_base_accepts_window_evidence(self, scpu):
        for _ in range(5):
            scpu.issue_serial_number()
        proofs = self._expire(scpu, [1, 2, 3, 4])
        lower, upper = scpu.compact_deletion_window(1, 4, proofs)
        envelope = scpu.advance_sn_base(5, {}, windows=[(lower, upper)])
        assert envelope.field("sn_base") == 5

    def test_compact_window_requires_three(self, scpu):
        for _ in range(2):
            scpu.issue_serial_number()
        proofs = self._expire(scpu, [1, 2])
        with pytest.raises(ValueError, match="at least 3"):
            scpu.compact_deletion_window(1, 2, proofs)

    def test_compact_window_requires_every_proof(self, scpu):
        for _ in range(4):
            scpu.issue_serial_number()
        proofs = self._expire(scpu, [1, 2])  # missing 3
        with pytest.raises(ValueError, match="SN 3"):
            scpu.compact_deletion_window(1, 3, proofs)

    def test_compact_window_bounds_share_window_id(self, scpu):
        for _ in range(3):
            scpu.issue_serial_number()
        proofs = self._expire(scpu, [1, 2, 3])
        lower, upper = scpu.compact_deletion_window(1, 3, proofs)
        assert lower.field("window_id") == upper.field("window_id")
        assert lower.purpose == Purpose.WINDOW_LOWER
        assert upper.purpose == Purpose.WINDOW_UPPER


class TestCredentials:
    def test_valid_credential_accepted(self, scpu):
        regulator = SigningKey.generate(512, role="regulator")
        cred = regulator.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": 7}, timestamp=scpu.now))
        assert scpu.verify_regulator_credential(cred, regulator.public, 7)

    def test_wrong_sn_rejected(self, scpu):
        regulator = SigningKey.generate(512, role="regulator")
        cred = regulator.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": 7}, timestamp=scpu.now))
        assert not scpu.verify_regulator_credential(cred, regulator.public, 8)

    def test_stale_credential_rejected(self, scpu):
        regulator = SigningKey.generate(512, role="regulator")
        cred = regulator.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": 7}, timestamp=scpu.now))
        scpu.clock.advance(48 * 3600.0)
        assert not scpu.verify_regulator_credential(cred, regulator.public, 7)

    def test_wrong_purpose_rejected(self, scpu):
        regulator = SigningKey.generate(512, role="regulator")
        cred = regulator.sign_envelope(Envelope(
            purpose=Purpose.METASIG, fields={"sn": 7}, timestamp=scpu.now))
        assert not scpu.verify_regulator_credential(cred, regulator.public, 7)


class TestTamperResponse:
    def test_all_services_fail_after_trip(self, scpu):
        scpu.issue_serial_number()
        scpu.tamper.trip()
        with pytest.raises(TamperedError):
            scpu.issue_serial_number()
        with pytest.raises(TamperedError):
            scpu.hash_record_data([b"x"])
        with pytest.raises(TamperedError):
            scpu.witness_write(1, b"a", b"h")
        with pytest.raises(TamperedError):
            scpu.sign_sn_current(1)
        with pytest.raises(TamperedError):
            scpu.public_keys()

    def test_keys_destroyed(self, scpu):
        scpu.tamper.trip()
        assert scpu._keys is None

    def test_signatures_issued_before_trip_still_verify(self, scpu):
        sn = scpu.issue_serial_number()
        s_pub = scpu.public_keys()["s"]
        metasig, _ = scpu.witness_write(sn, b"a", b"h")
        scpu.tamper.trip()
        # Client-side verification is independent of the (dead) card.
        assert s_pub.verify(metasig.envelope.canonical_bytes(),
                            metasig.signature, hash_name=metasig.hash_name)


class TestAttestation:
    def test_attestation_reflects_state(self, scpu):
        for _ in range(3):
            scpu.issue_serial_number()
        attestation = scpu.attest()
        assert attestation.field("sn_counter") == 3
        assert attestation.field("sn_base") == 1
        assert attestation.field("epoch_id") == 1
        s_pub = scpu.public_keys()["s"]
        assert SecureCoprocessor.verify_attestation(attestation, s_pub)

    def test_monotonicity_check(self, scpu):
        s_pub = scpu.public_keys()["s"]
        first = scpu.attest()
        scpu.issue_serial_number()
        scpu.clock.advance(10.0)
        second = scpu.attest()
        assert SecureCoprocessor.verify_attestation(second, s_pub,
                                                    previous=first)
        # Presenting them reversed exposes the rollback.
        assert not SecureCoprocessor.verify_attestation(first, s_pub,
                                                        previous=second)

    def test_forged_attestation_rejected(self, scpu):
        from repro.crypto.keys import SigningKey
        mallory = SigningKey.generate(512, role="s")
        forged = mallory.sign_envelope(scpu.attest().envelope)
        assert not SecureCoprocessor.verify_attestation(
            forged, scpu.public_keys()["s"])

    def test_dead_card_cannot_attest(self, scpu):
        scpu.tamper.trip()
        with pytest.raises(TamperedError):
            scpu.attest()


class TestFreshnessConstructs:
    def test_sn_current_carries_timestamp(self, scpu):
        scpu.clock.advance(500.0)
        scpu.issue_serial_number()
        envelope = scpu.sign_sn_current(scpu.current_serial_number)
        assert envelope.timestamp == pytest.approx(500.0)
        assert envelope.field("sn_current") == 1

    def test_sn_base_carries_expiry(self, scpu):
        envelope = scpu.sign_sn_base(validity_seconds=100.0)
        assert int(envelope.field("expires_at_us")) == pytest.approx(
            (scpu.now + 100.0) * 1e6)
