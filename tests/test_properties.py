"""System-level property tests: stateful simulation and fault injection.

Two heavy-duty properties of the whole system:

* **Lifecycle invariants** (stateful machine): under any interleaving of
  writes (all strengths), clock advances, maintenance slices, litigation
  holds/releases and reads, the store never loses accountability — every
  SN ever issued verifies as exactly one of active / deleted /
  never-allocated, retention is never violated, and strengthening never
  misses a lifetime when maintenance runs on schedule.
* **No silent corruption** (fault injection): flip any byte anywhere in
  the untrusted state; a subsequent full audit either still passes
  (corruption hit redundant/expired state) or flags a violation — but a
  verified read NEVER returns wrong data.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import StrongWormStore, demo_keyring
from repro.core.audit import StoreAuditor
from repro.core.errors import VerificationError, WormError
from repro.crypto.envelope import Envelope, Purpose
from repro.crypto.keys import CertificateAuthority, SigningKey
from repro.hardware.scpu import SecureCoprocessor, Strength

_SHARED: dict = {}


def _shared_fixtures():
    """Session-cached CA/regulator so hypothesis examples start fast."""
    if not _SHARED:
        _SHARED["ca"] = CertificateAuthority(bits=512)
        _SHARED["regulator"] = SigningKey.generate(512, role="regulator")
        _SHARED["keyring"] = demo_keyring()
    return _SHARED


class WormLifecycle(RuleBasedStateMachine):
    """Random walks through the store's public operation space."""

    def __init__(self):
        super().__init__()
        shared = _shared_fixtures()
        keyring = dataclasses.replace(shared["keyring"])
        self.store = StrongWormStore(
            scpu=SecureCoprocessor(keyring=keyring),
            regulator_public_key=shared["regulator"].public)
        self.client = self.store.make_client(shared["ca"],
                                             accept_unverifiable=True)
        self.regulator = shared["regulator"]
        self.payloads: dict = {}     # sn -> payload (never forgotten)
        self.expiries: dict = {}     # sn -> original expires_at
        self.held: set = set()

    @rule(size=st.integers(min_value=0, max_value=512),
          retention=st.floats(min_value=30.0, max_value=5000.0),
          strength=st.sampled_from([Strength.STRONG, Strength.WEAK,
                                    Strength.HMAC]),
          defer=st.booleans())
    def write(self, size, retention, strength, defer):
        payload = bytes([self.store.scpu.current_serial_number % 251]) * size
        receipt = self.store.write([payload], retention_seconds=retention,
                                   strength=strength, defer_data_hash=defer)
        self.payloads[receipt.sn] = payload
        self.expiries[receipt.sn] = receipt.vrd.attr.expires_at

    @rule(delta=st.floats(min_value=1.0, max_value=600.0))
    def advance_clock(self, delta):
        # Bounded steps keep weak constructs inside their lifetime as
        # long as maintenance runs — which the maintain rule and the
        # invariant below exercise.
        self.store.scpu.clock.advance(delta)
        self.store.maintenance(compact=True)

    @rule()
    def maintain(self):
        self.store.maintenance()

    @precondition(lambda self: any(
        sn for sn in self.store.vrdt.active_sns if sn not in self.held))
    @rule(data=st.data())
    def place_hold(self, data):
        candidates = [sn for sn in self.store.vrdt.active_sns
                      if sn not in self.held]
        sn = data.draw(st.sampled_from(candidates))
        credential = self.regulator.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": sn}, timestamp=self.store.now))
        self.store.lit_hold(sn, credential,
                            hold_timeout=self.store.now + 2000.0)
        self.held.add(sn)

    @precondition(lambda self: any(
        sn in self.store.vrdt.active_sns for sn in self.held))
    @rule(data=st.data())
    def release_hold(self, data):
        candidates = [sn for sn in self.held
                      if self.store.vrdt.is_active(sn)]
        sn = data.draw(st.sampled_from(candidates))
        credential = self.regulator.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": sn}, timestamp=self.store.now))
        self.store.lit_release(sn, credential)
        self.held.discard(sn)

    @invariant()
    def every_sn_accounted_for(self):
        self.store.auth.windows.refresh_current(force=True)
        for sn in range(1, self.store.scpu.current_serial_number + 1):
            verified = self.client.verify_read(self.store.read(sn), sn)
            assert verified.status in ("active", "deleted")
            if verified.status == "active" and sn in self.payloads:
                assert verified.data == self.payloads[sn]

    @invariant()
    def no_premature_deletions(self):
        for sn, original_expiry in self.expiries.items():
            if self.store.vrdt.get_deletion_proof(sn) is not None:
                # Deleted: its retention must genuinely have passed, and
                # it must not be under an active hold.
                assert self.store.now >= original_expiry

    @invariant()
    def holds_always_block(self):
        for sn in self.held:
            vrd = self.store.vrdt.get_active(sn)
            if vrd is not None and self.store.now < vrd.attr.litigation_timeout:
                continue
            # A held record may only be gone if its hold timed out.
            if vrd is None:
                proof = self.store.vrdt.get_deletion_proof(sn)
                window = self.store.vrdt.window_covering(sn)
                below = sn < self.store.scpu.sn_base
                assert proof is not None or window is not None or below

    @invariant()
    def no_lifetime_violations(self):
        assert self.store.strengthening.lifetime_violations == 0

    @invariant()
    def no_hash_mismatches(self):
        assert self.store.hash_verification.mismatches == []


WormLifecycle.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestWormLifecycle = WormLifecycle.TestCase


class TestFaultInjection:
    """Flip untrusted bytes; demand detection or harmlessness, never lies."""

    def _populated(self):
        shared = _shared_fixtures()
        store = StrongWormStore(
            scpu=SecureCoprocessor(keyring=dataclasses.replace(
                shared["keyring"])))
        client = store.make_client(shared["ca"])
        payloads = {}
        for i in range(6):
            payload = f"record number {i}".encode() * 4
            receipt = store.write([payload], retention_seconds=1e9)
            payloads[receipt.sn] = payload
        store.auth.windows.refresh_current(force=True)
        return store, client, payloads

    @pytest.mark.parametrize("flip_byte", [0, 7, 31, -1])
    def test_block_corruption_never_silent(self, flip_byte):
        store, client, payloads = self._populated()
        for key in list(store.blocks.keys()):
            original = store.blocks.get(key)
            corrupted = bytearray(original)
            corrupted[flip_byte] ^= 0x40
            store.blocks.unchecked_overwrite(key, bytes(corrupted))
            break
        outcomes = []
        for sn, expected in payloads.items():
            try:
                verified = client.verify_read(store.read(sn), sn)
                # If it verified, the data MUST be the original bytes.
                assert verified.data == expected
                outcomes.append("clean")
            except VerificationError:
                outcomes.append("detected")
        assert "detected" in outcomes

    def test_every_single_block_corruption_detected_by_audit(self):
        store, client, payloads = self._populated()
        for key in list(store.blocks.keys()):
            original = store.blocks.get(key)
            if not original:
                continue
            corrupted = bytearray(original)
            corrupted[len(corrupted) // 2] ^= 0x01
            store.blocks.unchecked_overwrite(key, bytes(corrupted))
            report = StoreAuditor(store, client).sweep()
            assert not report.clean
            store.blocks.unchecked_overwrite(key, original)  # heal
        # Healed store audits clean again.
        assert StoreAuditor(store, client).sweep().clean

    def test_signature_bitflips_always_detected(self):
        store, client, payloads = self._populated()
        sn = next(iter(payloads))
        vrd = store.vrdt.get_active(sn)
        flipped = bytearray(vrd.datasig.signature)
        flipped[5] ^= 0x10
        forged = dataclasses.replace(vrd, datasig=dataclasses.replace(
            vrd.datasig, signature=bytes(flipped)))
        store.vrdt.replace_active(forged)
        with pytest.raises(VerificationError):
            client.verify_read(store.read(sn), sn)

    def test_artifact_swap_detected(self):
        """Swap the stored sn_current and sn_base artifacts for each other."""
        store, client, payloads = self._populated()
        store.vrdt.sn_current_envelope, store.vrdt.sn_base_envelope = (
            store.vrdt.sn_base_envelope, store.vrdt.sn_current_envelope)
        with pytest.raises(VerificationError):
            client.verify_read(store.read(999), 999)
