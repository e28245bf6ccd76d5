"""The insider attack suite — Mallory with superuser and physical access.

§2.1's threat model: Alice legitimately stores a record, later regrets it,
and as "Mallory" — with superuser powers and direct physical access to the
storage hardware — does everything she can to alter it, remove it, or deny
its existence *undetectably*.  She can rewrite any byte of untrusted state
(block store, VRDT, stored signed artifacts) and fabricate arbitrary
responses to clients; she cannot open the SCPU (tamper response destroys
it) and cannot forge its signatures.

Every attack below follows the same shape:

1. set up a store with a *target* record (what Mallory regrets),
2. perform the insider mutation / fabricate the malicious response,
3. play investigator Bob: read and verify through a
   :class:`~repro.core.client.WormClient`,
4. report whether the client **detected** the attack.

``expected_detected`` encodes the paper's claims: every Theorem 1/2 attack
must be detected, with one deliberate exception —
:func:`hide_within_freshness_window` — whose success is the *designed*,
bounded exposure of freshness mechanism (ii) in §4.2.1 (a record can be
denied for at most one freshness window after its write).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.auth import (
    AccumulatorFrontierProof,
    MerkleFrontierProof,
    MerkleMembershipProof,
    _merkle_leaf,
)
from repro.core.client import WormClient
from repro.core.errors import FreshnessError, TamperedError, VerificationError
from repro.core.locator import RecordLocator
from repro.core.proofs import (
    BaseBoundProof,
    DeletionProofResponse,
    DeletionWindowProof,
    NeverAllocatedProof,
    ReadResult,
)
from repro.core.worm import StrongWormStore
from repro.crypto.envelope import Envelope, Purpose
from repro.crypto.hashing import data_tree
from repro.crypto.keys import SigningKey
from repro.hardware.scpu import Strength

__all__ = ["AttackOutcome", "AttackEnvironment", "ATTACKS", "run_attack"]


@dataclass
class AttackOutcome:
    """Result of one attack run."""

    name: str
    theorem: int
    detected: bool
    expected_detected: bool
    detail: str

    @property
    def as_expected(self) -> bool:
        return self.detected == self.expected_detected


@dataclass
class AttackEnvironment:
    """Everything an attack needs: the store, a verifying client, the clock."""

    store: StrongWormStore
    client: WormClient

    @property
    def clock(self):
        return self.store.scpu.clock

    def verify(self, result: ReadResult,
               requested: Union[int, RecordLocator]) -> Optional[str]:
        """Run Bob's verification; returns the failure reason, or None."""
        try:
            self.client.verify_read(result, requested)
            return None
        except (VerificationError, FreshnessError) as exc:
            return f"{type(exc).__name__}: {exc}"


def _outcome(name: str, theorem: int, failure: Optional[str],
             expected_detected: bool = True) -> AttackOutcome:
    return AttackOutcome(
        name=name,
        theorem=theorem,
        detected=failure is not None,
        expected_detected=expected_detected,
        detail=failure or "attack went undetected",
    )


# ---------------------------------------------------------------------------
# Theorem 1: committed records cannot be altered or removed undetected.
# ---------------------------------------------------------------------------

def tamper_record_payload(env: AttackEnvironment) -> AttackOutcome:
    """Rewrite a committed record's bytes directly on the medium."""
    receipt = env.store.write([b"incriminating wire transfer: $4,000,000"],
                              policy="sox")
    rd = receipt.vrd.rdl[0]
    env.store.blocks.unchecked_overwrite(
        rd.key, b"routine wire transfer:       $4,000.00")
    failure = env.verify(env.store.read(receipt.sn), receipt.sn)
    return _outcome("tamper-record-payload", 1, failure)


def tamper_attributes(env: AttackEnvironment) -> AttackOutcome:
    """Shorten a record's retention period in the VRDT (keep old sigs)."""
    receipt = env.store.write([b"audit trail"], policy="sox")
    vrd = env.store.vrdt.get_active(receipt.sn)
    hacked_attr = dataclasses.replace(vrd.attr, retention_seconds=1.0)
    hacked = dataclasses.replace(vrd, attr=hacked_attr)
    env.store.vrdt.replace_active(hacked)
    failure = env.verify(env.store.read(receipt.sn), receipt.sn)
    return _outcome("tamper-attributes", 1, failure)


def resign_with_forged_key(env: AttackEnvironment) -> AttackOutcome:
    """Replace record and re-sign everything with Mallory's own key.

    Mallory can generate keys and produce internally consistent
    signatures — but her key has no CA certificate binding it to this
    store's SCPU, so clients reject it.
    """
    receipt = env.store.write([b"original ledger page"], policy="sec17a-4")
    vrd = env.store.vrdt.get_active(receipt.sn)
    forged_data = b"doctored ledger page"
    rd = vrd.rdl[0]
    env.store.blocks.unchecked_overwrite(rd.key, forged_data)

    mallory = SigningKey.generate(512, role="s")
    forged_hash = data_tree([forged_data]).root
    metasig = mallory.sign_envelope(Envelope(
        purpose=Purpose.METASIG,
        fields={"sn": vrd.sn, "attr": vrd.attr.canonical_bytes()},
        timestamp=env.store.now))
    datasig = mallory.sign_envelope(Envelope(
        purpose=Purpose.DATASIG,
        fields={"sn": vrd.sn, "data_hash": forged_hash},
        timestamp=env.store.now))
    forged_rdl = (dataclasses.replace(rd, length=len(forged_data)),)
    forged = dataclasses.replace(vrd, rdl=forged_rdl, metasig=metasig,
                                 datasig=datasig, data_hash=forged_hash)
    env.store.vrdt.replace_active(forged)
    failure = env.verify(env.store.read(receipt.sn), receipt.sn)
    return _outcome("resign-with-forged-key", 1, failure)


def truncate_record_list(env: AttackEnvironment) -> AttackOutcome:
    """Drop one record from a multi-record VR (partial destruction)."""
    receipt = env.store.write([b"email body", b"attachment: smoking gun.pdf"],
                              policy="sec17a-4")
    vrd = env.store.vrdt.get_active(receipt.sn)
    truncated = dataclasses.replace(vrd, rdl=vrd.rdl[:1])
    env.store.vrdt.replace_active(truncated)
    failure = env.verify(env.store.read(receipt.sn), receipt.sn)
    return _outcome("truncate-record-list", 1, failure)


def fake_deletion_proof(env: AttackEnvironment) -> AttackOutcome:
    """Remove an active record and present a self-made 'deletion proof'."""
    receipt = env.store.write([b"whistleblower complaint"], policy="hipaa")
    mallory = SigningKey.generate(512, role="d")
    fake = mallory.sign_envelope(Envelope(
        purpose=Purpose.DELETION_PROOF,
        fields={"sn": receipt.sn},
        timestamp=env.store.now))
    malicious = ReadResult(sn=receipt.sn, status="deleted",
                           proof=DeletionProofResponse(proof=fake))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("fake-deletion-proof", 1, failure)


def reuse_deletion_proof(env: AttackEnvironment) -> AttackOutcome:
    """Serve a *legitimate* deletion proof — for the wrong record."""
    doomed = env.store.write([b"ephemeral note"], retention_seconds=1.0)
    target = env.store.write([b"long-lived contract"], policy="sox")
    env.clock.advance(5.0)
    env.store.maintenance(compact=False)
    real_proof = env.store.vrdt.get_deletion_proof(doomed.sn)
    assert real_proof is not None
    malicious = ReadResult(sn=target.sn, status="deleted",
                           proof=DeletionProofResponse(proof=real_proof))
    failure = env.verify(malicious, target.sn)
    return _outcome("reuse-deletion-proof", 1, failure)


def swap_record_payloads(env: AttackEnvironment) -> AttackOutcome:
    """Swap the payloads of two committed records of identical length."""
    a = env.store.write([b"ACCOUNT A: balance 9,000,000"], policy="sox")
    b = env.store.write([b"ACCOUNT B: balance 0,000,001"], policy="sox")
    key_a = a.vrd.rdl[0].key
    key_b = b.vrd.rdl[0].key
    data_a = env.store.blocks.get(key_a)
    data_b = env.store.blocks.get(key_b)
    env.store.blocks.unchecked_overwrite(key_a, data_b)
    env.store.blocks.unchecked_overwrite(key_b, data_a)
    failure = env.verify(env.store.read(a.sn), a.sn)
    return _outcome("swap-record-payloads", 1, failure)


def splice_envelope_purposes(env: AttackEnvironment) -> AttackOutcome:
    """Present a legitimate S_s(SN_current) as a 'deletion proof'.

    Cross-protocol splicing: both constructs are genuine SCPU signatures,
    but the envelope purpose tags make them non-interchangeable.
    """
    receipt = env.store.write([b"meeting minutes"], policy="sox")
    sn_current_env = env.store.vrdt.sn_current_envelope
    assert sn_current_env is not None
    malicious = ReadResult(sn=receipt.sn, status="deleted",
                           proof=DeletionProofResponse(proof=sn_current_env))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("splice-envelope-purposes", 1, failure)


# ---------------------------------------------------------------------------
# Theorem 2: insiders cannot hide active records.
# ---------------------------------------------------------------------------

def hide_with_stale_sn_current(env: AttackEnvironment) -> AttackOutcome:
    """Claim 'never stored' using a pre-write S_s(SN_current) replay.

    Mallory keeps the old signed upper bound from before the regretted
    write and serves it to deny the record exists.  Once the client's
    freshness window has passed, the stale timestamp gives her away.
    """
    stale_envelope = env.store.vrdt.sn_current_envelope
    assert stale_envelope is not None
    receipt = env.store.write([b"the record Mallory regrets"], policy="sox")
    env.clock.advance(env.client.freshness_window + 60.0)
    malicious = ReadResult(sn=receipt.sn, status="never-allocated",
                           proof=NeverAllocatedProof(sn_current=stale_envelope))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("hide-with-stale-sn-current", 2, failure)


def hide_within_freshness_window(env: AttackEnvironment) -> AttackOutcome:
    """The *designed* exposure: replaying a bound newer than the window.

    Inside the freshness window a stale bound is indistinguishable from
    an idle store, so this attack succeeds — for at most
    ``freshness_window`` seconds after the write, after which it becomes
    :func:`hide_with_stale_sn_current`.  The paper accepts this bounded
    exposure in exchange for SCPU-free reads (§4.2.1 mechanism (ii)).
    """
    stale_envelope = env.store.vrdt.sn_current_envelope
    assert stale_envelope is not None
    receipt = env.store.write([b"very recent record"], policy="sox")
    env.clock.advance(min(30.0, env.client.freshness_window / 2))
    malicious = ReadResult(sn=receipt.sn, status="never-allocated",
                           proof=NeverAllocatedProof(sn_current=stale_envelope))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("hide-within-freshness-window", 2, failure,
                    expected_detected=False)


def hide_with_fresh_bound(env: AttackEnvironment) -> AttackOutcome:
    """Drop the VRDT entry and claim 'never stored' with a *fresh* bound.

    The monotonic consecutive SNs defeat this: once the SCPU's periodic
    refresh has run (at most one refresh interval after the write), the
    fresh signed SN_current is at or above the hidden record's SN, so
    'never allocated' is checkably false.  Combined with
    :func:`hide_with_stale_sn_current` (replaying the pre-refresh bound
    ages out of the freshness window), the total deniability horizon is
    bounded by refresh_interval + freshness_window.
    """
    receipt = env.store.write([b"subpoenaed email"], policy="sec17a-4")
    env.clock.advance(env.store.config.window_refresh_interval + 1.0)
    env.store.maintenance()  # the SCPU's periodic refresh fires
    fresh = env.store.vrdt.sn_current_envelope
    assert fresh is not None
    malicious = ReadResult(sn=receipt.sn, status="never-allocated",
                           proof=NeverAllocatedProof(sn_current=fresh))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("hide-with-fresh-bound", 2, failure)


def hide_with_expired_base(env: AttackEnvironment) -> AttackOutcome:
    """Claim 'below base' with an expired S_s(SN_base) from the past."""
    expired_base = env.store.scpu.sign_sn_base(validity_seconds=10.0)
    receipt = env.store.write([b"live record"], policy="sox")
    env.clock.advance(60.0)  # base signature expires
    malicious = ReadResult(sn=receipt.sn, status="deleted",
                           proof=BaseBoundProof(sn_base=expired_base))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("hide-with-expired-base", 2, failure)


def hide_with_wrong_base(env: AttackEnvironment) -> AttackOutcome:
    """Claim 'below base' for an SN that is not below the signed base."""
    receipt = env.store.write([b"active record"], policy="sox")
    env.store.maintenance()
    base_env = env.store.vrdt.sn_base_envelope
    assert base_env is not None
    malicious = ReadResult(sn=receipt.sn, status="deleted",
                           proof=BaseBoundProof(sn_base=base_env))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("hide-with-wrong-base", 2, failure)


def _expire_run(env: AttackEnvironment, count: int, retention: float = 1.0):
    """Write *count* short-lived records and expire them into a window."""
    receipts = [env.store.write([f"tmp-{i}".encode()],
                                retention_seconds=retention)
                for i in range(count)]
    env.clock.advance(retention + 5.0)
    env.store.maintenance()
    return receipts


def splice_deletion_windows(env: AttackEnvironment) -> AttackOutcome:
    """Combine bounds of two unrelated windows to 'cover' an active SN.

    Windows (a..b) and (c..d) exist legitimately; Mallory presents
    lower(a) with upper(d) to claim everything between — including the
    active target — was deleted.  The per-window random window_id
    correlation (§4.2.1) exposes the splice.
    """
    env.store.write([b"anchor record pinning SN_base"], policy="ferpa")
    _expire_run(env, 3)                       # window 1
    target = env.store.write([b"the active record in between"], policy="sox")
    _expire_run(env, 3)                       # window 2
    windows = env.store.vrdt.deletion_windows
    assert len(windows) >= 2, "setup failed to create two windows"
    spliced = DeletionWindowProof(lower=windows[0].lower,
                                  upper=windows[-1].upper)
    malicious = ReadResult(sn=target.sn, status="deleted", proof=spliced)
    failure = env.verify(malicious, target.sn)
    return _outcome("splice-deletion-windows", 2, failure)


def wrong_window_for_sn(env: AttackEnvironment) -> AttackOutcome:
    """Serve a valid deletion window that simply does not contain the SN."""
    env.store.write([b"anchor record pinning SN_base"], policy="ferpa")
    _expire_run(env, 3)
    target = env.store.write([b"post-window record"], policy="sox")
    window = env.store.vrdt.deletion_windows[0]
    malicious = ReadResult(
        sn=target.sn, status="deleted",
        proof=DeletionWindowProof(lower=window.lower, upper=window.upper))
    failure = env.verify(malicious, target.sn)
    return _outcome("wrong-window-for-sn", 2, failure)


def weak_signature_lapse(env: AttackEnvironment) -> AttackOutcome:
    """Serve a burst-signed record after its security lifetime lapsed.

    §4.3 assumes 512-bit signatures resist Mallory for only tens of
    minutes.  A record still weakly signed *after* that horizon could
    carry a forged signature — so clients must refuse it outright, which
    is what makes timely strengthening a safety property.
    """
    receipt = env.store.write([b"burst-period record"],
                              policy="sox", strength=Strength.WEAK)
    lifetime = 60 * 60.0  # 512-bit security lifetime (§4.3)
    env.clock.advance(lifetime + 120.0)
    # Mallory suppressed the strengthening pass; the record still has
    # its (now past-lifetime) weak signatures.
    failure = env.verify(env.store.read(receipt.sn), receipt.sn)
    return _outcome("weak-signature-lapse", 2, failure)


def downgrade_to_weak_signature(env: AttackEnvironment) -> AttackOutcome:
    """Serve the pre-strengthening weak VRD after its lifetime lapsed.

    Mallory archives the weak-signed VRD during the burst; after the
    idle-period strengthening she swaps it back in and waits out the
    512-bit lifetime (when she could plausibly have forged it).  Clients
    must reject the downgraded record even though its signatures are
    genuine — the *timestamped lifetime* is what expires.
    """
    receipt = env.store.write([b"burst-then-strengthened"],
                              policy="sox", strength=Strength.WEAK)
    weak_vrd = env.store.vrdt.get_active(receipt.sn)
    env.store.maintenance()  # honest strengthening happens
    env.clock.advance(2 * 60 * 60.0)  # well past the 512-bit lifetime
    env.store.maintenance()
    env.store.vrdt.replace_active(weak_vrd)  # the downgrade swap
    failure = env.verify(env.store.read(receipt.sn), receipt.sn)
    return _outcome("downgrade-to-weak-signature", 1, failure)


def destroy_window_artifacts(env: AttackEnvironment) -> AttackOutcome:
    """Wipe the signed window bounds and fabricate an unproven denial.

    With the artifacts destroyed the main CPU cannot produce *any* valid
    proof for a 'never stored' claim; the fabricated bare response fails
    verification — destruction is loud, not silent (the availability
    corner of the threat model).
    """
    receipt = env.store.write([b"the record"], policy="sox")
    env.store.vrdt.sn_current_envelope = None
    env.store.vrdt.sn_base_envelope = None
    malicious = ReadResult(sn=receipt.sn, status="never-allocated",
                           proof=NeverAllocatedProof(sn_current=None))
    try:
        env.client.verify_read(malicious, receipt.sn)
        failure = None
    except TamperedError:
        # Client-side verification never talks to an SCPU; a tamper trip
        # here means the harness itself is wired wrong — escalate.
        raise
    except Exception as exc:  # any failure counts as detection here
        failure = f"{type(exc).__name__}: {exc}"
    return _outcome("destroy-window-artifacts", 2, failure)


# ---------------------------------------------------------------------------
# Scheme-specific attacks: the Merkle and accumulator backends must uphold
# the same theorems.  Each attack rebuilds its world on the backend it
# targets (the provided environment only supplies the client's freshness
# window); detection must come from the scheme's own verification path.
# ---------------------------------------------------------------------------

def _rebuild_on_scheme(env: AttackEnvironment,
                       auth_scheme: str) -> AttackEnvironment:
    """A fresh world running a non-default authentication backend."""
    from repro.adversary.games import fresh_environment  # local: games imports us
    return fresh_environment(freshness_window=env.client.freshness_window,
                             auth_scheme=auth_scheme)


def forge_merkle_root(env: AttackEnvironment) -> AttackOutcome:
    """Doctor a record and re-root the Merkle tree under Mallory's key.

    Mallory rewrites the payload on the medium, rebuilds a tree whose
    leaf binds the doctored bytes, and signs the new root herself.  The
    proof is internally consistent — leaf, path, and root all match —
    but her key carries no CA certificate binding it to this store's
    SCPU, so the signed root is rejected before the leaf is even
    inspected.
    """
    env = _rebuild_on_scheme(env, "merkle")
    receipt = env.store.write([b"original ledger page"], policy="sec17a-4")
    forged_data = b"doctored ledger page"
    env.store.blocks.unchecked_overwrite(receipt.vrd.rdl[0].key, forged_data)

    from repro.crypto.merkle import MerkleTree
    vrd = env.store.vrdt.get_active(receipt.sn)
    leaf = _merkle_leaf(receipt.sn, vrd.attr.canonical_bytes(),
                        data_tree([forged_data]).root)
    tree = MerkleTree()
    index = tree.append(leaf)
    mallory = SigningKey.generate(512, role="s")
    signed_root = mallory.sign_envelope(Envelope(
        purpose=Purpose.MERKLE_ROOT,
        fields={"root": tree.root(), "sn_frontier": receipt.sn},
        timestamp=env.store.now))
    forged_proof = MerkleMembershipProof(signed_root=signed_root, leaf=leaf,
                                         path=tree.prove(index))
    malicious = dataclasses.replace(env.store.read(receipt.sn),
                                    proof=forged_proof)
    failure = env.verify(malicious, receipt.sn)
    return _outcome("forge-merkle-root", 1, failure)


def merkle_wrong_leaf_path(env: AttackEnvironment) -> AttackOutcome:
    """Serve one record's Merkle membership proof for another record.

    Both leaf and path are genuine — for the decoy.  The client rebuilds
    the expected leaf from the requested SN and the returned bytes, so
    the transplanted proof cannot authenticate the target.
    """
    env = _rebuild_on_scheme(env, "merkle")
    decoy = env.store.write([b"innocuous memo"], policy="sox")
    target = env.store.write([b"the regretted record"], policy="sox")
    decoy_result = env.store.read(decoy.sn)
    malicious = dataclasses.replace(env.store.read(target.sn),
                                    proof=decoy_result.proof)
    failure = env.verify(malicious, target.sn)
    return _outcome("merkle-wrong-leaf-path", 1, failure)


def accumulator_spliced_witness(env: AttackEnvironment) -> AttackOutcome:
    """Serve a genuine accumulator witness — minted for a different SN.

    The client never trusts a server-supplied prime: it recomputes the
    representative from the requested SN, so the decoy's witness fails
    ``w^p = value`` for the target.
    """
    env = _rebuild_on_scheme(env, "accumulator")
    decoy = env.store.write([b"innocuous memo"], policy="sox")
    target = env.store.write([b"the regretted record"], policy="sox")
    decoy_result = env.store.read(decoy.sn)
    target_result = env.store.read(target.sn)
    spliced = dataclasses.replace(target_result.proof,
                                  witness=decoy_result.proof.witness)
    malicious = dataclasses.replace(target_result, proof=spliced)
    failure = env.verify(malicious, target.sn)
    return _outcome("accumulator-spliced-witness", 1, failure)


def accumulator_resurrect_expired(env: AttackEnvironment) -> AttackOutcome:
    """Replay a pre-expiry witness to serve a deleted record as active.

    Mallory archives the record's read (VRD, payload, witness) before it
    expires.  The SCPU's removal changed the accumulated value, so the
    archived witness no longer satisfies ``w^p = value`` against the
    current signed statement — and the archived statement itself ages
    out of the freshness window.
    """
    env = _rebuild_on_scheme(env, "accumulator")
    doomed = env.store.write([b"soon-to-expire record"], retention_seconds=1.0)
    env.store.write([b"long-lived anchor"], policy="sox")
    archived = env.store.read(doomed.sn)
    env.clock.advance(10.0)
    env.store.maintenance()  # expiry removes the SN from the accumulator
    fresh_statement = env.store.auth.signed_value
    assert fresh_statement is not None
    resurrected = dataclasses.replace(archived.proof,
                                      signed_value=fresh_statement)
    malicious = dataclasses.replace(archived, proof=resurrected)
    failure = env.verify(malicious, doomed.sn)
    return _outcome("accumulator-resurrect-expired", 1, failure)


def merkle_stale_root_hiding(env: AttackEnvironment) -> AttackOutcome:
    """Deny a record with a signed Merkle root from before its write.

    The pre-write root's frontier is genuinely below the target SN, so
    the denial is internally consistent — but the root's timestamp ages
    out of the freshness window, exactly like a stale S_s(SN_current).
    """
    env = _rebuild_on_scheme(env, "merkle")
    stale_root = env.store.auth.signed_root
    assert stale_root is not None
    receipt = env.store.write([b"the record Mallory regrets"], policy="sox")
    env.clock.advance(env.client.freshness_window + 60.0)
    malicious = ReadResult(sn=receipt.sn, status="never-allocated",
                           proof=MerkleFrontierProof(signed_root=stale_root))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("merkle-stale-root-hiding", 2, failure)


def accumulator_stale_value_hiding(env: AttackEnvironment) -> AttackOutcome:
    """Deny a record with a signed accumulator value from before its write."""
    env = _rebuild_on_scheme(env, "accumulator")
    stale_value = env.store.auth.signed_value
    assert stale_value is not None
    receipt = env.store.write([b"the record Mallory regrets"], policy="sox")
    env.clock.advance(env.client.freshness_window + 60.0)
    malicious = ReadResult(
        sn=receipt.sn, status="never-allocated",
        proof=AccumulatorFrontierProof(signed_value=stale_value))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("accumulator-stale-value-hiding", 2, failure)


def accumulator_frontier_hiding(env: AttackEnvironment) -> AttackOutcome:
    """Deny a committed record with a perfectly *fresh* signed value.

    The statement's SN frontier is at or above the target, so the
    'never allocated' claim is checkably false — the monotone frontier
    plays the role S_s(SN_current) plays for windows.
    """
    env = _rebuild_on_scheme(env, "accumulator")
    receipt = env.store.write([b"subpoenaed email"], policy="sec17a-4")
    fresh_statement = env.store.auth.signed_value
    assert fresh_statement is not None
    malicious = ReadResult(
        sn=receipt.sn, status="never-allocated",
        proof=AccumulatorFrontierProof(signed_value=fresh_statement))
    failure = env.verify(malicious, receipt.sn)
    return _outcome("accumulator-frontier-hiding", 2, failure)


# ---------------------------------------------------------------------------
# Record-granular reads (A26-A30): one record of a group-committed VR is
# served with its sibling path to the data root datasig signs.  Mallory
# controls the payload, the path, the claimed index and count, and the
# RDL; every scheme's client must reject each forgery, because the sides
# come from the index Bob asked for, the count is sealed in the root, and
# a read by SN alone asks for the whole VR.
# ---------------------------------------------------------------------------

#: A five-record VR: odd, so one path runs through a promoted node.
_GROUP = tuple(b"ledger line %d" % i for i in range(5))

_Forgery = Tuple[Union[int, RecordLocator], ReadResult]


def _granular_attack(env: AttackEnvironment, name: str,
                     forge: Callable[[AttackEnvironment, object],
                                     Sequence[_Forgery]]) -> AttackOutcome:
    """Run *forge* on a fresh world per authentication scheme.

    *forge* gets the world and the receipt of its group-committed VR and
    returns the forged responses, each with what Bob asked for: a
    locator, or a bare SN.  The attack counts as detected only if every
    forgery fails under every scheme.
    """
    reasons: List[str] = []
    missed: List[str] = []
    for scheme in ("windows", "merkle", "accumulator"):  # wormlint: disable=W009 - one fresh store per scheme: nothing to batch across worlds
        world = _rebuild_on_scheme(env, scheme)
        receipt = world.store.write(list(_GROUP), policy="sox")
        for requested, forged in forge(world, receipt):
            failure = world.verify(forged, requested)
            if failure is None:
                missed.append(
                    f"{scheme} index {requested.record_index}"
                    if isinstance(requested, RecordLocator)
                    else f"{scheme} SN {requested}")
            else:
                reasons.append(f"{scheme}: {failure}")
    if missed:
        return AttackOutcome(name=name, theorem=1, detected=False,
                             expected_detected=True,
                             detail=f"undetected under {', '.join(missed)}")
    return _outcome(name, 1, "; ".join(reasons))


def _locator(receipt, index: int) -> RecordLocator:
    return RecordLocator(shard_id=0, sn=receipt.sn, record_index=index)


def granular_path_wrong_index(env: AttackEnvironment) -> AttackOutcome:
    """A26: serve a genuine record and path for a different index.

    Bob asks for record 1; Mallory serves record 3 with its own genuine
    path and claims index 1.  The sides of every sibling follow from the
    index Bob asked for, so record 3's path folds to another root.
    """
    def claiming(genuine: ReadResult, index: int) -> ReadResult:
        return dataclasses.replace(genuine, record_path=dataclasses.replace(
            genuine.record_path, index=index))

    def forge(world, receipt):
        third = world.store.read(_locator(receipt, 3))
        first = world.store.read(_locator(receipt, 0))
        return [(_locator(receipt, asked), claiming(served, asked))
                for asked, served in ((1, third), (4, first), (2, third))]
    return _granular_attack(env, "granular-path-wrong-index", forge)


def granular_forged_leaf_count(env: AttackEnvironment) -> AttackOutcome:
    """A27: claim one record more or fewer than the VR holds.

    Mallory inflates the count (padding the RDL to match) or truncates
    it (cutting the RDL and the path's top sibling).  The count is
    sealed into the signed root, so neither claim reaches it.
    """
    def forge(world, receipt):
        locator = _locator(receipt, 2)
        genuine = world.store.read(locator)
        vrd, path = genuine.vrd, genuine.record_path
        inflated = dataclasses.replace(
            genuine, vrd=dataclasses.replace(vrd, rdl=vrd.rdl + vrd.rdl[-1:]),
            record_path=dataclasses.replace(path, count=path.count + 1))
        truncated = dataclasses.replace(
            genuine, vrd=dataclasses.replace(vrd, rdl=vrd.rdl[:-1]),
            record_path=dataclasses.replace(path, count=path.count - 1,
                                            siblings=path.siblings[:-1]))
        return [(locator, inflated), (locator, truncated)]
    return _granular_attack(env, "granular-forged-leaf-count", forge)


def granular_swapped_sibling(env: AttackEnvironment) -> AttackOutcome:
    """A28: rearrange a genuine path — swap siblings, or swap one in.

    Mallory reorders record 0's siblings, and separately replaces its
    first sibling with a genuine node from elsewhere in the same tree
    (record 2's).  Every node is real; the arrangement is not.
    """
    def forge(world, receipt):
        locator = _locator(receipt, 0)
        genuine = world.store.read(locator)
        siblings = genuine.record_path.siblings
        other = world.store.read(_locator(receipt, 2)).record_path.siblings
        swapped = (siblings[1], siblings[0]) + siblings[2:]
        foreign = (other[0],) + siblings[1:]
        return [(locator, dataclasses.replace(
                    genuine, record_path=dataclasses.replace(
                        genuine.record_path, siblings=nodes)))
                for nodes in (swapped, foreign)]
    return _granular_attack(env, "granular-swapped-sibling", forge)


def granular_record_from_other_vr(env: AttackEnvironment) -> AttackOutcome:
    """A29: substitute a record that carries a valid path — in another VR.

    Mallory commits a second VR whose record 2 is the doctored version,
    then serves that record and its genuine path under the target VR's
    VRD.  The path is valid for the other VR's root, not this datasig's.
    """
    def forge(world, receipt):
        doctored = list(_GROUP)
        doctored[2] = b"ledger line 2 (doctored)"
        decoy = world.store.write(doctored, policy="sox")
        locator = _locator(receipt, 2)
        substitute = world.store.read(_locator(decoy, 2))
        return [(locator, dataclasses.replace(
            world.store.read(locator), records=substitute.records,
            record_path=substitute.record_path))]
    return _granular_attack(env, "granular-record-from-other-vr", forge)


def granular_record_for_whole_vr(env: AttackEnvironment) -> AttackOutcome:
    """A30: answer a read by SN with one record and its genuine path.

    Bob asks for SN v, which is the whole VR; Mallory serves record 0
    (or the last record) alone, with its genuine path, to hide the
    rest — truncate-record-list done at read time.  The one record
    verifies against datasig's root, so Bob refuses a path unless the
    VR is that one record; a path that claims a count of one folds to
    the bare leaf, not the sealed root.
    """
    def forge(world, receipt):
        first = world.store.read(_locator(receipt, 0))
        last = world.store.read(_locator(receipt, len(_GROUP) - 1))
        alone = dataclasses.replace(first, record_path=dataclasses.replace(
            first.record_path, count=1, siblings=()))
        return [(receipt.sn, served) for served in (first, last, alone)]
    return _granular_attack(env, "granular-record-for-whole-vr", forge)


#: The full suite: name → (attack function, theorem number).
ATTACKS: List[Callable[[AttackEnvironment], AttackOutcome]] = [
    tamper_record_payload,
    tamper_attributes,
    resign_with_forged_key,
    truncate_record_list,
    fake_deletion_proof,
    reuse_deletion_proof,
    swap_record_payloads,
    splice_envelope_purposes,
    hide_with_stale_sn_current,
    hide_within_freshness_window,
    hide_with_fresh_bound,
    hide_with_expired_base,
    hide_with_wrong_base,
    splice_deletion_windows,
    wrong_window_for_sn,
    weak_signature_lapse,
    downgrade_to_weak_signature,
    destroy_window_artifacts,
    forge_merkle_root,
    merkle_wrong_leaf_path,
    accumulator_spliced_witness,
    accumulator_resurrect_expired,
    merkle_stale_root_hiding,
    accumulator_stale_value_hiding,
    accumulator_frontier_hiding,
    granular_path_wrong_index,
    granular_forged_leaf_count,
    granular_swapped_sibling,
    granular_record_from_other_vr,
    granular_record_for_whole_vr,
]


def run_attack(attack: Callable[[AttackEnvironment], AttackOutcome],
               env: AttackEnvironment) -> AttackOutcome:
    """Execute one attack in *env* and return its outcome."""
    return attack(env)
