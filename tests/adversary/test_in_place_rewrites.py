"""A host that rewrites stored signed statements in place.

The untrusted host holds every stored VRD and signed envelope, and
``object.__setattr__`` gets round ``frozen=True``: it can rewrite an
attribute, or an envelope's fields, purpose or timestamp, after the
statement's bytes were first encoded and signed.  Every check that goes
on to trust those values must see the rewrite.  The card encodes what it
checks afresh; the client trusts only the values it verified.
"""

import pytest

from repro.core.errors import CredentialError, VerificationError
from repro.core.proofs import NeverAllocatedProof, ReadResult
from repro.crypto.envelope import Envelope, Purpose
from repro.crypto.hashing import data_tree
from repro.hardware.scpu import Strength, StrengtheningError

DAY = 24 * 3600.0


def rewrite(obj, **values):
    """Rewrite attributes of a frozen dataclass in place, as the host can."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def rewrite_fields(envelope, **values):
    rewrite(envelope, fields={**envelope.fields, **values})


def forge_expiry(vrd, metasig_too):
    """Rewrite a stored VRD's retention to zero (and its metasig to match)."""
    rewrite(vrd.attr, retention_seconds=0.0)
    if metasig_too:
        rewrite_fields(vrd.metasig.envelope, attr=vrd.attr.canonical_bytes())


@pytest.mark.parametrize("metasig_too", [False, True],
                         ids=["attr", "attr-and-metasig"])
def test_night_scan_schedules_no_rewritten_expiry(store, client,
                                                  metasig_too):
    kept = store.write([b"kept"], retention_seconds=1000.0)
    target = store.write([b"target"], retention_seconds=1000.0)
    client.verify_read(store.read(target.sn), target.sn)
    forge_expiry(store.vrdt.get_active(target.sn), metasig_too)
    assert store.retention.night_scan(store.now) == 1
    scheduled = {sn for _, sn in store.retention.vexp.pop_due(1e12)}
    assert scheduled == {kept.sn}
    assert store.vrdt.is_active(target.sn)


@pytest.mark.parametrize("doctor", [
    lambda env: rewrite_fields(env, attr=b"ATTR1 forged"),
    lambda env: rewrite(env, purpose=Purpose.DATASIG),
    lambda env: rewrite(env, timestamp=env.timestamp + 1.0),
], ids=["fields", "purpose", "timestamp"])
def test_strengthening_launders_no_rewritten_statement(store, client,
                                                       doctor):
    weak = store.write([b"burst"], strength=Strength.WEAK)
    client.verify_read(store.read(weak.sn), weak.sn)
    vrd = store.vrdt.get_active(weak.sn)
    doctor(vrd.metasig.envelope)
    with pytest.raises(StrengtheningError):
        store.strengthen_vrds([weak.sn])
    after = store.vrdt.get_active(weak.sn)
    assert after.metasig is vrd.metasig and after.datasig is vrd.datasig


def test_credential_check_refuses_a_credential_moved_to_another_sn(
        store, regulator_key):
    named = store.write([b"named"], retention_seconds=30 * DAY)
    other = store.write([b"other"], retention_seconds=30 * DAY)
    credential = regulator_key.sign_envelope(Envelope(
        purpose=Purpose.LITIGATION_CREDENTIAL,
        fields={"sn": named.sn}, timestamp=store.now))
    assert store.scpu.verify_regulator_credential(
        credential, regulator_key.public, named.sn)
    rewrite_fields(credential.envelope, sn=other.sn)
    with pytest.raises(CredentialError):
        store.lit_hold(other.sn, credential, hold_timeout=store.now + DAY)
    assert not store.vrdt.get_active(other.sn).attr.litigation_hold


def test_credential_check_refuses_a_stale_credential_made_fresh(
        store, regulator_key):
    held = store.write([b"held"], retention_seconds=30 * DAY)
    credential = regulator_key.sign_envelope(Envelope(
        purpose=Purpose.LITIGATION_CREDENTIAL,
        fields={"sn": held.sn}, timestamp=store.now))
    store.scpu.clock.advance(2 * DAY)
    rewrite(credential.envelope, timestamp=store.now)
    with pytest.raises(CredentialError):
        store.lit_hold(held.sn, credential, hold_timeout=store.now + DAY)
    assert not store.vrdt.get_active(held.sn).attr.litigation_hold


@pytest.mark.parametrize("field", ["timestamp", "sn_current"])
def test_client_refuses_a_rewritten_sn_current(store, client, field):
    receipt = store.write([b"hidden"])
    store.auth.windows.refresh_current(force=True)
    result = store.read(receipt.sn + 1)
    assert client.verify_read(result, receipt.sn + 1).status == (
        "never-allocated")
    signed = result.proof.sn_current
    if field == "timestamp":
        # Stale, and made to look fresh.
        store.scpu.clock.advance(client.freshness_window + 10.0)
        rewrite(signed.envelope, timestamp=store.now)
        requested = receipt.sn + 1
    else:
        # Lowered below the SN just written, to hide it.
        rewrite_fields(signed.envelope, sn_current=receipt.sn - 1)
        requested = receipt.sn
    hiding = ReadResult(sn=requested, status="never-allocated",
                        proof=NeverAllocatedProof(sn_current=signed))
    with pytest.raises(VerificationError):
        client.verify_read(hiding, requested)


@pytest.mark.parametrize("doctor", ["attr", "attr-and-metasig", "datasig"])
def test_client_refuses_a_rewritten_vrd(store, client, doctor):
    receipt = store.write([b"genuine"], retention_seconds=1000.0)
    client.verify_read(store.read(receipt.sn), receipt.sn)
    vrd = store.vrdt.get_active(receipt.sn)
    if doctor == "datasig":
        store.blocks.unchecked_overwrite(vrd.rdl[0].key, b"forged!")
        rewrite_fields(vrd.datasig.envelope,
                       data_hash=data_tree([b"forged!"]).root)
    else:
        forge_expiry(vrd, metasig_too=doctor == "attr-and-metasig")
    with pytest.raises(VerificationError):
        client.verify_read(store.read(receipt.sn), receipt.sn)

