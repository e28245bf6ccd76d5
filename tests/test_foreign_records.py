"""Every way a record from another store can fail its custody check.

Two hand-offs re-witness records another store's card signed: compliant
migration (§1) imports a signed package, and site recovery imports the
untrusted replica of a dead site.  One table of record defects is
planted on both paths.  Migration must reject exactly the doctored
record, with its reason, and migrate the rest; recovery must halt in
:class:`TamperedError` before VERIFY completes, importing nothing.
HMAC-witnessed records are not tampered: migration refuses them until
they are strengthened, and recovery sets them aside for RESUME to
re-ingest from the mirrored journal.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import pytest

from repro import demo_keyring
from repro.core.errors import TamperedError
from repro.core.migration import export_package, import_package
from repro.core.worm import StrongWormStore
from repro.crypto.keys import SigningKey
from repro.hardware.scpu import SecureCoprocessor, Strength
from repro.recovery import RecoveryStage, SiteRecovery
from repro.recovery.drill import (SMALL_SITE, build_primary, build_standby,
                                  catch_up)
from repro.storage.vrd import VirtualRecordDescriptor

STANDBY = SMALL_SITE.replace(group_commit_size=8)

#: What a defect does to one VRD: a replacement VRD (or None to keep
#: it) and block edits (key -> new bytes).
Doctored = Tuple[Optional[VirtualRecordDescriptor], Dict[str, bytes]]


class Defect(NamedTuple):
    name: str
    #: Why migration rejects the record, and recovery halts on it.
    reason: str
    strength: str
    doctor: Callable[[VirtualRecordDescriptor, VirtualRecordDescriptor,
                      SigningKey], Doctored]


def _foreign_metasig(vrd, neighbour, mallory) -> Doctored:
    forged = mallory.sign_envelope(vrd.metasig.envelope)
    return vrd.with_signatures(forged, vrd.datasig), {}


def _flipped_datasig(vrd, neighbour, mallory) -> Doctored:
    sig = vrd.datasig.signature
    flipped = dataclasses.replace(
        vrd.datasig, signature=bytes([sig[0] ^ 0x01]) + sig[1:])
    return vrd.with_signatures(vrd.metasig, flipped), {}


def _neighbour_metasig(vrd, neighbour, mallory) -> Doctored:
    return vrd.with_signatures(neighbour.metasig, vrd.datasig), {}


def _edited_attributes(vrd, neighbour, mallory) -> Doctored:
    shortened = dataclasses.replace(vrd.attr, retention_seconds=1.0)
    return dataclasses.replace(vrd, attr=shortened), {}


def _doctored_payload(vrd, neighbour, mallory) -> Doctored:
    return None, {vrd.rdl[0].key: b"doctored"}


def _untouched(vrd, neighbour, mallory) -> Doctored:
    return None, {}


RECORD_DEFECTS = (
    Defect("metasig-foreign-key", "metasig signed by an untrusted key",
           Strength.STRONG, _foreign_metasig),
    Defect("datasig-byte-flipped", "datasig signature verification failed",
           Strength.STRONG, _flipped_datasig),
    Defect("neighbour-metasig", "signatures name a different SN",
           Strength.STRONG, _neighbour_metasig),
    Defect("attributes-edited", "attributes do not match metasig",
           Strength.STRONG, _edited_attributes),
    Defect("payload-doctored", "record data does not match datasig",
           Strength.STRONG, _doctored_payload),
    Defect("hmac-witnessed",
           "metasig is HMAC-only; source must strengthen before migrating",
           Strength.HMAC, _untouched),
)
TAMPERED = tuple(d for d in RECORD_DEFECTS if d.strength != Strength.HMAC)
HMAC_WITNESSED = next(d for d in RECORD_DEFECTS if d.strength == Strength.HMAC)


@pytest.fixture(scope="module")
def mallory() -> SigningKey:
    """A signing key no certificate covers."""
    return SigningKey.generate(512, role="s")


# --------------------------------------------------------------- migration

@pytest.mark.parametrize("defect", RECORD_DEFECTS, ids=lambda d: d.name)
def test_migration_rejects_exactly_the_defective_record(defect, ca, mallory):
    source = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
    neighbour = source.write([b"neighbour-a", b"neighbour-b"], policy="sox")
    target = source.write([b"target-a", b"target-b"], policy="sox",
                          strength=defect.strength)
    other = source.write([b"other-a", b"other-b"], policy="sox")
    vrd, blocks = defect.doctor(target.vrd, neighbour.vrd, mallory)
    if vrd is not None:
        source.vrdt.replace_active(vrd)
    for key, data in blocks.items():
        source.blocks.unchecked_overwrite(key, data)

    dest = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
    report = import_package(dest, export_package(source, ca), ca)

    assert report.rejected == [(target.sn, defect.reason)]
    assert report.migrated == 2
    assert set(report.sn_mapping) == {neighbour.sn, other.sn}


# ---------------------------------------------------------------- recovery

def _history(replica, shard_id):
    return replica._shards[shard_id].history


def _replace_vrd(replica, shard_id, vrd):
    """Swap every replicated copy of *vrd*'s SN for *vrd*."""
    for payload in _history(replica, shard_id):
        vrds = (payload["vrdt"]["active"] if payload["kind"] == "snapshot"
                else payload["vrds"])
        for i, data in enumerate(vrds):
            if int(data["sn"]) == vrd.sn:
                vrds[i] = vrd.to_dict()


def _plant_record_defect(defect):
    def plant(replica, shard_id, target, neighbour, mallory):
        vrd, blocks = defect.doctor(target, neighbour, mallory)
        if vrd is not None:
            _replace_vrd(replica, shard_id, vrd)
        for payload in _history(replica, shard_id):
            for key, data in blocks.items():
                if key in payload.get("blocks", {}):
                    payload["blocks"][key] = data
    return plant


def _window_with_wrong_purpose(replica, shard_id, target, neighbour,
                               mallory):
    for payload in _history(replica, shard_id):
        windows = (payload["vrdt"] if payload["kind"] == "snapshot"
                   else payload)
        if windows.get("sn_base") is not None:
            windows["sn_current"] = windows["sn_base"]


def _window_with_flipped_signature(replica, shard_id, target, neighbour,
                                   mallory):
    for payload in _history(replica, shard_id):
        windows = (payload["vrdt"] if payload["kind"] == "snapshot"
                   else payload)
        signed = windows.get("sn_current")
        if signed is not None:
            sig = bytes.fromhex(signed["signature"])
            windows["sn_current"] = dict(
                signed, signature=(bytes([sig[0] ^ 0x01]) + sig[1:]).hex())


def _misfiled_deletion_proof(replica, shard_id, target, neighbour, mallory):
    for payload in _history(replica, shard_id):
        if payload.get("expired"):
            payload["expired"] = [(int(sn) + 100, proof)
                                  for sn, proof in payload["expired"]]


def _missing_block(replica, shard_id, target, neighbour, mallory):
    for payload in _history(replica, shard_id):
        payload.get("blocks", {}).pop(target.rdl[0].key, None)


RECOVERY_DEFECTS = [
    pytest.param(_plant_record_defect(d), "shard {shard} SN {sn}: ",
                 d.reason, id=d.name) for d in TAMPERED] + [
    pytest.param(_window_with_wrong_purpose, "shard {shard} sn_current: ",
                 "wrong envelope purpose", id="window-wrong-purpose"),
    pytest.param(_window_with_flipped_signature, "shard {shard} sn_current: ",
                 "signature verification failed",
                 id="window-signature-flipped"),
    pytest.param(_misfiled_deletion_proof, "shard {shard}: ",
                 "deletion proof names SN", id="deletion-proof-misfiled"),
    pytest.param(_missing_block, "shard {shard} SN {sn}: ",
                 "payloads missing from package", id="block-missing"),
]


def _replicated_site(ca):
    """A dead primary's replica: per shard an active VR, an expired VR
    whose deletion proof shipped in a delta, and a target VR (the
    highest active SN)."""
    store, _, replica, pump = build_primary(ca=ca)
    store.write_batch([b"kept-%d" % i for i in range(8)], policy="sox")
    store.write_batch([b"brief-%d" % i for i in range(8)],
                      retention_seconds=5.0)
    store.write_batch([b"target-%d" % i for i in range(8)], policy="sox")
    assert catch_up(pump)
    store.advance_clocks(10.0)
    for shard in store.shards:
        shard.retention.tick(store.now)
    assert catch_up(pump)
    return replica


@pytest.mark.parametrize("plant,where,reason", RECOVERY_DEFECTS)
def test_recovery_halts_on_a_defective_replica(plant, where, reason, ca,
                                               mallory):
    replica = _replicated_site(ca)
    shard_id = 0
    image = replica.materialize_shard(shard_id)
    assert image["deletion_proofs"]
    neighbour_sn, target_sn = min(image["vrds"]), max(image["vrds"])
    target = VirtualRecordDescriptor.from_dict(image["vrds"][target_sn])
    neighbour = VirtualRecordDescriptor.from_dict(image["vrds"][neighbour_sn])
    plant(replica, shard_id, target, neighbour, mallory)

    standby = build_standby(STANDBY)
    recovery = SiteRecovery(replica, standby, ca)
    with pytest.raises(TamperedError) as caught:
        recovery.run()
    # A record's reason is worded exactly as migration reports it.
    assert str(caught.value).startswith(
        where.format(shard=shard_id, sn=target_sn) + reason)
    assert RecoveryStage.VERIFY not in recovery.checkpoint()["completed"]
    assert all(not shard.vrdt.active_sns for shard in standby.shards)


def test_recovery_sets_hmac_witnessed_records_aside(ca):
    store, _, replica, pump = build_primary(ca=ca)
    store.write_batch([b"kept-%d" % i for i in range(4)], policy="sox")
    burst = [b"burst-%d" % i for i in range(4)]
    receipts = store.write_batch(burst, policy="sox",
                                 strength=HMAC_WITNESSED.strength)
    assert catch_up(pump)
    hmac_vr = (receipts[0].locator.shard_id, receipts[0].locator.sn)
    assert {(r.locator.shard_id, r.locator.sn) for r in receipts} == {hmac_vr}

    standby = build_standby(STANDBY)
    report = SiteRecovery(replica, standby, ca).run()

    assert report.complete
    assert [(s, sn) for s, sn, _ in report.unverifiable] == [hmac_vr]
    assert report.records_verified == report.records_replayed == 1
    assert report.journal_requeued == len(burst)
    for receipt, payload in zip(receipts, burst):
        new = report.locator_mapping[receipt.locator.pack()]
        assert standby.read_record(new) == payload
