"""One replicated site, wired once, for every site-loss drill.

``repro.cli recover`` and ``obs``, ``examples/replicated_archive.py``
and the recovery tests build, pump, corrupt and audit their sites here.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Tuple

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import TamperedError, VerificationError, WormError
from repro.core.locator import RecordLocator
from repro.core.sharded import ShardedWormStore
from repro.crypto.keys import CertificateAuthority
from repro.faults.plan import FaultPlan
from repro.obs.bus import TelemetryBus
from repro.recovery.replication import (ReplicaSite, ReplicatedIntentJournal,
                                        ReplicationPump, ReplicationTransport)
from repro.recovery.stages import RecoveryReport
from repro.sim.manual_clock import ManualClock
from repro.storage.journal import MemoryIntentJournal

__all__ = ["SMALL_SITE", "LossAudit", "build_primary", "build_standby",
           "catch_up", "flip_replicated_byte", "audit_zero_loss"]

#: Two shards committing groups of four records: the drills' small site.
SMALL_SITE = StoreConfig(shard_count=2, group_commit_size=4)


def build_primary(config: StoreConfig = SMALL_SITE,
                  ca: Optional[CertificateAuthority] = None,
                  plan: Optional[FaultPlan] = None,
                  obs: Optional[TelemetryBus] = None
                  ) -> Tuple[ShardedWormStore, ReplicationTransport,
                             ReplicaSite, ReplicationPump]:
    """``(store, transport, replica, pump)``: a primary built from
    *config* whose intent journal mirrors synchronously to a fresh
    standby while the pump ships its catalog over a WAN faulted by
    *plan*.  The store reports to ``config.observe``, the replication
    layers to *obs* (by default the same bus); *ca* makes the pump ship
    the site's certified keys, which recovery needs.
    """
    obs = obs if obs is not None else config.observe
    clock = ManualClock()
    transport = ReplicationTransport(plan=plan, obs=obs)
    replica = ReplicaSite()
    journal = ReplicatedIntentJournal(
        MemoryIntentJournal(), transport, replica, clock=clock, obs=obs)
    store = ShardedWormStore.build(keyring=demo_keyring(), clock=clock,
                                   config=config, journal=journal)
    pump = ReplicationPump(store, transport, replica, ca=ca, obs=obs)
    return store, transport, replica, pump


def build_standby(config: StoreConfig = SMALL_SITE) -> ShardedWormStore:
    """The empty site recovery rebuilds, shaped by *config* but off its
    bus (recovery reports to the bus it is given)."""
    return ShardedWormStore.build(keyring=demo_keyring(), clock=ManualClock(),
                                  config=config.replace(observe=None))


def catch_up(pump: ReplicationPump, cycles: int = 30, tick: float = 2.0,
             keep_tail: bool = False) -> bool:
    """Advance the site's clocks by *tick* and pump until the standby has
    acknowledged everything shipped (after at least one cycle, so writes
    since the last pump ship too) and holds the site's certified keys if
    the pump ships them; returns whether it did within *cycles* cycles.
    With *keep_tail* it stops as soon as the keys have landed, possibly
    before any cycle, leaving the catalog tail unshipped.
    """
    def done(cycle: int) -> bool:
        certified = pump.ca is None or bool(pump.replica.source_certificates)
        drained = (cycle > 0 and pump.unacked_count == 0
                   and pump.transport.in_flight == 0)
        return certified and (keep_tail or drained)

    for cycle in range(cycles):
        if done(cycle):
            return True
        pump.store.advance_clocks(tick)
        pump.pump()
    return done(cycles)


def flip_replicated_byte(replica: ReplicaSite) -> Optional[str]:
    """Flip one bit of the first replicated payload block on the
    standby's untrusted disk; returns its key (None if no block has
    shipped).  Recovery must then end in TamperedError, importing nothing.
    """
    for shard_id in replica.shard_ids:
        history = replica._shards[shard_id].history
        payload = next((p for p in history if p.get("blocks")), None)
        if payload is not None:
            key = sorted(payload["blocks"])[0]
            data = payload["blocks"][key]
            payload["blocks"][key] = bytes([data[0] ^ 0x01]) + data[1:]
            return key
    return None


class LossAudit(NamedTuple):
    """``(old packed locator, reason)`` per acknowledged record lost, in
    ledger order, and how many distinct VRs verified ``active``."""

    lost: Tuple[Tuple[str, str], ...]
    vrs_verified: int


def audit_zero_loss(site: ShardedWormStore, ca: CertificateAuthority,
                    ledger: Mapping[str, bytes],
                    report: RecoveryReport) -> LossAudit:
    """Check every acknowledged record survived the rebuild of *site*:
    each locator of *ledger* (the dead site's, mapped through
    ``report.locator_mapping``) reads back its payload byte for byte, and
    the VR it landed in verifies ``active`` (once per VR).
    """
    client = site.make_client(ca)
    lost = []
    checked = set()
    verified = 0
    for old_packed, payload in ledger.items():
        try:
            locator = RecordLocator.unpack(
                report.locator_mapping.get(old_packed, old_packed))
            if site.read_record(locator) != payload:
                lost.append((old_packed, "payload mismatch"))
                continue
        except TamperedError:
            raise
        except WormError as exc:
            lost.append((old_packed, f"unreadable: {exc}"))
            continue
        if (locator.shard_id, locator.sn) in checked:
            continue
        checked.add((locator.shard_id, locator.sn))
        try:
            status = client.verify_read(
                site.shard(locator.shard_id).read(locator.sn),
                locator.sn).status
        except VerificationError as exc:
            status = f"{type(exc).__name__}: {exc}"
        if status == "active":
            verified += 1
        else:
            lost.append((old_packed, f"verify: {status}"))
    return LossAudit(tuple(lost), verified)
