"""The shared drill pieces decide whether a drill passes, so they are
tested themselves: the zero-loss audit must report each kind of loss,
the catch-up loop must be able to leave a tail, and the at-rest flip
must end recovery in TamperedError with nothing imported."""

from __future__ import annotations

import pytest

from repro.core.errors import TamperedError
from repro.core.locator import RecordLocator
from repro.recovery import RecoveryStage, SiteRecovery
from repro.recovery.drill import (audit_zero_loss, build_primary,
                                  build_standby, catch_up,
                                  flip_replicated_byte)


def _rebuilt(ca):
    """Two four-record VRs, fully replicated; the site dies and is
    rebuilt.  Returns the new site, the ledger and the report."""
    store, _, replica, pump = build_primary(ca=ca)
    payloads = [b"ledger-%d" % i for i in range(8)]
    receipts = store.write_batch(payloads)
    assert catch_up(pump)
    ledger = {r.locator.pack(): p for r, p in zip(receipts, payloads)}
    standby = build_standby()
    report = SiteRecovery(replica, standby, ca).run()
    return standby, ledger, report


class TestAuditZeroLoss:
    def test_a_clean_rebuild_loses_nothing(self, ca):
        standby, ledger, report = _rebuilt(ca)
        audit = audit_zero_loss(standby, ca, ledger, report)
        assert audit.lost == ()
        assert audit.vrs_verified == 2

    def test_a_payload_that_differs_is_lost(self, ca):
        standby, ledger, report = _rebuilt(ca)
        victim = next(iter(ledger))
        ledger[victim] = b"what the writer was acknowledged"
        audit = audit_zero_loss(standby, ca, ledger, report)
        assert audit.lost == ((victim, "payload mismatch"),)

    def test_a_locator_that_does_not_resolve_is_lost(self, ca):
        standby, ledger, report = _rebuilt(ca)
        ledger["0:99:0"] = b"acknowledged, never rebuilt"
        audit = audit_zero_loss(standby, ca, ledger, report)
        assert [old for old, _ in audit.lost] == ["0:99:0"]
        assert audit.lost[0][1].startswith("unreadable: ")

    def test_a_vr_that_does_not_verify_active_is_lost(self, ca):
        # The record itself reads back intact, but a sibling in its VR
        # was rewritten on the new site's disk: the VR fails to verify.
        standby, ledger, report = _rebuilt(ca)
        first = next(iter(ledger))
        new = RecordLocator.unpack(report.locator_mapping[first])
        shard = standby.shard(new.shard_id)
        sibling = shard.vrdt.get_active(new.sn).rdl[1]
        shard.blocks.unchecked_overwrite(sibling.key, b"doctored")
        audit = audit_zero_loss(standby, ca, {first: ledger[first]}, report)
        assert [old for old, _ in audit.lost] == [first]
        assert audit.lost[0][1].startswith("verify: ")
        assert audit.vrs_verified == 0


class TestCatchUp:
    def test_keep_tail_stops_once_the_keys_have_landed(self, ca):
        store, transport, replica, pump = build_primary(ca=ca)
        store.write_batch([b"shipped"])
        assert catch_up(pump)
        store.write_batch([b"tail"])
        assert catch_up(pump, keep_tail=True)
        # Not even one cycle ran: the tail never left the site.
        assert pump.unacked_count == 0 and transport.in_flight == 0
        assert sum(len(replica.materialize_shard(s)["vrds"])
                   for s in replica.shard_ids) == 1


class TestFlipReplicatedByte:
    def test_recovery_refuses_the_flipped_standby(self, ca):
        store, _, replica, pump = build_primary(ca=ca)
        store.write_batch([b"minutes-%d" % i for i in range(8)])
        assert catch_up(pump)
        assert flip_replicated_byte(replica) is not None
        standby = build_standby()
        recovery = SiteRecovery(replica, standby, ca)
        with pytest.raises(TamperedError):
            recovery.run()
        assert RecoveryStage.VERIFY not in recovery.checkpoint()["completed"]
        assert all(not shard.vrdt.active_sns for shard in standby.shards)

    def test_nothing_to_flip_before_a_block_ships(self):
        _, _, replica, _ = build_primary()
        assert flip_replicated_byte(replica) is None
