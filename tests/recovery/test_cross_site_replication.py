"""Replication mechanics: streams, ordering, faults, the journal mirror.

The transport is an adversarial WAN (loss, delay, reordering,
corruption from a deterministic FaultPlan); these tests pin down the
behaviours recovery depends on: per-stream in-order application with
gap buffering, retransmission until acknowledged, the synchronous
journal mirror failing loud instead of acknowledging an unreplicated
write, and replication lag showing up in telemetry.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ReplicationError
from repro.core.locator import RecordLocator
from repro.crypto.envelope import Envelope, Purpose
from repro.faults import FaultPlan
from repro.hardware.scpu import Strength
from repro.obs import TelemetryBus
from repro.recovery import ReplicaSite, ReplicationArtifact, SiteRecovery
from repro.recovery.drill import (SMALL_SITE, build_primary, build_standby,
                                  catch_up)


def _artifact(stream, seq, payload=None, created_at=0.0):
    return ReplicationArtifact(
        stream=stream, seq=seq, kind="delta", created_at=created_at,
        payload=payload or {"shard_id": 0, "kind": "delta", "vrds": [],
                            "blocks": {}, "expired": []},
        size_bytes=64)


class TestReplicaOrdering:
    def test_gap_is_buffered_until_contiguous(self):
        replica = ReplicaSite()
        assert replica.apply(_artifact("catalog:0", 2)) == 0  # gap: waits
        assert replica.ack("catalog:0") == 0
        assert replica.apply(_artifact("catalog:0", 1)) == 2  # drains both
        assert replica.ack("catalog:0") == 2

    def test_duplicates_apply_zero(self):
        replica = ReplicaSite()
        assert replica.apply(_artifact("catalog:0", 1)) == 1
        assert replica.apply(_artifact("catalog:0", 1)) == 0  # retransmit
        assert replica.ack("catalog:0") == 1

    def test_streams_are_independent(self):
        replica = ReplicaSite()
        assert replica.apply(_artifact("catalog:1",
                                       1, {"shard_id": 1})) == 1
        assert replica.ack("catalog:0") == 0
        assert replica.ack("catalog:1") == 1


class TestTransportFaults:
    def test_lost_artifact_is_retransmitted_until_acked(self):
        plan = FaultPlan().transient(after_ops=1, op="replicate.send",
                                     count=2)
        store, transport, replica, pump = build_primary(plan=plan)
        store.submit(b"survives loss")
        store.flush()
        assert catch_up(pump)
        assert replica.ack("catalog:0") >= 1 or replica.ack("catalog:1") >= 1
        assert plan.injected["transient"] == 2

    def test_latency_spike_reorders_but_replica_absorbs_it(self):
        # The first catalog artifact is delayed 30s; its successor
        # arrives first and must wait in the gap buffer.
        plan = FaultPlan().latency(seconds=30.0, after_ops=1,
                                   op="replicate.send")
        store, transport, replica, pump = build_primary(
            SMALL_SITE.replace(shard_count=1), plan=plan)
        store.submit(b"first")
        store.flush()
        store.advance_clocks(1.0)
        pump.pump()  # ships delta #1 (delayed in flight)
        store.submit(b"second")
        store.flush()
        store.advance_clocks(0.2)
        pump.pump()  # ships delta #2, which arrives first -> buffered
        assert replica.ack("catalog:0") == 0
        assert catch_up(pump)  # the spike elapses; both apply in order
        assert replica.ack("catalog:0") >= 2
        image = replica.materialize_shard(0)
        assert len(image["vrds"]) == 2

    def test_sync_path_exhaustion_refuses_the_write(self):
        # Link down past the retry budget: the journal mirror raises
        # instead of acknowledging an unreplicated write.
        plan = FaultPlan().transient(after_ops=1, op="replicate.sync",
                                     count=64)
        store, transport, replica, pump = build_primary(plan=plan)
        with pytest.raises(ReplicationError):
            store.submit(b"never acknowledged")

    def test_sync_path_rides_out_short_outages(self):
        plan = FaultPlan().transient(after_ops=1, op="replicate.sync",
                                     count=3)
        store, transport, replica, pump = build_primary(plan=plan)
        store.submit(b"persistent")  # 3 drops, 4th attempt lands
        assert len(replica.journal_ledger()) == 1
        assert transport.sync_delay_seconds > 0

    def test_a_refused_write_leaves_no_gap_in_the_mirror(self):
        # The link drops every attempt of the first ship, then recovers:
        # the next write must reach the standby, not queue behind the
        # refused one's sequence number.
        plan = FaultPlan().transient(after_ops=1, op="replicate.sync",
                                     count=8)
        store, transport, replica, pump = build_primary(plan=plan)
        with pytest.raises(ReplicationError):
            store.submit(b"refused")
        store.submit(b"acknowledged")
        assert [e.payload for e in replica.journal_ledger()] == [
            b"acknowledged"]


class TestJournalMirror:
    def test_every_acknowledged_write_has_a_mirrored_entry(self):
        store, transport, replica, pump = build_primary()
        for i in range(5):
            store.submit(b"rec-%d" % i)
        store.flush()
        ledger = replica.journal_ledger()
        assert [e.payload for e in ledger] == [
            b"rec-%d" % i for i in range(5)]
        assert all(e.committed and e.locator is not None for e in ledger)

    def test_uncommitted_tail_is_mirrored_before_the_crash(self):
        store, transport, replica, pump = build_primary(
            SMALL_SITE.replace(group_commit_size=8))
        store.submit(b"pending-a")
        store.submit(b"pending-b", tag=("acme", "t-1"))
        # No flush: the primary dies here.  The standby already holds
        # both intents, tags restored to their tuple form.
        ledger = replica.journal_ledger()
        assert [e.committed for e in ledger] == [False, False]
        assert ledger[1].tag == ("acme", "t-1")

    def test_mirror_matches_the_local_ledger(self):
        store, transport, replica, pump = build_primary()
        for i in range(6):
            store.submit(b"x%d" % i)
        store.flush()
        store.submit(b"tail")
        local = store._journal.ledger()
        mirrored = replica.journal_ledger()
        assert [(e.entry_id, e.committed, e.locator) for e in local] == \
               [(e.entry_id, e.committed, e.locator) for e in mirrored]


class TestPump:
    def test_catalog_converges_to_the_primary(self, ca):
        store, transport, replica, pump = build_primary(ca=ca)
        for i in range(9):
            store.submit(b"record-%d" % i)
        store.flush()
        assert catch_up(pump)
        assert replica.source_certificates  # meta stream shipped
        total = 0
        for shard_id in replica.shard_ids:
            image = replica.materialize_shard(shard_id)
            assert image["sn_current"] is not None
            total += len(image["vrds"])
        assert total == sum(len(store.shard(s).vrdt.active_sns)
                            for s in range(store.shard_count))

    def test_snapshot_subsumes_the_delta_chain(self):
        store, transport, replica, pump = build_primary(
            SMALL_SITE.replace(shard_count=1))
        pump.snapshot_interval = 50.0
        store.submit(b"early")
        store.flush()
        assert catch_up(pump, tick=1.0)
        store.advance_clocks(60.0)  # past the snapshot interval
        store.submit(b"late")
        store.flush()
        assert catch_up(pump, tick=1.0)
        shard_replica = replica._shards[0]
        assert shard_replica.history[0]["kind"] == "snapshot"
        image = replica.materialize_shard(0)
        assert len(image["vrds"]) == 2

    def test_lag_is_observed_into_the_histogram(self):
        bus = TelemetryBus()
        store, transport, replica, pump = build_primary(
            SMALL_SITE.replace(observe=bus))
        store.submit(b"measured")
        store.flush()
        assert catch_up(pump)
        snapshot = bus.snapshot()
        lag = snapshot["histograms"]["replication.lag_seconds"]
        assert lag["count"] >= 1
        assert snapshot["counters"]["replication.artifacts_shipped"] >= 1
        assert snapshot["counters"]["replication.artifacts_applied"] >= 1
        assert snapshot["counters"]["replication.journal_ops"] >= 2

    def test_vrds_re_signed_after_shipping_ship_again(self, ca,
                                                      regulator_key):
        # A hold and a strengthening replace shipped VRDs in place; the
        # next delta must carry them, or a site recovered before the
        # next snapshot rebuilds the record without its hold.
        store, _, replica, pump = build_primary(
            SMALL_SITE.replace(regulator_public_key=regulator_key.public),
            ca=ca)
        held = store.write([b"subpoenaed"], retention_seconds=60.0)
        weak = store.write([b"burst"], strength=Strength.WEAK)
        assert catch_up(pump)
        timeout = store.now + 3600.0
        credential = regulator_key.sign_envelope(Envelope(
            purpose=Purpose.LITIGATION_CREDENTIAL,
            fields={"sn": held.sn}, timestamp=store.now))
        store.shard(held.shard_id).lit_hold(held.sn, credential,
                                            hold_timeout=timeout)
        store.shard(weak.shard_id).strengthen_vrds([weak.sn])
        strong = store.shard(weak.shard_id).vrdt.get_active(weak.sn)
        assert strong.metasig.key_fingerprint != weak.vrd.metasig.key_fingerprint
        store.write_batch([b"after-%d" % i for i in range(4)])
        assert catch_up(pump)

        image = replica.materialize_shard(held.shard_id)["vrds"][held.sn]
        assert image["attr"]["litigation_hold"] is True
        image = replica.materialize_shard(weak.shard_id)["vrds"][weak.sn]
        assert image["metasig"] == strong.metasig.to_dict()
        assert image["datasig"] == strong.datasig.to_dict()

        standby = build_standby()
        report = SiteRecovery(replica, standby, ca).run()
        assert report.complete
        rebuilt = RecordLocator.unpack(
            report.locator_mapping[held.locator.pack()])
        shard = standby.shard(rebuilt.shard_id)
        attr = shard.vrdt.get_active(rebuilt.sn).attr
        assert attr.litigation_hold and attr.litigation_timeout == timeout
        assert shard.expire_record(rebuilt.sn,
                                   now=attr.expires_at + 1.0) == "held"
        assert shard.vrdt.is_active(rebuilt.sn)
