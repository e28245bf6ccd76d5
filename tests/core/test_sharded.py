"""Tests for the sharded group-commit front-end (§4.3 + §5).

The two properties the front-end must not compromise:

* **equivalence** — a 1-shard :class:`ShardedWormStore` produces
  receipts, proofs and client-verifiable reads structurally identical to
  a bare :class:`StrongWormStore`; the front-end adds routing, never a
  new trust surface;
* **isolation** — tampering inside one shard is detected by that shard's
  ordinary proofs and leaves the siblings' verifications untouched.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import (
    ShardRoutingError,
    TamperedError,
    TransientFaultError,
    VerificationError,
    WormError,
)
from repro.core.sharded import RecordLocator, ShardedWormStore
from repro.core.worm import StrongWormStore
from repro.hardware.pool import ScpuPool
from repro.hardware.scpu import SecureCoprocessor
from repro.sim.manual_clock import ManualClock


@pytest.fixture
def sharded(regulator_key) -> ShardedWormStore:
    """Three shards sharing one keyring and one manual clock."""
    return ShardedWormStore.build(
        shard_count=3, keyring=demo_keyring(),
        config=StoreConfig(regulator_public_key=regulator_key.public,
                           group_commit_size=4))


@pytest.fixture
def sharded_client(sharded, ca):
    return sharded.make_client(ca)


# ---------------------------------------------------------------------------
# Locators
# ---------------------------------------------------------------------------

class TestRecordLocator:
    def test_pack_unpack_roundtrip(self):
        locator = RecordLocator(shard_id=2, sn=41, record_index=3)
        assert locator.pack() == "2:41:3"
        assert RecordLocator.unpack("2:41:3") == locator

    def test_unpack_defaults_record_index(self):
        assert RecordLocator.unpack("1:7") == RecordLocator(1, 7, 0)

    def test_unpack_rejects_garbage(self):
        with pytest.raises(ShardRoutingError):
            RecordLocator.unpack("not-a-locator")


# ---------------------------------------------------------------------------
# 1-shard equivalence with a bare StrongWormStore
# ---------------------------------------------------------------------------

class TestSingleShardEquivalence:
    @pytest.fixture
    def pair(self, regulator_key):
        """A bare store and a 1-shard front-end on one shared clock."""
        clock = ManualClock()
        bare = StrongWormStore(
            scpu=SecureCoprocessor(keyring=demo_keyring(), clock=clock),
            regulator_public_key=regulator_key.public)
        one = ShardedWormStore.build(
            shard_count=1, keyring=demo_keyring(), clock=clock,
            config=StoreConfig(regulator_public_key=regulator_key.public))
        return bare, one

    def test_receipts_structurally_identical(self, pair):
        bare, one = pair
        plain = bare.write([b"ledger page 7"], policy="sox")
        routed = one.write([b"ledger page 7"], policy="sox")
        assert (routed.shard_id, routed.record_index) == (0, 0)
        assert routed.batch_size == 1
        assert routed.sn == plain.sn
        assert routed.strength == plain.strength
        assert set(routed.costs) == set(plain.costs)
        assert routed.vrd.record_count == plain.vrd.record_count
        assert routed.vrd.attr.to_dict() == plain.vrd.attr.to_dict()
        assert routed.vrd.metasig.scheme == plain.vrd.metasig.scheme
        assert routed.vrd.datasig.scheme == plain.vrd.datasig.scheme

    def test_proofs_structurally_identical(self, pair):
        bare, one = pair
        plain = bare.write([b"minutes"], policy="sox")
        routed = one.write([b"minutes"], policy="sox")
        bare_read = bare.read(plain.sn)
        routed_read = one.read(routed.locator)
        assert routed_read.status == bare_read.status == "active"
        assert type(routed_read.proof) is type(bare_read.proof)
        assert routed_read.records == bare_read.records

    def test_client_verified_reads_equivalent(self, pair, ca):
        bare, one = pair
        plain = bare.write([b"q3 audit trail"], policy="sox")
        routed = one.write([b"q3 audit trail"], policy="sox")
        bare_verified = bare.make_client(ca).verify_read(
            bare.read(plain.sn), plain.sn)
        routed_verified = one.make_client(ca).verify_read(
            one.read(routed.locator), routed.sn)
        assert routed_verified.status == bare_verified.status == "active"
        assert routed_verified.data == bare_verified.data
        assert routed_verified.proof_kind == bare_verified.proof_kind
        assert routed_verified.weakly_signed == bare_verified.weakly_signed


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

class TestRouting:
    def test_writes_round_robin_across_shards(self, sharded):
        receipts = [sharded.write([bytes([i])], policy="sox")
                    for i in range(6)]
        assert [r.shard_id for r in receipts] == [0, 1, 2, 0, 1, 2]
        # Each shard allocated its own serial numbers from 1.
        assert [r.sn for r in receipts] == [1, 1, 1, 2, 2, 2]

    def test_every_locator_form_routes(self, sharded):
        receipt = sharded.write([b"payload"], policy="sox")
        sharded.write([b"decoy"], policy="sox")  # another shard
        for form in (receipt, receipt.locator, receipt.locator.pack(),
                     (receipt.shard_id, receipt.sn)):
            assert sharded.read_record(form) == b"payload"

    def test_unknown_shard_refused(self, sharded):
        with pytest.raises(ShardRoutingError):
            sharded.read((7, 1))
        with pytest.raises(ShardRoutingError):
            sharded.shard(-1)

    def test_unroutable_object_refused(self, sharded):
        with pytest.raises(ShardRoutingError):
            sharded.read(3.14)


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def test_write_batch_preserves_input_order(self, sharded):
        payloads = [b"rec-%d" % i for i in range(7)]
        receipts = sharded.write_batch(payloads, policy="sox")
        assert [sharded.read_record(r) for r in receipts] == payloads

    def test_batch_shares_one_vr_per_shard(self, sharded):
        # group_commit_size=4: the first four records form one chunk on
        # shard 0 (a single four-record VR), the remainder the next chunk
        # on shard 1 — full-size groups, not batch/shard_count slivers.
        receipts = sharded.write_batch([b"a", b"b", b"c", b"d", b"e", b"f"],
                                       policy="sox")
        first, fourth = receipts[0], receipts[3]  # both landed on shard 0
        assert first.shard_id == fourth.shard_id
        assert first.sn == fourth.sn  # one SN — one metasig/datasig pair
        assert (first.record_index, fourth.record_index) == (0, 3)
        assert first.batch_size == fourth.batch_size == 4
        assert first.vrd.record_count == 4
        fifth = receipts[4]  # the overflow chunk went to the next shard
        assert fifth.shard_id != first.shard_id
        assert fifth.batch_size == 2

    def test_batched_costs_reconstruct_flush_cost(self, sharded):
        receipts = sharded.write_batch([b"x"] * 4, policy="sox")
        by_vr = {}
        for receipt in receipts:
            by_vr.setdefault((receipt.shard_id, receipt.sn), []).append(receipt)
        for group in by_vr.values():
            # Equal shares: batch cost divided evenly over its records.
            shares = [r.total_cost for r in group]
            assert shares == pytest.approx([shares[0]] * len(shares))
            assert all(r.batch_size == len(group) for r in group)

    def test_batched_record_client_verifiable(self, sharded, sharded_client):
        payloads = [b"alpha", b"beta", b"gamma", b"delta", b"echo", b"fox"]
        receipts = sharded.write_batch(payloads, policy="sox")
        target = receipts[5]  # second record of shard 1's two-record VR
        assert target.record_index == 1
        result = sharded.read(target.locator)
        verified = sharded_client.verify_read(result, target.locator)
        assert verified.status == "active"
        # A locator read serves the named record alone, with its path.
        assert result.records == (b"fox",)
        assert result.record_path.index == target.record_index
        assert verified.data == b"fox"
        assert verified.record_index == target.record_index

    def test_submit_flushes_at_group_commit_size(self, regulator_key):
        one = ShardedWormStore.build(
            shard_count=1, keyring=demo_keyring(),
            config=StoreConfig(regulator_public_key=regulator_key.public,
                               group_commit_size=3))
        assert one.submit(b"first", policy="sox") is None
        assert one.submit(b"second", policy="sox") is None
        assert one.pending_count == 2
        receipts = one.submit(b"third", policy="sox")
        assert [r.record_index for r in receipts] == [0, 1, 2]
        assert receipts[0].sn == receipts[2].sn
        assert one.pending_count == 0

    def test_submit_separates_incompatible_parameters(self, sharded):
        # Different write kwargs must never share a VR (one attr per VR).
        assert sharded.submit(b"sox record", policy="sox") is None
        assert sharded.submit(b"short-lived", retention_seconds=10.0) is None
        receipts = sharded.flush()
        assert len(receipts) == 2
        assert sharded.pending_count == 0
        locators = {r.locator for r in receipts}
        assert len(locators) == 2  # two distinct VRs, not one shared attr
        retentions = {r.vrd.attr.to_dict()["retention_seconds"]
                      for r in receipts}
        assert len(retentions) == 2

    def test_flush_on_empty_pipeline_is_a_noop(self, sharded):
        assert sharded.flush() == []

    def test_record_index_past_vr_end_refused(self, sharded):
        receipt = sharded.write([b"only one"], policy="sox")
        stale = RecordLocator(receipt.shard_id, receipt.sn, record_index=5)
        with pytest.raises(ShardRoutingError):
            sharded.read_record(stale)


# ---------------------------------------------------------------------------
# Adversary: tamper isolation across shards
# ---------------------------------------------------------------------------

class TestTamperIsolation:
    def test_payload_tamper_detected_without_affecting_siblings(
            self, sharded, sharded_client):
        receipts = [sharded.write([b"shard %d evidence" % i], policy="sox")
                    for i in range(3)]
        victim = receipts[1]
        shard = sharded.shard(victim.shard_id)
        rd = shard.vrdt.get_active(victim.sn).rdl[0]
        shard.blocks.unchecked_overwrite(rd.key, b"shard 1 doctored")
        with pytest.raises(VerificationError):
            sharded_client.verify_read(sharded.read(victim.locator),
                                       victim.sn)
        for receipt in (receipts[0], receipts[2]):
            verified = sharded_client.verify_read(
                sharded.read(receipt.locator), receipt.sn)
            assert verified.status == "active"

    def test_tripped_scpu_confined_to_its_shard(self, sharded, sharded_client):
        receipts = [sharded.write([bytes([i]) * 8], policy="sox")
                    for i in range(3)]
        sharded.shard(1).scpu.tamper.trip()
        # Read proofs are *stored* artifacts (§4.2.2): the dead shard
        # keeps serving verifiable reads — degraded, not dark — while
        # the siblings are entirely unaffected.
        for receipt in receipts:
            verified = sharded_client.verify_read(
                sharded.read(receipt.locator), receipt.sn)
            assert verified.status == "active"
        # Writes are a different story: the dead card cannot witness.
        with pytest.raises(TamperedError):
            sharded.shard(1).write([b"no witness left"])

    def test_certificates_skip_a_card_that_died_quietly(self, sharded, ca):
        # Regression: a card can zeroize outside any commit path (e.g.
        # during maintenance), so the breaker never heard about it.
        # certificates() must route around the corpse, not crash.
        sharded.write([b"before the trip"], policy="sox")
        sharded.shard(1).scpu.tamper.trip()
        certs = sharded.certificates(ca)   # must not raise
        assert certs
        assert 1 in sharded.degraded_shards  # ...and the breaker learned
        client = sharded.make_client(ca)
        assert client is not None


# ---------------------------------------------------------------------------
# Lifecycle: expiry and maintenance through the front-end
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_expire_record_routes_and_proves(self, sharded, sharded_client):
        sharded.write([b"long-lived decoy"], policy="sox")
        receipt = sharded.write([b"short"], retention_seconds=10.0)
        sharded.advance_clocks(20.0)
        assert sharded.expire_record(receipt.locator, sharded.now) == "deleted"
        result = sharded.read(receipt.locator)
        assert result.status == "deleted"
        verified = sharded_client.verify_read(result, receipt.sn)
        assert verified.status == "deleted"

    def test_maintenance_merges_shard_summaries(self, sharded):
        for i in range(4):
            sharded.write([bytes([i]) * 4], retention_seconds=5.0)
        sharded.advance_clocks(10.0)
        summary = sharded.maintenance()
        assert summary["expired"] == 4

    def test_budget_split_conserves_total(self):
        shares = [ShardedWormStore._budget_share(7, offset, 3)
                  for offset in range(3)]
        assert sum(shares) == 7
        assert max(shares) - min(shares) <= 1

    def test_unbounded_budget_stays_unbounded(self):
        assert ShardedWormStore._budget_share(None, 0, 3) is None


# ---------------------------------------------------------------------------
# Construction and aggregation
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedWormStore([])
        with pytest.raises(ValueError):
            ShardedWormStore.build(shard_count=0, keyring=demo_keyring())

    def test_build_from_pool_draws_cards(self, ca):
        pool = ScpuPool.build(3, keyring=demo_keyring())
        sharded = ShardedWormStore.build(pool=pool)
        assert sharded.shard_count == 3
        assert [s.scpu for s in sharded] == list(pool.cards)
        receipt = sharded.write([b"pooled"], policy="sox")
        client = sharded.make_client(ca)
        verified = client.verify_read(sharded.read(receipt.locator),
                                      receipt.sn)
        assert verified.status == "active"

    def test_shared_keyring_means_one_certificate_set(self, sharded, ca):
        union = sharded.certificates(ca)
        single = sharded.shard(0).certificates(ca)
        assert len(union) == len(single)

    def test_cost_summary_aggregates_shards(self, sharded):
        sharded.write_batch([b"x"] * 6, policy="sox")
        summary = sharded.cost_summary()
        per_shard = sharded.per_shard_cost_seconds()
        for device in ("scpu", "host", "disk"):
            assert summary[device] == pytest.approx(
                sum(shard[device] for shard in per_shard))
        assert summary["scpu"] > 0.0

    def test_iteration_and_length(self, sharded):
        assert len(sharded) == 3
        assert all(isinstance(s, StrongWormStore) for s in sharded)

    def test_inactive_record_read_refused(self, sharded):
        receipt = sharded.write([b"gone soon"], retention_seconds=1.0)
        sharded.advance_clocks(5.0)
        sharded.expire_record(receipt.locator, sharded.now)
        with pytest.raises(WormError):
            sharded.read_record(receipt.locator)


# ---------------------------------------------------------------------------
# Flush failure semantics
# ---------------------------------------------------------------------------

class TestFlushRestoresOnFailure:
    """Regression: a failing group commit must not drop the other groups.

    ``flush()`` used to batch all receipts behind a single commit loop:
    an exception mid-loop lost the already-popped pending groups *and*
    the receipts of the groups that had committed.  It now commits
    per-group, restores the failing group, continues, and re-raises the
    first error with ``partial_receipts`` attached.
    """

    def _store_with_poisoned_policy(self, bad_policy="sox"):
        store = ShardedWormStore.build(
            shard_count=2, keyring=demo_keyring(),
            config=StoreConfig(group_commit_size=100))
        original = store._commit_group

        def poisoned(shard_id, group):
            if group.kwargs.get("policy") == bad_policy:
                raise TransientFaultError("injected commit failure")
            return original(shard_id, group)

        store._commit_group = poisoned
        return store, original

    def test_failed_group_is_restored_not_lost(self):
        store, original = self._store_with_poisoned_policy()
        for i in range(4):
            store.submit(b"good-%d" % i)
        for i in range(2):
            store.submit(b"bad-%d" % i, policy="sox")
        assert store.pending_count == 6

        with pytest.raises(TransientFaultError) as excinfo:
            store.flush()
        # The healthy groups committed and their receipts survive the
        # exception; the failed group is back in the pending queue.
        partial = excinfo.value.partial_receipts
        assert len(partial) == 4
        assert store.pending_count == 2
        for receipt in partial:
            assert store.read_record(receipt.locator).startswith(b"good-")

        # Once the failure clears, a plain flush commits the stragglers.
        store._commit_group = original
        receipts = store.flush()
        assert len(receipts) == 2
        assert store.pending_count == 0
        payloads = {store.read_record(r.locator) for r in receipts}
        assert payloads == {b"bad-0", b"bad-1"}

    def test_flush_continues_past_first_failure(self):
        store, _ = self._store_with_poisoned_policy()
        # Interleave so a poisoned group sits *before* healthy ones in
        # the shard iteration order.
        store.submit(b"bad-0", policy="sox")
        store.submit(b"bad-1", policy="sox")
        for i in range(4):
            store.submit(b"good-%d" % i)
        with pytest.raises(TransientFaultError) as excinfo:
            store.flush()
        assert len(excinfo.value.partial_receipts) == 4
        assert store.pending_count == 2
