"""Record-granular reads: one block and a log2(g) path per record.

A read by locator serves the named record of a group-committed VR, its
sibling path in the VR's data tree and the leaf count; the client checks
it against the root ``datasig`` signs.  A read by serial number still
serves the whole VR.  These tests pin the read's cost (one block, at
most ceil(log2 g) + 2 client hashes, no store-side hashing), the write
path's (no new host or disk charge), and the verification on all three
authentication schemes.
"""

from __future__ import annotations

import math

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import ShardRoutingError, VerificationError, WormError
from repro.core.locator import RecordLocator
from repro.core.sharded import ShardedWormStore
from repro.core.worm import StrongWormStore
from repro.crypto import hashing
from repro.crypto.hashing import chained_hash, data_tree
from repro.hardware.scpu import SecureCoprocessor
from repro.service import ServiceRequest, TenantConfig, WormService
from repro.storage.vrdt import VrdTable

SCHEMES = ("windows", "merkle", "accumulator")


def _store(scheme: str = "windows") -> StrongWormStore:
    return StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()),
                           config=StoreConfig(auth_scheme=scheme))


def _records(count: int):
    return [b"record %03d " % i + b"." * (i % 7) for i in range(count)]


def _at(sn: int, index: int) -> RecordLocator:
    return RecordLocator(shard_id=0, sn=sn, record_index=index)


class _CountingHashlib:
    """Stands in for ``hashlib`` inside :mod:`repro.crypto.hashing`."""

    def __init__(self, real):
        self._real = real
        self.calls = 0

    def sha256(self, data=b""):
        self.calls += 1
        return self._real.sha256(data)

    def new(self, name, data=b""):
        self.calls += 1
        return self._real.new(name, data)


@pytest.fixture
def hash_counter(monkeypatch):
    counter = _CountingHashlib(hashing.hashlib)
    monkeypatch.setattr(hashing, "hashlib", counter)
    return counter


class TestServing:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_record_verifies_alone_on_every_scheme(self, scheme, ca):
        store = _store(scheme)
        client = store.make_client(ca)
        records = _records(5)
        sn = store.write(records).sn
        for index, payload in enumerate(records):
            result = store.read(_at(sn, index))
            assert result.records == (payload,)
            assert result.record_path.index == index
            assert result.record_path.count == 5
            verified = client.verify_read(result, _at(sn, index))
            assert verified.status == "active"
            assert verified.data == payload
            assert verified.record_index == index

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_read_by_serial_number_serves_the_whole_vr(self, scheme, ca):
        store = _store(scheme)
        client = store.make_client(ca)
        records = _records(3)
        sn = store.write(records).sn
        result = store.read(sn)
        assert result.records == tuple(records)
        assert result.record_path is None
        verified = client.verify_read(result, sn)
        assert verified.data == b"".join(records)
        assert verified.record_index is None
        # Asking for one record of a whole-VR answer picks it out.
        assert client.verify_read(result, _at(sn, 1)).data == records[1]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_record_answers_a_read_by_sn_only_when_it_is_the_vr(
            self, scheme, ca):
        store = _store(scheme)
        client = store.make_client(ca)
        sn = store.write([b"email body", b"smoking gun"]).sn
        for index in (0, 1):
            with pytest.raises(VerificationError, match="read as a whole"):
                client.verify_read(store.read(_at(sn, index)), sn)
        single = store.write([b"memo"]).sn
        verified = client.verify_read(store.read(_at(single, 0)), single)
        assert verified.data == b"memo"
        assert verified.record_index is None

    def test_packed_locator_reads_one_record(self, ca):
        store = _store()
        sn = store.write(_records(4)).sn
        assert store.read(f"0:{sn}:2").records == (_records(4)[2],)

    def test_single_record_vr_signs_the_chained_hash(self):
        store = _store()
        receipt = store.write([b"one record"])
        assert receipt.vrd.datasig.field("data_hash") \
            == chained_hash([b"one record"])
        assert store.read(_at(receipt.sn, 0)).record_path.siblings == ()

    def test_deleted_vr_drops_its_tree(self):
        store = _store()
        sn = store.write(_records(4), retention_seconds=1.0).sn
        store.scpu.clock.advance(5.0)
        store.maintenance()
        assert store.vrdt.record_path(sn, 0) == ()
        assert store.read(_at(sn, 3)).status == "deleted"


class TestIndexPastTheVr:
    def test_the_store_rejects_it(self):
        store = _store()
        sn = store.write(_records(3)).sn
        with pytest.raises(ShardRoutingError, match="past SN"):
            store.read(_at(sn, 3))

    def test_read_record_gets_the_stores_error(self, ca):
        sharded = ShardedWormStore.build(
            shard_count=1, keyring=demo_keyring(),
            config=StoreConfig(group_commit_size=4))
        service = WormService(sharded, ca=ca,
                              tenants=[TenantConfig("t", rate=100.0,
                                                    burst=100)])
        response = service.handle(ServiceRequest(
            "write_batch", "t", {"payloads": _records(2)}))
        scoped = response.body["locators"][1]
        past = scoped[:-1] + "2"
        with pytest.raises(ShardRoutingError):
            sharded.read_record(past.split("/", 1)[1])
        for op in ("read", "read_verified"):
            # The tenant never owned the past-the-end locator.
            answer = service.handle(ServiceRequest(op, "t",
                                                   {"locator": past}))
            assert answer.status >= 400 and answer.problem is not None
            good = service.handle(ServiceRequest(op, "t",
                                                 {"locator": scoped}))
            assert good.body["payload"] == _records(2)[1]


class TestCost:
    @pytest.mark.parametrize("count", [1, 2, 8, 64])
    def test_a_locator_read_is_one_block_and_log_hashes(self, count, ca,
                                                        hash_counter):
        store = _store()
        client = store.make_client(ca)
        sn = store.write(_records(count)).sn
        client.verify_read(store.read(_at(sn, 0)), _at(sn, 0))  # warm memo
        gets = []
        real_get = store.blocks.get
        store.blocks.get = lambda key: gets.append(key) or real_get(key)
        disk_ops = store.disk.meter.operation_count
        index = count - 1
        hash_counter.calls = 0
        result = store.read(_at(sn, index))
        assert len(gets) == 1
        assert store.disk.meter.operation_count - disk_ops == 1
        assert hash_counter.calls == 0  # the store serves stored nodes
        client.verify_read(result, _at(sn, index))
        bound = math.ceil(math.log2(count)) + 2
        assert hash_counter.calls <= bound

    def test_whole_vr_verify_hashes_each_payload_once_under_merkle(
            self, ca, hash_counter):
        store = _store("merkle")
        client = store.make_client(ca)
        sn = store.write(_records(8)).sn
        client.verify_read(store.read(sn), sn)  # warm the signature memo
        hash_counter.calls = 0
        client.verify_read(store.read(sn), sn)
        assert hash_counter.calls == 8 + 7 + 1  # leaves, inner nodes, seal

    def test_write_path_adds_only_card_tree_hashing(self):
        store = _store()
        records = _records(8)
        store.write(records)
        host_ops = store.host.meter.by_operation()
        assert "sha" not in host_ops  # the leaves come from the card
        nbytes = sum(len(record) for record in records)
        tree = data_tree(records)
        assert store.scpu.meter.by_operation()["sha"] == pytest.approx(
            store.scpu.profile.sha_seconds(nbytes + tree.node_bytes,
                                           store.scpu.hash_block_size))
        assert store.disk.meter.by_operation() == _store_disk_ops(records)


def _store_disk_ops(records):
    """The disk charges of the same write on a fresh store: payloads
    and the VRDT append, nothing for the tree."""
    reference = _store()
    for record in records:
        reference.disk.write(len(record), sequential=True)
    reference.disk.write(256, sequential=True)
    return reference.disk.meter.by_operation()


class TestTreesAreUntrustedState:
    def test_vrdt_snapshot_round_trips_the_nodes(self, ca):
        store = _store()
        sn = store.write(_records(6)).sn
        restored = VrdTable.from_dict(store.vrdt.to_dict())
        for index in range(6):
            assert restored.record_path(sn, index) \
                == store.vrdt.record_path(sn, index)

    def test_a_corrupted_node_fails_verification_not_the_store(self, ca):
        store = _store()
        client = store.make_client(ca)
        sn = store.write(_records(4)).sn
        tree = store.vrdt._trees[sn]
        leaves = tree.levels[0]
        forged = leaves[:32] + bytes(32) + leaves[64:]  # leaf 1 zeroed
        store.vrdt._trees[sn] = hashing.DataTree(
            levels=(forged,) + tree.levels[1:], root=tree.root)
        result = store.read(_at(sn, 0))  # serving still works
        with pytest.raises(VerificationError):
            client.verify_read(result, _at(sn, 0))
        assert client.verify_read(store.read(_at(sn, 2)), _at(sn, 2))

    def test_inactive_record_is_not_served_by_read_record(self):
        sharded = ShardedWormStore.build(
            shard_count=1, keyring=demo_keyring(),
            config=StoreConfig(group_commit_size=2))
        receipts = sharded.write_batch(_records(2), retention_seconds=1.0)
        sharded.advance_clocks(5.0)
        sharded.maintenance()
        with pytest.raises(WormError, match="not active"):
            sharded.read_record(receipts[1].locator)
