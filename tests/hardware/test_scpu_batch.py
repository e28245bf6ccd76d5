"""Batched SCPU entry points: one crossing, results identical to singular.

The hot-path campaign's contract: ``*_batch`` calls amortize the
host↔card round trip (one :meth:`OpMeter.crossing` per batch) while
charging byte-identical per-item virtual costs, so calibration against
the paper's Table 2 is untouched — only the crossing count shrinks.
"""

import pytest

from repro import demo_keyring
from repro.faults.wrappers import FaultyScpu
from repro.hardware.pool import ScpuPool
from repro.hardware.scpu import SecureCoprocessor, Strength


@pytest.fixture
def pair():
    """Two cards on one keyring: batch on one, singular on the other."""
    keyring = demo_keyring()
    return (SecureCoprocessor(keyring=keyring),
            SecureCoprocessor(keyring=keyring))


class TestBatchEquivalence:
    def test_hash_batch_matches_singular(self, pair):
        batched, singular = pair
        chunk_lists = [[b"alpha", b"beta"], [b"gamma"], [b""]]
        trees = batched.hash_record_data_batch(chunk_lists)
        assert [tree.root for tree in trees] == [
            singular.hash_record_data(chunks) for chunks in chunk_lists]
        assert batched.meter.crossings == 1
        assert singular.meter.crossings == len(chunk_lists)
        # Identical per-item charges: only the round-trip count differs.
        assert batched.meter.total_seconds == pytest.approx(
            singular.meter.total_seconds)
        assert batched.meter.bytes_crossed == singular.meter.bytes_crossed

    def test_issue_serial_numbers_consecutive_one_crossing(self):
        scpu = SecureCoprocessor(keyring=demo_keyring())
        first = scpu.issue_serial_number()
        before = scpu.meter.crossings
        sns = scpu.issue_serial_numbers(3)
        assert sns == [first + 1, first + 2, first + 3]
        assert scpu.current_serial_number == first + 3
        assert scpu.meter.crossings == before + 1

    def test_issue_serial_numbers_rejects_negative(self):
        scpu = SecureCoprocessor(keyring=demo_keyring())
        with pytest.raises(ValueError):
            scpu.issue_serial_numbers(-1)
        assert scpu.issue_serial_numbers(0) == []

    def test_witness_write_batch_matches_singular(self, pair):
        batched, singular = pair
        items = [(1, b"attr-one", b"h" * 20), (2, b"attr-two", b"g" * 20)]
        pairs = batched.witness_write_batch(items, strength=Strength.STRONG)
        assert batched.meter.crossings == 1
        for (sn, attr_bytes, data_hash), (metasig, datasig) in zip(items,
                                                                   pairs):
            lone_meta, lone_data = singular.witness_write(
                sn, attr_bytes, data_hash, strength=Strength.STRONG)
            assert metasig.signature == lone_meta.signature
            assert datasig.signature == lone_data.signature
        assert singular.meter.crossings == len(items)
        assert batched.meter.total_seconds == pytest.approx(
            singular.meter.total_seconds)

    def test_strengthen_batch_matches_singular(self, pair):
        batched, singular = pair
        weak = [batched.witness_write(sn, b"a", b"h" * 20,
                                      strength=Strength.WEAK)[0]
                for sn in (1, 2)]
        marks = (batched.meter.crossings, batched.meter.total_seconds)
        strong = batched.strengthen_batch(weak)
        assert batched.meter.crossings == marks[0] + 1
        lone = [singular.strengthen(signed) for signed in weak]
        assert [s.signature for s in strong] == [s.signature for s in lone]
        s_fp = batched.public_keys()["s"].fingerprint()
        assert all(s.key_fingerprint == s_fp for s in strong)

    def test_strengthen_batch_fails_fast(self, pair):
        batched, _ = pair
        import dataclasses
        good = batched.witness_write(1, b"a", b"h" * 20,
                                     strength=Strength.WEAK)[0]
        forged = dataclasses.replace(good,
                                     signature=b"\x00" * len(good.signature))
        with pytest.raises(ValueError):
            batched.strengthen_batch([good, forged])

    def test_verify_envelope_batch_matches_singular(self, pair):
        batched, singular = pair
        key = batched.public_keys()["s"]
        good = batched.witness_write(1, b"a", b"h" * 20,
                                     strength=Strength.STRONG)[0]
        import dataclasses
        bad = dataclasses.replace(good,
                                  signature=b"\x00" * len(good.signature))
        before = batched.meter.crossings
        results = batched.verify_envelope_batch([(good, key), (bad, key)])
        assert results == [True, False]
        assert batched.meter.crossings == before + 1
        assert results == [singular.verify_envelope(good, key),
                           singular.verify_envelope(bad, key)]


class TestBatchSurfacePropagation:
    """Wrappers and pools must forward the batched entry points."""

    def test_pool_serves_batches_from_worker_cards(self):
        pool = ScpuPool.build(2, keyring=demo_keyring())
        digests = pool.hash_record_data_batch([[b"a"], [b"b"]])
        assert len(digests) == 2
        assert sum(card.meter.crossings for card in pool.cards) == 1

    def test_pool_authority_issues_sn_batches(self):
        pool = ScpuPool.build(2, keyring=demo_keyring())
        assert pool.issue_serial_numbers(4) == [1, 2, 3, 4]
        assert pool.current_serial_number == 4

    def test_faulty_wrapper_forwards_batches(self):
        scpu = SecureCoprocessor(keyring=demo_keyring())
        wrapped = FaultyScpu(scpu)
        assert [tree.root for tree in wrapped.hash_record_data_batch(
            [[b"a"]])] == [scpu.hash_record_data([b"a"])]
        # A real attribute (not __getattr__): the op is fault-gateable.
        assert "hash_record_data_batch" in type(wrapped).__dict__

    def test_singular_call_gated_as_batch_op(self):
        """``strengthen(x)`` is a batch of one: a plan on
        ``strengthen_batch`` drops it before it reaches the card."""
        from repro.core.errors import ScpuUnavailableError
        from repro.faults.plan import FaultPlan

        scpu = SecureCoprocessor(keyring=demo_keyring())
        weak = scpu.witness_write(1, b"a", b"h" * 20,
                                  strength=Strength.WEAK)[0]
        crossings = scpu.meter.crossings
        plan = FaultPlan().transient(op="strengthen_batch", after_ops=1,
                                     count=9)
        with pytest.raises(ScpuUnavailableError):
            FaultyScpu(scpu, plan).strengthen(weak)
        assert scpu.meter.crossings == crossings
        assert plan.injected["transient"] == 1

    def test_retrying_wrapper_forwards_batches(self, store):
        sns = store.scpu_rt.issue_serial_numbers(2)
        assert len(sns) == 2
        assert "strengthen_batch" in type(store.scpu_rt).__dict__
