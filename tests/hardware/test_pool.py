"""Tests for multi-SCPU pools."""

import pytest

from repro import demo_keyring
from repro.core.worm import StrongWormStore
from repro.crypto.keys import CertificateAuthority
from repro.hardware.pool import ScpuPool
from repro.hardware.scpu import SecureCoprocessor, Strength
from repro.hardware.tamper import TamperedError
from repro.sim.manual_clock import ManualClock


@pytest.fixture
def pool():
    clock = ManualClock()
    return ScpuPool.build(3, keyring=demo_keyring(), clock=clock)


class TestPoolBasics:
    def test_build_shares_keys(self, pool):
        fps = {card.public_keys()["s"].fingerprint() for card in pool.cards}
        assert len(fps) == 1
        assert pool.size == 3

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ScpuPool([])

    def test_mismatched_keyrings_rejected(self):
        a = SecureCoprocessor(keyring=demo_keyring())
        b = SecureCoprocessor(keyring=demo_keyring())
        with pytest.raises(ValueError, match="share"):
            ScpuPool([a, b])

    def test_serial_numbers_single_authority(self, pool):
        sns = [pool.issue_serial_number() for _ in range(5)]
        assert sns == [1, 2, 3, 4, 5]
        # Only card 0 holds the counter.
        assert pool.cards[0].current_serial_number == 5
        assert pool.cards[1]._sn_counter == 0

    def test_work_round_robins(self, pool):
        for _ in range(6):
            sn = pool.issue_serial_number()
            pool.witness_write(sn, b"a", b"h", strength=Strength.STRONG)
        costs = pool.per_card_cost_seconds()
        # Signing spread across all three cards.
        assert all(cost > 0 for cost in costs)
        assert max(costs) < 3 * min(costs)

    def test_any_cards_signature_verifies(self, pool):
        sn = pool.issue_serial_number()
        metasig, _ = pool.witness_write(sn, b"a", b"h")
        s_pub = pool.public_keys()["s"]
        assert pool.verify_envelope(metasig, s_pub)


class TestPoolResilience:
    def test_survives_card_loss(self, pool):
        pool.cards[1].tamper.trip()
        sn = pool.issue_serial_number()
        metasig, datasig = pool.witness_write(sn, b"a", b"h")
        assert metasig is not None
        assert pool.tampered_cards == [1]

    def test_authority_failover(self, pool):
        pool.issue_serial_number()
        pool.cards[0].tamper.trip()
        # The SN counter died with card 0 — the paper's single-authority
        # model restarts allocation from the surviving card's counter,
        # which is why deployments mirror the counter; here we just
        # assert the pool stays alive for witnessing.
        sn = pool.issue_serial_number()
        assert sn >= 1
        assert pool.tampered_cards == [0]

    def test_all_cards_dead(self, pool):
        for card in pool.cards:
            card.tamper.trip()
        with pytest.raises(TamperedError):
            pool.issue_serial_number()

    def test_burst_rotation_retires_everywhere(self, pool):
        old_fp = pool.public_keys()["burst"].fingerprint()
        pool.rotate_burst_key(None, weak_bits=512)
        for card in pool.cards:
            assert old_fp in card._retired_burst_fingerprints

    def test_burst_rotation_resolves_authority_once(self, pool):
        # Regression: rotate_burst_key used to call _authority() three
        # times; a tamper trip between the calls could split the rotation
        # steps across two different cards.  It must pin one card.
        calls = []
        original = pool._authority

        def counting_authority():
            calls.append(1)
            return original()

        pool._authority = counting_authority
        pool.rotate_burst_key(None, weak_bits=512)
        assert len(calls) == 1


class TestPoolBackedStore:
    def test_store_runs_on_a_pool(self, pool, ca):
        store = StrongWormStore(scpu=pool)
        client = store.make_client(ca)
        receipt = store.write([b"pooled record"], policy="sox",
                              strength=Strength.WEAK)
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert verified.status == "active"
        store.maintenance()
        verified = client.verify_read(store.read(receipt.sn), receipt.sn)
        assert not verified.weakly_signed

    def test_pool_spreads_store_load(self, pool):
        store = StrongWormStore(scpu=pool)
        for i in range(9):
            store.write([bytes([i])], policy="sox")
        costs = pool.per_card_cost_seconds()
        assert all(cost > 0 for cost in costs)

    def test_receipts_count_every_cards_work(self):
        # Worker cards sign and hash too; the receipts must include them.
        pool = ScpuPool.build(2, keyring=demo_keyring(), clock=ManualClock())
        store = StrongWormStore(scpu=pool)
        before = pool.total_cost_seconds()
        receipts = [store.write([bytes(1000)]) for _ in range(6)]
        assert sum(r.costs["scpu"] for r in receipts) == pytest.approx(
            pool.total_cost_seconds() - before)
        assert pool.meter.crossings == sum(
            card.meter.crossings for card in pool.cards)

    def test_full_lifecycle_on_pool(self, pool, ca):
        store = StrongWormStore(scpu=pool)
        client = store.make_client(ca)
        brief = store.write([b"brief"], retention_seconds=5.0)
        keeper = store.write([b"keeper"], policy="ferpa")
        pool.clock.advance(10.0)
        store.maintenance()
        assert client.verify_read(store.read(brief.sn),
                                  brief.sn).status == "deleted"
        assert client.verify_read(store.read(keeper.sn),
                                  keeper.sn).status == "active"
