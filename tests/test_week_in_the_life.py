"""A week in the life of a compliance store — long-horizon integration.

Seven simulated business days of diurnal traffic (quiet nights, steady
days, an end-of-day archival burst absorbed with deferred signatures),
with nightly maintenance.  At the end, the whole store must audit clean,
every weak construct must have been strengthened inside its lifetime,
and the burst latencies must reflect §4.3's absorption claim.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.audit import StoreAuditor
from repro.crypto.keys import CertificateAuthority
from repro.hardware.scpu import Strength
from repro.sim.driver import SimulationConfig, make_sim_store, run_open_loop
from repro.sim.workload import DiurnalArrivals, RetentionSampler, UniformSize


@pytest.fixture(scope="module")
def week():
    config = SimulationConfig(strengthen_when_idle=True,
                              maintenance_interval=300.0)
    simstore = make_sim_store(config=config, keyring=demo_keyring())
    simstore.store.auth.windows.refresh_interval = 120.0
    workload = DiurnalArrivals(
        size_dist=UniformSize(256, 8192),
        days=7,
        night_rate=0.01,
        day_rate=0.02,
        burst_rate=250.0,
        burst_seconds=8.0,
        retention=RetentionSampler(profiles=((30 * 24 * 3600.0, 0.2),
                                             (5 * 365 * 24 * 3600.0, 0.8))),
        seed=99,
    )
    metrics = run_open_loop(
        simstore, workload, config=config,
        horizon=7 * 24 * 3600.0 + 3600.0,
        write_kwargs={"strength": Strength.WEAK, "defer_data_hash": True})
    return simstore, metrics


class TestWeekInTheLife:
    def test_volume_is_a_real_week(self, week):
        simstore, metrics = week
        # 7 EOD bursts of ~2k writes dominate; plus day/night trickle.
        assert metrics.count("write") > 15_000
        assert simstore.sim.now >= 7 * 24 * 3600.0

    def test_bursts_absorbed_with_low_latency(self, week):
        _, metrics = week
        summary = metrics.latency_summary("write")
        # 250/s bursts against ~2100/s deferred capacity: no pile-up.
        assert summary["p99"] < 0.5
        assert summary["max"] < 5.0

    def test_all_constructs_strengthened_in_time(self, week):
        simstore, metrics = week
        store = simstore.store
        assert store.strengthening.lifetime_violations == 0
        # The backlog never outlives the week's final idle stretch.
        assert len(store.strengthening) == 0
        assert store.strengthening.strengthened_count == metrics.count("write")

    def test_all_deferred_hashes_verified_clean(self, week):
        simstore, _ = week
        store = simstore.store
        assert len(store.hash_verification) == 0
        assert store.hash_verification.mismatches == []

    def test_store_audits_clean_after_the_week(self, week):
        simstore, _ = week
        store = simstore.store
        ca = CertificateAuthority(bits=512)
        client = store.make_client(ca)
        store.auth.windows.refresh_current(force=True)
        # Sample-audit 500 SNs across the week (a full sweep of 50k+
        # records is run in the dedicated benchmark).
        frontier = store.scpu.current_serial_number
        step = max(1, frontier // 500)
        for sn in range(1, frontier + 1, step):
            verified = client.verify_read(store.read(sn), sn)
            assert verified.status in ("active", "deleted")

    def test_scpu_was_never_the_bottleneck_off_burst(self, week):
        simstore, _ = week
        # Across the whole week the card is mostly idle — the §4.1 point
        # that sparse SCPU access leaves capacity for bursts.
        assert simstore.scpu_dev.utilization(simstore.sim.now) < 0.25
