"""Clock-drift tolerance: the §4.2.2 footnote, stress-tested.

Clients need only a "(roughly) synchronized time server"; the SCPU clock
is accurate but physically independent.  These tests pin down how much
skew the freshness machinery tolerates — and that implausible skews are
rejected rather than absorbed.
"""

import pytest

from repro import StrongWormStore, demo_keyring
from repro.core.errors import FreshnessError
from repro.hardware.scpu import SecureCoprocessor
from repro.sim.clock import ScpuClock, SimulationClock
from repro.sim.manual_clock import ManualClock


class _OffsetClock:
    """A client clock running a fixed offset from the store clock."""

    def __init__(self, source, offset: float) -> None:
        self._source = source
        self._offset = offset

    @property
    def now(self) -> float:
        return self._source.now + self._offset


class TestClientSkew:
    def _store_and_ca(self, ca):
        store = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
        return store

    def test_small_lag_tolerated(self, ca):
        store = self._store_and_ca(ca)
        store.scpu.clock.advance(1000.0)
        store.auth.windows.refresh_current(force=True)
        client = store.make_client(
            ca, clock=_OffsetClock(store.scpu.clock, -30.0))
        receipt = store.write([b"x"], retention_seconds=1e9)
        assert client.verify_read(store.read(receipt.sn),
                                  receipt.sn).status == "active"
        # Freshness-sensitive reads too.
        assert client.verify_read(store.read(999), 999).status == \
            "never-allocated"

    def test_small_lead_tolerated(self, ca):
        store = self._store_and_ca(ca)
        store.scpu.clock.advance(1000.0)
        store.auth.windows.refresh_current(force=True)
        client = store.make_client(
            ca, clock=_OffsetClock(store.scpu.clock, 45.0))
        assert client.verify_read(store.read(999), 999).status == \
            "never-allocated"

    def test_client_far_behind_rejects_future_constructs(self, ca):
        store = self._store_and_ca(ca)
        store.scpu.clock.advance(1000.0)
        store.auth.windows.refresh_current(force=True)
        lagging = store.make_client(
            ca, clock=_OffsetClock(store.scpu.clock, -600.0))
        with pytest.raises(FreshnessError, match="future"):
            lagging.verify_read(store.read(999), 999)

    def test_client_far_ahead_sees_staleness(self, ca):
        store = self._store_and_ca(ca)
        store.auth.windows.refresh_current(force=True)
        leading = store.make_client(
            ca, clock=_OffsetClock(store.scpu.clock, 10_000.0))
        with pytest.raises(FreshnessError, match="old"):
            leading.verify_read(store.read(999), 999)


class TestScpuDrift:
    def test_realistic_drift_invisible(self):
        """FIPS-grade drift (ppm) never approaches the freshness window."""
        source = SimulationClock()
        drifty = ScpuClock(source, drift_rate=20e-6)  # 20 ppm
        source._advance_to(30 * 24 * 3600.0)          # a month
        skew = abs(drifty.now - source.now)
        assert skew < 60.0  # under a minute per month — inside tolerance

    def test_offset_plus_drift_composes(self):
        source = SimulationClock()
        clock = ScpuClock(source, drift_rate=1e-6, offset=5.0)
        source._advance_to(1_000_000.0)
        assert clock.now == pytest.approx(1_000_000.0 + 5.0 + 1.0)
