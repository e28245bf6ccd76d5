"""Unit tests for window management (§4.2.1)."""

import pytest

from repro.core.windows import WindowManager


def _write(store, retention=1000.0):
    return store.write([b"payload"], retention_seconds=retention)


def _expire_prefix(store, count, retention=10.0):
    """Write *count* records with short retention and expire them."""
    receipts = [_write(store, retention=retention) for _ in range(count)]
    store.scpu.clock.advance(retention + 1.0)
    store.retention.tick(store.now)
    return receipts


class TestFreshness:
    def test_refresh_only_when_stale(self, store):
        first = store.auth.windows.refresh_current()
        again = store.auth.windows.refresh_current()
        assert again is first  # not re-signed within the interval

    def test_refresh_after_interval(self, store):
        first = store.auth.windows.refresh_current()
        store.scpu.clock.advance(store.auth.windows.refresh_interval + 1.0)
        second = store.auth.windows.refresh_current()
        assert second is not first
        assert second.timestamp > first.timestamp

    def test_forced_refresh(self, store):
        first = store.auth.windows.refresh_current()
        second = store.auth.windows.refresh_current(force=True)
        assert second is not first

    def test_write_does_not_resign_within_interval(self, store):
        before = store.auth.windows.refresh_count
        for _ in range(5):
            _write(store)
        assert store.auth.windows.refresh_count == before

    def test_base_resigned_before_expiry(self, store):
        first = store.auth.windows.refresh_base()
        store.scpu.clock.advance(store.auth.windows.base_validity)
        second = store.auth.windows.refresh_base()
        assert second is not first

    def test_invalid_parameters_rejected(self, store):
        with pytest.raises(ValueError):
            WindowManager(store.scpu, store.vrdt, refresh_interval=0.0)
        with pytest.raises(ValueError):
            WindowManager(store.scpu, store.vrdt, compaction_threshold=2)


class TestBaseAdvancement:
    def test_advances_over_expired_prefix(self, store):
        _expire_prefix(store, 3)
        survivor = _write(store)
        assert store.auth.windows.try_advance_base()
        assert store.scpu.sn_base == survivor.sn
        # Proofs below the base were expelled.
        assert store.vrdt.proof_count() == 0

    def test_no_advance_when_prefix_active(self, store):
        _write(store)
        _expire_prefix(store, 2)
        assert not store.auth.windows.try_advance_base()
        assert store.scpu.sn_base == 1

    def test_no_advance_on_empty_prefix(self, store):
        _write(store)
        assert not store.auth.windows.try_advance_base()

    def test_advance_to_frontier_when_all_expired(self, store):
        _expire_prefix(store, 4)
        assert store.auth.windows.try_advance_base()
        assert store.scpu.sn_base == store.scpu.current_serial_number + 1

    def test_advance_uses_window_evidence(self, store):
        _expire_prefix(store, 5)
        store.auth.windows.compact_expired_runs()
        assert store.vrdt.proof_count() == 0  # proofs replaced by a window
        assert store.auth.windows.try_advance_base()
        assert store.vrdt.deletion_windows == []  # window now redundant


class TestCompaction:
    def test_compacts_runs_of_three(self, store):
        _write(store, retention=1e9)  # anchor keeps base at 1
        _expire_prefix(store, 3)
        created = store.auth.windows.compact_expired_runs()
        assert created == 1
        window = store.vrdt.deletion_windows[0]
        assert window.high_sn - window.low_sn + 1 == 3
        assert store.vrdt.proof_count() == 0

    def test_short_runs_not_compacted(self, store):
        _write(store, retention=1e9)
        _expire_prefix(store, 2)
        assert store.auth.windows.compact_expired_runs() == 0
        assert store.vrdt.proof_count() == 2

    def test_limit_bounds_work_per_slice(self, store):
        _write(store, retention=1e9)
        _expire_prefix(store, 3)
        _write(store, retention=1e9)  # gap
        _expire_prefix(store, 3)
        assert store.auth.windows.compact_expired_runs(limit=1) == 1
        assert store.auth.windows.compact_expired_runs(limit=1) == 1
        assert len(store.vrdt.deletion_windows) == 2


class TestClassification:
    def test_all_cases(self, store):
        active = _write(store, retention=1e9)
        expired = _write(store, retention=5.0)
        store.scpu.clock.advance(10.0)
        store.retention.tick(store.now)

        assert store.auth.windows.classify(active.sn) == "active"
        assert store.auth.windows.classify(expired.sn) == "deletion-proof"
        assert store.auth.windows.classify(
            store.scpu.current_serial_number + 1) == "never-allocated"

    def test_below_base_classification(self, store):
        _expire_prefix(store, 3)
        _write(store, retention=1e9)
        store.auth.windows.try_advance_base()
        assert store.auth.windows.classify(1) == "below-base"

    def test_window_classification(self, store):
        _write(store, retention=1e9)
        _expire_prefix(store, 3)
        store.auth.windows.compact_expired_runs()
        assert store.auth.windows.classify(2) == "deletion-window"

    def test_missing_classification_on_corruption(self, store):
        receipt = _write(store)
        del store.vrdt._active[receipt.sn]  # insider wipes the slot
        assert store.auth.windows.classify(receipt.sn) == "missing"
