"""Ablation — the deletion-window compaction threshold (§4.2.1's "3 or more").

The paper fixes the minimum compactable run at 3 expired VRs.  Why 3?  A
window costs two stored signatures (plus a random window ID) and two SCPU
signatures to create; a run of length L frees L stored deletion proofs.
At L=2 the storage trade is a wash (2 proofs out, 2 bound signatures in)
while still costing SCPU verifications + signatures — strictly a loss; at
L=3 it begins to pay.  This ablation sweeps the threshold over a
mixed-retention workload and reports stored bytes and SCPU cost, showing
3 as the break-even the paper chose.
"""

from __future__ import annotations

import pytest

from repro.core.windows import WindowManager
from repro.core.worm import StrongWormStore
from repro.hardware.scpu import SecureCoprocessor
from repro.sim.metrics import format_table

from conftest import fresh_keyring_copy

_THRESHOLDS = [3, 5, 9]
_RECORDS = 100


def _store_with_mixed_expiry(keyring, threshold):
    store = StrongWormStore(
        scpu=SecureCoprocessor(keyring=fresh_keyring_copy(keyring)))
    store.auth.windows.compaction_threshold = threshold
    for i in range(_RECORDS):
        # Expired-run lengths cycle 2,4,6,8 between long-lived anchors,
        # so different thresholds compact different subsets.
        cycle = (i % 22)
        long_lived = cycle in (0, 3, 8, 15)
        store.write([b"r" * 64],
                    retention_seconds=1e9 if long_lived else 10.0)
    store.scpu.clock.advance(60.0)
    store.retention.tick(store.now)
    return store


@pytest.fixture(scope="module")
def sweep(paper_keyring):
    rows = {}
    for threshold in _THRESHOLDS:
        store = _store_with_mixed_expiry(paper_keyring, threshold)
        mark = store.scpu.meter.checkpoint()
        windows = store.auth.windows.compact_expired_runs()
        scpu_cost = store.scpu.meter.delta(mark)
        rows[threshold] = {
            "windows": windows,
            "proofs_left": store.vrdt.proof_count(),
            "bytes": store.vrdt.estimated_bytes(),
            "scpu_ms": scpu_cost * 1000,
        }
    return rows


def test_threshold_sweep_table(sweep, benchmark):
    rows = [[str(t), str(r["windows"]), str(r["proofs_left"]),
             str(r["bytes"]), f"{r['scpu_ms']:.1f}"]
            for t, r in sweep.items()]
    print()
    print(format_table(
        ["threshold", "windows", "proofs left", "VRDT bytes", "SCPU ms"],
        rows, title="Compaction threshold ablation (mixed expiry runs)"))
    benchmark(lambda: None)


def test_lower_threshold_fewer_stored_proofs(sweep, benchmark):
    proofs = [sweep[t]["proofs_left"] for t in _THRESHOLDS]
    assert proofs == sorted(proofs)  # higher threshold → more proofs remain
    benchmark(lambda: None)


def test_lower_threshold_smaller_table(sweep, benchmark):
    sizes = [sweep[t]["bytes"] for t in _THRESHOLDS]
    assert sizes == sorted(sizes)
    benchmark(lambda: None)


def test_paper_minimum_is_enforced(benchmark, paper_keyring):
    """Thresholds below 3 are rejected outright — a window of 2 never pays."""
    store = StrongWormStore(
        scpu=SecureCoprocessor(keyring=fresh_keyring_copy(paper_keyring)))
    with pytest.raises(ValueError):
        WindowManager(store.scpu, store.vrdt, compaction_threshold=2)
    benchmark(lambda: None)
