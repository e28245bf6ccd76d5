"""Ablation — deletion-window compaction bounds VRDT storage (§4.2.1).

When a store mixes regulations, records expire *out of insertion order*,
so per-record deletion proofs pile up inside the live window.  §4.2.1's
answer: replace any contiguous run of ≥3 expired SNs with two signed
window bounds, and advance ``SN_base`` past fully expired prefixes.

This benchmark drives a mixed-retention workload to expiry and compares
the VRDT footprint with and without the compaction maintenance, and
counts what compaction costs the SCPU (proof verifications + 2 signatures
per window — cheap, and spent during idle periods).
"""

from __future__ import annotations

import pytest

from repro.core.worm import StrongWormStore
from repro.hardware.scpu import SecureCoprocessor
from repro.sim.metrics import format_table

from conftest import fresh_keyring_copy

_RECORDS = 120


def _mixed_retention_store(keyring):
    """Interleaved short/long retentions → out-of-order expiry."""
    store = StrongWormStore(
        scpu=SecureCoprocessor(keyring=fresh_keyring_copy(keyring)))
    for i in range(_RECORDS):
        # Runs of 9 short-lived records punctuated by one long-lived
        # record every 10th — prefixes can't fully expire, so proofs
        # accumulate inside the window unless compacted.
        retention = 1e9 if i % 10 == 9 else 10.0 + (i % 3)
        store.write([b"r" * 128], retention_seconds=retention)
    store.scpu.clock.advance(60.0)
    store.retention.tick(store.now)
    return store


@pytest.fixture(scope="module")
def compaction(paper_keyring):
    uncompacted = _mixed_retention_store(paper_keyring)
    compacted = _mixed_retention_store(paper_keyring)
    before_bytes = uncompacted.vrdt.estimated_bytes()
    scpu_mark = compacted.scpu.meter.checkpoint()
    windows_created = compacted.auth.windows.compact_expired_runs()
    compacted.auth.windows.try_advance_base()
    scpu_cost = compacted.scpu.meter.delta(scpu_mark)
    return {
        "uncompacted": uncompacted,
        "compacted": compacted,
        "before_bytes": before_bytes,
        "windows_created": windows_created,
        "scpu_cost": scpu_cost,
    }


def test_compaction_table(compaction, benchmark, paper_keyring):
    uncompacted = compaction["uncompacted"]
    compacted = compaction["compacted"]
    rows = [
        ["uncompacted", str(uncompacted.vrdt.proof_count()),
         str(len(uncompacted.vrdt.deletion_windows)),
         f"{uncompacted.vrdt.estimated_bytes()}"],
        ["compacted", str(compacted.vrdt.proof_count()),
         str(len(compacted.vrdt.deletion_windows)),
         f"{compacted.vrdt.estimated_bytes()}"],
    ]
    print()
    print(format_table(
        ["state", "stored proofs", "windows", "VRDT bytes"], rows,
        title=(f"Window compaction — {_RECORDS} mixed-retention records, "
               f"{compaction['windows_created']} windows created, "
               f"SCPU cost {compaction['scpu_cost'] * 1000:.1f} ms")))
    benchmark.pedantic(_mixed_retention_store, args=(paper_keyring,),
                       rounds=1, iterations=1)


def test_storage_reduced(compaction, benchmark):
    assert (compaction["compacted"].vrdt.estimated_bytes()
            < 0.5 * compaction["uncompacted"].vrdt.estimated_bytes())
    benchmark(lambda: None)


def test_proofs_replaced_by_windows(compaction, benchmark):
    compacted = compaction["compacted"]
    # Runs of 9 expired records → compacted; proofs mostly gone.
    assert compacted.vrdt.proof_count() < 0.2 * (_RECORDS * 0.9)
    assert len(compacted.vrdt.deletion_windows) >= _RECORDS // 10 - 2
    benchmark(lambda: None)


def test_compaction_cost_is_idle_scale(compaction, benchmark):
    """The whole compaction pass costs well under a second of SCPU time —
    affordable in any idle period (verifications dominate, not signing)."""
    assert compaction["scpu_cost"] < 0.5
    benchmark(lambda: None)


def test_reads_still_provable_after_compaction(compaction, benchmark):
    """Every expired SN remains provably deleted after its proof was
    expelled — via the covering window (or the advanced base)."""
    from repro.crypto.keys import CertificateAuthority
    compacted = compaction["compacted"]
    ca = CertificateAuthority(bits=512)
    client = compacted.make_client(ca)
    compacted.auth.windows.refresh_current(force=True)
    for sn in range(1, compacted.scpu.current_serial_number + 1):
        verified = client.verify_read(compacted.read(sn), sn)
        assert verified.status in ("active", "deleted")
    benchmark(lambda: None)
