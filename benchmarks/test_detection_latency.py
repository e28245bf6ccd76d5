"""Operational security — how fast does auditing catch an insider?

Theorems 1 and 2 guarantee tampering is *detectable*; operationally what
matters is detection **latency**: the gap between the insider's act and
the first failed verification.  Two consumer behaviours bound it:

* **read-triggered**: a client touching the tampered record detects it
  immediately — latency is the record's inter-read time;
* **audit-triggered**: a scheduled full sweep (the
  :class:`~repro.core.audit.StoreAuditor`) bounds worst-case latency by
  the audit period, independent of read traffic.

This benchmark tampers with random records at random (virtual) times
under a periodic audit schedule and measures the discovery-delay
distribution — the operational complement to the paper's theorems.
"""

from __future__ import annotations

import random

import pytest

from repro.core.audit import StoreAuditor
from repro.core.worm import StrongWormStore
from repro.crypto.keys import CertificateAuthority
from repro.hardware.scpu import SecureCoprocessor
from repro.sim.metrics import format_table, summarize_latencies

from conftest import fresh_keyring_copy

_AUDIT_PERIOD = 3600.0       # hourly sweeps
_TRIALS = 24


@pytest.fixture(scope="module")
def latencies(paper_keyring):
    rng = random.Random(1234)
    ca = CertificateAuthority(bits=512)
    delays = []
    for _ in range(_TRIALS):
        store = StrongWormStore(
            scpu=SecureCoprocessor(keyring=fresh_keyring_copy(paper_keyring)))
        client = store.make_client(ca, freshness_window=2 * _AUDIT_PERIOD)
        receipts = [store.write([bytes([i]) * 64], retention_seconds=1e9)
                    for i in range(8)]
        # The insider strikes at a random offset into the audit period.
        strike_offset = rng.uniform(0.0, _AUDIT_PERIOD)
        victim = rng.choice(receipts)
        store.scpu.clock.advance(strike_offset)
        store.blocks.unchecked_overwrite(victim.vrd.rdl[0].key,
                                         b"\xff" * 64)
        strike_time = store.now
        # Audits run on the hour; find the first that detects.
        detected_at = None
        for sweep in range(1, 4):
            next_audit = sweep * _AUDIT_PERIOD
            if next_audit < strike_time:
                continue
            store.scpu.clock.advance(next_audit - store.now)
            store.auth.windows.refresh_current(force=True)
            report = StoreAuditor(store, client).sweep()
            if not report.clean:
                detected_at = store.now
                break
        assert detected_at is not None, "audit never caught the tamper"
        delays.append(detected_at - strike_time)
    return delays


def test_detection_latency_table(latencies, benchmark):
    summary = summarize_latencies(latencies)
    rows = [[k, f"{v:.0f}"] for k, v in summary.items()]
    print()
    print(format_table(
        ["statistic", "seconds"], rows,
        title=(f"Detection latency under hourly audits "
               f"({_TRIALS} insider strikes)")))
    benchmark(lambda: None)


def test_latency_bounded_by_audit_period(latencies, benchmark):
    """Worst case: caught by the first sweep after the strike."""
    assert max(latencies) <= _AUDIT_PERIOD + 1.0
    benchmark(lambda: None)


def test_mean_latency_about_half_period(latencies, benchmark):
    """Strikes are uniform in the period → mean delay ≈ period/2."""
    mean = sum(latencies) / len(latencies)
    assert 0.25 * _AUDIT_PERIOD < mean < 0.75 * _AUDIT_PERIOD
    benchmark(lambda: None)


def test_read_triggered_detection_is_immediate(paper_keyring, benchmark):
    ca = CertificateAuthority(bits=512)
    store = StrongWormStore(
        scpu=SecureCoprocessor(keyring=fresh_keyring_copy(paper_keyring)))
    client = store.make_client(ca)
    receipt = store.write([b"watched record"], retention_seconds=1e9)
    store.blocks.unchecked_overwrite(receipt.vrd.rdl[0].key, b"tampered!!!!!!")
    from repro.core.errors import VerificationError
    with pytest.raises(VerificationError):
        client.verify_read(store.read(receipt.sn), receipt.sn)
    benchmark(lambda: None)
