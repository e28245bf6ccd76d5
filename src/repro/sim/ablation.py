"""Three-way authentication-scheme ablation (DESIGN §12, PAPER §2.3/§4.1).

One measurement core shared by the committed benchmark suite
(``benchmarks/test_ablation_auth_schemes.py``) and :mod:`repro.perf`,
which generates and gates ``BENCH_ablation_auth_<scheme>.json``, so the
numbers in those artifacts and the assertions in the tests come from
the same code path.

For each scheme selectable via ``StoreConfig.auth_scheme`` the ablation
grows a store to several sizes and samples, at each size:

* **SCPU virtual seconds per write** — the scarce resource the paper's
  O(1) windows defend against Merkle's O(log n) root re-signing; the
  accumulator's trapdoor update is O(1) too but pays a signature per
  write rather than an amortized refresh;
* **proof latency** — host + disk (+ SCPU, asserted ~0: reads are
  SCPU-free by design in all three schemes) virtual seconds to serve
  one steady-state active read, with the accumulator directory's
  one-time cold-witness catch-up reported separately;
* **proof size** — serialized bytes of the membership proof
  (fixed for windows and the accumulator, O(log n) for Merkle paths);
* **state size** — resident bytes of the scheme-owned authentication
  structure (signed bounds vs tree nodes vs value + witness cache).

All numbers are virtual-time results from the device cost model, so
they are deterministic across machines for a fixed keyring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import StoreConfig
from repro.core.worm import StrongWormStore
from repro.hardware.scpu import ScpuKeyring, SecureCoprocessor

__all__ = ["DEFAULT_SIZES", "MEASURED_WRITES", "PAYLOAD_BYTES",
           "build_store", "measure_point", "run_auth_ablation"]

#: Store sizes (records already committed) at which costs are sampled.
DEFAULT_SIZES: Sequence[int] = (64, 512, 4096)

#: Writes averaged per sample point.
MEASURED_WRITES = 32

#: Payload bytes per record (small, so signatures dominate hashing).
PAYLOAD_BYTES = 64


def _keyring_copy(keyring: ScpuKeyring) -> ScpuKeyring:
    """Shallow copy so per-store burst rotation can't cross-contaminate."""
    return ScpuKeyring(s_key=keyring.s_key, d_key=keyring.d_key,
                       burst_key=keyring.burst_key, hmac=keyring.hmac)


def build_store(scheme: str, keyring: ScpuKeyring) -> StrongWormStore:
    """A fresh store running *scheme*, on its own copy of *keyring*."""
    return StrongWormStore(
        scpu=SecureCoprocessor(keyring=_keyring_copy(keyring)),
        config=StoreConfig(auth_scheme=scheme))


def measure_point(scheme: str, keyring: ScpuKeyring, prefill: int,
                  measured: int = MEASURED_WRITES,
                  payload: int = PAYLOAD_BYTES) -> Dict[str, float]:
    """Grow one store to *prefill* records, then sample all four costs."""
    store = build_store(scheme, keyring)
    blob = b"x" * payload
    for _ in range(prefill):
        store.write([blob], retention_seconds=1e9)

    mark = store.scpu.meter.checkpoint()
    for _ in range(measured):
        store.write([blob], retention_seconds=1e9)
    scpu_per_write = store.scpu.meter.delta(mark) / measured

    # Read a mid-store record — a typical leaf (full-height Merkle path;
    # the freshest leaf sits on the tree's unpaired right spine and
    # would under-report proof size).  The first read is cold: the
    # accumulator's witness directory catches the cached witness up to
    # the current value (host-side Bézout/exponent work — the cost it
    # trades for O(1) SCPU reads); the second read is the steady state.
    def _read_cost(sn):
        marks = (store.scpu.meter.checkpoint(),
                 store.host.meter.checkpoint(),
                 store.disk.meter.checkpoint())
        result = store.read(sn)
        return result, {
            "scpu": store.scpu.meter.delta(marks[0]),
            "host": store.host.meter.delta(marks[1]),
            "disk": store.disk.meter.delta(marks[2]),
        }

    target = prefill // 2 + 1
    _, cold = _read_cost(target)
    result, warm = _read_cost(target)

    return {
        "store_size": prefill + measured,
        "scpu_seconds_per_write": scpu_per_write,
        "read_seconds": sum(warm.values()),
        "read_scpu_seconds": cold["scpu"] + warm["scpu"],
        "witness_catchup_seconds": max(0.0, sum(cold.values())
                                       - sum(warm.values())),
        "proof_bytes": store.auth.proof_size_bytes(result.proof),
        "state_bytes": store.auth.state_size_bytes(),
    }


def run_auth_ablation(scheme: str, keyring: ScpuKeyring,
                      sizes: Optional[Sequence[int]] = None,
                      measured: int = MEASURED_WRITES,
                      payload: int = PAYLOAD_BYTES) -> Dict[str, object]:
    """The full per-scheme sweep, shaped for a ``BENCH_*.json`` artifact."""
    sizes = list(DEFAULT_SIZES if sizes is None else sizes)
    points: List[Dict[str, float]] = [
        measure_point(scheme, keyring, n, measured=measured, payload=payload)
        for n in sizes]
    return {
        "benchmark": "ablation_auth_scheme",
        "scheme": scheme,
        "key_bits": keyring.s_key.bits,
        "payload_bytes": payload,
        "measured_writes": measured,
        "prefill_sizes": sizes,
        "points": points,
    }
