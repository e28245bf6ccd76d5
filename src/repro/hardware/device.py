"""Device plumbing: operation metering and timed resource adapters.

The functional layer (crypto, WORM logic) and the timing layer (discrete-
event simulation) are deliberately decoupled:

* every functional device operation reports its *virtual cost* in seconds
  (from the Table 2 calibration) into an :class:`OpMeter`;
* simulation drivers replay those costs onto :class:`TimedDevice` objects
  — FIFO resources in a :class:`~repro.sim.engine.Simulator` — so
  queueing and contention determine throughput.

This keeps unit tests of protocol logic free of simulator machinery while
making benchmark timing a faithful queueing model rather than wall-clock
noise.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.sim.engine import Simulator

if TYPE_CHECKING:  # annotation-only: keeps this module dependency-light
    from repro.crypto.envelope import SignedEnvelope
    from repro.crypto.hashing import DataTree
    from repro.crypto.keys import Certificate, CertificateAuthority
    from repro.hardware.scpu import WrappedKey

__all__ = ["OpMeter", "ScpuLike", "TimedDevice"]


class OpMeter:
    """Accumulates the virtual cost of operations on one device.

    ``checkpoint()``/``delta()`` let callers measure the cost of a
    protocol step that spans several device operations (e.g., one WORM
    write = DMA + hash + two signatures).  The meter keeps per-name
    totals and a count, not one record per charge, so it stays the same
    size however long the device runs.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, float] = {}
        self._count = 0
        self._total = 0.0
        self._crossings = 0
        self._bytes_crossed = 0

    def charge(self, name: str, seconds: float) -> float:
        """Record an operation; returns *seconds* for call-site chaining."""
        if seconds < 0:
            raise ValueError(f"negative cost for {name}: {seconds}")
        self._by_name[name] = self._by_name.get(name, 0.0) + seconds
        self._count += 1
        self._total += seconds
        return seconds

    def crossing(self, nbytes: int = 0) -> None:
        """Count one host↔device boundary round trip carrying *nbytes*.

        Crossings are the amortization target of the batching API: the
        virtual-time cost model stays calibrated per operation, while
        this counter exposes how many separate trips across the trust
        boundary a protocol step required — the quantity batched entry
        points exist to shrink.
        """
        self._crossings += 1
        self._bytes_crossed += nbytes

    @property
    def crossings(self) -> int:
        """Host↔device round trips counted so far."""
        return self._crossings

    @property
    def bytes_crossed(self) -> int:
        """Payload bytes carried across the boundary so far."""
        return self._bytes_crossed

    @property
    def total_seconds(self) -> float:
        """Total virtual seconds charged since construction."""
        return self._total

    @property
    def operation_count(self) -> int:
        """Operations charged so far."""
        return self._count

    def checkpoint(self) -> float:
        """Opaque marker for :meth:`delta`."""
        return self._total

    def delta(self, checkpoint: float) -> float:
        """Virtual seconds charged since *checkpoint*."""
        return self._total - checkpoint

    def by_operation(self) -> Dict[str, float]:
        """Total seconds grouped by operation name."""
        return dict(self._by_name)

    def reset(self) -> None:
        """Clear all totals (benchmark warm-up boundaries)."""
        self._by_name.clear()
        self._count = 0
        self._total = 0.0
        self._crossings = 0
        self._bytes_crossed = 0


@runtime_checkable
class ScpuLike(Protocol):
    """The SCPU service surface the WORM layer programs against.

    Both a single :class:`~repro.hardware.scpu.SecureCoprocessor` and an
    :class:`~repro.hardware.pool.ScpuPool` satisfy this protocol, so a
    :class:`~repro.core.worm.StrongWormStore` (and therefore every layer
    above it) is constructed over "an SCPU" without caring whether that
    is one card or several sharing a keyring.  The protocol is the
    paper's trust-boundary interface: everything here runs inside (or is
    mediated by) the tamper-responding enclosure.  It declares every op
    of :data:`~repro.hardware.scpu.CARD_OPS` plus the six singular
    helpers of :class:`~repro.hardware.scpu.BatchOfOne` (each a batch of
    one, so the card itself is batch-only).

    ``@runtime_checkable`` only checks member *presence* on
    ``isinstance``; it is documentation plus a static-typing contract,
    not a behavioral guarantee.
    """

    # -- clock, calibration, metering --------------------------------------
    @property
    def now(self) -> float: ...

    @property
    def clock(self) -> object: ...

    @property
    def profile(self) -> object: ...

    @property
    def hash_block_size(self) -> int: ...

    @property
    def tamper(self) -> object: ...

    @property
    def meter(self) -> "OpMeter": ...

    # -- serial-number authority -------------------------------------------
    def issue_serial_number(self) -> int: ...

    def issue_serial_numbers(self, count: int) -> List[int]: ...

    @property
    def current_serial_number(self) -> int: ...

    @property
    def sn_base(self) -> int: ...

    def advance_sn_base(self, new_base: int,
                        proofs: Dict[int, "SignedEnvelope"],
                        windows: Iterable[Tuple["SignedEnvelope",
                                                "SignedEnvelope"]] = ()
                        ) -> "SignedEnvelope": ...

    # -- witnessing and signing ---------------------------------------------
    def hash_record_data(self, chunks: Iterable[bytes]) -> bytes: ...

    def verify_deferred_hash(self, chunks: Iterable[bytes],
                             claimed: bytes) -> bool: ...

    def witness_write(self, sn: int, attr_bytes: bytes, data_hash: bytes,
                      strength: str = ...
                      ) -> Tuple["SignedEnvelope", "SignedEnvelope"]: ...

    def strengthen(self, signed: "SignedEnvelope") -> "SignedEnvelope": ...

    def verify_own_hmac(self, signed: "SignedEnvelope") -> bool: ...

    def verify_envelope(self, signed: "SignedEnvelope",
                        public_key: object) -> bool: ...

    # -- batched entry points (one boundary crossing, per-item costs) --------
    def hash_record_data_batch(
            self, chunk_lists: Iterable[Iterable[bytes]]
    ) -> List["DataTree"]: ...

    def witness_write_batch(
            self, items: Iterable[Tuple[int, bytes, bytes]],
            strength: str = ...
    ) -> List[Tuple["SignedEnvelope", "SignedEnvelope"]]: ...

    def strengthen_batch(
            self, signed_seq: Iterable["SignedEnvelope"]
    ) -> List["SignedEnvelope"]: ...

    def verify_deferred_hash_batch(
            self, items: Iterable[Tuple[Iterable[bytes], bytes]]
    ) -> List[bool]: ...

    def verify_envelope_batch(
            self, pairs: Iterable[Tuple["SignedEnvelope", object]]
    ) -> List[bool]: ...

    def resign_metadata(self, sn: int,
                        attr_bytes: bytes) -> "SignedEnvelope": ...

    def make_deletion_proof(self, sn: int) -> "SignedEnvelope": ...

    def compact_deletion_window(
            self, low_sn: int, high_sn: int,
            proofs: Dict[int, "SignedEnvelope"]
    ) -> Tuple["SignedEnvelope", "SignedEnvelope"]: ...

    def sign_sn_current(self, sn_current: int) -> "SignedEnvelope": ...

    def sign_sn_base(self,
                     validity_seconds: float = ...) -> "SignedEnvelope": ...

    def verify_regulator_credential(self, credential: "SignedEnvelope",
                                    regulator_key: object, sn: int,
                                    max_age_seconds: float = ...) -> bool: ...

    def sign_migration_manifest(self, manifest_hash: bytes, record_count: int,
                                sn_base: int,
                                sn_current: int) -> "SignedEnvelope": ...

    # -- pluggable authentication backends ------------------------------------
    def sign_merkle_root(self, root: bytes, size: int,
                         path_nodes: int) -> "SignedEnvelope": ...

    def accumulator_bootstrap(self, labels: Tuple[str, ...] = ...,
                              bits: Optional[int] = None) -> None: ...

    def accumulator_add(self, label: str, sn: int) -> int: ...

    def accumulator_remove(self, label: str, sn: int) -> int: ...

    def accumulator_witness(self, label: str, sn: int) -> int: ...

    def accumulator_sign_value(self, label: str) -> "SignedEnvelope": ...

    # -- key management / client trust bootstrap -----------------------------
    def public_keys(self) -> Dict[str, object]: ...

    def certify_with(self, ca: "CertificateAuthority"
                     ) -> Dict[str, "Certificate"]: ...

    def rotate_burst_key(self, ca: Optional["CertificateAuthority"] = None,
                         weak_bits: int = ...) -> Optional["Certificate"]: ...

    def attest(self) -> "SignedEnvelope": ...

    # -- crypto-shredding epochs and enclave-to-enclave key transport -------
    @property
    def current_epoch(self) -> int: ...

    def wrap_key(self, dek: bytes) -> "WrappedKey": ...

    def unwrap_key(self, wrapped: "WrappedKey") -> bytes: ...

    def rotate_epoch(self, survivors: Iterable["WrappedKey"]
                     ) -> List["WrappedKey"]: ...

    def key_transport_public(
            self, ca: Optional["CertificateAuthority"] = None
    ) -> Tuple[object, Optional["Certificate"]]: ...

    def export_deks(self, wrapped: Dict[int, "WrappedKey"], dest_public: object,
                    dest_certificate: Optional["Certificate"],
                    ca_root_key: object) -> Dict: ...

    def import_deks(self, bundle: Dict) -> Dict[int, "WrappedKey"]: ...


class TimedDevice:
    """A device as a FIFO simulation resource.

    ``capacity`` > 1 models a pool (e.g., several SCPUs — the paper notes
    results "naturally scale if multiple SCPUs are available").
    """

    def __init__(self, sim: Simulator, name: str, capacity: int = 1) -> None:
        self.sim = sim
        self.name = name
        self.resource = sim.resource(capacity=capacity, name=name)

    @property
    def capacity(self) -> int:
        return self.resource.capacity

    def use(self, seconds: float) -> Generator:
        """Process-generator: hold one device slot for *seconds*.

        Zero-cost operations skip the queue entirely (no device involved).
        Usage: ``yield from device.use(cost)``.
        """
        if seconds < 0:
            raise ValueError(f"negative service time: {seconds}")
        if seconds == 0.0:
            return
        request = self.resource.request()
        yield request
        try:
            yield self.sim.timeout(seconds)
        finally:
            self.resource.release(request)

    def utilization(self, elapsed: float) -> float:
        """Busy fraction over *elapsed* virtual seconds."""
        return self.resource.utilization(elapsed)
