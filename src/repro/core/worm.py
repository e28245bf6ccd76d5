"""The Strong WORM store — the paper's record-level WORM layer (§4).

:class:`StrongWormStore` composes every piece of the architecture:

* the **SCPU** (trusted witness, §4.1) — involved in *updates only*;
* the **host CPU** and **disk** cost models (untrusted, fast);
* the **block store** and **VRDT** (untrusted state);
* the **authentication scheme** (pluggable via ``config.auth_scheme``:
  the paper's O(1) windows, a Merkle tree, or an RSA accumulator — see
  :mod:`repro.core.auth`);
* the **retention monitor** with its VEXP list (§4.2.2);
* the **deferred-strengthening queues** (§4.3).

The store itself is *main-CPU code*: it is not trusted, and nothing about
its in-process bookkeeping provides security.  All assurances flow from
the SCPU-signed constructs it stores and serves; the
:class:`~repro.core.client.WormClient` checks them.  The adversary tests
bypass this class entirely and mutate the underlying state, exactly like
an insider with physical access.

Every operation meters its virtual cost onto the SCPU / host / disk cost
models; :class:`WriteReceipt.costs` carries the per-device breakdown so
the simulation benchmarks can replay contention in virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.auth import AuthenticationScheme, create_scheme
from repro.core.client import WormClient
from repro.core.config import StoreConfig
from repro.core.deferred import HashVerificationQueue, StrengtheningQueue
from repro.core.errors import (
    CredentialError,
    LitigationHoldError,
    ShardRoutingError,
    UnknownSerialNumberError,
    WormError,
)
from repro.core.locator import RecordLocator, resolve_locator
from repro.core.policy import PolicyRegistry
from repro.core.proofs import ReadResult, RecordPath
from repro.core.retention import RetentionMonitor
from repro.core.retry import RetryExecutor, RetryingScpu, RetryPolicy, RetryStats
from repro.core.shredding import shred
from repro.crypto.envelope import Purpose, SignedEnvelope
from repro.crypto.keys import Certificate, CertificateAuthority, security_lifetime
from repro.hardware.device import ScpuLike
from repro.hardware.disk import DiskDevice
from repro.obs.bus import NULL_BUS
from repro.hardware.host import HostCPU
from repro.hardware.scpu import SecureCoprocessor, Strength, StrengtheningError
from repro.storage.block_store import BlockStore, MemoryBlockStore
from repro.storage.record import RecordAttributes, RecordDescriptor
from repro.storage.vrd import VirtualRecordDescriptor
from repro.storage.vrdt import VrdTable

__all__ = ["StrongWormStore", "WriteReceipt", "Strength"]

#: Strengthening target for HMAC-witnessed records (seconds).  HMACs do
#: not weaken cryptographically, but they are client-unverifiable, so the
#: system aims to upgrade them within the same horizon as weak signatures.
HMAC_STRENGTHEN_TARGET = 3600.0


@dataclass(frozen=True)
class WriteReceipt:
    """What a write returns: the new VRD and its virtual-cost breakdown."""

    sn: int
    vrd: VirtualRecordDescriptor
    strength: str
    costs: Dict[str, float] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return sum(self.costs.values())


class StrongWormStore:
    """One WORM store: an SCPU-augmented storage server (§2.2 deployment)."""

    def __init__(self,
                 scpu: Optional[ScpuLike] = None,
                 block_store: Optional[BlockStore] = None,
                 host: Optional[HostCPU] = None,
                 disk: Optional[DiskDevice] = None,
                 policies: Optional[PolicyRegistry] = None,
                 regulator_public_key=None,
                 window_refresh_interval: Optional[float] = None,
                 vexp_capacity: Optional[int] = None,
                 strengthen_safety_factor: Optional[float] = None,
                 config: Optional[StoreConfig] = None) -> None:
        """Build a store from a :class:`StoreConfig` and/or legacy kwargs.

        Prefer ``StrongWormStore(config=StoreConfig(...))``.  The
        individual keyword arguments predate :class:`StoreConfig` and are
        kept for back-compat (deprecated for new code); when both are
        given, an explicitly passed keyword overrides the config field.
        """
        config = config if config is not None else StoreConfig()
        config = config.with_overrides(
            scpu=scpu, block_store=block_store, host=host, disk=disk,
            policies=policies, regulator_public_key=regulator_public_key,
            window_refresh_interval=window_refresh_interval,
            vexp_capacity=vexp_capacity,
            strengthen_safety_factor=strengthen_safety_factor)
        self.config = config
        self.scpu = config.scpu if config.scpu is not None else SecureCoprocessor()
        self.blocks = (config.block_store if config.block_store is not None
                       else MemoryBlockStore())
        self.host = config.host if config.host is not None else HostCPU()
        self.disk = config.disk if config.disk is not None else DiskDevice()
        self.policies = (config.policies if config.policies is not None
                         else PolicyRegistry())
        self.regulator_public_key = config.regulator_public_key
        self.obs = (config.observe if config.observe is not None
                    else NULL_BUS)

        # Transient SCPU faults (a dropped bus request, a firmware
        # hiccup) are retried with capped backoff; tamper trips are
        # permanent and escalate immediately.  ``self.scpu`` stays the
        # raw device the caller handed us; every internal trust-boundary
        # call goes through the retrying view instead.
        self.retry = RetryExecutor(
            config.retry_policy if config.retry_policy is not None
            else RetryPolicy(),
            clock=self.scpu.clock, obs=self.obs)
        self._scpu_rt = RetryingScpu(self.scpu, self.retry)

        self.vrdt = VrdTable()
        # The authentication scheme is selected purely by config; unknown
        # names raise UnknownAlgorithmError here, at construction.
        self.auth: AuthenticationScheme = create_scheme(config.auth_scheme,
                                                        self)
        # Back-compat alias: under the default scheme, ``store.windows``
        # remains the live WindowManager (pre-scheme tooling pokes it
        # directly); other schemes have no window manager.
        self.windows = getattr(self.auth, "windows", None)
        self.retention = RetentionMonitor(self, vexp_capacity=config.vexp_capacity)
        self.strengthening = StrengtheningQueue(
            self, safety_factor=config.strengthen_safety_factor, obs=self.obs)
        self.hash_verification = HashVerificationQueue(self, obs=self.obs)
        if self.obs.enabled:
            self._wire_telemetry()

        self._burst_certificates: List[Certificate] = []
        self._rm_process = None  # simulation-mode retention process

        # Publish the scheme's initial signed state so even an empty
        # store can prove "never allocated" to clients.
        self.auth.bootstrap()

    # ------------------------------------------------------------- telemetry

    def _wire_telemetry(self) -> None:
        """Connect this store's components to the shared telemetry bus.

        The ``device.*`` counters are read from the three meters and
        backlog depths are pull-gauges, both at snapshot time; the
        store's own counters and latency histograms are declared up front
        because their names are part of the exported-snapshot API.
        """
        for device, meter in (("scpu", self.scpu.meter),
                              ("host", self.host.meter),
                              ("disk", self.disk.meter)):
            self.obs.register_counter(
                f"device.{device}.ops",
                partial(getattr, meter, "operation_count"))
            self.obs.register_counter(
                f"device.{device}.seconds",
                partial(getattr, meter, "total_seconds"))
        self.obs.register_gauge("strengthen.backlog",
                                self.strengthening.active_backlog)
        self.obs.register_gauge(
            "strengthen.overdue",
            lambda: float(self.strengthening.overdue_count(self.now)))
        self.obs.register_gauge(
            "hashverify.backlog",
            lambda: float(len(self.hash_verification)))
        for name in ("store.writes", "store.writes.strong",
                     "store.writes.weak", "store.writes.hmac",
                     "store.reads", "store.expired", "store.shreds",
                     "maintenance.runs"):
            self.obs.declare_counter(name)
        self.obs.declare_histogram("op.write.seconds")
        self.obs.declare_histogram("op.read.seconds")

    def _emit_op_spans(self, label: str, costs: Dict[str, float]) -> None:
        """One span per device that did work for this operation.

        Spans start at the operation's (virtual) completion time and run
        for the device's share — a per-device attribution lane in the
        Chrome trace, not a queueing-accurate schedule (the simulator's
        own TraceRecorder provides that).
        """
        now = self.now
        for device, cost in costs.items():
            if cost > 0.0:
                self.obs.span(label, device, now, now + cost, device=device)

    def telemetry_snapshot(self) -> Dict[str, object]:
        """The store's bus snapshot (empty structure when unobserved)."""
        return self.obs.snapshot()

    # ------------------------------------------------------------------ utils

    @property
    def now(self) -> float:
        """Store time (the SCPU clock; hosts are roughly synchronized)."""
        return self.scpu.now

    @property
    def auth_scheme(self) -> str:
        """Name of the configured authentication scheme ("windows", ...)."""
        return self.auth.name

    @property
    def scpu_rt(self) -> RetryingScpu:
        """The retry-gated SCPU view — how store-layer code calls the card.

        ``self.scpu`` stays the raw device for identity/ownership checks;
        every *service* call from the WORM layer goes through this view so
        transient bus faults retry with backoff and tamper trips escalate
        exactly once (wormlint W003 enforces this in ``repro.core``).
        """
        return self._scpu_rt

    def _resolve_sn(self, sn) -> Tuple[int, Optional[int]]:
        """Normalize an SN argument: int, packed locator, or locator.

        Returns the serial number and the record index a locator names
        (``None`` for a bare serial number).  A standalone store is
        shard 0 of a one-shard deployment, so the packed locators its
        callers wrote down (``"0:41:0"``) route here uniformly with the
        sharded front-end.  A locator naming any other shard is a
        routing error, not a silent misread.
        """
        if isinstance(sn, bool) or not isinstance(sn, (int, str,
                                                       RecordLocator)):
            raise ShardRoutingError(
                f"cannot address a record by {sn!r}; pass a serial "
                "number, a RecordLocator, or a packed locator string")
        if isinstance(sn, int):
            return sn, None
        resolved = resolve_locator(sn)
        if resolved.shard_id != 0:
            raise ShardRoutingError(
                f"locator {resolved.pack()} names shard "
                f"{resolved.shard_id}; a standalone store serves shard 0")
        return resolved.sn, resolved.record_index

    def _cost_checkpoints(self) -> Tuple[float, float, float]:
        return (self.scpu.meter.checkpoint(), self.host.meter.checkpoint(),
                self.disk.meter.checkpoint())

    def _cost_delta(self, marks: Tuple[float, float, float]) -> Dict[str, float]:
        return {
            "scpu": self.scpu.meter.delta(marks[0]),
            "host": self.host.meter.delta(marks[1]),
            "disk": self.disk.meter.delta(marks[2]),
        }

    # ------------------------------------------------------------------- write

    def write(self, records: Sequence[bytes],
              policy: str = "default",
              retention_seconds: Optional[float] = None,
              strength: str = Strength.STRONG,
              defer_data_hash: bool = False,
              shared_rds: Sequence[RecordDescriptor] = (),
              mac_label: str = "", dac_owner: str = "",
              f_flag: int = 0) -> WriteReceipt:
        """Commit a virtual record to WORM storage (§4.2.2 Write).

        *records* are this VR's physical records in order: each element
        is either a new payload (``bytes``) or a
        :class:`~repro.storage.record.RecordDescriptor` referencing an
        already-stored record to share (the popular-attachment sharing of
        §4.2 — overlapping VRs, stored once).  *shared_rds* is a
        convenience that prepends shared descriptors before *records*.
        ``strength`` selects the witnessing mode of §4.3;
        ``defer_data_hash`` additionally lets the (untrusted) host
        compute the data hash during the burst, to be verified by the
        SCPU at idle time.

        Returns a :class:`WriteReceipt` with the per-device virtual-cost
        breakdown of exactly this operation.
        """
        if isinstance(records, (bytes, bytearray)):
            raise TypeError("pass a sequence of record payloads, e.g. [data]")
        if not records and not shared_rds:
            raise WormError("a virtual record needs at least one data record")
        marks = self._cost_checkpoints()
        regulation = self.policies.get(policy)
        retention = regulation.effective_retention(retention_seconds)

        # 1. Main CPU writes the new payloads to untrusted storage;
        #    shared descriptors are validated and referenced in place.
        rdl: List[RecordDescriptor] = []
        for item in (*shared_rds, *records):
            if isinstance(item, RecordDescriptor):
                if item.key not in self.blocks:
                    raise WormError(
                        f"shared record {item.key!r} is not in the store")
                rdl.append(item)
                continue
            key = self.retry.call("block_store.put", self.blocks.put,
                                  item)
            self.disk.write(len(item), sequential=True)
            self.host.memcpy_cost(len(item))
            rdl.append(RecordDescriptor(key=key, length=len(item)))

        # 2. Hash the VR's data tree — on the SCPU (DMA + card SHA) or, in
        #    the weaker burst mode, on the host with deferred verification.
        #    New payloads are hashed as the caller passed them, so datasig
        #    covers what was sent, not what the block store kept; only
        #    shared records are read back.
        chunks = [self.retry.call("block_store.get", self.blocks.get,
                                  item.key)
                  if isinstance(item, RecordDescriptor) else item
                  for item in (*shared_rds, *records)]
        if defer_data_hash:
            tree = self.host.hash_record_data(chunks)
        else:
            tree = self._scpu_rt.hash_record_data_batch([chunks])[0]
        data_hash = tree.root

        # 3. SCPU allocates the SN and witnesses the update.
        sn = self._scpu_rt.issue_serial_number()
        attr = RecordAttributes(
            created_at=self.now,
            retention_seconds=retention,
            policy=regulation.name,
            shredding_algorithm=regulation.shredding_algorithm,
            mac_label=mac_label,
            dac_owner=dac_owner,
            f_flag=f_flag,
        )
        metasig, datasig = self._scpu_rt.witness_write(
            sn, attr.canonical_bytes(), data_hash, strength=strength)

        # 4. Main CPU materializes the VRD into the VRDT.
        vrd = VirtualRecordDescriptor(sn=sn, attr=attr, rdl=tuple(rdl),
                                      metasig=metasig, datasig=datasig,
                                      data_hash=data_hash)
        self.vrdt.insert_active(vrd, tree)
        self.host.table_touch()
        self.disk.write(256, sequential=True)  # VRDT log append

        # 5. Bookkeeping: retention alarm, deferred queues, freshness.
        previous_head = self.retention.next_expiry()
        self.retention.on_write(sn, attr.expires_at)
        if self._rm_process is not None and (
                previous_head is None or attr.expires_at < previous_head):
            self._rm_process.interrupt("earlier-expiry")
        if strength == Strength.WEAK:
            self.strengthening.enqueue(
                sn, self.now, security_lifetime(metasig.key_bits))
        elif strength == Strength.HMAC:
            self.strengthening.enqueue(sn, self.now, HMAC_STRENGTHEN_TARGET)
        if defer_data_hash:
            self.hash_verification.enqueue(sn, self.now)
        self.auth.on_write(vrd)

        costs = self._cost_delta(marks)
        if self.obs.enabled:
            self.obs.inc("store.writes")
            self.obs.inc(f"store.writes.{strength}")
            self.obs.observe("op.write.seconds", sum(costs.values()))
            self._emit_op_spans("write", costs)
        return WriteReceipt(sn=sn, vrd=vrd, strength=strength, costs=costs)

    # -------------------------------------------------------------------- read

    def read(self, sn, record_index: Optional[int] = None) -> ReadResult:
        """Serve a read with its proof (§4.2.2 Read) — main CPU only.

        *sn* is a serial number, a :class:`RecordLocator`, or a packed
        locator string (``"0:41:0"`` — shard 0, uniformly with the
        sharded front-end).  A bare serial number reads the whole VR; a
        locator (or an explicit *record_index*) reads the one record it
        names — one block, plus that record's sibling path in the VR's
        data tree — and an index past the VR raises
        :class:`ShardRoutingError`.  The SCPU is never touched: proofs
        are the *stored* signed artifacts.  If those have gone stale (an
        idle store without its maintenance loop), clients will reject
        them — by design.
        """
        sn, located = self._resolve_sn(sn)
        if record_index is None:
            record_index = located
        if not self.obs.enabled:
            return self._serve_read(sn, record_index)
        marks = self._cost_checkpoints()
        result = self._serve_read(sn, record_index)
        costs = self._cost_delta(marks)
        self.obs.inc("store.reads")
        self.obs.observe("op.read.seconds", sum(costs.values()))
        self._emit_op_spans("read", costs)
        return result

    def _serve_read(self, sn: int,
                    record_index: Optional[int] = None) -> ReadResult:
        """The read path proper (see :meth:`read` for the contract)."""
        if sn < 1:
            raise UnknownSerialNumberError(f"serial numbers start at 1, got {sn}")
        self.host.table_touch()
        case = self.auth.classify(sn)
        if case == "missing":
            raise UnknownSerialNumberError(
                f"SN {sn} is inside the window but has no entry — VRDT corrupted")
        status, proof = self.auth.prove(sn, case)

        if status == "active":
            vrd = self.vrdt.get_active(sn)
            assert vrd is not None
            if record_index is None:
                served = vrd.rdl
                path = None
            elif 0 <= record_index < len(vrd.rdl):
                served = (vrd.rdl[record_index],)
                path = RecordPath(
                    index=record_index, count=len(vrd.rdl),
                    siblings=self.vrdt.record_path(sn, record_index))
            else:
                raise ShardRoutingError(
                    f"record index {record_index} is past SN {sn}'s "
                    f"{len(vrd.rdl)} records")
            payloads = []
            for rd in served:
                payloads.append(self.retry.call(
                    "block_store.get", self.blocks.get, rd.key))
                self.disk.read(rd.length)
            return ReadResult(sn=sn, status="active", proof=proof, vrd=vrd,
                              records=tuple(payloads), record_path=path)

        if case == "deletion-proof":
            self.disk.read(256)
        return ReadResult(sn=sn, status=status, proof=proof)

    def _stored_sn_current(self) -> SignedEnvelope:
        envelope = self.vrdt.sn_current_envelope
        if envelope is None:  # pragma: no cover - initialized in __init__
            raise WormError("no signed SN_current available")
        return envelope

    def _stored_sn_base(self) -> SignedEnvelope:
        envelope = self.vrdt.sn_base_envelope
        if envelope is None:  # pragma: no cover - initialized in __init__
            raise WormError("no signed SN_base available")
        return envelope

    # -------------------------------------------------------- expiry & deletion

    def expire_record(self, sn, now: float) -> str:
        """Delete a retention-expired record (called by the RM, §4.2.2).

        *sn* accepts the same serial-number / locator forms as
        :meth:`read`.  Returns ``"deleted"``, ``"held"`` (litigation
        hold), ``"premature"`` (not yet expired — the RM re-arms), or
        ``"already"`` (no longer active).
        """
        sn, _ = self._resolve_sn(sn)
        vrd = self.vrdt.get_active(sn)
        if vrd is None:
            return "already"
        if now < vrd.attr.expires_at:
            return "premature"
        if vrd.attr.litigation_hold and now < vrd.attr.litigation_timeout:
            return "held"

        # Shred payloads that no other active VR still references (this
        # VR itself holds one reference until mark_expired below).
        shredded = 0
        for rd in vrd.rdl:
            if self.vrdt.block_references(rd.key) > 1:
                continue
            if rd.key not in self.blocks:
                continue
            result = shred(self.blocks, rd.key, rd.length,
                           vrd.attr.shredding_algorithm)
            for _ in range(result.passes):
                self.disk.write(rd.length)
            shredded += 1

        proof = self.auth.witness_deletion(sn)
        self.vrdt.mark_expired(sn, proof)
        self.strengthening.note_deleted(sn)
        self.host.table_touch()
        self.disk.write(256, sequential=True)
        if self.obs.enabled:
            self.obs.inc("store.expired")
            if shredded:
                self.obs.inc("store.shreds", shredded)
            self.obs.event("record.expired", now, sn=sn, shredded=shredded)
        return "deleted"

    # ------------------------------------------------------------- litigation

    def _require_credential(self, sn: int, credential: SignedEnvelope) -> None:
        if self.regulator_public_key is None:
            raise CredentialError("store has no provisioned regulation authority")
        ok = self._scpu_rt.verify_regulator_credential(
            credential, self.regulator_public_key, sn)
        if not ok:
            raise CredentialError("litigation credential failed SCPU verification")

    def lit_hold(self, sn: int, credential: SignedEnvelope,
                 hold_timeout: float) -> VirtualRecordDescriptor:
        """Place a litigation hold on an active record (§4.2.2 Litigation).

        *credential* is the authority's ``S_reg(SN, current_time)``; the
        SCPU verifies it before altering attr and re-issuing metasig.
        The hold blocks deletion until *hold_timeout* even if retention
        expires first.
        """
        vrd = self.vrdt.get_active(sn)
        if vrd is None:
            raise UnknownSerialNumberError(f"SN {sn} is not active")
        self._require_credential(sn, credential)
        import hashlib
        cred_hash = hashlib.sha256(
            credential.envelope.canonical_bytes() + credential.signature).digest()
        new_attr = vrd.attr.with_hold(hold_timeout, cred_hash)
        metasig = self._scpu_rt.resign_metadata(sn, new_attr.canonical_bytes())
        updated = vrd.with_attr(new_attr, metasig)
        self.vrdt.replace_active(updated)
        self.auth.on_attr_change(updated)
        self.host.table_touch()
        self.disk.write(256, sequential=True)
        self.retention.vexp.remove(sn)
        self.retention.on_write(sn, max(new_attr.expires_at, hold_timeout))
        return updated

    def lit_release(self, sn: int, credential: SignedEnvelope
                    ) -> VirtualRecordDescriptor:
        """Release a litigation hold (only with a fresh authority credential)."""
        vrd = self.vrdt.get_active(sn)
        if vrd is None:
            raise UnknownSerialNumberError(f"SN {sn} is not active")
        if not vrd.attr.litigation_hold:
            raise LitigationHoldError(f"SN {sn} is not under a litigation hold")
        self._require_credential(sn, credential)
        new_attr = vrd.attr.with_release()
        metasig = self._scpu_rt.resign_metadata(sn, new_attr.canonical_bytes())
        updated = vrd.with_attr(new_attr, metasig)
        self.vrdt.replace_active(updated)
        self.auth.on_attr_change(updated)
        self.host.table_touch()
        self.disk.write(256, sequential=True)
        self.retention.vexp.remove(sn)
        self.retention.on_write(sn, new_attr.expires_at)
        return updated

    # ---------------------------------------------- deferred-queue callbacks

    def strengthen_vrds(self, sns: Sequence[int]) -> None:
        """Upgrade weak/HMAC-witnessed VRDs to strong signatures.

        Every record's metasig and datasig travel to the card in one
        ``strengthen_batch``: one boundary crossing for the lot.  If the
        card refuses a construct (:class:`StrengtheningError`), the
        records whose two constructs both came back strong are upgraded,
        and the error, re-raised, counts them in ``records_done``;
        nothing else is touched.  SNs no longer active are skipped.
        """
        vrds = [vrd for vrd in map(self.vrdt.get_active, sns)
                if vrd is not None]
        try:
            strong = self._scpu_rt.strengthen_batch(
                [signed for vrd in vrds for signed in (vrd.metasig,
                                                       vrd.datasig)])
        except StrengtheningError as exc:
            exc.records_done = len(exc.strengthened) // 2
            self._apply_strong(vrds[:exc.records_done], exc.strengthened)
            raise
        self._apply_strong(vrds, strong)

    def _apply_strong(self, vrds: Sequence[VirtualRecordDescriptor],
                      strong: Sequence[SignedEnvelope]) -> None:
        """Store each VRD with its strong (metasig, datasig) pair."""
        for vrd, metasig, datasig in zip(  # wormlint: disable=W009 - host-side table bookkeeping after the batch's one strengthen_batch crossing
                vrds, strong[0::2], strong[1::2]):
            self.vrdt.replace_active(vrd.with_signatures(metasig, datasig))
            self.host.table_touch()
            self.disk.write(256, sequential=True)

    def scpu_verify_metasig(self, vrd: VirtualRecordDescriptor) -> bool:
        """SCPU-side check of a VRDT entry's metasig (night scan)."""
        signed = vrd.metasig
        if signed.envelope.purpose != Purpose.METASIG:
            return False
        if signed.envelope.fields.get("sn") != vrd.sn:
            return False
        if signed.envelope.fields.get("attr") != vrd.attr.canonical_bytes():
            return False
        if signed.scheme == "hmac":
            return self._scpu_rt.verify_own_hmac(signed)
        publics = self._scpu_rt.public_keys()
        by_fingerprint = {key.fingerprint(): key
                          for key in (publics["s"], publics["burst"])}
        key = by_fingerprint.get(signed.key_fingerprint)
        if key is None:
            return False
        return self._scpu_rt.verify_envelope(signed, key)

    def scpu_verify_data_hashes(
            self, vrds: Sequence[VirtualRecordDescriptor]) -> List[bool]:
        """SCPU re-reads VRs' data and verifies their host-claimed hashes:
        every block is read first, then one card call checks them all."""
        items = []
        for vrd in vrds:
            chunks = []
            for rd in vrd.rdl:
                chunks.append(self.retry.call("block_store.get",
                                              self.blocks.get, rd.key))
                self.disk.read(rd.length)
            items.append((chunks, vrd.data_hash))
        return self._scpu_rt.verify_deferred_hash_batch(items)

    # ----------------------------------------------------------- maintenance

    def maintenance(self, strengthen_budget: Optional[int] = None,
                    verify_budget: Optional[int] = None,
                    compact: bool = True) -> Dict[str, int]:
        """One idle-period maintenance slice (§4.2.1/§4.3 "idle periods").

        Runs due expirations, drains the strengthening and
        hash-verification queues, then hands the authentication scheme
        its idle slice (freshness refresh; for the window scheme also
        compaction and base advancement).  Returns a summary of work done.
        """
        summary = {"expired": 0, "strengthened": 0, "hashes_verified": 0,
                   "windows_compacted": 0, "base_advanced": 0,
                   "night_scanned": 0}
        summary["expired"] = len(self.retention.tick(self.now))
        summary["strengthened"] = self.strengthening.drain(
            self.now, max_items=strengthen_budget)
        summary["hashes_verified"] = self.hash_verification.drain(
            max_items=verify_budget)
        summary.update(self.auth.maintenance(compact=compact))
        if self.retention.vexp.needs_rescan:
            summary["night_scanned"] = self.retention.night_scan(self.now)
        if self.obs.enabled:
            self.obs.inc("maintenance.runs")
            self.obs.event("maintenance", self.now, **summary)
        return summary

    # ------------------------------------------------------------- migration

    def import_record(self, attr: RecordAttributes,
                      payloads: Sequence[bytes]) -> WriteReceipt:
        """Re-witness a verified migrated record under this store's SCPU.

        Used only by :mod:`repro.core.migration`, *after* the destination
        SCPU has verified the source store's signatures over exactly this
        attr/data pair.  Unlike :meth:`write`, the original attributes —
        including ``created_at`` and any litigation hold — are preserved,
        so the retention clock keeps running across media generations
        (§1 Compliant Migration).
        """
        marks = self._cost_checkpoints()
        rdl: List[RecordDescriptor] = []
        for payload in payloads:
            key = self.retry.call("block_store.put", self.blocks.put,
                                  payload)
            self.disk.write(len(payload), sequential=True)
            self.host.memcpy_cost(len(payload))
            rdl.append(RecordDescriptor(key=key, length=len(payload)))
        tree = self._scpu_rt.hash_record_data_batch([payloads])[0]
        sn = self._scpu_rt.issue_serial_number()
        metasig, datasig = self._scpu_rt.witness_write(
            sn, attr.canonical_bytes(), tree.root, strength=Strength.STRONG)
        vrd = VirtualRecordDescriptor(sn=sn, attr=attr, rdl=tuple(rdl),
                                      metasig=metasig, datasig=datasig,
                                      data_hash=tree.root)
        self.vrdt.insert_active(vrd, tree)
        self.host.table_touch()
        self.disk.write(256, sequential=True)
        self.retention.on_write(
            sn, max(attr.expires_at,
                    attr.litigation_timeout if attr.litigation_hold else 0.0))
        self.auth.on_write(vrd)
        return WriteReceipt(sn=sn, vrd=vrd, strength=Strength.STRONG,
                            costs=self._cost_delta(marks))

    def import_records(self, items: Sequence[Tuple[RecordAttributes,
                                                   Sequence[bytes]]]
                       ) -> List[WriteReceipt]:
        """Batched :meth:`import_record` for bulk replay (recovery, drills).

        Hashing, SN issue, and witnessing each cross the SCPU boundary
        once for the whole batch rather than once per record; per-record
        crypto costs are unchanged and the batch's device costs are split
        evenly across the returned receipts.
        """
        if not items:
            return []
        marks = self._cost_checkpoints()
        rdls: List[Tuple[RecordDescriptor, ...]] = []
        total_bytes = 0
        for _, payloads in items:
            rdl: List[RecordDescriptor] = []
            for payload in payloads:
                key = self.retry.call("block_store.put", self.blocks.put,
                                      payload)
                total_bytes += len(payload)
                self.host.memcpy_cost(len(payload))
                rdl.append(RecordDescriptor(key=key, length=len(payload)))
            rdls.append(tuple(rdl))
        # Bulk replay lands as one sequential stream, not per-payload seeks.
        self.disk.write(total_bytes, sequential=True)
        trees = self._scpu_rt.hash_record_data_batch(
            [payloads for _, payloads in items])
        sns = self._scpu_rt.issue_serial_numbers(len(items))
        sig_pairs = self._scpu_rt.witness_write_batch(
            [(sn, attr.canonical_bytes(), tree.root)
             for sn, (attr, _), tree in zip(sns, items, trees)],
            strength=Strength.STRONG)
        vrds: List[VirtualRecordDescriptor] = []
        self.disk.write(256 * len(items), sequential=True)
        for sn, (attr, _), rdl, tree, (metasig, datasig) in zip(  # wormlint: disable=W009 - host-side table bookkeeping; the batch's SCPU crossings (hash/SN/witness) are amortised above, and the auth hook is per-record by protocol
                sns, items, rdls, trees, sig_pairs):
            vrd = VirtualRecordDescriptor(sn=sn, attr=attr, rdl=rdl,
                                          metasig=metasig, datasig=datasig,
                                          data_hash=tree.root)
            self.vrdt.insert_active(vrd, tree)
            self.host.table_touch()
            self.retention.on_write(
                sn, max(attr.expires_at,
                        attr.litigation_timeout if attr.litigation_hold
                        else 0.0))
            self.auth.on_write(vrd)
            vrds.append(vrd)
        share = {device: cost / len(items)
                 for device, cost in self._cost_delta(marks).items()}
        return [WriteReceipt(sn=vrd.sn, vrd=vrd, strength=Strength.STRONG,
                             costs=dict(share)) for vrd in vrds]

    # ---------------------------------------------------------- client setup

    def certificates(self, ca: CertificateAuthority) -> List[Certificate]:
        """All certificates a client needs (s, d, current + past burst keys)."""
        certs = self._scpu_rt.certify_with(ca)
        return [certs["s"], certs["d"], certs["burst"], *self._burst_certificates]

    def rotate_burst_key(self, ca: CertificateAuthority) -> Certificate:
        """Rotate the short-lived key; keeps the old cert for verification."""
        old = self._scpu_rt.public_keys()["burst"]
        cert = self._scpu_rt.rotate_burst_key(ca)
        assert cert is not None
        self._burst_certificates.append(ca.certify(old, role="burst", now=self.now))
        return cert

    def make_client(self, ca: CertificateAuthority, clock=None,
                    freshness_window: float = 300.0,
                    accept_unverifiable: bool = False) -> WormClient:
        """Build a verifying client bootstrapped from *ca*."""
        return WormClient(
            ca_public_key=ca.root_public_key,
            certificates=self.certificates(ca),
            clock=clock if clock is not None else self.scpu.clock,
            freshness_window=freshness_window,
            accept_unverifiable=accept_unverifiable,
        )

    # ------------------------------------------------------- simulation hooks

    def attach_retention_process(self, sim) -> None:
        """Run the RM as a simulation process with alarm interrupts."""
        self._rm_process = sim.process(self.retention.process(sim))
