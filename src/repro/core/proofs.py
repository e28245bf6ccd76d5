"""Proof objects the store presents to reading clients (§4.2.2 Read).

A read of serial number ``v`` yields exactly one of:

* **active** — the VRD plus record data, checkable against metasig/datasig,
  together with the fresh ``S_s(SN_current)`` (so the client knows the SN
  range that must be accounted for).  A read of one record of the VR
  carries that record alone and its :class:`RecordPath` to the data
  root ``datasig`` signs;
* **deleted, individually proven** — the deletion proof ``S_d(v.SN)``;
* **deleted, below the base** — ``S_s(SN_base)`` with ``v.SN < SN_base``;
* **deleted, inside a compacted window** — the correlated signed
  lower/upper bounds of a deletion window containing ``v.SN``;
* **never allocated** — ``v.SN > SN_current`` under the fresh signed
  ``S_s(SN_current)``.

Clients must treat any response that fits none of these as tampering
(Theorems 1 and 2 rest on this case analysis being exhaustive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.envelope import SignedEnvelope
from repro.storage.vrd import VirtualRecordDescriptor

__all__ = [
    "ProofKind",
    "READ_STATUS",
    "ActiveProof",
    "DeletionProofResponse",
    "BaseBoundProof",
    "DeletionWindowProof",
    "NeverAllocatedProof",
    "RecordPath",
    "ReadResult",
]


class ProofKind:
    """Discriminators for the read-proof case analysis."""

    ACTIVE = "active"
    DELETION_PROOF = "deletion-proof"
    BELOW_BASE = "below-base"
    DELETION_WINDOW = "deletion-window"
    NEVER_ALLOCATED = "never-allocated"


#: The :class:`ReadResult` status each proof case answers with.
READ_STATUS = {
    ProofKind.ACTIVE: "active",
    ProofKind.DELETION_PROOF: "deleted",
    ProofKind.BELOW_BASE: "deleted",
    ProofKind.DELETION_WINDOW: "deleted",
    ProofKind.NEVER_ALLOCATED: "never-allocated",
}


@dataclass(frozen=True)
class ActiveProof:
    """Companion proof for a successful read: the fresh upper window bound."""

    kind = ProofKind.ACTIVE
    sn_current: SignedEnvelope


@dataclass(frozen=True)
class DeletionProofResponse:
    """``S_d(SN)``: the record existed and was rightfully deleted."""

    kind = ProofKind.DELETION_PROOF
    proof: SignedEnvelope


@dataclass(frozen=True)
class BaseBoundProof:
    """``S_s(SN_base)`` with the target SN below it: rightfully deleted."""

    kind = ProofKind.BELOW_BASE
    sn_base: SignedEnvelope


@dataclass(frozen=True)
class DeletionWindowProof:
    """Correlated window bounds covering the target SN (§4.2.1 multi-window)."""

    kind = ProofKind.DELETION_WINDOW
    lower: SignedEnvelope
    upper: SignedEnvelope


@dataclass(frozen=True)
class NeverAllocatedProof:
    """Fresh ``S_s(SN_current)`` with the target SN above it: never stored."""

    kind = ProofKind.NEVER_ALLOCATED
    sn_current: SignedEnvelope


@dataclass(frozen=True)
class RecordPath:
    """Where one served record sits in its VR's data tree.

    ``index`` and ``count`` are the store's claims; the client checks
    ``index`` against the one it asked for, and ``count`` is sealed into
    the root ``datasig`` signs.  ``siblings`` runs from the leaf level
    up and carries no sides: the client derives them from the index and
    the count (:func:`repro.crypto.hashing.path_root`).
    """

    index: int
    count: int
    siblings: Tuple[bytes, ...] = ()

    @property
    def size_bytes(self) -> int:
        """Serialized size: the siblings plus the 8-byte index and count."""
        return sum(len(node) for node in self.siblings) + 16


@dataclass(frozen=True)
class ReadResult:
    """What the (untrusted) store returns for a read of one SN.

    ``status`` is ``"active"``, ``"deleted"`` or ``"never-allocated"``.
    For active reads, ``vrd`` and ``records`` are set: one payload per RD
    in the RDL for a read by serial number, or — for a read by locator —
    the one named record, with ``record_path`` locating it in the VR.
    In every case ``proof`` carries the construct(s) the client must
    verify before believing the status (``None`` from a read with
    ``proven=False``, which builds none).
    """

    sn: int
    status: str
    proof: object
    vrd: Optional[VirtualRecordDescriptor] = None
    records: Tuple[bytes, ...] = ()
    record_path: Optional[RecordPath] = None

    @property
    def data(self) -> bytes:
        """Concatenated record payloads (the one record of a locator read)."""
        return b"".join(self.records)
