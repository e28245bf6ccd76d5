"""Virtual Record Descriptors — Table 1 of the paper.

A VRD is the secure identity of a virtual record:

========  ==================================================================
Field     Description
========  ==================================================================
SN        system-wide unique serial number (issued by the SCPU)
attr      WORM attributes (:class:`~repro.storage.record.RecordAttributes`)
RDL       list of physical record descriptors making up the VR
metasig   SCPU signature on (SN, attr)
datasig   SCPU signature on (SN, Hash(data)) — the data-tree root over the RDL
========  ==================================================================

``data_hash`` is also carried in the clear so readers can recompute and
compare it without reparsing the datasig envelope; the authoritative copy
is of course the one inside the signed envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.crypto.envelope import SignedEnvelope
from repro.storage.record import RecordAttributes, RecordDescriptor

__all__ = ["VirtualRecordDescriptor"]


@dataclass(frozen=True)
class VirtualRecordDescriptor:
    """One VRD (Table 1).  Immutable; attribute updates produce new VRDs."""

    sn: int
    attr: RecordAttributes
    rdl: Tuple[RecordDescriptor, ...]
    metasig: SignedEnvelope
    datasig: SignedEnvelope
    data_hash: bytes

    def __post_init__(self) -> None:
        if self.sn < 1:
            raise ValueError("serial numbers start at 1")

    @property
    def total_bytes(self) -> int:
        """Total payload size across all records in the VR."""
        return sum(rd.length for rd in self.rdl)

    @property
    def record_count(self) -> int:
        return len(self.rdl)

    @property
    def is_client_verifiable(self) -> bool:
        """False while the witnessing is HMAC-only (§4.3 burst mode)."""
        return self.metasig.scheme != "hmac" and self.datasig.scheme != "hmac"

    def with_signatures(self, metasig: SignedEnvelope,
                        datasig: SignedEnvelope) -> "VirtualRecordDescriptor":
        """Copy with upgraded signatures (deferred strengthening)."""
        return replace(self, metasig=metasig, datasig=datasig)

    def with_attr(self, attr: RecordAttributes,
                  metasig: SignedEnvelope) -> "VirtualRecordDescriptor":
        """Copy with updated attributes + matching fresh metasig (lit_hold)."""
        return replace(self, attr=attr, metasig=metasig)

    def to_dict(self) -> dict:
        return {
            "sn": self.sn,
            "attr": self.attr.to_dict(),
            "rdl": [{"key": rd.key, "length": rd.length} for rd in self.rdl],
            "metasig": self.metasig.to_dict(),
            "datasig": self.datasig.to_dict(),
            "data_hash": self.data_hash.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VirtualRecordDescriptor":
        return cls(
            sn=int(data["sn"]),
            attr=RecordAttributes.from_dict(data["attr"]),
            rdl=tuple(RecordDescriptor(key=rd["key"], length=int(rd["length"]))
                      for rd in data["rdl"]),
            metasig=SignedEnvelope.from_dict(data["metasig"]),
            datasig=SignedEnvelope.from_dict(data["datasig"]),
            data_hash=bytes.fromhex(data["data_hash"]),
        )
