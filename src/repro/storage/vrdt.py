"""The Virtual Record Descriptor Table (VRDT) — §4.2 item 4, §4.2.1.

The VRDT lives on the *untrusted* main CPU's disk and is indexed by serial
number.  A slot holds either

* the VRD of an **active** VR, or
* the deletion proof ``S_d(SN)`` of an **expired** VR,

while SNs below the signed ``SN_base``, above the signed ``SN_current``,
or inside a signed deletion window are not stored at all — that is the
storage saving the window scheme buys (§4.2.1).

Beside each multi-record VR's RDL the table keeps the nodes of its data
tree (:class:`~repro.crypto.hashing.DataTree`), so a read of one record
serves that record's ``log2(g)`` sibling path without touching the
VR's other payloads.  A one-record VR needs none: its path is empty.

The table also stores the signed window artifacts the main CPU presents to
clients: the current ``S_s(SN_current)`` (timestamped, refreshed every few
minutes), ``S_s(SN_base)`` (with expiry), and the correlated lower/upper
bound pairs of compacted deletion windows.

Being untrusted state, everything here is fair game for the adversary
package: entries can be replaced, artifacts swapped for stale ones — the
security tests check that clients detect all of it.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import MissingRecordError
from repro.crypto.envelope import SignedEnvelope
from repro.crypto.hashing import DataTree
from repro.storage.vrd import VirtualRecordDescriptor

__all__ = ["VrdTable", "DeletionWindow"]


class DeletionWindow:
    """A compacted contiguous range of expired SNs with signed bounds.

    Both envelopes carry the same ``window_id``; SNs in
    ``[low_sn, high_sn]`` are proven deleted by presenting the pair.
    """

    def __init__(self, lower: SignedEnvelope, upper: SignedEnvelope) -> None:
        self.lower = lower
        self.upper = upper

    @property
    def low_sn(self) -> int:
        return int(self.lower.field("sn"))

    @property
    def high_sn(self) -> int:
        return int(self.upper.field("sn"))

    @property
    def window_id(self) -> str:
        return str(self.lower.field("window_id"))

    def covers(self, sn: int) -> bool:
        return self.low_sn <= sn <= self.high_sn

    def to_dict(self) -> dict:
        return {"lower": self.lower.to_dict(), "upper": self.upper.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "DeletionWindow":
        return cls(lower=SignedEnvelope.from_dict(data["lower"]),
                   upper=SignedEnvelope.from_dict(data["upper"]))


class VrdTable:
    """The on-disk VRDT plus its signed window artifacts (all untrusted)."""

    def __init__(self) -> None:
        self._active: Dict[int, VirtualRecordDescriptor] = {}
        self._deletion_proofs: Dict[int, SignedEnvelope] = {}
        self.sn_current_envelope: Optional[SignedEnvelope] = None
        self.sn_base_envelope: Optional[SignedEnvelope] = None
        self.deletion_windows: List[DeletionWindow] = []
        # block key -> number of *distinct active SNs* referencing it, so
        # shred-eligibility checks don't sweep every active VRD per delete
        self._block_refs: Dict[str, int] = {}
        # sn -> data-tree nodes of each active VR with two or more records
        self._trees: Dict[int, DataTree] = {}
        # active SNs replaced in place since the last take_replaced(), so
        # its one reader (the replication pump) finds them without a scan;
        # None until that reader first asks, so a table without one keeps
        # nothing here
        self._replaced: Optional[Dict[int, None]] = None
        # lazily rebuilt sorted view of deletion_windows for O(log k)
        # covering lookups; keyed on (id, len) so appends and wholesale
        # replacements of the (public, untrusted) list invalidate it
        self._window_index_key: Tuple[int, int] = (0, -1)
        self._window_starts: List[int] = []
        self._window_order: List[DeletionWindow] = []

    # -- entry management ---------------------------------------------------

    def _retain_blocks(self, vrd: VirtualRecordDescriptor) -> None:
        for key in {rd.key for rd in vrd.rdl}:
            self._block_refs[key] = self._block_refs.get(key, 0) + 1

    def _release_blocks(self, vrd: VirtualRecordDescriptor) -> None:
        for key in {rd.key for rd in vrd.rdl}:
            remaining = self._block_refs.get(key, 0) - 1
            if remaining > 0:
                self._block_refs[key] = remaining
            else:
                self._block_refs.pop(key, None)

    def insert_active(self, vrd: VirtualRecordDescriptor,
                      tree: Optional[DataTree] = None) -> None:
        """Add a freshly written VRD (rejects SN collisions).

        *tree* is the VR's data tree from the hashing pass; its nodes are
        kept for :meth:`record_path` when the VR holds two or more records.
        """
        if vrd.sn in self._active or vrd.sn in self._deletion_proofs:
            raise ValueError(f"SN {vrd.sn} already present in VRDT")
        self._active[vrd.sn] = vrd
        self._retain_blocks(vrd)
        if tree is not None and tree.count > 1:
            self._trees[vrd.sn] = tree

    def replace_active(self, vrd: VirtualRecordDescriptor) -> None:
        """Swap an active VRD in place (signature upgrade, lit_hold)."""
        if vrd.sn not in self._active:
            raise MissingRecordError(f"SN {vrd.sn} is not active")
        self._release_blocks(self._active[vrd.sn])
        self._active[vrd.sn] = vrd
        self._retain_blocks(vrd)
        if self._replaced is not None:
            self._replaced[vrd.sn] = None

    def take_replaced(self) -> List[int]:
        """Active SNs replaced in place since the last call, in the order
        first replaced; the table then forgets them.  The first call
        starts the record and returns nothing."""
        replaced = list(self._replaced or ())
        self._replaced = {}
        return replaced

    def get_active(self, sn: int) -> Optional[VirtualRecordDescriptor]:
        return self._active.get(sn)

    def get_deletion_proof(self, sn: int) -> Optional[SignedEnvelope]:
        return self._deletion_proofs.get(sn)

    def record_path(self, sn: int, index: int) -> Tuple[bytes, ...]:
        """Sibling path of record *index* of active VR *sn* (empty for one)."""
        tree = self._trees.get(sn)
        return tree.path(index) if tree is not None else ()

    def mark_expired(self, sn: int, deletion_proof: SignedEnvelope) -> None:
        """Replace an active entry with its deletion proof (§4.2.2 delete)."""
        if sn not in self._active:
            raise MissingRecordError(f"SN {sn} is not active")
        self._release_blocks(self._active[sn])
        del self._active[sn]
        self._trees.pop(sn, None)
        if self._replaced is not None:
            self._replaced.pop(sn, None)
        self._deletion_proofs[sn] = deletion_proof

    def drop_proofs(self, sns: Iterator[int]) -> None:
        """Expel deletion proofs (after window compaction / base advance)."""
        for sn in list(sns):
            self._deletion_proofs.pop(sn, None)

    # -- queries -------------------------------------------------------------

    @property
    def active_sns(self) -> Tuple[int, ...]:
        return tuple(sorted(self._active))

    @property
    def expired_sns(self) -> Tuple[int, ...]:
        return tuple(sorted(self._deletion_proofs))

    @property
    def lowest_active_sn(self) -> Optional[int]:
        """``SN_base`` candidate: lowest SN among still-active VRs."""
        return min(self._active) if self._active else None

    def is_active(self, sn: int) -> bool:
        return sn in self._active

    def entry_count(self) -> int:
        """Stored slots: active VRDs + retained deletion proofs."""
        return len(self._active) + len(self._deletion_proofs)

    def proof_count(self) -> int:
        return len(self._deletion_proofs)

    def block_references(self, key: str) -> int:
        """How many distinct active SNs reference block *key*."""
        return self._block_refs.get(key, 0)

    def window_covering(self, sn: int) -> Optional[DeletionWindow]:
        """The compacted deletion window containing *sn*, if any.

        O(log k) via a sorted index over window bounds (windows are
        disjoint by construction), rebuilt lazily whenever the public
        ``deletion_windows`` list is appended to or replaced.
        """
        windows = self.deletion_windows
        key = (id(windows), len(windows))
        if key != self._window_index_key:
            self._window_order = sorted(windows, key=lambda w: w.low_sn)
            self._window_starts = [w.low_sn for w in self._window_order]
            self._window_index_key = key
        idx = bisect.bisect_right(self._window_starts, sn) - 1
        if idx >= 0 and self._window_order[idx].covers(sn):
            return self._window_order[idx]
        return None

    def contiguous_expired_runs(self, minimum: int = 3) -> List[Tuple[int, int]]:
        """Maximal runs of consecutive expired SNs of length ≥ *minimum*.

        These are the candidates the main CPU may ask the SCPU to compact
        into signed deletion windows (§4.2.1 allows segments "of 3 or
        more expired VRs").  A run is only eligible if no *active* SN
        interrupts it — unallocated gaps cannot occur because SNs are
        issued consecutively.
        """
        runs: List[Tuple[int, int]] = []
        expired = sorted(self._deletion_proofs)
        if not expired:
            return runs
        start = prev = expired[0]
        for sn in expired[1:]:
            if sn == prev + 1:
                prev = sn
                continue
            if prev - start + 1 >= minimum:
                runs.append((start, prev))
            start = prev = sn
        if prev - start + 1 >= minimum:
            runs.append((start, prev))
        return runs

    # -- storage accounting (for the compaction benchmark) ---------------------

    def estimated_bytes(self) -> int:
        """Rough on-disk footprint of the table and artifacts.

        VRDs are charged their serialized attribute + RDL + two signature
        sizes; deletion proofs one signature; window artifacts two.  Good
        enough to show the storage effect of compaction.
        """
        total = 0
        for vrd in self._active.values():
            total += 64  # SN, offsets, attr fixed fields
            total += sum(len(rd.key) + 12 for rd in vrd.rdl)
            total += len(vrd.metasig.signature) + len(vrd.datasig.signature)
            total += len(vrd.data_hash)
        for tree in self._trees.values():
            total += sum(len(level) for level in tree.levels)
        for proof in self._deletion_proofs.values():
            total += 16 + len(proof.signature)
        for window in self.deletion_windows:
            total += 32 + len(window.lower.signature) + len(window.upper.signature)
        return total

    # -- serialization (compliant migration) -------------------------------------

    def to_dict(self) -> dict:
        data = {
            "active": [vrd.to_dict() for _, vrd in sorted(self._active.items())],
            "deletion_proofs": [proof.to_dict()
                                for _, proof in sorted(self._deletion_proofs.items())],
            "sn_current": (self.sn_current_envelope.to_dict()
                           if self.sn_current_envelope else None),
            "sn_base": (self.sn_base_envelope.to_dict()
                        if self.sn_base_envelope else None),
            "deletion_windows": [w.to_dict() for w in self.deletion_windows],
        }
        if self._trees:
            data["data_trees"] = {
                str(sn): {"levels": [level.hex() for level in tree.levels],
                          "root": tree.root.hex()}
                for sn, tree in sorted(self._trees.items())}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "VrdTable":
        table = cls()
        trees = data.get("data_trees", {})
        for vrd_data in data["active"]:
            vrd = VirtualRecordDescriptor.from_dict(vrd_data)
            tree = trees.get(str(vrd.sn))
            table.insert_active(vrd, None if tree is None else DataTree(
                levels=tuple(bytes.fromhex(level)
                             for level in tree["levels"]),
                root=bytes.fromhex(tree["root"])))
        for proof_data in data["deletion_proofs"]:
            proof = SignedEnvelope.from_dict(proof_data)
            table._deletion_proofs[int(proof.field("sn"))] = proof
        if data.get("sn_current"):
            table.sn_current_envelope = SignedEnvelope.from_dict(data["sn_current"])
        if data.get("sn_base"):
            table.sn_base_envelope = SignedEnvelope.from_dict(data["sn_base"])
        table.deletion_windows = [DeletionWindow.from_dict(w)
                                  for w in data.get("deletion_windows", [])]
        return table
