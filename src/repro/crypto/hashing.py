"""Hashing utilities used throughout the WORM layer.

The paper's VRD ``datasig`` is an SCPU signature over ``(SN, Hash(data))``
and leaves ``Hash`` open (§4.2.2): a *chained hash* over the virtual
record's physical data records, or an *incremental* secure hash
(Bellare-Micciancio [4], Clarke et al. [6]).  This store's ``Hash`` is a
Merkle root over the records (:func:`data_tree`), so one record of a
group-committed VR verifies against ``datasig`` with a ``log2(g)``
sibling path (:func:`path_root`) instead of every payload of the VR:

* ``H`` is SHA-256 (the node sizes below and the card's SHA charges
  assume 32-byte digests);
* leaf ``i`` is ``H(len8(c_i) || c_i)``;
* an inner node is ``H(0x01 || left || right)``; an odd node is
  promoted to the next level unchanged;
* the root of ``n >= 2`` leaves seals the leaf count:
  ``H(0x02 || n8 || top)``; the root of one leaf is the leaf itself.

A valid leaf input of ``k`` bytes starts with ``k - 8`` as eight
big-endian bytes, so it can never equal a 65-byte node input (first
byte 0x01) or a 41-byte seal input (first byte 0x02): the three hash
domains are disjoint.  The one-leaf root is exactly
:func:`chained_hash` of that record, so every single-record VR signs the
same bytes under either definition.  Plain digests with selectable
algorithms are here too (the evaluation uses SHA-1 to match Table 2's
device numbers; SHA-256 is the default elsewhere).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "digest",
    "hexdigest",
    "chained_hash",
    "DataTree",
    "data_tree",
    "path_root",
    "path_hashed_bytes",
    "IncrementalMultisetHash",
    "DEFAULT_HASH",
]

#: Default hash algorithm for integrity constructs.
DEFAULT_HASH = "sha256"


def digest(data: bytes, algorithm: str = DEFAULT_HASH) -> bytes:
    """One-shot digest of *data* with the given algorithm."""
    return hashlib.new(algorithm, data).digest()


def hexdigest(data: bytes, algorithm: str = DEFAULT_HASH) -> str:
    """One-shot hex digest of *data* with the given algorithm."""
    return hashlib.new(algorithm, data).hexdigest()


def chained_hash(chunks: Iterable[bytes], algorithm: str = DEFAULT_HASH) -> bytes:
    """Hash a sequence of data records as a chain (§4.2.2's first option).

    ``h_0 = H(len-prefix(c_0))``; ``h_i = H(h_{i-1} || len-prefix(c_i))``.
    Length prefixes prevent boundary-shifting collisions: the chunk split
    is part of what is authenticated, so re-partitioning the same bytes
    yields a different digest.  Kept as the reference the data tree
    matches on one record: ``data_tree([c]).root == chained_hash([c])``.
    """
    state = b""
    empty = True
    for chunk in chunks:
        empty = False
        prefixed = len(chunk).to_bytes(8, "big") + chunk
        state = hashlib.new(algorithm, state + prefixed).digest()
    if empty:
        # Distinguish "no records" from any real chain value.
        return hashlib.new(algorithm, b"\x00empty-chain").digest()
    return state


#: Domain tags of the data tree's inner nodes and of its count seal.
_NODE_TAG = b"\x01"
_SEAL_TAG = b"\x02"

#: Input bytes of one inner-node hash and of the count seal (SHA-256).
_NODE_INPUT = 1 + 32 + 32
_SEAL_INPUT = 1 + 8 + 32


def _leaf(record: bytes) -> bytes:
    return hashlib.sha256(len(record).to_bytes(8, "big") + record).digest()


def _node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_TAG + left + right).digest()


def _seal(top: bytes, count: int) -> bytes:
    return hashlib.sha256(_SEAL_TAG + count.to_bytes(8, "big") + top).digest()


@dataclass(frozen=True)
class DataTree:
    """Every node of one VR's data tree: the leaves up to the root.

    ``levels[k]`` concatenates the digests of level ``k``, from the
    leaves (``levels[0]``) up to the single top node (``levels[-1]``);
    ``root`` is what ``datasig`` signs.  The nodes are untrusted state
    once they leave the hashing pass: a wrong node only makes a path
    fail to reach the signed root.
    """

    __slots__ = ("levels", "root")

    levels: Tuple[bytes, ...]
    root: bytes

    @property
    def count(self) -> int:
        """Number of leaves (the VR's record count)."""
        return len(self.levels[0]) // len(self.root)

    @property
    def node_bytes(self) -> int:
        """Bytes hashed above the leaves: ``n - 1`` inner nodes + the seal."""
        if self.count < 2:
            return 0
        return _NODE_INPUT * (self.count - 1) + _SEAL_INPUT

    def path(self, index: int) -> Tuple[bytes, ...]:
        """Sibling digests from leaf *index* up to the top node."""
        size = len(self.root)
        siblings = []
        for level in self.levels[:-1]:
            start = size * (index ^ 1)
            if start < len(level):
                siblings.append(level[start:start + size])
            index //= 2
        return tuple(siblings)


def data_tree(records: Sequence[bytes]) -> DataTree:
    """Hash a VR's records into its data tree; ``.root`` is ``Hash(data)``."""
    level = [_leaf(record) for record in records]
    if not level:
        # Distinguish "no records" from any real root.
        return DataTree(levels=(b"",),
                        root=hashlib.sha256(b"\x00empty-chain").digest())
    levels = [b"".join(level)]
    while len(level) > 1:
        level = ([_node(level[i], level[i + 1])
                  for i in range(0, len(level) - 1, 2)]
                 + ([level[-1]] if len(level) % 2 else []))
        levels.append(b"".join(level))
    count = len(records)
    root = level[0] if count == 1 else _seal(level[0], count)
    return DataTree(levels=tuple(levels), root=root)


def path_root(record: bytes, index: int, count: int,
              siblings: Sequence[bytes]) -> Optional[bytes]:
    """The root *record*'s path reaches as leaf *index* of *count*.

    Each sibling's side comes from *index* and *count* alone, never
    from the path: at every level the node at an even position takes a
    right sibling when one exists, an odd one a left sibling, and the
    last node of an odd-width level is promoted with none.  Returns
    ``None`` when the index or the count is out of range (the seal holds
    the count in eight bytes) or the path holds more or fewer siblings
    than that shape needs.
    """
    if not 0 <= index < count < 1 << 64:
        return None
    node = _leaf(record)
    used = 0
    width = count
    while width > 1:
        if index ^ 1 < width:
            if used == len(siblings):
                return None
            sibling = siblings[used]
            used += 1
            node = (_node(node, sibling) if index % 2 == 0
                    else _node(sibling, node))
        index //= 2
        width = (width + 1) // 2
    if used != len(siblings):
        return None
    return node if count == 1 else _seal(node, count)


def path_hashed_bytes(record_length: int, siblings: int, count: int) -> int:
    """Bytes :func:`path_root` hashes to check one record of *count*."""
    return (8 + record_length + _NODE_INPUT * siblings
            + (_SEAL_INPUT if count > 1 else 0))


class IncrementalMultisetHash:
    """Incremental (multiset) hash in the style of [4, 6].

    Each element contributes ``H(len || element)`` interpreted as an
    integer; contributions are combined by modular addition, so elements
    can be added (and removed, for VR maintenance) in any order in O(1)
    per element.  Collision resistance reduces to that of the underlying
    hash plus the hardness of finding additive relations in a ~2^256
    group — the construction from Bellare-Micciancio's AdHash with a
    large prime modulus.
    """

    #: 2^259 + 153 — a prime comfortably above 2^256 so single-element
    #: contributions never wrap.
    MODULUS = (1 << 259) + 153

    def __init__(self, algorithm: str = DEFAULT_HASH) -> None:
        self._algorithm = algorithm
        self._acc = 0
        self._count = 0

    @property
    def count(self) -> int:
        """Net number of elements currently in the multiset."""
        return self._count

    def _contribution(self, element: bytes) -> int:
        prefixed = len(element).to_bytes(8, "big") + element
        raw = hashlib.new(self._algorithm, prefixed).digest()
        return int.from_bytes(raw, "big")

    def add(self, element: bytes) -> None:
        """Add *element* to the multiset."""
        self._acc = (self._acc + self._contribution(element)) % self.MODULUS
        self._count += 1

    def remove(self, element: bytes) -> None:
        """Remove one occurrence of *element* from the multiset.

        The caller is responsible for only removing elements actually
        present; the hash itself cannot detect over-removal (it is a
        group operation), which matches the construction in [6].
        """
        self._acc = (self._acc - self._contribution(element)) % self.MODULUS
        self._count -= 1

    def digest(self) -> bytes:
        """Return the current multiset digest (fixed 33 bytes)."""
        return self._acc.to_bytes(33, "big")

    def copy(self) -> "IncrementalMultisetHash":
        """Return an independent copy with the same state."""
        clone = IncrementalMultisetHash(self._algorithm)
        clone._acc = self._acc
        clone._count = self._count
        return clone

    @classmethod
    def of(cls, elements: Sequence[bytes],
           algorithm: str = DEFAULT_HASH) -> "IncrementalMultisetHash":
        """Build a multiset hash over *elements* in one call."""
        h = cls(algorithm)
        for element in elements:
            h.add(element)
        return h
