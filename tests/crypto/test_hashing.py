"""Unit tests for the VR data tree, chained and incremental hashing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    IncrementalMultisetHash,
    chained_hash,
    data_tree,
    digest,
    hexdigest,
    path_hashed_bytes,
    path_root,
)


class TestDigest:
    def test_known_sha256(self):
        assert hexdigest(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_digest_and_hexdigest_agree(self):
        assert digest(b"abc").hex() == hexdigest(b"abc")

    def test_algorithm_selectable(self):
        assert len(digest(b"abc", "sha1")) == 20
        assert len(digest(b"abc", "sha256")) == 32


class TestChainedHash:
    def test_deterministic(self):
        chunks = [b"one", b"two", b"three"]
        assert chained_hash(chunks) == chained_hash(chunks)

    def test_order_sensitive(self):
        assert chained_hash([b"a", b"b"]) != chained_hash([b"b", b"a"])

    def test_boundary_shifts_change_digest(self):
        # Same bytes, different chunking — must differ (length prefixes).
        assert chained_hash([b"ab", b"c"]) != chained_hash([b"a", b"bc"])
        assert chained_hash([b"abc"]) != chained_hash([b"ab", b"c"])

    def test_empty_sequence_distinct_from_empty_chunk(self):
        assert chained_hash([]) != chained_hash([b""])



def _flip(data: bytes, offset: int) -> bytes:
    offset %= len(data)
    return data[:offset] + bytes([data[offset] ^ 0x01]) + data[offset + 1:]


class TestDataTree:
    @pytest.mark.parametrize("record", [b"", b"x", b"one record" * 50])
    def test_one_leaf_root_is_the_chained_hash(self, record):
        # Every single-record VR signs the same bytes as before the tree.
        tree = data_tree([record])
        assert tree.root == chained_hash([record])
        assert tree.path(0) == () and tree.node_bytes == 0

    def test_empty_root_is_the_empty_chain(self):
        assert data_tree([]).root == chained_hash([])

    def test_root_seals_order_split_and_count(self):
        assert data_tree([b"a", b"b"]).root != data_tree([b"b", b"a"]).root
        assert data_tree([b"ab", b"c"]).root != data_tree([b"a", b"bc"]).root
        # Three records vs. the first two: same left subtree, other count.
        assert data_tree([b"a", b"b", b"c"]).root \
            != data_tree([b"a", b"b"]).root
        assert data_tree([b"a", b"b"]).root != chained_hash([b"a", b"b"])

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13, 64, 100])
    def test_paths_are_at_most_log2_long_and_reach_the_root(self, count):
        records = [b"record-%d" % i for i in range(count)]
        tree = data_tree(records)
        assert tree.count == count
        assert tree.node_bytes == (65 * (count - 1) + 41 if count > 1 else 0)
        for index, record in enumerate(records):
            siblings = tree.path(index)
            assert len(siblings) <= math.ceil(math.log2(count))
            assert path_root(record, index, count, siblings) == tree.root
            assert path_hashed_bytes(len(record), len(siblings), count) \
                == (8 + len(record) + 65 * len(siblings)
                    + (41 if count > 1 else 0))

    def test_a_path_of_the_wrong_shape_reaches_nothing(self):
        records = [b"a", b"b", b"c"]
        tree = data_tree(records)
        assert path_root(b"c", 2, 3, tree.path(2) + (b"\x00" * 32,)) is None
        assert path_root(b"a", 0, 3, tree.path(0)[:1]) is None
        assert path_root(b"a", 3, 3, tree.path(0)) is None
        assert path_root(b"a", -1, 3, tree.path(0)) is None
        assert path_root(b"a", 0, 1 << 64, tree.path(0)) is None

    @given(count=st.integers(min_value=1, max_value=64),
           size=st.integers(min_value=1, max_value=24),
           offset=st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=100, deadline=None)
    def test_every_genuine_path_verifies_and_every_flip_fails(
            self, count, size, offset):
        """Every index of every g: the genuine path verifies; a flipped
        payload byte, a flipped byte in any sibling, or any flipped byte
        of the sealed count does not."""
        records = [bytes([i]) * size for i in range(count)]
        tree = data_tree(records)
        for index, record in enumerate(records):
            siblings = tree.path(index)
            assert path_root(record, index, count, siblings) == tree.root
            assert path_root(_flip(record, offset), index, count,
                             siblings) != tree.root
            for hit in range(len(siblings)):
                forged = (siblings[:hit] + (_flip(siblings[hit], offset),)
                          + siblings[hit + 1:])
                assert path_root(record, index, count, forged) != tree.root
            for byte in range(8):
                flipped = int.from_bytes(
                    _flip(count.to_bytes(8, "big"), byte), "big")
                assert path_root(record, index, flipped,
                                 siblings) != tree.root


class TestIncrementalMultisetHash:
    def test_order_independent(self):
        a = IncrementalMultisetHash.of([b"x", b"y", b"z"])
        b = IncrementalMultisetHash.of([b"z", b"x", b"y"])
        assert a.digest() == b.digest()

    def test_multiset_not_set(self):
        once = IncrementalMultisetHash.of([b"x"])
        twice = IncrementalMultisetHash.of([b"x", b"x"])
        assert once.digest() != twice.digest()

    def test_remove_inverts_add(self):
        h = IncrementalMultisetHash.of([b"a", b"b"])
        before = h.digest()
        h.add(b"c")
        h.remove(b"c")
        assert h.digest() == before
        assert h.count == 2

    def test_empty_hash_is_zero_count(self):
        h = IncrementalMultisetHash()
        assert h.count == 0
        assert h.digest() == (0).to_bytes(33, "big")

    def test_copy_is_independent(self):
        h = IncrementalMultisetHash.of([b"a"])
        clone = h.copy()
        clone.add(b"b")
        assert h.digest() != clone.digest()
        assert h.count == 1 and clone.count == 2

    def test_length_prefix_prevents_concat_confusion(self):
        a = IncrementalMultisetHash.of([b"ab"])
        b = IncrementalMultisetHash.of([b"a", b"b"])
        assert a.digest() != b.digest()

    @given(st.lists(st.binary(min_size=1, max_size=16), max_size=10))
    @settings(max_examples=50)
    def test_any_permutation_agrees(self, elements):
        import random
        shuffled = list(elements)
        random.Random(42).shuffle(shuffled)
        assert (IncrementalMultisetHash.of(elements).digest()
                == IncrementalMultisetHash.of(shuffled).digest())

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_remove_all_returns_to_empty(self, elements):
        h = IncrementalMultisetHash.of(elements)
        for element in elements:
            h.remove(element)
        assert h.digest() == IncrementalMultisetHash().digest()
