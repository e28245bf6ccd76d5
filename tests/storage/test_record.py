"""Unit tests for record descriptors and WORM attributes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.record import RecordAttributes, RecordDescriptor


class TestRecordDescriptor:
    def test_canonical_bytes_distinct(self):
        a = RecordDescriptor(key="rec-1", length=10)
        b = RecordDescriptor(key="rec-2", length=10)
        c = RecordDescriptor(key="rec-1", length=11)
        assert a.canonical_bytes() != b.canonical_bytes()
        assert a.canonical_bytes() != c.canonical_bytes()

    def test_frozen(self):
        rd = RecordDescriptor(key="k", length=1)
        with pytest.raises(AttributeError):
            rd.key = "other"


class TestRecordAttributes:
    def _attr(self, **kw):
        defaults = dict(created_at=100.0, retention_seconds=1000.0)
        defaults.update(kw)
        return RecordAttributes(**defaults)

    def test_expires_at(self):
        assert self._attr().expires_at == 1100.0

    def test_negative_retention_rejected(self):
        with pytest.raises(ValueError):
            self._attr(retention_seconds=-1.0)

    def test_negative_creation_rejected(self):
        with pytest.raises(ValueError):
            self._attr(created_at=-5.0)

    def test_deletable_only_after_expiry(self):
        attr = self._attr()
        assert not attr.deletable_at(1099.0)
        assert attr.deletable_at(1100.0)

    def test_litigation_hold_blocks_deletion(self):
        attr = self._attr().with_hold(timeout=5000.0, credential_hash=b"c")
        assert not attr.deletable_at(1100.0)
        assert not attr.deletable_at(4999.0)
        assert attr.deletable_at(5000.0)  # hold lapsed

    def test_release_restores_deletability(self):
        held = self._attr().with_hold(timeout=5000.0, credential_hash=b"c")
        released = held.with_release()
        assert released.deletable_at(1100.0)
        assert not released.litigation_hold
        assert released.litigation_credential_hash == b""

    def test_hold_does_not_shorten_retention(self):
        attr = self._attr().with_hold(timeout=500.0, credential_hash=b"c")
        # Hold timeout before retention expiry: retention still governs.
        assert not attr.deletable_at(1000.0)

    def test_canonical_bytes_deterministic(self):
        assert self._attr().canonical_bytes() == self._attr().canonical_bytes()

    @pytest.mark.parametrize("change", [
        {"created_at": 101.0},
        {"retention_seconds": 1001.0},
        {"policy": "hipaa"},
        {"shredding_algorithm": "random-7pass"},
        {"f_flag": 1},
        {"mac_label": "secret"},
        {"dac_owner": "alice"},
    ])
    def test_every_field_is_bound(self, change):
        assert (self._attr().canonical_bytes()
                != self._attr(**change).canonical_bytes())

    def test_hold_changes_canonical_bytes(self):
        attr = self._attr()
        held = attr.with_hold(timeout=9000.0, credential_hash=b"cred")
        assert attr.canonical_bytes() != held.canonical_bytes()

    def test_string_field_boundaries_unambiguous(self):
        a = self._attr(policy="ab", shredding_algorithm="c")
        b = self._attr(policy="a", shredding_algorithm="bc")
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_canonical_bytes_known_answer(self):
        # The bytes every stored metasig signs; pinned so they never drift.
        attr = self._attr(policy="sox", mac_label="m").with_hold(
            timeout=777.0, credential_hash=b"\x01\x02")
        assert attr.canonical_bytes().hex() == (
            "4154545231"                                # ATTR1
            "000000000000000005f5e100"                  # created_at, µs
            "00000000000000003b9aca00"                  # retention, µs
            "00000003" "736f78"                         # policy
            "00000009" "7a65726f2d66696c6c"             # shredding
            "00000001" "6d"                             # mac_label
            "00000000"                                  # dac_owner
            "01"                                        # litigation hold
            "00000000000000002e501440"                  # hold timeout, µs
            "00000002" "0102"                           # credential hash
            "00000000")                                 # f_flag

    def test_canonical_bytes_show_an_in_place_rewrite(self):
        # metasig checks compare these bytes and then trust the values,
        # so they are encoded from the values on every call.
        attr = self._attr()
        before = attr.canonical_bytes()
        object.__setattr__(attr, "retention_seconds", 0.0)
        assert attr.canonical_bytes() != before
        assert attr.canonical_bytes() == self._attr(
            retention_seconds=0.0).canonical_bytes()

    def test_serialization_roundtrip(self):
        attr = self._attr(policy="sox", mac_label="m").with_hold(
            timeout=777.0, credential_hash=b"\x01\x02")
        restored = RecordAttributes.from_dict(attr.to_dict())
        assert restored == attr
        assert restored.canonical_bytes() == attr.canonical_bytes()

    @given(st.floats(min_value=0, max_value=1e9),
           st.floats(min_value=0, max_value=1e9))
    @settings(max_examples=50)
    def test_deletable_never_before_expiry(self, created, retention):
        attr = RecordAttributes(created_at=created,
                                retention_seconds=retention)
        assert not attr.deletable_at(attr.expires_at - 1e-3)
