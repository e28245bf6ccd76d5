"""Unit tests for typed signed envelopes (splice resistance)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import Envelope, Purpose, SignedEnvelope


class TestCanonicalBytes:
    def test_deterministic(self):
        env = Envelope(purpose="p", fields={"a": 1, "b": "x"}, timestamp=1.5)
        assert env.canonical_bytes() == env.canonical_bytes()

    def test_field_order_irrelevant(self):
        a = Envelope(purpose="p", fields={"a": 1, "b": 2})
        b = Envelope(purpose="p", fields={"b": 2, "a": 1})
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_purpose_is_bound(self):
        a = Envelope(purpose=Purpose.METASIG, fields={"sn": 1})
        b = Envelope(purpose=Purpose.DELETION_PROOF, fields={"sn": 1})
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_timestamp_is_bound(self):
        a = Envelope(purpose="p", timestamp=10.0)
        b = Envelope(purpose="p", timestamp=10.000001)
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_sub_microsecond_timestamps_collapse(self):
        # Signed at microsecond granularity — representation-stable.
        a = Envelope(purpose="p", timestamp=10.0000001)
        b = Envelope(purpose="p", timestamp=10.0000004)
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_type_tags_distinguish_int_from_str(self):
        a = Envelope(purpose="p", fields={"v": 1})
        b = Envelope(purpose="p", fields={"v": "1"})
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_type_tags_distinguish_str_from_bytes(self):
        a = Envelope(purpose="p", fields={"v": "abc"})
        b = Envelope(purpose="p", fields={"v": b"abc"})
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_bool_fields_rejected(self):
        env = Envelope(purpose="p", fields={"flag": True})
        with pytest.raises(TypeError):
            env.canonical_bytes()

    def test_unsupported_type_rejected(self):
        env = Envelope(purpose="p", fields={"v": 1.5})
        with pytest.raises(TypeError):
            env.canonical_bytes()

    def test_field_name_value_boundary_unambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        a = Envelope(purpose="p", fields={"ab": "c"})
        b = Envelope(purpose="p", fields={"a": "bc"})
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_known_answer_vector(self):
        # Signatures already stored sign exactly these bytes; any change
        # to the layout would orphan them.
        env = Envelope(purpose=Purpose.DATASIG,
                       fields={"sn": 42, "data_hash": b"\x01\x02", "note": "x"},
                       timestamp=12.5)
        assert env.canonical_bytes().hex() == (
            "53574f524d31"                              # SWORM1
            "0000000c" "776f726d2e64617461736967"       # worm.datasig
            "000000000000000000bebc20"                  # 12.5 s in µs
            "00000003"                                  # three fields
            "00000009" "646174615f68617368"             # data_hash
            "62" "0000000000000002" "0102"
            "00000004" "6e6f7465"                       # note
            "73" "0000000000000001" "78"
            "00000002" "736e"                           # sn
            "69" "0000000000000002" "3432")

    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=16), st.binary(max_size=16)),
        max_size=5))
    @settings(max_examples=50)
    def test_canonical_bytes_total_function(self, fields):
        env = Envelope(purpose="p", fields=fields, timestamp=1.0)
        raw = env.canonical_bytes()
        assert isinstance(raw, bytes) and raw.startswith(b"SWORM1")


class TestImmutableValue:
    def test_fields_are_read_only(self):
        env = Envelope(purpose="p", fields={"sn": 1})
        with pytest.raises(TypeError):
            env.fields["sn"] = 2

    def test_constructor_dict_is_copied(self):
        fields = {"sn": 1}
        env = Envelope(purpose="p", fields=fields)
        encoded = env.canonical_bytes()
        fields["sn"] = 2
        fields["extra"] = "x"
        assert dict(env.fields) == {"sn": 1}
        assert env.canonical_bytes() == encoded
        assert env.canonical_bytes() == Envelope(
            purpose="p", fields={"sn": 1}).canonical_bytes()

    def test_signed_bytes_kept_canonical_bytes_fresh(self):
        # The host can rewrite a stored envelope in place; the kept bytes
        # stay what was signed, and canonical_bytes() shows the rewrite.
        env = Envelope(purpose="p", fields={"sn": 1}, timestamp=2.0)
        kept = env.signed_bytes()
        assert env.signed_bytes() is kept
        assert env.canonical_bytes() == kept
        object.__setattr__(env, "timestamp", 3.0)
        assert env.signed_bytes() is kept
        assert env.canonical_bytes() == Envelope(
            purpose="p", fields={"sn": 1}, timestamp=3.0).canonical_bytes()

    def test_replace_encodes_the_new_statement(self):
        env = Envelope(purpose="p", fields={"sn": 1}, timestamp=2.0)
        env.canonical_bytes()
        moved = dataclasses.replace(env, fields={"sn": 2})
        assert moved.canonical_bytes() == Envelope(
            purpose="p", fields={"sn": 2}, timestamp=2.0).canonical_bytes()
        assert moved.canonical_bytes() != env.canonical_bytes()
        assert moved != env
        assert dataclasses.replace(moved, fields={"sn": 1}) == env


class TestSignedEnvelopeSerialization:
    def _sample(self):
        env = Envelope(
            purpose=Purpose.DATASIG,
            fields={"sn": 42, "data_hash": b"\x01\x02", "note": "x"},
            timestamp=12.5,
        )
        return SignedEnvelope(envelope=env, signature=b"\xaa\xbb",
                              key_fingerprint="f00d", key_bits=512,
                              scheme="rsa", hash_name="sha256")

    def test_roundtrip_preserves_canonical_bytes(self):
        signed = self._sample()
        restored = SignedEnvelope.from_dict(signed.to_dict())
        assert (restored.envelope.canonical_bytes()
                == signed.envelope.canonical_bytes())
        assert restored.signature == signed.signature
        assert restored.key_bits == 512
        assert restored.hash_name == "sha256"

    def test_field_accessor(self):
        signed = self._sample()
        assert signed.field("sn") == 42
        assert signed.field("data_hash") == b"\x01\x02"

    def test_purpose_and_timestamp_properties(self):
        signed = self._sample()
        assert signed.purpose == Purpose.DATASIG
        assert signed.timestamp == 12.5

    def test_legacy_dict_defaults(self):
        data = self._sample().to_dict()
        del data["hash_name"]
        del data["scheme"]
        restored = SignedEnvelope.from_dict(data)
        assert restored.hash_name == "sha256"
        assert restored.scheme == "rsa"
