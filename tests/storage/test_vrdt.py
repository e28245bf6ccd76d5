"""Unit tests for the VRD table and deletion windows."""

import pytest

from repro import demo_keyring
from repro.hardware.scpu import SecureCoprocessor
from repro.storage.record import RecordAttributes, RecordDescriptor
from repro.storage.vrd import VirtualRecordDescriptor
from repro.storage.vrdt import DeletionWindow, VrdTable


@pytest.fixture(scope="module")
def scpu():
    return SecureCoprocessor(keyring=demo_keyring())


def make_vrd(scpu, sn=None, payload=b"data"):
    if sn is None:
        sn = scpu.issue_serial_number()
    attr = RecordAttributes(created_at=scpu.now, retention_seconds=1000.0)
    data_hash = scpu.hash_record_data([payload])
    metasig, datasig = scpu.witness_write(sn, attr.canonical_bytes(), data_hash)
    return VirtualRecordDescriptor(
        sn=sn, attr=attr,
        rdl=(RecordDescriptor(key=f"rec-{sn}", length=len(payload)),),
        metasig=metasig, datasig=datasig, data_hash=data_hash)


class TestEntryManagement:
    def test_insert_and_lookup(self, scpu):
        table = VrdTable()
        vrd = make_vrd(scpu)
        table.insert_active(vrd)
        assert table.get_active(vrd.sn) is vrd
        assert table.is_active(vrd.sn)
        assert table.entry_count() == 1

    def test_duplicate_sn_rejected(self, scpu):
        table = VrdTable()
        vrd = make_vrd(scpu)
        table.insert_active(vrd)
        with pytest.raises(ValueError):
            table.insert_active(vrd)

    def test_mark_expired_swaps_entry(self, scpu):
        table = VrdTable()
        vrd = make_vrd(scpu)
        table.insert_active(vrd)
        proof = scpu.make_deletion_proof(vrd.sn)
        table.mark_expired(vrd.sn, proof)
        assert table.get_active(vrd.sn) is None
        assert table.get_deletion_proof(vrd.sn) is proof
        assert table.entry_count() == 1
        assert table.proof_count() == 1

    def test_mark_expired_requires_active(self, scpu):
        table = VrdTable()
        with pytest.raises(KeyError):
            table.mark_expired(99, scpu.make_deletion_proof(99))

    def test_replace_active_requires_presence(self, scpu):
        table = VrdTable()
        with pytest.raises(KeyError):
            table.replace_active(make_vrd(scpu))

    def test_take_replaced_lists_each_change_once(self, scpu):
        table = VrdTable()
        a, b, c = (make_vrd(scpu) for _ in range(3))
        for vrd in (a, b, c):
            table.insert_active(vrd)
        table.replace_active(a)  # before anyone asked: not recorded
        assert table.take_replaced() == []
        table.replace_active(b)
        table.replace_active(c)
        table.replace_active(b)
        assert table.take_replaced() == [b.sn, c.sn]
        assert table.take_replaced() == []
        table.replace_active(a)
        table.replace_active(c)
        table.mark_expired(c.sn, scpu.make_deletion_proof(c.sn))
        assert table.take_replaced() == [a.sn]

    def test_lowest_active_sn(self, scpu):
        table = VrdTable()
        assert table.lowest_active_sn is None
        vrds = [make_vrd(scpu) for _ in range(3)]
        for vrd in vrds:
            table.insert_active(vrd)
        assert table.lowest_active_sn == vrds[0].sn
        table.mark_expired(vrds[0].sn, scpu.make_deletion_proof(vrds[0].sn))
        assert table.lowest_active_sn == vrds[1].sn


class TestExpiredRuns:
    def _table_with_proofs(self, scpu, sns):
        table = VrdTable()
        for sn in sns:
            vrd = make_vrd(scpu, sn=sn)
            table.insert_active(vrd)
            table.mark_expired(sn, scpu.make_deletion_proof(sn))
        return table

    def test_single_long_run(self, scpu):
        base = scpu.current_serial_number + 100
        table = self._table_with_proofs(scpu, range(base, base + 5))
        assert table.contiguous_expired_runs() == [(base, base + 4)]

    def test_short_runs_ignored(self, scpu):
        base = scpu.current_serial_number + 200
        table = self._table_with_proofs(scpu, [base, base + 1, base + 3])
        assert table.contiguous_expired_runs(minimum=3) == []

    def test_multiple_runs_with_gaps(self, scpu):
        base = scpu.current_serial_number + 300
        sns = list(range(base, base + 3)) + list(range(base + 10, base + 14))
        table = self._table_with_proofs(scpu, sns)
        assert table.contiguous_expired_runs() == [
            (base, base + 2), (base + 10, base + 13)]

    def test_empty_table_no_runs(self):
        assert VrdTable().contiguous_expired_runs() == []

    def test_threshold_respected(self, scpu):
        base = scpu.current_serial_number + 400
        table = self._table_with_proofs(scpu, range(base, base + 4))
        assert table.contiguous_expired_runs(minimum=5) == []
        assert table.contiguous_expired_runs(minimum=4) == [(base, base + 3)]


class TestDeletionWindows:
    def test_window_covering(self, scpu):
        lower, upper = scpu._sign_deletion_window(10, 20)
        window = DeletionWindow(lower, upper)
        table = VrdTable()
        table.deletion_windows.append(window)
        assert table.window_covering(10) is window
        assert table.window_covering(20) is window
        assert table.window_covering(15) is window
        assert table.window_covering(9) is None
        assert table.window_covering(21) is None

    def test_window_properties(self, scpu):
        lower, upper = scpu._sign_deletion_window(5, 8)
        window = DeletionWindow(lower, upper)
        assert window.low_sn == 5
        assert window.high_sn == 8
        assert window.window_id == lower.field("window_id")


class TestStorageAccounting:
    def test_compaction_reduces_footprint(self, scpu):
        table = VrdTable()
        base = scpu.current_serial_number + 500
        proofs = {}
        for sn in range(base, base + 10):
            table.insert_active(make_vrd(scpu, sn=sn))
            proof = scpu.make_deletion_proof(sn)
            table.mark_expired(sn, proof)
            proofs[sn] = proof
        before = table.estimated_bytes()
        lower, upper = scpu.compact_deletion_window(base, base + 9, proofs)
        table.deletion_windows.append(DeletionWindow(lower, upper))
        table.drop_proofs(iter(range(base, base + 10)))
        assert table.estimated_bytes() < before
        assert table.proof_count() == 0


class TestSerialization:
    def test_roundtrip(self, scpu):
        table = VrdTable()
        vrd = make_vrd(scpu)
        table.insert_active(vrd)
        expired = make_vrd(scpu)
        table.insert_active(expired)
        table.mark_expired(expired.sn, scpu.make_deletion_proof(expired.sn))
        table.sn_current_envelope = scpu.sign_sn_current(
            scpu.current_serial_number)
        table.sn_base_envelope = scpu.sign_sn_base()
        lower, upper = scpu._sign_deletion_window(100, 110)
        table.deletion_windows.append(DeletionWindow(lower, upper))

        restored = VrdTable.from_dict(table.to_dict())
        assert restored.active_sns == table.active_sns
        assert restored.expired_sns == table.expired_sns
        assert restored.get_active(vrd.sn).data_hash == vrd.data_hash
        assert (restored.sn_current_envelope.signature
                == table.sn_current_envelope.signature)
        assert restored.deletion_windows[0].low_sn == 100
