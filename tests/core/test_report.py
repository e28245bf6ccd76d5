"""Tests for the compliance report generator."""

import pytest

from repro import demo_keyring
from repro.core.auth import available_schemes
from repro.core.config import StoreConfig
from repro.core.report import generate_report
from repro.core.worm import StrongWormStore
from repro.hardware.scpu import SecureCoprocessor, Strength


class TestVerdicts:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_clean_store_passes(self, scheme, ca):
        store = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()),
                                config=StoreConfig(auth_scheme=scheme))
        client = store.make_client(ca)
        store.write([b"clean"], policy="sox")
        report = generate_report(store, client)
        assert report.verdict == "PASS"
        assert report.clean
        assert "VERDICT: PASS" in report.text
        assert report.warnings == []

    def test_tampered_store_fails(self, store, client):
        receipt = store.write([b"evidence"], policy="sox")
        store.blocks.unchecked_overwrite(receipt.vrd.rdl[0].key, b"doctored")
        report = generate_report(store, client)
        assert report.verdict == "FAIL"
        assert "TAMPERING EVIDENCE" in report.text
        assert not report.clean

    def test_weak_backlog_warns(self, store, client):
        store.write([b"weak"], strength=Strength.WEAK, retention_seconds=1e9)
        report = generate_report(store, client)
        assert report.verdict == "WARN"
        assert any("weakly signed" in w for w in report.warnings)

    def test_overdue_strengthening_warns(self, store, client):
        store.write([b"weak"], strength=Strength.WEAK, retention_seconds=1e9)
        store.scpu.clock.advance(40 * 60.0)  # past the half-lifetime deadline
        report = generate_report(store, client)
        assert any("deadline" in w for w in report.warnings)

    def test_host_lie_warns_loudly(self, store, client):
        receipt = store.write([b"burst"], defer_data_hash=True,
                              retention_seconds=1e9)
        store.blocks.unchecked_overwrite(receipt.vrd.rdl[0].key, b"swap!")
        store.hash_verification.drain()
        report = generate_report(store, client)
        # Both the audit (FAIL) and the mismatch warning fire.
        assert report.verdict == "FAIL"
        assert any("lied" in w for w in report.warnings)


class TestContent:
    def test_summary_numbers_present(self, store, client):
        for _ in range(3):
            store.write([b"x"], policy="ferpa")
        report = generate_report(store, client)
        assert "serial numbers issued" in report.text
        assert "active records" in report.text

    def test_policy_inventory_listed(self, store, client):
        report = generate_report(store, client)
        for name in ("sec17a-4", "hipaa", "sox"):
            assert name in report.text

    def test_wall_time_override(self, store, client):
        report = generate_report(store, client, wall_time=0.0)
        assert "1970" in report.text


class TestCliIntegration:
    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main
        directory = tmp_path / "store"
        main(["init", str(directory), "--strong-bits", "512"])
        source = tmp_path / "f.txt"
        source.write_bytes(b"filing")
        main(["write", str(directory), str(source), "--policy", "sox"])
        capsys.readouterr()
        assert main(["report", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "VERDICT: PASS" in out

    def test_report_command_fails_on_tamper(self, tmp_path, capsys):
        from repro.cli import main
        directory = tmp_path / "store"
        main(["init", str(directory), "--strong-bits", "512"])
        source = tmp_path / "f.txt"
        source.write_bytes(b"filing")
        main(["write", str(directory), str(source)])
        victim = next((directory / "blocks").glob("rec-*"))
        victim.write_bytes(b"doctored")
        capsys.readouterr()
        assert main(["report", str(directory)]) == 2
        assert "VERDICT: FAIL" in capsys.readouterr().out
