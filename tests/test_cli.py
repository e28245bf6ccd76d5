"""Tests for the command-line interface (persistent on-disk store)."""

import json
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture
def store_dir(tmp_path):
    directory = tmp_path / "worm"
    assert main(["init", str(directory), "--strong-bits", "512"]) == 0
    return directory


def _write_file(tmp_path, name, content: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(content)
    return str(path)


class TestInit:
    def test_creates_layout(self, store_dir):
        assert (store_dir / "scpu_state.json").exists()
        assert (store_dir / "state.json").exists()
        assert (store_dir / "ca.json").exists()
        assert (store_dir / "blocks").is_dir()

    def test_double_init_refused(self, store_dir):
        with pytest.raises(SystemExit):
            main(["init", str(store_dir)])

    def test_uninitialized_dir_refused(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["status", str(tmp_path / "nothere")])


class TestWriteCat:
    def test_roundtrip(self, store_dir, tmp_path, capsys):
        source = _write_file(tmp_path, "doc.txt", b"hello compliance")
        assert main(["write", str(store_dir), source, "--policy", "sox"]) == 0
        out = capsys.readouterr().out
        assert "SN 1" in out
        assert main(["cat", str(store_dir), "1"]) == 0
        out = capsys.readouterr().out
        assert "hello compliance" in out

    def test_state_survives_reload(self, store_dir, tmp_path, capsys):
        source = _write_file(tmp_path, "a.txt", b"persisted")
        main(["write", str(store_dir), source])
        capsys.readouterr()
        # A fresh process (new load) still reads and verifies SN 1.
        assert main(["cat", str(store_dir), "1"]) == 0
        assert "persisted" in capsys.readouterr().out

    def test_sns_continue_across_reloads(self, store_dir, tmp_path, capsys):
        a = _write_file(tmp_path, "a", b"1")
        b = _write_file(tmp_path, "b", b"2")
        main(["write", str(store_dir), a])
        main(["write", str(store_dir), b])
        out = capsys.readouterr().out
        assert "SN 1" in out and "SN 2" in out

    def test_cat_never_allocated(self, store_dir, capsys):
        assert main(["cat", str(store_dir), "99"]) == 1
        assert "never-allocated" in capsys.readouterr().err

    def test_weak_write_then_maintain(self, store_dir, tmp_path, capsys):
        source = _write_file(tmp_path, "w.txt", b"burst data")
        main(["write", str(store_dir), source, "--strength", "weak",
              "--retention-years", "1"])
        capsys.readouterr()
        assert main(["maintain", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "strengthened:         1" in out


class TestAudit:
    def test_clean_store(self, store_dir, tmp_path, capsys):
        source = _write_file(tmp_path, "x", b"data")
        main(["write", str(store_dir), source])
        capsys.readouterr()
        assert main(["audit", str(store_dir)]) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_tampered_store_detected(self, store_dir, tmp_path, capsys):
        source = _write_file(tmp_path, "x", b"original record")
        main(["write", str(store_dir), source])
        capsys.readouterr()
        # The insider rewrites the record file directly on disk.
        blocks = store_dir / "blocks"
        victim = next(blocks.glob("rec-*"))
        victim.write_bytes(b"doctored record")
        assert main(["audit", str(store_dir)]) == 2
        captured = capsys.readouterr()
        assert "TAMPERING DETECTED" in captured.err
        assert "violation" in captured.out

    def test_status_runs(self, store_dir, capsys):
        assert main(["status", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "frontier SN" in out
        assert "active_records" in out


class TestAttestation:
    def test_attest_prints_state(self, store_dir, tmp_path, capsys):
        source = _write_file(tmp_path, "x", b"data")
        main(["write", str(store_dir), source])
        capsys.readouterr()
        assert main(["attest", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "sn_counter=1" in out

    def test_attestation_chain_accepts_forward(self, store_dir, tmp_path,
                                               capsys):
        first = tmp_path / "att1.json"
        main(["attest", str(store_dir), "--out", str(first)])
        source = _write_file(tmp_path, "x", b"data")
        main(["write", str(store_dir), source])
        capsys.readouterr()
        assert main(["attest", str(store_dir),
                     "--previous", str(first)]) == 0
        assert "OK" in capsys.readouterr().err

    def test_attestation_chain_detects_rollback(self, store_dir, tmp_path,
                                                capsys):
        source = _write_file(tmp_path, "x", b"data")
        main(["write", str(store_dir), source])
        later = tmp_path / "att-later.json"
        main(["attest", str(store_dir), "--out", str(later)])
        # An examiner presented an *older* card state than the saved
        # attestation: simulate by rolling the persisted counter back.
        import json as json_mod
        state_path = store_dir / "scpu_state.json"
        state = json_mod.loads(state_path.read_text())
        state["sn_counter"] = 0
        state_path.write_text(json_mod.dumps(state))
        capsys.readouterr()
        assert main(["attest", str(store_dir),
                     "--previous", str(later)]) == 2
        assert "FAILED" in capsys.readouterr().err


class TestFaultsDemo:
    def test_degraded_shard_loses_no_accepted_record(self, capsys):
        assert main(["faults-demo"]) == 0
        out = capsys.readouterr().out
        assert "no accepted record lost" in out
        assert "degraded:   shards [1]" in out


class TestShardBench:
    def test_defaults_print_the_committed_headline(self, capsys):
        committed = Path(__file__).resolve().parent.parent / "benchmarks"
        headline = json.loads(
            (committed / "BENCH_shard.json").read_text())["headline"]
        assert main(["shard-bench"]) == 0
        out = capsys.readouterr().out
        cells = [cell.strip() for cell in out.splitlines()[-3].split("|")]
        assert cells == ["4 (batch=8)", f"{headline['writes_per_sec']:.0f}",
                         f"{headline['speedup_vs_1shard']:.2f}x"]
        assert out.splitlines()[-1] == (
            f"group-commit gain at 4 shards: "
            f"{headline['group_commit_gain']:.2f}x over per-record writes")


class TestDrillArguments:
    @pytest.mark.parametrize("argv, flag", [
        (["shard-bench", "--workers", "0"], "--workers"),
        (["shard-bench", "--record-size", "-1"], "--record-size"),
        (["tenant-bench", "--days", "0"], "--days"),
        (["tenant-bench", "--record-size", "-1"], "--record-size"),
        (["tenant-bench", "--hour-seconds", "0"], "--hour-seconds"),
        (["serve", "--shards", "0"], "--shards"),
        (["obs", "--record-size", "-1"], "--record-size"),
        (["obs", "--shards", "0"], "--shards"),
        (["faults-demo", "--record-size", "-1"], "--record-size"),
        (["recover", "--link-bandwidth", "0"], "--link-bandwidth"),
        (["recover", "--fault-rate", "1.5"], "--fault-rate"),
        (["obs", "--fault-rate", "1.5"], "--fault-rate"),
        (["faults-demo", "--fault-rate", "2"], "--fault-rate"),
        (["tenant-bench", "--rate", "0"], "--rate"),
        (["tenant-bench", "--users", "0"], "--users"),
        (["tenant-bench", "--burst-tokens", "0"], "--burst-tokens"),
        (["tenant-bench", "--max-deferred", "-1"], "--max-deferred"),
        (["serve", "--rate", "0"], "--rate"),
        (["faults-demo", "--tamper-after", "-1"], "--tamper-after"),
        (["recover", "--fault-rate", "-1"], "--fault-rate"),
        (["recover", "--record-size", "-1"], "--record-size"),
        (["faults-demo", "--records", "0"], "--records"),
    ], ids=["shard-bench-workers", "shard-bench-record-size",
            "tenant-bench-days", "tenant-bench-record-size",
            "tenant-bench-hour-seconds", "serve-shards", "obs-record-size",
            "obs-shards", "faults-demo-record-size", "recover-link-bandwidth",
            "recover-high-fault-rate", "obs-fault-rate",
            "faults-demo-fault-rate", "tenant-bench-rate",
            "tenant-bench-users", "tenant-bench-burst-tokens",
            "tenant-bench-max-deferred", "serve-rate",
            "faults-demo-tamper-after", "recover-negative-fault-rate",
            "recover-record-size", "faults-demo-zero-records"])
    def test_out_of_range_flag_is_an_argparse_usage_error(self, argv, flag,
                                                         capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert f"argument {flag}: must be >" in captured.err
        assert captured.out == ""


class TestRecoverDrill:
    @pytest.mark.parametrize("records", [5, 20])
    def test_short_drill_keeps_the_ca_chain(self, records, capsys):
        # Fewer than four batches: the site used to die before the
        # standby held the certificates, and DISCOVER raised.
        assert main(["recover", "--records", str(records)]) == 0
        out = capsys.readouterr().out
        assert (f"zero acknowledged-write loss: {records} records readable "
                "and verified") in out
