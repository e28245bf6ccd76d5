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


class TestFsCommands:
    def test_put_cat_ls(self, store_dir, tmp_path, capsys):
        source = _write_file(tmp_path, "l.csv", b"a,b,c")
        assert main(["fs-put", str(store_dir), "/ledger/q3.csv", source,
                     "--policy", "sec17a-4"]) == 0
        capsys.readouterr()
        assert main(["fs-cat", str(store_dir), "/ledger/q3.csv"]) == 0
        assert "a,b,c" in capsys.readouterr().out
        assert main(["fs-ls", str(store_dir), "/"]) == 0
        assert "ledger" in capsys.readouterr().out

    def test_append_across_processes(self, store_dir, tmp_path, capsys):
        first = _write_file(tmp_path, "1.log", b"line1\n")
        second = _write_file(tmp_path, "2.log", b"line2\n")
        main(["fs-put", str(store_dir), "/app.log", first])
        main(["fs-put", str(store_dir), "/app.log", second, "--append"])
        capsys.readouterr()
        main(["fs-cat", str(store_dir), "/app.log"])
        assert "line1\nline2\n" in capsys.readouterr().out

    def test_fs_history_lists_versions(self, store_dir, tmp_path, capsys):
        v1 = _write_file(tmp_path, "v1", b"first")
        v2 = _write_file(tmp_path, "v2", b"second")
        main(["fs-put", str(store_dir), "/doc", v1])
        main(["fs-put", str(store_dir), "/doc", v2])
        capsys.readouterr()
        assert main(["fs-history", str(store_dir), "/doc"]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out

    def test_fs_history_missing_path(self, store_dir, capsys):
        assert main(["fs-history", str(store_dir), "/ghost"]) == 1

    def test_old_version_readable(self, store_dir, tmp_path, capsys):
        v1 = _write_file(tmp_path, "v1", b"first")
        v2 = _write_file(tmp_path, "v2", b"second")
        main(["fs-put", str(store_dir), "/doc", v1])
        main(["fs-put", str(store_dir), "/doc", v2])
        capsys.readouterr()
        main(["fs-cat", str(store_dir), "/doc", "--version", "1"])
        assert "first" in capsys.readouterr().out


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
    @pytest.mark.parametrize("argv", [
        ["shard-bench", "--workers", "0"],
        ["shard-bench", "--record-size", "-1"],
        ["tenant-bench", "--days", "0"],
    ], ids=["shard-bench-workers", "shard-bench-record-size",
            "tenant-bench-days"])
    def test_invalid_argument_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]}: ")
        assert "must be >=" in captured.err
        assert captured.out == ""
