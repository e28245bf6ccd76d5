"""The perf gate: every committed BENCH_*.json equals a fresh run.

``check_baselines`` is the function scripts/check.sh trusts to keep the
committed artifacts in step with the code, so its one rule is pinned
here: regenerate, render, compare byte for byte.  Any changed leaf is
drift — a workload parameter, a regression or an improvement — and so
is a missing file.  ``generate_all`` is replaced by small fixed
artifacts, so no bench runs here.
"""

import copy
from pathlib import Path

import pytest

from repro import perf
from repro.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

SHARD = {
    "workload": {"records": 240, "record_size": 1024, "workers": 64},
    "points": [{"shards": 1, "batch": 1, "writes_per_sec": 1842.9,
                "scpu_crossings": 722}],
    "headline": {"shards": 4, "batch": 8, "writes_per_sec": 29789.0,
                 "scpu_crossings": 98},
}


@pytest.fixture
def fresh(monkeypatch):
    """What the patched ``generate_all`` returns; edit it to drift."""
    artifacts = {name: {"artifact": name} for name in perf.BASELINE_NAMES}
    artifacts["BENCH_shard.json"] = copy.deepcopy(SHARD)
    monkeypatch.setattr(perf, "generate_all",
                        lambda: copy.deepcopy(artifacts))
    return artifacts


@pytest.fixture
def committed(tmp_path, fresh):
    perf.write_baselines(tmp_path)
    return tmp_path


def test_identical_baselines_pass(committed, capsys):
    assert perf.check_baselines(committed) == []
    assert main(["perf", "--check", "--out-dir", str(committed)]) == 0
    assert "all 7 artifacts match a fresh run" in capsys.readouterr().out


@pytest.mark.parametrize("section, key, change", [
    ("workload", "records", lambda value: 220),
    ("headline", "writes_per_sec", lambda value: value * 0.91),
    ("headline", "writes_per_sec", lambda value: value * 5),
], ids=["workload-parameter", "throughput-drop", "improvement"])
def test_one_leaf_change_is_drift(committed, fresh, section, key, change):
    leaves = fresh["BENCH_shard.json"][section]
    leaves[key] = change(leaves[key])
    assert perf.check_baselines(committed) == ["BENCH_shard.json"]


def test_edited_committed_file_fails_the_cli_gate(committed, capsys):
    path = committed / "BENCH_shard.json"
    path.write_text(path.read_text().replace('"records": 240',
                                             '"records": 220'))
    assert main(["perf", "--check", "--out-dir", str(committed)]) == 2
    err = capsys.readouterr().err
    assert "BENCH_shard.json" in err and "make perf" in err


def test_missing_file_is_drift(committed):
    (committed / "BENCH_read.json").unlink()
    assert perf.check_baselines(committed) == ["BENCH_read.json"]


def test_every_committed_artifact_is_gated():
    on_disk = {path.name for path in BENCHMARKS.glob("BENCH_*.json")
               if not path.name.endswith("_telemetry.json")}
    assert set(perf.BASELINE_NAMES) == on_disk
