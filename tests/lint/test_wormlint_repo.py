"""Integration: the repo itself lints clean, and the CLI gates on it."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint import Baseline, lint_paths
from repro.lint.baseline import DEFAULT_BASELINE_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(*argv: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_repo_is_clean_modulo_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)   # baseline fingerprints use repo-relative paths
    try:
        result = lint_paths(["src", "tests"], baseline=baseline)
    finally:
        os.chdir(cwd)
    assert result.clean, "\n".join(f.location() + " " + f.rule
                                   for f in result.findings)
    assert result.stale_baseline == [], result.stale_baseline
    assert result.files_checked > 100


def test_cli_exits_zero_on_the_repo():
    proc = _run_cli("src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_flags_a_seeded_violation(tmp_path):
    # The acceptance gate: re-introducing a wall-clock read must fail the
    # build. Seed one into a scratch tree and watch the CLI go red.
    bad = tmp_path / "seeded.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    proc = _run_cli(str(bad))
    assert proc.returncode == 1
    assert "W002" in proc.stdout


def test_cli_baseline_does_not_mask_new_findings(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    proc = _run_cli("--baseline", str(REPO_ROOT / DEFAULT_BASELINE_NAME),
                    str(bad))
    assert proc.returncode == 1


def test_cli_json_format(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    proc = _run_cli("--format", "json", str(bad))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["summary"]["new_findings"] == 1
    assert payload["findings"][0]["rule"] == "W002"


def test_cli_select_restricts_rules(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    proc = _run_cli("--select", "W001", str(bad))
    assert proc.returncode == 0


def test_cli_write_baseline_then_clean(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    baseline = tmp_path / "baseline.json"
    wrote = _run_cli("--write-baseline", "--baseline", str(baseline),
                     str(bad), cwd=tmp_path)
    assert wrote.returncode == 0
    assert baseline.exists()
    rerun = _run_cli("--baseline", str(baseline), str(bad), cwd=tmp_path)
    assert rerun.returncode == 0
    assert "grandfathered" in rerun.stdout


def test_cli_usage_errors_exit_two(tmp_path):
    assert _run_cli("--select", "W999", "src").returncode == 2
    assert _run_cli(str(tmp_path / "missing")).returncode == 2


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in ("W001", "W002", "W003", "W004", "W005", "W006",
                 "W007", "W008", "W009"):
        assert rule in proc.stdout
    assert "(advisory)" in proc.stdout     # W009 is marked as such
    assert "[project]" in proc.stdout


def test_cli_project_mode_is_clean_on_the_repo():
    proc = _run_cli("--project", "src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
    assert "advisory" in proc.stdout       # W009 reports, never gates


def test_cli_sarif_output_validates(tmp_path):
    from repro.obs.schema import load_schema, validate
    out = tmp_path / "lint.sarif"
    proc = _run_cli("--project", "--format", "sarif",
                    "--output", str(out), "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(out.read_text())
    schema = load_schema(REPO_ROOT / "scripts" / "sarif_schema.json")
    assert validate(document, schema) == []
    # Advisories ride along as "note"-level results.
    levels = {r["level"] for r in document["runs"][0]["results"]}
    assert levels <= {"note", "error"}


def test_cli_baseline_gate_against_head():
    proc = _run_cli("--baseline-gate", "HEAD", "src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "did not grow" in proc.stdout


def _gate_in(tmp_path: Path, ref: str) -> subprocess.CompletedProcess:
    """The baseline gate run in *tmp_path*, git kept from looking above it."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               GIT_CEILING_DIRECTORIES=str(tmp_path.parent))
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", "--baseline-gate", ref],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


def test_cli_baseline_gate_exits_two_on_an_unresolvable_ref():
    proc = _run_cli("--baseline-gate", "no-such-ref-for-the-gate")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "no-such-ref-for-the-gate" in proc.stderr
    assert "grew" not in proc.stderr


def test_cli_baseline_gate_exits_two_outside_a_work_tree(tmp_path):
    """An exported tree (no .git) cannot read the base: not "grew"."""
    shutil.copy(REPO_ROOT / DEFAULT_BASELINE_NAME,
                tmp_path / DEFAULT_BASELINE_NAME)
    proc = _gate_in(tmp_path, "HEAD")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "git" in proc.stderr
    assert "grew" not in proc.stderr


def test_cli_baseline_gate_counts_a_ref_before_the_file_as_empty(tmp_path):
    def git(*args: str) -> None:
        subprocess.run(["git", "-c", "user.name=gate", "-c",
                        "user.email=gate@example.invalid", *args],
                       cwd=tmp_path, check=True, capture_output=True,
                       env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(tmp_path.parent)))

    git("init", "-q")
    (tmp_path / "README").write_text("before the baseline\n")
    git("add", "README")
    git("commit", "-q", "-m", "no baseline yet")
    Baseline.empty().dump(tmp_path / DEFAULT_BASELINE_NAME)
    proc = _gate_in(tmp_path, "HEAD")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "did not grow" in proc.stdout
    # Against that empty base, every entry of a non-empty file is growth.
    shutil.copy(REPO_ROOT / DEFAULT_BASELINE_NAME,
                tmp_path / DEFAULT_BASELINE_NAME)
    proc = _gate_in(tmp_path, "HEAD")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "grew" in proc.stderr


def test_cli_diff_mode_runs_clean_against_head():
    proc = _run_cli("--project", "--diff", "HEAD", "src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_prune_baseline_reports_when_nothing_is_stale(tmp_path):
    # Run against a scratch copy so the committed file is never touched.
    import shutil
    scratch = tmp_path / "repo"
    scratch.mkdir()
    shutil.copy(REPO_ROOT / DEFAULT_BASELINE_NAME,
                scratch / DEFAULT_BASELINE_NAME)
    (scratch / "tests").mkdir()
    for entry in json.loads(
            (REPO_ROOT / DEFAULT_BASELINE_NAME).read_text())["findings"]:
        src = REPO_ROOT / entry["path"]
        dst = scratch / entry["path"]
        dst.parent.mkdir(parents=True, exist_ok=True)
        if src.exists() and not dst.exists():
            shutil.copy(src, dst)
    proc = _run_cli("--prune-baseline", "tests", cwd=scratch)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "baseline" in proc.stdout.lower()


def test_committed_baseline_only_grandfathers_white_box_tests():
    # The baseline must never grow to cover src/ — grandfathering is for
    # pre-existing white-box *tests* only.
    data = json.loads((REPO_ROOT / DEFAULT_BASELINE_NAME).read_text())
    assert data["version"] == 1
    for entry in data["findings"]:
        assert entry["path"].startswith("tests/"), entry
