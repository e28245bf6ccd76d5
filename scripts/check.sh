#!/bin/sh
# wormlint + lint (when ruff is available) + the tier-1 test suite.
#
# Usage: scripts/check.sh          (or: make check)
#
# wormlint needs only the repo itself and always runs: it enforces the
# paper's compliance invariants (trust domain, virtual time, tamper
# escalation, no signature laundering) against the committed baseline.
# ruff ships in the `dev` extra (pip install -e '.[dev]'); environments
# without it skip the style lint with a notice rather than failing, so
# `make check` works in the minimal container too.

set -eu

cd "$(dirname "$0")/.."

echo "==> wormlint (compliance invariants, project mode)"
PYTHONPATH=src python -m repro.lint --project src tests

# Diff-aware gates run when a merge base with the main branch exists:
# the baseline may only shrink relative to it, and the incremental pass
# re-lints just the changed lines (a fast signal; the full run above
# stays authoritative).
BASE_REF="${WORMLINT_BASE_REF:-main}"
if MERGE_BASE=$(git merge-base HEAD "$BASE_REF" 2>/dev/null); then
    echo "==> wormlint baseline gate (vs $BASE_REF)"
    PYTHONPATH=src python -m repro.lint --baseline-gate "$MERGE_BASE" \
        src tests
    echo "==> wormlint diff gate (changed lines vs merge base)"
    PYTHONPATH=src python -m repro.lint --project --diff "$BASE_REF" \
        src tests
else
    echo "==> no merge base with $BASE_REF; skipping diff-aware gates"
fi

if python -c "import ruff" >/dev/null 2>&1 || command -v ruff >/dev/null 2>&1
then
    echo "==> ruff check"
    python -m ruff check src tests benchmarks examples
else
    echo "==> ruff not installed; skipping lint (pip install -e '.[dev]')"
fi

echo "==> tier-1 tests"
PYTHONPATH=src python -m pytest -x -q

echo "==> chaos suite"
PYTHONPATH=src python -m pytest -x -q -m chaos

echo "==> dev mode (crypto + hardware under -X dev, ResourceWarning fatal)"
# A warning at interpreter shutdown (a helper process still running, an
# unclosed pipe) does not change pytest's exit code, so stderr is
# searched too.  Test output goes to stdout; stderr is captured.
DEV_STATUS=0
DEV_ERR=$( { PYTHONPATH=src python -X dev -W error::ResourceWarning \
    -m pytest -x -q tests/crypto tests/hardware 2>&1 1>&3 3>&-; } 3>&1 ) \
    || DEV_STATUS=$?
[ -z "$DEV_ERR" ] || printf '%s\n' "$DEV_ERR" >&2
if [ "$DEV_STATUS" -ne 0 ] || printf '%s' "$DEV_ERR" | grep -q ResourceWarning
then
    echo "dev-mode stage failed (pytest status $DEV_STATUS;" \
        "see ResourceWarning above)" >&2
    exit 1
fi

echo "==> obs (snapshot schema + tenant accounting)"
PYTHONPATH=src python -m repro.cli obs --shards 2 --records 48 \
    --check scripts/obs_schema.json >/dev/null

echo "==> perf gate (every committed BENCH_*.json regenerated and compared"
echo "    byte for byte; re-baseline with make perf)"
PYTHONPATH=src python -m repro.cli perf --check

echo "==> contract gate (service RC suites + multi-tenant overload bench)"
PYTHONPATH=src python -m pytest -x -q tests/service
PYTHONPATH=src python -m repro.cli tenant-bench >/dev/null

echo "==> recovery drill (site kill -> verified rebuild, + corrupt replica)"
PYTHONPATH=src python -m repro.cli recover --records 400 >/dev/null
PYTHONPATH=src python -m repro.cli recover --records 200 --corrupt >/dev/null
