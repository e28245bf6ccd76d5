.PHONY: check test lint wormlint lint-sarif bench chaos obs service recover perf

# wormlint + ruff (if installed) + tier-1 tests. The pre-merge gate.
check:
	sh scripts/check.sh

# Compliance-invariant checks (trust domain, virtual time, no laundering).
# Project mode adds the interprocedural rules (W007-W009) on top of the
# per-file set.
wormlint:
	PYTHONPATH=src python -m repro.lint --project src tests

# Full project lint as a SARIF 2.1.0 log for code-scanning upload.
lint-sarif:
	PYTHONPATH=src python -m repro.lint --project --format sarif \
	    --output wormlint.sarif src tests
	@echo "wrote wormlint.sarif"

test:
	PYTHONPATH=src python -m pytest -x -q

# Fault-injection / degraded-mode suite (deterministic chaos tests).
chaos:
	PYTHONPATH=src python -m pytest -x -q -m chaos

lint:
	python -m ruff check src tests benchmarks examples

# Short sharded workload -> telemetry snapshot, validated against the
# committed schema (counter names are an API: renames must fail here, not
# drift silently), plus the service's tenant accounting vs its receipts.
obs:
	PYTHONPATH=src python -m repro.cli obs --shards 2 --records 48 \
	    --check scripts/obs_schema.json

# Service contract gates (RC-1..RC-3 + lifecycle) and the multi-tenant
# overload bench: Zipf-skewed open-loop traffic with a burst above the
# admission limit; fails unless every admitted-or-deferred write lands
# durable and every rejection is a well-formed coded problem.
service:
	PYTHONPATH=src python -m pytest -x -q tests/service
	PYTHONPATH=src python -m repro.cli tenant-bench

# Site-loss recovery drill: replicate to a standby over a flaky WAN,
# kill the primary mid-stream, rebuild with staged verified recovery.
# Fails on any acknowledged-write loss, a laundered corrupt replica,
# or an RTO over the virtual-time bound.
recover:
	PYTHONPATH=src python -m repro.cli recover --records 400
	PYTHONPATH=src python -m repro.cli recover --records 200 --corrupt

# Every committed virtual-time artifact: benchmarks/BENCH_shard.json,
# BENCH_figure1.json, BENCH_read.json, BENCH_read_granular.json and
# BENCH_ablation_auth_{windows,merkle,accumulator}.json.  The numbers are
# deterministic, so scripts/check.sh regenerates them and compares byte
# for byte.  Run this to re-baseline after an intentional change, and
# commit the regenerated files with it.
perf:
	PYTHONPATH=src python -m repro.cli perf

# Full virtual-time evaluation suite (slow: paper-sized 1024-bit keys).
bench:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q
