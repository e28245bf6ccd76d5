"""Wall-clock and modelled cost of Strong WORM, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where the run's temporary journals live, and where spans are written.
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
#: Samples a percentile needs: at least ten beyond the 99th.
P99_MIN_SAMPLES = 1000
#: Fresh interpreters timed importing the program; ``import_s`` is their median.
IMPORT_PROBES = 7
#: Prints the import's wall time and, measured right after it in the same
#: process, the speed factor nominal ÷ measured reference computation.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
start = time.perf_counter()
import workloads
print(time.perf_counter() - start,
      workloads.REFERENCE_CPU_NOMINAL_S / workloads.reference_seconds())
"""


class Workload(NamedTuple):
    schedule: Callable
    run_pass: Callable
    #: Latency kind behind ``latency_p50_ms``/``latency_p99_ms``.
    latency: str
    #: Latency kinds the report prints, under the workload's own names.
    kinds: Dict[str, str]


def _workloads(traffic, workloads) -> Dict[str, Workload]:
    return {
        "ingest": Workload(traffic.ingest, workloads.ingest_pass, "write",
                           {"write": "write"}),
        "audit_read": Workload(
            traffic.audit_read, workloads.audit_read_pass, "read_verified",
            {"read_verified": "read", "read": "plain_read",
             "write": "write"}),
        "lifecycle": Workload(traffic.lifecycle, workloads.lifecycle_pass,
                              "write", {"write": "write", "read": "read"}),
        "site_recovery": Workload(
            traffic.site_recovery, workloads.site_recovery_pass, "write",
            {"write": "write"}),
    }


def import_probes(src: Path) -> List[Tuple[float, float]]:
    """(wall seconds, speed factor) of importing everything a pass needs
    (the program and this benchmark's modules), each in a fresh interpreter."""
    probes = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120)
        seconds, speed = map(float, probe.stdout.split())
        probes.append((seconds, speed))
    return probes


def import_seconds(probes: List[Tuple[float, float]],
                   scaled: bool = True) -> float:
    return statistics.median(s * (k if scaled else 1.0) for s, k in probes)


def percentile(samples: List[float], q: int) -> float:
    """The *q*-th percentile (inclusive method, 1 <= q <= 99)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _pooled(passes, kind: str) -> List[float]:
    return [s for p in passes for s in p.latencies.get(kind, [])]


def end_to_end(passes, spec: Workload, probes: List[Tuple[float, float]],
               scaled: bool = True) -> Dict[str, float]:
    """The gated metrics (see BENCHMARK.json), from untraced passes.

    ``setup_s`` is the median import time of the *probes* plus the median
    set-up of a pass.  With *scaled*, every wall time of a pass is
    multiplied by ``pass.ref_nominal_s / pass.ref_s`` (rates divided by
    it), and every import time by its probe's own speed factor, so a
    machine that is momentarily slower or faster reads the same; the
    modelled and memory figures are never scaled.
    """
    speed = [p.ref_nominal_s / p.ref_s if scaled else 1.0 for p in passes]
    latency = [sample * k for p, k in zip(passes, speed)
               for sample in p.latencies.get(spec.latency, [])]
    return {
        "setup_s": import_seconds(probes, scaled) + statistics.median(
            p.setup_s * k for p, k in zip(passes, speed)),
        "throughput_per_s": statistics.median(
            p.work / p.work_wall_s / k for p, k in zip(passes, speed)),
        "latency_p50_ms": percentile(latency, 50) * 1e3,
        "latency_p99_ms": percentile(latency, 99) * 1e3,
        "model_ms_per_item": statistics.median(
            p.model_s / p.work for p in passes) * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p99_ms": "ms", "model_ms_per_item": "ms",
         "peak_rss_mb": "MB"}


def named_metrics(passes, spec: Workload, e2e: Dict[str, float],
                  import_s: float, failed: int,
                  attempted: int) -> List[tuple]:
    """Each workload's own metric names (unscaled), for the report."""
    rows = [("setup_s", e2e["setup_s"], "s"), ("import_s", import_s, "s")]
    keys = sorted({k for p in passes for k in p.named})
    units = {"records_per_s": "rec/s", "ops_per_s": "ops/s",
             "maint_records_per_s": "rec/s", "model_writes_per_s":
             "rec/s virtual", "rejected_share": "fraction",
             "maintenance_share": "fraction", "rto_s": "s",
             "model_rto_s": "s virtual"}
    for key in keys:
        rows.append((key, statistics.median(p.named[key] for p in passes),
                     units.get(key, "")))
    for kind, label in spec.kinds.items():
        samples = _pooled(passes, kind)
        if not samples:
            continue
        rows.append((f"{label}_p50_ms", percentile(samples, 50) * 1e3,
                     f"ms (n={len(samples)})"))
        if len(samples) >= P99_MIN_SAMPLES:
            rows.append((f"{label}_p99_ms", percentile(samples, 99) * 1e3,
                         f"ms (n={len(samples)})"))
    rows.append(("error_share", failed / max(1, attempted), "fraction"))
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"], "MB"))
    return rows


# ------------------------------------------------------------- per layer

#: Every layer the recorder installs.  ``driver.self_s`` is the rest of the
#: traced wall, so the run's check that these self times plus it add up to
#: the wall only proves this list is complete.
SELF_TIME_LAYERS = (
    ("service", "service.self_s"), ("sharded", "sharded.self_s"),
    ("store", "store.self_s"), ("auth", "auth.self_s"),
    ("retention", "retention.self_s"), ("deferred", "deferred.self_s"),
    ("scpu", "scpu.self_s"), ("crypto.sign", "crypto.sign_s"),
    ("crypto.verify", "crypto.verify_s"), ("blocks", "blocks.self_s"),
    ("journal", "journal.self_s"), ("client", "client.self_s"),
    ("recovery", "recovery.self_s"), ("replication", "replication.self_s"),
)
CALL_COUNTS = (
    ("service", "service.calls"), ("sharded", "sharded.calls"),
    ("store", "store.calls"), ("auth", "auth.calls"),
    ("scpu", "scpu.calls"), ("crypto.sign", "crypto.sign_calls"),
    ("crypto.verify", "crypto.verify_calls"), ("blocks", "blocks.calls"),
    ("journal", "journal.calls"), ("client", "client.calls"),
    ("replication", "replication.calls"),
)
STAGES = ("discover", "download", "verify", "replay", "resume")
#: Counts the pass itself measures (meters, queues, reports).
PASS_COUNTS = ("scpu.model_s", "host.model_s", "disk.model_s",
               "scpu.crossings", "scpu.bytes_crossed", "retention.expired",
               "deferred.strengthened", "deferred.hashes_verified",
               "deferred.overdue", "client.sig_memo_hit_ratio",
               "recovery.records_replayed", "replication.lost_ratio")


def layer_metrics(result) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    rec = result.recorder
    metrics: Dict[str, float] = {}
    for layer, name in SELF_TIME_LAYERS:
        metrics[name] = rec.self_ns.get(layer, 0) / 1e9
    for layer, name in CALL_COUNTS:
        metrics[name] = rec.calls.get(layer, 0)
    commits = rec.counts.get("sharded.commits", 0)
    metrics["sharded.records_per_commit"] = (
        rec.counts.get("sharded.committed_records", 0) / commits
        if commits else 0.0)
    metrics["blocks.bytes"] = rec.counts.get("blocks.bytes", 0)
    for stage in STAGES:
        metrics[f"recovery.{stage}_s"] = (
            rec.name_ns.get(f"recovery.{stage}", 0) / 1e9)
    for name in PASS_COUNTS:
        metrics[name] = result.layer.get(name, 0)
    metrics["driver.self_s"] = result.timed_s - rec.top_level_ns / 1e9
    metrics["traced_timed_s"] = result.timed_s
    return metrics


def per_layer(untraced, traced) -> Dict[str, float]:
    """Mean per-pass layer figures, plus the tracing overhead."""
    rows = [layer_metrics(p) for p in traced]
    metrics = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    metrics["trace_overhead_ratio"] = (
        statistics.fmean(p.timed_s for p in traced)
        / statistics.fmean(p.timed_s for p in untraced))
    return metrics


def trace_counts(result) -> Dict[str, float]:
    """Counts of a traced pass that must repeat exactly."""
    rec = result.recorder
    return {"crypto.sign_calls": rec.calls.get("crypto.sign", 0),
            "crypto.verify_calls": rec.calls.get("crypto.verify", 0),
            "spans": len(rec.spans)}


# ------------------------------------------------------------------- main

def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>14.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "audit_read", "lifecycle",
                                 "site_recovery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro; run this "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import keyset
    import traffic
    import workloads
    from spans import SpanRecorder

    spec = _workloads(traffic, workloads)[args.workload]
    keys = keyset.provision(args.seed)      # before any set-up is timed
    inputs = spec.schedule(args.seed)
    # Set-up starts with the imports; this process has made them already
    # (and cached their bytecode), so they are timed in fresh interpreters.
    probes = [] if args.trace else import_probes(src)

    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    passes = []
    try:
        timed = 0.0
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            try:
                result = spec.run_pass(inputs, keys, tmp,
                                       SpanRecorder() if traced else None)
            except Exception as exc:  # the program raised instead of answering
                traceback.print_exc()
                result = workloads.PassResult()
                result.fail(f"pass {len(passes) + 1} raised {exc!r}")
            passes.append(result)
            if result.errors:
                break
            timed += result.timed_s
            untraced = [p for p in passes if p.recorder is None]
            enough = len(_pooled(untraced, spec.latency)) >= P99_MIN_SAMPLES
            if timed >= args.seconds and enough and (
                    not args.trace or len(untraced) < len(passes)):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still owns a directory in it

    untraced = [p for p in passes if p.recorder is None]
    traced = [p for p in passes if p.recorder is not None]
    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.attempted for p in passes)
    exact = passes[0].exact
    for index, result in enumerate(passes[1:], start=2):
        if result.exact != exact:
            errors.append(f"pass {index} did not repeat pass 1 exactly: "
                          f"{result.exact} != {exact}")
    exact = dict(exact)
    if traced:
        counts = trace_counts(traced[0])
        for result in traced[1:]:
            if trace_counts(result) != counts:
                errors.append("traced passes differ in their span counts")
        exact.update(counts)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes, "
          f"timed {sum(p.timed_s for p in passes):.2f} s")
    for index, result in enumerate(passes, start=1):
        samples = result.latencies.get(spec.latency)
        if not samples or not result.work_wall_s:
            print(f"pass {index}: stopped before its timed phase ended")
            continue
        print(f"pass {index}{' traced' if result.recorder else ''}: "
              f"setup {result.setup_s:.4f} s, timed {result.timed_s:.3f} s, "
              f"reference {result.ref_s * 1e3:.1f} ms, throughput "
              f"{result.work / result.work_wall_s:.6g}/s, latency p50 "
              f"{percentile(samples, 50) * 1e3:.4f} ms p99 "
              f"{percentile(samples, 99) * 1e3:.4f} ms")
    for message in errors[:20]:
        print(f"ERROR {message}")
    print("exact-repeat " + json.dumps(exact, sort_keys=True))

    failed = len(errors)
    if args.trace:
        metrics = per_layer(untraced, traced) if traced and untraced else {}
        if metrics:
            total = sum(metrics[name] for _, name in SELF_TIME_LAYERS)
            total += metrics["driver.self_s"]
            if abs(total - metrics["traced_timed_s"]) > 1e-6 * total + 1e-6:
                failed += 1
                print("ERROR layer self times do not add up to the traced "
                      "wall: SELF_TIME_LAYERS misses a layer")
            _print_layers(metrics)
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{args.workload}.jsonl"
            written = traced[0].recorder.dump(path)
            print(f"spans of the first traced pass: {written} -> "
                  f"{path.relative_to(ROOT)}")
        units = {}
    else:
        metrics = end_to_end(untraced, spec, probes) if not errors else {}
        if metrics:
            reference = statistics.median(p.ref_s for p in untraced)
            _print_table(
                "end-to-end, gated (wall times scaled to the nominal "
                f"machine: reference {reference * 1e3:.1f} ms measured, "
                f"{untraced[0].ref_nominal_s * 1e3:.1f} ms nominal)",
                [(k, v, UNITS[k]) for k, v in metrics.items()])
            raw = end_to_end(untraced, spec, probes, scaled=False)
            _print_table("end-to-end, wall-clock as measured",
                         [(k, v, UNITS[k]) for k, v in raw.items()])
            print("wall-clock " + json.dumps(raw))
            print("import probes (s as measured, speed factor): " + ", ".join(
                f"{seconds:.4f} x{speed:.3f}" for seconds, speed in probes))
            _print_table(f"{args.workload} by its own metric names",
                         named_metrics(untraced, spec, raw,
                                       import_seconds(probes, scaled=False),
                                       failed, attempted))
        units = UNITS
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or _layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_crossed"):
        return "B"
    if name.endswith("records_per_commit"):
        return "rec"
    return "count"


def _print_layers(metrics: Dict[str, float]) -> None:
    wall = metrics["traced_timed_s"]
    rows = sorted(((name, metrics[name]) for _, name in SELF_TIME_LAYERS),
                  key=lambda item: -item[1])
    rows.append(("driver.self_s", metrics["driver.self_s"]))
    print(f"per-layer self time of a traced pass ({wall:.3f} s, "
          f"overhead x{metrics['trace_overhead_ratio']:.3f}):")
    for name, value in rows:
        print(f"  {name:<24} {value:>10.4f} s  {100 * value / wall:5.1f} %")
    _print_table("per-layer counts and modelled seconds",
                 [(k, v, _layer_unit(k)) for k, v in sorted(metrics.items())
                  if not k.endswith("self_s") and k not in (
                      "crypto.sign_s", "crypto.verify_s")])


if __name__ == "__main__":
    sys.exit(main())
