"""Steadiness proof: every workload, seeds 1-10, twice over.

    python3 perfbench/steady.py

Runs each workload of ``BENCHMARK.json`` with seeds 1 to 10, then does
it all again as a second set.  For each workload and end-to-end metric
it prints, per set, the median and the distance between the first and
third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), beside the metric's bound; then
it compares the two medians against the bound, and demands that the
exact-repeat counts of each seed match between the sets.  It exits 1 if
any run failed, any spread exceeds its bound, any median got worse by
more than its bound, or any count differs.  Runs go one at a time, so
they never compete with each other for the CPU.  Every run's output is
kept in ``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2
OUT = ROOT / ".perfbench_out" / "steady.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    exact = next((json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("exact-repeat ")), None)
    raw = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("wall-clock ")), None)
    result = json.loads(lines[-1]) if lines else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": time.perf_counter() - start, "exact": exact,
            "wall_clock": raw, "stdout": proc.stdout[-20000:],
            "result": result, "stderr": proc.stderr[-2000:]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(runs, bench) -> bool:
    ok = True
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        bad = [r for r in mine if r["exit"] != 0
               or not r["result"].get("correct")]
        walls = [r["wall_s"] for r in mine]
        print(f"\n{workload}: {len(mine)} runs, wall per run "
              f"{min(walls):.1f}-{max(walls):.1f} s, failed runs: {len(bad)}")
        for r in bad:
            ok = False
            print(f"  seed {r['seed']} exit {r['exit']}: {r['stderr'][-300:]}")
        for name, spec in specs.items():
            by_set = [[r["result"]["metrics"][name]["value"] for r in mine
                       if r["set"] == s and r["result"].get("metrics")]
                      for s in range(SETS)]
            if any(len(v) < 4 for v in by_set):
                continue
            line = f"  {name:<20} bound {spec['bound']:<5}"
            for values in by_set:
                sp = spread(values)
                gate = (" OK" if sp <= spec["bound"] / 3 else
                        " (>1/3 bound)" if sp <= spec["bound"] else " FAIL")
                ok = ok and sp <= spec["bound"]
                line += (f" | median {statistics.median(values):.6g} "
                         f"spread {sp:.3f}{gate}")
            first, second = (statistics.median(v) for v in by_set)
            worse = ((second - first) / first if spec["better"] == "lower"
                     else (first - second) / first)
            ok = ok and worse <= spec["bound"]
            line += (f" | drift {worse:+.3f} "
                     f"{'OK' if worse <= spec['bound'] else 'FAIL'}")
            print(line)
            raw = [r["wall_clock"][name] for r in mine
                   if r.get("wall_clock") and name in r["wall_clock"]]
            if len(raw) >= 4:
                print(f"  {'':<20} unscaled wall-clock: median "
                      f"{statistics.median(raw):.6g} spread {spread(raw):.3f}")
        firsts = {r["seed"]: r["exact"] for r in mine if r["set"] == 0}
        mismatched = [r["seed"] for r in mine if r["set"] == 1
                      and r["exact"] != firsts.get(r["seed"])]
        ok = ok and not mismatched
        print(f"  exact-repeat counts identical across sets: "
              f"{'yes' if not mismatched else f'NO, seeds {mismatched}'}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for set_index in range(SETS):
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in SEEDS:
                run = run_once(workload, seed, bench["run_seconds"])
                run["set"] = set_index
                runs.append(run)
                print(f"set {set_index} {workload} seed {seed}: exit "
                      f"{run['exit']} in {run['wall_s']:.1f} s", flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(runs, indent=1))
    return 0 if report(runs, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
