"""``python -m repro.lint`` — the wormlint command line.

Exit status: 0 clean (modulo baseline), 1 new findings or unparsable
files, 2 usage errors.  ``--write-baseline`` regenerates the committed
grandfather file from the current findings and exits 0 — a deliberate,
reviewable act; ``--prune-baseline`` only ever shrinks it.

``--project`` builds the whole-program model and runs the
interprocedural rules (W007–W009) on top of the per-file set;
``--diff REF`` keeps only findings on lines changed since the merge
base with REF (project-rule findings are kept per changed *file* — the
taint chain is not a per-line property); ``--baseline-gate REF`` fails
if the committed baseline grew relative to its copy at REF.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.engine import all_rules, lint_paths
from repro.lint.reporters import render_json, render_sarif, render_text

DEFAULT_PATHS = ["src", "tests"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="wormlint: compliance-invariant checks for Strong WORM")
    parser.add_argument("paths", nargs="*", default=None,
                        help=f"files/directories to lint "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run (e.g. W002,W004)")
    parser.add_argument("--project", action="store_true",
                        help="build the whole-program model and run the "
                             "interprocedural rules (W007-W009)")
    parser.add_argument("--diff", metavar="REF",
                        help="report only findings on lines changed since "
                             "the merge base with REF")
    parser.add_argument("--baseline", metavar="FILE",
                        default=DEFAULT_BASELINE_NAME,
                        help="baseline file of grandfathered findings "
                             f"(default: {DEFAULT_BASELINE_NAME})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline: report every finding")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="drop stale fingerprints from the baseline "
                             "(it only ever shrinks)")
    parser.add_argument("--baseline-gate", metavar="REF",
                        help="fail if the baseline grew relative to its "
                             "committed copy at REF")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe the registered rules and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule, cls in all_rules().items():
        tag = " (advisory)" if cls.severity == "advisory" else ""
        scope = "project" if cls.requires_project else "module"
        lines.append(f"{rule}  {cls.title}{tag} [{scope}]")
        lines.append(f"      {cls.rationale}")
    return "\n".join(lines)


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], capture_output=True, text=True)


def _baseline_gate(baseline_path: Path, ref: str) -> int:
    """0 when the baseline did not grow since *ref*, 1 when it did, and
    2 when git cannot resolve *ref* (or there is no work tree)."""
    for check in (["rev-parse", "--is-inside-work-tree"],
                  ["rev-parse", "--verify", f"{ref}^{{commit}}"]):
        proc = _git(*check)
        if proc.returncode != 0 or proc.stdout.strip() == "false":
            print(f"wormlint: cannot read the baseline at {ref}: "
                  f"{proc.stderr.strip() or 'not in a git work tree'}",
                  file=sys.stderr)
            return 2
    proc = _git("show", f"{ref}:{baseline_path.as_posix()}")
    if proc.returncode != 0:
        # REF resolves but has no baseline: it predates the file, so the
        # baseline there counts as empty.
        old = Baseline.empty()
    else:
        old = Baseline.loads(proc.stdout, f"{ref}:{baseline_path}")
    current = (Baseline.load(baseline_path) if baseline_path.exists()
               else Baseline.empty())
    grown = current.growth_since(old)
    if grown:
        print(f"wormlint: baseline grew since {ref} — fix the findings or "
              "suppress them with a reviewed pragma instead:",
              file=sys.stderr)
        for label in grown:
            print(f"  + {label}", file=sys.stderr)
        return 1
    print(f"wormlint: baseline did not grow since {ref} "
          f"({len(current)} entr{'y' if len(current) == 1 else 'ies'})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    baseline_path = Path(args.baseline)
    if args.baseline_gate:
        try:
            return _baseline_gate(baseline_path, args.baseline_gate)
        except ValueError as exc:
            print(f"wormlint: {exc}", file=sys.stderr)
            return 2

    select = None
    if args.select:
        select = [token.strip() for token in args.select.split(",")
                  if token.strip()]

    paths = args.paths if args.paths else DEFAULT_PATHS
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"wormlint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    rewriting = args.write_baseline or args.prune_baseline
    baseline = None
    if not args.no_baseline and not rewriting:
        if baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except ValueError as exc:
                print(f"wormlint: {exc}", file=sys.stderr)
                return 2

    try:
        result = lint_paths(paths, select=select, baseline=baseline,
                            project=args.project)
    except ValueError as exc:   # unknown --select rule
        print(f"wormlint: {exc}", file=sys.stderr)
        return 2

    if args.prune_baseline:
        if not baseline_path.exists():
            print(f"wormlint: no baseline at {baseline_path} to prune",
                  file=sys.stderr)
            return 2
        try:
            committed = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"wormlint: {exc}", file=sys.stderr)
            return 2
        pruned, dropped = committed.pruned_to(result.findings)
        pruned.dump(baseline_path)
        if dropped:
            print(f"wormlint: pruned {len(dropped)} stale entr"
                  f"{'y' if len(dropped) == 1 else 'ies'} from "
                  f"{baseline_path}:")
            for label in dropped:
                print(f"  - {label}")
        else:
            print(f"wormlint: baseline {baseline_path} has no stale entries")
        return 0

    if args.write_baseline:
        Baseline.from_findings(result.findings).dump(baseline_path)
        print(f"wormlint: wrote {len(result.findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    if args.diff:
        from repro.lint.diff import changed_lines, filter_findings, merge_base
        try:
            base = merge_base(args.diff)
            changes = changed_lines(base)
        except ValueError as exc:
            print(f"wormlint: {exc}", file=sys.stderr)
            return 2
        result.findings = filter_findings(result.findings, changes)
        result.advisories = filter_findings(result.advisories, changes)
        result.stale_baseline = []   # meaningless on a partial view

    renderers = {"text": render_text, "json": render_json,
                 "sarif": render_sarif}
    report = renderers[args.format](result)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"wormlint: wrote {args.format} report to {args.output}")
    else:
        print(report)
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
