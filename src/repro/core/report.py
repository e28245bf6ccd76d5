"""Compliance reporting: the regulator-facing paper trail.

Regulated operators must periodically demonstrate compliance, not merely
be compliant.  :func:`generate_report` combines a full audit sweep, the
operator overview, the policy inventory, and the deferred-work health
checks into one plain-text report suitable for filing — the artifact a
compliance officer runs quarterly, and the thing an examiner asks for
first.

The verdict logic is deliberately strict:

* any audit **violation** → ``FAIL`` (evidence of tampering);
* overdue strengthening or unverified host hashes past their horizon →
  ``WARN`` (the §4.3 safety margin is being consumed);
* otherwise ``PASS``.
"""

from __future__ import annotations

from datetime import datetime, timezone
from dataclasses import dataclass
from typing import List, Optional

from repro.core.audit import AuditReport, StoreAuditor
from repro.core.client import WormClient
from repro.core.worm import StrongWormStore
from repro.sim.metrics import format_table

__all__ = ["ComplianceReport", "generate_report"]


@dataclass
class ComplianceReport:
    """A rendered report plus its machine-readable verdict."""

    verdict: str          # "PASS" | "WARN" | "FAIL"
    text: str
    audit: AuditReport
    warnings: List[str]

    @property
    def clean(self) -> bool:
        return self.verdict == "PASS"


def generate_report(store: StrongWormStore, client: WormClient,
                    title: str = "WORM store compliance report",
                    wall_time: Optional[float] = None) -> ComplianceReport:
    """Run the sweep and render the full report."""
    store.auth.refresh(force=True)
    auditor = StoreAuditor(store, client)
    audit = auditor.sweep()
    overview = auditor.compliance_overview()

    warnings: List[str] = []
    if overview["strengthening_overdue"]:
        warnings.append(
            f"{overview['strengthening_overdue']} weak construct(s) past "
            "their strengthening deadline — schedule maintenance NOW")
    if store.strengthening.lifetime_violations:
        warnings.append(
            f"{store.strengthening.lifetime_violations} construct(s) were "
            "strengthened after their security lifetime lapsed")
    if overview["hash_mismatches_found"]:
        warnings.append(
            f"host-hash mismatches on SNs {overview['hash_mismatches_found']}"
            " — the main CPU lied during a burst")
    if overview["vexp_needs_rescan"]:
        warnings.append("VEXP under capacity pressure — night scan pending")
    if audit.weakly_signed_count:
        warnings.append(
            f"{audit.weakly_signed_count} record(s) still weakly signed")

    if not audit.clean:
        verdict = "FAIL"
    elif warnings:
        verdict = "WARN"
    else:
        verdict = "PASS"

    lines: List[str] = []
    lines.append("=" * 68)
    lines.append(title)
    # Reports are stamped in *virtual* time so identical runs file
    # identical reports; a caller with a real calendar (the CLI's
    # persistent stores) passes its wall clock in explicitly.
    if wall_time is not None:
        calendar = datetime.fromtimestamp(
            wall_time, tz=timezone.utc).strftime("%a %b %d %H:%M:%S %Y UTC")
        lines.append(f"generated: {calendar}  "
                     f"(store virtual time {store.now:.0f}s)")
    else:
        lines.append(f"generated: store virtual time {store.now:.0f}s")
    lines.append(f"VERDICT: {verdict}")
    lines.append("=" * 68)

    lines.append("")
    lines.append(format_table(
        ["metric", "value"],
        [["serial numbers issued", store.scpu.current_serial_number],
         ["SN base (window floor)", store.scpu.sn_base],
         ["active records", overview["active_records"]],
         ["records audited", audit.total],
         ["audit violations", len(audit.violations)],
         ["litigation holds", len(overview["litigation_holds"])],
         ["expiring within horizon", len(overview["expiring_within_horizon"])],
         ["strengthening backlog", overview["strengthening_backlog"]],
         ["unverified host hashes", overview["unverified_host_hashes"]],
         ["VRDT footprint (bytes)", overview["vrdt_bytes"]]],
        title="Store summary"))

    if audit.violations:
        lines.append("")
        lines.append(format_table(
            ["SN", "detail"],
            [[f.sn, f.detail[:56]] for f in audit.violations],
            title="TAMPERING EVIDENCE"))

    if warnings:
        lines.append("")
        lines.append("Warnings:")
        for warning in warnings:
            lines.append(f"  - {warning}")

    lines.append("")
    lines.append(format_table(
        ["policy", "retention", "secure deletion", "citation"],
        [[p.name,
          f"{p.retention_seconds / (365 * 24 * 3600):.1f}y",
          p.shredding_algorithm if p.secure_deletion_required else "-",
          p.citation[:36]]
         for p in sorted(store.policies, key=lambda p: p.name)],
        title="Policy inventory"))

    return ComplianceReport(verdict=verdict, text="\n".join(lines),
                            audit=audit, warnings=warnings)
