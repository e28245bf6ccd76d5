#!/usr/bin/env python
"""Replicated WORM archive: a whole site lost, no acknowledged record lost.

The primary site (two shards, each with its own SCPU) mirrors its intent
journal synchronously to a standby at another site and ships its catalog
there over a lossy WAN.  The primary then burns down with its latest
filings not yet shipped.  A fresh site is rebuilt from the untrusted
standby: every shipped construct is re-verified against the dead site's
CA-certified keys, the unshipped tail is re-ingested from the mirrored
journal, and every acknowledged filing reads back verified.  A standby
whose disk was doctored is refused instead.

Run:  python examples/replicated_archive.py
"""

from repro import CertificateAuthority, RecordLocator, TamperedError
from repro.faults import FaultPlan
from repro.recovery import SiteRecovery
from repro.recovery.drill import (audit_zero_loss, build_primary,
                                  build_standby, catch_up,
                                  flip_replicated_byte)


def main() -> None:
    ca = CertificateAuthority(bits=512)
    store, transport, replica, pump = build_primary(
        ca=ca, plan=FaultPlan(seed=3, transient_rate=0.1))
    print(f"primary: {store.shard_count} shards, one SCPU each; journal "
          "mirrored synchronously, catalog shipped over a lossy WAN")

    # -- commit the year's filings; the catalog ships behind them ----------
    ledger = {}
    for quarter in range(1, 5):
        filings = [f"Q{quarter} 10-Q filing, section {i}".encode()
                   for i in range(6)]
        receipts = store.write_batch(filings, policy="sox")
        ledger.update((r.locator.pack(), f) for r, f in zip(receipts, filings))
        store.advance_clocks(1.0)
        if quarter < 4:  # Q4's catalog never leaves the site
            catch_up(pump)
    print(f"committed {len(ledger)} filings; Q4's catalog not yet shipped")

    # -- disaster: the whole primary site is gone ---------------------------
    del store, transport, pump
    print("primary site destroyed: hosts, disks and SCPUs")

    # -- rebuild from the untrusted standby -----------------------------------
    standby = build_standby()
    report = SiteRecovery(replica, standby, ca).run()
    print(f"recovery: {' -> '.join(report.stages_completed)}")
    print(f"  {report.records_verified} VRs re-verified, "
          f"{report.records_replayed} replayed, "
          f"{report.journal_requeued} journal entries re-ingested")
    audit = audit_zero_loss(standby, ca, ledger, report)
    print(f"acknowledged filings lost: {len(audit.lost)} of {len(ledger)}")
    if audit.lost:
        raise SystemExit(f"FAILURE: acknowledged filings lost: {audit.lost}")

    last = list(ledger)[-1]  # a Q4 filing: it survived in the journal only
    locator = RecordLocator.unpack(report.locator_mapping[last])
    verified = standby.make_client(ca).verify_read(standby.read(locator),
                                                   locator)
    print(f"verified read still succeeds on the rebuilt site: "
          f"{verified.data!r}")

    # -- a standby whose disk lies is refused, not laundered -------------------
    store, transport, replica, pump = build_primary(ca=ca)
    store.write_batch([b"board minutes"], policy="sox")
    catch_up(pump)
    flip_replicated_byte(replica)
    print("second standby: one bit flipped on its disk")
    try:
        SiteRecovery(replica, build_standby(), ca).run()
    except TamperedError as exc:
        print(f"recovery refused the doctored standby: {exc}")
    else:
        raise SystemExit("FAILURE: the doctored standby was imported")


if __name__ == "__main__":
    main()
