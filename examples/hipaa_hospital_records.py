#!/usr/bin/env python
"""HIPAA hospital records: secure deletion, litigation holds, shared VRs.

A hospital archives patient records under HIPAA (6-year retention, PHI
*must* be destroyed at end-of-life with a multi-pass shred).  Mid-life, a
malpractice suit places a court-ordered litigation hold on one chart —
which then outlives its retention period until the court releases it.
Radiology images are shared across VRs (the §4.2 popular-attachment
pattern), so a shared image survives until the *last* VR referencing it
expires.

This example uses the on-disk block store so you can watch the files
appear and disappear.

Run:  python examples/hipaa_hospital_records.py
"""

import tempfile
from pathlib import Path

from repro import CertificateAuthority, SigningKey, StrongWormStore, demo_keyring
from repro.crypto.envelope import Envelope, Purpose
from repro.hardware import SecureCoprocessor
from repro.storage.block_store import DirectoryBlockStore

YEAR = 365.0 * 24 * 3600


def credential(regulator: SigningKey, sn: int, now: float):
    """A court order: S_reg(SN, current_time) per §4.2.2 Litigation."""
    return regulator.sign_envelope(Envelope(
        purpose=Purpose.LITIGATION_CREDENTIAL,
        fields={"sn": sn}, timestamp=now))


def main() -> None:
    ca = CertificateAuthority(bits=512)
    court = SigningKey.generate(512, role="regulator")
    scpu = SecureCoprocessor(keyring=demo_keyring())
    blockdir = Path(tempfile.mkdtemp(prefix="hipaa-worm-"))
    store = StrongWormStore(
        scpu=scpu,
        block_store=DirectoryBlockStore(blockdir),
        regulator_public_key=court.public,
    )
    client = store.make_client(ca)
    print(f"block store on disk: {blockdir}")

    # -- admissions: two charts share one radiology image ---------------
    xray = store.write([b"<DICOM image: chest x-ray, 2.1MB>"], policy="hipaa")
    xray_rd = xray.vrd.rdl[0]
    chart_a = store.write([b"Patient A: pneumonia, treated, discharged"],
                          policy="hipaa", shared_rds=[xray_rd],
                          mac_label="phi", dac_owner="dr-chen")
    chart_b = store.write([b"Patient B: routine screening, clear"],
                          policy="hipaa", shared_rds=[xray_rd],
                          mac_label="phi", dac_owner="dr-chen")
    print(f"admitted: x-ray SN {xray.sn}, charts SN {chart_a.sn} "
          f"(shares image), SN {chart_b.sn} (shares image)")
    print(f"  files on disk: {len(list(store.blocks.keys()))}")

    # -- year 3: malpractice suit → litigation hold on chart A ----------
    scpu.clock.advance(3 * YEAR)
    hold = credential(court, chart_a.sn, store.now)
    store.lit_hold(chart_a.sn, hold, hold_timeout=store.now + 5 * YEAR)
    print(f"year 3: court hold placed on SN {chart_a.sn} "
          f"(metasig re-issued by the SCPU)")

    # -- year 6.5: HIPAA retention passes ---------------------------------
    scpu.clock.advance(3.5 * YEAR)
    summary = store.maintenance()
    print(f"year 6.5: maintenance expired {summary['expired']} records")
    print(f"  chart A (held): "
          f"{client.verify_read(store.read(chart_a.sn), chart_a.sn).status}")
    print(f"  chart B: "
          f"{client.verify_read(store.read(chart_b.sn), chart_b.sn).status}")
    # The shared x-ray payload survives while chart A references it.
    assert xray_rd.key in store.blocks
    print(f"  shared x-ray payload still on disk "
          f"(chart A references it): True")

    # -- year 8: the court releases the hold ------------------------------
    scpu.clock.advance(1.5 * YEAR)
    release = credential(court, chart_a.sn, store.now)
    store.lit_release(chart_a.sn, release)
    summary = store.maintenance()
    print(f"year 8: hold released; maintenance expired "
          f"{summary['expired']} record(s) — DoD 3-pass shred (HIPAA PHI)")
    verified = client.verify_read(store.read(chart_a.sn), chart_a.sn)
    print(f"  chart A now: {verified.status} (proof: {verified.proof_kind})")
    print(f"  files on disk: {len(list(store.blocks.keys()))} "
          f"(no PHI traces remain)")

    # Every SN is still accountable: active, deleted-with-proof, or
    # never allocated — nothing can silently vanish.
    store.auth.windows.refresh_current(force=True)
    for sn in range(1, scpu.current_serial_number + 1):
        status = client.verify_read(store.read(sn), sn).status
        print(f"  SN {sn}: {status}")


if __name__ == "__main__":
    main()
