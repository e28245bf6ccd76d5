#!/usr/bin/env python
"""Sharded ingest: four SCPUs, one store surface, group-commit batching.

§4.3 shows per-record SCPU witnessing bounds write throughput; §5 notes
the results "naturally scale if multiple SCPUs are available".  This
example stands up a 4-shard :class:`ShardedWormStore`, ingests a batch
of audit events with group commit, then verifies a read from each shard
with ONE client — the shards share a keyring, so one certificate set
covers them all.

Run:  python examples/sharded_ingest.py
"""

from repro import CertificateAuthority, StoreConfig, demo_keyring
from repro.core.sharded import ShardedWormStore


def main() -> None:
    ca = CertificateAuthority(bits=512)
    store = ShardedWormStore.build(
        shard_count=4, keyring=demo_keyring(),
        config=StoreConfig(group_commit_size=8))
    client = store.make_client(ca)

    # 1. Group-commit 16 audit events in one call: each shard receives
    #    4 records and witnesses them with a single metasig/datasig pair.
    events = [b"audit event %02d: wire transfer approved" % i
              for i in range(16)]
    receipts = store.write_batch(events, policy="sox")
    per_record = store.write([b"one-off, unbatched record"], policy="sox")
    print(f"group-committed {len(receipts)} records across "
          f"{store.shard_count} shards "
          f"({receipts[0].batch_size} records per witnessing signature)")

    # 2. Receipts carry stable locators -- (shard_id, sn, record_index) --
    #    that survive being written down.
    sample = receipts[5]
    print(f"receipt 5 locator: {sample.locator.pack()!r} "
          f"(strength={sample.strength})")

    # 3. Amortization, made visible: a batched record's attributable SCPU
    #    cost vs. the same record written alone.
    batched_ms = sample.costs["scpu"] * 1000
    alone_ms = per_record.costs["scpu"] * 1000
    print(f"SCPU cost per record: {batched_ms:.2f} virtual ms batched "
          f"vs {alone_ms:.2f} alone ({alone_ms / batched_ms:.1f}x saved)")

    # 4. One client verifies reads from every shard.
    for receipt in (receipts[0], receipts[5], receipts[15], per_record):
        verified = client.verify_read(store.read(receipt.locator),
                                      receipt.locator)
        assert verified.status == "active"
    print(f"verified one read from each of {store.shard_count} shards "
          "with a single client")

    # 5. Maintenance splits its budget across the shards' idle periods.
    store.advance_clocks(300.0)
    summary = store.maintenance(strengthen_budget=64)
    print(f"maintenance slice: {summary['windows_compacted']} windows "
          f"compacted, {summary['expired']} expired")

    costs = store.cost_summary()
    print(f"total virtual cost: scpu={costs['scpu'] * 1000:.1f}ms "
          f"host={costs['host'] * 1000:.1f}ms "
          f"disk={costs['disk'] * 1000:.1f}ms")


if __name__ == "__main__":
    main()
