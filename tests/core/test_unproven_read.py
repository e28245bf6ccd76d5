"""A read that returns only the payload builds no proof.

``ShardedWormStore.read_record`` and the service's ``read`` op read with
``proven=False``: the same case analysis, bytes, device charges and
errors as a proven read, but neither the auth scheme's ``prove`` nor the
record's data-tree path.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import (ShardRoutingError, UnknownSerialNumberError,
                               WormError)
from repro.core.locator import RecordLocator
from repro.core.sharded import ShardedWormStore

SCHEMES = ("windows", "merkle", "accumulator")


def _records(tag: bytes):
    return [tag + b" record %d" % i for i in range(4)]


def _outcome(shard, locator, proven, charges):
    """What one read answered (or raised), and the table and disk
    charges it made."""
    charges.clear()
    try:
        result = shard.read(locator, proven=proven)
    except WormError as exc:
        answer = (type(exc), str(exc))
    else:
        answer = (result.status, result.records)
    return answer, list(charges)


def _recording(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        log.append((name, args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_same_answers_and_charges_without_a_proof(scheme, monkeypatch):
    sharded = ShardedWormStore.build(
        shard_count=1, keyring=demo_keyring(),
        config=StoreConfig(auth_scheme=scheme, group_commit_size=4))
    live = sharded.write_batch(_records(b"live"), retention_seconds=86_400.0)
    doomed = sharded.write_batch(_records(b"doomed"), retention_seconds=1.0)
    sharded.advance_clocks(5.0)
    sharded.maintenance()
    shard = sharded.shard(0)
    live_sn = live[0].locator.sn
    cases = {
        "active": live[2].locator,
        "expired": doomed[1].locator,
        "never-allocated": RecordLocator(shard_id=0, sn=999, record_index=0),
        "past-the-vr": RecordLocator(shard_id=0, sn=live_sn, record_index=4),
    }
    charges = []
    _recording(monkeypatch, shard.host, "table_touch", charges)
    _recording(monkeypatch, shard.disk, "read", charges)
    proven = {name: _outcome(shard, loc, True, charges)
              for name, loc in cases.items()}
    calls = []
    _recording(monkeypatch, shard.auth, "prove", calls)
    _recording(monkeypatch, shard.vrdt, "record_path", calls)
    unproven = {name: _outcome(shard, loc, False, charges)
                for name, loc in cases.items()}

    assert unproven == proven
    assert calls == []
    assert proven["active"][0] == ("active", (b"live record 2",))
    assert [name for name, _, _ in proven["active"][1]] == ["table_touch",
                                                          "read"]
    assert proven["expired"][0][0] == "deleted"
    assert proven["never-allocated"][0][0] == "never-allocated"
    assert proven["past-the-vr"][0][0] is ShardRoutingError
    with pytest.raises(WormError, match=r"is not active \(deleted\)"):
        sharded.read_record(doomed[1].locator)
    assert sharded.read_record(live[2].locator) == b"live record 2"
    assert calls == []

    # An insider deletes the live VR's entry: the case analysis still
    # runs, and both reads refuse it the same way.
    del shard.vrdt._active[live_sn]
    edited = _outcome(shard, live[2].locator, False, charges)
    assert edited[0][0] is UnknownSerialNumberError
    assert edited == _outcome(shard, live[2].locator, True, charges)
    assert calls == []  # the proven read raised before proving
