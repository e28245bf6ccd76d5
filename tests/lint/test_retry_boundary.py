"""W003 retry-boundary: repro.core reaches devices through the retry layer."""

from __future__ import annotations

from textwrap import dedent

import pytest

from repro.lint import lint_source


def rules(source: str, path: str = "src/repro/core/fixture.py",
          select=("W003",)) -> list:
    return [f.rule for f in lint_source(dedent(source), path, select=select)]


@pytest.mark.parametrize("op", ["witness_write_batch", "witness_write",
                                "wrap_key"])
def test_raw_scpu_service_call_fires(op):
    # A batch op, a singular batch-of-one helper, and an epoch op.
    assert rules(f"""
        def commit(self, data, sn, now):
            return self.scpu.{op}(data, sn, now)
    """) == ["W003"]


def test_raw_block_store_call_fires():
    assert rules("""
        def fetch(store, key):
            return store.blocks.get(key)
    """) == ["W003"]


def test_block_store_receiver_alias_fires():
    assert rules("""
        def fetch(self, key):
            return self.block_store.get(key)
    """) == ["W003"]


def test_retrying_view_is_the_sanctioned_route():
    assert rules("""
        def commit(self, data, sn, now):
            return self._scpu_rt.witness_write(data, sn, now)
    """) == []


def test_retry_call_wrapping_is_fine():
    # Passing the bound method as a *reference* to retry.call is the
    # whole point — only direct calls are raw.
    assert rules("""
        def fetch(store, key):
            return store.retry.call("block_store.get", store.blocks.get, key)
    """) == []


def test_non_faultable_scpu_attribute_is_fine():
    assert rules("""
        def latch(self):
            return self.scpu.tamper.tripped
    """) == []


def test_only_core_is_in_scope():
    source = """
        def fetch(store, key):
            return store.blocks.get(key)
    """
    assert rules(source, path="src/repro/storage/migration_helper.py") == []
    assert rules(source, path="src/repro/core/retry.py") == []
    assert rules(source, path="tests/core/test_fixture.py") == []


def test_rule_tracks_the_fault_harness_surface():
    # W003's SCPU ops are the card's op table plus the singular helpers,
    # so the lint can never disagree with the pool or the fault and
    # retry wrappers about where the trust boundary is.
    from repro.faults.wrappers import BLOCK_FAULTABLE_OPS
    from repro.hardware.scpu import CARD_OPS
    from repro.lint.rules import _faultable_ops
    scpu_ops, block_ops = _faultable_ops()
    assert scpu_ops == set(CARD_OPS) | {
        "issue_serial_number", "hash_record_data", "witness_write",
        "strengthen", "verify_envelope"}
    assert block_ops == set(BLOCK_FAULTABLE_OPS)
