"""Unit tests for the deterministic fault-injection harness.

The whole point of :mod:`repro.faults` is replayability: the same plan
against the same workload injects the same faults, so every chaos
failure reproduces.  These tests pin that property plus the semantics of
each fault kind against the real device wrappers.
"""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.errors import (
    CrashError,
    ScpuUnavailableError,
    StorageUnavailableError,
    TamperedError,
)
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultyBlockStore,
    FaultyScpu,
)
from repro.core.retry import RetryingScpu
from repro.hardware.device import ScpuLike
from repro.hardware.pool import ScpuPool
from repro.hardware.scpu import CARD_OPS, BatchOfOne, SecureCoprocessor
from repro.sim.manual_clock import ManualClock
from repro.storage.block_store import MemoryBlockStore

pytestmark = pytest.mark.chaos


@pytest.fixture
def scpu():
    return SecureCoprocessor(keyring=demo_keyring(), clock=ManualClock())


class TestFaultPlan:
    def test_rate_stream_is_deterministic(self):
        def draw(seed):
            plan = FaultPlan(transient_rate=0.3, seed=seed)
            return [bool(plan.advise("op", 0.0, i)) for i in range(1, 101)]

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    def test_scheduled_event_fires_once_at_op_count(self):
        plan = FaultPlan().transient(after_ops=3)
        fires = [plan.advise("op", 0.0, i) for i in range(1, 6)]
        assert [bool(f) for f in fires] == [False, False, True, False, False]

    def test_time_trigger_fires_at_virtual_time(self):
        plan = FaultPlan().transient(at=10.0)
        assert not plan.advise("op", 9.9, 1)
        assert plan.advise("op", 10.0, 2)

    def test_op_filter_restricts_event(self):
        plan = FaultPlan().transient(after_ops=1, op="witness_write")
        assert not plan.advise("issue_serial_number", 0.0, 1)
        assert plan.advise("witness_write", 0.0, 2)

    def test_count_repeats_event(self):
        plan = FaultPlan().transient(after_ops=1, count=3)
        fired = sum(bool(plan.advise("op", 0.0, i)) for i in range(1, 6))
        assert fired == 3

    def test_crash_event_requires_op(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.CRASH_BEFORE, after_ops=1)

    def test_event_requires_trigger(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.TRANSIENT)

    def test_injected_counters_track_delivery(self):
        plan = FaultPlan().transient(after_ops=1).latency(0.5, after_ops=2)
        plan.advise("op", 0.0, 1)
        plan.advise("op", 0.0, 2)
        assert plan.injected[FaultKind.TRANSIENT] == 1
        assert plan.injected[FaultKind.LATENCY] == 1
        assert plan.total_injected == 2
        assert plan.report()["consulted"] == 2


class TestFaultyScpu:
    def test_is_scpulike_and_preserves_surface(self, scpu):
        faulty = FaultyScpu(scpu, FaultPlan())
        assert isinstance(faulty, ScpuLike)
        for name in CARD_OPS:
            assert callable(getattr(faulty, name))
        assert faulty.clock is scpu.clock
        assert faulty.inner is scpu
        # One table, four surfaces: every card op is a real class
        # attribute (not __getattr__) of the card, the pool and both
        # wrappers, and the protocol declares it with the singular helpers.
        for cls in (SecureCoprocessor, ScpuPool, FaultyScpu, RetryingScpu):
            for name in CARD_OPS:
                assert name in vars(cls), (cls, name)
        singular = [n for n in vars(BatchOfOne) if not n.startswith("_")]
        assert len(singular) == 5
        for name in [*CARD_OPS, *singular]:
            assert hasattr(ScpuLike, name), name

    def test_plan_naming_an_op_the_card_lacks_is_refused(self, scpu):
        # Singular calls are batches of one: a plan on "strengthen" could
        # never fire, so the wrapper refuses it instead of ignoring it.
        faulty = FaultyScpu(scpu, FaultPlan().transient(op="strengthen",
                                                        after_ops=1))
        with pytest.raises(ValueError, match="'strengthen'"):
            faulty.issue_serial_number()
        assert scpu.current_serial_number == 0

    def test_clean_plan_is_transparent(self, scpu):
        faulty = FaultyScpu(scpu, FaultPlan())
        sn = faulty.issue_serial_number()
        assert sn == 1
        assert faulty.current_serial_number == 1

    def test_transient_fault_raises_without_touching_device(self, scpu):
        faulty = FaultyScpu(scpu, FaultPlan().transient(after_ops=1))
        with pytest.raises(ScpuUnavailableError):
            faulty.issue_serial_number()
        # The device never saw the dropped request.
        assert scpu.current_serial_number == 0
        assert faulty.issue_serial_number() == 1

    def test_tamper_uses_genuine_zeroization_path(self, scpu):
        faulty = FaultyScpu(scpu, FaultPlan().tamper(after_ops=2))
        assert faulty.issue_serial_number() == 1
        with pytest.raises(TamperedError):
            faulty.issue_serial_number()
        # The inner card really zeroized: dead forever, even unwrapped.
        assert scpu.tamper.tripped
        with pytest.raises(TamperedError):
            scpu.issue_serial_number()

    def test_latency_charges_inner_meter(self, scpu):
        faulty = FaultyScpu(scpu, FaultPlan().latency(2.5, after_ops=1))
        before = scpu.meter.total_seconds
        faulty.issue_serial_number()
        assert scpu.meter.total_seconds - before >= 2.5

    def test_crash_before_leaves_state_untouched(self, scpu):
        faulty = FaultyScpu(
            scpu, FaultPlan().crash_before("issue_serial_numbers",
                                           after_ops=1))
        with pytest.raises(CrashError):
            faulty.issue_serial_number()
        assert scpu.current_serial_number == 0

    def test_crash_after_commits_then_dies(self, scpu):
        faulty = FaultyScpu(
            scpu, FaultPlan().crash_after("issue_serial_numbers",
                                          after_ops=1))
        with pytest.raises(CrashError):
            faulty.issue_serial_number()
        # The operation happened — the caller just never heard.
        assert scpu.current_serial_number == 1


class TestFaultyBlockStore:
    def test_transparent_io(self):
        faulty = FaultyBlockStore(MemoryBlockStore(), FaultPlan())
        key = faulty.put(b"payload")
        assert faulty.get(key) == b"payload"
        assert key in faulty
        assert faulty.size_of(key) == 7

    def test_plan_naming_a_card_op_is_refused(self):
        plan = FaultPlan()
        faulty = FaultyBlockStore(MemoryBlockStore(), plan)
        key = faulty.put(b"x")
        # Events added after wrapping are checked too.
        plan.transient(op="witness_write_batch", after_ops=1)
        with pytest.raises(ValueError, match="witness_write_batch"):
            faulty.get(key)

    def test_transient_fault_raises_storage_error(self):
        faulty = FaultyBlockStore(MemoryBlockStore(),
                                  FaultPlan().transient(after_ops=1))
        with pytest.raises(StorageUnavailableError):
            faulty.put(b"x")
        assert faulty.put(b"x")  # next attempt lands

    def test_metadata_never_faulted(self):
        faulty = FaultyBlockStore(MemoryBlockStore(),
                                  FaultPlan(transient_rate=0.99, seed=1))
        assert list(faulty.keys()) == []
        assert "nope" not in faulty
