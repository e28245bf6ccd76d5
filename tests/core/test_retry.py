"""Tests for the virtual-time retry layer at the SCPU trust boundary."""

from __future__ import annotations

import pytest

from repro import demo_keyring
from repro.core.config import StoreConfig
from repro.core.errors import (
    ScpuUnavailableError,
    TamperedError,
    TransientFaultError,
)
from repro.core.retry import RetryExecutor, RetryingScpu, RetryPolicy, RetryStats
from repro.core.worm import StrongWormStore
from repro.faults import FaultPlan, FaultyScpu
from repro.hardware.scpu import SecureCoprocessor
from repro.sim.manual_clock import ManualClock


class TestRetryPolicy:
    def test_delay_is_capped_exponential(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestRetryExecutor:
    def test_retries_transient_until_success(self):
        clock = ManualClock()
        executor = RetryExecutor(RetryPolicy(max_attempts=4), clock=clock)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFaultError("dropped")
            return "ok"

        assert executor.call("op", flaky) == "ok"
        assert len(attempts) == 3
        assert executor.stats.retries == 2
        assert executor.stats.by_op == {"op": 2}

    def test_exhaustion_raises_unavailable(self):
        executor = RetryExecutor(RetryPolicy(max_attempts=2),
                                 clock=ManualClock())

        def always_down():
            raise TransientFaultError("dropped")

        with pytest.raises(ScpuUnavailableError):
            executor.call("op", always_down)
        assert executor.stats.exhausted == 1

    def test_tamper_is_never_retried(self):
        executor = RetryExecutor(RetryPolicy(max_attempts=5),
                                 clock=ManualClock())
        attempts = []

        def dead():
            attempts.append(1)
            raise TamperedError("zeroized")

        with pytest.raises(TamperedError):
            executor.call("op", dead)
        assert len(attempts) == 1
        assert executor.stats.retries == 0

    def test_backoff_advances_manual_clock(self):
        clock = ManualClock()
        executor = RetryExecutor(
            RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=2.0),
            clock=clock)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFaultError("dropped")
            return "ok"

        executor.call("op", flaky)
        # Two retries: 0.5s + 1.0s of virtual backoff, visible on the clock.
        assert clock.now == pytest.approx(1.5)
        assert executor.stats.backoff_seconds == pytest.approx(1.5)

    def test_op_timeout_bounds_total_backoff(self):
        executor = RetryExecutor(
            RetryPolicy(max_attempts=100, base_delay=1.0, max_delay=1.0,
                        op_timeout=2.5),
            clock=ManualClock())

        def always_down():
            raise TransientFaultError("dropped")

        with pytest.raises(ScpuUnavailableError):
            executor.call("op", always_down)
        assert executor.stats.backoff_seconds <= 2.5


class TestRetryStats:
    def test_merge_accumulates(self):
        a = RetryStats(calls=2, retries=1, by_op={"x": 1})
        b = RetryStats(calls=3, exhausted=1, backoff_seconds=0.5,
                       by_op={"x": 2, "y": 1})
        a.merge(b)
        assert a.calls == 5
        assert a.exhausted == 1
        assert a.by_op == {"x": 3, "y": 1}
        assert a.as_dict()["backoff_seconds"] == pytest.approx(0.5)


class TestStoreRetryIntegration:
    def test_store_rides_through_transient_faults(self, regulator_key):
        scpu = SecureCoprocessor(keyring=demo_keyring(), clock=ManualClock())
        faulty = FaultyScpu(scpu, FaultPlan(transient_rate=0.15, seed=11))
        store = StrongWormStore(config=StoreConfig(
            scpu=faulty, regulator_public_key=regulator_key.public))
        receipts = [store.write([b"rec-%d" % i]) for i in range(20)]
        assert len(receipts) == 20
        assert store.retry.stats.retries > 0
        for receipt in receipts:
            assert store.read(receipt.sn).status == "active"

    def test_store_scpu_identity_preserved(self):
        scpu = SecureCoprocessor(keyring=demo_keyring(), clock=ManualClock())
        store = StrongWormStore(scpu=scpu)
        assert store.scpu is scpu  # retry wrapping is internal
        assert isinstance(store._scpu_rt, RetryingScpu)
        assert store._scpu_rt.inner is scpu

    def test_no_retry_policy_disables_retrying(self):
        scpu = SecureCoprocessor(keyring=demo_keyring(), clock=ManualClock())
        faulty = FaultyScpu(scpu, FaultPlan().transient(op="witness_write_batch",
                                                        after_ops=1,
                                                        count=99))
        store = StrongWormStore(config=StoreConfig(
            scpu=faulty, retry_policy=RetryPolicy(max_attempts=1)))
        with pytest.raises(ScpuUnavailableError):
            store.write([b"payload"])
