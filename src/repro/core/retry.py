"""Virtual-time retry with capped exponential backoff.

The SCPU is a physical card on a physical bus: requests get dropped.
The store distinguishes two failure classes at its SCPU call sites:

* :class:`~repro.core.errors.TransientFaultError` — retry with capped
  exponential backoff until the per-operation budget runs out, then
  surface :class:`~repro.core.errors.ScpuUnavailableError`;
* :class:`~repro.core.errors.TamperedError` — permanent.  The card
  zeroized itself; retrying is not only useless but *wrong* (the paper's
  fail-safe: an attacked device yields nothing, ever).  It escalates
  immediately so the layer above can mark the failure domain degraded.

Backoff is **virtual-time-aware**: when the clock is advanceable (a
:class:`~repro.sim.manual_clock.ManualClock`), each backoff advances it,
so signature timestamps, freshness windows, and retention alarms all see
the delay.  Simulation clocks owned by the event engine cannot be pushed
from functional code; there the executor only counts attempts (the
functional layer is instantaneous by design) and accumulates the backoff
in :attr:`RetryStats.backoff_seconds` for the driver to replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.core.errors import ScpuUnavailableError, TransientFaultError
from repro.hardware.scpu import BatchOfOne, install_card_ops
from repro.obs.bus import NULL_BUS, TelemetryBus

__all__ = ["RetryPolicy", "RetryStats", "RetryExecutor", "RetryingScpu"]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the transient-fault retry loop.

    ``max_attempts`` counts the initial try; ``base_delay`` doubles per
    retry up to ``max_delay``; ``op_timeout`` caps the *total* virtual
    time an operation may spend backing off before giving up.  A policy
    with ``max_attempts=1`` disables retrying entirely.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    op_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.op_timeout < 0:
            raise ValueError("retry delays must be non-negative")

    def delay(self, retry_index: int) -> float:
        """Backoff before the Nth retry (0-based): capped exponential."""
        return min(self.max_delay, self.base_delay * (2 ** retry_index))


@dataclass
class RetryStats:
    """What the retry loop did, for health reports and chaos assertions."""

    calls: int = 0
    retries: int = 0
    exhausted: int = 0
    backoff_seconds: float = 0.0
    by_op: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "RetryStats") -> None:
        self.calls += other.calls
        self.retries += other.retries
        self.exhausted += other.exhausted
        self.backoff_seconds += other.backoff_seconds
        for op, count in other.by_op.items():
            self.by_op[op] = self.by_op.get(op, 0) + count

    def as_dict(self) -> Dict[str, Any]:
        return {"calls": self.calls, "retries": self.retries,
                "exhausted": self.exhausted,
                "backoff_seconds": self.backoff_seconds,
                "by_op": dict(self.by_op)}


class RetryExecutor:
    """Runs callables under a :class:`RetryPolicy` against one clock."""

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 clock: Optional[object] = None,
                 obs: Optional[TelemetryBus] = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock
        self.stats = RetryStats()
        # The bus reads ``retry.*`` straight from ``stats``.
        obs = obs if obs is not None else NULL_BUS
        for name in ("calls", "retries", "exhausted", "backoff_seconds"):
            obs.register_counter(f"retry.{name}",
                                 partial(getattr, self.stats, name))

    def _sleep(self, seconds: float) -> None:
        self.stats.backoff_seconds += seconds
        advance = getattr(self.clock, "advance", None)
        if advance is not None:
            advance(seconds)

    def call(self, op: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Invoke *fn*, retrying transient faults per the policy.

        Permanent errors — :class:`TamperedError` and anything else that
        is not a :class:`TransientFaultError` — propagate on the first
        occurrence untouched.
        """
        self.stats.calls += 1
        policy = self.policy
        spent = 0.0
        retry_index = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except TransientFaultError as exc:
                attempt = retry_index + 1
                delay = policy.delay(retry_index)
                if (attempt >= policy.max_attempts
                        or spent + delay > policy.op_timeout):
                    self.stats.exhausted += 1
                    raise ScpuUnavailableError(
                        f"{op} still failing after {attempt} attempt(s) "
                        f"({spent:.3f}s backoff spent)") from exc
                self.stats.retries += 1
                self.stats.by_op[op] = self.stats.by_op.get(op, 0) + 1
                self._sleep(delay)
                spent += delay
                retry_index += 1


@install_card_ops
class RetryingScpu(BatchOfOne):
    """An :class:`ScpuLike` view that retries transient faults.

    Wraps a device so every card op (:data:`~repro.hardware.scpu.CARD_OPS`)
    runs through a :class:`RetryExecutor` — a singular helper as its
    batch op; properties and non-service attributes forward untouched.
    :class:`~repro.core.worm.StrongWormStore` uses this *internally*
    (``store.scpu`` stays the raw device the caller provided) so all of
    its SCPU call sites — including the window manager's signature
    refreshes — share one retry policy and one stats ledger.
    """

    def __init__(self, inner, executor: RetryExecutor) -> None:
        self._inner = inner
        self._executor = executor

    @property
    def inner(self):
        return self._inner

    @property
    def retry_stats(self) -> RetryStats:
        return self._executor.stats

    def _card_call(self, op: str, *args: Any, **kwargs: Any) -> Any:
        return self._executor.call(op, getattr(self._inner, op),
                                   *args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)
