"""Failure-domain health tracking: circuit breakers and degraded mode.

Each SCPU card (and therefore each shard of a
:class:`~repro.core.sharded.ShardedWormStore`) is an independent failure
domain.  :class:`CircuitBreaker` tracks one domain through the classic
three transient states plus one terminal state:

* ``closed`` — healthy, writes flow;
* ``open`` — too many consecutive transient failures; writes are routed
  elsewhere until a cooldown elapses;
* ``half-open`` — cooldown elapsed; the next write is a probe (success
  closes the breaker, failure re-opens it);
* ``degraded`` — **terminal**: the card tripped tamper response and
  zeroized.  The paper's fail-safe means there is no way back — the
  domain serves reads forever (proofs are *stored* artifacts, §4.2.2)
  but will never witness another write.

The breaker is untrusted main-CPU bookkeeping, like the routing tables:
losing it costs availability decisions, never integrity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.obs.bus import NULL_BUS, TelemetryBus

__all__ = ["BreakerState", "SiteState", "CircuitBreaker", "HealthSnapshot"]


class BreakerState:
    """Names of the breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"
    DEGRADED = "degraded"


class SiteState:
    """Names of a whole site's lifecycle states.

    Breakers track one *shard*; the site state tracks the whole
    front-end through disaster recovery.  ``ACTIVE`` is the ordinary
    serving state.  ``RECOVERING`` means the site is being rebuilt from
    a replica by :class:`repro.recovery.SiteRecovery`: verifiable reads
    are served as soon as the VERIFY stage completes, while external
    writes are refused (503 + Retry-After at the service layer) until
    the replicated journal has drained and RESUME flips the site back
    to ``ACTIVE``.
    """

    ACTIVE = "active"
    RECOVERING = "recovering"


@dataclass(frozen=True)
class HealthSnapshot:
    """One domain's health at a point in time (for reports)."""

    state: str
    consecutive_failures: int
    transient_failures: int
    permanent: bool
    successes: int
    cooldown_remaining: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "transient_failures": self.transient_failures,
            "permanent": self.permanent,
            "successes": self.successes,
            "cooldown_remaining": self.cooldown_remaining,
        }


class CircuitBreaker:
    """Health latch of one failure domain, driven by virtual time."""

    def __init__(self, failure_threshold: int = 3,
                 cooldown_seconds: float = 30.0,
                 obs: Optional[TelemetryBus] = None,
                 label: str = "") -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.obs = obs if obs is not None else NULL_BUS
        self.label = label
        self._consecutive = 0
        self._transient_total = 0
        self._successes = 0
        self._degraded = False
        self._open_until = float("-inf")
        if self.obs.enabled:
            self.obs.declare_counter("breaker.opened")
            self.obs.declare_counter("breaker.closed")
            self.obs.register_counter("breaker.degraded",
                                      lambda: self._degraded)

    # -- state ---------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once the domain failed permanently (tamper/zeroization)."""
        return self._degraded

    def state(self, now: float) -> str:
        if self._degraded:
            return BreakerState.DEGRADED
        if self._consecutive >= self.failure_threshold:
            return (BreakerState.HALF_OPEN if now >= self._open_until
                    else BreakerState.OPEN)
        return BreakerState.CLOSED

    def allows_writes(self, now: float) -> bool:
        """Should new work be routed to this domain right now?

        Closed and half-open domains take writes (half-open is the
        probe); open and degraded domains do not.
        """
        return self.state(now) in (BreakerState.CLOSED,
                                   BreakerState.HALF_OPEN)

    # -- transitions ----------------------------------------------------------

    def record_success(self, now: Optional[float] = None) -> None:
        """A commit landed; re-closes a tripped (open/half-open) breaker.

        *now* is optional back-compat sugar: when given, the re-close is
        also emitted as a ``breaker.transition`` telemetry event at that
        virtual time (the counter increments either way).
        """
        self._successes += 1
        was_tripped = (self._consecutive >= self.failure_threshold
                       and not self._degraded)
        previous = (self.state(now) if now is not None
                    else BreakerState.HALF_OPEN)
        self._consecutive = 0
        if was_tripped:
            self.obs.inc("breaker.closed")
            self._transition_event(now, previous, BreakerState.CLOSED)

    def record_transient_failure(self, now: float) -> None:
        if self._degraded:
            return
        self._transient_total += 1
        self._consecutive += 1
        if self._consecutive >= self.failure_threshold:
            self._open_until = now + self.cooldown_seconds
            if self._consecutive == self.failure_threshold:
                # Crossing the threshold is the closed->open transition;
                # further failures while open just extend the cooldown.
                self.obs.inc("breaker.opened")
                self._transition_event(now, BreakerState.CLOSED,
                                       BreakerState.OPEN)

    def record_permanent_failure(self, now: Optional[float] = None) -> None:
        """Tamper trip: the domain is gone for good.

        Idempotent — the paper's zeroization happens once, and several
        code paths may observe it (a failed commit, a failed
        certification), so only the first report counts as the
        transition.
        """
        if self._degraded:
            return
        previous = (BreakerState.OPEN
                    if self._consecutive >= self.failure_threshold
                    else BreakerState.CLOSED)
        self._degraded = True
        self._transition_event(now, previous, BreakerState.DEGRADED)

    def _transition_event(self, now: Optional[float], from_state: str,
                          to_state: str) -> None:
        if now is not None:
            self.obs.event("breaker.transition", now, label=self.label,
                           from_state=from_state, to_state=to_state)

    # -- reporting -----------------------------------------------------------

    def snapshot(self, now: float) -> HealthSnapshot:
        return HealthSnapshot(
            state=self.state(now),
            consecutive_failures=self._consecutive,
            transient_failures=self._transient_total,
            permanent=self._degraded,
            successes=self._successes,
            cooldown_remaining=max(0.0, self._open_until - now)
            if self._consecutive >= self.failure_threshold
            and not self._degraded else 0.0,
        )
