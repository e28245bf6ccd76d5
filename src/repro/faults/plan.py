"""Deterministic fault plans for the chaos harness.

A :class:`FaultPlan` is a *schedule* of device faults expressed against
virtual time and per-device operation counts — never wall clock, never an
unseeded RNG — so a chaos run replays identically every time.  The plan
is consulted by the :mod:`repro.faults.wrappers` device wrappers at each
service call; it answers with the fault actions that fire on that call:

* ``transient`` — drop this request (:class:`ScpuUnavailableError` /
  :class:`StorageUnavailableError`); the retry layer's bread and butter;
* ``latency`` — the request succeeds but costs extra virtual seconds
  (a busy bus, a firmware GC pause), charged onto the device meter;
* ``tamper`` — the enclosure trips: zeroization, permanent death
  (every subsequent call raises :class:`TamperedError`);
* ``crash-before`` / ``crash-after`` — the *host process* dies around
  this operation (:class:`CrashError`), modelling mid-commit crashes.

Scheduled events fire on the first matching call **at or after** their
trigger (virtual time ``at`` and/or the wrapper's ``after_ops`` op
count); steady-state noise comes from ``transient_rate`` driven by a
seeded RNG.  One plan instance belongs to one wrapped device: it owns
the consumed/injected bookkeeping for that device.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["FaultKind", "FaultEvent", "FaultAction", "FaultPlan"]


class FaultKind:
    """Names of the injectable fault classes."""

    TRANSIENT = "transient"
    LATENCY = "latency"
    TAMPER = "tamper"
    CRASH_BEFORE = "crash-before"
    CRASH_AFTER = "crash-after"

    ALL = (TRANSIENT, LATENCY, TAMPER, CRASH_BEFORE, CRASH_AFTER)


@dataclass
class FaultEvent:
    """One scheduled fault: what fires, when, against which operation.

    ``at`` triggers on the first consulted call at/after that virtual
    time; ``after_ops`` on the Nth service call the wrapped device sees
    (1-based).  When both are given, both must hold.  ``op`` restricts
    the event to one operation name (``None`` matches any).  ``count``
    lets a transient/latency event fire on that many consecutive
    matching calls (a tamper trip is inherently once-only).
    """

    kind: str
    at: Optional[float] = None
    after_ops: Optional[int] = None
    op: Optional[str] = None
    seconds: float = 0.0
    count: int = 1
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.at is None and self.after_ops is None:
            raise ValueError("a fault event needs a trigger (at / after_ops)")
        if self.kind in (FaultKind.CRASH_BEFORE, FaultKind.CRASH_AFTER) \
                and self.op is None:
            raise ValueError("crash events must name a target operation")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def matches(self, op: str, now: float, op_index: int) -> bool:
        if self.fired >= self.count:
            return False
        if self.op is not None and self.op != op:
            return False
        if self.at is not None and now < self.at:
            return False
        if self.after_ops is not None and op_index < self.after_ops:
            return False
        return True


@dataclass(frozen=True)
class FaultAction:
    """One fault firing on the current call (what the wrapper executes)."""

    kind: str
    seconds: float = 0.0


class FaultPlan:
    """A deterministic schedule of faults for one wrapped device.

    Build with the fluent helpers (each returns ``self``)::

        plan = (FaultPlan(transient_rate=0.05, seed=7)
                .tamper(after_ops=40)
                .latency(at=12.0, seconds=0.5, op="witness_write_batch")
                .crash_before("witness_write_batch", after_ops=100))

    Ops are the wrapped device's own: for an SCPU, the names in
    :data:`~repro.hardware.scpu.CARD_OPS` (a singular ``witness_write``
    call is a ``witness_write_batch`` of one).

    ``transient_rate`` injects steady-state transient faults on that
    fraction of calls, from a ``random.Random(seed)`` stream — the same
    seed replays the same fault sequence.  :attr:`injected` counts every
    fault actually delivered, by kind.
    """

    def __init__(self, events: Tuple[FaultEvent, ...] = (),
                 transient_rate: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= transient_rate < 1.0:
            raise ValueError("transient_rate must be in [0, 1)")
        self.events: List[FaultEvent] = list(events)
        self.transient_rate = transient_rate
        self.seed = seed
        self._rng = random.Random(seed)
        self.injected: Dict[str, int] = {kind: 0 for kind in FaultKind.ALL}
        self.consulted = 0

    # -- fluent builders -----------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def transient(self, at: Optional[float] = None,
                  after_ops: Optional[int] = None,
                  op: Optional[str] = None, count: int = 1) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.TRANSIENT, at=at,
                                   after_ops=after_ops, op=op, count=count))

    def latency(self, seconds: float, at: Optional[float] = None,
                after_ops: Optional[int] = None,
                op: Optional[str] = None, count: int = 1) -> "FaultPlan":
        if seconds <= 0:
            raise ValueError("a latency spike needs positive seconds")
        return self.add(FaultEvent(FaultKind.LATENCY, at=at,
                                   after_ops=after_ops, op=op,
                                   seconds=seconds, count=count))

    def tamper(self, at: Optional[float] = None,
               after_ops: Optional[int] = None,
               op: Optional[str] = None) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.TAMPER, at=at,
                                   after_ops=after_ops, op=op))

    def crash_before(self, op: str, at: Optional[float] = None,
                     after_ops: Optional[int] = None) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.CRASH_BEFORE, at=at,
                                   after_ops=after_ops, op=op))

    def crash_after(self, op: str, at: Optional[float] = None,
                    after_ops: Optional[int] = None) -> "FaultPlan":
        return self.add(FaultEvent(FaultKind.CRASH_AFTER, at=at,
                                   after_ops=after_ops, op=op))

    # -- consultation --------------------------------------------------------

    def advise(self, op: str, now: float, op_index: int) -> List[FaultAction]:
        """The fault actions firing on this call (consumes scheduled events).

        *op_index* is the wrapped device's 1-based service-call counter.
        Scheduled events are checked first, then the steady-state
        transient draw — exactly one RNG draw per consultation, so the
        random stream is independent of which events are scheduled.
        """
        self.consulted += 1
        actions: List[FaultAction] = []
        for event in self.events:
            if event.matches(op, now, op_index):
                event.fired += 1
                actions.append(FaultAction(event.kind, seconds=event.seconds))
        if self._rng.random() < self.transient_rate:
            actions.append(FaultAction(FaultKind.TRANSIENT))
        for action in actions:
            self.injected[action.kind] += 1
        return actions

    # -- reporting -----------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def report(self) -> Dict[str, int]:
        """Injected-fault counts by kind, plus calls consulted."""
        summary = {k: v for k, v in self.injected.items() if v}
        summary["consulted"] = self.consulted
        return summary
