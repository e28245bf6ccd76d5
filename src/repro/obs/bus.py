"""The in-process telemetry bus: counters, gauges, histograms, events.

The paper's performance argument is about *where time and SCPU touches
go* — O(1) window authentication, deferred strengthening, read paths
that never enter the card's queue.  :class:`TelemetryBus` gives those
numbers one exported schema:

* **counters** — monotonic named totals (``store.writes``,
  ``retry.retries``, ``device.scpu.seconds``).  A count that a
  component already keeps (a meter total, ``RetryStats``, a queue's
  tallies, a tenant's request count) is *registered* as a view and
  read from its owner at snapshot time; only counts with no other home
  are pushed with :meth:`TelemetryBus.inc`.  Either way there is one
  copy.  Components declare or register their counters up front, so a
  snapshot always carries the full name set even when a counter never
  fired — counter names are an API, and the committed schema
  (``scripts/obs_schema.json``) holds renames to CI review;
* **gauges** — pull-style callables sampled at snapshot time (backlog
  depths, pending queue sizes).  Several providers may register under
  one name; the snapshot reports their sum, which is exactly how a
  sharded store aggregates (counter views sum the same way);
* **histograms** — fixed-bucket distributions of *virtual-time* values
  (per-op device seconds, group-commit batch sizes);
* **events** — an append-only, bounded log of discrete happenings
  (breaker transitions, failovers, maintenance slices), each stamped
  with the *virtual* time the caller passes in;
* **spans** — completed intervals forwarded to a
  :class:`~repro.sim.tracing.TraceRecorder` sink, so the Chrome-trace
  export the simulator already speaks doubles as the span exporter.

Everything is virtual-time only: the bus never reads a clock (wormlint
W002); callers stamp events and spans from the store's own timeline.
The bus is untrusted main-CPU bookkeeping, like the routing tables —
nothing in it carries witness state, and losing it costs observability,
never integrity (no laundering: reports *about* weak constructs never
substitute for strengthening them).

A disabled bus (``TelemetryBus(enabled=False)``) turns every mutator
and registration into a no-op, so instrumented hot paths stay
branch-cheap; the shared :data:`NULL_BUS` is the default wired into
un-observed stores.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.tracing import TraceRecorder

__all__ = ["DEFAULT_BUCKETS", "Histogram", "TelemetryEvent", "TelemetryBus",
           "NULL_BUS"]

#: Default histogram bucket upper bounds, in virtual seconds — spanning
#: the Table 2 cost range from sub-millisecond host ops to multi-second
#: SCPU signature batches.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


@dataclass(frozen=True)
class TelemetryEvent:
    """One discrete happening at a point in *virtual* time."""

    name: str
    time: float
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "t": self.time, **self.fields}


class Histogram:
    """Fixed-bucket distribution of non-negative virtual-time values."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        # counts[i] pairs with bounds[i]; counts[-1] is the +Inf overflow.
        self._counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self._counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> Dict[str, object]:
        """Prometheus-style cumulative buckets plus count/sum."""
        cumulative = 0
        buckets: List[Dict[str, object]] = []
        for bound, count in zip(self.bounds, self._counts):
            cumulative += count
            buckets.append({"le": bound, "count": cumulative})
        buckets.append({"le": "+Inf", "count": self.count})
        return {"count": self.count, "sum": self.total, "buckets": buckets}


class TelemetryBus:
    """Store-wide observability: named counters, gauges, histograms, events.

    One bus is shared by every component of a store — and by every shard
    of a :class:`~repro.core.sharded.ShardedWormStore` — via the
    ``observe=`` field of :class:`~repro.core.config.StoreConfig`.
    """

    def __init__(self, enabled: bool = True,
                 trace: Optional[TraceRecorder] = None,
                 event_capacity: int = 4096) -> None:
        self.enabled = enabled
        self.trace = trace
        self.event_capacity = event_capacity
        self._counters: Dict[str, float] = {}
        self._counter_views: Dict[str, List[Callable[[], float]]] = {}
        self._gauges: Dict[str, List[Callable[[], float]]] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._events: List[TelemetryEvent] = []
        self._events_dropped = 0

    # -- counters -------------------------------------------------------------

    def declare_counter(self, name: str) -> None:
        """Ensure *name* appears in snapshots even at zero (API surface)."""
        if not self.enabled:
            return
        self._counters.setdefault(name, 0.0)

    def inc(self, name: str, n: float = 1.0) -> None:
        """Bump the named monotonic counter by *n* (must be >= 0)."""
        if not self.enabled:
            return
        if n < 0:
            raise ValueError(f"counter {name} cannot decrease (n={n})")
        if name in self._counter_views:
            raise ValueError(f"counter {name} is read from the component "
                             "that keeps it; it cannot also be pushed")
        self._counters[name] = self._counters.get(name, 0.0) + n

    def register_counter(self, name: str, fn: Callable[[], float]) -> None:
        """Register a count a component already keeps as a counter view.

        Like a gauge, several providers may share one name (one per
        shard or tenant) and a read reports their sum — but the name is
        exported as a counter, so *fn* must never decrease.  A name is
        either pushed with :meth:`inc` or registered here, never both.
        """
        if not self.enabled:
            return
        if name in self._counters:
            raise ValueError(f"counter {name} is already pushed; it cannot "
                             "also be read from a component")
        self._counter_views.setdefault(name, []).append(fn)

    def counter(self, name: str) -> float:
        """Current value of the named counter (0 when never touched)."""
        views = self._counter_views.get(name)
        if views is not None:
            return _sum(views)
        return self._counters.get(name, 0.0)

    # -- gauges ---------------------------------------------------------------

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a pull-style gauge provider.

        Several providers may share one name (one per shard, say); the
        snapshot reports the *sum* of their current values.
        """
        if not self.enabled:
            return
        self._gauges.setdefault(name, []).append(fn)

    def gauge_value(self, name: str) -> float:
        """Current summed value of the named gauge (0 when unregistered)."""
        return _sum(self._gauges.get(name, []))

    # -- histograms -----------------------------------------------------------

    def declare_histogram(self, name: str,
                          buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        """Pre-create a histogram so its name is part of the snapshot API."""
        if not self.enabled:
            return
        self._histograms.setdefault(name, Histogram(buckets))

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        """Add one sample to the named histogram (created on first use)."""
        if not self.enabled:
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms.setdefault(name, Histogram(buckets))
        histogram.observe(value)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    # -- events ---------------------------------------------------------------

    def event(self, name: str, time: float, **fields: object) -> None:
        """Append one event at virtual *time*; bounded, drops count visibly."""
        if not self.enabled:
            return
        if len(self._events) >= self.event_capacity:
            self._events_dropped += 1
            return
        self._events.append(TelemetryEvent(name=name, time=time,
                                           fields=dict(fields)))

    @property
    def events(self) -> Tuple[TelemetryEvent, ...]:
        return tuple(self._events)

    @property
    def events_dropped(self) -> int:
        return self._events_dropped

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, category: str, start: float, end: float,
             **metadata: object) -> None:
        """Forward one completed span to the trace sink (if any)."""
        if not self.enabled or self.trace is None:
            return
        self.trace.record(name, category, start, end, **metadata)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view of everything the bus knows.

        This dict is the export/validation surface: the JSON snapshot the
        ``obs`` CLI writes and the structure ``scripts/obs_schema.json``
        locks down.  Counter views are read here, from the components
        that keep them.
        """
        by_name: Dict[str, int] = {}
        for event in self._events:
            by_name[event.name] = by_name.get(event.name, 0) + 1
        counters = dict(self._counters)
        for name, views in self._counter_views.items():
            counters[name] = _sum(views)
        return {
            "counters": counters,
            "gauges": {name: self.gauge_value(name) for name in self._gauges},
            "histograms": {name: histogram.as_dict()
                           for name, histogram in self._histograms.items()},
            "events": {"count": len(self._events),
                       "dropped": self._events_dropped,
                       "by_name": by_name},
            "spans": len(self.trace) if self.trace is not None else 0,
        }


def _sum(providers: List[Callable[[], float]]) -> float:
    """The summed current value of several pull-style providers."""
    return float(sum(fn() for fn in providers))


#: The shared disabled bus un-observed stores wire in: every mutator is a
#: no-op and no state ever accumulates, so sharing one instance is safe.
NULL_BUS = TelemetryBus(enabled=False)
