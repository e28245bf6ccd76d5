"""An in-memory span recorder for the traced run.

The recorder wraps public methods *at class level*, from the benchmark's
own files: nothing in ``src/`` knows it exists, and the wrappers are
installed only for traced passes (:meth:`SpanRecorder.install` /
:meth:`SpanRecorder.uninstall`).  Every wrapped call becomes one span —
name, layer, start, end, parent span and the request id the benchmark loop
set — kept in memory and written out with :meth:`SpanRecorder.dump` when
the run ends.

Self time is computed as spans close: a span's duration minus the time
its direct children cover.  The program is single-threaded, so children
nest strictly inside their parent and never overlap each other; summing
their durations is exactly "the part of the interval the children
cover".  Everything outside any span is counted as the benchmark loop's
own self time (``driver.self_s``), so layer self times plus the loop's
add up to the traced wall time by construction.  That includes program
code no wrapper covers: constructors the loop calls, ``ManualClock``,
``SiteRecovery.run``'s own loop.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanRecorder"]

#: ``hook(recorder, args, kwargs, result, parent_layer)`` — counts a
#: wrapped call's work (records, bytes, drops) after it returns.
Hook = Callable[["SpanRecorder", tuple, dict, Any, Optional[str]], None]


class SpanRecorder:
    """Spans and per-layer self time for one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: Closed spans: (name, layer, start_ns, end_ns, parent, request_id);
        #: ``parent`` is the index of the enclosing span or -1.
        self.spans: List[Tuple[str, str, int, int, int, object]] = []
        # Open spans, innermost last: [index, layer, name, start_ns, child_ns].
        self._stack: List[list] = []
        self.request_id: object = None
        self.self_ns: Dict[str, int] = {}
        #: Entries into a layer from outside it (the benchmark loop or another layer).
        self.calls: Dict[str, int] = {}
        #: Inclusive time per span name.
        self.name_ns: Dict[str, int] = {}
        #: Work counted by hooks (records per commit, bytes, drops, ...).
        self.counts: Dict[str, float] = {}
        self.top_level_ns = 0
        self._installed: List[Tuple[type, str, object]] = []

    # ---------------------------------------------------------------- spans

    @property
    def current_layer(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def enter(self, layer: str, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[1] != layer:
            self.calls[layer] = self.calls.get(layer, 0) + 1
        self.spans.append(None)  # placeholder, filled on exit
        self._stack.append([len(self.spans) - 1, layer, name,
                            self._clock(), 0])

    def exit(self) -> None:
        end = self._clock()
        index, layer, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, layer, start, end,
                             parent[0] if parent is not None else -1,
                             self.request_id)
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - child_ns
        self.name_ns[name] = self.name_ns.get(name, 0) + duration
        if parent is not None:
            parent[4] += duration
        else:
            self.top_level_ns += duration

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # ------------------------------------------------------------- wrapping

    def wrap(self, fn: Callable, layer: str, name: str,
             hook: Optional[Hook] = None,
             name_of: Optional[Callable[[tuple], str]] = None) -> Callable:
        """*fn* as a span named *name* (or ``name_of(args)``) in *layer*."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_layer = recorder.current_layer
            recorder.enter(layer, name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit()
            if hook is not None:
                hook(recorder, args, kwargs, result, parent_layer)
            return result

        return traced

    def install(self, owner: type, layer: str,
                names: Optional[Iterable[str]] = None,
                hooks: Optional[Dict[str, Hook]] = None,
                name_of: Optional[Callable[[tuple], str]] = None) -> None:
        """Wrap *names* (default: every public function defined on *owner*)."""
        if names is None:
            names = [attr for attr, value in vars(owner).items()
                     if not attr.startswith("_") and inspect.isfunction(value)]
        hooks = hooks or {}
        for attr in names:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap(original, layer, f"{layer}.{attr}",
                              hooks.get(attr), name_of))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (latest first)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def dump(self, path) -> int:
        """Write the spans as JSON lines; returns how many were written."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    {"name": name, "layer": layer, "start_ns": start,
                     "end_ns": end, "parent": parent,
                     "request": request}) + "\n")
        return len(self.spans)
