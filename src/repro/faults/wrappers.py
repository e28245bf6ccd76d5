"""Fault-injecting device wrappers: drop-in faulty SCPUs and block stores.

:class:`FaultyScpu` wraps any :class:`~repro.hardware.device.ScpuLike`
(a card or a whole :class:`~repro.hardware.pool.ScpuPool`) and
:class:`FaultyBlockStore` wraps any
:class:`~repro.storage.block_store.BlockStore`; both present the wrapped
object's own interface, so they drop into :class:`StrongWormStore`,
:class:`ScpuPool`, and :class:`ShardedWormStore` unchanged.  Every
service call — each op of :data:`~repro.hardware.scpu.CARD_OPS`, or of
:data:`BLOCK_FAULTABLE_OPS` — first consults the device's
:class:`~repro.faults.plan.FaultPlan` and executes whatever fires:

* ``crash-before`` → raise :class:`CrashError` before touching the device;
* ``tamper``       → trip the real enclosure (:meth:`TamperResponder.trip`),
  so the underlying call — and every later one — raises the genuine
  :class:`TamperedError` through the genuine zeroization path;
* ``transient``    → raise :class:`ScpuUnavailableError` /
  :class:`StorageUnavailableError` without touching the device;
* ``latency``      → charge extra virtual seconds onto the device meter,
  then perform the call normally;
* ``crash-after``  → perform the call, then raise :class:`CrashError`
  (the mid-commit crash point: state changed, caller never heard).

A singular SCPU call is a batch of one, so a plan names the batch op
(``witness_write_batch``, not ``witness_write``); a plan naming an op
the device does not have is refused on the next call.  Attributes
outside the op tables (properties, private state) forward untouched, so
the wrapper never narrows the device surface.
"""

from __future__ import annotations

from typing import Collection, Iterator, Optional, Sequence

from repro.core.errors import (
    CrashError,
    ScpuUnavailableError,
    StorageUnavailableError,
)
from repro.faults.plan import FaultAction, FaultKind, FaultPlan
from repro.hardware.scpu import CARD_OPS, BatchOfOne, install_card_ops
from repro.storage.block_store import BlockStore

__all__ = ["FaultyScpu", "FaultyBlockStore"]

#: Block-store operations subject to fault injection.
BLOCK_FAULTABLE_OPS = ("put", "get", "overwrite", "delete")


class _FaultingBase:
    """Shared advise-and-execute machinery of the two wrappers."""

    _transient_error: type = ScpuUnavailableError
    #: The op names this wrapper gates; a plan event naming any other op
    #: could never fire, so consulting such a plan is an error.
    _ops: Collection[str] = ()

    def __init__(self, plan: Optional[FaultPlan]) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._op_index = 0

    def _now(self) -> float:
        return 0.0

    def _charge_latency(self, op: str, seconds: float) -> None:
        pass

    def _trip(self) -> None:
        pass

    def _consult(self, op: str) -> Sequence[FaultAction]:
        """Consult the plan and execute the pre-call actions.

        Returns the actions so the caller can honour ``crash-after``
        once the real operation has completed.
        """
        for event in self.plan.events:
            if event.op is not None and event.op not in self._ops:
                raise ValueError(
                    f"fault plan names op {event.op!r}, which "
                    f"{type(self).__name__} does not have")
        self._op_index += 1
        actions = self.plan.advise(op, self._now(), self._op_index)
        for action in actions:
            if action.kind == FaultKind.CRASH_BEFORE:
                raise CrashError(f"injected crash before {op}")
            if action.kind == FaultKind.TAMPER:
                self._trip()
        for action in actions:
            if action.kind == FaultKind.TRANSIENT:
                raise self._transient_error(
                    f"injected transient fault on {op} "
                    f"(op #{self._op_index})")
            if action.kind == FaultKind.LATENCY:
                self._charge_latency(op, action.seconds)
        return actions

    def _faulted(self, op: str, *args, **kwargs):
        """Consult the plan, call the wrapped device, then honour
        ``crash-after``."""
        actions = self._consult(op)
        result = getattr(self._inner, op)(*args, **kwargs)
        for action in actions:
            if action.kind == FaultKind.CRASH_AFTER:
                raise CrashError(f"injected crash after {op}")
        return result


@install_card_ops
class FaultyScpu(_FaultingBase, BatchOfOne):
    """An :class:`ScpuLike` whose card ops pass through a fault plan.

    Every op of :data:`~repro.hardware.scpu.CARD_OPS` is gated; the
    singular helpers are batches of one, so they are gated under their
    batch op's name.  A ``tamper`` action trips the *inner* card's real
    enclosure, so zeroization, the dead-card latch, and
    :class:`TamperedError` all come from the genuine tamper machinery —
    the wrapper only decides *when* the attack happens.
    """

    _transient_error = ScpuUnavailableError
    _ops = CARD_OPS
    _card_call = _FaultingBase._faulted

    def __init__(self, inner, plan: Optional[FaultPlan] = None) -> None:
        super().__init__(plan)
        self._inner = inner

    @property
    def inner(self):
        """The wrapped device (for assertions; not part of ScpuLike)."""
        return self._inner

    def _now(self) -> float:
        return self._inner.clock.now

    def _charge_latency(self, op: str, seconds: float) -> None:
        self._inner.meter.charge(f"fault-latency:{op}", seconds)

    def _trip(self) -> None:
        self._inner.tamper.trip()

    def __getattr__(self, name: str):
        # Everything outside the card-op table — properties (now, clock,
        # meter, tamper, ...), private state — forwards to the wrapped
        # device untouched.
        return getattr(self._inner, name)


class FaultyBlockStore(_FaultingBase, BlockStore):
    """A :class:`BlockStore` whose I/O calls pass through a fault plan.

    Pass a *clock* (anything with ``.now``) to enable time-triggered
    events; without one, only ``after_ops`` and rate-based faults fire.
    """

    _transient_error = StorageUnavailableError
    _ops = BLOCK_FAULTABLE_OPS

    def __init__(self, inner: BlockStore, plan: Optional[FaultPlan] = None,
                 clock: Optional[object] = None) -> None:
        super().__init__(plan)
        self._inner = inner
        self._clock = clock

    @property
    def inner(self) -> BlockStore:
        return self._inner

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def put(self, data: bytes) -> str:
        return self._faulted("put", data)

    def get(self, key: str) -> bytes:
        return self._faulted("get", key)

    def overwrite(self, key: str, data: bytes) -> None:
        return self._faulted("overwrite", key, data)

    def delete(self, key: str) -> None:
        return self._faulted("delete", key)

    # Metadata inspection is never faulted: a flaky directory listing
    # models nothing in the threat model and would only break tests.
    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def keys(self) -> Iterator[str]:
        return self._inner.keys()

    def size_of(self, key: str) -> int:
        return self._inner.size_of(key)
