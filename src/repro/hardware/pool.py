"""Multi-SCPU pools — §5: "results naturally scale if multiple SCPUs...".

A busy store can install several coprocessors on the PCI-X bus.  The
cards share the store's protocol keys (provisioned identically inside
each enclosure at deployment), so any card's signature verifies under the
one published certificate set.  What must stay *single-writer* is the
serial-number counter — SNs have to be system-wide unique, consecutive
and monotonic for the window scheme to work — so the pool designates
card 0 as the SN authority (counter bumps are microsecond NVRAM touches,
never the bottleneck) and round-robins the expensive work (signing,
hashing, verification) across all cards.

:class:`ScpuPool` implements the :class:`~repro.hardware.device.ScpuLike`
protocol — the same service surface as a single
:class:`~repro.hardware.scpu.SecureCoprocessor` — so
:class:`~repro.core.worm.StrongWormStore` can be constructed over a pool
unchanged.  The pool's ``meter`` sums every card's
:class:`~repro.hardware.device.OpMeter`, so a store's receipts and cost
summaries count the work of the worker cards too, while
:meth:`ScpuPool.per_card_cost_seconds` attributes cost per card.  For
queueing simulations, the pool's size maps to ``TimedDevice(capacity=n)``.

The forwarding facade is *generated* from the card's own surface table,
:data:`~repro.hardware.scpu.CARD_OPS`, which says for every card op
whether it goes to the SN authority or round-robins to a worker card.
No ``__getattr__`` is involved — every forwarder is a real attribute, so
the surface stays explicit, introspectable, and exactly as wide as the
card's.

A tamper event on *any* card zeroizes that card only; the pool stays
operational on the survivors (the keys live in every enclosure), and the
event is visible via :attr:`tampered_cards` for the operator's incident
response.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.scpu import (
    CARD_OPS,
    BatchOfOne,
    ScpuKeyring,
    SecureCoprocessor,
    install_card_ops,
)
from repro.hardware.tamper import TamperedError

__all__ = ["ScpuPool"]

#: Read-only attributes forwarded to the authority card.
_AUTHORITY_PROPERTIES = (
    "now", "clock", "profile", "hash_block_size", "tamper",
    "current_serial_number", "sn_base", "current_epoch",
)


class PoolMeter:
    """The pool's meter: a read-only sum over every card's meter.

    Signing and hashing round-robin across the cards, so totals, counts,
    crossings and :meth:`by_operation` add up all of them, and
    :meth:`checkpoint`/:meth:`delta` measure that sum.  A charge or
    crossing handed to the pool itself (fault-injected latency, say)
    lands on the SN authority's meter.
    """

    def __init__(self, pool: "ScpuPool") -> None:
        self._pool = pool

    def _meters(self):
        return [card.meter for card in self._pool._cards]

    def charge(self, name: str, seconds: float) -> float:
        return self._pool._authority().meter.charge(name, seconds)

    def crossing(self, nbytes: int = 0) -> None:
        self._pool._authority().meter.crossing(nbytes)

    @property
    def crossings(self) -> int:
        return sum(meter.crossings for meter in self._meters())

    @property
    def bytes_crossed(self) -> int:
        return sum(meter.bytes_crossed for meter in self._meters())

    @property
    def total_seconds(self) -> float:
        return sum(meter.total_seconds for meter in self._meters())

    @property
    def operation_count(self) -> int:
        return sum(meter.operation_count for meter in self._meters())

    def checkpoint(self) -> float:
        return self.total_seconds

    def delta(self, checkpoint: float) -> float:
        return self.total_seconds - checkpoint

    def by_operation(self) -> Dict[str, float]:
        grouped: Dict[str, float] = {}
        for meter in self._meters():
            for name, seconds in meter.by_operation().items():
                grouped[name] = grouped.get(name, 0.0) + seconds
        return grouped


@install_card_ops
class ScpuPool(BatchOfOne):
    """N secure coprocessors sharing one keyring and one SN authority."""

    def __init__(self, cards: Sequence[SecureCoprocessor]) -> None:
        if not cards:
            raise ValueError("a pool needs at least one card")
        fingerprints = {
            card._keys_or_die().s_key.fingerprint for card in cards
        }
        if len(fingerprints) != 1:
            raise ValueError("pool cards must share one provisioned keyring")
        self._cards = list(cards)
        self._next = 0
        self.meter = PoolMeter(self)

    @classmethod
    def build(cls, size: int, keyring: Optional[ScpuKeyring] = None,
              clock: Optional[object] = None, **scpu_kwargs) -> "ScpuPool":
        """Provision *size* cards with one shared keyring and clock."""
        if keyring is None:
            keyring = ScpuKeyring.generate()
        cards = [SecureCoprocessor(keyring=keyring, clock=clock, **scpu_kwargs)
                 for _ in range(size)]
        return cls(cards)

    # -- topology ------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._cards)

    @property
    def cards(self) -> Tuple[SecureCoprocessor, ...]:
        return tuple(self._cards)

    @property
    def tampered_cards(self) -> List[int]:
        """Indices of cards whose enclosures have been breached."""
        return [i for i, card in enumerate(self._cards) if card.tamper.tripped]

    def _authority(self) -> SecureCoprocessor:
        """The SN-issuing card: the lowest-index live card."""
        for card in self._cards:
            if not card.tamper.tripped:
                return card
        raise TamperedError("every card in the pool has been destroyed")

    def _worker(self) -> SecureCoprocessor:
        """Round-robin over live cards for the expensive operations."""
        for _ in range(len(self._cards)):
            card = self._cards[self._next % len(self._cards)]
            self._next += 1
            if not card.tamper.tripped:
                return card
        raise TamperedError("every card in the pool has been destroyed")

    def _card_call(self, op: str, *args, **kwargs):
        """Serve a card op from the card :data:`CARD_OPS` routes it to."""
        card = (self._authority() if CARD_OPS[op] == "authority"
                else self._worker())
        return getattr(card, op)(*args, **kwargs)

    def _keys_or_die(self) -> ScpuKeyring:
        return self._authority()._keys_or_die()

    # -- pool-wide cost attribution -------------------------------------------

    def total_cost_seconds(self) -> float:
        """Aggregate virtual seconds across every card in the pool."""
        return self.meter.total_seconds

    def per_card_cost_seconds(self) -> List[float]:
        return [card.meter.total_seconds for card in self._cards]

    # -- keyring rotation (lock-step across cards) -----------------------------

    def rotate_burst_key(self, ca=None, weak_bits: int = 512):
        """Rotate the shared burst key on every live card in lock-step."""
        # All cards share the keyring object, so one rotation suffices —
        # but each card must retire the old fingerprint locally.  Resolve
        # the authority once: each _authority() call re-scans for a live
        # card, and a mid-rotation trip could otherwise split the steps
        # across two different cards.
        authority = self._authority()
        keyring = authority._keys_or_die()
        old_fp = keyring.burst_key.fingerprint
        cert = authority.rotate_burst_key(ca, weak_bits=weak_bits)
        for card in self._cards:
            if card.tamper.tripped or card is authority:
                continue
            if old_fp not in card._retired_burst_fingerprints:
                card._retired_burst_fingerprints.append(old_fp)
        return cert


def _forward_properties(names: Sequence[str]) -> None:
    for name in names:
        def getter(self, _name=name):
            return getattr(self._authority(), _name)
        getter.__name__ = name
        getter.__qualname__ = f"ScpuPool.{name}"
        doc = None
        attr = getattr(SecureCoprocessor, name, None)
        if isinstance(attr, property) and attr.fget is not None:
            doc = attr.fget.__doc__
        setattr(ScpuPool, name, property(getter, doc=doc))


_forward_properties(_AUTHORITY_PROPERTIES)
