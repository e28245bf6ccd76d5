"""Fault-injection harness: deterministic chaos for the WORM stack.

The paper's trust story *depends* on failure: the SCPU answers attack by
destroying itself (§2.2 zeroization).  This package turns card death,
transient device errors, latency spikes, and mid-commit host crashes
into first-class, deterministically schedulable events so the rest of
the system can prove it survives them — see :mod:`repro.core.retry`
(backoff), :mod:`repro.core.health` (circuit breakers / degraded mode),
:mod:`repro.storage.journal` (crash recovery), and ``tests/chaos/``.
"""

from repro.faults.plan import FaultAction, FaultEvent, FaultKind, FaultPlan
from repro.faults.wrappers import FaultyBlockStore, FaultyScpu

__all__ = [
    "FaultAction",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultyBlockStore",
    "FaultyScpu",
]
