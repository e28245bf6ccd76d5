"""Deferred-strength witnessing (§4.3): absorb bursts, strengthen later.

During update bursts the SCPU cannot keep up with full-strength (1024-bit)
signing, so writes are witnessed with *short-lived* constructs — 512-bit
signatures (breakable only in tens of minutes, far longer than any write
burst) or HMAC tags (instant, but not client-verifiable).  Idle periods
then *strengthen* them: the SCPU verifies its own weak construct and
re-signs the statement with the durable key — and this MUST happen within
the weak construct's security lifetime, or the integrity guarantee lapses.

Two queues implement the idle-time work:

* :class:`StrengtheningQueue` — weak/HMAC-witnessed VRDs ordered by
  strengthening deadline (issue time + lifetime × safety factor);
* :class:`HashVerificationQueue` — VRDs written in the §4.2.2 "slightly
  weaker model" where the host supplied the data hash during the burst;
  the SCPU re-reads the data and verifies the hash during idle time.

Both expose deadline introspection so schedulers (and the benchmarks) can
check the adaptive property: bursts never outlive the security lifetime
of what they were absorbed with.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.hardware.scpu import StrengtheningError
from repro.obs.bus import NULL_BUS, TelemetryBus

__all__ = ["PendingStrengthening", "StrengtheningQueue", "HashVerificationQueue"]


@dataclass(frozen=True)
class PendingStrengthening:
    """One weak-witnessed VRD awaiting its strong signature."""

    sn: int
    issued_at: float
    lifetime_seconds: float
    safety_factor: float

    @property
    def deadline(self) -> float:
        """Latest safe strengthening time: well inside the lifetime."""
        return self.issued_at + self.lifetime_seconds * self.safety_factor

    @property
    def hard_expiry(self) -> float:
        """When the weak construct's security assumption actually lapses."""
        return self.issued_at + self.lifetime_seconds


class StrengtheningQueue:
    """Deadline-ordered queue of constructs to re-sign with the strong key.

    ``safety_factor`` < 1 front-loads the deadlines (default: strengthen
    by half the lifetime), matching the paper's "within their security
    lifetime" requirement with margin for scheduling jitter.
    """

    def __init__(self, store, safety_factor: float = 0.5,
                 obs: Optional[TelemetryBus] = None) -> None:
        if not 0.0 < safety_factor <= 1.0:
            raise ValueError("safety factor must be in (0, 1]")
        self._store = store
        self.safety_factor = safety_factor
        self._heap: List[Tuple[float, int, PendingStrengthening]] = []
        # Gauge-side view of the backlog, maintained incrementally so the
        # telemetry pulls (active_backlog / next_deadline / overdue_count)
        # are O(log n) lookups instead of O(n) sweeps of the heap with a
        # VRDT liveness probe per entry.  Deletions arrive lazily via
        # :meth:`note_deleted` (pushed by the store when a record's
        # deletion proof lands) and are reconciled against the VRDT on
        # every pop and prune, so a missed push self-heals.
        self._live_deadlines: List[float] = []
        self._deadlines_by_sn: Dict[int, List[float]] = {}
        self._counter = 0
        self.strengthened_count = 0
        self.lifetime_violations = 0
        self.skipped_deleted = 0
        # SNs already counted as lifetime violations.  A violation is a
        # property of the *record* (its weak construct outlived its
        # security lifetime unstrengthened), so an entry that fails to
        # strengthen and is restored to the heap must not be counted
        # again on retry.
        self._violated: Set[int] = set()
        obs = obs if obs is not None else NULL_BUS
        obs.register_counter("strengthen.completed",
                             lambda: self.strengthened_count)
        obs.register_counter("strengthen.lifetime_violations",
                             lambda: self.lifetime_violations)
        obs.register_counter("strengthen.skipped_deleted",
                             lambda: self.skipped_deleted)

    def __len__(self) -> int:
        """Raw heap size, *including* entries whose record has since been
        deleted — the number of pops still needed to drain the queue
        (what scheduling loops budget against)."""
        return len(self._heap)

    def enqueue(self, sn: int, issued_at: float, lifetime_seconds: float) -> None:
        """Register a weak-witnessed write for later strengthening."""
        pending = PendingStrengthening(
            sn=sn,
            issued_at=issued_at,
            lifetime_seconds=lifetime_seconds,
            safety_factor=self.safety_factor,
        )
        self._counter += 1
        heapq.heappush(self._heap, (pending.deadline, self._counter, pending))
        bisect.insort(self._live_deadlines, pending.deadline)
        self._deadlines_by_sn.setdefault(sn, []).append(pending.deadline)

    def _is_live(self, pending: PendingStrengthening) -> bool:
        """Does this entry still protect anything?  Deleted records don't:
        a deletion proof supersedes the data signatures."""
        return self._store.vrdt.is_active(pending.sn)

    def _discard_gauge_entry(self, sn: int, deadline: float) -> None:
        """Drop one (sn, deadline) pair from the gauge view, if present."""
        lst = self._deadlines_by_sn.get(sn)
        if lst is None:
            return
        try:
            lst.remove(deadline)
        except ValueError:
            return
        if not lst:
            del self._deadlines_by_sn[sn]
        idx = bisect.bisect_left(self._live_deadlines, deadline)
        del self._live_deadlines[idx]

    def note_deleted(self, sn: int) -> None:
        """Record that *sn*'s record was deleted: its entries stop counting
        toward the live backlog immediately.  The heap entries themselves
        are removed lazily, on pop or prune."""
        deadlines = self._deadlines_by_sn.pop(sn, None)
        if not deadlines:
            return
        for deadline in deadlines:
            idx = bisect.bisect_left(self._live_deadlines, deadline)
            del self._live_deadlines[idx]

    def _rebuild_gauges(self) -> None:
        """Recompute the gauge view from the heap's live entries."""
        self._live_deadlines = []
        self._deadlines_by_sn = {}
        for deadline, _, pending in self._heap:
            if self._is_live(pending):
                self._live_deadlines.append(deadline)
                self._deadlines_by_sn.setdefault(pending.sn, []).append(deadline)
        self._live_deadlines.sort()

    def active_backlog(self) -> int:
        """Entries whose record is still active (the real strengthening debt)."""
        return len(self._live_deadlines)

    def next_deadline(self) -> Optional[float]:
        """Earliest deadline among *live* entries (None when none remain).

        Entries whose record was deleted are not deadlines — there is
        nothing left to strengthen — so they are skipped, not reported.
        """
        return self._live_deadlines[0] if self._live_deadlines else None

    def overdue_count(self, now: float) -> int:
        """Live entries whose *deadline* (not hard expiry) has passed."""
        return bisect.bisect_right(self._live_deadlines, now)

    def strengthen_next(self, now: float) -> Optional[int]:
        """Strengthen the most urgent live entry: a :meth:`drain` of one.

        Returns its SN (None if idle).
        """
        done = self._strengthen_slice(now, 1)
        return done[0] if done else None

    def _prune_deleted(self) -> None:
        """Evict (and count) every entry whose record is gone."""
        live = [item for item in self._heap if self._is_live(item[2])]
        dropped = len(self._heap) - len(live)
        if dropped:
            self._heap = live
            heapq.heapify(self._heap)
            self.skipped_deleted += dropped
            self._rebuild_gauges()

    def report(self, now: float) -> dict:
        """The strengthening backlog, for health reports and escalation.

        After a tamper trip this is the authoritative list of what never
        got its strong signature — reported, not lost.  Entries whose
        record was deleted in the meantime protect nothing (the deletion
        proof supersedes the data signatures); they are pruned here and
        surfaced via ``skipped_deleted`` rather than padding the backlog.
        """
        self._prune_deleted()
        return {
            "backlog": len(self._heap),
            "overdue": self.overdue_count(now),
            "next_deadline": self.next_deadline(),
            "pending_sns": sorted(p.sn for _, _, p in self._heap),
            "strengthened": self.strengthened_count,
            "lifetime_violations": self.lifetime_violations,
            "skipped_deleted": self.skipped_deleted,
        }

    def drain(self, now: float, max_items: Optional[int] = None) -> int:
        """Strengthen up to *max_items* live entries (all, when None), most
        urgent first, in one card call; returns how many were strengthened.

        Entries whose record was deleted in the meantime are skipped (a
        deletion proof supersedes the data signatures).  Strengthening a
        construct past its hard expiry is still performed — the signature
        chain remains internally valid — but it is *counted* as a
        lifetime violation, once per record, which the security
        benchmarks assert to be zero under correctly provisioned systems.

        If strengthening fails — the SCPU dropped the request, tripped
        tamper response, or refused a tampered construct — every entry
        that did not get its strong signatures is **restored to the
        queue** before the error propagates: a weak construct must never
        silently leave the backlog without its strong signature (that
        would launder a 512-bit/HMAC witness into apparent full
        strength).  The surviving backlog is inspectable via
        :meth:`report`.
        """
        return len(self._strengthen_slice(now, max_items))

    def _strengthen_slice(self, now: float,
                          max_items: Optional[int]) -> List[int]:
        """Pop up to *max_items* live entries and strengthen them in one
        :meth:`StrongWormStore.strengthen_vrds` call; their SNs."""
        taken: List[Tuple[float, int, PendingStrengthening]] = []
        while self._heap and (max_items is None or len(taken) < max_items):
            item = heapq.heappop(self._heap)
            pending = item[2]
            if not self._store.vrdt.is_active(pending.sn):
                # Reconcile the gauge view in case the deletion was never
                # pushed via note_deleted (no-op when it was).
                self._discard_gauge_entry(pending.sn, item[0])
                self.skipped_deleted += 1
                continue
            if now > pending.hard_expiry and pending.sn not in self._violated:
                # One violation per record, ever: a retry of the same
                # entry (restored below on failure) is still the same
                # lapsed construct, not a new lapse.
                self._violated.add(pending.sn)
                self.lifetime_violations += 1
            taken.append(item)
        if not taken:
            return []
        done = 0
        try:
            self._store.strengthen_vrds([item[2].sn for item in taken])
            done = len(taken)
        except StrengtheningError as exc:
            done = exc.records_done
            raise
        finally:
            for item in taken[done:]:
                heapq.heappush(self._heap, item)
            for item in taken[:done]:
                self._discard_gauge_entry(item[2].sn, item[0])
            self.strengthened_count += done
        return [item[2].sn for item in taken]

class HashVerificationQueue:
    """Idle-time verification of host-computed data hashes (§4.2.2).

    In burst mode the main CPU may be "trusted to provide datasig's hash
    which will be verified later during idle times".  Until verified, a
    forged hash would let an insider commit bogus data under a valid
    signature — so the window between write and verification is exactly
    the exposure this queue bounds.  Mismatches are recorded and surfaced:
    they are proof of main-CPU misbehaviour during the burst.
    """

    def __init__(self, store, obs: Optional[TelemetryBus] = None) -> None:
        self._store = store
        self._pending: Deque[Tuple[float, int]] = deque()  # (written_at, sn)
        self.verified_count = 0
        self.skipped_deleted = 0
        self.mismatches: List[int] = []
        obs = obs if obs is not None else NULL_BUS
        obs.register_counter("hashverify.verified",
                             lambda: self.verified_count)
        obs.register_counter("hashverify.mismatches",
                             lambda: len(self.mismatches))
        obs.register_counter("hashverify.skipped_deleted",
                             lambda: self.skipped_deleted)

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, sn: int, written_at: float) -> None:
        self._pending.append((written_at, sn))

    def oldest_pending_age(self, now: float) -> float:
        """Age of the oldest unverified hash (the current exposure window)."""
        if not self._pending:
            return 0.0
        return now - self._pending[0][0]

    def verify_next(self) -> Optional[bool]:
        """Verify the oldest pending hash: a :meth:`drain` of one.

        Returns the outcome (None if idle).
        """
        mismatches = len(self.mismatches)
        if not self.drain(max_items=1):
            return None
        return len(self.mismatches) == mismatches

    def drain(self, max_items: Optional[int] = None) -> int:
        """Verify up to *max_items* pending hashes (all, when None), oldest
        first, in one card call; returns how many were verified.

        Entries whose record was deleted meanwhile are dropped — nothing
        is left to protect — and counted, not silent.  Same no-laundering
        rule as strengthening: if reading the blocks or the card call
        fails, the whole slice goes back to the front of the backlog, in
        its order, before the error propagates.
        """
        taken: List[Tuple[float, int]] = []
        vrds = []
        while self._pending and (max_items is None or len(taken) < max_items):
            entry = self._pending.popleft()
            vrd = self._store.vrdt.get_active(entry[1])
            if vrd is None:
                self.skipped_deleted += 1
                continue
            taken.append(entry)
            vrds.append(vrd)
        if not taken:
            return 0
        try:
            outcomes = self._store.scpu_verify_data_hashes(vrds)
        except BaseException:
            self._pending.extendleft(reversed(taken))
            raise
        self.verified_count += len(taken)
        self.mismatches.extend(entry[1] for entry, ok in zip(taken, outcomes)
                               if not ok)
        return len(taken)
