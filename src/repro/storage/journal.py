"""Durable intent journal for the group-commit pending queue.

Between :meth:`ShardedWormStore.submit` and the group-commit flush, an
accepted record exists only in main-CPU memory — a host crash there
would silently lose it.  The intent journal closes that hole with the
classic write-ahead discipline:

* ``append`` — before a record enters the pending queue, its payload and
  write parameters (and, optionally, the caller's correlation *tag*) are
  journalled and assigned an entry id;
* ``mark_committed`` — after its group commit succeeds (the SCPU has
  witnessed the VR), the entry is acknowledged; the committed record's
  packed locator may ride along, so downstream consumers (cross-site
  replication, :mod:`repro.recovery`) can correlate journal entries with
  durable records;
* ``replay`` — on construction over an existing journal, every
  journalled-but-unacknowledged entry is returned, in submission order,
  for re-queueing;
* ``ledger`` — the full history view (committed entries included, with
  their locators), which is what a disaster-recovery pass walks to prove
  every acknowledged write survived the loss of the site.

Semantics are **at-least-once**: a crash *between* the group commit and
the acknowledgement replays records that were already committed, so a
restarted store may write a payload twice (two SNs, same bytes).  For a
WORM store that is the correct side of the trade — duplicates are
harmless under an immutability regime and deduplicable offline, while a
lost record is a compliance violation.

The journal is untrusted main-CPU state, like the VRDT: it buys
*availability* (no accepted record is forgotten), never integrity — the
SCPU-signed constructs still carry every guarantee.

Two backends share the interface: :class:`MemoryIntentJournal` (tests,
simulated crashes) and :class:`FileIntentJournal` (append-only JSONL on
real disk, surviving process restarts).  A third,
:class:`repro.recovery.replication.ReplicatedIntentJournal`, wraps
either and mirrors every operation to a standby site.
"""

from __future__ import annotations

import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import JournalError

__all__ = ["JournalEntry", "LedgerEntry", "LedgerFold", "IntentJournal",
           "MemoryIntentJournal", "FileIntentJournal"]


@dataclass(frozen=True)
class JournalEntry:
    """One journalled submission: the payload and its write parameters.

    ``tag`` is the caller's opaque correlation handle (``None`` when
    untracked).  Tags must be JSON-safe; tuples survive the round trip
    (JSON lists are converted back on load) so the ``(tenant, ticket)``
    tags of the service layer replay intact.
    """

    entry_id: int
    payload: bytes
    kwargs: Dict[str, Any]
    tag: Optional[object] = None


@dataclass(frozen=True)
class LedgerEntry:
    """One journal entry's full history: intent plus commit outcome.

    ``committed`` is True once the entry was acknowledged;
    ``locator`` is the packed record locator recorded at commit time
    (``None`` for pre-locator journals or callers that did not pass
    one).  The recovery RESUME stage keys on exactly this pair: an
    uncommitted entry is re-queued, and a committed entry whose locator
    never made it into the replicated catalog is re-committed.
    """

    entry_id: int
    payload: bytes
    kwargs: Dict[str, Any]
    tag: Optional[object] = None
    committed: bool = False
    locator: Optional[str] = None


def _check_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Write kwargs must survive a JSON round-trip to be journalable."""
    try:
        return json.loads(json.dumps(kwargs))
    except (TypeError, ValueError) as exc:
        raise JournalError(
            f"write parameters are not journalable (must be JSON-safe): "
            f"{kwargs!r}") from exc


def _check_tag(tag: Optional[object]) -> Optional[object]:
    """Tags ride the journal too, so they must be JSON-safe as well."""
    if tag is None:
        return None
    try:
        json.dumps(_tag_to_json(tag))
    except (TypeError, ValueError) as exc:
        raise JournalError(
            f"a journalled tag must be JSON-safe: {tag!r}") from exc
    return tag


def _tag_to_json(tag: Optional[object]) -> Optional[object]:
    """Tuples serialize as lists; everything else passes through."""
    if isinstance(tag, tuple):
        return list(tag)
    return tag


def _tag_from_json(value: Optional[object]) -> Optional[object]:
    """Restore the hashable tuple form lists decayed into on disk."""
    if isinstance(value, list):
        return tuple(value)
    return value


class LedgerFold:
    """Journal records folded into ledger entries, each built once.

    Both journals with a record history fold it here: the file journal's
    ``submit`` lines and the replica's mirrored ``append`` ops are
    intents (*intent_op* names which), and ``commit`` records mark
    already-journalled ids committed with their locators.  :meth:`add`
    parses a record as it comes (a malformed one raises ``KeyError``,
    ``ValueError`` or ``TypeError``); :meth:`entries` builds the
    :class:`LedgerEntry` list, in intent order, however many commits
    touched an entry.
    """

    def __init__(self, intent_op: str) -> None:
        self._intent_op = intent_op
        self._intents: Dict[int, Tuple[bytes, Dict[str, Any],
                                       Optional[object]]] = {}
        self._commits: Dict[int, Optional[str]] = {}
        self._order: List[int] = []

    def add(self, record: Dict[str, Any]) -> None:
        """Fold one journal record in."""
        op = record["op"]
        if op == self._intent_op:
            entry_id = int(record["id"])
            self._intents[entry_id] = (bytes.fromhex(record["payload"]),
                                       dict(record["kwargs"]),
                                       _tag_from_json(record.get("tag")))
            self._commits.pop(entry_id, None)
            self._order.append(entry_id)
        elif op == "commit":
            ids = [int(i) for i in record["ids"]]
            locators = record.get("locators") or [None] * len(ids)
            for entry_id, locator in zip(ids, locators):
                if entry_id in self._intents:
                    self._commits[entry_id] = locator
        else:
            raise KeyError(op)  # wormlint: disable=W005 - a malformed record, reported by the caller

    @property
    def highest_id(self) -> int:
        """The highest entry id journalled (0 when none)."""
        return max(self._order, default=0)

    def entries(self) -> List[LedgerEntry]:
        built = {entry_id: LedgerEntry(
                     entry_id=entry_id, payload=payload, kwargs=kwargs,
                     tag=tag, committed=entry_id in self._commits,
                     locator=self._commits.get(entry_id))
                 for entry_id, (payload, kwargs, tag)
                 in self._intents.items()}
        return [built[entry_id] for entry_id in self._order]


class IntentJournal(ABC):
    """Interface of the submit-intent journal."""

    @abstractmethod
    def append(self, payload: bytes, kwargs: Dict[str, Any],
               tag: Optional[object] = None) -> int:
        """Durably record one submission; returns its entry id."""

    @abstractmethod
    def mark_committed(self, entry_ids: Iterable[int],
                       locators: Optional[Sequence[str]] = None) -> None:
        """Acknowledge entries whose group commit succeeded.

        *locators*, when given, parallels *entry_ids* with each
        committed record's packed locator so the ledger can correlate
        intents with durable records.
        """

    @abstractmethod
    def replay(self) -> List[JournalEntry]:
        """Unacknowledged entries in submission order (crash recovery)."""

    @abstractmethod
    def pending_count(self) -> int:
        """Entries appended but not yet acknowledged."""

    def ledger(self) -> List[LedgerEntry]:
        """Full history in submission order (committed entries included).

        Backends that discard committed entries may return only what
        they still know; the default derives a pending-only view from
        :meth:`replay` so legacy backends stay conformant.
        """
        return [LedgerEntry(entry_id=e.entry_id, payload=e.payload,
                            kwargs=e.kwargs, tag=e.tag)
                for e in self.replay()]


class MemoryIntentJournal(IntentJournal):
    """In-process journal: survives a *simulated* crash (the test keeps
    the journal object and discards the store), not a real one."""

    def __init__(self) -> None:
        self._next_id = 1
        self._entries: Dict[int, JournalEntry] = {}
        self._order: List[int] = []
        # Full history for ledger(): entry_id -> (committed, locator).
        self._outcomes: Dict[int, Any] = {}
        self._history: Dict[int, JournalEntry] = {}

    def append(self, payload: bytes, kwargs: Dict[str, Any],
               tag: Optional[object] = None) -> int:
        entry_id = self._next_id
        self._next_id += 1
        entry = JournalEntry(
            entry_id=entry_id, payload=bytes(payload),
            kwargs=_check_kwargs(kwargs), tag=_check_tag(tag))
        self._entries[entry_id] = entry
        self._history[entry_id] = entry
        self._outcomes[entry_id] = (False, None)
        self._order.append(entry_id)
        return entry_id

    def mark_committed(self, entry_ids: Iterable[int],
                       locators: Optional[Sequence[str]] = None) -> None:
        ids = list(entry_ids)
        locs = list(locators) if locators is not None else [None] * len(ids)
        for entry_id, locator in zip(ids, locs):
            self._entries.pop(entry_id, None)
            if entry_id in self._outcomes:
                self._outcomes[entry_id] = (True, locator)

    def replay(self) -> List[JournalEntry]:
        return [self._entries[i] for i in self._order if i in self._entries]

    def pending_count(self) -> int:
        return len(self._entries)

    def ledger(self) -> List[LedgerEntry]:
        out: List[LedgerEntry] = []
        for entry_id in self._order:
            entry = self._history[entry_id]
            committed, locator = self._outcomes[entry_id]
            out.append(LedgerEntry(
                entry_id=entry_id, payload=entry.payload,
                kwargs=entry.kwargs, tag=entry.tag,
                committed=committed, locator=locator))
        return out


class FileIntentJournal(IntentJournal):
    """Append-only JSONL journal on real disk.

    Records two line kinds — ``{"op": "submit", ...}`` and
    ``{"op": "commit", "ids": [...], "locators": [...]}`` — and fsyncs
    each append, so the recoverable set is exactly what a crashed
    process had acknowledged to its callers.  :meth:`compact` rewrites
    the file down to the unacknowledged entries (call it from a
    maintenance window; replay correctness never requires it — but it
    discards ledger history for the compacted-away entries).
    """

    def __init__(self, path: os.PathLike) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._next_id = 1
        self._heal_torn_tail()
        self._load()  # seeds _next_id past every id ever journalled

    @property
    def path(self) -> Path:
        return self._path

    def _heal_torn_tail(self) -> None:
        """Truncate a torn final line (crash mid-append) on open.

        An append is acknowledged only after the full line is written
        and fsynced, so a tail missing its newline was never
        acknowledged to any caller — dropping it loses nothing.  Left
        in place it *would* corrupt the next append, which would merge
        onto the torn prefix and form one unparseable line, silently
        losing the new entry.
        """
        if not self._path.exists():
            return
        raw = self._path.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1  # 0 when no complete line survives
        with open(self._path, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())

    def _scan(self) -> List[LedgerEntry]:
        """Parse the file into ledger entries (torn tail tolerated)."""
        if not self._path.exists():
            return []
        fold = LedgerFold("submit")
        for line_no, line in enumerate(
                self._path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                fold.add(json.loads(line))
            except (KeyError, ValueError, TypeError) as exc:
                # A torn final line (crash mid-append) is expected and
                # safely ignorable; garbage earlier in the file is not.
                if line_no == self._line_count():
                    continue
                raise JournalError(
                    f"corrupt journal line {line_no} in {self._path}") from exc
        self._next_id = max(self._next_id, fold.highest_id + 1)
        return fold.entries()

    def _load(self) -> List[JournalEntry]:
        return [JournalEntry(entry_id=e.entry_id, payload=e.payload,
                             kwargs=e.kwargs, tag=e.tag)
                for e in self._scan() if not e.committed]

    def _line_count(self) -> int:
        return len(self._path.read_text().splitlines())

    def _append_line(self, record: Dict[str, Any]) -> None:
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, payload: bytes, kwargs: Dict[str, Any],
               tag: Optional[object] = None) -> int:
        entry_id = self._next_id
        self._next_id += 1
        record = {"op": "submit", "id": entry_id,
                  "payload": bytes(payload).hex(),
                  "kwargs": _check_kwargs(kwargs)}
        if _check_tag(tag) is not None:
            record["tag"] = _tag_to_json(tag)
        self._append_line(record)
        return entry_id

    def mark_committed(self, entry_ids: Iterable[int],
                       locators: Optional[Sequence[str]] = None) -> None:
        ids = [int(i) for i in entry_ids]
        if not ids:
            return
        record: Dict[str, Any] = {"op": "commit", "ids": ids}
        if locators is not None:
            record["locators"] = list(locators)
        self._append_line(record)

    def replay(self) -> List[JournalEntry]:
        return self._load()

    def pending_count(self) -> int:
        return len(self._load())

    def ledger(self) -> List[LedgerEntry]:
        return self._scan()

    def compact(self) -> int:
        """Rewrite the file keeping only unacknowledged entries.

        Returns the number of live entries kept.  Writes to a temp file
        and renames, so a crash mid-compaction leaves either the old or
        the new journal intact.
        """
        live = self._load()
        tmp = self._path.with_suffix(self._path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in live:
                record = {"op": "submit", "id": entry.entry_id,
                          "payload": entry.payload.hex(),
                          "kwargs": entry.kwargs}
                if entry.tag is not None:
                    record["tag"] = _tag_to_json(entry.tag)
                handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(self._path)
        return len(live)
