"""Durable intent journal for the group-commit pending queue.

Between :meth:`ShardedWormStore.submit` and the group-commit flush, an
accepted record exists only in main-CPU memory — a host crash there
would silently lose it.  The intent journal closes that hole with the
classic write-ahead discipline:

* ``append_many`` — before records enter the pending queue, their
  payloads and shared write parameters (and, optionally, each caller's
  correlation *tag*) are journalled and assigned entry ids, one call per
  write request (``append`` is its batch of one);
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

A journal's history is one :class:`LedgerFold` of two record kinds,
``submit`` (an intent) and ``commit`` (acknowledged ids and their
locators), and :class:`JournalEntry` is its one entry type.  Two
backends share the interface: :class:`MemoryIntentJournal` (tests,
simulated crashes) folds each call as it comes, and
:class:`FileIntentJournal` (append-only JSONL on real disk, surviving
process restarts) writes the records as lines and folds its file on
each read.  A third,
:class:`repro.recovery.replication.ReplicatedIntentJournal`, wraps
either and mirrors the same records to a standby site, which folds
them the same way.
"""

from __future__ import annotations

import binascii
import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import JournalError

__all__ = ["JournalEntry", "LedgerFold", "IntentJournal",
           "MemoryIntentJournal", "FileIntentJournal"]


@dataclass(frozen=True)
class JournalEntry:
    """One journalled submission: the payload, its write parameters and
    its outcome.

    ``tag`` is the caller's opaque correlation handle (``None`` when
    untracked).  Tags must be JSON-safe; tuples survive the round trip
    (JSON lists are converted back on load) so the ``(tenant, ticket)``
    tags of the service layer replay intact.

    ``committed`` is True once the entry was acknowledged; ``locator``
    is the packed record locator recorded at commit time (``None`` when
    the caller passed none).  The recovery RESUME stage keys on exactly
    this pair: an uncommitted entry is re-queued, and a committed entry
    whose locator never made it into the replicated catalog is
    re-committed.
    """

    entry_id: int
    payload: bytes
    kwargs: Dict[str, Any]
    tag: Optional[object] = None
    committed: bool = False
    locator: Optional[str] = None


def _kwargs_text(kwargs: Dict[str, Any]) -> str:
    """The write kwargs' JSON text: journalable means JSON-safe."""
    try:
        return json.dumps(kwargs)
    except (TypeError, ValueError) as exc:
        raise JournalError(
            f"write parameters are not journalable (must be JSON-safe): "
            f"{kwargs!r}") from exc


def _tag_texts(tags: Optional[Sequence[Optional[object]]],
               count: int) -> List[Optional[str]]:
    """Each tag's JSON text (``None`` when untagged).

    Tags ride the journal too, so they must be JSON-safe as well.
    """
    if tags is None:
        return [None] * count
    if len(tags) != count:
        raise ValueError(f"{len(tags)} tags for {count} payloads")
    texts: List[Optional[str]] = []
    for tag in tags:
        if tag is None:
            texts.append(None)
            continue
        try:
            texts.append(json.dumps(_tag_to_json(tag)))
        except (TypeError, ValueError) as exc:
            raise JournalError(
                f"a journalled tag must be JSON-safe: {tag!r}") from exc
    return texts


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


_SUBMIT_LINE = (b'{"op": "submit", "id": %d, "payload": "%b", '
                b'"kwargs": %b%b}\n')


def _submit_line(entry_id: int, payload: bytes, kwargs_text: bytes,
                 tag_text: Optional[str]) -> bytes:
    """A submit record's ``json.dumps(record) + "\\n"``, as bytes.

    The payload's hex goes in as it is: hex needs no JSON escaping, so
    it is neither scanned for characters to escape nor copied again.
    """
    tag = b"" if tag_text is None else b', "tag": ' + tag_text.encode()
    return _SUBMIT_LINE % (entry_id, binascii.hexlify(payload),
                           kwargs_text, tag)


def _commit_record(entry_ids: List[int],
                   locators: Optional[Sequence[Optional[str]]]
                   ) -> Dict[str, Any]:
    """The ``commit`` record acknowledging *entry_ids*."""
    record: Dict[str, Any] = {"op": "commit", "ids": entry_ids}
    if locators is not None:
        record["locators"] = list(locators)
    return record


def _commit_line(entry_ids: List[int],
                 locators: Optional[Sequence[Optional[str]]]) -> bytes:
    return (json.dumps(_commit_record(entry_ids, locators)) + "\n").encode()


class LedgerFold:
    """A journal's history: each entry once, in intent order.

    :meth:`intent` journals an uncommitted entry (replacing any earlier
    one under its id); :meth:`commit` marks journalled ids committed
    with their locators (unknown ids are ignored, and a later mark's
    locator replaces an earlier one).  :meth:`add` only parses one
    journal record — a ``submit`` or ``commit`` line as the file journal
    writes it and the replica receives it — into those calls; a
    malformed record raises ``KeyError``, ``ValueError`` or
    ``TypeError``.  :meth:`replay`, :meth:`ledger` and
    :meth:`pending_count` are the journal's views of the fold.
    """

    def __init__(self) -> None:
        self._intents: Dict[int, Tuple[bytes, Dict[str, Any],
                                       Optional[object]]] = {}
        self._commits: Dict[int, Optional[str]] = {}

    def intent(self, entry_id: int, payload: bytes, kwargs: Dict[str, Any],
               tag: Optional[object] = None) -> None:
        self._intents[entry_id] = (payload, kwargs, tag)
        self._commits.pop(entry_id, None)

    def commit(self, entry_ids: Sequence[int],
               locators: Optional[Sequence[Optional[str]]] = None) -> None:
        for entry_id, locator in zip(entry_ids,
                                     locators or [None] * len(entry_ids)):
            if entry_id in self._intents:
                self._commits[entry_id] = locator

    def add(self, record: Dict[str, Any]) -> None:
        """Fold one journal record in."""
        op = record["op"]
        if op == "submit":
            self.intent(int(record["id"]), bytes.fromhex(record["payload"]),
                        dict(record["kwargs"]),
                        _tag_from_json(record.get("tag")))
        elif op == "commit":
            self.commit([int(i) for i in record["ids"]],
                        record.get("locators"))
        else:
            raise KeyError(op)  # wormlint: disable=W005 - a malformed record, reported by the caller

    @property
    def highest_id(self) -> int:
        """The highest entry id journalled (0 when none)."""
        return max(self._intents, default=0)

    def pending_count(self) -> int:
        return len(self._intents) - len(self._commits)

    def replay(self) -> List[JournalEntry]:
        return [JournalEntry(entry_id, *intent)
                for entry_id, intent in self._intents.items()
                if entry_id not in self._commits]

    def ledger(self) -> List[JournalEntry]:
        commits = self._commits
        return [JournalEntry(entry_id, payload, kwargs, tag,
                             entry_id in commits, commits.get(entry_id))
                for entry_id, (payload, kwargs, tag)
                in self._intents.items()]


class IntentJournal(ABC):
    """Interface of the submit-intent journal.

    :meth:`append_many` is every backend's one write path: a durable
    backend fsyncs each call, however many records it carries, so a
    write request pays for durability once.  :meth:`append` is its
    batch of one.
    """

    def append(self, payload: bytes, kwargs: Dict[str, Any],
               tag: Optional[object] = None) -> int:
        """Durably record one submission; returns its entry id."""
        return self.append_many([payload], kwargs, [tag])[0]

    @abstractmethod
    def append_many(self, payloads: Sequence[bytes], kwargs: Dict[str, Any],
                    tags: Optional[Sequence[Optional[object]]] = None
                    ) -> List[int]:
        """Durably record submissions that share *kwargs*, in order.

        Returns their entry ids.  *tags*, when given, parallels
        *payloads* (``None`` for an untagged one).  The kwargs and every
        tag are checked before anything is recorded: one that is not
        JSON-safe raises :class:`JournalError` and journals none of the
        batch.
        """

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

    @abstractmethod
    def ledger(self) -> List[JournalEntry]:
        """Full history in submission order (committed entries included)."""


class MemoryIntentJournal(IntentJournal):
    """In-process journal: survives a *simulated* crash (the test keeps
    the journal object and discards the store), not a real one."""

    def __init__(self) -> None:
        self._next_id = 1
        self._fold = LedgerFold()

    def append_many(self, payloads: Sequence[bytes], kwargs: Dict[str, Any],
                    tags: Optional[Sequence[Optional[object]]] = None
                    ) -> List[int]:
        _kwargs_text(kwargs)
        _tag_texts(tags, len(payloads))  # every tag checked before any entry
        first = self._next_id
        self._next_id += len(payloads)
        for entry_id, payload, tag in zip(
                range(first, self._next_id), payloads,
                tags or [None] * len(payloads)):
            self._fold.intent(entry_id, bytes(payload), dict(kwargs), tag)
        return list(range(first, self._next_id))

    def mark_committed(self, entry_ids: Iterable[int],
                       locators: Optional[Sequence[str]] = None) -> None:
        self._fold.commit(list(entry_ids), locators)

    def replay(self) -> List[JournalEntry]:
        return self._fold.replay()

    def pending_count(self) -> int:
        return self._fold.pending_count()

    def ledger(self) -> List[JournalEntry]:
        return self._fold.ledger()


class FileIntentJournal(IntentJournal):
    """Append-only JSONL journal on real disk.

    Records two line kinds — ``{"op": "submit", ...}`` and
    ``{"op": "commit", "ids": [...], "locators": [...]}`` — and fsyncs
    each call, so the recoverable set is exactly what a crashed
    process had acknowledged to its callers.  An :meth:`append_many`
    writes one submit line per payload through one handle and fsyncs
    once; a crash that tears it leaves a prefix of its bytes, whose
    complete lines replay (none was acknowledged) and whose torn last
    line is healed on open.  :meth:`replay` and :meth:`ledger` fold the
    file each call, so no payload stays in memory.  :meth:`compact`
    rewrites the file down to the unacknowledged entries (call it from a
    maintenance window; replay correctness never requires it — but it
    discards ledger history for the compacted-away entries).
    """

    def __init__(self, path: os.PathLike) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._next_id = 1
        self._heal_torn_tail()
        # The fold seeds _next_id past every id ever journalled; after
        # it, each fsynced append or commit mark keeps the pending ids.
        self._pending = {entry.entry_id for entry in self.replay()}

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

    def _fold(self) -> LedgerFold:
        """Fold the file's records (a torn final line tolerated)."""
        fold = LedgerFold()
        if not self._path.exists():
            return fold
        lines = self._path.read_text().splitlines()
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                fold.add(json.loads(line))
            except (KeyError, ValueError, TypeError) as exc:
                # A torn final line (crash mid-append) is expected and
                # safely ignorable; garbage earlier in the file is not.
                if line_no == len(lines):
                    continue
                raise JournalError(
                    f"corrupt journal line {line_no} in {self._path}") from exc
        self._next_id = max(self._next_id, fold.highest_id + 1)
        return fold

    def _append_lines(self, lines: Iterable[bytes]) -> None:
        """Append *lines* through one handle, then fsync once."""
        with open(self._path, "ab") as handle:
            for line in lines:  # wormlint: disable=W009 - file writes, not card crossings
                handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def append_many(self, payloads: Sequence[bytes], kwargs: Dict[str, Any],
                    tags: Optional[Sequence[Optional[object]]] = None
                    ) -> List[int]:
        kwargs_text = _kwargs_text(kwargs).encode()
        tag_texts = _tag_texts(tags, len(payloads))
        if not payloads:
            return []
        first = self._next_id
        self._next_id += len(payloads)
        entry_ids = list(range(first, self._next_id))
        self._append_lines(
            _submit_line(entry_id, payload, kwargs_text, tag_text)
            for entry_id, payload, tag_text
            in zip(entry_ids, payloads, tag_texts))
        self._pending.update(entry_ids)
        return entry_ids

    def mark_committed(self, entry_ids: Iterable[int],
                       locators: Optional[Sequence[str]] = None) -> None:
        ids = [int(i) for i in entry_ids]
        if not ids:
            return
        self._append_lines([_commit_line(ids, locators)])
        self._pending.difference_update(ids)

    def replay(self) -> List[JournalEntry]:
        return self._fold().replay()

    def pending_count(self) -> int:
        return len(self._pending)

    def ledger(self) -> List[JournalEntry]:
        return self._fold().ledger()

    def compact(self) -> int:
        """Rewrite the file keeping only unacknowledged entries.

        Returns the number of live entries kept.  A committed newest
        entry keeps its submit line and a commit mark too: it holds the
        id high-water mark, so a reopened journal never hands out a
        compacted-away id again.  Writes to a temp file and renames, so
        a crash mid-compaction leaves either the old or the new journal
        intact.
        """
        ledger = self._fold().ledger()
        kept = [entry for entry in ledger
                if not entry.committed or entry is ledger[-1]]
        tmp = self._path.with_suffix(self._path.suffix + ".tmp")
        tag_texts = _tag_texts([entry.tag for entry in kept], len(kept))
        with open(tmp, "wb") as handle:
            for entry, tag_text in zip(kept, tag_texts):  # wormlint: disable=W009 - file writes, not card crossings
                handle.write(_submit_line(
                    entry.entry_id, entry.payload,
                    json.dumps(entry.kwargs).encode(), tag_text))
                if entry.committed:
                    handle.write(_commit_line(
                        [entry.entry_id],
                        None if entry.locator is None else [entry.locator]))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(self._path)
        return sum(not entry.committed for entry in kept)
