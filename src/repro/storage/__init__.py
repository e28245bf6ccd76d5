"""Untrusted storage substrate: block store, records, VRDs, and the VRDT."""

from repro.storage.block_store import (
    BlockStore,
    DirectoryBlockStore,
    MemoryBlockStore,
    MissingRecordError,
)
from repro.storage.journal import (
    FileIntentJournal,
    IntentJournal,
    JournalEntry,
    MemoryIntentJournal,
)
from repro.storage.record import RecordAttributes, RecordDescriptor
from repro.storage.vrd import VirtualRecordDescriptor
from repro.storage.vrdt import DeletionWindow, VrdTable

__all__ = [
    "BlockStore",
    "DirectoryBlockStore",
    "MemoryBlockStore",
    "MissingRecordError",
    "FileIntentJournal",
    "IntentJournal",
    "JournalEntry",
    "MemoryIntentJournal",
    "RecordAttributes",
    "RecordDescriptor",
    "VirtualRecordDescriptor",
    "DeletionWindow",
    "VrdTable",
]
