"""The Strong WORM core: store, client, windows, retention, deferral."""

from repro.core.audit import AuditFinding, AuditReport, StoreAuditor
from repro.core.auth import (
    AccumulatorScheme,
    AuthenticationScheme,
    MerkleScheme,
    WindowScheme,
    available_schemes,
    create_scheme,
    register_scheme,
    resolve_scheme,
)
from repro.core.catalog import RecordCatalog
from repro.core.client import VerifiedRead, WormClient
from repro.core.config import StoreConfig
from repro.core.deferred import (
    HashVerificationQueue,
    PendingStrengthening,
    StrengtheningQueue,
)
from repro.core.dedup import DedupIndex, DepositOutcome
from repro.core.encryption import EncryptedRead, EncryptedWormStore
from repro.core.errors import (
    CrashError,
    CredentialError,
    DegradedError,
    FreshnessError,
    JournalError,
    LitigationHoldError,
    MigrationError,
    MissingRecordError,
    UnknownAlgorithmError,
    UnknownPolicyError,
    RetentionViolationError,
    ScpuUnavailableError,
    SecureMemoryError,
    ShardRoutingError,
    SignatureError,
    StorageUnavailableError,
    TamperedError,
    TransientFaultError,
    UnknownSerialNumberError,
    VerificationError,
    WormError,
)
from repro.core.health import BreakerState, CircuitBreaker, HealthSnapshot
from repro.core.migration import (
    MigrationPackage,
    MigrationReport,
    export_package,
    import_package,
)
from repro.core.policy import (
    STANDARD_POLICIES,
    YEAR_SECONDS,
    PolicyRegistry,
    RegulationPolicy,
)
from repro.core.proofs import (
    ActiveProof,
    BaseBoundProof,
    DeletionProofResponse,
    DeletionWindowProof,
    NeverAllocatedProof,
    ProofKind,
    ReadResult,
)
from repro.core.report import ComplianceReport, generate_report
from repro.core.retention import RetentionMonitor, Vexp
from repro.core.retry import (
    RetryExecutor,
    RetryingScpu,
    RetryPolicy,
    RetryStats,
)
from repro.core.locator import LocatorLike, RecordLocator, resolve_locator
from repro.core.sharded import (
    ShardedWormStore,
    ShardedWriteReceipt,
)
from repro.core.shredding import SHREDDING_ALGORITHMS, ShredResult, Shredder, shred
from repro.core.windows import WindowManager
from repro.core.worm import StrongWormStore, WriteReceipt

__all__ = [
    "AuditFinding",
    "AuditReport",
    "StoreAuditor",
    "AccumulatorScheme",
    "AuthenticationScheme",
    "MerkleScheme",
    "WindowScheme",
    "available_schemes",
    "create_scheme",
    "register_scheme",
    "resolve_scheme",
    "RecordCatalog",
    "DedupIndex",
    "DepositOutcome",
    "EncryptedRead",
    "EncryptedWormStore",
    "ComplianceReport",
    "generate_report",
    "VerifiedRead",
    "WormClient",
    "HashVerificationQueue",
    "PendingStrengthening",
    "StrengtheningQueue",
    "CrashError",
    "CredentialError",
    "DegradedError",
    "FreshnessError",
    "JournalError",
    "LitigationHoldError",
    "MigrationError",
    "MissingRecordError",
    "UnknownAlgorithmError",
    "UnknownPolicyError",
    "RetentionViolationError",
    "ScpuUnavailableError",
    "SecureMemoryError",
    "ShardRoutingError",
    "SignatureError",
    "StorageUnavailableError",
    "TamperedError",
    "TransientFaultError",
    "UnknownSerialNumberError",
    "VerificationError",
    "WormError",
    "BreakerState",
    "CircuitBreaker",
    "HealthSnapshot",
    "RetryExecutor",
    "RetryingScpu",
    "RetryPolicy",
    "RetryStats",
    "StoreConfig",
    "LocatorLike",
    "RecordLocator",
    "resolve_locator",
    "ShardedWormStore",
    "ShardedWriteReceipt",
    "MigrationPackage",
    "MigrationReport",
    "export_package",
    "import_package",
    "STANDARD_POLICIES",
    "YEAR_SECONDS",
    "PolicyRegistry",
    "RegulationPolicy",
    "ActiveProof",
    "BaseBoundProof",
    "DeletionProofResponse",
    "DeletionWindowProof",
    "NeverAllocatedProof",
    "ProofKind",
    "ReadResult",
    "RetentionMonitor",
    "Vexp",
    "SHREDDING_ALGORITHMS",
    "ShredResult",
    "Shredder",
    "shred",
    "WindowManager",
    "StrongWormStore",
    "WriteReceipt",
]
