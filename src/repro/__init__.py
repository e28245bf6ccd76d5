"""Strong WORM — a reproduction of Radu Sion, "Strong WORM" (ICDCS 2008).

A Write-Once Read-Many compliance-storage system with strong,
insider-resistant assurances, built around a (simulated) secure
coprocessor (SCPU) in close data proximity:

* guaranteed retention — committed records cannot be altered or removed
  undetected (Theorem 1);
* no hiding — insiders cannot claim active records expired or never
  existed (Theorem 2);
* secure deletion — expired records are shredded and leave only signed
  deletion proofs;
* compliant migration — stores move to new media with assurances intact;
* O(1)-per-update window authentication instead of Merkle trees;
* deferred-strength witnessing for burst absorption (§4.3);
* pluggable catalog authentication (``StoreConfig(auth_scheme=...)``):
  sealed windows, Merkle tree, or trapdoor-assisted RSA accumulator.

Quickstart
----------
>>> from repro import StrongWormStore, CertificateAuthority, demo_keyring
>>> from repro.hardware import SecureCoprocessor
>>> ca = CertificateAuthority(bits=512)
>>> store = StrongWormStore(scpu=SecureCoprocessor(keyring=demo_keyring()))
>>> receipt = store.write([b"board minutes, Q3"], policy="sox")
>>> client = store.make_client(ca)
>>> verified = client.verify_read(store.read(receipt.sn), receipt.sn)
>>> verified.status
'active'
"""

from repro.core import (
    AuditReport,
    AuthenticationScheme,
    PolicyRegistry,
    ReadResult,
    RecordLocator,
    RegulationPolicy,
    ShardedWormStore,
    ShardedWriteReceipt,
    StoreAuditor,
    StoreConfig,
    StrongWormStore,
    VerifiedRead,
    WormClient,
    WriteReceipt,
    available_schemes,
    export_package,
    import_package,
)
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
    RecoveryError,
    ReplicationError,
    UnknownSerialNumberError,
    VerificationError,
    WormError,
)
from repro.core.retry import RetryPolicy
from repro.recovery import (
    RecoveryReport,
    RecoveryStage,
    ReplicaSite,
    ReplicatedIntentJournal,
    ReplicationPump,
    ReplicationTransport,
    SiteRecovery,
)
from repro.storage.journal import FileIntentJournal, MemoryIntentJournal
from repro.crypto import CertificateAuthority, SigningKey
from repro.hardware import ScpuKeyring, SecureCoprocessor, Strength
from repro.service import (
    OPERATIONS,
    PROTOCOL_VERSION,
    Problem,
    ServiceRequest,
    ServiceResponse,
    TenantConfig,
    WormService,
)

__version__ = "1.0.0"

__all__ = [
    "AuditReport",
    "AuthenticationScheme",
    "available_schemes",
    "StoreAuditor",
    "PolicyRegistry",
    "ReadResult",
    "RecordLocator",
    "RegulationPolicy",
    "ShardedWormStore",
    "ShardedWriteReceipt",
    "StoreConfig",
    "StrongWormStore",
    "VerifiedRead",
    "WormClient",
    "WriteReceipt",
    "export_package",
    "import_package",
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
    "RecoveryError",
    "ReplicationError",
    "UnknownSerialNumberError",
    "VerificationError",
    "WormError",
    "ReplicationPump",
    "ReplicationTransport",
    "ReplicaSite",
    "ReplicatedIntentJournal",
    "SiteRecovery",
    "RecoveryStage",
    "RecoveryReport",
    "WormService",
    "TenantConfig",
    "ServiceRequest",
    "ServiceResponse",
    "Problem",
    "PROTOCOL_VERSION",
    "OPERATIONS",
    "RetryPolicy",
    "FileIntentJournal",
    "MemoryIntentJournal",
    "CertificateAuthority",
    "SigningKey",
    "ScpuKeyring",
    "SecureCoprocessor",
    "Strength",
    "demo_keyring",
    "__version__",
]


def demo_keyring(strong_bits: int = 512, weak_bits: int = 512) -> ScpuKeyring:
    """A fast-to-generate SCPU keyring for examples and tests.

    Production deployments use the default 1024-bit strong keys; the
    512-bit strong keys here keep example start-up instant while
    exercising identical code paths.
    """
    from repro.crypto.hmac_scheme import HmacScheme

    return ScpuKeyring(
        s_key=SigningKey.generate(strong_bits, role="s"),
        d_key=SigningKey.generate(strong_bits, role="d"),
        burst_key=SigningKey.generate(weak_bits, role="burst"),
        hmac=HmacScheme(),
    )
