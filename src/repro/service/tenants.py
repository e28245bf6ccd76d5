"""Tenant provisioning and per-tenant runtime state.

A tenant is a regulated customer of the shared store: it gets its own
token bucket (admission), its own deferred-write backlog cap, its own
durable-record quota, a restriction to the retention policies it is
provisioned for, and — crucially for compliance — an **isolated locator
space**: locators the service hands out are scoped ``<tenant>/<packed>``
and a tenant can never address (or even probe the existence of) another
tenant's records.

The split between the two classes mirrors the rest of the codebase:
:class:`TenantConfig` is a frozen declaration (like ``StoreConfig``),
:class:`TenantState` is the mutable runtime bookkeeping the service
keeps per tenant (bucket level, owned locators, outstanding tickets,
request counters).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.service.ratelimit import TokenBucket

__all__ = ["TenantConfig", "TenantState", "DeferredTicket"]

_TENANT_NAME = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True)
class TenantConfig:
    """Frozen provisioning record of one tenant.

    ``rate``/``burst`` parameterize the admission token bucket;
    ``max_deferred`` caps how many admitted-but-not-yet-durable writes
    may be outstanding before the service answers 429 ``backlog-full``;
    ``quota_records`` (None = unlimited) caps durable + in-flight
    records; ``allowed_policies`` (None = any registered policy)
    whitelists the retention policies this tenant may write under.
    """

    name: str
    rate: float = 100.0
    burst: int = 200
    max_deferred: int = 256
    quota_records: Optional[int] = None
    allowed_policies: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if not _TENANT_NAME.fullmatch(self.name):
            raise ValueError(
                f"tenant name {self.name!r} must be non-empty ASCII letters, "
                "digits and '_' (it prefixes scoped locators and names "
                "telemetry series)")
        if self.rate <= 0:
            raise ValueError("tenant rate must be positive")
        if self.burst < 1:
            raise ValueError("tenant burst must be at least 1")
        if self.max_deferred < 0:
            raise ValueError("max_deferred cannot be negative")
        if self.quota_records is not None and self.quota_records < 0:
            raise ValueError("quota_records cannot be negative")
        if self.allowed_policies is not None:
            object.__setattr__(self, "allowed_policies",
                               frozenset(self.allowed_policies))


@dataclass
class DeferredTicket:
    """One admitted-but-deferred write, redeemable once group-committed."""

    ticket: str
    submitted_at: float
    packed_locator: Optional[str] = None

    @property
    def durable(self) -> bool:
        return self.packed_locator is not None


@dataclass
class TenantState:
    """Mutable runtime state the service keeps for one tenant."""

    config: TenantConfig
    bucket: TokenBucket = field(init=False)
    #: Packed locators of this tenant's durable records (its namespace).
    owned: Set[str] = field(default_factory=set)
    #: Outstanding and redeemed deferral tickets, by ticket id.
    tickets: Dict[str, DeferredTicket] = field(default_factory=dict)
    #: Request counters (the telemetry bus reads them; see TENANT_COUNTERS).
    requests: int = 0
    accepted: int = 0
    deferred: int = 0
    redeemed: int = 0
    rejected: int = 0

    def __post_init__(self) -> None:
        self.bucket = TokenBucket(self.config.rate, self.config.burst)

    @property
    def pending_deferred(self) -> int:
        """Admitted writes not yet durable (backlog the cap applies to)."""
        return sum(1 for t in self.tickets.values() if not t.durable)

    @property
    def durable_records(self) -> int:
        return len(self.owned)

    def quota_headroom(self, n: int) -> bool:
        """Would *n* more records fit under the durable+in-flight quota?"""
        if self.config.quota_records is None:
            return True
        committed = len(self.owned) + self.pending_deferred
        return committed + n <= self.config.quota_records
