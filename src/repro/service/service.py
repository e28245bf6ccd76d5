"""The multi-tenant compliance service front-end.

:class:`WormService` wraps one :class:`~repro.core.sharded.ShardedWormStore`
behind the versioned contract of :mod:`repro.service.contract`.  It is
transport-agnostic: ``handle(request) -> response`` is the whole surface,
and the JSON-lines ``serve`` CLI, the tenant benchmark, and the contract
tests all drive the same method.

Admission control (per tenant, DESIGN §10):

1. **accept** — the tenant's token bucket has capacity: the write
   commits immediately (``store.write``), answer 201 with the durable
   scoped locator.
2. **defer** — the bucket is empty but the tenant's deferred backlog
   has room: the write is admitted into the store's group-commit
   machinery (``store.submit`` with a correlation tag), answer 202
   with a redemption ticket.  Nothing is dropped: the record is
   journalled (when a journal is attached) and becomes durable at the
   next group commit or :meth:`WormService.flush`.
3. **reject** — the backlog is at its cap: answer 429 ``backlog-full``
   with ``Retry-After``.  This is the only refusal of a well-formed
   write, and it happens *before* the store sees the record.

Reads and management operations cost one bucket token and answer 429
``rate-limited`` when the bucket is empty (they have no deferred path);
``health`` is exempt so monitoring keeps working during overload.

Tamper trips always escalate: the service never converts
:class:`~repro.core.errors.TamperedError` into a problem payload.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.audit import StoreAuditor
from repro.core.errors import (
    CrashError,
    MissingRecordError,
    TamperedError,
    WormError,
)
from repro.core.locator import RecordLocator
from repro.core.sharded import ShardedWormStore, ShardedWriteReceipt
from repro.service.contract import (
    OPERATIONS,
    PROTOCOL_VERSION,
    ServiceRequest,
    ServiceResponse,
)
from repro.service.problems import (
    BacklogFullError,
    BadRequestError,
    PolicyForbiddenError,
    QuotaExceededError,
    RateLimitedError,
    SiteRecoveringError,
    TenantIsolationError,
    UnknownOperationError,
    UnknownTenantError,
    UnknownTicketError,
    UnsupportedVersionError,
    problem_from_error,
)
from repro.service.ratelimit import TokenBucket, ratelimit_headers
from repro.service.tenants import DeferredTicket, TenantConfig, TenantState

__all__ = ["WormService"]

#: Per-tenant :class:`TenantState` fields the telemetry bus reads as
#: ``service.tenant.<name>.<suffix>`` (registered up front, so renames
#: fail the schema gate in CI).
TENANT_COUNTERS = ("requests", "accepted", "deferred", "redeemed", "rejected")

_SERVICE_COUNTERS = ("service.requests", "service.accepted",
                     "service.deferred", "service.redeemed",
                     "service.rejected", "service.reads")

#: Write parameters a request may set; everything else in params is the
#: operation's own business (payloads, locators, tickets, credentials).
_WRITE_KWARG_KEYS = ("policy", "retention_seconds", "strength")


class WormService:
    """Versioned, rate-limited, multi-tenant facade over a sharded store.

    *ca* (or a prebuilt *client*) enables the verifying operations
    (``read_verified``, ``audit``); without one those answer 400.
    Virtual time comes from the store's SCPU clock — the service never
    reads a wall clock (wormlint W002).
    """

    #: Retry-After (virtual seconds) answered while the site recovers.
    RECOVERY_RETRY_AFTER = 30.0

    def __init__(self, store: ShardedWormStore,
                 tenants: Iterable[Union[TenantConfig, str]] = (),
                 ca=None, client=None) -> None:
        self._store = store
        self.obs = store.obs
        # old packed locator -> new packed locator, grown by promote():
        # locators handed out before a disaster keep resolving after it.
        self._locator_aliases: Dict[str, str] = {}
        self._client = (client if client is not None
                        else store.make_client(ca) if ca is not None
                        else None)
        self._tenants: Dict[str, TenantState] = {}
        self._ticket_seq = 0
        # Traffic that fails tenant resolution still gets honest
        # RateLimit headers, drawn from one small shared bucket.
        self._anon_bucket = TokenBucket(rate=1.0, burst=8)
        if self.obs.enabled:
            for name in _SERVICE_COUNTERS:
                self.obs.declare_counter(name)
            self.obs.declare_histogram("service.defer_wait_seconds")
        self._handlers = {
            "write": self._op_write,
            "write_batch": self._op_write_batch,
            "read": self._op_read,
            "read_verified": self._op_read_verified,
            "expire": self._op_expire,
            "hold": self._op_hold,
            "audit": self._op_audit,
            "health": self._op_health,
            "redeem": self._op_redeem,
        }
        assert set(self._handlers) == set(OPERATIONS)
        for tenant in tenants:
            self.add_tenant(tenant)

    # ------------------------------------------------------------ provisioning

    @property
    def now(self) -> float:
        """Virtual time (the store's SCPU clock)."""
        return self._store.now

    @property
    def store(self) -> ShardedWormStore:
        return self._store

    @property
    def tenants(self) -> Mapping[str, TenantState]:
        return dict(self._tenants)

    def add_tenant(self, config: Union[TenantConfig, str]) -> TenantState:
        """Provision a tenant (by config, or by name with defaults)."""
        if isinstance(config, str):
            config = TenantConfig(name=config)
        if config.name in self._tenants:
            raise ValueError(f"tenant {config.name!r} already provisioned")
        state = TenantState(config=config)
        self._tenants[config.name] = state
        for suffix in TENANT_COUNTERS:
            self.obs.register_counter(
                f"service.tenant.{config.name}.{suffix}",
                partial(getattr, state, suffix))
        return state

    def tenant(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            raise UnknownTenantError(f"tenant {name!r} is not provisioned")
        return state

    # ---------------------------------------------------------------- request

    def handle(self, request: ServiceRequest) -> ServiceResponse:
        """Serve one request; every outcome is a :class:`ServiceResponse`.

        Only :class:`TamperedError` (compliance escalation, W004) and
        the fault harness's :class:`CrashError` propagate; every other
        failure becomes an RFC 9457 problem with a stable code.
        """
        self.obs.inc("service.requests")
        now = self.now
        state: Optional[TenantState] = None
        try:
            if request.version != PROTOCOL_VERSION:
                raise UnsupportedVersionError(
                    f"protocol version {request.version} is not served "
                    f"(this process speaks version {PROTOCOL_VERSION})")
            if request.operation not in OPERATIONS:
                raise UnknownOperationError(
                    f"unknown operation {request.operation!r}")
            state = self._tenants.get(request.tenant)
            if state is None:
                raise UnknownTenantError(
                    f"tenant {request.tenant!r} is not provisioned")
            state.requests += 1
            status, body = self._handlers[request.operation](
                state, dict(request.params), now)
        except TamperedError:
            raise  # tamper outranks serving traffic: escalate, never a payload
        except CrashError:
            raise  # fault harness only; the "process" died mid-request
        except WormError as exc:
            return self._problem_response(exc, state, request, now)
        except (ValueError, TypeError) as exc:
            return self._problem_response(
                BadRequestError(str(exc)), state, request, now)
        return ServiceResponse(status=status,
                               headers=self._headers(state, now),
                               body=body,
                               request_id=request.request_id)

    def _problem_response(self, exc: WormError,
                          state: Optional[TenantState],
                          request: ServiceRequest,
                          now: float) -> ServiceResponse:
        problem = problem_from_error(exc, instance=request.request_id)
        retry_after = None
        if problem.status == 429:
            retry_after = float(getattr(exc, "retry_after", 1.0))
        elif problem.status == 503:
            # Recovery / replication refusals carry their own horizon;
            # plain infrastructure 503s leave the client to its backoff.
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                retry_after = float(hint)
        self.obs.inc("service.rejected")
        if state is not None:
            state.rejected += 1
        return ServiceResponse(status=problem.status,
                               headers=self._headers(state, now, retry_after),
                               problem=problem,
                               request_id=request.request_id)

    def _headers(self, state: Optional[TenantState], now: float,
                 retry_after: Optional[float] = None) -> Dict[str, str]:
        bucket = state.bucket if state is not None else self._anon_bucket
        return ratelimit_headers(bucket, now, retry_after)

    # ------------------------------------------------------- locator scoping

    def _scope(self, state: TenantState, packed: str) -> str:
        return f"{state.config.name}/{packed}"

    def _unscope(self, state: TenantState, value: object) -> RecordLocator:
        """Parse a scoped locator and enforce the tenant boundary."""
        if isinstance(value, RecordLocator):  # in-process courtesy
            value = self._scope(state, value.pack())
        if not isinstance(value, str):
            raise BadRequestError(
                "a locator is a string '<tenant>/<shard:sn[:index]>'")
        prefix, sep, packed = value.partition("/")
        if not sep:
            raise BadRequestError(
                f"locator {value!r} lacks its '<tenant>/' namespace prefix")
        if prefix != state.config.name:
            raise TenantIsolationError(
                f"locator {value!r} is outside tenant "
                f"{state.config.name!r}'s namespace")
        resolved = RecordLocator.unpack(packed)
        canonical = resolved.pack()
        if canonical not in state.owned:
            # A locator issued before a disaster: promote() recorded the
            # old -> new mapping, so pre-recovery handles keep resolving.
            alias = self._locator_aliases.get(canonical)
            if alias is not None and alias in state.owned:
                resolved = RecordLocator.unpack(alias)
                canonical = alias
        if canonical not in state.owned:
            # 404-shaped on purpose: existence in someone else's
            # namespace is itself confidential.
            raise TenantIsolationError(
                f"no record {value!r} in tenant "
                f"{state.config.name!r}'s namespace")
        return resolved

    # --------------------------------------------------------------- admission

    def _require_active_site(self) -> None:
        """Refuse mutations while a recovery pass owns the store.

        Reads are deliberately exempt: the recovering site serves
        verifiable reads as soon as VERIFY has passed, which is the
        whole point of staged recovery.
        """
        if getattr(self._store, "recovering", False):
            raise SiteRecoveringError(
                "this site is being rebuilt from its replica; writes "
                "resume once the replicated journal has drained",
                retry_after=self.RECOVERY_RETRY_AFTER)

    def _take_token(self, state: TenantState, now: float) -> None:
        if not state.bucket.try_acquire(now):
            raise RateLimitedError(
                f"tenant {state.config.name!r} is over its rate limit",
                retry_after=state.bucket.retry_after(now))

    def _write_kwargs(self, params: Mapping[str, object]) -> Dict[str, object]:
        kwargs = {key: params[key] for key in _WRITE_KWARG_KEYS
                  if params.get(key) is not None}
        policy = kwargs.setdefault("policy", "default")
        if not isinstance(policy, str):
            raise BadRequestError("'policy' must be a policy name string")
        return kwargs

    def _check_policy(self, state: TenantState, policy: str) -> None:
        allowed = state.config.allowed_policies
        if allowed is not None and policy not in allowed:
            raise PolicyForbiddenError(
                f"tenant {state.config.name!r} is not provisioned for "
                f"policy {policy!r} (allowed: {sorted(allowed)})")

    def _admit_writes(self, state: TenantState, n: int, now: float) -> str:
        """accept | defer, or raise the 429 ``backlog-full`` refusal."""
        if not state.quota_headroom(n):
            raise QuotaExceededError(
                f"tenant {state.config.name!r} would exceed its quota of "
                f"{state.config.quota_records} records")
        if state.bucket.try_acquire(now, n):
            return "accept"
        if state.pending_deferred + n <= state.config.max_deferred:
            return "defer"
        raise BacklogFullError(
            f"tenant {state.config.name!r} has "
            f"{state.pending_deferred} deferred writes outstanding "
            f"(cap {state.config.max_deferred})",
            retry_after=state.bucket.retry_after(now, n))

    def _defer(self, state: TenantState, payloads: List[bytes],
               kwargs: Dict[str, object], now: float) -> List[str]:
        """Queue *payloads* as one journalled batch; one ticket each."""
        tickets = []
        for _ in payloads:
            self._ticket_seq += 1
            ticket = f"{state.config.name}-t{self._ticket_seq}"
            state.tickets[ticket] = DeferredTicket(ticket=ticket,
                                                   submitted_at=now)
            tickets.append(ticket)
        state.deferred += len(payloads)
        self.obs.inc("service.deferred", len(payloads))
        self._store.submit_many(
            payloads, [(state.config.name, ticket) for ticket in tickets],
            **kwargs)
        self._pump()  # the submit may have auto-flushed full groups
        return tickets

    # -------------------------------------------------------------- operations

    @staticmethod
    def _require_payload(value: object) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise BadRequestError("record payloads are bytes")
        return bytes(value)

    def _op_write(self, state: TenantState, params: Dict[str, object],
                  now: float) -> Tuple[int, Dict[str, object]]:
        self._require_active_site()
        payload = self._require_payload(params.get("payload"))
        kwargs = self._write_kwargs(params)
        self._check_policy(state, kwargs["policy"])
        if self._admit_writes(state, 1, now) == "accept":
            receipt = self._store.write([payload], **kwargs)
            packed = receipt.locator.pack()
            state.owned.add(packed)
            state.accepted += 1
            self.obs.inc("service.accepted")
            return 201, {"locator": self._scope(state, packed),
                         "sn": receipt.locator.sn,
                         "shard": receipt.locator.shard_id}
        ticket = self._defer(state, [payload], kwargs, now)[0]
        return 202, {"ticket": ticket, "state": "pending"}

    def _op_write_batch(self, state: TenantState, params: Dict[str, object],
                        now: float) -> Tuple[int, Dict[str, object]]:
        self._require_active_site()
        payloads = params.get("payloads")
        if not isinstance(payloads, (list, tuple)) or not payloads:
            raise BadRequestError(
                "write_batch needs a non-empty 'payloads' list")
        payloads = [self._require_payload(p) for p in payloads]
        kwargs = self._write_kwargs(params)
        self._check_policy(state, kwargs["policy"])
        if self._admit_writes(state, len(payloads), now) == "accept":
            receipts = self._store.write_batch(payloads, **kwargs)
            locators = []
            for receipt in receipts:
                packed = receipt.locator.pack()
                state.owned.add(packed)
                locators.append(self._scope(state, packed))
            state.accepted += len(receipts)
            self.obs.inc("service.accepted", len(receipts))
            return 201, {"locators": locators}
        tickets = self._defer(state, payloads, kwargs, now)
        return 202, {"tickets": tickets, "state": "pending"}

    def _op_read(self, state: TenantState, params: Dict[str, object],
                 now: float) -> Tuple[int, Dict[str, object]]:
        self._take_token(state, now)
        resolved = self._unscope(state, params.get("locator"))
        self.obs.inc("service.reads")
        result = self._store.read(resolved, proven=False)
        if result.status != "active":
            raise MissingRecordError(
                f"record {self._scope(state, resolved.pack())} "
                f"is {result.status}")
        return 200, {"payload": result.records[0], "status": result.status}

    def _require_client(self):
        if self._client is None:
            raise BadRequestError(
                "this service has no verifying client; construct "
                "WormService(..., ca=...) to enable read_verified/audit")
        return self._client

    def _op_read_verified(self, state: TenantState,
                          params: Dict[str, object],
                          now: float) -> Tuple[int, Dict[str, object]]:
        client = self._require_client()
        self._take_token(state, now)
        resolved = self._unscope(state, params.get("locator"))
        self.obs.inc("service.reads")
        verified = client.verify_read(self._store.read(resolved), resolved)
        if verified.status != "active":
            raise MissingRecordError(
                f"record {self._scope(state, resolved.pack())} "
                f"is {verified.status}")
        return 200, {"payload": verified.data,
                     "status": verified.status,
                     "proof_kind": verified.proof_kind,
                     "weakly_signed": verified.weakly_signed}

    def _op_expire(self, state: TenantState, params: Dict[str, object],
                   now: float) -> Tuple[int, Dict[str, object]]:
        self._require_active_site()
        self._take_token(state, now)
        resolved = self._unscope(state, params.get("locator"))
        outcome = self._store.expire_record(resolved, now=now)
        return 200, {"outcome": outcome}

    def _op_hold(self, state: TenantState, params: Dict[str, object],
                 now: float) -> Tuple[int, Dict[str, object]]:
        self._require_active_site()
        self._take_token(state, now)
        resolved = self._unscope(state, params.get("locator"))
        credential = params.get("credential")
        if credential is None:
            raise BadRequestError(
                "hold needs the regulator's signed 'credential'")
        shard = self._store.shard(resolved.shard_id)
        if params.get("release"):
            shard.lit_release(resolved.sn, credential)
            return 200, {"released": True}
        hold_until = params.get("hold_until")
        if not isinstance(hold_until, (int, float)):
            raise BadRequestError("hold needs a numeric 'hold_until'")
        shard.lit_hold(resolved.sn, credential, float(hold_until))
        return 200, {"held": True, "hold_until": float(hold_until)}

    def _op_audit(self, state: TenantState, params: Dict[str, object],
                  now: float) -> Tuple[int, Dict[str, object]]:
        client = self._require_client()
        self._take_token(state, now)
        shards = []
        clean = True
        for shard_id, shard in enumerate(self._store):
            report = StoreAuditor(shard, client).sweep()
            clean = clean and report.clean
            shards.append({"shard_id": shard_id, **report.summary()})
        return 200, {"clean": clean,
                     "auth_scheme": self._store.config.auth_scheme,
                     "shards": shards}

    def _op_health(self, state: TenantState, params: Dict[str, object],
                   now: float) -> Tuple[int, Dict[str, object]]:
        # Deliberately free of rate limiting: monitoring must keep
        # working during exactly the overload it is watching.
        return 200, {"protocol_version": PROTOCOL_VERSION,
                     "tenants": self.stats(),
                     "store": self._store.health_report()}

    def _op_redeem(self, state: TenantState, params: Dict[str, object],
                   now: float) -> Tuple[int, Dict[str, object]]:
        self._take_token(state, now)
        ticket = params.get("ticket")
        if not isinstance(ticket, str):
            raise BadRequestError("redeem needs a string 'ticket'")
        self._pump()
        entry = state.tickets.get(ticket)
        if entry is None:
            raise UnknownTicketError(
                f"ticket {ticket!r} was not issued to tenant "
                f"{state.config.name!r} (tickets do not survive restarts)")
        if entry.durable:
            return 200, {"ticket": ticket, "state": "durable",
                         "locator": self._scope(state, entry.packed_locator)}
        return 202, {"ticket": ticket, "state": "pending"}

    # ----------------------------------------------------- deferred machinery

    def flush(self) -> List[ShardedWriteReceipt]:
        """Force-commit every pending group, then resolve tickets."""
        receipts = self._store.flush()
        self._pump()
        return receipts

    def _pump(self) -> None:
        """File freshly-committed tagged receipts into tenant state."""
        for tag, receipt in self._store.take_tagged_receipts().items():
            self._file_tagged(tag, receipt)

    def _file_tagged(self, tag: object,
                     receipt: ShardedWriteReceipt) -> None:
        """Resolve one committed ``(tenant, ticket)`` tag to its locator.

        Tags outside the service's shape (e.g. the recovery pass's own
        ``__recovery__`` handles, or tenants never provisioned here)
        are ignored — their receipts still exist in the store.
        """
        if not (isinstance(tag, tuple) and len(tag) == 2):
            return
        tenant, ticket = tag
        state = self._tenants.get(tenant)
        if state is None:
            return
        packed = receipt.locator.pack()
        state.owned.add(packed)
        entry = state.tickets.get(ticket)
        if entry is None or entry.durable:
            return
        entry.packed_locator = packed
        state.redeemed += 1
        self.obs.inc("service.redeemed")
        self.obs.observe("service.defer_wait_seconds",
                         max(0.0, self.now - entry.submitted_at))

    # ------------------------------------------------------ disaster failback

    def promote(self, new_store: ShardedWormStore, report) -> None:
        """Fail the service over to a freshly recovered store.

        *report* is the :class:`repro.recovery.RecoveryReport` of the
        completed recovery pass.  Tenant state survives the disaster:
        owned locators and redeemed tickets are remapped through the
        report's old→new locator mapping (old handles keep resolving
        via aliases), and journal entries that re-committed under
        their original ``(tenant, ticket)`` tags resolve their still
        pending tickets — a deferred write acknowledged by the dead
        site redeems on the new one.
        """
        mapping: Dict[str, str] = dict(report.locator_mapping)
        self._store = new_store
        for state in self._tenants.values():
            state.owned = {mapping.get(packed, packed)
                           for packed in state.owned}
            for entry in state.tickets.values():
                if entry.packed_locator is not None:
                    entry.packed_locator = mapping.get(
                        entry.packed_locator, entry.packed_locator)
        self._locator_aliases.update(mapping)
        for tag, receipt in report.tagged_receipts.items():
            self._file_tagged(tag, receipt)
        self._pump()  # anything the new store committed since RESUME

    # ------------------------------------------------------------- accounting

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant accounting summary (JSON-safe)."""
        now = self.now
        return {
            name: {
                "durable_records": state.durable_records,
                "pending_deferred": state.pending_deferred,
                "requests": state.requests,
                "accepted": state.accepted,
                "deferred": state.deferred,
                "redeemed": state.redeemed,
                "rejected": state.rejected,
                "tokens_remaining": state.bucket.remaining(now),
            }
            for name, state in self._tenants.items()
        }

    def reconcile(self) -> List[str]:
        """Cross-check tenant accounting against receipts.

        Returns human-readable discrepancy strings (empty = clean):

        * every accepted or redeemed write has exactly one owned
          durable locator;
        * every deferral was either redeemed or is still pending.
        """
        problems: List[str] = []
        for name, state in self._tenants.items():
            durable = len(state.owned)
            expected = state.accepted + state.redeemed
            if durable != expected:
                problems.append(
                    f"tenant {name}: {durable} durable locators but "
                    f"{state.accepted} accepted + {state.redeemed} "
                    f"redeemed writes")
            if state.deferred != state.redeemed + state.pending_deferred:
                problems.append(
                    f"tenant {name}: {state.deferred} deferrals != "
                    f"{state.redeemed} redeemed + "
                    f"{state.pending_deferred} pending")
        return problems
