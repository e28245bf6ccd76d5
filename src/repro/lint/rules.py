"""The six wormlint domain rules (W001–W006).

Each rule encodes one invariant from the paper's security argument that
Python's type system cannot enforce.  The checkers are syntactic — they
reason about names and shapes, not values — so each rule documents the
*naming conventions* it leans on; code that steps outside a convention
for a sanctioned reason carries a ``wormlint: disable=W00x`` comment
explaining why, which is exactly the audit trail we want.

Conventions the rules rely on:

* the raw SCPU device is always reachable as a ``scpu`` attribute or
  local (``store.scpu``, ``self.scpu``); retry-wrapped views live in
  underscore-prefixed slots (``_scpu_rt``, ``_scpu``) — see
  :class:`~repro.core.retry.RetryingScpu`;
* the untrusted block store is a ``blocks`` / ``block_store`` attribute;
* the strengthening queue is a ``strengthening`` attribute with an
  ``enqueue`` method.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Checker, Finding, ModuleContext, register

__all__ = [
    "TrustDomainChecker",
    "VirtualTimeChecker",
    "RetryBoundaryChecker",
    "TamperTerminalChecker",
    "TaxonomyChecker",
    "LaunderingChecker",
]


# ---------------------------------------------------------------- AST helpers

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last segment of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _exception_names(handler_type: Optional[ast.AST]) -> List[str]:
    """Terminal class names an ``except`` clause catches ([] = bare)."""
    if handler_type is None:
        return []
    nodes = (handler_type.elts if isinstance(handler_type, ast.Tuple)
             else [handler_type])
    names = []
    for node in nodes:
        name = terminal_name(node)
        if name is not None:
            names.append(name)
    return names


# --------------------------------------------------------- W001 trust domain

#: Receiver names that denote the SCPU trust domain or its key store.
#: ``scpu`` is the raw device by convention; the wrapped views are
#: included because reaching *their* privates launders the same boundary.
_SCPU_RECEIVERS = frozenset(
    {"scpu", "_scpu", "scpu_rt", "_scpu_rt", "keyring", "keystore"})

#: Enclosure-only accumulator machinery: the class that carries the
#: factorisation trapdoor, and the attribute the trapdoor lives in.
#: Referencing either outside the enclosure (or the primitive's home
#: module) means host code could compute witnesses without the card —
#: the exact capability the accumulator scheme's trust story forbids.
_TRAPDOOR_NAMES = frozenset({"TrapdoorAccumulator"})
_TRAPDOOR_ATTRS = frozenset({"_phi"})
_TRAPDOOR_HOME_MODULE = "repro/crypto/accumulator.py"


@register
class TrustDomainChecker(Checker):
    """W001: SCPU internals stay inside ``repro.hardware``.

    The SCPU is a separate *trust domain* (PAPER.md §3): host-side code
    that reads a card's private state — key material, serial counters,
    the tamper latch's internals — is modelling an attack, not an API.
    Outside ``repro.hardware``, every SCPU interaction goes through the
    :class:`~repro.hardware.device.ScpuLike` service surface; private
    attribute access on an SCPU-typed receiver is flagged.

    The same boundary confines the RSA-accumulator trapdoor: any
    reference to :class:`~repro.crypto.accumulator.TrapdoorAccumulator`
    (or its ``_phi`` trapdoor attribute) outside ``repro.hardware`` and
    the primitive's home module is flagged — host-side code must use the
    trapdoor-free surface (``hash_to_prime``, ``verify_membership``,
    ``WitnessDirectory``) and reach the trapdoor only through the
    ``accumulator_*`` ScpuLike service calls.
    """

    rule = "W001"
    title = "trust-domain"
    rationale = ("host code must not reach into SCPU/key-store internals "
                 "or the accumulator trapdoor; program against the "
                 "ScpuLike surface")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_package("repro/hardware/"):
            return
        trapdoor_ok = ctx.is_module(_TRAPDOOR_HOME_MODULE)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and not trapdoor_ok:
                for alias in node.names:
                    if alias.name in _TRAPDOOR_NAMES:
                        yield ctx.finding(
                            self.rule, node,
                            f"import of '{alias.name}' outside "
                            "repro.hardware — the accumulator trapdoor "
                            "lives inside the enclosure; use the "
                            "accumulator_* ScpuLike service calls or the "
                            "trapdoor-free directory/verification surface")
                continue
            if isinstance(node, ast.Name) and not trapdoor_ok:
                if node.id in _TRAPDOOR_NAMES:
                    yield ctx.finding(
                        self.rule, node,
                        f"reference to '{node.id}' outside repro.hardware — "
                        "the accumulator trapdoor lives inside the "
                        "enclosure; use the accumulator_* ScpuLike service "
                        "calls or the trapdoor-free surface")
                continue
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not trapdoor_ok and (attr in _TRAPDOOR_NAMES
                                    or attr in _TRAPDOOR_ATTRS):
                yield ctx.finding(
                    self.rule, node,
                    f"access to accumulator-trapdoor internal '.{attr}' "
                    "outside repro.hardware — the trapdoor never leaves "
                    "the enclosure")
                continue
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            receiver = terminal_name(node.value)
            if receiver in _SCPU_RECEIVERS:
                yield ctx.finding(
                    self.rule, node,
                    f"access to SCPU/key-store internal '{receiver}.{attr}' "
                    "outside repro.hardware — use the ScpuLike service "
                    "surface (the SCPU is a separate trust domain)")


# --------------------------------------------------------- W002 virtual time

#: time-module functions that read the wall clock.
_TIME_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})
#: time-module functions that read the clock only when called with no
#: argument (``time.ctime()`` vs the deterministic ``time.ctime(stamp)``).
_TIME_IMPLICIT_FUNCS = frozenset({"ctime", "localtime", "gmtime", "asctime",
                                  "strftime"})
#: datetime constructors that read the wall clock.
_DATETIME_NOW_FUNCS = frozenset({"now", "utcnow", "today"})

#: The only modules allowed to touch the wall clock: the clock sources
#: themselves (SystemClock for the CLI's persistent stores, the SCPU's
#: battery-backed clock is modelled there too).
_W002_ALLOWED = frozenset({"repro/sim/clock.py"})


@register
class VirtualTimeChecker(Checker):
    """W002: results are reproducible in *virtual* time.

    Every throughput figure and every retention/freshness decision in
    this reproduction is defined in virtual time so runs are
    deterministic (PAPER.md §5 measures in modelled device time).  A
    stray ``time.time()`` makes a signature timestamp, report, or
    backoff depend on the machine running the tests.  Only the clock
    sources in ``repro.sim.clock`` may read the wall clock; everything
    else takes a clock object.
    """

    rule = "W002"
    title = "virtual-time"
    rationale = ("wall-clock reads outside repro.sim.clock break "
                 "run-to-run determinism; thread the virtual clock")
    wants_project = True   # resolves cross-module re-exports when available

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.package_path in _W002_ALLOWED:
            return
        time_aliases, datetime_aliases, from_imports = self._imports(ctx.tree)
        resolver = self._project_resolver(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = self._check_call(ctx, node, time_aliases,
                                       datetime_aliases, from_imports)
            if finding is None and resolver is not None:
                finding = self._check_resolved_call(ctx, node, resolver)
            if finding is not None:
                yield finding

    @staticmethod
    def _imports(tree: ast.Module) -> Tuple[Set[str], Set[str], Set[str]]:
        time_aliases: Set[str] = set()
        datetime_aliases: Set[str] = set()
        from_imports: Set[str] = set()   # bare names bound to clock readers
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_aliases.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_CLOCK_FUNCS:
                            from_imports.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name == "datetime":
                            datetime_aliases.add(alias.asname or alias.name)
        # Assignment aliases: ``clock = time`` / ``now = time.time`` re-bind
        # the wall clock under a new name without any import to spot.
        # Top-level statement order is respected so chained aliases
        # (``t = time`` then ``now = t.time``) resolve too.
        for node in tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            value = dotted_name(node.value)
            if value is None:
                continue
            head, _, attr = value.partition(".")
            if not attr and head in time_aliases:
                time_aliases.add(target)
            elif not attr and head in datetime_aliases:
                datetime_aliases.add(target)
            elif not attr and head in from_imports:
                from_imports.add(target)
            elif attr and head in time_aliases and attr in _TIME_CLOCK_FUNCS:
                from_imports.add(target)
        return time_aliases, datetime_aliases, from_imports

    def _project_resolver(self, ctx: ModuleContext):
        """Symbol resolution through the ProjectModel, in project mode.

        Catches the cross-module form of alias blindness: a helper module
        re-exporting ``now = time.time`` (or ``from time import time as
        now``) and a consumer importing *that* — neither file alone shows
        a time import plus a call.
        """
        if self.project is None or ctx.package_path is None:
            return None
        from repro.lint.project import module_name_for
        module = module_name_for(ctx.package_path)
        if module not in self.project.symbols:
            return None
        return lambda dotted: self.project.resolve(module, dotted)

    def _check_resolved_call(self, ctx: ModuleContext, node: ast.Call,
                             resolver) -> Optional[Finding]:
        chain = dotted_name(node.func)
        if chain is None:
            return None
        resolved = resolver(chain)
        if resolved is None or resolved == chain:
            return None
        parts = resolved.split(".")
        if parts[0] == "time" and len(parts) == 2 \
                and parts[1] in _TIME_CLOCK_FUNCS:
            return ctx.finding(
                self.rule, node,
                f"wall-clock call '{chain}()' resolves to '{resolved}' — "
                "take the virtual clock instead (only repro.sim.clock "
                "reads real time)")
        if parts[0] == "datetime" and parts[-1] in _DATETIME_NOW_FUNCS:
            return ctx.finding(
                self.rule, node,
                f"wall-clock call '{chain}()' resolves to '{resolved}' — "
                "take the virtual clock instead")
        return None

    def _check_call(self, ctx: ModuleContext, node: ast.Call,
                    time_aliases: Set[str], datetime_aliases: Set[str],
                    from_imports: Set[str]) -> Optional[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in from_imports:
            return ctx.finding(
                self.rule, node,
                f"wall-clock call '{func.id}()' — take the virtual clock "
                "instead (only repro.sim.clock reads real time)")
        if not isinstance(func, ast.Attribute):
            return None
        receiver = terminal_name(func.value)
        root = dotted_name(func.value)
        if receiver in time_aliases and root == receiver:
            if func.attr in _TIME_CLOCK_FUNCS:
                return ctx.finding(
                    self.rule, node,
                    f"wall-clock call '{receiver}.{func.attr}()' — take the "
                    "virtual clock instead (only repro.sim.clock reads "
                    "real time)")
            if (func.attr in _TIME_IMPLICIT_FUNCS
                    and not node.args and not node.keywords):
                return ctx.finding(
                    self.rule, node,
                    f"'{receiver}.{func.attr}()' with no argument reads the "
                    "wall clock — pass an explicit timestamp")
        if func.attr in _DATETIME_NOW_FUNCS:
            # datetime.now() / datetime.datetime.now() / dt.utcnow() …
            chain = dotted_name(func.value)
            if chain is not None and (
                    chain.split(".")[0] in datetime_aliases
                    or chain in datetime_aliases):
                return ctx.finding(
                    self.rule, node,
                    f"wall-clock call '{chain}.{func.attr}()' — take the "
                    "virtual clock instead")
        return None


# ------------------------------------------------------- W003 retry boundary

def _faultable_ops() -> Tuple[frozenset, frozenset]:
    """The SCPU / block-store service surfaces worth retrying.

    The SCPU side is the card's own op table plus the singular
    batch-of-one helpers, so the lint rule, the pool and the fault and
    retry wrappers can never disagree about what the trust-boundary
    surface *is*.
    """
    from repro.faults.wrappers import BLOCK_FAULTABLE_OPS
    from repro.hardware.scpu import CARD_OPS, BatchOfOne
    singular = (name for name in vars(BatchOfOne) if not name.startswith("_"))
    return frozenset(CARD_OPS).union(singular), frozenset(BLOCK_FAULTABLE_OPS)


_BLOCK_RECEIVERS = frozenset({"blocks", "block_store"})


@register
class RetryBoundaryChecker(Checker):
    """W003: ``repro.core`` reaches devices through the retry layer.

    The SCPU is a card on a bus and the block store is remote media —
    requests get dropped.  PR 2 routed every trust-boundary call in the
    store through :class:`~repro.core.retry.RetryExecutor` so transient
    faults are retried with virtual-time backoff and tamper trips
    escalate exactly once.  A *raw* service call (``x.scpu.op(...)`` or
    ``x.blocks.op(...)``) inside ``repro.core`` dodges that policy: one
    bus glitch becomes a user-visible failure, and retry statistics lie.
    """

    rule = "W003"
    title = "retry-boundary"
    rationale = ("SCPU/block-store service calls in repro.core must go "
                 "through repro.core.retry (RetryingScpu / retry.call)")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package("repro/core/"):
            return
        if ctx.is_module("repro/core/retry.py"):
            return  # the wrapper itself
        scpu_ops, block_ops = _faultable_ops()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = terminal_name(func.value)
            if receiver == "scpu" and func.attr in scpu_ops:
                yield ctx.finding(
                    self.rule, node,
                    f"raw SCPU service call '.scpu.{func.attr}(...)' in "
                    "repro.core — route it through the RetryingScpu view "
                    "(store.scpu_rt) or retry.call(...)")
            elif receiver in _BLOCK_RECEIVERS and func.attr in block_ops:
                yield ctx.finding(
                    self.rule, node,
                    f"raw block-store call '.{receiver}.{func.attr}(...)' in "
                    "repro.core — route it through retry.call("
                    f"\"block_store.{func.attr}\", ...)")


# ------------------------------------------------------ W004 tamper terminal

#: Exception classes whose handlers can absorb a TamperedError.
#: WormError is TamperedError's base, so catching it is just as broad.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException", "WormError"})


@register
class TamperTerminalChecker(Checker):
    """W004: tamper trips are terminal — no handler may swallow them.

    A zeroized card yields nothing, ever (the paper's fail-safe): code
    that catches :class:`~repro.core.errors.TamperedError` and carries
    on converts "the enclosure was breached" into a silent retry or a
    cosmetic warning.  Flagged:

    * an ``except`` naming ``TamperedError`` whose body does not
      re-raise;
    * a broad handler (bare ``except``, ``Exception``, ``BaseException``
      or ``WormError`` — the tamper error's own base) in package code,
      unless an earlier arm of the same ``try`` already catches
      ``TamperedError`` and re-raises, or the broad body re-raises.

    Sanctioned degraded-mode sites (the window manager's last-observed
    mirror, circuit-breaker bookkeeping) carry explicit suppressions —
    the point is that absorbing a tamper trip is *visible*, not easy.
    """

    rule = "W004"
    title = "tamper-terminal"
    rationale = ("TamperedError must escalate; catching it (incl. via "
                 "bare/Exception/WormError handlers) hides a breach")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        in_package = ctx.package_path is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            yield from self._check_try(ctx, node, in_package)

    def _check_try(self, ctx: ModuleContext, node: ast.Try,
                   in_package: bool) -> Iterator[Finding]:
        tamper_escalated = False
        for handler in node.handlers:
            names = _exception_names(handler.type)
            catches_tamper = "TamperedError" in names
            is_broad = (handler.type is None
                        or bool(_BROAD_EXCEPTIONS.intersection(names)))
            if catches_tamper:
                if self._reraises(handler):
                    tamper_escalated = True
                else:
                    yield ctx.finding(
                        self.rule, handler,
                        "handler catches TamperedError without re-raising — "
                        "tamper trips are terminal (a zeroized card never "
                        "serves again); escalate, don't absorb")
                continue
            if is_broad and in_package and not tamper_escalated:
                if self._reraises(handler):
                    tamper_escalated = True
                    continue
                caught = " / ".join(names) if names else "everything"
                yield ctx.finding(
                    self.rule, handler,
                    f"broad handler ({caught}) can swallow TamperedError — "
                    "add `except TamperedError: raise` before it, or "
                    "re-raise tamper trips inside")

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """Does the handler body (re-)raise unconditionally enough?

        Accepts a bare ``raise``, re-raising the bound name, or raising a
        (fresh) ``TamperedError`` anywhere in the handler body, including
        inside an ``if`` — a guarded ``if isinstance(exc, TamperedError):
        raise`` is the idiomatic escape hatch for broad handlers.
        """
        for inner in ast.walk(handler):
            if not isinstance(inner, ast.Raise):
                continue
            if inner.exc is None:
                return True
            if (isinstance(inner.exc, ast.Name)
                    and inner.exc.id == handler.name):
                return True
            target = inner.exc
            if isinstance(target, ast.Call):
                target = target.func
            if terminal_name(target) == "TamperedError":
                return True
        return False


# ------------------------------------------------------------- W005 taxonomy

def _worm_error_family() -> frozenset:
    """Every exception rooted at WormError, from the taxonomy module.

    Imported (not hard-coded) so adding an exception to
    ``repro.core.errors`` automatically teaches the lint about it.
    """
    from repro.core import errors
    return frozenset(errors.__all__)


#: Stdlib raises that stay legal: argument/state validation plus the
#: handful of protocol exceptions Python itself defines semantics for.
_STDLIB_ALLOWED = frozenset({
    "ValueError", "TypeError", "NotImplementedError", "AssertionError",
    "StopIteration", "SystemExit", "KeyboardInterrupt",
})


@register
class TaxonomyChecker(Checker):
    """W005: raises in ``src/repro`` are ``WormError``-rooted.

    Callers defend the whole WORM layer with one ``except WormError``
    clause; an ad-hoc ``RuntimeError`` slips through that net and an
    ad-hoc ``KeyError`` gets mistaken for a dict miss.  Allowed: the
    taxonomy of :mod:`repro.core.errors` (and local subclasses thereof),
    names imported from other ``repro`` modules (assumed rooted — the
    taxonomy module is where roots are audited), stdlib
    ``ValueError``/``TypeError`` for argument validation, and re-raises
    of caught variables.
    """

    rule = "W005"
    title = "taxonomy"
    rationale = ("raise WormError-rooted exceptions (or ValueError/"
                 "TypeError for argument validation) so `except "
                 "WormError` really covers the layer")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.package_path is None:
            return
        allowed = set(_worm_error_family()) | set(_STDLIB_ALLOWED)
        allowed |= self._repro_imported_errors(ctx.tree)
        allowed |= self._local_subclasses(ctx.tree, allowed)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._raised_class(node.exc)
            if name is None or name in allowed:
                continue
            yield ctx.finding(
                self.rule, node,
                f"raise of '{name}' outside the WormError taxonomy — root "
                "it at WormError (repro.core.errors) or use ValueError/"
                "TypeError for argument validation")

    @staticmethod
    def _raised_class(exc: ast.AST) -> Optional[str]:
        """Class name being raised, or None when unresolvable/a variable."""
        target = exc
        if isinstance(target, ast.Call):
            target = target.func
        name = terminal_name(target)
        if name is None:
            return None
        # Lowercase terminal → almost certainly a bound exception
        # variable (`raise last_exc`), which is a re-raise, not a choice
        # of taxonomy.
        if not name[:1].isupper():
            return None
        return name

    @staticmethod
    def _repro_imported_errors(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if bound.endswith("Error"):
                        names.add(bound)
        return names

    @staticmethod
    def _local_subclasses(tree: ast.Module, allowed: Set[str]) -> Set[str]:
        grown: Set[str] = set()
        # Two passes pick up subclass-of-a-local-subclass chains.
        for _ in range(2):
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = {terminal_name(base) for base in node.bases}
                if bases & (allowed | grown):
                    grown.add(node.name)
        return grown


# --------------------------------------------------------- W006 no laundering

@register
class LaunderingChecker(Checker):
    """W006: weak constructs must enter the strengthening queue.

    §4.3's deal: bursts may be witnessed with 512-bit signatures or
    HMACs **only because** idle periods strengthen them within the weak
    construct's security lifetime.  A code path that witnesses weakly
    and lets the result escape without enqueueing it for strengthening
    has laundered a burst signature into apparent full strength — the
    exact bug class PR 2 fixed in the flush path.  Inside ``repro.core``:

    * a function whose ``witness_write(...)`` call can produce a weak
      construct (``strength=`` anything but the literal
      ``Strength.STRONG``, or the ``Strength.WEAK``/``Strength.HMAC``
      literals) must also call ``strengthening.enqueue(...)`` (or
      ``hash_verification.enqueue`` for deferred hashes);
    * a public function must never ``return`` a ``witness_write(...)``
      result directly — there is no window left to enqueue it.
    """

    rule = "W006"
    title = "no-laundering"
    rationale = ("weak/burst witnessing must feed the strengthening "
                 "queue before results escape repro.core")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package("repro/core/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx: ModuleContext,
                        func: ast.AST) -> Iterator[Finding]:
        weak_calls = []
        enqueues = False
        returns_witness = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                if (isinstance(callee, ast.Attribute)
                        and callee.attr == "witness_write"
                        and self._weak_capable(node)):
                    weak_calls.append(node)
                if (isinstance(callee, ast.Attribute)
                        and callee.attr == "enqueue"
                        and terminal_name(callee.value) in
                        ("strengthening", "hash_verification")):
                    enqueues = True
            elif isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "witness_write"):
                        returns_witness.append(node)
        if weak_calls and not enqueues:
            for call in weak_calls:
                yield ctx.finding(
                    self.rule, call,
                    "weak-capable witness_write(...) without a matching "
                    "strengthening.enqueue(...) in this function — weak "
                    "constructs must be queued for strengthening (§4.3), "
                    "never laundered")
        if not func.name.startswith("_"):
            for ret in returns_witness:
                yield ctx.finding(
                    self.rule, ret,
                    "public API returns witness_write(...) output directly — "
                    "materialize it and route weak constructs through the "
                    "strengthening queue first")

    @staticmethod
    def _weak_capable(call: ast.Call) -> bool:
        """Can this witness_write call produce a weak/HMAC construct?"""
        for keyword in call.keywords:
            if keyword.arg == "strength":
                return dotted_name(keyword.value) != "Strength.STRONG"
        if len(call.args) >= 4:   # positional strength
            return dotted_name(call.args[3]) != "Strength.STRONG"
        return False   # omitted → defaults to STRONG
