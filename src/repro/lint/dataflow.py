"""Trust-domain taint analysis over the project call graph (W007).

Strong WORM's chain of custody is one sentence long: *bytes from the
untrusted host side pass through a verifier before any trust decision*.
This module makes that sentence checkable.  It runs a small abstract
interpreter over every project function, tracking which local values are
**tainted** (derived from an untrusted read) and which have been
**sanitized** (passed through a verifier that raises on mismatch), and
flags tainted values that reach a **sink** — a trust decision — with no
sanitizer on some path.

The lattice is deliberately tiny: a value is either clean or tainted
with a source label (``block-store bytes``, ``replica artifact`` …).
Branches merge by union — tainted-on-either-path is tainted — which is
exactly what catches the seeded-bug shape "the sanitizer call was
removed on one path".  Loops run to a two-pass fixpoint (enough for a
finite union lattice over loop-carried locals).

Interprocedural flow comes from *summaries*: a helper whose return value
derives from a source marks its callers' results tainted
(``_ensure_images()`` returning ``replica.materialize_shard(...)``
taints at every call site).  Summaries are source-driven — parameters
start clean — so the question W007 answers is "can untrusted **reads**
reach trust decisions", not "is any argument anywhere unvalidated".

Source / sanitizer / sink tables (DESIGN §13 documents the rationale
per entry; the tables are data so the next rule can extend them):

========== ==========================================================
sources    ``blocks.get`` / ``block_store.get`` /
           ``retry.call("block_store.get", ...)`` — block-store bytes;
           ``materialize_shard`` / ``journal_ledger`` /
           ``.source_certificates`` / ``.payload`` — replica
           artifacts; ``witness_for`` — witness-directory lookups;
           ``ServiceRequest.from_dict`` — service request decode
sanitizers any callee named ``verify*`` / ``_verify*`` / ``check_*`` /
           ``_check_*``, plus ``client_verify`` and
           ``rebuild_verified`` — they raise on mismatch, so the
           arguments *and* result are clean afterwards
sinks      ``index_record`` (catalog import), ``import_records``
           (record replay/import), and values returned from
           ``WormClient`` methods (what verifying callers trust)
========== ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.engine import Finding
from repro.lint.project import CallSite, FunctionInfo, ProjectModel

__all__ = ["TaintAnalysis", "SINK_METHODS", "SANITIZER_PREFIXES",
           "SANITIZER_NAMES", "SOURCE_METHODS", "SOURCE_ATTRS",
           "BLOCK_STORE_RECEIVERS", "SINK_RETURN_CLASSES"]

#: Method names whose *call result* is untrusted host-side data.
SOURCE_METHODS: Dict[str, str] = {
    "materialize_shard": "replica catalog image",
    "journal_ledger": "mirrored journal entries",
    "witness_for": "witness-directory lookup",
}

#: Attribute reads that yield untrusted data regardless of receiver.
SOURCE_ATTRS: Dict[str, str] = {
    "payload": "replication-artifact payload",
    "source_certificates": "replica-held certificates",
}

#: Receiver names that denote the untrusted block store; ``.get`` on
#: them (or the retry-wrapped ``retry.call("block_store.get", ...)``
#: idiom) reads attacker-rewritable media.
BLOCK_STORE_RECEIVERS = frozenset({"blocks", "block_store", "_blocks"})

#: ``Class.method`` chains whose result is untrusted (wire decode).
SOURCE_CHAINS: Dict[str, str] = {
    "ServiceRequest.from_dict": "decoded service request",
}

#: Callee-name prefixes that sanitize their arguments and result.
SANITIZER_PREFIXES: Tuple[str, ...] = ("verify", "_verify", "check_",
                                       "_check_")

#: Exact callee names that sanitize (scheme dispatch + catalog rebuild).
SANITIZER_NAMES = frozenset({"client_verify", "rebuild_verified"})

#: Trust-decision calls: a tainted argument here is a W007.
SINK_METHODS: Dict[str, str] = {
    "index_record": "catalog import",
    "import_records": "record import/replay",
}

#: Classes whose public methods hand results to verifying callers —
#: returning tainted data from them launders it into client trust.
SINK_RETURN_CLASSES = frozenset({"WormClient"})


def _root_name(node: ast.AST) -> Optional[str]:
    """``self._images`` → ``self._images``; ``x[0].y`` → ``x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_sanitizer(name: Optional[str]) -> bool:
    if name is None:
        return False
    return name in SANITIZER_NAMES or name.startswith(SANITIZER_PREFIXES)


#: A taint environment: root name → source label (absent/None = clean).
_Env = Dict[str, str]


class TaintAnalysis:
    """Source→sanitizer→sink dataflow over one :class:`ProjectModel`."""

    #: Fixpoint bound for summary propagation (call-chain depth).
    MAX_PASSES = 12

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        #: fn qname → source label its return value carries, or None.
        self.summaries: Dict[str, Optional[str]] = {}
        self._compute_summaries()

    def _compute_summaries(self) -> None:
        for qname in self.project.functions:
            self.summaries[qname] = None
        for _ in range(self.MAX_PASSES):
            changed = False
            for qname, info in self.project.functions.items():
                if self.summaries[qname] is not None:
                    continue  # monotone: once tainted, stays tainted
                walker = _FunctionTaint(self, info, report=False)
                walker.run()
                if walker.returns_taint is not None:
                    self.summaries[qname] = walker.returns_taint
                    changed = True
            if not changed:
                break

    def findings(self) -> Iterator[Finding]:
        """W007 findings across every package function."""
        for info in self.project.functions_in_package():
            walker = _FunctionTaint(self, info, report=True)
            walker.run()
            yield from walker.findings


class _FunctionTaint:
    """The per-function abstract interpreter."""

    def __init__(self, analysis: TaintAnalysis, info: FunctionInfo,
                 report: bool) -> None:
        self.analysis = analysis
        self.project = analysis.project
        self.info = info
        self.report = report
        self.ctx = analysis.project.modules[info.module]
        self.sites: Dict[int, CallSite] = {
            id(site.node): site
            for site in analysis.project.call_sites(info.qname)}
        self.findings: List[Finding] = []
        self.returns_taint: Optional[str] = None
        self._reported: set = set()

    # -- driving -------------------------------------------------------------

    def run(self) -> None:
        env: _Env = {}
        self._exec_block(self.info.node.body, env)

    # -- statements ----------------------------------------------------------

    def _exec_block(self, stmts, env: _Env) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env)

    @staticmethod
    def _merge(into: _Env, *branches: _Env) -> None:
        """Union-merge branch environments: tainted anywhere = tainted."""
        for branch in branches:
            for name, label in branch.items():
                if label is not None and into.get(name) is None:
                    into[name] = label

    def _exec_stmt(self, stmt, env: _Env) -> None:
        if isinstance(stmt, ast.Assign):
            label = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, label, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            label = self._eval(stmt.value, env)
            root = _root_name(stmt.target)
            if root is not None and label is not None:
                env[root] = env.get(root) or label
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                label = self._eval(stmt.value, env)
                if label is not None:
                    if self.returns_taint is None:
                        self.returns_taint = label
                    self._check_sink_return(stmt, label)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env, else_env = dict(env), dict(env)
            self._exec_block(stmt.body, then_env)
            self._exec_block(stmt.orelse, else_env)
            env.clear()
            self._merge(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_label = self._eval(stmt.iter, env)
            self._assign(stmt.target, iter_label, env)
            for _ in range(2):   # loop-carried taint fixpoint
                body_env = dict(env)
                self._exec_block(stmt.body, body_env)
                self._merge(env, body_env)
            self._exec_block(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            for _ in range(2):
                body_env = dict(env)
                self._exec_block(stmt.body, body_env)
                self._merge(env, body_env)
            self._exec_block(stmt.orelse, env)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._merge(env, body_env)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self._exec_block(handler.body, handler_env)
                self._merge(env, handler_env)
            self._exec_block(stmt.orelse, env)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                label = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, label, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
        # Nested defs/classes are separate functions; skip their bodies.

    def _assign(self, target, label: Optional[str], env: _Env) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, label, env)
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, label, env)
            return
        root = _root_name(target)
        if root is None:
            return
        if isinstance(target, ast.Subscript):
            # storing into a container taints the container, never cleans
            if label is not None:
                env[root] = env.get(root) or label
            return
        env[root] = label

    # -- expressions -----------------------------------------------------------

    def _eval(self, node, env: _Env) -> Optional[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in SOURCE_ATTRS:
                return SOURCE_ATTRS[node.attr]
            root = _root_name(node)
            if root is not None and env.get(root) is not None:
                return env[root]
            return self._eval(node.value, env)
        if isinstance(node, ast.Subscript):
            label = self._eval(node.value, env)
            self._eval(node.slice, env)
            return label
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, (ast.Lambda,)):
            return None
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return (self._eval(node.body, env)
                    or self._eval(node.orelse, env))
        if isinstance(node, ast.BoolOp):
            labels = [self._eval(v, env) for v in node.values]
            return next((l for l in labels if l is not None), None)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._eval_comprehension(node, env)
        # Generic: tainted if any child expression is tainted.
        label = None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                child_label = self._eval(child, env)
                if label is None:
                    label = child_label
        return label

    def _eval_comprehension(self, node, env: _Env) -> Optional[str]:
        comp_env = dict(env)
        label = None
        for gen in node.generators:
            iter_label = self._eval(gen.iter, comp_env)
            self._assign(gen.target, iter_label, comp_env)
            if label is None:
                label = iter_label
            for cond in gen.ifs:
                self._eval(cond, comp_env)
        if isinstance(node, ast.DictComp):
            label = (self._eval(node.key, comp_env)
                     or self._eval(node.value, comp_env) or label)
        else:
            label = self._eval(node.elt, comp_env) or label
        return label

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, call: ast.Call, env: _Env) -> Optional[str]:
        site = self.sites.get(id(call))
        arg_labels = [self._eval(arg, env) for arg in call.args]
        arg_labels += [self._eval(kw.value, env) for kw in call.keywords]
        receiver_label = None
        if isinstance(call.func, ast.Attribute):
            receiver_label = self._eval(call.func.value, env)
        args_tainted = next(
            (label for label in arg_labels if label is not None), None)

        callee = site.attr if site is not None else None

        # Sink check before anything else: a tainted argument reaching a
        # trust decision is the finding, sanitized-or-not afterwards.
        if callee in SINK_METHODS and args_tainted is not None:
            self._report_sink(call, callee, args_tainted)

        # Sanitizers raise on mismatch: their arguments are trustworthy
        # from here on, and so is the result.
        if _is_sanitizer(callee):
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                root = _root_name(arg)
                if root is not None:
                    env[root] = None
            return None

        source = self._source_label(site)
        if source is not None:
            return source

        # Project-internal callees: the precomputed summary.
        if site is not None and site.callee_qnames:
            for qname in site.callee_qnames:
                summary = self.analysis.summaries.get(qname)
                if summary is not None:
                    return summary
        # Unknown or clean callee: taint flows through arguments and the
        # receiver (str(tainted), tainted_dict.items(), ...).
        return args_tainted or receiver_label

    def _source_label(self, site: Optional[CallSite]) -> Optional[str]:
        if site is None or site.attr is None:
            return None
        if site.attr in SOURCE_METHODS:
            return SOURCE_METHODS[site.attr]
        if site.attr == "get" and site.receiver in BLOCK_STORE_RECEIVERS:
            return "block-store bytes"
        if (site.receiver in ("retry", "_retry") and site.attr == "call"
                and site.str_arg0 is not None
                and site.str_arg0.startswith("block_store.get")):
            return "block-store bytes"
        if site.receiver is not None:
            chain = f"{site.receiver}.{site.attr}"
            if chain in SOURCE_CHAINS:
                return SOURCE_CHAINS[chain]
        return None

    # -- findings ------------------------------------------------------------

    def _report_sink(self, call: ast.Call, sink: str, label: str) -> None:
        if not self.report or id(call) in self._reported:
            return
        self._reported.add(id(call))
        self.findings.append(self.ctx.finding(
            "W007", call,
            f"tainted value ({label}) reaches trust sink "
            f"'{sink}' ({SINK_METHODS[sink]}) with no verifier on this "
            f"path — untrusted host-side data must pass a verify_* "
            f"sanitizer before any trust decision"))

    def _check_sink_return(self, stmt: ast.Return, label: str) -> None:
        if not self.report:
            return
        class_qname = self.info.class_qname
        if class_qname is None:
            return
        class_name = class_qname.rsplit(".", 1)[-1]
        if class_name not in SINK_RETURN_CLASSES:
            return
        if self.info.name.startswith("_"):
            return   # private helpers are covered at their public callers
        if id(stmt) in self._reported:
            return
        self._reported.add(id(stmt))
        self.findings.append(self.ctx.finding(
            "W007", stmt,
            f"{class_name}.{self.info.name} returns a tainted value "
            f"({label}) to verifying callers — every byte handed back "
            f"from the client surface must be verified first"))
