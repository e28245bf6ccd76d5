"""Pluggable authentication schemes over the record catalog (DESIGN §12).

The paper's central performance claim pits O(1) sealed windows against
O(log n) Merkle trees; PAPERS.md adds a third contender, the dynamic
distributed RSA accumulator.  This module extracts the surface all three
share — *how a store proves the status of a serial number to a
verifying client* — so :class:`~repro.core.worm.StrongWormStore`
programs against one interface and the scheme is chosen purely by the
frozen ``StoreConfig.auth_scheme`` field:

* ``"windows"`` — :class:`WindowScheme`, the paper's signed
  ``[SN_base, SN_current]`` window with deletion proofs and compacted
  deletion windows (§4.2.1);
* ``"merkle"`` — :class:`MerkleScheme`, an SCPU-signed Merkle tree over
  the catalog (the classical baseline, promoted from
  the since-retired ``repro.baselines.merkle_worm`` to a
  first-class backend);
* ``"accumulator"`` — :class:`AccumulatorScheme`, a trapdoor-assisted
  RSA accumulator: the SCPU holds the trapdoor for O(1) updates and
  witness minting, an **untrusted** :class:`~repro.crypto.accumulator.
  WitnessDirectory` caches witnesses and answers membership queries.

What stays *shared* across schemes is deliberate: the VRDT catalog,
metasig/datasig witnessing, retention, deferred strengthening, and the
per-record deletion proof ``S_d(SN)``.  A scheme owns only the
authenticated set-membership structure — which is why the same
write/read/expire trace yields the identical catalog through any scheme
(the cross-scheme equivalence suite locks this).

Every scheme instance is *main-CPU code* and holds no trust; all
assurances flow from SCPU-signed constructs (`Purpose.SN_CURRENT`,
`Purpose.MERKLE_ROOT`, `Purpose.ACCUMULATOR_VALUE`) that clients verify.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Tuple, Type

from repro.core.client import VerifiedRead, WormClient
from repro.core.errors import (
    UnknownAlgorithmError,
    VerificationError,
    WormError,
)
from repro.core.proofs import (
    ActiveProof,
    BaseBoundProof,
    DeletionProofResponse,
    DeletionWindowProof,
    NeverAllocatedProof,
    ReadResult,
)
from repro.core.windows import WindowManager
from repro.crypto.accumulator import (
    hash_to_prime,
    verify_membership,
    WitnessDirectory,
)
from repro.crypto.envelope import Purpose, SignedEnvelope
from repro.crypto.merkle import MerkleProof, MerkleTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (worm -> auth)
    from repro.core.worm import StrongWormStore
    from repro.storage.vrd import VirtualRecordDescriptor

__all__ = [
    "AuthenticationScheme",
    "WindowScheme",
    "MerkleScheme",
    "AccumulatorScheme",
    "MerkleMembershipProof",
    "MerkleFrontierProof",
    "AccumulatorMembershipProof",
    "AccumulatorFrontierProof",
    "register_scheme",
    "resolve_scheme",
    "create_scheme",
    "available_schemes",
]


def _signed_size(signed: SignedEnvelope) -> int:
    """Serialized size of one signed envelope (statement + signature)."""
    return len(signed.envelope.signed_bytes()) + len(signed.signature)


# ---------------------------------------------------------------------------
# Scheme-specific proof objects.  The five window-scheme proofs live in
# repro.core.proofs (they are the paper's case analysis); these carry the
# ``scheme`` discriminator WormClient uses to dispatch back into the
# registry for verification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MerkleMembershipProof:
    """Signed root + authentication path for an active record."""

    scheme: ClassVar[str] = "merkle"
    kind: ClassVar[str] = "merkle-membership"
    signed_root: SignedEnvelope
    leaf: bytes
    path: MerkleProof


@dataclass(frozen=True)
class MerkleFrontierProof:
    """Fresh signed root whose SN frontier is below the requested SN."""

    scheme: ClassVar[str] = "merkle"
    kind: ClassVar[str] = "merkle-frontier"
    signed_root: SignedEnvelope


@dataclass(frozen=True)
class AccumulatorMembershipProof:
    """Signed accumulator value + membership witness for an active record.

    The client recomputes the prime representative from the requested SN
    (never trusting a server-supplied prime), so a witness cannot be
    spliced onto a different record.
    """

    scheme: ClassVar[str] = "accumulator"
    kind: ClassVar[str] = "acc-membership"
    signed_value: SignedEnvelope
    witness: int


@dataclass(frozen=True)
class AccumulatorFrontierProof:
    """Fresh signed accumulator statement backing a never-allocated denial."""

    scheme: ClassVar[str] = "accumulator"
    kind: ClassVar[str] = "acc-frontier"
    signed_value: SignedEnvelope


# ---------------------------------------------------------------------------
# The interface
# ---------------------------------------------------------------------------


class AuthenticationScheme(abc.ABC):
    """How one store authenticates set membership of its serial numbers.

    One instance per store, constructed by the registry from
    ``StoreConfig.auth_scheme``.  Implementations are main-CPU
    orchestration: every trusted operation goes through the store's
    retry-gated SCPU view, every device cost lands on an
    :class:`~repro.hardware.device.OpMeter`.

    The contract (store side):

    * :meth:`bootstrap` — publish initial signed state for an empty store;
    * :meth:`on_write` — seal/append a freshly inserted VRD;
    * :meth:`on_attr_change` — re-sync after an authorized attribute
      change (litigation hold/release) for schemes whose structure binds
      the attributes;
    * :meth:`witness_deletion` — record an expiry in the structure and
      return the ``S_d(SN)`` deletion proof to store in the VRDT;
    * :meth:`classify` / :meth:`prove` — the read path: which proof case
      applies, and the proof object for it;
    * :meth:`refresh` — re-sign the freshness statement clients check
      once it is a refresh interval old, or now when forced;
    * :meth:`maintenance` — idle-period work (freshness refresh,
      compaction, base advancement);
    * :meth:`proof_size_bytes` / :meth:`state_size_bytes` — the
      serialized-size accounting the ablation benchmarks compare.

    And the client side: :meth:`client_verify` is the registry-dispatched
    verifier :class:`~repro.core.client.WormClient` calls for proof
    objects carrying this scheme's discriminator.
    """

    #: Registry key; subclasses set this.
    name: ClassVar[str] = ""

    def __init__(self, store: "StrongWormStore") -> None:
        self.store = store

    # -- store-side lifecycle -------------------------------------------------

    @abc.abstractmethod
    def bootstrap(self) -> None:
        """Publish initial signed state (an empty store must still deny)."""

    @abc.abstractmethod
    def on_write(self, vrd: "VirtualRecordDescriptor") -> None:
        """Seal/append a newly inserted active VRD."""

    def on_attr_change(self, vrd: "VirtualRecordDescriptor") -> None:
        """Re-sync after lit_hold/lit_release re-signed the attributes.

        Default no-op: windows and the accumulator bind only the SN (the
        metasig binds attributes); the Merkle leaf binds attr bytes and
        must be rewritten.
        """

    @abc.abstractmethod
    def witness_deletion(self, sn: int) -> SignedEnvelope:
        """Record an expiry; returns ``S_d(SN)`` for the VRDT.

        All schemes store the paper's deletion proof — it is what keeps
        the catalog identical across schemes — but each additionally
        updates its own structure (tombstone leaf, accumulator removal).
        """

    # -- read path ------------------------------------------------------------

    @abc.abstractmethod
    def classify(self, sn: int) -> str:
        """The proof case for *sn* now (``"missing"`` = VRDT corruption)."""

    @abc.abstractmethod
    def prove(self, sn: int, case: str) -> object:
        """Build the proof for a classified read.

        The read's status follows from *case* alone
        (:data:`~repro.core.proofs.READ_STATUS`); the store attaches
        payloads for active reads.
        """

    # -- idle-period maintenance ---------------------------------------------

    @abc.abstractmethod
    def refresh(self, force: bool = False) -> None:
        """Re-sign the freshness statement clients check (``S_s(SN_current)``,
        the signed root, the signed value) once it is a refresh interval
        old, or now when *force* is set (an audit wants a fresh bound)."""

    def _due(self, signed: SignedEnvelope) -> bool:
        """Is *signed* at least one refresh interval old?"""
        return (self.store.now - signed.timestamp
                >= self.store.config.window_refresh_interval)

    @abc.abstractmethod
    def maintenance(self, compact: bool = True) -> Dict[str, int]:
        """One idle slice; returns at least windows_compacted/base_advanced."""

    # -- size accounting ------------------------------------------------------

    @abc.abstractmethod
    def proof_size_bytes(self, proof: object) -> int:
        """Serialized size of one proof object this scheme emitted."""

    @abc.abstractmethod
    def state_size_bytes(self) -> int:
        """Resident size of the scheme's authentication state.

        Only the *scheme-owned* structure counts (signed bounds, tree
        nodes, accumulator value + witness cache) — the shared VRDT and
        deletion proofs are common to all schemes.
        """

    # -- client side ----------------------------------------------------------

    @classmethod
    def client_verify(cls, client: WormClient, result: ReadResult,
                      requested_sn: int,
                      record_index: Optional[int] = None) -> VerifiedRead:
        """Verify one of this scheme's proof objects on the client.

        Dispatched from :meth:`WormClient.verify_read` via the proof's
        ``scheme`` discriminator; *record_index* is the record the
        reader asked for (``None`` for a read by serial number).  The
        window scheme never lands here — its five proofs are the
        client's native case analysis.
        """
        raise VerificationError(
            f"unrecognized proof object: {result.proof!r}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SCHEMES: Dict[str, Type[AuthenticationScheme]] = {}


def register_scheme(cls: Type[AuthenticationScheme]
                    ) -> Type[AuthenticationScheme]:
    """Class decorator: make *cls* selectable via ``StoreConfig.auth_scheme``."""
    if not cls.name:
        raise WormError(f"{cls.__name__} must define a scheme name")
    _SCHEMES[cls.name] = cls
    return cls


def resolve_scheme(name: str) -> Type[AuthenticationScheme]:
    """Look up a registered scheme class; unknown names are config errors."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown authentication scheme {name!r}; registered schemes: "
            f"{', '.join(sorted(_SCHEMES))}") from None


def create_scheme(name: str, store: "StrongWormStore") -> AuthenticationScheme:
    """Instantiate the scheme *store* is configured for."""
    return resolve_scheme(name)(store)


def available_schemes() -> Tuple[str, ...]:
    return tuple(sorted(_SCHEMES))


# ---------------------------------------------------------------------------
# 1. The paper's sealed windows
# ---------------------------------------------------------------------------


@register_scheme
class WindowScheme(AuthenticationScheme):
    """O(1) window authentication (§4.2.1) behind the scheme interface.

    Thin orchestration over :class:`~repro.core.windows.WindowManager`,
    the live manager at ``store.auth.windows``.
    """

    name: ClassVar[str] = "windows"

    def __init__(self, store: "StrongWormStore") -> None:
        super().__init__(store)
        self.windows = WindowManager(
            store.scpu_rt, store.vrdt,
            refresh_interval=store.config.window_refresh_interval)

    def bootstrap(self) -> None:
        self.windows.refresh_current(force=True)
        self.windows.refresh_base(force=True)

    def on_write(self, vrd: "VirtualRecordDescriptor") -> None:
        # Not a re-sign per write: the bound may lag the frontier by one
        # refresh interval — the O(1)-amortized design the paper trades
        # against Merkle's O(log n)-per-update.
        self.windows.refresh_current()

    def witness_deletion(self, sn: int) -> SignedEnvelope:
        return self.store.scpu_rt.make_deletion_proof(sn)

    def refresh(self, force: bool = False) -> None:
        self.windows.refresh_current(force=force)

    def classify(self, sn: int) -> str:
        return self.windows.classify(sn)

    def prove(self, sn: int, case: str) -> object:
        store = self.store
        if case == "active":
            return ActiveProof(sn_current=store._stored_sn_current())
        if case == "deletion-proof":
            proof_env = store.vrdt.get_deletion_proof(sn)
            assert proof_env is not None
            return DeletionProofResponse(proof=proof_env)
        if case == "below-base":
            return BaseBoundProof(sn_base=store._stored_sn_base())
        if case == "deletion-window":
            window = store.vrdt.window_covering(sn)
            assert window is not None
            return DeletionWindowProof(lower=window.lower, upper=window.upper)
        if case == "never-allocated":
            return NeverAllocatedProof(sn_current=store._stored_sn_current())
        raise WormError(f"window scheme cannot prove case {case!r}")

    def maintenance(self, compact: bool = True) -> Dict[str, int]:
        self.windows.refresh_current()
        self.windows.refresh_base()
        summary = {"windows_compacted": 0, "base_advanced": 0}
        if compact:
            summary["windows_compacted"] = self.windows.compact_expired_runs()
            if self.windows.try_advance_base():
                summary["base_advanced"] = 1
        return summary

    def proof_size_bytes(self, proof: object) -> int:
        if isinstance(proof, (ActiveProof, NeverAllocatedProof)):
            return _signed_size(proof.sn_current)
        if isinstance(proof, DeletionProofResponse):
            return _signed_size(proof.proof)
        if isinstance(proof, BaseBoundProof):
            return _signed_size(proof.sn_base)
        if isinstance(proof, DeletionWindowProof):
            return _signed_size(proof.lower) + _signed_size(proof.upper)
        raise WormError(f"not a window-scheme proof: {proof!r}")

    def state_size_bytes(self) -> int:
        vrdt = self.store.vrdt
        total = 0
        if vrdt.sn_current_envelope is not None:
            total += _signed_size(vrdt.sn_current_envelope)
        if vrdt.sn_base_envelope is not None:
            total += _signed_size(vrdt.sn_base_envelope)
        for window in vrdt.deletion_windows:
            total += _signed_size(window.lower) + _signed_size(window.upper)
        return total


# ---------------------------------------------------------------------------
# 2. The Merkle baseline, promoted to a first-class backend
# ---------------------------------------------------------------------------


def _merkle_leaf(sn: int, attr_bytes: bytes, data_hash: bytes) -> bytes:
    """Leaf binding for an active record: SN, liveness tag, attr, data."""
    return sn.to_bytes(8, "big") + b"A" + attr_bytes + data_hash


def _merkle_tombstone(sn: int) -> bytes:
    """Leaf binding for a deleted record (the slot stays, the data goes)."""
    return sn.to_bytes(8, "big") + b"D"


@register_scheme
class MerkleScheme(AuthenticationScheme):
    """O(log n)-per-update authenticated tree over the catalog.

    One leaf per issued SN (active binding or tombstone); the SCPU
    re-verifies the touched authentication path and signs the new root
    on every update (:meth:`~repro.hardware.scpu.SecureCoprocessor.
    sign_merkle_root` charges the DMA + SHA + signature).  The signed
    root carries the SN frontier, so one statement backs both membership
    proofs and never-allocated denials; clients enforce the freshness
    window on it exactly as on ``S_s(SN_current)``.
    """

    name: ClassVar[str] = "merkle"

    def __init__(self, store: "StrongWormStore") -> None:
        super().__init__(store)
        self.tree = MerkleTree()
        self._index: Dict[int, int] = {}  # sn -> leaf index
        self.signed_root: Optional[SignedEnvelope] = None

    # -- internals ------------------------------------------------------------

    def _reseal(self) -> None:
        self.signed_root = self.store.scpu_rt.sign_merkle_root(
            self.tree.root(), self.tree.size, max(1, self.tree.height))

    def _signed_root_or_die(self) -> SignedEnvelope:
        if self.signed_root is None:  # pragma: no cover - set in bootstrap
            raise WormError("no signed Merkle root available")
        return self.signed_root

    def _frontier(self) -> int:
        return int(self._signed_root_or_die().field("sn_frontier"))

    # -- lifecycle ------------------------------------------------------------

    def bootstrap(self) -> None:
        self._reseal()

    def on_write(self, vrd: "VirtualRecordDescriptor") -> None:
        # SNs are issued consecutively, so the tree stays dense; tombstone
        # placeholders guard the (unexpected) gap case.
        while self.tree.size < vrd.sn - 1:
            missing_sn = self.tree.size + 1
            self._index[missing_sn] = self.tree.append(
                _merkle_tombstone(missing_sn))
        leaf = _merkle_leaf(vrd.sn, vrd.attr.canonical_bytes(), vrd.data_hash)
        self._index[vrd.sn] = self.tree.append(leaf)
        self._reseal()

    def on_attr_change(self, vrd: "VirtualRecordDescriptor") -> None:
        leaf = _merkle_leaf(vrd.sn, vrd.attr.canonical_bytes(), vrd.data_hash)
        self.tree.update(self._index[vrd.sn], leaf)
        self._reseal()

    def witness_deletion(self, sn: int) -> SignedEnvelope:
        proof = self.store.scpu_rt.make_deletion_proof(sn)
        self.tree.update(self._index[sn], _merkle_tombstone(sn))
        self._reseal()
        return proof

    # -- read path ------------------------------------------------------------

    def classify(self, sn: int) -> str:
        vrdt = self.store.vrdt
        if vrdt.is_active(sn):
            return "active"
        if vrdt.get_deletion_proof(sn) is not None:
            return "deletion-proof"
        if sn > self._frontier():
            return "never-allocated"
        return "missing"

    def prove(self, sn: int, case: str) -> object:
        if case == "active":
            index = self._index[sn]
            vrd = self.store.vrdt.get_active(sn)
            assert vrd is not None
            leaf = _merkle_leaf(sn, vrd.attr.canonical_bytes(), vrd.data_hash)
            return MerkleMembershipProof(
                signed_root=self._signed_root_or_die(),
                leaf=leaf, path=self.tree.prove(index))
        if case == "deletion-proof":
            proof_env = self.store.vrdt.get_deletion_proof(sn)
            assert proof_env is not None
            return DeletionProofResponse(proof=proof_env)
        if case == "never-allocated":
            return MerkleFrontierProof(signed_root=self._signed_root_or_die())
        raise WormError(f"merkle scheme cannot prove case {case!r}")

    def refresh(self, force: bool = False) -> None:
        if force or self._due(self._signed_root_or_die()):
            self._reseal()

    def maintenance(self, compact: bool = True) -> Dict[str, int]:
        self.refresh()
        return {"windows_compacted": 0, "base_advanced": 0}

    # -- size accounting ------------------------------------------------------

    def proof_size_bytes(self, proof: object) -> int:
        if isinstance(proof, MerkleMembershipProof):
            return (_signed_size(proof.signed_root) + len(proof.leaf)
                    + 33 * len(proof.path.path))  # 32-byte sibling + side
        if isinstance(proof, MerkleFrontierProof):
            return _signed_size(proof.signed_root)
        if isinstance(proof, DeletionProofResponse):
            return _signed_size(proof.proof)
        raise WormError(f"not a merkle-scheme proof: {proof!r}")

    def state_size_bytes(self) -> int:
        nodes = max(0, 2 * self.tree.size - 1)
        signed = 0 if self.signed_root is None else _signed_size(self.signed_root)
        return 32 * nodes + signed

    # -- client side ----------------------------------------------------------

    @classmethod
    def client_verify(cls, client: WormClient, result: ReadResult,
                      requested_sn: int,
                      record_index: Optional[int] = None) -> VerifiedRead:
        proof = result.proof
        if isinstance(proof, MerkleMembershipProof):
            signed_root = client._check_envelope(
                proof.signed_root, Purpose.MERKLE_ROOT, roles=("s",),
                fresh=True)
            # The VRD and the served data check out against datasig
            # first; the leaf then binds datasig's verified data hash,
            # so no payload is hashed twice and one record of a VR
            # proves membership as well as the whole VR does.
            verified = client.verify_active(result, requested_sn,
                                            record_index,
                                            MerkleMembershipProof.kind)
            assert result.vrd is not None
            expected_leaf = _merkle_leaf(
                requested_sn, result.vrd.attr.canonical_bytes(),
                bytes(result.vrd.datasig.field("data_hash")))
            if proof.leaf != expected_leaf:
                raise VerificationError(
                    "Merkle leaf does not bind the returned record")
            root = bytes(signed_root["root"])
            if not MerkleTree.verify_static(proof.leaf, proof.path, root):
                raise VerificationError(
                    "Merkle path does not reach the signed root")
            return verified
        if isinstance(proof, MerkleFrontierProof):
            signed_root = client._check_envelope(
                proof.signed_root, Purpose.MERKLE_ROOT, roles=("s",),
                fresh=True)
            frontier = int(signed_root["sn_frontier"])
            if requested_sn <= frontier:
                raise VerificationError(
                    "store claims never-allocated for an SN at or below the "
                    "signed frontier (record hiding)")
            return VerifiedRead(sn=requested_sn, status="never-allocated",
                                proof_kind=MerkleFrontierProof.kind)
        raise VerificationError(f"unrecognized proof object: {proof!r}")


# ---------------------------------------------------------------------------
# 3. The trapdoor-assisted RSA accumulator
# ---------------------------------------------------------------------------


@register_scheme
class AccumulatorScheme(AuthenticationScheme):
    """Dynamic RSA accumulator with the trapdoor inside the SCPU.

    Per write the SCPU performs O(1) work — accumulate the SN's prime,
    sign the new value, mint the witness via the trapdoor — independent
    of store size (flat like windows, but with a per-update signature
    rather than an amortized one).  The untrusted
    :class:`~repro.crypto.accumulator.WitnessDirectory` keeps every
    cached witness current host-side and answers the read path, so
    membership queries never touch the card.  Expiry removes the SN from
    the accumulated set (O(1) trapdoor exponentiation) on top of the
    shared ``S_d(SN)`` deletion proof.
    """

    name: ClassVar[str] = "accumulator"

    _LABEL = "active"

    def __init__(self, store: "StrongWormStore") -> None:
        super().__init__(store)
        self.signed_value: Optional[SignedEnvelope] = None
        self.directory: Optional[WitnessDirectory] = None
        self._dir_modexp_seconds = 0.0

    # -- internals ------------------------------------------------------------

    def _publish(self) -> SignedEnvelope:
        self.signed_value = self.store.scpu_rt.accumulator_sign_value(
            self._LABEL)
        return self.signed_value

    def _signed_value_or_die(self) -> SignedEnvelope:
        if self.signed_value is None:  # pragma: no cover - set in bootstrap
            raise WormError("no signed accumulator value available")
        return self.signed_value

    def _frontier(self) -> int:
        return int(self._signed_value_or_die().field("sn_frontier"))

    def _directory_or_die(self) -> WitnessDirectory:
        if self.directory is None:  # pragma: no cover - set in bootstrap
            raise WormError("witness directory not provisioned")
        return self.directory

    def _charge_directory(self, op: str, modexps: int) -> None:
        self.store.host.meter.charge(op, modexps * self._dir_modexp_seconds)

    # -- lifecycle ------------------------------------------------------------

    def bootstrap(self) -> None:
        store = self.store
        store.scpu_rt.accumulator_bootstrap(labels=(self._LABEL,))
        signed = self._publish()
        modulus = int.from_bytes(bytes(signed.field("modulus")), "big")
        self._dir_modexp_seconds = store.scpu.profile.rsa_verify_seconds(
            modulus.bit_length())
        self.directory = WitnessDirectory(modulus,
                                          charge=self._charge_directory)
        self.directory.value = int.from_bytes(bytes(signed.field("value")),
                                              "big")

    def on_write(self, vrd: "VirtualRecordDescriptor") -> None:
        rt = self.store.scpu_rt
        prime = rt.accumulator_add(self._LABEL, vrd.sn)
        signed = self._publish()
        directory = self._directory_or_die()
        directory.observe_add(
            prime, int.from_bytes(bytes(signed.field("value")), "big"))
        witness = rt.accumulator_witness(self._LABEL, vrd.sn)
        directory.publish(vrd.sn, prime, witness)

    def witness_deletion(self, sn: int) -> SignedEnvelope:
        rt = self.store.scpu_rt
        proof = rt.make_deletion_proof(sn)
        prime = rt.accumulator_remove(self._LABEL, sn)
        signed = self._publish()
        self._directory_or_die().observe_remove(
            prime, int.from_bytes(bytes(signed.field("value")), "big"))
        return proof

    # -- read path ------------------------------------------------------------

    def classify(self, sn: int) -> str:
        vrdt = self.store.vrdt
        if vrdt.is_active(sn):
            return "active"
        if vrdt.get_deletion_proof(sn) is not None:
            return "deletion-proof"
        if sn > self._frontier():
            return "never-allocated"
        return "missing"

    def prove(self, sn: int, case: str) -> object:
        if case == "active":
            witness = self._directory_or_die().witness_for(sn)
            if witness is None:
                raise WormError(
                    f"witness directory has no witness for active SN {sn}")
            return AccumulatorMembershipProof(
                signed_value=self._signed_value_or_die(), witness=witness)
        if case == "deletion-proof":
            proof_env = self.store.vrdt.get_deletion_proof(sn)
            assert proof_env is not None
            return DeletionProofResponse(proof=proof_env)
        if case == "never-allocated":
            return AccumulatorFrontierProof(
                signed_value=self._signed_value_or_die())
        raise WormError(f"accumulator scheme cannot prove case {case!r}")

    def refresh(self, force: bool = False) -> None:
        if force or self._due(self._signed_value_or_die()):
            self._publish()

    def maintenance(self, compact: bool = True) -> Dict[str, int]:
        self.refresh()
        return {"windows_compacted": 0, "base_advanced": 0}

    # -- size accounting ------------------------------------------------------

    def _witness_width(self) -> int:
        return (self._directory_or_die().modulus.bit_length() + 7) // 8

    def proof_size_bytes(self, proof: object) -> int:
        if isinstance(proof, AccumulatorMembershipProof):
            return _signed_size(proof.signed_value) + self._witness_width()
        if isinstance(proof, AccumulatorFrontierProof):
            return _signed_size(proof.signed_value)
        if isinstance(proof, DeletionProofResponse):
            return _signed_size(proof.proof)
        raise WormError(f"not an accumulator-scheme proof: {proof!r}")

    def state_size_bytes(self) -> int:
        signed = (0 if self.signed_value is None
                  else _signed_size(self.signed_value))
        directory = (0 if self.directory is None
                     else self.directory.state_size_bytes())
        return signed + directory

    # -- client side ----------------------------------------------------------

    @classmethod
    def client_verify(cls, client: WormClient, result: ReadResult,
                      requested_sn: int,
                      record_index: Optional[int] = None) -> VerifiedRead:
        proof = result.proof
        if isinstance(proof, AccumulatorMembershipProof):
            signed = client._check_envelope(
                proof.signed_value, Purpose.ACCUMULATOR_VALUE, roles=("s",),
                fresh=True)
            modulus = int.from_bytes(bytes(signed["modulus"]), "big")
            value = int.from_bytes(bytes(signed["value"]), "big")
            prime = hash_to_prime(requested_sn)
            if not verify_membership(proof.witness, prime, value, modulus):
                raise VerificationError(
                    "accumulator witness does not prove membership of this SN")
            return client.verify_active(result, requested_sn, record_index,
                                        AccumulatorMembershipProof.kind)
        if isinstance(proof, AccumulatorFrontierProof):
            signed = client._check_envelope(
                proof.signed_value, Purpose.ACCUMULATOR_VALUE, roles=("s",),
                fresh=True)
            frontier = int(signed["sn_frontier"])
            if requested_sn <= frontier:
                raise VerificationError(
                    "store claims never-allocated for an SN at or below the "
                    "signed frontier (record hiding)")
            return VerifiedRead(sn=requested_sn, status="never-allocated",
                                proof_kind=AccumulatorFrontierProof.kind)
        raise VerificationError(f"unrecognized proof object: {proof!r}")
