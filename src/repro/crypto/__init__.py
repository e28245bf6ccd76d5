"""Cryptographic substrate for the Strong WORM reproduction.

Everything the WORM protocol signs or hashes flows through this package:

* :mod:`repro.crypto.numtheory` — primality / modular arithmetic,
* :mod:`repro.crypto.rsa` — from-scratch RSA (PKCS#1 v1.5-style),
* :mod:`repro.crypto.hashing` — the VR data tree (root and record paths)
  and incremental hashing,
* :mod:`repro.crypto.hmac_scheme` — HMAC witnessing for extreme bursts,
* :mod:`repro.crypto.envelope` — typed signed statements (splice-proof),
* :mod:`repro.crypto.keys` — signing keys, lifetimes, the regulatory CA,
* :mod:`repro.crypto.merkle` — the Merkle-tree baseline the paper replaces,
* :mod:`repro.crypto.accumulator` — dynamic RSA accumulator (the third
  pluggable authentication backend).  Only the trapdoor-free pieces are
  re-exported here: :class:`TrapdoorAccumulator` stays confined to the
  SCPU enclosure (wormlint W001) and must be imported from its home
  module by hardware code.
"""

from repro.crypto.accumulator import (
    PRIME_BITS,
    WitnessDirectory,
    hash_to_prime,
    verify_membership,
)
from repro.crypto.chacha import ChaCha20, chacha20_block, chacha20_xor
from repro.crypto.envelope import Envelope, Purpose, SignedEnvelope
from repro.crypto.hashing import (
    DataTree,
    IncrementalMultisetHash,
    chained_hash,
    data_tree,
    digest,
    hexdigest,
    path_root,
)
from repro.crypto.hmac_scheme import HmacScheme
from repro.crypto.keys import (
    Certificate,
    CertificateAuthority,
    SigningKey,
    security_lifetime,
)
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.rsa import (
    RsaKeyPair,
    RsaPrivateKey,
    RsaPublicKey,
    SignatureError,
    generate_keypair,
)

__all__ = [
    "PRIME_BITS",
    "WitnessDirectory",
    "hash_to_prime",
    "verify_membership",
    "ChaCha20",
    "chacha20_block",
    "chacha20_xor",
    "Envelope",
    "Purpose",
    "SignedEnvelope",
    "DataTree",
    "IncrementalMultisetHash",
    "chained_hash",
    "data_tree",
    "digest",
    "hexdigest",
    "path_root",
    "HmacScheme",
    "Certificate",
    "CertificateAuthority",
    "SigningKey",
    "security_lifetime",
    "MerkleProof",
    "MerkleTree",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "SignatureError",
    "generate_keypair",
]
