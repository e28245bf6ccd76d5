"""From-scratch RSA signatures (PKCS#1 v1.5-style) for the WORM layer.

The SCPU in the paper maintains two private signature keys:

* ``s`` — used for VRD ``metasig``/``datasig`` and window-bound signatures,
* ``d`` — used for deletion proofs ``S_d(SN)``.

Clients hold the matching public keys (via regulatory-CA certificates) and
verify every proof the untrusted main CPU presents.  This module provides
the underlying primitive: deterministic, hash-then-pad RSA signing with
CRT acceleration, plus key (de)serialization so keys survive migration.

Every private-key operation with a modulus of 1024 bits or more runs
its two CRT halves at once: the q-half in the caller, the p-half in a
helper interpreter (:class:`_PowLane`), because the built-in ``pow``
holds the interpreter lock and a thread could not overlap them.  Shorter
keys compute both halves in the caller.  The lane changes wall-clock
time only; the result is checked against the public key before it is
released, so a wrong half can cost a signature but never produce a
wrong one.

Security notes
--------------
This is a *reproduction-grade* implementation: the math is real (forging a
signature genuinely requires breaking RSA for the chosen modulus size) but
it has had no side-channel hardening.  The paper deliberately uses 512-bit
keys as *short-term* signatures (breakable in tens of minutes by a
determined adversary, per its §4.3) and ≥1024-bit keys for durable
signatures; both are supported, and the key object records its intended
security lifetime so the deferred-strengthening machinery can reason about
expiry.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.errors import SignatureError
from repro.crypto.numtheory import generate_prime, modinv

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "RsaKeyPair",
    "generate_keypair",
    "kem_encapsulate",
    "kem_decapsulate",
    "SignatureError",
]

#: Public exponent used for every generated key (standard choice).
PUBLIC_EXPONENT = 65537

# DigestInfo prefixes (DER) for PKCS#1 v1.5 hash identification.
_DIGEST_INFO_PREFIX = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
}


def _int_to_bytes(value: int, length: int) -> bytes:
    return value.to_bytes(length, "big")


def _bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def _pkcs1_pad(digest: bytes, hash_name: str, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a message digest.

    Layout: ``0x00 0x01 FF..FF 0x00 DigestInfo || digest``.
    """
    try:
        prefix = _DIGEST_INFO_PREFIX[hash_name]
    except KeyError:
        raise SignatureError(f"unsupported hash for PKCS#1 padding: {hash_name}")
    t = prefix + digest
    if em_len < len(t) + 11:
        raise SignatureError(
            f"modulus too small ({em_len} bytes) for {hash_name} signature"
        )
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def _hash(message: bytes, hash_name: str) -> bytes:
    return hashlib.new(hash_name, message).digest()


#: Seconds the exit hook waits for the helper to leave before killing it.
_LANE_EXIT_WAIT_S = 2.0


class _PowLane:
    """A helper interpreter that computes one ``pow`` while the caller
    computes another.

    The helper is stateless: each request is one line of hex ``base
    exponent modulus``, each answer one line of hex.  It is launched on
    first use, never at import, and imports nothing from this package.
    One lane serves the whole process: cores belong to the machine, not
    to a key or a card, and cards have no close hook to stop a helper of
    their own.

    Halves mod a prime shorter than :attr:`MIN_BITS` are both computed
    here.  Such a half (about 0.2 ms for the 256-bit primes of a 512-bit
    key) takes about as long as waking an idle helper, so the lane would
    save little and make each signature's cost depend on the scheduler.

    After each answer the helper polls its input for :attr:`POLL_S`
    before it blocks.  A helper that blocks at once lets its core go idle,
    and on a virtual machine an idle core can take milliseconds to be
    woken; the next request of a burst of signatures usually comes well
    within the poll.

    The caller waits for an answer, polling as the helper does, at most
    as long as its own half took: a helper that has not been scheduled in
    that time may take milliseconds more, while computing the far half
    here costs about what the near half did.  A late answer is discarded
    when it arrives, and no request is sent while one is still owed.
    When the helper cannot be launched or has died, the far half is
    computed here for the rest of the process's life.
    """

    #: Bits of the smallest prime modulus whose halves use the helper (the
    #: primes of a 1024-bit key).
    MIN_BITS = 512

    #: Seconds the helper polls its input after an answer before blocking.
    POLL_S = 0.002

    #: The helper's whole program.  It reads its input with ``os.read``,
    #: not a buffered reader, so ``select`` sees every byte not yet read.
    PROGRAM = (
        "import os, select, time\n"
        "inbox = b''\n"
        "while True:\n"
        f"    until = time.monotonic() + {POLL_S!r}\n"
        "    while not select.select([0], [], [], 0)[0]:\n"
        "        if time.monotonic() >= until:\n"
        "            break\n"
        "    chunk = os.read(0, 4096)\n"
        "    if not chunk:\n"
        "        break\n"
        "    inbox += chunk\n"
        "    while b'\\n' in inbox:\n"
        "        line, _, inbox = inbox.partition(b'\\n')\n"
        "        b, e, m = (int(x, 16) for x in line.split())\n"
        "        os.write(1, b'%x\\n' % pow(b, e, m))\n"
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        # select() waits on pipes only on POSIX; elsewhere every half is
        # computed in-process.
        self._down = os.name != "posix"
        #: An answer is still owed for a request the caller stopped waiting for.
        self._late = False
        #: Bytes read from the helper and not yet consumed.
        self._inbox = b""

    def pow_pair(self, far: Tuple[int, int, int],
                 near: Tuple[int, int, int]) -> Tuple[int, int]:
        """``(pow(*far), pow(*near))``, with *far* computed by the helper
        when its modulus has at least :attr:`MIN_BITS` bits."""
        if far[2].bit_length() < self.MIN_BITS:
            return pow(*far), pow(*near)
        with self._lock:
            if self._send(b"%x %x %x\n" % far):
                try:
                    # The clock only bounds a wait; it selects which process
                    # computes a value, never the value.
                    start = time.perf_counter()  # wormlint: disable=W002
                    near_value = pow(*near)
                    # Wait at most as long again as the near half took.
                    far_value = self._receive(
                        2 * time.perf_counter() - start)  # wormlint: disable=W002
                except BaseException:
                    # Its answer may still arrive: never read it as the
                    # answer to a later request.
                    self._shut()
                    raise
                if far_value is None:
                    far_value = pow(*far)
                return far_value, near_value
        return pow(*far), pow(*near)

    def close(self) -> None:
        """Stop the helper (also the exit hook); later calls run in-process."""
        with self._lock:
            self._shut()

    def _send(self, request: bytes) -> bool:
        """Pass *request* to the helper, launching it on first use; False
        when there is no helper to pass it to, or it still owes an answer."""
        if self._proc is None and not self._down:
            try:
                self._proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", self.PROGRAM],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, bufsize=0)
            except OSError:
                self._down = True
            else:
                atexit.register(self.close)
        if self._proc is None:
            return False
        if self._late and self._receive(0.0) is None:
            return False
        try:
            self._proc.stdin.write(request)
        except BrokenPipeError:
            self._shut()  # the helper died
            return False
        return True

    def _receive(self, deadline: float) -> Optional[int]:
        """The helper's next answer, or None when it has not come by
        *deadline*, a ``time.perf_counter`` value (the answer is then
        owed), or the helper died.

        The wait polls rather than blocks, for the reason the helper
        does: a core left idle can take longer to wake than the rest of
        the wait.
        """
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._inbox:  # wormlint: disable=W009 - os.read on the helper's pipe, not a card crossing
            while not select.select([fd], [], [], 0)[0]:
                if time.perf_counter() >= deadline:  # wormlint: disable=W002
                    self._late = True
                    return None
            chunk = os.read(fd, 4096)
            if not chunk:
                self._shut()  # EOF: the helper died
                return None
            self._inbox += chunk
        line, _, self._inbox = self._inbox.partition(b"\n")
        self._late = False
        return int(line, 16)

    def _shut(self) -> None:
        """Close the helper's input, wait for it to exit, then kill it."""
        proc, self._proc = self._proc, None
        self._down = True
        if proc is None:
            return
        proc.stdin.close()
        try:
            proc.wait(timeout=_LANE_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        # Closed last, so an answer still being written lands in the pipe.
        proc.stdout.close()


#: The process's one pow lane.
_LANE = _PowLane()


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)`` with the declared modulus size in bits."""

    n: int
    e: int
    bits: int

    @property
    def byte_length(self) -> int:
        """Length in bytes of the modulus (and of every signature)."""
        return (self.bits + 7) // 8

    def verify(self, message: bytes, signature: bytes, hash_name: str = "sha256") -> bool:
        """Return True iff *signature* is a valid signature on *message*.

        Verification never raises for malformed signatures — an invalid or
        garbage signature simply returns False, which is what the WORM
        client code wants when deciding whether a proof holds.
        """
        if len(signature) != self.byte_length:
            return False
        s = _bytes_to_int(signature)
        if s >= self.n:
            return False
        em = _int_to_bytes(pow(s, self.e, self.n), self.byte_length)
        try:
            expected = _pkcs1_pad(_hash(message, hash_name), hash_name, self.byte_length)
        except SignatureError:
            return False
        return em == expected

    def fingerprint(self) -> str:
        """Short stable identifier for this key (hex SHA-256 prefix)."""
        blob = f"{self.n:x}:{self.e:x}".encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {"n": f"{self.n:x}", "e": self.e, "bits": self.bits}

    @classmethod
    def from_dict(cls, data: dict) -> "RsaPublicKey":
        return cls(n=int(data["n"], 16), e=int(data["e"]), bits=int(data["bits"]))


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT components for ~4x faster signing."""

    n: int
    e: int
    d: int
    p: int
    q: int
    bits: int
    # CRT exponents and coefficient, derived once from the fields above;
    # not part of the key's identity, repr or serialized form.
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    qinv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "qinv", modinv(self.q, self.p))

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e, bits=self.bits)

    def sign(self, message: bytes, hash_name: str = "sha256") -> bytes:
        """Produce a deterministic PKCS#1 v1.5 signature on *message*."""
        em = _pkcs1_pad(_hash(message, hash_name), hash_name, self.byte_length)
        return _int_to_bytes(self._private_op(_bytes_to_int(em)),
                             self.byte_length)

    def _private_op(self, x: int) -> int:
        """``x^d mod n`` for ``x < n``: the CRT halves mod p (in the pow
        lane) and mod q (here), recombined and checked before release."""
        sp, sq = _LANE.pow_pair((x, self.dp, self.p), (x, self.dq, self.q))
        h = (self.qinv * (sp - sq)) % self.p
        s = sq + h * self.q
        # Defend against CRT faults and a wrong lane answer: verify before
        # releasing.
        if pow(s, self.e, self.n) != x:
            raise SignatureError("CRT self-check failed (fault detected)")
        return s

    def to_dict(self) -> dict:
        return {
            "n": f"{self.n:x}",
            "e": self.e,
            "d": f"{self.d:x}",
            "p": f"{self.p:x}",
            "q": f"{self.q:x}",
            "bits": self.bits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RsaPrivateKey":
        return cls(
            n=int(data["n"], 16),
            e=int(data["e"]),
            d=int(data["d"], 16),
            p=int(data["p"], 16),
            q=int(data["q"], 16),
            bits=int(data["bits"]),
        )


def kem_encapsulate(public: RsaPublicKey) -> Tuple[bytes, bytes]:
    """RSA-KEM (ISO 18033-2 style): derive a shared secret for *public*.

    Picks a uniform ``r < n``, sends ``c = r^e mod n``, and both sides
    derive ``key = SHA-256(r)``.  Unlike padding-based RSA encryption,
    RSA-KEM has no structured plaintext to oracle-attack — the right
    primitive for the enclave-to-enclave key transport used by encrypted
    migration.  Returns ``(ciphertext, shared_secret)``.
    """
    import secrets as _secrets
    n_len = public.byte_length
    while True:
        r = _secrets.randbelow(public.n)
        if r > 1:
            break
    c = pow(r, public.e, public.n)
    secret = hashlib.sha256(_int_to_bytes(r, n_len)).digest()
    return _int_to_bytes(c, n_len), secret


def kem_decapsulate(private: RsaPrivateKey, ciphertext: bytes) -> bytes:
    """Recover the RSA-KEM shared secret with the private key."""
    if len(ciphertext) != private.byte_length:
        raise SignatureError("KEM ciphertext length mismatch")
    c = _bytes_to_int(ciphertext)
    if c >= private.n:
        raise SignatureError("KEM ciphertext out of range")
    r = private._private_op(c)
    return hashlib.sha256(_int_to_bytes(r, private.byte_length)).digest()


@dataclass(frozen=True)
class RsaKeyPair:
    """Convenience bundle of a private key and its public half."""

    private: RsaPrivateKey

    @property
    def public(self) -> RsaPublicKey:
        return self.private.public_key

    @property
    def bits(self) -> int:
        return self.private.bits


def generate_keypair(bits: int, e: int = PUBLIC_EXPONENT,
                     _max_attempts: int = 64) -> RsaKeyPair:
    """Generate an RSA key pair with a modulus of exactly *bits* bits.

    *bits* must be even and at least 256 (a 256-bit modulus is far too
    small for real security but keeps unit tests fast; production callers
    use 512 for short-lived and 1024/2048 for durable signatures, matching
    the paper's §4.3 parameters).
    """
    if bits % 2 != 0:
        raise ValueError("modulus size must be even")
    if bits < 384:
        # 384 bits is the smallest modulus that fits a SHA-1 PKCS#1 v1.5
        # encoding; anything smaller cannot sign at all.
        raise ValueError("refusing to generate keys below 384 bits")
    half = bits // 2
    for _ in range(_max_attempts):
        p = generate_prime(half)
        q = generate_prime(half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(e, phi)
        except ValueError:
            continue  # e not coprime with phi; rare, retry
        private = RsaPrivateKey(n=n, e=e, d=d, p=p, q=q, bits=bits)
        return RsaKeyPair(private=private)
    raise SignatureError("failed to generate RSA key pair")
