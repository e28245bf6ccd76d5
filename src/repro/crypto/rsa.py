"""From-scratch RSA signatures (PKCS#1 v1.5-style) for the WORM layer.

The SCPU in the paper maintains two private signature keys:

* ``s`` — used for VRD ``metasig``/``datasig`` and window-bound signatures,
* ``d`` — used for deletion proofs ``S_d(SN)``.

Clients hold the matching public keys (via regulatory-CA certificates) and
verify every proof the untrusted main CPU presents.  This module provides
the underlying primitive: deterministic, hash-then-pad RSA signing with
CRT acceleration, plus key (de)serialization so keys survive migration.

Private-key operations run in batches, and each batch's two CRT halves
run at once: the q-halves in the caller, the p-halves in a helper
interpreter (:class:`_PowLane`), because the built-in ``pow`` holds the
interpreter lock and a thread could not overlap them.  A batch whose
p-halves are too short to be worth the trip computes both halves in the
caller.  The lane changes wall-clock time only; every result is checked
against the public key before it is released, so a wrong half can cost
a batch of signatures but never produce a wrong one.

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
from typing import List, Optional, Sequence, Tuple

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

#: One modular exponentiation, ``(base, exponent, modulus)``.
Pow = Tuple[int, int, int]


class _PowLane:
    """A helper interpreter that computes one batch of ``pow`` while the
    caller computes another.

    The helper is stateless: each request is one line of hex ``base
    exponent modulus``, each answer one line of hex.  A batch travels as
    one message, a run of request lines in one write.  The helper is
    launched on first use, never at import, and imports nothing from this
    package.  One lane serves the whole process: cores belong to the
    machine, not to a key or a card, and cards have no close hook to stop
    a helper of their own.

    A message goes to the helper only when its far moduli add up to at
    least :attr:`MIN_BITS` bits: one half of a 1024-bit key, or the two
    halves of a 512-bit key's signature pair.  A lone half mod a shorter
    prime (about 0.2 ms for the 256-bit primes of a 512-bit key) takes
    about as long as waking an idle helper, so the lane would save little
    and make each signature's cost depend on the scheduler; both halves
    are computed here.

    A long batch goes out in messages of at most :attr:`ANSWER_BYTES` of
    answers.  A pipe holds at least that much, so the helper never
    blocks writing the answers to one message while the caller is still
    writing its requests.

    After each answer the helper polls its input for :attr:`POLL_S`
    before it blocks.  A helper that blocks at once lets its core go idle,
    and on a virtual machine an idle core can take milliseconds to be
    woken; the next request of a burst of signatures usually comes well
    within the poll.

    The caller computes the near halves, then waits for the helper's
    answers, polling as the helper does: at most as long as one of its
    own halves took for the last message of a batch, as long as all of
    them took for an earlier one.  A helper that has not answered by
    then may take milliseconds more, so the caller computes the far
    halves still missing itself, last first, and takes each answer that
    arrives meanwhile.  Answers still owed are read and discarded before
    the next message, and none is sent while any is owed.  When the
    helper cannot be launched or has died, the far halves are computed
    here for the rest of the process's life.
    """

    #: Bits the far moduli of one message must add up to before it goes
    #: to the helper (one prime of a 1024-bit key, two of a 512-bit key).
    MIN_BITS = 512

    #: Seconds the helper polls its input after an answer before blocking.
    POLL_S = 0.002

    #: Bytes of answers one message may be owed: POSIX lets a pipe hold
    #: at least ``PIPE_BUF`` bytes, so the helper's answers to one
    #: message always fit in its output pipe.
    ANSWER_BYTES = getattr(select, "PIPE_BUF", 512)

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
        #: Answers to the last message sent that have not been read yet.
        self._owed = 0
        #: Bytes read from the helper and not yet consumed.
        self._inbox = b""

    def pow_pairs(self, pairs: Sequence[Tuple[Pow, Pow]]
                  ) -> List[Tuple[int, int]]:
        """``(pow(*far), pow(*near))`` for each pair, in order, with the
        far halves computed by the helper in messages that qualify."""
        messages: List[List[Tuple[Pow, Pow]]] = []
        room = 0
        for pair in pairs:
            size = pair[0][2].bit_length() // 4 + 2  # hex digits + newline
            if not messages or size > room:
                messages.append([])
                room = self.ANSWER_BYTES
            messages[-1].append(pair)
            room -= size
        results: List[Tuple[int, int]] = []
        for index, message in enumerate(messages):  # wormlint: disable=W009 - messages to the helper's pipe, not card crossings
            results += self._pow_message(message,
                                         last=index == len(messages) - 1)
        return results

    def _pow_message(self, pairs: List[Tuple[Pow, Pow]],
                     last: bool) -> List[Tuple[int, int]]:
        """One message's pairs: the far halves by the helper, when it
        qualifies and the helper can take it, the near halves here."""
        if sum(far[2].bit_length() for far, _ in pairs) >= self.MIN_BITS:
            with self._lock:
                if self._send(b"".join(b"%x %x %x\n" % far
                                       for far, _ in pairs), len(pairs)):
                    try:
                        return self._share(pairs, last)
                    except BaseException:
                        # Its answers may still arrive: never read them as
                        # the answers to a later message.
                        self._shut()
                        raise
        return [(pow(*far), pow(*near)) for far, near in pairs]

    def _share(self, pairs: List[Tuple[Pow, Pow]],
               last: bool) -> List[Tuple[int, int]]:
        """The pairs of a message just sent: the near halves here, then the
        helper's far halves; far halves still missing after the wait are
        computed here, last first, taking each answer that arrives
        meanwhile.  The batch's last message waits at most as long as one
        half took here; an earlier one as long as its near halves took,
        since answers it leaves owed would keep the next message here."""
        count = len(pairs)
        # The clock only bounds a wait; it selects which process
        # computes a value, never the value.
        start = time.perf_counter()  # wormlint: disable=W002
        nears = [pow(*near) for _, near in pairs]
        now = time.perf_counter()  # wormlint: disable=W002
        fars = self._receive(count,
                             now + (now - start) / (count if last else 1))
        here: List[int] = []
        while len(fars) + len(here) < count:  # wormlint: disable=W009 - the helper's pipe, not a card crossing
            here.append(pow(*pairs[count - 1 - len(here)][0]))
            if self._proc is not None:
                fars += self._receive(count - len(fars) - len(here), 0.0)
        return list(zip(fars + here[::-1], nears))

    def close(self) -> None:
        """Stop the helper (also the exit hook); later calls run in-process."""
        with self._lock:
            self._shut()

    def _send(self, request: bytes, count: int) -> bool:
        """Pass one message of *count* requests to the helper, launching it
        on first use; False when there is no helper to pass it to, or it
        still owes answers."""
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
        if self._owed and self._proc is not None:
            self._receive(self._owed, 0.0)  # late answers, discarded
        if self._proc is None or self._owed:
            return False
        view = memoryview(request)
        try:
            # An unbuffered pipe write may take only a part.
            while view:  # wormlint: disable=W009 - writes to the helper's pipe, not a card crossing
                view = view[self._proc.stdin.write(view):]
        except BrokenPipeError:
            self._shut()  # the helper died
            return False
        self._owed = count
        return True

    def _receive(self, limit: int, deadline: float) -> List[int]:
        """The helper's next owed answers, at most *limit* of them: those
        that came by *deadline*, a ``time.perf_counter`` value.  The rest
        stay owed, unless the helper died.

        The wait polls rather than blocks, for the reason the helper
        does: a core left idle can take longer to wake than the rest of
        the wait.
        """
        answers: List[int] = []
        limit = min(limit, self._owed)
        fd = self._proc.stdout.fileno()
        while len(answers) < limit:  # wormlint: disable=W009 - os.read on the helper's pipe, not a card crossing
            while b"\n" not in self._inbox:
                while not select.select([fd], [], [], 0)[0]:
                    if time.perf_counter() >= deadline:  # wormlint: disable=W002
                        self._owed -= len(answers)
                        return answers
                chunk = os.read(fd, 4096)
                if not chunk:
                    self._shut()  # EOF: the helper died
                    return answers
                self._inbox += chunk
            lines = self._inbox.split(b"\n", limit - len(answers))
            self._inbox = lines.pop()
            answers += [int(line, 16) for line in lines]
        self._owed -= len(answers)
        return answers

    def _shut(self) -> None:
        """Close the helper's input, wait for it to exit, then kill it."""
        proc, self._proc = self._proc, None
        self._down = True
        self._owed = 0
        self._inbox = b""
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
    # Derived once from (n, e); not part of the key's identity or repr.
    _fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        blob = f"{self.n:x}:{self.e:x}".encode()
        object.__setattr__(self, "_fingerprint",
                           hashlib.sha256(blob).hexdigest()[:16])

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
        return self._fingerprint

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
    # CRT exponents and coefficient, and the public half, derived once
    # from the fields above; not part of the key's identity, repr or
    # serialized form.
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    qinv: int = field(init=False, repr=False, compare=False)
    public_key: RsaPublicKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "qinv", modinv(self.q, self.p))
        object.__setattr__(self, "public_key",
                           RsaPublicKey(n=self.n, e=self.e, bits=self.bits))

    @property
    def byte_length(self) -> int:
        return (self.bits + 7) // 8

    def sign(self, message: bytes, hash_name: str = "sha256") -> bytes:
        """Produce a deterministic PKCS#1 v1.5 signature on *message*."""
        return self.sign_many([message], hash_name)[0]

    def sign_many(self, messages: Sequence[bytes],
                  hash_name: str = "sha256") -> List[bytes]:
        """:meth:`sign` each of *messages*, as one batch of private
        operations; if any of them fails its check, none is released."""
        encoded = [_bytes_to_int(_pkcs1_pad(_hash(message, hash_name),
                                            hash_name, self.byte_length))
                   for message in messages]
        return [_int_to_bytes(s, self.byte_length)
                for s in self._private_ops(encoded)]

    def _private_ops(self, xs: Sequence[int]) -> List[int]:
        """``x^d mod n`` for each ``x < n``: the CRT halves mod p (in the
        pow lane) and mod q (here), recombined and each checked before
        any is released."""
        halves = _LANE.pow_pairs([((x, self.dp, self.p), (x, self.dq, self.q))
                                  for x in xs])
        results = []
        for x, (sp, sq) in zip(xs, halves):
            s = sq + (self.qinv * (sp - sq)) % self.p * self.q
            # Defend against CRT faults and a wrong lane answer: verify
            # before releasing.
            if pow(s, self.e, self.n) != x:
                raise SignatureError("CRT self-check failed (fault detected)")
            results.append(s)
        return results

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
    r = private._private_ops([c])[0]
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
