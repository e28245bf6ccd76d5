"""Number-theoretic primitives backing the from-scratch RSA implementation.

The Strong WORM prototype relies on RSA signatures issued by the secure
coprocessor (metasig/datasig in the VRD, deletion proofs, window-bound
signatures).  No third-party crypto library is assumed; everything needed
for RSA key generation and CRT-accelerated signing is implemented here:

* fast modular exponentiation (``pow`` built-in, wrapped for clarity),
* extended Euclid and modular inverses,
* deterministic and probabilistic (Miller-Rabin) primality testing,
* random prime generation with trial division pre-screening.

All functions operate on Python ``int`` values, which are arbitrary
precision, so 512/1024/2048-bit moduli pose no representation issues.
"""

from __future__ import annotations

import math
import secrets
from typing import Tuple

__all__ = [
    "egcd",
    "modinv",
    "is_probable_prime",
    "generate_prime",
    "random_odd_int",
    "SMALL_PRIMES",
]


def _sieve(limit: int) -> Tuple[int, ...]:
    """Return all primes below *limit* via the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, limit, i))
    return tuple(i for i, f in enumerate(flags) if f)


#: Small primes used to pre-screen candidates before Miller-Rabin.
SMALL_PRIMES: Tuple[int, ...] = _sieve(2048)


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.
    Iterative to avoid recursion limits on large operands.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    """Return the multiplicative inverse of *a* modulo *m*.

    Raises :class:`ValueError` when ``gcd(a, m) != 1`` (no inverse exists).
    The built-in ``pow`` computes it natively; :func:`egcd` is for callers
    that need the Bézout coefficients themselves.
    """
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(
            f"{a} has no inverse modulo {m} (gcd={math.gcd(a, m)})") from None


def _miller_rabin_witness(a: int, d: int, r: int, n: int) -> bool:
    """Return True when *a* witnesses the compositeness of *n*.

    ``n - 1 == d * 2**r`` with *d* odd.
    """
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Composite numbers are rejected with probability at least
    ``1 - 4**-rounds``; 40 rounds drives the error probability far below
    any practical concern.  Small inputs are handled exactly through the
    pre-computed prime table.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Decompose n - 1 = d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        if _miller_rabin_witness(a, d, r, n):
            return False
    return True


def random_odd_int(bits: int) -> int:
    """Return a uniformly random odd integer with exactly *bits* bits.

    The two top bits are forced to 1 so the product of two such primes
    has exactly ``2 * bits`` bits — required so that an "n-bit RSA key"
    really has an n-bit modulus.
    """
    if bits < 3:
        raise ValueError("need at least 3 bits for an odd integer")
    candidate = secrets.randbits(bits)
    candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
    return candidate


def generate_prime(bits: int, rounds: int = 40) -> int:
    """Generate a random prime with exactly *bits* bits.

    Candidates are screened by trial division against :data:`SMALL_PRIMES`
    before the (comparatively expensive) Miller-Rabin rounds, which skips
    roughly 80% of composites almost for free.
    """
    while True:
        candidate = random_odd_int(bits)
        if any(candidate % p == 0 for p in SMALL_PRIMES if p * p <= candidate):
            continue
        if is_probable_prime(candidate, rounds=rounds):
            return candidate
