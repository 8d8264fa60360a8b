"""Elementary arithmetic substrate: primes, multiplicative functions, unit groups."""

from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import InputError

# Above this bound the sieve switches to fixed-size segments so memory
# stays proportional to the segment, not the limit.
_SEGMENT_THRESHOLD = 10_000_000
_SEGMENT_SIZE = 10_000_000


def _dense_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes up to ``limit``, ascending, as int64; segmented above 10^7 to bound memory."""
    if limit < 2:
        raise InputError("prime sieve needs limit >= 2")
    if limit <= _SEGMENT_THRESHOLD:
        return _dense_sieve(limit)

    base = _dense_sieve(isqrt(limit))
    chunks = [base]
    lo = isqrt(limit) + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT_SIZE - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start > hi:
                continue
            flags[start - lo :: p] = False
        chunks.append(np.flatnonzero(flags).astype(np.int64) + lo)
        lo = hi + 1
    return np.concatenate(chunks)


def factorize(m: int) -> list[tuple[int, int]]:
    """Trial-division factorization, returned as (prime, exponent) pairs."""
    if m < 1:
        raise InputError("factorize needs m >= 1")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(m: int) -> int:
    """Euler's totient, phi(1) = 1."""
    if m < 1:
        raise InputError("euler_phi needs m >= 1")
    val = 1
    for p, e in factorize(m):
        val *= (p - 1) * p ** (e - 1)
    return val


def mobius(m: int) -> int:
    """Moebius function: (-1)^(number of prime factors) on squarefree m, else 0."""
    if m < 1:
        raise InputError("mobius needs m >= 1")
    val = 1
    for _, e in factorize(m):
        if e > 1:
            return 0
        val = -val
    return val


def divisor_count(m: int) -> int:
    """Number of positive divisors of m."""
    if m < 1:
        raise InputError("divisor_count needs m >= 1")
    val = 1
    for _, e in factorize(m):
        val *= e + 1
    return val


@lru_cache(maxsize=4096)
def units(q: int) -> np.ndarray:
    """Residues coprime to q, ascending, as int64; [0] for q = 1 (phi(1) = 1).

    Arrays are shared between callers, so they are read-only.
    """
    if q < 1:
        raise InputError("units needs q >= 1")
    if q == 1:
        elements = np.array([0], dtype=np.int64)
    else:
        r = np.arange(q, dtype=np.int64)
        elements = r[np.gcd(r, q) == 1]
    elements.flags.writeable = False
    return elements


def int_kth_root(x: int, k: int) -> int:
    """Largest integer r with r**k <= x (x >= 0, k >= 1)."""
    if x < 0 or k < 1:
        raise InputError("int_kth_root needs x >= 0 and k >= 1")
    if x == 0:
        return 0
    if k == 1:
        return x
    if k == 2:
        return isqrt(x)
    r = int(round(x ** (1.0 / k)))
    while r > 0 and r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r
