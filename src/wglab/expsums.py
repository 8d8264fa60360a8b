"""Complete and prime-indexed exponential sums.

The central object is the unit-group average

    g(a, q; b, r) = phi([q,r])^-1 * sum_{x in U_[q,r]} e(a x^k / q + b x / r),

together with Ramanujan sums, aggregate sums over the linear residue b,
the prime sum S_N(theta, xi) = sum_{p <= N} log(p) e(theta p^k + xi p),
and a brute-force counter for the small power-sum systems that control
mean values of S_N.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, log
from typing import Union

import numpy as np

from .errors import InputError, SizeLimitError
from .numtheory import euler_phi, mobius, sieve_primes, units

Real = Union[float, Fraction]


@dataclass(frozen=True)
class GSumQuery:
    """Arguments of g(a, q; b, r) at degree k.

    ``g_sum`` accepts arbitrary a, b and reduces them mod q, r;
    the reduction identities additionally require gcd(a,q) = gcd(b,r) = 1.
    """

    a: int
    q: int
    b: int
    r: int
    k: int

    def __post_init__(self):
        if self.q < 1 or self.r < 1:
            raise InputError("moduli q, r must be >= 1")
        if self.k < 2:
            raise InputError("degree k must be >= 2")


@dataclass(frozen=True)
class PrimeSumQuery:
    """Arguments of S_N(theta, xi) at degree k.

    theta and xi may be floats or exact Fractions; either way phases are
    reduced mod 1 exactly before exponentiation.
    """

    theta: Real
    xi: Real
    k: int
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise InputError("prime sum needs N >= 2")
        if self.k < 1:
            raise InputError("degree k must be >= 1")


@lru_cache(maxsize=None)
def _roots(m: int) -> np.ndarray:
    """All m-th roots of unity e(j/m), j = 0..m-1."""
    return np.exp(2j * np.pi * np.arange(m) / m)


def _pow_mod(x: np.ndarray, k: int, m: int) -> np.ndarray:
    """x**k mod m elementwise, staying inside int64."""
    y = np.ones_like(x)
    base = x % m
    e = k
    while e:
        if e & 1:
            y = (y * base) % m
        base = (base * base) % m
        e >>= 1
    return y


@lru_cache(maxsize=50_000)
def _g_table(q: int, b: int, r: int, k: int) -> np.ndarray:
    """g(a, q; b, r) for every residue a mod q, indexed by a; read-only.

    Buckets the phases e(b x / r) of the units x mod [q,r] by x^k mod q;
    the sum over each bucket against e(a j / q) is one inverse DFT.
    """
    x = units(lcm(q, r))
    phases = _roots(r)[(b * x) % r]
    j = _pow_mod(x, k, q)
    buckets = np.bincount(j, phases.real, q) + 1j * np.bincount(j, phases.imag, q)
    table = np.fft.ifft(buckets) * (q / len(x))
    table.flags.writeable = False
    return table


def g_sum(query: GSumQuery) -> complex:
    """g(a, q; b, r), read from the table of every a mod q."""
    return complex(_g_table(query.q, query.b % query.r, query.r, query.k)[query.a % query.q])


def g_via_lemma(query: GSumQuery) -> complex:
    """g(a, q; b, r) computed through its reduction to modulus q.

    With d = gcd(q, r), q0 = q/d, r0 = r/d: the sum vanishes when
    gcd(r0, q) > 1, and otherwise equals
    mu(r0)/phi(r0) * g(a*r0^k, q; b*q0, q).  Requires coprime inputs.
    """
    a, q, b, r, k = query.a, query.q, query.b, query.r, query.k
    if gcd(a, q) != 1 or gcd(b, r) != 1:
        raise InputError("reduction identity needs gcd(a,q) = gcd(b,r) = 1")
    d = gcd(q, r)
    q0, r0 = q // d, r // d
    if gcd(r0, q) > 1:
        return 0j
    factor = mobius(r0) / euler_phi(r0)
    return factor * complex(_g_table(q, (b * q0) % q, q, k)[(a * pow(r0, k, q)) % q])


def ramanujan_sum(q: int, m: int) -> float:
    """c_q(m) = sum over units x mod q of e(m x / q); always real."""
    if q < 1:
        raise InputError("modulus q must be >= 1")
    x = units(q)
    val = _roots(q)[(m * x) % q].sum()
    return float(val.real)


@lru_cache(maxsize=50_000)
def _g_over_a(q: int, b: int, r: int, k: int) -> np.ndarray:
    """g(a, q; b, r) for every a in U_q, aligned with units(q).

    Built from an uncached ``_g_table``: the singular series reads only
    this table, so a cached full table would never be read again.
    """
    return _g_table.__wrapped__(q, b, r, k)[units(q)]


def aggregate_g(a: int, q: int, r: int, u: int, k: int) -> complex:
    """sum over b in U_r of g(a, q; b, r) e(-u b / r)."""
    if gcd(a, q) != 1:
        raise InputError("aggregate sum needs gcd(a,q) = 1")
    bs = units(r)
    row = np.array([_g_table(q, int(b), r, k)[a % q] for b in bs])
    phases = _roots(r)[(-u * bs) % r]
    return complex((row * phases).sum())


def _exact_frac(value: Real) -> Fraction:
    """The input as an exact fraction; floats convert losslessly."""
    f = Fraction(value)
    return f - (f.numerator // f.denominator)


def prime_exp_sum(query: PrimeSumQuery) -> complex:
    """S_N(theta, xi) = sum_{p <= N} log(p) e(theta p^k + xi p).

    Phase fractions are computed in exact integer arithmetic from the
    (binary) rational inputs, so no precision is lost for large p^k.
    """
    th = _exact_frac(query.theta)
    xi = _exact_frac(query.xi)
    tn, td = th.numerator, th.denominator
    xn, xd = xi.numerator, xi.denominator
    k = query.k
    primes = sieve_primes(query.N)
    phases = np.empty(len(primes))
    weights = np.empty(len(primes))
    for i, p in enumerate(primes):
        p = int(p)
        phases[i] = ((tn * p**k) % td) / td + ((xn * p) % xd) / xd
        weights[i] = log(p)
    return complex((weights * np.exp(2j * np.pi * phases)).sum())


def chebyshev_theta(N: int) -> float:
    """theta(N) = sum of log p over primes p <= N."""
    if N < 2:
        return 0.0
    primes = sieve_primes(N)
    return float(np.log(primes.astype(np.float64)).sum())


def count_vinogradov_system(N: int, s: int, k: int) -> int:
    """Count 2s-tuples 1 <= x, y <= N with equal degree-k and linear power sums.

    Pure enumeration; refuses anything beyond N <= 30, s <= 3.
    """
    if N < 1 or s < 1 or k < 1:
        raise InputError("need N, s, k >= 1")
    if N > 30 or s > 3:
        raise SizeLimitError("brute-force counter is limited to N <= 30, s <= 3")
    buckets: dict[tuple[int, int], int] = {}
    for x in product(range(1, N + 1), repeat=s):
        key = (sum(v**k for v in x), sum(x))
        buckets[key] = buckets.get(key, 0) + 1
    return sum(c * c for c in buckets.values())
