"""Prime points on diagonal surfaces and the approximation of their Fourier transform.

Central objects: the admissible progressions for x_1^k + ... + x_n^k = lam
over primes, the weighted representation measure, its Fourier transform,
the truncated singular series, and the main/error split of the
approximation formula at a frequency point.
"""

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, gcd, log
from typing import Optional

import numpy as np

from .arcs import _arc_center
from .errors import InputError, NumericError, UndefinedMeasureError
from .expsums import _g_over_a, _pow_mod, _roots
from .numtheory import factorize, int_kth_root, sieve_primes, units
from .oscint import SurfaceQuery, singular_integral, surface_transform


@dataclass(frozen=True)
class ProblemInstance:
    """Degree k, dimension n, and the target value lam."""

    k: int
    n: int
    lam: int

    def __post_init__(self):
        if self.k < 2 or self.n < 2 or self.lam < 1:
            raise InputError("need k >= 2, n >= 2, lam >= 1")


@dataclass(frozen=True)
class GammaVerdict:
    """Admissibility verdict; ``exact`` marks the explicitly known progressions."""

    member: bool
    exact: bool

    def label(self) -> str:
        tag = "member" if self.member else "non_member"
        return tag if self.exact else f"heuristic_{tag}"


@lru_cache(maxsize=None)
def _local_unit_sum_masks(k: int, n: int) -> tuple:
    """(modulus, admissible-residue mask) pairs for every prime p <= k + 1.

    The modulus is p^(v_p(k) + 2), one power higher at p = 2; the mask
    marks residues reachable as a sum of n k-th powers of units.  Each of
    the n steps is a cyclic convolution of indicator arrays by FFT, whose
    integer counts it thresholds at 1/2: the roundoff, about
    log2(m) eps m, stays far below that.  The steps stop once every
    residue is reached.
    """
    pairs = []
    v_p = dict(factorize(k))
    for p in sieve_primes(k + 1).tolist():
        gam = v_p.get(p, 0) + 2 + (1 if p == 2 else 0)
        m = p**gam
        kth_powers = np.zeros(m)
        kth_powers[_pow_mod(units(m), k, m)] = 1.0
        spectrum = np.fft.rfft(kth_powers)
        reach = np.zeros(m, dtype=bool)
        reach[0] = True
        for _ in range(n):
            if reach.all():
                break
            reach = np.fft.irfft(np.fft.rfft(reach) * spectrum, m) > 0.5
        pairs.append((m, reach))
    return tuple(pairs)


# even-k (k, n) whose unit-sum masks are a known progression: 5 mod 24 and 17 mod 240
_EXACT_PROGRESSIONS = {(2, 5), (4, 17)}


def gamma_member_mask(k: int, n: int, lams: np.ndarray) -> np.ndarray:
    """Admissibility of every lam in an array for (k, n).

    Exact for odd k (parity), and for (k, n) = (2, 5) and (4, 17), where
    the unit-sum masks are the progressions 5 mod 24 and 17 mod 240.  Every
    other case is a congruence-solubility heuristic over sums of unit k-th
    powers modulo small prime powers.
    """
    lams = np.asarray(lams, dtype=np.int64)
    if k % 2 == 1:
        return (lams - n) % 2 == 0
    mask = np.ones(len(lams), dtype=bool)
    for m, reach in _local_unit_sum_masks(k, n):
        mask &= reach[lams % m]
    return mask


def gamma_membership(instance: ProblemInstance) -> GammaVerdict:
    """Admissibility of lam for (k, n), labeled heuristic outside the exact cases."""
    k, n = instance.k, instance.n
    member = bool(gamma_member_mask(k, n, np.array([instance.lam]))[0])
    return GammaVerdict(member=member, exact=k % 2 == 1 or (k, n) in _EXACT_PROGRESSIONS)


@dataclass(frozen=True)
class SurfaceMeasure:
    """All ordered solutions of x_1^k + ... + x_n^k = lam over the base set.

    ``log_weighted`` marks the prime measure carrying the weight
    prod_i log(x_i); the integer measure carries unit weights.  R is the
    total weight, r the raw solution count.
    """

    instance: ProblemInstance
    representations: np.ndarray
    log_weighted: bool
    weights: np.ndarray = field(repr=False)
    R: float
    r: int

    @classmethod
    def build(cls, instance, representations, log_weighted):
        reps = np.asarray(representations, dtype=np.int64).reshape(-1, instance.n)
        if len(reps) and not ((reps**instance.k).sum(axis=1) == instance.lam).all():
            raise InputError("a representation does not solve the equation")
        if log_weighted:
            weights = np.log(reps.astype(np.float64)).prod(axis=1)
        else:
            weights = np.ones(len(reps))
        return cls(
            instance=instance,
            representations=reps,
            log_weighted=log_weighted,
            weights=weights,
            R=float(weights.sum()),
            r=len(reps),
        )


def _half_sums(powers: np.ndarray, half: int) -> np.ndarray:
    sums = powers.copy()
    for _ in range(half - 1):
        sums = (sums[:, None] + powers[None, :]).ravel()
    return sums


def _decode(flat: np.ndarray, half: int, base: int) -> np.ndarray:
    digits = np.empty((len(flat), half), dtype=np.int64)
    for j in range(half - 1, -1, -1):
        digits[:, j] = flat % base
        flat = flat // base
    return digits


_TABLE_LIMIT = 80_000_000  # entries of the half-sum table


def _check_enumeration(n: int, lam: int, num_values: float) -> None:
    """InputError if the half-sums of ceil(n/2) coordinates overflow int64, or
    if their table over ``num_values`` values (or a lower bound on it) exceeds _TABLE_LIMIT."""
    n_a = (n + 1) // 2
    if n_a * lam > np.iinfo(np.int64).max:
        raise InputError(f"lam = {lam} is too large: half-sums up to {n_a}*lam overflow int64")
    if num_values > 1 and n_a * log(num_values) > log(_TABLE_LIMIT):
        raise InputError("enumeration table too large; reduce lam")


def _mitm_solutions(values: np.ndarray, n: int, k: int, lam: int) -> np.ndarray:
    """All ordered n-tuples from ``values`` whose k-th powers sum to lam.

    Meet in the middle: tabulate the partial sums of the first ceil(n/2)
    coordinates, then join against the complementary sums.
    """
    n_a = (n + 1) // 2
    n_b = n - n_a
    values = np.asarray(values, dtype=np.int64)
    _check_enumeration(n, lam, len(values))
    powers = values**k
    left = _half_sums(powers, n_a)
    order = np.argsort(left, kind="stable")
    left_sorted = left[order]
    right = _half_sums(powers, n_b) if n_b else np.zeros(1, dtype=np.int64)
    targets = lam - right
    lo = np.searchsorted(left_sorted, targets, side="left")
    hi = np.searchsorted(left_sorted, targets, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, n), dtype=np.int64)
    right_idx = np.repeat(np.arange(len(right)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    left_idx = order[starts + offsets]
    cols = [values[_decode(left_idx, n_a, len(values))]]
    if n_b:
        cols.append(values[_decode(right_idx, n_b, len(values))])
    tuples = np.hstack(cols)
    order = np.lexsort(tuple(tuples[:, j] for j in range(n - 1, -1, -1)))
    return tuples[order]


def _primes_to_root(k: int, lam: int) -> np.ndarray:
    """The primes p with p^k <= lam, ascending."""
    root = int_kth_root(lam, k)
    primes = sieve_primes(max(2, root))
    return primes[: np.searchsorted(primes, root, side="right")]


def enumerate_prime_points(instance: ProblemInstance) -> SurfaceMeasure:
    """The log-weighted measure on prime solutions of the degree-k equation.

    An oversized request is refused before sieving: the primes up to
    x = lam^(1/k) number more than x / ln x for x >= 17 (Rosser and
    Schoenfeld, Illinois J. Math. 6, 1962), so that bound is checked first.
    """
    k, n, lam = instance.k, instance.n, instance.lam
    root = int_kth_root(lam, k)
    _check_enumeration(n, lam, root / log(root) if root >= 17 else 0)
    reps = _mitm_solutions(_primes_to_root(k, lam), n, k, lam)
    return SurfaceMeasure.build(instance, reps, log_weighted=True)


def enumerate_integer_points(instance: ProblemInstance) -> SurfaceMeasure:
    """The unit-weighted measure on positive-integer solutions."""
    root = int_kth_root(instance.lam, instance.k)
    _check_enumeration(instance.n, instance.lam, root)  # before the values are allocated
    values = np.arange(1, root + 1, dtype=np.int64)
    reps = _mitm_solutions(values, instance.n, instance.k, instance.lam)
    return SurfaceMeasure.build(instance, reps, log_weighted=False)


def naive_solutions(values, n: int, k: int, lam: int) -> np.ndarray:
    """Plain nested-loop enumeration; the oracle for the split enumeration."""
    from itertools import product

    values = [int(v) for v in values]
    out = [t for t in product(values, repeat=n) if sum(v**k for v in t) == lam]
    return np.asarray(sorted(out), dtype=np.int64).reshape(-1, n)


def omega_hat(measure: SurfaceMeasure, xi) -> complex:
    """Normalized Fourier transform of the measure at the frequency vector xi."""
    if measure.R <= 0:
        raise UndefinedMeasureError("measure has zero mass; transform undefined")
    xi = np.asarray(xi, dtype=float)
    phases = measure.representations @ xi
    vals = np.exp(2j * np.pi * (phases - np.rint(phases)))
    return complex((measure.weights * vals).sum() / measure.R)


BUMP_OUTER = 2.0  # the bump vanishes from |t| = BUMP_OUTER on


def bump(t):
    """Smooth bump: 1 on [-1, 1], 0 outside (-BUMP_OUTER, BUMP_OUTER), a smooth ramp between."""
    t = np.abs(np.asarray(t, dtype=float))
    s = np.clip((t - 1.0) / (BUMP_OUTER - 1.0), 0.0, 1.0)
    out = np.zeros_like(s)
    ramp = (s > 0.0) & (s < 1.0)
    out[ramp] = np.exp(1.0 - 1.0 / (1.0 - s[ramp] ** 2))
    out[s == 0.0] = 1.0
    return out if out.ndim else float(out)


def psi(x) -> float:
    """Product bump prod_i bump(x_i)."""
    return float(np.prod(bump(x)))


@dataclass(frozen=True)
class ApproxParams:
    """Tunables of the approximation formula: scales and truncations."""

    C: float
    N: float
    Qsing: int

    @classmethod
    def for_instance(cls, instance, C=2.0, Qsing=100):
        """Scales for ``instance``: N = lam^(1/k), Q = (log N)^C, series truncated at Qsing."""
        N = instance.lam ** (1.0 / instance.k)
        if not C > 0:
            raise InputError(f"major-arc exponent C (--C) must be > 0, got {C}")
        try:
            log(N) ** C
        except OverflowError:
            raise InputError(f"major-arc exponent C (--C) = {C} overflows Q = log(N)^C") from None
        return cls(C=C, N=N, Qsing=int(Qsing))

    @property
    def Q(self) -> float:
        return log(self.N) ** self.C


_PHASE_BLOCK = 1_000_000  # entries of the phase block of one chunk of lams


def singular_series(k: int, n: int, lams, avec, qvec, Qsing: int) -> list[complex]:
    """Truncated modulus sum of the arithmetic factor at center avec/qvec, for every lam in ``lams``.

    Sums, over q <= Qsing and units a mod q, the phase e(-lam a / q) times
    the product over coordinates of g(a, q; a_i, q_i).  Only the phases
    depend on lam, so one pass over q serves a whole chunk of up to
    _PHASE_BLOCK // Qsing lams: each q reads its units and builds the
    g-product once, and one phase block gives the term of every lam in the
    chunk, added to that lam's total in q order.  The sums carry no error
    figure: no bound on the terms beyond Qsing is computed.
    """
    lams = [int(v) for v in lams]
    avec = [int(v) for v in avec]
    qvec = [int(v) for v in qvec]
    if k < 2 or n < 2 or not all(1 <= lam <= np.iinfo(np.int64).max for lam in lams):
        raise InputError("need k >= 2, n >= 2 and 1 <= lam < 2^63")
    if len(avec) != n or len(qvec) != n:
        raise InputError("avec and qvec must have length n")
    for ai, qi in zip(avec, qvec):
        if qi < 1 or gcd(ai, qi) != 1:
            raise InputError("each center pair (a_i, q_i) must be reduced")
    if Qsing < 1:
        raise InputError("Qsing must be >= 1")
    (first, first_mult), *rest = Counter((ai % qi, qi) for ai, qi in zip(avec, qvec)).items()
    chunk = max(1, _PHASE_BLOCK // Qsing)  # per lam: at most Qsing units at each q
    results = []
    for lo in range(0, len(lams), chunk):
        block = lams[lo : lo + chunk]
        totals = np.zeros(len(block), dtype=complex)
        neg_lams = -np.array(block, dtype=np.int64)[:, None]
        for q in range(1, Qsing + 1):
            us = units(q)
            prod = _g_over_a(q, *first, k) ** first_mult  # a new array: the in-place products spare the table
            for (ai, qi), mult in rest:
                g = _g_over_a(q, ai, qi, k)
                prod *= g if mult == 1 else g**mult  # g**1 would only copy g
            idx = (neg_lams % q) * us
            idx %= q
            totals += np.add.reduce(_roots(q).take(idx) * prod, axis=1)
        results += [complex(t) for t in totals]
    return results


def main_term(measure: SurfaceMeasure, params: ApproxParams, xi) -> complex:
    """Main term of the approximation formula at frequency xi.

    Locates, coordinate by coordinate, the lowest-denominator rational
    a_i/q_i (q_i <= Q), then the nearest, whose bump window contains xi_i;
    if every coordinate has one, evaluates
    (N^(n-k)/R) * G(avec, qvec) * psi((N/Q)(q xi - a)) * ds(N(xi - a/q)),
    and otherwise returns 0.  ds(0) is Dirichlet's closed form
    (`singular_integral`); every other ds comes from `surface_transform`.
    """
    if measure.R <= 0:
        raise UndefinedMeasureError("measure has zero mass")
    inst = measure.instance
    n, k = inst.n, inst.k
    xi = np.asarray(xi, dtype=float)
    if len(xi) != n:
        raise InputError("xi must have length n")
    N, Q = params.N, params.Q
    lam0 = inst.lam / N**k
    hits = [_arc_center(float(x % 1.0), Q, BUMP_OUTER * Q / N) for x in xi]
    if None in hits:
        return 0j
    centers, dvec = zip(*hits)
    qvec = [c.q for c in centers]
    avec = [c.a for c in centers]
    psival = psi([(N / Q) * d for d in dvec])
    if psival == 0.0:
        return 0j
    eta = tuple(N * d / q for d, q in zip(dvec, qvec))
    [series] = singular_series(k, n, [inst.lam], avec, qvec, params.Qsing)
    if any(eta):
        # absolute tolerance: the transform factor is bounded by its zero value,
        # so 1e-5 absolute keeps the main term far below the error-decay scales
        ds = surface_transform(SurfaceQuery(n=n, k=k, lam0=lam0, eta=eta), abs_tol=1e-5).value
    else:
        # ds(0) is the singular integral.  N^k = lam exactly (N = lam^(1/k)), so
        # lam0 is 1 up to rounding: 1 + 2.2e-16 at lam = 4099, which the closed
        # form, defined for lam0 <= 1, would refuse.
        ds = singular_integral(n, k, min(lam0, 1.0))
    return (N ** (n - k) / measure.R) * series * psival * ds


def error_term(measure: SurfaceMeasure, params: ApproxParams, xi) -> complex:
    """Transform minus main term at xi."""
    return omega_hat(measure, xi) - main_term(measure, params, xi)


def hua_series_ratios(k: int, n: int, lams, Rs, Qsing: int = 100) -> list[tuple[complex, float]]:
    """Zero-center series S_trunc and the ratio R / (S_trunc * mu_inf * lam^(n/k - 1)) for each lam.

    ``Rs[i]`` is the weighted count of prime solutions at ``lams[i]``; every
    series comes from one ``singular_series`` pass over q.
    """
    if len(Rs) != len(lams):
        raise InputError("need one weighted count per lam")
    if any(R <= 0 for R in Rs):
        raise UndefinedMeasureError("measure has zero mass")
    mu_inf = singular_integral(n, k, 1.0)
    out = []
    for lam, R, sval in zip(lams, Rs, singular_series(k, n, lams, [0] * n, [1] * n, Qsing)):
        if abs(sval.imag) > 1e-8 * (1.0 + abs(sval)):
            raise NumericError(f"singular series came out non-real at lam = {lam}: {sval!r}")
        out.append((sval, R / (sval.real * mu_inf * lam ** (n / k - 1.0))))
    return out


def hua_ratio(measure: SurfaceMeasure, Qsing: int = 100) -> float:
    """Weighted count over its predicted size S_trunc * mu_inf * lam^(n/k - 1)."""
    inst = measure.instance
    return hua_series_ratios(inst.k, inst.n, [inst.lam], [measure.R], Qsing)[0][1]


# ---------------------------------------------------------------------------
# Whole-range totals on the value axis.  The count, weight, and transform
# numerators of every lam <= lam_max come from n-fold additive convolution
# of single-coordinate arrays indexed by p^k, so block sweeps never
# enumerate solutions lam by lam.
# ---------------------------------------------------------------------------


def _fft_size(length: int) -> int:
    """Smallest 5-smooth length >= length, a fast size for rfft and fft alike."""
    best = 1 << (length - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching length
            best = min(best, p35 << (-(-length // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _range_length(n: int, lam_max: int) -> int:
    """Points that hold the product of ``_value_array``'s ceil(n/2) blocks on [0, lam_max] without wrap-around."""
    return max(1, ceil(n / 2) * lam_max + 1)


# cgroup v2, then v1; read only, never written
_CGROUP_LIMIT_FILES = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _cgroup_memory_limit() -> Optional[int]:
    """The memory limit in the first cgroup file that exists, or None (no file, or v2's "max")."""
    for path in _CGROUP_LIMIT_FILES:
        try:
            with open(path) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        return int(text) if text.isdigit() else None
    return None


def available_memory() -> int:
    """Bytes of physical memory, or the cgroup limit where that is smaller.

    Requests above it are refused with MemoryError, so they end cleanly
    instead of with the process killed.
    """
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return min(memory, _cgroup_memory_limit() or memory)


def check_array_memory(n: int, lam_max: int) -> None:
    """MemoryError if the transform of ``_value_array`` on [0, lam_max] exceeds ``available_memory()``.

    That transform alone holds 16 bytes per point of ``_fft_size(_range_length(n, lam_max))``.
    """
    length = _range_length(n, lam_max)
    memory = available_memory()
    # the first test keeps lengths beyond any transform away from _fft_size, whose loops grow with the digits
    if 16 * length > memory or 16 * _fft_size(length) > memory:
        raise MemoryError(f"arrays on [0, {lam_max}] for n={n} need a transform above {memory} bytes of memory")


def _pair_block(powers: np.ndarray, fills: tuple, lam_max: int) -> np.ndarray:
    """Dense array on [0, lam_max] of one block of one or two coordinates.

    Entry s is the sum over primes with p^k (+ q^k) = s of fill(p) (* fill'(q)).
    Sums above lam_max are dropped: they cannot reach any lam <= lam_max.
    """
    idx, vals = powers, fills[0]
    if len(fills) == 2:
        idx = np.add.outer(powers, powers).ravel()
        vals = np.multiply.outer(fills[0], fills[1]).ravel()
        keep = idx <= lam_max
        idx, vals = idx[keep], vals[keep]
    if np.iscomplexobj(vals):
        return np.bincount(idx, vals.real, lam_max + 1) + 1j * np.bincount(idx, vals.imag, lam_max + 1)
    return np.bincount(idx, vals, lam_max + 1)


def _range_primes(k: int, n: int, lam_max: int) -> np.ndarray:
    """The primes of the whole-range arrays on [0, lam_max], sieved once the range fits in memory."""
    check_array_memory(n, lam_max)
    return _primes_to_root(k, lam_max)


def _value_array(powers: np.ndarray, lam_max: int, fills) -> np.ndarray:
    """Sum over prime solutions of prod_i fills[i](p_i), for every lam <= lam_max.

    ``powers`` holds p^k for each prime p with p^k <= lam_max, and
    ``fills[i]`` coordinate i's value at each of those primes.
    Equal fills are paired with each other first, the leftovers with one
    another, and an odd one stays alone, giving ceil(n/2) blocks.  Each
    distinct block is built exactly (``_pair_block``) and transformed once at
    length ``_fft_size(_range_length(n, lam_max))``; a repeated block
    multiplies in as often as it repeats.  One inverse transform follows.
    """
    groups = {}
    for fill in fills:
        groups.setdefault(fill.tobytes(), []).append(fill)
    blocks, loose = [], []
    for same in groups.values():
        if len(same) >= 2:
            blocks.append(((same[0], same[0]), len(same) // 2))
        if len(same) % 2:
            loose.append(same[0])
    blocks += [((a, b), 1) for a, b in zip(loose[::2], loose[1::2])]
    if len(loose) % 2:
        blocks.append(((loose[-1],), 1))
    real = not any(np.iscomplexobj(f) for f in fills)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    size = _fft_size(_range_length(len(fills), lam_max))
    spectrum = 1.0
    for pair, mult in blocks:
        spec = fft(_pair_block(powers, pair, lam_max), size)
        for _ in range(mult):
            spectrum = spectrum * spec
        del spec  # free this block's spectrum before the next one is transformed
    return ifft(spectrum, size)[: lam_max + 1]


def _count_rounding_bound(n: int, size: int, P: int) -> float:
    """Bound 16 * ceil(n/2) * 2^-53 * log2(size) * P^(n - 1/2) on the float error of every n-fold count.

    The counts come from m = ceil(n/2) blocks (``_value_array``): pair
    blocks B of two coordinates and at most one single coordinate a of P
    ones, all exact integers (a ``bincount`` of ones).  The derivation uses
    two norms of each block:
    - the 1-norm, which bounds its spectrum: at most P^2 for B (P^2
      ordered pairs) and P for a;
    - the 2-norm, which bounds its transform error: ||B||_2^2 <=
      max(B) * ||B||_1 <= P * P^2 (p and the sum fix q), so ||B||_2 <=
      P^(3/2), and ||a||_2 = P^(1/2); P^(d - 1/2) for d coordinates.
    Each transform of length L errs by at most g = 6.7 u log2(L) relative
    in the 2-norm (u = 2^-53; Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 24.2, for radix 2; a radix-3 or radix-5 pass of the
    5-smooth length counts as log2(3) or log2(5) radix-2 levels, and the
    tests check the bound against the measured error).  So a block's
    spectrum errs by g sqrt(L) P^(d - 1/2) in the 2-norm, and the other
    blocks' spectra multiply that by at most P^(n - d): g sqrt(L)
    P^(n - 1/2) per block.  The exact product is the transform of counts
    that sum to at most P^n, none above P^(n-1) (n - 1 coordinates fix the
    last), so of 2-norm at most sqrt(L) P^(n - 1/2); the m - 1 complex
    products add sqrt(5) u each relative to it.  The inverse transform
    scales all of this by 1/sqrt(L) and adds g P^(n - 1/2).  Every count
    thus errs by at most ((m + 1) g + sqrt(5) (m - 1) u) P^(n - 1/2) to
    first order, below 15.7 m u log2(L) P^(n - 1/2), inside c = 16.
    """
    with np.errstate(over="ignore"):
        return float(16.0 * ceil(n / 2) * 2.0**-53 * log(size, 2) * np.float64(P) ** (n - 0.5))


def rep_count_array(k: int, n: int, lam_max: int) -> np.ndarray:
    """r(lam) for every lam <= lam_max, via convolution, exact after rounding.

    Refused with NumericError when ``_count_rounding_bound`` exceeds 0.25,
    where rounding to the nearest integer could be wrong.
    """
    primes = _range_primes(k, n, lam_max)
    P = len(primes)
    bound = _count_rounding_bound(n, _fft_size(_range_length(n, lam_max)), P)
    if bound > 0.25:
        raise NumericError(
            f"float counts for n={n} over {P} primes may round wrongly (error bound {bound:.3g} > 0.25)"
        )
    return np.rint(_value_array(primes**k, lam_max, [np.ones(P)] * n)).astype(np.int64)


def rep_weight_array(k: int, n: int, lam_max: int, power: float = 1.0) -> np.ndarray:
    """Sum over solutions of prod_i (log p_i)^power, for every lam <= lam_max."""
    primes = _range_primes(k, n, lam_max)
    return _value_array(primes**k, lam_max, [np.log(primes.astype(np.float64)) ** power] * n)


def rep_weight_rounding(k: int, n: int, lam_max: int, power: float) -> float:
    """Estimated float error of each entry of ``rep_weight_array(k, n, lam_max, power)``.

    ``_count_rounding_bound``'s argument, with the fill f = (log p)^power
    in place of ones (a block of d coordinates has 1-norm at most
    ||f||_1^d and, by Young's inequality, 2-norm at most ||f||_2
    ||f||_1^(d - 1)), bounds the 2-norm of the error of the whole output
    by about 16 ceil(n/2) u log2(L) ||f||_2 ||f||_1^(n - 1), with L the
    transform length and u = 2^-53.  Spread evenly over the L entries and
    without the constant, that is u log2(L) ||f||_2 ||f||_1^(n - 1) /
    sqrt(L), returned here: an estimate, not a bound.  At (k, n) = (2, 5),
    for powers 1.2 to 50 on ranges 2^8 to 2^18, it lay 3.8 to 1.8e5 times
    above the largest error measured against exact sums.
    """
    primes = _primes_to_root(k, lam_max)
    size = _fft_size(_range_length(n, lam_max))
    f = np.log(primes.astype(np.float64)) ** power
    return float(2.0**-53 * log(size, 2) * np.sqrt((f * f).sum()) * f.sum() ** (n - 1) / np.sqrt(size))


def fourier_numerator_array(k: int, n: int, lam_max: int, xi) -> np.ndarray:
    """R(lam) * omega_hat(lam, xi) for every lam <= lam_max."""
    xi = np.asarray(xi, dtype=float)
    if len(xi) != n:
        raise InputError("xi must have length n")
    primes = _range_primes(k, n, lam_max)
    p = primes.astype(np.float64)
    fills = [np.log(p) * np.exp(2j * np.pi * (p * x - np.rint(p * x))) for x in xi]
    return _value_array(primes**k, lam_max, fills)


def max_weight_array(k: int, n: int, lam_max: int) -> np.ndarray:
    """Largest single-solution weight prod log(p_i) per lam, 0 where none (max-times; log p > 0)."""
    primes = _range_primes(k, n, lam_max)
    powers, logs = primes**k, np.log(primes.astype(np.float64))
    acc = np.zeros(lam_max + 1)
    acc[powers] = logs
    for _ in range(n - 1):
        nxt = np.zeros(lam_max + 1)
        for v, w in zip(powers.tolist(), logs.tolist()):
            nxt[v:] = np.maximum(nxt[v:], acc[: lam_max + 1 - v] * w)
        acc = nxt
    return acc


def admissible_mask(k: int, n: int, counts: np.ndarray) -> np.ndarray:
    """True where lam = 0, 1, ... is admissible for (k, n) and has a prime solution.

    ``counts`` is ``rep_count_array(k, n, lam_max)``, and the mask has its length.
    """
    return (counts > 0) & gamma_member_mask(k, n, np.arange(len(counts)))


def sample_admissible_lams(mask: np.ndarray, lo: int, hi: int, count: int) -> list[int]:
    """Up to ``count`` evenly spaced lam in [lo, hi) where ``mask`` (an ``admissible_mask``) is True."""
    if not 0 <= lo < hi <= len(mask) or count < 1:
        raise InputError(
            f"need 0 <= lo < hi <= {len(mask)} and count >= 1, got lo={lo}, hi={hi}, count={count}"
        )
    ok = np.flatnonzero(mask[lo:hi]) + lo
    if len(ok) == 0:
        return []
    idx = np.linspace(0, len(ok) - 1, min(count, len(ok))).round().astype(int)
    idx = idx[np.diff(idx, prepend=-1) > 0]  # first of each run of equal (sorted) indices
    return [int(v) for v in ok[idx]]
