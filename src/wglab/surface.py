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
from math import gcd, log, prod
from typing import Optional

import numpy as np

from .arcs import _arc_center
from .errors import InputError, NumericError, UndefinedMeasureError
from .expsums import _g_over_a, _pow_mod, _roots
from .numtheory import euler_phi, factorize, int_kth_root, mobius, sieve_primes, units
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

    The modulus is p^gamma, gamma = v_p(k) + 1, one more at p = 2 (the
    gamma(p) of Hua, Additive Theory of Prime Numbers, ch. VIII).  Mod any
    higher power of p the unit k-th powers, and so their n-fold sumsets,
    are the full preimages of those mod p^gamma: it would mark the same
    lam.  The mask marks residues reachable as a sum of n k-th powers of
    units.  Each of the n steps is a cyclic convolution of indicator arrays
    by FFT, whose integer counts it thresholds at 1/2: the roundoff, about
    log2(m) eps m, stays far below that.  The steps stop once every residue
    is reached.
    """
    pairs = []
    v_p = dict(factorize(k))
    for p in sieve_primes(k + 1).tolist():
        gam = v_p.get(p, 0) + 1 + (1 if p == 2 else 0)
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


def _local_parts(avec, qvec) -> dict:
    """{p: Counter of (b_i, r_i)} for each prime p dividing some q_i.

    r_i = p^v_p(q_i) is the p-part of q_i and b_i = a_i (q_i / r_i)^-1 mod r_i,
    so that a_i/q_i is the sum over p of b_i/r_i mod 1 (CRT).
    """
    factored = [dict(factorize(qi)) for qi in qvec]
    parts = {}
    for p in sorted(set().union(*factored)):
        local = parts[p] = Counter()
        for ai, qi, exponents in zip(avec, qvec, factored):
            r = p ** exponents.get(p, 0)
            local[ai * pow(qi // r, -1, r) % r, r] += 1
    return parts


def _local_factor(k: int, m: int, local: Counter, neg_lams: np.ndarray) -> np.ndarray:
    """A_p(m) = sum over a in U_m of e(-lam a / m) prod_i g(a, m; b_i, r_i) at a prime power m, a column over lams.

    A p-part r_i above m makes it exactly 0, with no table at modulus r_i:
    g(a, m; b, r) vanishes when gcd(r / gcd(m, r), m) > 1 (``g_via_lemma``).
    """
    if any(r > m for _, r in local):
        return np.zeros((len(neg_lams), 1), dtype=complex)
    (first, first_mult), *rest = local.items()
    gprod = _g_over_a(m, *first, k) ** first_mult  # a new array: the in-place products spare the table
    for (b, r), mult in rest:
        g = _g_over_a(m, b, r, k)
        gprod *= g if mult == 1 else g**mult  # g**1 would only copy g
    idx = (neg_lams % m) * units(m)
    idx %= m
    return np.add.reduce(_roots(m).take(idx) * gprod, axis=1, keepdims=True)


def singular_series(k: int, n: int, lams, avec, qvec, Qsing: int) -> list[complex]:
    """Truncated modulus sum S_Q(lam) of the arithmetic factor at center avec/qvec, for every lam in ``lams``.

    S_Q(lam) = sum over q <= Qsing of A(q, lam), where A(q) sums, over units
    a mod q, the phase e(-lam a / q) times the product over coordinates of
    g(a, q; a_i, q_i).  A(q) is assembled from local factors (Hua, Additive
    Theory of Prime Numbers, ch. VIII; Vaughan, The Hardy-Littlewood Method,
    2.6): by CRT, A(q) is the product over p | q lcm(q_i) of A_p(p^v_p(q)),
    where A_p(p^j) is the same sum at modulus p^j with each a_i/q_i replaced
    by its p-part b_i/r_i (``_local_parts``), and A_p(1) = prod_i
    mu(r_i)/phi(r_i), which is 1 for every p not dividing any q_i.  The
    identity divides by nothing, so it holds where A(1) = 0 too.

    So only prime powers m <= Qsing read g-tables.  For a chunk of up to
    _PHASE_BLOCK // Qsing lams, one phase block per prime power gives A_p(m)
    of every lam; a (chunk x Qsing) table takes each prime's factors by
    striding over the multiples of its powers, and one reduction over q
    sums each lam's row.  Every reduction runs along a row, so a lam's
    value does not depend on the other lams in its chunk.  The sums carry
    no error figure: no bound on the terms beyond Qsing is computed.

    Its lru tables hold at most sum over prime powers m = p^j <= Qsing of
    (24 + 16 c_p)(m + 32) bytes, with c_p the distinct p-parts of the
    center pairs (1 where p divides no q_i): per m the roots e(j/m) (16 m)
    and units (8 m), per m and p-part the g values at the units (16 m),
    each table counted 32 entries longer for its header and cache entry.
    The full g-table each is read from is not kept; building one takes
    up to 128 Qsing bytes.  The table of a chunk and its factor array add
    32 Qsing bytes per lam in it, and a phase block up to 40 MB.  Above
    ``available_memory()`` the call is refused with MemoryError before any
    table is built.
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
    memory = available_memory()
    # the tables take 40 bytes per prime p <= Qsing at least, and those primes sum to more than
    # pi(Qsing)^2 / 2 >= (Qsing / ln Qsing)^2 / 2 for Qsing >= 17 (Rosser-Schoenfeld): no huge sieve
    if Qsing >= 17 and 20 * (Qsing / log(Qsing)) ** 2 > memory:
        raise MemoryError(f"series tables for Qsing={Qsing} need more than the {memory} bytes of memory available")
    parts = _local_parts(avec, qvec)
    unit_part = Counter({(0, 1): n})  # the p-parts where p divides no q_i
    powers = {p: [] for p in parts}  # prime -> its powers <= Qsing, for every p <= Qsing or dividing a q_i
    for p in sieve_primes(Qsing).tolist() if Qsing >= 2 else []:
        m = p
        while m <= Qsing:
            powers.setdefault(p, []).append(m)
            m *= p
    chunk = max(1, _PHASE_BLOCK // Qsing)  # per lam: at most Qsing units at each m
    need = sum((24 + 16 * len(parts.get(p, unit_part))) * (m + 32) for p, ms in powers.items() for m in ms)
    need += (128 + 32 * min(chunk, len(lams))) * Qsing
    if need > memory:
        raise MemoryError(f"series tables for Qsing={Qsing} need {need} bytes, more than the {memory} available")
    results = []
    for lo in range(0, len(lams), chunk):
        block = lams[lo : lo + chunk]
        neg_lams = -np.array(block, dtype=np.int64)[:, None]
        table = np.ones((len(block), Qsing), dtype=complex)  # column q - 1 takes the factors of A(q)
        for p in sorted(powers):
            local = parts.get(p, unit_part)
            factors = [_local_factor(k, m, local, neg_lams) for m in powers[p]]
            step = p
            if p in parts:  # p divides some q_i, so A_p(1) multiplies every q prime to p too
                factors.insert(0, prod((mobius(r) / euler_phi(r)) ** mult for (_, r), mult in local.items()))
                step = 1
            view = table[:, step - 1 :: step]  # the columns of the multiples of step
            f = np.empty_like(view)
            for i, factor in enumerate(factors):  # column t of the view is q = step (t + 1)
                f[:, p**i - 1 :: p**i] = factor
            view *= f
        results += [complex(t) for t in np.add.reduce(table, axis=1)]
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
    series comes from one ``singular_series`` call.  A truncated
    series <= 0 predicts no solutions, so no ratio is taken against it:
    NumericError, naming lam and the truncation.
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
        if sval.real <= 0:
            raise NumericError(
                f"singular series truncated at --qsing {Qsing} is {sval.real:.3g} <= 0 at lam = {lam}: "
                "no positive prediction to take a ratio against"
            )
        out.append((sval, R / (sval.real * mu_inf * lam ** (n / k - 1.0))))
    return out


def hua_ratio(measure: SurfaceMeasure, Qsing: int = 100) -> float:
    """Weighted count over its predicted size S_trunc * mu_inf * lam^(n/k - 1)."""
    inst = measure.instance
    return hua_series_ratios(inst.k, inst.n, [inst.lam], [measure.R], Qsing)[0][1]


# ---------------------------------------------------------------------------
# Totals on the value axis, exact on [0, lam_max]: up to three coordinates
# from their tuples, each further one by a shift round over the p^k.  Block
# sweeps read weights and numerators of every lam from such arrays, and r
# and R at chosen lam from dot products of two halves, never enumerating.
# ---------------------------------------------------------------------------


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


# Bytes per point of [0, lam_max] that a whole-range function holds at once, at most: the numerator's rounds
# on a block shared with the weights keep the block (8 B) and a complex acc, nxt and chunk of products (16 B
# each).  Less is held by a complex three-coordinate block under construction, 16 B and its tuples: at most
# P^2 <= (lam_max + 1) / 2 pairs (P <= pi(x) <= (x + 1) / 2, x = lam_max^(1/2)) at 56 B while sorted, then
# 24 B, and a chunk of at most (lam_max + 1) / 2 triples at 24 B, whose adds take an 8 B copy of a part and a
# bincount of the range: 16 + 12 + 12 + 4 + 8 = 52 B.  ``rep_totals_at`` keeps two int64 halves while a real
# block is built: 16 + 36 B.  Rounds on some residue classes hold no more: a round narrows only where its
# gathered sources and output fit in the output buffer of a round over every lam, and rows of M pad the range
# by at most 1/16 (``_admissible_classes``), within the chunk of products' 16 B.  The prime tables and fills,
# O(nP) bytes, are left out.
_ARRAY_BYTES = 8 + 3 * 16


def check_array_memory(lam_max: int) -> None:
    """MemoryError if _ARRAY_BYTES per point of [0, lam_max] exceed ``available_memory()``.

    That is the most any whole-range function holds at once, for every n:
    blocks with their tuples, the rounds' buffers and the arrays it keeps.
    """
    memory = available_memory()
    if _ARRAY_BYTES * (lam_max + 1) > memory:
        raise MemoryError(f"arrays on [0, {lam_max}] need more than {memory} bytes of memory")


def _add_at(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """Add each of vals at its index in out, in place (real and imaginary parts apart where complex)."""
    if np.iscomplexobj(vals):
        out.real += np.bincount(idx, vals.real, len(out))
        out.imag += np.bincount(idx, vals.imag, len(out))
    else:  # an integer out takes the float sums of integer vals, exact below 2^53
        np.add(out, np.bincount(idx, vals, len(out)), out=out, casting="unsafe")


def _block_array(powers: np.ndarray, fills: tuple, lam_max: int, size: Optional[int] = None) -> np.ndarray:
    """Dense array of ``size`` entries (lam_max + 1 by default) of one block of one to three coordinates.

    Entry s is the sum over primes with p^k (+ q^k (+ r^k)) = s of
    fill(p) (* fill'(q) (* fill''(r))).  Sums above lam_max are dropped:
    they cannot reach any lam <= lam_max, and the entries past it stay 0.
    A larger ``size`` pads the range to whole rows of a class layout
    (``_shift_rounds``) without a copy.  A three-coordinate block sorts
    the pair sums of its last two coordinates once; each prime p of the
    first then takes the prefix that stays <= lam_max - p^k.  The triples
    are summed in chunks of at most max(pairs, (lam_max + 1) // 2), so
    their arrays stay within ``_ARRAY_BYTES``.  An entry adds its terms one
    after another.
    """
    idx, vals = powers, fills[-1]
    if len(fills) >= 2:
        idx = np.add.outer(powers, powers).ravel()
        vals = np.multiply.outer(fills[-2], fills[-1]).ravel()
        keep = idx <= lam_max
        idx, vals = idx[keep], vals[keep]
    out = np.zeros(lam_max + 1 if size is None else size, dtype=np.result_type(*fills))
    if len(fills) < 3:
        _add_at(out, idx, vals)
        return out
    order = np.argsort(idx, kind="stable")
    idx, vals = idx[order], vals[order]
    del order
    room = max(len(idx), (lam_max + 1) // 2)
    buf_idx, buf_vals = np.empty(room, dtype=np.int64), np.empty(room, dtype=out.dtype)
    used = 0
    ends = np.searchsorted(idx, lam_max - powers, side="right")
    for v, f, end in zip(powers.tolist(), fills[0].tolist(), ends.tolist()):
        if used + end > room:
            _add_at(out, buf_idx[:used], buf_vals[:used])
            used = 0
        np.add(idx[:end], v, out=buf_idx[used : used + end])
        np.multiply(vals[:end], f, out=buf_vals[used : used + end])
        used += end
    _add_at(out, buf_idx[:used], buf_vals[:used])
    return out


# bytes of the output that one pass over the prime powers updates, so that they stay in cache
_ROUND_CHUNK_BYTES = 1 << 18

# (M, residues) of the whole range: every lam, one class mod 1
FULL_RANGE = (1, (0,))


def _class_layout(lam_max: int, classes: tuple) -> tuple:
    """(size, count): the entries of [0, lam_max] padded to whole rows of M, and the lam in it of ``classes``."""
    m, residues = classes
    rows = lam_max // m + 1
    return rows * m, (rows - 1) * len(residues) + int(np.searchsorted(residues, lam_max % m, side="right"))


def class_lams(lam_max: int, classes: tuple) -> np.ndarray:
    """The lam in [0, lam_max] whose residue mod M is one of ``classes = (M, residues)``, ascending.

    Entry i of a whole-range array built on those classes is the value at lam i of this list.
    """
    m, residues = classes
    return np.add.outer(np.arange(0, lam_max + 1, m), residues).ravel()[: _class_layout(lam_max, classes)[1]]


def _gather_sources(acc: np.ndarray, cols: np.ndarray, out: np.ndarray, m: int, steps: list) -> dict:
    """{s: source} for each residue s: source[t, j] is acc's entry at lam = t m + out[j] - s, 0 below lam 0.

    acc holds the columns ``cols`` and out is ascending.  One fancy index
    per s takes the columns out - s mod m of acc, and the columns r < s,
    which reach into the row before, move down a row (0 in row 0).
    """
    sources = {}
    for s in steps:
        pos = np.searchsorted(cols, (out - s) % m)
        wrap = int(np.searchsorted(out, s))
        src = acc.take(pos, axis=1)
        src[1:, :wrap] = acc[:-1, pos[:wrap]]
        src[0, :wrap] = 0
        sources[s] = src
    return sources


def _combine_shifted(out: np.ndarray, terms: list, combine) -> None:
    """out[t] = combine(out[t], src[t - q] * w) for each (q, src, w) of ``terms`` in turn.

    The rows are taken _ROUND_CHUNK_BYTES of out at a time, each entry
    combining its terms in the order given.  The terms come in ascending
    q, so the first q past a chunk ends it.
    """
    height, width = out.shape
    chunk = max(1, _ROUND_CHUNK_BYTES // (out.itemsize * max(1, width)))
    tmp = np.empty((min(height, chunk), width), dtype=out.dtype)
    for lo in range(0, height, chunk):
        hi = min(height, lo + chunk)
        for q, src, w in terms:
            if q >= hi:
                break
            start = max(lo, q)
            part = src[start - q : hi - q]
            if w is not None:
                part = np.multiply(part, w, out=tmp[: hi - start])
            combine(out[start:hi], part, out=out[start:hi])


def _shift_rounds(acc: np.ndarray, powers: np.ndarray, fills, combine, classes: tuple = FULL_RANGE) -> np.ndarray:
    """acc after one round per fill over the ascending ``powers``, on the residue classes ``(M, residues)`` only.

    The one round kernel: np.add for ``_half_block``'s sums, np.maximum
    for max-times and np.logical_or for a sumset.  A round combines acc,
    shifted by every p^k and times fill(p) (no product for a None fill),
    into a zeroed array.  acc holds whole rows of M entries, lam = row M +
    column, and may be overwritten.  The result is flat: entry i is the
    value at the i-th lam of ``class_lams``, rows past lam_max included.

    A shift by v = qM + s moves a row by q and maps the column r - s mod M
    to r, the row before where r < s.  So for each residue s of the p^k,
    one fancy index gathers from the last round's columns the shifted
    source of every column this round outputs, and each prime's term is
    one row-shifted slice of it (``_combine_shifted``).  The last round
    outputs the given residues, each earlier one the {r - s mod M} of the
    next one's.  A round on every column reads acc as M = 1, one column
    of rows of one entry, whose source is acc itself: M = 1 with residue
    0 is the plain range.  A round narrows from every column only where
    its gathered sources and its output take no more room than one
    whole-range array (never at odd k, where M = 2 and the p^k have both
    residues); otherwise it keeps every column, and the residues are
    taken at the end.  Each entry combines its P terms in prime order
    from 0, so the value at a lam does not depend on the classes asked
    for.
    """
    m, residues = classes
    residues = np.asarray(residues)
    shifts = powers.tolist()
    steps = sorted({v % m for v in shifts})
    outputs = [residues]  # the columns each round outputs, the last round first
    for _ in fills[1:]:
        reached = np.zeros(m, dtype=bool)
        reached[np.subtract.outer(outputs[-1], np.array(steps, dtype=np.int64)) % m] = True
        outputs.append(np.flatnonzero(reached))
    rows = len(acc) // m
    acc, cols = acc.reshape(rows, m), np.arange(m)
    spare = None  # the last round's input, free to take the next round's output where the shapes agree
    for fill, out in zip(fills, reversed(outputs)):
        if len(cols) == m and (len(steps) + 1) * len(out) > m:  # narrow only where sources and output fit in m
            out = cols
        if len(cols) == len(out) == m:  # every class: M rows of one column, its own source
            mod, acc, width = 1, acc.reshape(-1, 1), 1
        else:
            mod, width = m, len(out)
        if spare is not None and spare.shape != (len(acc), width):
            spare = None  # freed before the sources are gathered
        sources = {0: acc} if mod == 1 else _gather_sources(acc, cols, out, m, steps)
        nxt = np.empty((len(acc), width), dtype=acc.dtype) if spare is None else spare
        nxt.fill(0)  # faster than np.zeros, whose fresh pages fault inside the rounds
        spare = acc
        del acc
        weights = [None] * len(shifts) if fill is None else fill.tolist()
        terms = [(v // mod, sources[v % mod], w) for v, w in zip(shifts, weights)]
        del sources
        _combine_shifted(nxt, terms, combine)
        del terms
        acc, cols = nxt.reshape(rows, len(out)), out
    del spare
    if len(cols) > len(residues):  # the block's own columns, or a round that kept every column
        acc = acc[:, residues]
    return acc.ravel()


def _half_block(powers: np.ndarray, fills: tuple, lam_max: int, classes: tuple = FULL_RANGE) -> np.ndarray:
    """Array on [0, lam_max], one coordinate per fill: entry s sums prod_i fills[i](p_i) over sum p_i^k = s.

    Up to three coordinates come from ``_block_array``, then one shift-add
    round per further fill, on ``classes`` only (``_shift_rounds``: entry
    i is the value at the i-th lam of ``class_lams``; the whole range by
    default).  The dtype is that of all the fills, since a
    complex fill may be one of the rounded ones; int64 fills give int64
    sums.

    Rounding, with n = len(fills), u = 2^-53, P primes and c the most
    tuples of the first min(n, 3) coordinates at one sum (c <= P^2): a
    term of an entry passes n - 1 multiplications, at most c - 1
    additions in the block and P - 1 in each round.  A complex
    multiplication errs by at most sqrt(2) gamma_2 < 3u relative (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.5),
    so it counts as three.  So each entry differs from the exact sum of
    the float fills' products by at most gamma_m times the sum of their
    moduli, gamma_m = m u / (1 - m u), m = 3n + c + P max(n - 3, 0)
    (Higham, sec. 4.2).
    """
    size, count = _class_layout(lam_max, classes)
    acc = _block_array(powers, fills[:3], lam_max, size).astype(np.result_type(*fills), copy=False)
    return _shift_rounds(acc, powers, fills[3:], np.add, classes)[:count]


def _range_table(k: int, lam_max: int) -> tuple:
    """(primes, p^k, log p) over the primes with p^k <= lam_max, sieved once [0, lam_max]'s arrays fit in memory."""
    check_array_memory(lam_max)
    primes = _primes_to_root(k, lam_max)
    return primes, primes**k, np.log(primes.astype(np.float64))


def rep_weight_array(k: int, n: int, lam_max: int, power: float = 1.0, classes: tuple = FULL_RANGE) -> np.ndarray:
    """Sum over solutions of prod_i (log p_i)^power, for every lam <= lam_max in ``classes`` (``class_lams``).

    ``_half_block`` with the fill (log p)^power in every coordinate: one
    block of up to three coordinates, then a shift-add round per further
    one.  Every term is positive, so each entry errs by at most gamma_m of
    itself (``_half_block``'s bound).  The default classes are the whole
    range; a value does not depend on the classes asked for.
    """
    _, powers, logs = _range_table(k, lam_max)
    return _half_block(powers, (logs**power,) * n, lam_max, classes)


def weight_and_numerator_arrays(k: int, n: int, lam_max: int, xi, classes: tuple = FULL_RANGE) -> tuple:
    """``rep_weight_array(k, n, lam_max, classes=classes)`` and R(lam) * omega_hat(lam, xi) at the same lam.

    The numerator is ``_half_block`` of the fills log(p) e(p xi_i), phases
    reduced mod 1, with the real ones (integer xi_i: log p) first.  If every
    xi_i is an integer it is the weights.  If three are, one real block of
    three log p coordinates serves both: a complex copy of it takes the
    numerator's rounds, then the block the weights'.  Otherwise the
    numerator is built first, so its complex block never sits beside the
    weights.  Every term has modulus prod log p_i, so by ``_half_block``'s
    bound the numerator errs by at most gamma_m R(lam) and omega_hat by
    about 2 gamma_m, besides the rounding of p xi_i in the phases.  Both
    arrays hold the values at the lam of ``class_lams(lam_max, classes)``,
    by default every lam <= lam_max.
    """
    xi = np.asarray(xi, dtype=float)
    if len(xi) != n:
        raise InputError("xi must have length n")
    primes, powers, logs = _range_table(k, lam_max)
    phased = [logs * np.exp(2j * np.pi * (primes * x - np.rint(primes * x))) for x in xi]
    complex_fills = [f for f in phased if f.imag.any()]
    fills = (logs,) * (n - len(complex_fills)) + tuple(complex_fills)
    if not complex_fills:
        weights = _half_block(powers, fills, lam_max, classes)
        return weights, weights.astype(complex)
    if n - len(complex_fills) < 3:
        numer = _half_block(powers, fills, lam_max, classes)
        return _half_block(powers, (logs,) * n, lam_max, classes), numer
    size, count = _class_layout(lam_max, classes)
    block = _block_array(powers, fills[:3], lam_max, size)
    numer = _shift_rounds(block.astype(complex), powers, fills[3:], np.add, classes)[:count]
    return _shift_rounds(block, powers, (logs,) * (n - 3), np.add, classes)[:count], numer


def rep_support_array(k: int, n: int, lam_max: int, classes: tuple = FULL_RANGE) -> np.ndarray:
    """True where lam <= lam_max in ``classes`` (``class_lams``) has a prime solution: the n-fold sumset of the p^k.

    Exact, with no float and no rounding bound, so it runs at every size
    ``check_array_memory`` admits: n - 1 OR rounds of ``_shift_rounds``.
    """
    _, powers, _ = _range_table(k, lam_max)
    size, count = _class_layout(lam_max, classes)
    acc = np.zeros(size, dtype=bool)
    acc[powers] = True
    return _shift_rounds(acc, powers, [None] * (n - 1), np.logical_or, classes)[:count]


def max_weight_array(k: int, n: int, lam_max: int, classes: tuple = FULL_RANGE) -> np.ndarray:
    """Largest single-solution weight prod log(p_i) per lam of ``classes``, 0 where none (max-times; log p > 0)."""
    _, powers, logs = _range_table(k, lam_max)
    size, count = _class_layout(lam_max, classes)
    acc = np.zeros(size)
    acc[powers] = logs
    return _shift_rounds(acc, powers, [logs] * (n - 1), np.maximum, classes)[:count]


def rep_totals_at(k: int, n: int, lams) -> tuple[list[int], list[float]]:
    """The count r(lam) and the weighted count R(lam) of prime solutions at each lam in ``lams``.

    The n coordinates split into halves of ceil(n/2) and floor(n/2), each
    built exactly on [0, max(lams)] by ``_half_block``, once with unit
    fills in int64 (A, B) and once with log p.  r(lam) = sum_m A[m]
    B[lam - m] is one product and sum, exact in int64, and R(lam) the same
    on the log halves, summed pairwise; no BLAS call is made.  Every term
    is positive, so nothing cancels.  r(lam) <= P^(n-1) over the
    range's P primes, so P^(n-1) >= 2^63, where int64 could overflow, is
    refused with NumericError before any half is built.
    """
    lams = [int(v) for v in lams]
    if min(lams, default=0) < 0:
        raise InputError("need lam >= 0")
    lam_max = max(lams, default=0)
    primes, powers, logs = _range_table(k, lam_max)
    if len(primes) ** (n - 1) >= 2**63:
        raise NumericError(f"counts for n={n} over {len(primes)} primes can reach 2^63 and overflow int64")
    totals = []
    for fill in (np.ones(len(primes), dtype=np.int64), logs):
        halves = {d: _half_block(powers, (fill,) * d, lam_max) for d in {n - n // 2, n // 2}}
        a, rev = halves[n - n // 2], halves[n // 2][::-1]  # rev[lam_max - lam + m] = B[lam - m]
        totals.append([(a[: lam + 1] * rev[lam_max - lam :]).sum().item() for lam in lams])
    return tuple(totals)


def _admissible_classes(k: int, n: int, lam_max: int) -> tuple:
    """(M, residues): lam in [0, lam_max] is admissible for (k, n) exactly when lam mod M is a residue.

    M is 2 at odd k, where admissibility is parity, and at even k the
    product of the gamma(p) moduli of ``_local_unit_sum_masks``, since
    ``gamma_member_mask`` reads lam modulo each of them alone.  Where 16 M
    exceeds lam_max + 1, M becomes lam_max + 1: one row, whose residues are
    the admissible lam themselves.  So padding [0, lam_max] to whole rows of
    M adds at most 1/16, and no residue table is longer than the range.
    A range whose arrays cannot fit is refused (``check_array_memory``)
    before the moduli are sieved or a residue table is built.
    """
    check_array_memory(lam_max)
    m = 2 if k % 2 else prod(m for m, _ in _local_unit_sum_masks(k, n))
    if 16 * m > lam_max + 1:
        m = lam_max + 1
    return m, np.flatnonzero(gamma_member_mask(k, n, np.arange(m)))


def admissible_mask(k: int, n: int, lam_max: int) -> np.ndarray:
    """True where lam = 0, ..., lam_max is admissible for (k, n) and has a prime solution.

    The sumset ``rep_support_array`` is built on the admissible classes
    alone (``_admissible_classes``) and scattered into the mask.
    """
    classes = _admissible_classes(k, n, lam_max)
    mask = np.zeros(lam_max + 1, dtype=bool)
    mask[class_lams(lam_max, classes)] = rep_support_array(k, n, lam_max, classes)
    return mask


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
