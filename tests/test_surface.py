import os
import tracemalloc
from collections import Counter
from itertools import product
from math import lcm, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wglab import surface
from wglab.ergodic import weyl_decay_scan
from wglab.errors import InputError, NumericError, UndefinedMeasureError
from wglab.expsums import GSumQuery, _g_over_a, _g_table, _roots, g_sum
from wglab.maxops import delta_scaling_probe
from wglab.numtheory import int_kth_root, sieve_primes, units
from wglab.oscint import SurfaceQuery, singular_integral, surface_transform
from wglab.surface import (
    BUMP_OUTER,
    ApproxParams,
    ProblemInstance,
    _local_unit_sum_masks,
    admissible_mask,
    bump,
    check_array_memory,
    enumerate_integer_points,
    enumerate_prime_points,
    error_term,
    gamma_member_mask,
    gamma_membership,
    hua_ratio,
    hua_series_ratios,
    main_term,
    max_weight_array,
    omega_hat,
    psi,
    rep_support_array,
    rep_totals_at,
    rep_weight_array,
    sample_admissible_lams,
    singular_series,
    weight_and_numerator_arrays,
)


def naive_solutions(values, n: int, k: int, lam: int) -> np.ndarray:
    """Plain nested-loop enumeration; the oracle for the split enumeration."""
    values = [int(v) for v in values]
    out = [t for t in product(values, repeat=n) if sum(v**k for v in t) == lam]
    return np.asarray(sorted(out), dtype=np.int64).reshape(-1, n)


@pytest.fixture(scope="module")
def measure77():
    return enumerate_prime_points(ProblemInstance(2, 5, 77))


# --- admissibility ----------------------------------------------------------


def test_gamma_exact_families():
    v = gamma_membership(ProblemInstance(3, 3, 11))
    assert v.member and v.exact
    assert not gamma_membership(ProblemInstance(3, 3, 12)).member
    v = gamma_membership(ProblemInstance(2, 5, 77))
    assert v.member and v.exact
    assert not gamma_membership(ProblemInstance(2, 5, 78)).member
    v = gamma_membership(ProblemInstance(4, 17, 257))
    assert v.member and v.exact and 257 % 240 == 17


@pytest.mark.parametrize("k, n, m, residue", [(2, 5, 24, 5), (4, 17, 240, 17)])
def test_gamma_mask_is_the_known_progression(k, n, m, residue):
    # both sides are periodic mod the masks' moduli, so one period decides
    period = lcm(*(mod for mod, _ in _local_unit_sum_masks(k, n)))
    assert period % m == 0
    lams = np.arange(period)
    assert np.array_equal(gamma_member_mask(k, n, lams), lams % m == residue)


def test_gamma_heuristic_is_labeled():
    v = gamma_membership(ProblemInstance(2, 7, 100))
    assert not v.exact
    assert v.label().startswith("heuristic_")


def test_gamma_heuristic_recovers_known_progression():
    # the unit-power congruence test reproduces the residue 5 mod 24 rule
    masks = _local_unit_sum_masks(2, 5)
    for lam in range(1, 2000):
        heuristic = all(mask[lam % m] for m, mask in masks)
        assert heuristic == (lam % 24 == 5)


def _unit_sum_masks_by_rolls(k, m, n_max):
    """Oracle: residues mod m reachable as sums of n unit k-th powers, for n = 1..n_max.

    One np.roll per k-th power per step, the construction the FFT steps replaced.
    """
    from math import gcd

    kth_powers = sorted({pow(x, k, m) for x in range(m) if gcd(x, m) == 1})
    reach = np.zeros(m, dtype=bool)
    reach[0] = True
    masks = []
    for _ in range(n_max):
        nxt = np.zeros(m, dtype=bool)
        for shift in kth_powers:
            nxt[np.roll(reach, shift)] = True
        reach = nxt
        masks.append(reach)
    return masks


def _lifted(mask: np.ndarray, modulus: int) -> np.ndarray:
    """A mask mod m read at every residue mod a multiple of m."""
    return mask[np.arange(modulus) % len(mask)]


def test_unit_sum_masks_match_the_roll_construction():
    """The masks mod p^gamma, lifted, equal the rolls one power of p higher, over each full period."""
    for k in range(2, 41, 2):
        moduli = [m for m, _ in _local_unit_sum_masks(k, 2)]
        primes = sieve_primes(k + 1).tolist()
        oracle = {m * p: _unit_sum_masks_by_rolls(k, m * p, 8) for m, p in zip(moduli, primes)}
        for n in range(2, 9):
            masks = _local_unit_sum_masks(k, n)
            assert [m for m, _ in masks] == moduli
            for (m, mask), p in zip(masks, primes):
                assert np.array_equal(_lifted(mask, m * p), oracle[m * p][n - 1]), (k, n, m)


def test_unit_sum_masks_at_large_even_k():
    """k = 150: the FFT steps take a fraction of a second where the rolls took about 14 s.

    The two smallest and the largest moduli, lifted one power of p, are
    checked against the roll construction there.
    """
    masks = _local_unit_sum_masks(150, 7)
    assert len(masks) == len(sieve_primes(151))
    for (m, mask), p in ((masks[0], 2), (masks[1], 3), (masks[-1], 151)):
        assert np.array_equal(_lifted(mask, m * p), _unit_sum_masks_by_rolls(150, m * p, 7)[-1]), m
    assert (masks[0][0], masks[-1][0]) == (8, 151)  # gamma(2) = v_2(150) + 2 = 3; 151 does not divide 150
    assert not gamma_membership(ProblemInstance(150, 7, 1)).member  # 1 is not 7 mod 8


def test_gamma_mask_matches_scalar():
    lams = np.arange(1, 500)
    mask = gamma_member_mask(2, 5, lams)
    for lam, bit in zip(lams[:200], mask[:200]):
        assert bit == gamma_membership(ProblemInstance(2, 5, int(lam))).member


# --- enumeration -------------------------------------------------------------


def test_prime_points_77(measure77):
    assert measure77.r == 10
    expected = 10 * log(3) ** 3 * log(5) ** 2
    assert measure77.R == pytest.approx(expected, abs=1e-9)
    rows = {tuple(r) for r in measure77.representations}
    assert rows == {
        t
        for t in __import__("itertools").permutations((3, 3, 3, 5, 5))
    }


def test_prime_points_empty():
    assert enumerate_prime_points(ProblemInstance(2, 5, 29)).r == 0
    # below the minimum value n * 2^k every instance is empty
    assert enumerate_prime_points(ProblemInstance(2, 5, 19)).r == 0


def test_prime_points_sorted_unique(measure77):
    rows = [tuple(r) for r in measure77.representations]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)


def test_enumeration_matches_naive():
    for k, n in [(2, 3), (2, 4), (3, 3)]:
        for lam in (29, 77, 160, 251, 432):
            got = enumerate_prime_points(ProblemInstance(k, n, lam))
            want = naive_solutions(sieve_primes(int(lam ** (1 / k)) + 1), n, k, lam)
            assert np.array_equal(got.representations, want)


def test_lam_beyond_int64_half_sums_is_refused():
    # n = 5 tabulates half-sums of 3 coordinates, up to 3 * lam
    limit = np.iinfo(np.int64).max
    with pytest.raises(InputError, match="overflow int64"):
        enumerate_integer_points(ProblemInstance(5, 5, limit // 3 + 1))
    with pytest.raises(InputError, match="overflow int64"):
        enumerate_prime_points(ProblemInstance(5, 3, 10**19))


@pytest.mark.parametrize("lam, match", [
    (10**16, "table too large"),  # pi(10^8)^2 > x^2 / ln(x)^2 = 2.9e13 entries
    (10**17, "table too large"),
    (10**19, "overflow int64"),  # 2 * lam
])
def test_oversized_enumeration_refused_before_sieving(monkeypatch, lam, match):
    def refuse(limit):
        raise AssertionError(f"sieved to {limit} for an enumeration that cannot run")

    monkeypatch.setattr("wglab.surface.sieve_primes", refuse)
    with pytest.raises(InputError, match=match):
        enumerate_prime_points(ProblemInstance(2, 3, lam))


def test_integer_enumeration_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="table too large"):
            enumerate_integer_points(ProblemInstance(2, 3, 10**14))  # 10^7 values, 80 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_enumeration_table_checked_exactly_after_sieving():
    # x = 92627 is the 8945th prime, and 8945^2 > 80 million, but x / ln x = 8099 and 8099^2 is not
    with pytest.raises(InputError, match="table too large"):
        enumerate_prime_points(ProblemInstance(2, 3, 92627**2))


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), n=st.integers(2, 4), lam=st.integers(1, 1500))
def test_enumeration_matches_naive_property(k, n, lam):
    want = naive_solutions(sieve_primes(max(2, int_kth_root(lam, k))), n, k, lam)
    assert np.array_equal(enumerate_prime_points(ProblemInstance(k, n, lam)).representations, want)


def test_integer_points():
    m = enumerate_integer_points(ProblemInstance(2, 2, 2))
    assert m.representations.tolist() == [[1, 1]]
    m = enumerate_integer_points(ProblemInstance(2, 2, 25))
    assert m.representations.tolist() == [[3, 4], [4, 3]]
    assert m.R == m.r == 2


def test_integer_points_dominate_prime_points():
    for lam in (77, 125, 360):
        prime = enumerate_prime_points(ProblemInstance(2, 5, lam))
        integer = enumerate_integer_points(ProblemInstance(2, 5, lam))
        assert integer.r >= prime.r


# --- transform ----------------------------------------------------------------


def test_omega_hat_normalization(measure77):
    assert omega_hat(measure77, np.zeros(5)) == pytest.approx(1.0, abs=1e-14)


def test_omega_hat_half_point(measure77):
    # every solution has odd coordinate sum (19), so the phase is -1
    assert omega_hat(measure77, 0.5 * np.ones(5)) == pytest.approx(-1.0, abs=1e-12)


def test_omega_hat_symmetries(measure77):
    rng = np.random.default_rng(9)
    xi = rng.random(5)
    val = omega_hat(measure77, xi)
    assert omega_hat(measure77, -xi) == pytest.approx(val.conjugate(), abs=1e-13)
    perm = [4, 2, 0, 3, 1]
    assert omega_hat(measure77, xi[perm]) == pytest.approx(val, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), data=st.data())
def test_omega_hat_symmetries_property(k, data):
    # lam is a sum of n prime k-th powers, so the measure has mass
    n = data.draw(st.integers(2, 4))
    lam = sum(p**k for p in data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=n, max_size=n)))
    m = enumerate_prime_points(ProblemInstance(k, n, lam))
    xi = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    shift = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    perm = data.draw(st.permutations(range(n)))
    val = omega_hat(m, xi)
    assert omega_hat(m, -xi) == pytest.approx(val.conjugate(), abs=1e-12)
    assert omega_hat(m, xi + shift) == pytest.approx(val, abs=1e-12)
    assert omega_hat(m, xi[perm]) == pytest.approx(val, abs=1e-12)


def test_omega_hat_requires_mass():
    empty = enumerate_prime_points(ProblemInstance(2, 5, 29))
    with pytest.raises(UndefinedMeasureError):
        omega_hat(empty, np.zeros(5))


# --- bump ---------------------------------------------------------------------


def test_bump_sandwich():
    t = np.linspace(-3, 3, 1201)
    vals = bump(t)
    assert np.all(vals[np.abs(t) <= 1.0] == 1.0)
    assert np.all(vals[np.abs(t) >= 2.0] == 0.0)
    inside = (np.abs(t) > 1.0) & (np.abs(t) < 2.0)
    assert np.all((vals[inside] > 0) & (vals[inside] <= 1.0))
    # indicator sandwich for the product bump
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, 5)
        value = psi(x)
        lower = 1.0 if np.max(np.abs(x)) <= 1.0 else 0.0
        upper = 1.0 if np.max(np.abs(x)) <= 2.0 else 0.0
        assert lower <= value <= upper + 1e-15


# --- params -------------------------------------------------------------------


def test_params_defaults_and_validation():
    inst = ProblemInstance(2, 5, 10061)
    p = ApproxParams.for_instance(inst)
    assert p.N == pytest.approx(10061**0.5)
    assert p.Q == pytest.approx(log(p.N) ** 2.0)
    with pytest.raises(TypeError):  # N is always lam^(1/k); there is no knob to set it
        ApproxParams.for_instance(inst, N=3 * 10061**0.5)
    for C in (0.0, -1.0, 1e300):
        with pytest.raises(InputError, match="C"):
            ApproxParams.for_instance(inst, C=C)


# --- singular series ----------------------------------------------------------


def test_singular_series_truncations():
    inst = ProblemInstance(2, 5, 77)
    assert singular_series(inst.k, inst.n, [inst.lam], [0] * 5, [1] * 5, 1)[0] == pytest.approx(1.0)
    assert singular_series(inst.k, inst.n, [inst.lam], [0] * 5, [1] * 5, 2)[0] == pytest.approx(
        2.0, abs=1e-12
    )


def test_singular_series_first_term_general_center():
    # the q = 1 term is the product of the single-modulus averages
    inst = ProblemInstance(2, 5, 77)
    avec, qvec = [1, 2, 1, 0, 1], [3, 5, 4, 1, 2]
    got = singular_series(inst.k, inst.n, [inst.lam], avec, qvec, 1)[0]
    want = np.prod(
        [complex(g_sum(GSumQuery(0, 1, a, q, 2))) for a, q in zip(avec, qvec)]
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_singular_series_validation():
    inst = ProblemInstance(2, 5, 77)
    with pytest.raises(InputError):
        singular_series(inst.k, inst.n, [inst.lam], [2, 0, 0, 0, 0], [4, 1, 1, 1, 1], 10)
    with pytest.raises(InputError):
        singular_series(inst.k, inst.n, [inst.lam], [0] * 4, [1] * 4, 10)


def _series_one_lam(k, n, lam, avec, qvec, Qsing):
    """The per-lam loop the batched series replaced: the truncated sum for one lam."""
    pairs = Counter((ai % qi, qi) for ai, qi in zip(avec, qvec))
    total = 0j
    for q in range(1, Qsing + 1):
        us = units(q)
        phases = _roots(q)[((-lam % q) * us) % q]
        prod = np.ones(len(us), dtype=complex)
        for (ai, qi), mult in pairs.items():
            prod *= _g_over_a(q, ai, qi, k) ** mult
        total += complex((phases * prod).sum())
    return total


_CENTERS = {
    "zero": ([0] * 5, [1] * 5),
    "mixed": ([1, 2, 1, 0, 1], [3, 5, 4, 1, 3]),
    "repeated": ([1, 1, 3, 0, 0], [4, 4, 7, 1, 1]),
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("center", sorted(_CENTERS))
@pytest.mark.parametrize("Qsing", [1, 2, 40, 150])
def test_singular_series_batch_is_bit_identical_to_the_per_lam_loop(k, center, Qsing):
    avec, qvec = _CENTERS[center]
    lams = [1, 5, 77, 149, 150, 151, 1000, 10061, 99989]  # below, at and above Qsing
    got = singular_series(k, 5, lams, avec, qvec, Qsing)
    assert len(got) == len(lams)
    for lam, value in zip(lams, got):
        assert value == _series_one_lam(k, 5, lam, avec, qvec, Qsing)
    for lam, value in zip(lams, singular_series(k, 4, lams, avec[:4], qvec[:4], Qsing)):
        assert value == _series_one_lam(k, 4, lam, avec[:4], qvec[:4], Qsing)


def test_singular_series_reads_units_and_g_products_once_per_q(monkeypatch):
    unit_calls, g_calls = Counter(), Counter()

    def counted_units(q):
        unit_calls[q] += 1
        return units(q)

    def counted_g(q, b, r, k):
        g_calls[q, b, r, k] += 1
        return _g_over_a(q, b, r, k)

    monkeypatch.setattr(surface, "units", counted_units)
    monkeypatch.setattr(surface, "_g_over_a", counted_g)
    lams = [10061 + 24 * i for i in range(12)]
    Qsing = 60
    singular_series(2, 5, lams, [1, 1, 2, 0, 1], [3, 3, 5, 1, 4], Qsing)
    assert sorted(unit_calls) == list(range(1, Qsing + 1)) and set(unit_calls.values()) == {1}
    # four distinct (a_i, q_i) pairs, each read once per q
    assert len(g_calls) == 4 * Qsing and set(g_calls.values()) == {1}


def test_singular_series_chunks_give_the_same_values(monkeypatch):
    lams = [1, 77, 10061, 24029, 50021, 99989, 123457]
    avec, qvec = [1, 2, 1, 0, 1], [3, 5, 4, 1, 3]
    whole = singular_series(2, 5, lams, avec, qvec, 40)
    for block in (1, 80, 120):  # chunks of 1, 2 and 3 lams; the last chunk is short
        monkeypatch.setattr(surface, "_PHASE_BLOCK", block)
        assert singular_series(2, 5, lams, avec, qvec, 40) == whole
    assert singular_series(2, 5, [], avec, qvec, 40) == []


def test_singular_series_refuses_bad_degree_dimension_or_lam():
    for k, n, lams in [(1, 5, [77]), (2, 1, [77]), (2, 5, [77, 0]), (2, 5, [2**63])]:
        with pytest.raises(InputError):
            singular_series(k, n, lams, [0] * n, [1] * n, 10)


# --- main and error terms -------------------------------------------------------


@pytest.fixture(scope="module")
def desk_instance():
    inst = ProblemInstance(2, 5, 10061)
    return inst, enumerate_prime_points(inst)


def test_main_term_zero_frequency_structure(desk_instance):
    # at xi = 0 only the center 0/1 contributes, with unit bump value, and
    # ds(0) is the singular integral at lam0 = lam / N^2 = 1
    inst, measure = desk_instance
    params = ApproxParams.for_instance(inst)
    got = main_term(measure, params, np.zeros(5))
    series = singular_series(inst.k, inst.n, [inst.lam], [0] * 5, [1] * 5, params.Qsing)[0]
    lam0 = inst.lam / params.N**2
    assert lam0 == pytest.approx(1.0, abs=1e-15)
    ds = singular_integral(5, 2, min(lam0, 1.0))
    want = params.N ** 3 / measure.R * series * ds
    assert got == pytest.approx(want, rel=1e-12)
    # the theta shells give the same transform within their error report
    shells = surface_transform(SurfaceQuery(5, 2, lam0, (0.0,) * 5), abs_tol=1e-5)
    assert abs(shells.value - ds) <= shells.quad_error + shells.tail_estimate


def test_main_term_zero_frequency_above_level_one_by_rounding():
    # lam / (lam^(1/2))^2 rounds to 1 + 2.2e-16 here; the closed form must still serve it
    inst = ProblemInstance(2, 5, 4099)
    measure = enumerate_prime_points(inst)
    params = ApproxParams.for_instance(inst)
    assert inst.lam / params.N**2 > 1.0
    series = singular_series(2, 5, [inst.lam], [0] * 5, [1] * 5, params.Qsing)[0]
    want = params.N ** 3 / measure.R * series * singular_integral(5, 2, 1.0)
    assert main_term(measure, params, np.zeros(5)) == pytest.approx(want, rel=1e-12)


def test_main_term_vanishes_off_support():
    from math import gcd

    from wglab.surface import SurfaceMeasure

    # bump windows have width ~ Q/(qN); once N >> Q^2 they no longer cover
    # the circle, so some coordinate escapes every rational and the main
    # term vanishes.  A single explicit solution gives a positive-mass
    # measure at such a scale without enumerating the full solution set.
    ps = sieve_primes(100_200)
    ps = [int(p) for p in ps[ps > 100_000][:5]]
    lam = sum(p * p for p in ps)
    inst = ProblemInstance(2, 5, lam)
    measure = SurfaceMeasure.build(inst, np.array([sorted(ps)]), log_weighted=True)
    params = ApproxParams.for_instance(inst)
    radius = BUMP_OUTER * params.Q / params.N
    assert radius < 0.01

    def covered(x):
        for q in range(1, int(params.Q) + 1):
            a = round(q * x)
            if gcd(a % q, q) == 1 and abs(q * x - a) < radius:
                return True
        return False

    off = next(x for x in np.linspace(0.30, 0.47, 4001) if not covered(float(x)))
    assert main_term(measure, params, np.full(5, off)) == 0


def test_main_term_support_radius(desk_instance):
    from math import gcd

    inst, measure = desk_instance
    params = ApproxParams.for_instance(inst)
    rng = np.random.default_rng(12)
    for _ in range(25):
        xi = rng.random(5)
        if main_term(measure, params, xi) == 0:
            continue
        for x in xi:
            ok = False
            for q in range(1, int(params.Q) + 1):
                a = round(q * x)
                if gcd(a % q, q) != 1:
                    continue
                if abs(x - a / q) < 2 * params.Q / (q * params.N):
                    ok = True
                    break
            assert ok


def test_error_term_zero_frequency_identity(desk_instance):
    inst, measure = desk_instance
    params = ApproxParams.for_instance(inst)
    err = error_term(measure, params, np.zeros(5))
    main = main_term(measure, params, np.zeros(5))
    assert err == omega_hat(measure, np.zeros(5)) - main


def test_error_term_triangle_bound(desk_instance):
    inst, measure = desk_instance
    params = ApproxParams.for_instance(inst)
    rng = np.random.default_rng(7)
    for _ in range(5):
        xi = rng.random(5)
        err = error_term(measure, params, xi)
        assert abs(err) <= 1.0 + abs(main_term(measure, params, xi)) + 1e-12


# --- count/prediction ratio -----------------------------------------------------


def test_hua_ratio_positive(desk_instance):
    inst, measure = desk_instance
    assert hua_ratio(measure) > 0


def test_hua_ratio_truncation_stability(desk_instance):
    # the truncation reaches the ratio only through the series: ratio * series stays put
    inst, measure = desk_instance
    r1 = hua_ratio(measure, Qsing=100)
    r2 = hua_ratio(measure, Qsing=150)
    [s1] = singular_series(inst.k, inst.n, [inst.lam], [0] * 5, [1] * 5, 100)
    [s2] = singular_series(inst.k, inst.n, [inst.lam], [0] * 5, [1] * 5, 150)
    assert r1 != r2
    assert r2 * s2.real == pytest.approx(r1 * s1.real, rel=1e-14)


def test_hua_series_ratios_match_one_lam_at_a_time(desk_instance):
    inst, measure = desk_instance
    lams, Rs = [10061, 10085, 12005], [measure.R, 2.5 * measure.R, 3.0e5]
    got = hua_series_ratios(2, 5, lams, Rs, 100)
    assert got[0][1] == hua_ratio(measure)
    for lam, R, (series, ratio) in zip(lams, Rs, got):
        [value] = singular_series(2, 5, [lam], [0] * 5, [1] * 5, 100)
        assert series == value
        assert ratio == R / (value.real * singular_integral(5, 2, 1.0) * lam ** 1.5)
    with pytest.raises(UndefinedMeasureError):
        hua_series_ratios(2, 5, lams, [1.0, 0.0, 1.0], 100)
    with pytest.raises(InputError):
        hua_series_ratios(2, 5, lams, Rs[:2], 100)


def test_hua_series_ratios_refuse_a_series_that_is_not_positive():
    # at (k, n) = (3, 9) the series truncated at 100 reads -0.833 at lam = 999999: no ratio against it
    with pytest.raises(NumericError, match=r"--qsing 100 .* lam = 999999"):
        hua_series_ratios(3, 9, [999999], [1.0], 100)


def test_hua_ratio_approaches_one_with_lambda():
    """The count/prediction ratio climbs toward 1 as lambda grows."""
    ratios = []
    for lam in (10061, 100013 + (5 - 100013) % 24, 1000037 + (5 - 1000037) % 24):
        m = enumerate_prime_points(ProblemInstance(2, 5, lam))
        ratios.append(hua_ratio(m))
    assert ratios[0] < ratios[1] < ratios[2] < 1.05


# --- whole-range totals ----------------------------------------------------------


def test_value_arrays_match_enumeration():
    lam_max = 1500
    weights = rep_weight_array(2, 3, lam_max)
    rng = np.random.default_rng(21)
    xi = rng.random(3)
    numer = weight_and_numerator_arrays(2, 3, lam_max, xi)[1]
    for lam in range(3, lam_max + 1, 97):
        m = enumerate_prime_points(ProblemInstance(2, 3, lam))
        assert weights[lam] == pytest.approx(m.R, abs=1e-8)
        if m.R > 0:
            assert numer[lam] / m.R == pytest.approx(
                omega_hat(m, xi), abs=1e-8
            )


@settings(max_examples=25, deadline=None)
@given(data=st.data(), k=st.sampled_from([2, 3]), n=st.integers(2, 6), lam_max=st.integers(1, 2000))
def test_value_arrays_match_enumeration_property(data, k, n, lam_max):
    # xi from a pool of two values and zero, so equal fills pair up and blocks repeat
    pool = data.draw(st.lists(st.floats(-1, 1), min_size=2, max_size=2)) + [0.0]
    xi = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    weights = rep_weight_array(k, n, lam_max)
    numer = weight_and_numerator_arrays(k, n, lam_max, xi)[1]
    counts_at, weights_at = rep_totals_at(k, n, range(lam_max + 1))
    r, R, N = np.zeros(lam_max + 1, dtype=np.int64), np.zeros(lam_max + 1), np.zeros(lam_max + 1, dtype=complex)
    for lam in range(1, lam_max + 1):
        m = enumerate_prime_points(ProblemInstance(k, n, lam))
        r[lam], R[lam] = m.r, m.R
        N[lam] = (m.weights * np.exp(2j * np.pi * (m.representations @ xi))).sum()
    assert counts_at == r.tolist()
    assert np.allclose(weights_at, R, rtol=1e-12, atol=0)  # positive terms only: relative accuracy
    scale = 1.0 + R.max()
    assert np.abs(weights - R).max() <= 1e-9 * scale
    assert np.abs(numer - N).max() <= 1e-9 * scale


def test_check_array_memory_refuses_above_physical_memory(monkeypatch):
    monkeypatch.setattr(surface, "_CGROUP_LIMIT_FILES", ("/nonexistent/memory.max", "/nonexistent/v1"))
    check_array_memory(2**18)  # the largest benchmark range
    for lam_max in (2**62, 10**3000):
        with pytest.raises(MemoryError):
            check_array_memory(lam_max)
    lam_max = 100_000
    need = surface._ARRAY_BYTES * (lam_max + 1)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need, "SC_PAGE_SIZE": 1}.__getitem__)
    check_array_memory(lam_max)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(MemoryError):
        check_array_memory(lam_max)


def test_check_array_memory_honours_cgroup_limit(monkeypatch, tmp_path):
    lam_max = 100_000
    need = surface._ARRAY_BYTES * (lam_max + 1)
    limit = tmp_path / "memory.max"
    monkeypatch.setattr(surface, "_CGROUP_LIMIT_FILES", (str(limit), "/nonexistent/v1"))
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2 * need, "SC_PAGE_SIZE": 1}.__getitem__)
    for text, fits in [(None, True), ("max\n", True), (f"{need}\n", True), (f"{need - 1}\n", False)]:
        if text is not None:
            limit.write_text(text)
        if fits:
            check_array_memory(lam_max)
        else:
            with pytest.raises(MemoryError):
                check_array_memory(lam_max)
    # the smaller of the two limits holds
    limit.write_text(f"{4 * need}\n")
    check_array_memory(lam_max)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(MemoryError):
        check_array_memory(lam_max)


def test_cgroup_memory_limit_reads_v2_then_v1(monkeypatch, tmp_path):
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(surface, "_CGROUP_LIMIT_FILES", (str(v2), str(v1)))
    assert surface._cgroup_memory_limit() is None  # neither file
    v1.write_text("9223372036854771712\n")  # v1's "no limit": larger than any physical memory
    assert surface._cgroup_memory_limit() == 9223372036854771712
    v1.write_text("1048576\n")
    assert surface._cgroup_memory_limit() == 1048576
    v2.write_text("max\n")  # a v2 file decides, even when it sets no limit
    assert surface._cgroup_memory_limit() is None
    v2.write_text("2097152\n")
    assert surface._cgroup_memory_limit() == 2097152


def test_sample_admissible_lams():
    lams = sample_admissible_lams(admissible_mask(2, 5, 3999), 2000, 4000, 4)
    assert len(lams) == 4 and lams == sorted(lams)
    for lam in lams:
        assert gamma_membership(ProblemInstance(2, 5, lam)).member
        assert enumerate_prime_points(ProblemInstance(2, 5, lam)).r > 0
    # below n * 2^k = 20 no lam has a prime solution
    assert sample_admissible_lams(admissible_mask(2, 5, 19), 1, 20, 4) == []
    mask = admissible_mask(2, 5, 99)
    assert len(mask) == 100
    for lo, hi, count in [(0, 101, 4), (50, 50, 4), (-1, 10, 4), (0, 100, 0)]:
        with pytest.raises(InputError):
            sample_admissible_lams(mask, lo, hi, count)


def test_sample_admissible_lams_match_numpy_unique():
    # the indices are sorted, so dropping repeats of the previous index is np.unique
    for n_ok in range(1, 41):
        mask = np.zeros(3 * n_ok + 5, dtype=bool)
        mask[np.arange(n_ok) * 3 + 2] = True
        ok = np.flatnonzero(mask)
        for count in range(1, 2 * n_ok + 3):
            want = ok[np.unique(np.linspace(0, n_ok - 1, min(count, n_ok)).round().astype(int))]
            assert sample_admissible_lams(mask, 0, len(mask), count) == want.tolist()


def test_max_weight_array():
    maxw = max_weight_array(2, 3, 200)
    for lam in (12, 38, 83, 110):
        m = enumerate_prime_points(ProblemInstance(2, 3, lam))
        if m.r == 0:
            assert maxw[lam] == 0 or not np.isfinite(maxw[lam]) or maxw[lam] < 1e-300
        else:
            assert maxw[lam] == pytest.approx(m.weights.max(), rel=1e-12)


@pytest.mark.parametrize("k, n, lam_max", [(2, 5, 1500), (3, 4, 10_000)])
def test_max_weight_array_matches_enumeration_over_the_range(k, n, lam_max):
    maxw = max_weight_array(k, n, lam_max)
    want = np.zeros(lam_max + 1)
    for lam in range(1, lam_max + 1):
        m = enumerate_prime_points(ProblemInstance(k, n, lam))
        if m.r:
            want[lam] = m.weights.max()
    assert np.array_equal(maxw == 0, want == 0) and (want > 0).sum() > 100
    assert np.allclose(maxw, want, rtol=1e-13, atol=0)  # the same logs, multiplied in another order


def _shift_add_counts(k: int, n: int, lam_max: int) -> np.ndarray:
    """r(lam) on [0, lam_max] in int64: n - 1 rounds of adding the last round's counts shifted by each p^k."""
    powers = sieve_primes(max(2, int_kth_root(lam_max, k))) ** k
    powers = powers[powers <= lam_max]
    counts = np.zeros(lam_max + 1, dtype=np.int64)
    counts[powers] = 1
    for _ in range(n - 1):
        nxt = np.zeros_like(counts)
        for v in powers.tolist():
            nxt[v:] += counts[: lam_max + 1 - v]
        counts = nxt
    return counts


@pytest.mark.parametrize("k, mid", [(2, 30_000), (3, 200_000), (4, 500_000)])
@pytest.mark.parametrize("n", range(2, 9))
def test_support_array_is_where_counts_are_positive(k, mid, n):
    for lam_max in (1, 2_000, mid):
        support = rep_support_array(k, n, lam_max)
        assert support.dtype == bool
        assert np.array_equal(support, _shift_add_counts(k, n, lam_max) > 0), lam_max


@pytest.mark.parametrize("combine, dtype", [(np.add, complex), (np.maximum, float), (np.logical_or, bool)])
def test_shift_rounds_match_the_plain_loop_across_chunks(combine, dtype):
    """Each entry takes the plain loop's terms in the same order, so the chunked rounds equal it bit for bit."""
    lam_max = 3 * surface._ROUND_CHUNK_BYTES // np.dtype(dtype).itemsize + 5
    powers = sieve_primes(int_kth_root(lam_max, 2)) ** 2
    rng = np.random.default_rng(3)
    if dtype is bool:
        start, fills = rng.random(lam_max + 1) < 0.01, [None, None]
    else:
        scale = 1 + 1j if dtype is complex else 1.0
        start, fills = rng.random(lam_max + 1) * scale, [rng.random(len(powers)) * scale for _ in range(2)]
    want = start.copy()
    for fill in fills:
        nxt = np.zeros_like(want)
        for i, v in enumerate(powers.tolist()):
            src = want[: lam_max + 1 - v] if fill is None else want[: lam_max + 1 - v] * fill[i]
            nxt[v:] = combine(nxt[v:], src)
        want = nxt
    assert np.array_equal(surface._shift_rounds(start.copy(), powers, fills, combine), want)


def test_support_array_runs_where_float_counts_are_refused():
    # n = 7 on [0, 2e5), where float counts from transforms could round wrongly; the sumset is exact
    k, n, lam_max = 2, 7, 199_999
    support = rep_support_array(k, n, lam_max)
    assert np.array_equal(support, _shift_add_counts(k, n, lam_max) > 0)
    rng = np.random.default_rng(7)
    for lam in [*range(1, 1_200), *rng.integers(1_200, 12_000, 20).tolist()]:
        assert support[lam] == (enumerate_prime_points(ProblemInstance(k, n, lam)).r > 0), lam
    assert not support.all() and support[-50_000:].sum() > 10_000


def test_support_array_refuses_oversized_ranges():
    with pytest.raises(MemoryError):
        rep_support_array(2, 5, 2**62)


@pytest.mark.parametrize("k, n, lam_max, enum_max", [
    (2, 2, 20_000, 5_000), (2, 3, 20_000, 5_000), (2, 4, 50_000, 20_000), (2, 5, 99_999, 20_000),
    (3, 6, 50_000, 20_000), (2, 7, 199_999, 3_000), (2, 8, 20_000, 3_000), (3, 9, 300_000, 20_000),
])
def test_totals_at_are_exact_counts_and_enumerated_weights(k, n, lam_max, enum_max):
    """r equals the int64 shift-add counts everywhere; R equals enumeration where that is affordable."""
    rng = np.random.default_rng(10 * k + n)
    counts = _shift_add_counts(k, n, lam_max)
    solved = np.flatnonzero(counts)
    # lam with solutions up to enum_max and above it, and lam drawn from the whole range, most without
    small = rng.choice(solved[solved <= enum_max], 10).tolist()
    lams = [*small, *rng.choice(solved[solved > enum_max], 10).tolist(), *rng.integers(0, lam_max + 1, 5).tolist()]
    r, R = rep_totals_at(k, n, lams)
    assert r == counts[lams].tolist()
    assert all(type(v) is int for v in r) and all(type(v) is float for v in R)
    for lam, got in zip(small, R):
        want = enumerate_prime_points(ProblemInstance(k, n, lam)).R
        assert got == pytest.approx(want, rel=1e-12, abs=0), lam  # positive terms: no cancellation
    assert all(r[:20]) and all((v > 0) == (r_v > 0) for v, r_v in zip(R, r))


def test_totals_at_take_any_order_of_lams_and_no_transform(monkeypatch):
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, lambda *a, **kw: pytest.fail("took a transform"))
    monkeypatch.setattr(np, "dot", lambda *a, **kw: pytest.fail("called BLAS"))  # a threaded ddot on long slices
    r, R = rep_totals_at(2, 5, [10061, 0, 77, 10061, 78])
    m = enumerate_prime_points(ProblemInstance(2, 5, 10061))
    assert r == [m.r, 0, 10, m.r, 0] and R[0] == R[3] and R[1] == R[4] == 0.0
    assert rep_totals_at(2, 5, []) == ([], [])
    with pytest.raises(InputError):
        rep_totals_at(2, 5, [-1, 77])


def test_totals_at_refuse_counts_that_could_overflow(monkeypatch):
    # the 53 primes up to sqrt(60000): r can reach 53^11 > 2^63 at n = 12, but 53^10 < 2^63 at n = 11
    assert 53**11 >= 2**63 > 53**10
    monkeypatch.setattr(surface, "_half_block", lambda *a: pytest.fail("built a half"))
    with pytest.raises(NumericError):
        rep_totals_at(2, 12, [59_999])
    monkeypatch.undo()
    [r], _ = rep_totals_at(2, 11, [59_999])
    assert 0 < r < 53**10


def test_series_table_figure_covers_the_tables():
    """(12 + 8 c) Q (Q + 1) bytes for the lru tables of c distinct center pairs, against tracemalloc at Q = 1000."""
    Q = 1000
    for avec, qvec in (([0] * 5, [1] * 5), ([1, 1, 0, 0, 0], [2, 3, 1, 1, 1])):
        for cache in (_roots, units, _g_table, _g_over_a):
            cache.cache_clear()
        tracemalloc.start()
        try:
            singular_series(2, 5, [10061], avec, qvec, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _g_table.cache_info().currsize == 0  # the series keeps no full g-table
        c = len(set(zip(avec, qvec)))
        figure = (12 + 8 * c) * Q * (Q + 1)
        assert 0.5 * figure < peak <= figure, (c, peak, figure)


def _xi_patterns(n: int, rng) -> dict:
    """xi with zero, integer and all-nonzero entries, each as a complex fill pattern of its own."""
    a, b = rng.random(2)
    return {
        "zeros": np.array([a] + [0.0] * (n - 1)),
        "integers": np.array([a, 1.0] + [2.0] * (n - 3) + [b])[:n],
        "nonzero": rng.random(n) + 0.01,
        "repeated": np.array([a] * n),
    }


@pytest.mark.parametrize("k, n, lam_max", [(2, 2, 3000), (2, 3, 3000), (2, 4, 3000), (2, 5, 4000), (3, 5, 20_000),
                                           (2, 6, 3000), (2, 7, 3000)])
def test_shared_plan_matches_the_one_array_plans_and_enumeration(k, n, lam_max):
    rng = np.random.default_rng(100 * k + n)
    weights_alone = rep_weight_array(k, n, lam_max)
    lams = rng.integers(1, lam_max + 1, 25)
    for label, xi in _xi_patterns(n, rng).items():
        weights, numer = weight_and_numerator_arrays(k, n, lam_max, xi)
        assert np.array_equal(weights, weights_alone), label
        assert numer.dtype == complex
        for lam in lams.tolist():
            m = enumerate_prime_points(ProblemInstance(k, n, lam))
            if m.r == 0:  # no term at all: exact zeros
                assert numer[lam] == weights[lam] == 0, (label, lam)
                continue
            # the enumeration reduces each phase p . xi as a whole, the arrays each p_i xi_i apart
            assert abs(numer[lam] - m.R * omega_hat(m, xi)) <= 1e-12 * m.R, (label, lam)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_whole_range_arrays_take_real_transforms_only(monkeypatch, n):
    k, lam_max = 2, 5000
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, lambda *a, **kw: pytest.fail("took a complex transform"))
    for xi in _xi_patterns(n, np.random.default_rng(n)).values():
        weight_and_numerator_arrays(k, n, lam_max, xi)
    rep_weight_array(k, n, lam_max, power=1.5)
    rep_support_array(k, n, lam_max)
    max_weight_array(k, n, lam_max)


@pytest.mark.parametrize("n, lam_max, pattern", [
    (5, 100_000, (0.4142135623730951, 0.7320508075688772, 0, 0, 0)),  # weyl's frequency: one shared real block
    (5, 100_000, None),
    (7, 60_000, None),
    (7, 60_000, (0.3, 1.0, 2.0, 0.3, 0.3, 0.3, 0.3)),
    (8, 30_000, None),
    (8, 30_000, (0.3, 0.0, 1.0, 2.0, 0.3, 0.3, 0.3, 0.3)),
])
def test_array_memory_figure_covers_the_peak(n, lam_max, pattern):
    """Every whole-range function's tracemalloc peak stays within _ARRAY_BYTES per point of [0, lam_max]."""
    k = 2
    xi = np.random.default_rng(n).random(n) if pattern is None else np.array(pattern)
    calls = {
        "rep_weight_array": lambda: rep_weight_array(k, n, lam_max, power=1.2),
        "weight_and_numerator_arrays": lambda: weight_and_numerator_arrays(k, n, lam_max, xi),
        "rep_support_array": lambda: rep_support_array(k, n, lam_max),
        "max_weight_array": lambda: max_weight_array(k, n, lam_max),
        "rep_totals_at": lambda: rep_totals_at(k, n, [lam_max, lam_max // 2]),
    }
    sieve_primes(int_kth_root(lam_max, k))  # the sieve's cache is not part of the arrays
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            arrays = call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del arrays
    assert max(peaks.values()) <= surface._ARRAY_BYTES * (lam_max + 1), peaks


@pytest.mark.parametrize("n, lam_max", [(2, 1202), (3, 1203)])  # lam_max itself has a solution
def test_one_block_plans_take_no_transform(monkeypatch, n, lam_max):
    k = 2
    xi = np.random.default_rng(n).random(n)
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, lambda *a, **kw: pytest.fail("took a transform"))
    weights, numer = weight_and_numerator_arrays(k, n, lam_max, xi)
    assert weights[lam_max] > 0
    for lam in range(1, lam_max + 1):
        m = enumerate_prime_points(ProblemInstance(k, n, lam))
        assert weights[lam] == pytest.approx(m.R, rel=1e-14, abs=0)
        # the enumeration reduces each phase p . xi as a whole, the arrays each p_i x_i apart
        phases = np.exp(2j * np.pi * (m.representations @ xi))
        assert numer[lam] == pytest.approx((m.weights * phases).sum(), abs=1e-9)


def test_whole_range_arrays_and_their_callers_take_no_transform(monkeypatch):
    k, n, lam_max = 2, 5, 20_000
    gamma_member_mask(k, n, np.arange(1))  # the cached congruence masks: FFTs of length 8 and 3, once per (k, n)
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, lambda *a, **kw: pytest.fail("took a transform"))
    rep_weight_array(k, n, lam_max, power=1.5)
    for xi in _xi_patterns(n, np.random.default_rng(1)).values():
        weight_and_numerator_arrays(k, n, lam_max, xi)
    weyl_decay_scan(k, n, (0.4142135623730951, 0.7320508075688772, 0, 0, 0), 1000, 4)
    for p in (1.2, np.inf):
        delta_scaling_probe(k, n, p, [4096, lam_max])


def _long_double_arrays(k: int, n: int, lam_max: int, xi) -> tuple:
    """R(lam) and R(lam) omega_hat(lam, xi) by n - 1 plain shift-add rounds in long double, from the float fills."""
    primes = sieve_primes(max(2, int_kth_root(lam_max, k)))
    p = primes[primes**k <= lam_max]
    logs = np.log(p.astype(np.float64))
    fills = [logs * np.exp(2j * np.pi * (p * x - np.rint(p * x))) for x in xi]
    out = []
    for fill in ([logs.astype(np.longdouble)] * n, [f.astype(np.clongdouble) for f in fills]):
        acc = np.zeros(lam_max + 1, dtype=fill[0].dtype)
        acc[p**k] = fill[0]
        for f in fill[1:]:
            nxt = np.zeros_like(acc)
            for v, w in zip((p**k).tolist(), f):
                nxt[v:] += acc[: lam_max + 1 - v] * w
            acc = nxt
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("k, n, lam_max, xi", [
    (2, 5, 20_000, (0.4142135623730951, 0.7320508075688772, 0, 0, 0)),  # weyl's: one shared real block
    (2, 5, 20_000, (0.11, 0.37, 0.52, 0.71, 0.93)),
    (2, 7, 10_000, (0.3, 0, 1, 0.7, 0, 0.2, 0.9)),
    (3, 5, 100_000, (0.21, 0.43, 0.65, 0.87, 0.12)),
])
def test_arrays_stay_within_their_a_priori_rounding_bound(k, n, lam_max, xi):
    """Weights, numerators and |omega_hat| against long-double sums of the same fills, within gamma_m."""
    weights, numer = weight_and_numerator_arrays(k, n, lam_max, np.array(xi, dtype=float))
    want_w, want_n = _long_double_arrays(k, n, lam_max, xi)
    powers = sieve_primes(max(2, int_kth_root(lam_max, k))) ** k
    powers = powers[powers <= lam_max]
    c = int(surface._block_array(powers, (np.ones(len(powers), dtype=np.int64),) * min(n, 3), lam_max).max())
    m = 3 * n + c + len(powers) * max(n - 3, 0)
    gamma = m * 2.0**-53 / (1 - m * 2.0**-53)
    on = want_w > 0
    assert np.array_equal(weights > 0, on)
    err_w = np.abs(weights - want_w) / np.where(on, want_w, 1)
    err_n = np.abs(numer - want_n) / np.where(on, want_w, 1)
    err_omega = np.abs(np.abs(numer[on] / weights[on]) - np.abs(want_n[on] / want_w[on]))
    assert err_w.max() <= gamma and err_n.max() <= gamma, (err_w.max() / gamma, err_n.max() / gamma)
    assert err_omega.max() <= 2 * gamma / (1 - gamma)
