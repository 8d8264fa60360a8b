import os
import tracemalloc
from collections import Counter
from math import ceil, lcm, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from wglab import surface
from wglab.errors import InputError, NumericError, UndefinedMeasureError
from wglab.expsums import GSumQuery, _g_over_a, _roots, g_sum
from wglab.numtheory import int_kth_root, sieve_primes, units
from wglab.oscint import SurfaceQuery, singular_integral, surface_transform
from wglab.surface import (
    BUMP_OUTER,
    ApproxParams,
    ProblemInstance,
    _count_rounding_bound,
    _fft_size,
    _local_unit_sum_masks,
    _value_array,
    admissible_mask,
    bump,
    check_array_memory,
    enumerate_integer_points,
    enumerate_prime_points,
    error_term,
    fourier_numerator_array,
    gamma_member_mask,
    gamma_membership,
    hua_ratio,
    hua_series_ratios,
    main_term,
    max_weight_array,
    naive_solutions,
    omega_hat,
    psi,
    rep_count_array,
    rep_weight_array,
    sample_admissible_lams,
    singular_series,
)


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


def test_unit_sum_masks_match_the_roll_construction():
    for k in range(2, 41, 2):
        moduli = [m for m, _ in _local_unit_sum_masks(k, 2)]
        oracle = {m: _unit_sum_masks_by_rolls(k, m, 8) for m in moduli}
        for n in range(2, 9):
            masks = _local_unit_sum_masks(k, n)
            assert [m for m, _ in masks] == moduli
            for m, mask in masks:
                assert np.array_equal(mask, oracle[m][n - 1]), (k, n, m)


def test_unit_sum_masks_at_large_even_k():
    """k = 150: the FFT steps take a fraction of a second where the rolls took about 14 s.

    The smallest and largest moduli are checked against the roll construction.
    """
    masks = _local_unit_sum_masks(150, 7)
    assert len(masks) == len(sieve_primes(151))
    for m, mask in (masks[0], masks[1], masks[-1]):
        assert np.array_equal(mask, _unit_sum_masks_by_rolls(150, m, 7)[-1]), m
    assert (masks[0][0], masks[-1][0]) == (16, 151**2)  # v_2(150) = 1; 151 does not divide 150
    assert not gamma_membership(ProblemInstance(150, 7, 1)).member  # 1 is not 7 or 15 mod 16


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
    counts = rep_count_array(2, 3, lam_max)
    weights = rep_weight_array(2, 3, lam_max)
    rng = np.random.default_rng(21)
    xi = rng.random(3)
    numer = fourier_numerator_array(2, 3, lam_max, xi)
    for lam in range(3, lam_max + 1, 97):
        m = enumerate_prime_points(ProblemInstance(2, 3, lam))
        assert counts[lam] == m.r
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
    counts = rep_count_array(k, n, lam_max)
    weights = rep_weight_array(k, n, lam_max)
    numer = fourier_numerator_array(k, n, lam_max, xi)
    r, R, N = np.zeros(lam_max + 1, dtype=np.int64), np.zeros(lam_max + 1), np.zeros(lam_max + 1, dtype=complex)
    for lam in range(1, lam_max + 1):
        m = enumerate_prime_points(ProblemInstance(k, n, lam))
        r[lam], R[lam] = m.r, m.R
        N[lam] = (m.weights * np.exp(2j * np.pi * (m.representations @ xi))).sum()
    assert np.array_equal(counts, r)
    scale = 1.0 + R.max()
    assert np.abs(weights - R).max() <= 1e-9 * scale
    assert np.abs(numer - N).max() <= 1e-9 * scale


def test_count_rounding_bound_covers_float_error():
    k, n, lam_max = 2, 4, 3000
    primes = sieve_primes(int_kth_root(lam_max, k))
    ones = np.zeros(lam_max + 1, dtype=np.int64)
    ones[primes**k] = 1
    exact = ones
    for _ in range(n - 1):
        exact = np.convolve(exact, ones)[: lam_max + 1]  # integer arithmetic, exact
    err = np.abs(_value_array(primes**k, lam_max, [np.ones(len(primes))] * n) - exact).max()
    size = _fft_size(ceil(n / 2) * lam_max + 1)
    assert 0 < err <= _count_rounding_bound(n, size, len(primes)) < 0.25
    assert np.array_equal(rep_count_array(k, n, lam_max), exact)


def test_rep_count_array_refuses_unsafe_rounding():
    # the 86 primes up to sqrt(200000): their 7-fold float counts may round wrongly (bound 0.52)
    assert _count_rounding_bound(7, _fft_size(4 * 200_000 + 1), 86) > 0.25
    with pytest.raises(NumericError):
        rep_count_array(2, 7, 200_000)
    # the default hua range is far inside the bound
    assert _count_rounding_bound(5, _fft_size(5 * 99_999 + 1), 65) < 1e-3


def test_check_array_memory_refuses_above_physical_memory(monkeypatch):
    monkeypatch.setattr(surface, "_CGROUP_LIMIT_FILES", ("/nonexistent/memory.max", "/nonexistent/v1"))
    check_array_memory(5, 2**18)  # the largest benchmark range
    with monkeypatch.context() as m:  # too large for any transform: refused without sizing one
        m.setattr(surface, "_fft_size", lambda length: pytest.fail("sized a transform"))
        for lam_max in (2**62, 10**3000):  # _fft_size would loop for minutes over 10^3000's digits
            with pytest.raises(MemoryError):
                check_array_memory(5, lam_max)
    n, lam_max = 5, 100_000
    need = 16 * _fft_size(ceil(n / 2) * lam_max + 1)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need, "SC_PAGE_SIZE": 1}.__getitem__)
    check_array_memory(n, lam_max)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(MemoryError):
        check_array_memory(n, lam_max)


def test_check_array_memory_honours_cgroup_limit(monkeypatch, tmp_path):
    n, lam_max = 5, 100_000
    need = 16 * _fft_size(ceil(n / 2) * lam_max + 1)
    limit = tmp_path / "memory.max"
    monkeypatch.setattr(surface, "_CGROUP_LIMIT_FILES", (str(limit), "/nonexistent/v1"))
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2 * need, "SC_PAGE_SIZE": 1}.__getitem__)
    for text, fits in [(None, True), ("max\n", True), (f"{need}\n", True), (f"{need - 1}\n", False)]:
        if text is not None:
            limit.write_text(text)
        if fits:
            check_array_memory(n, lam_max)
        else:
            with pytest.raises(MemoryError):
                check_array_memory(n, lam_max)
    # the smaller of the two limits holds
    limit.write_text(f"{4 * need}\n")
    check_array_memory(n, lam_max)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": need - 1, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(MemoryError):
        check_array_memory(n, lam_max)


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
    lams = sample_admissible_lams(admissible_mask(2, 5, rep_count_array(2, 5, 3999)), 2000, 4000, 4)
    assert len(lams) == 4 and lams == sorted(lams)
    for lam in lams:
        assert gamma_membership(ProblemInstance(2, 5, lam)).member
        assert enumerate_prime_points(ProblemInstance(2, 5, lam)).r > 0
    # below n * 2^k = 20 no lam has a prime solution
    assert sample_admissible_lams(admissible_mask(2, 5, rep_count_array(2, 5, 19)), 1, 20, 4) == []
    mask = admissible_mask(2, 5, rep_count_array(2, 5, 99))
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


def test_fft_size_matches_scipy_next_fast_len():
    # the rounding-bound tests' lengths, then weyl's at --lambda-min 1000 --blocks 9
    lengths = [*range(1, 20_001), 4 * 200_000 + 1, 5 * 99_999 + 1, 3 * 511_999 + 1]
    assert [_fft_size(L) for L in lengths] == [next_fast_len(L, real=True) for L in lengths]
    assert _fft_size(3 * 511_999 + 1) == 1_536_000
