import cmath
from fractions import Fraction
from math import gcd, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wglab.errors import InputError, SizeLimitError
from wglab.expsums import (
    GSumQuery,
    PrimeSumQuery,
    aggregate_g,
    center_weight,
    chebyshev_theta,
    count_vinogradov_system,
    f_product,
    g_sum,
    g_via_lemma,
    prime_exp_sum,
    ramanujan_sum,
)
from wglab.numtheory import euler_phi, mobius, sieve_primes, units
from wglab.surface import singular_series


def e(x):
    return cmath.exp(2j * cmath.pi * x)


def g_brute(a, q, b, r, k):
    m = int(np.lcm(q, r))
    total = 0j
    for x in units(m):
        phase = Fraction(a * int(x) ** k, q) + Fraction(b * int(x), r)
        total += e(phase - int(phase))
    return total / len(units(m))


def coprime_pairs(limit):
    for q in range(1, limit + 1):
        for a in units(q):
            yield int(a), q


# --- g sums ----------------------------------------------------------------


def test_g_trivial():
    assert g_sum(GSumQuery(0, 1, 0, 1, 2)) == 1


def test_g_vanishing_example():
    assert abs(g_sum(GSumQuery(1, 2, 1, 4, 2))) < 1e-12


def test_g_two_term_example():
    expected = (1 + e(Fraction(2, 3))) / 2
    assert g_sum(GSumQuery(1, 3, 1, 3, 2)) == pytest.approx(expected, abs=1e-12)
    assert expected.real == pytest.approx(0.25, abs=1e-12)
    assert expected.imag == pytest.approx(-0.43301270189, abs=1e-9)


def test_g_matches_slow_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        q, r = rng.integers(1, 15, 2)
        a, b = int(rng.integers(0, 30)), int(rng.integers(0, 30))
        k = int(rng.integers(2, 4))
        assert g_sum(GSumQuery(a, int(q), b, int(r), k)) == pytest.approx(
            g_brute(a, int(q), b, int(r), k), abs=1e-11
        )


@settings(max_examples=120, deadline=None)
@given(
    a=st.integers(-200, 200), q=st.integers(1, 60), b=st.integers(-200, 200),
    r=st.integers(1, 60), k=st.integers(2, 5),
)
@example(a=6, q=12, b=5, r=18, k=2)  # a not a unit, gcd(q, r) = 6
@example(a=0, q=60, b=0, r=60, k=5)
@example(a=35, q=49, b=1, r=14, k=3)
def test_g_sum_matches_exact_oracle(a, q, b, r, k):
    assert g_sum(GSumQuery(a, q, b, r, k)) == pytest.approx(g_brute(a, q, b, r, k), abs=1e-11)


def test_g_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(60):
        q, r = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        a, b = int(rng.integers(-50, 50)), int(rng.integers(-50, 50))
        k = int(rng.integers(2, 4))
        base = g_sum(GSumQuery(a, q, b, r, k))
        assert g_sum(GSumQuery(a + q, q, b, r, k)) == pytest.approx(base, abs=1e-12)
        assert g_sum(GSumQuery(a, q, b + r, r, k)) == pytest.approx(base, abs=1e-12)


def test_g_bounded_by_one():
    rng = np.random.default_rng(4)
    for _ in range(100):
        q, r = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        a, b = int(rng.integers(0, 100)), int(rng.integers(0, 100))
        k = int(rng.integers(2, 5))
        assert abs(g_sum(GSumQuery(a, q, b, r, k))) <= 1 + 1e-12


def test_reduction_identity_sampled():
    # the full q, r <= 24 grid runs in the acceptance suite
    for k in (2, 3):
        for q in range(1, 13):
            for r in range(1, 13):
                for a in units(q)[:4]:
                    for b in units(r)[:4]:
                        query = GSumQuery(int(a), q, int(b), r, k)
                        assert g_via_lemma(query) == pytest.approx(
                            g_sum(query), abs=1e-10
                        )


@settings(max_examples=120, deadline=None)
@given(data=st.data(), q=st.integers(1, 60), r=st.integers(1, 60), k=st.integers(2, 5))
def test_reduction_identity_property(data, q, r, k):
    a = data.draw(st.sampled_from(units(q).tolist()))
    b = data.draw(st.sampled_from(units(r).tolist()))
    query = GSumQuery(a, q, b, r, k)
    assert g_via_lemma(query) == pytest.approx(g_sum(query), abs=1e-11)


def test_reduction_vanishing_part():
    assert g_via_lemma(GSumQuery(1, 2, 1, 4, 2)) == 0


def test_reduction_ramanujan_example():
    assert g_via_lemma(GSumQuery(0, 1, 1, 3, 2)) == pytest.approx(-0.5, abs=1e-12)


def test_reduction_divisor_path_is_identity():
    # r | q makes the prefactor trivial
    for (a, q, b, r, k) in [(1, 8, 1, 4, 2), (2, 9, 2, 3, 3), (5, 12, 0, 1, 2)]:
        assert g_via_lemma(GSumQuery(a, q, b, r, k)) == pytest.approx(
            g_sum(GSumQuery(a, q, b, r, k)), abs=1e-12
        )


def test_reduction_requires_coprimality():
    with pytest.raises(InputError):
        g_via_lemma(GSumQuery(2, 4, 1, 3, 2))


@pytest.mark.parametrize("k", [2, 3])
def test_singular_series_at_a_nonzero_center(k):
    # the series is about 0.33 (k = 2) and 0.0075 (k = 3) here; at (1,1,2,0,1)/(3,4,5,1,2) it vanishes
    lam, avec, qvec, Qsing = 77, (1, 1, 2, 0, 1), (3, 5, 5, 1, 3), 12
    want = sum(
        e(Fraction(-lam * int(a), q))
        * np.prod([g_brute(int(a), q, ai, qi, k) for ai, qi in zip(avec, qvec)])
        for q in range(1, Qsing + 1)
        for a in units(q)
    )
    got = singular_series(k, 5, [lam], avec, qvec, Qsing)[0]
    assert abs(want) > 1e-3
    assert got == pytest.approx(want, abs=1e-12)


# --- Ramanujan sums --------------------------------------------------------


def test_ramanujan_examples():
    assert ramanujan_sum(12, 0) == pytest.approx(euler_phi(12))
    assert ramanujan_sum(1, 5) == 1
    assert ramanujan_sum(4, 2) == pytest.approx(-2.0, abs=1e-12)


def test_ramanujan_classical_formula():
    # c_q(m) = mu(q/d) phi(q) / phi(q/d) with d = gcd(q, m)
    for q in range(1, 60):
        for m in range(0, 60):
            d = gcd(q, m) if m else q
            expected = mobius(q // d) * euler_phi(q) / euler_phi(q // d)
            assert ramanujan_sum(q, m) == pytest.approx(expected, abs=1e-9)


# --- aggregate sums --------------------------------------------------------


def test_aggregate_single_b():
    assert aggregate_g(3, 5, 1, 0, 2) == pytest.approx(
        g_sum(GSumQuery(3, 5, 0, 1, 2)), abs=1e-12
    )


def test_aggregate_brute_force_example():
    assert aggregate_g(1, 1, 3, 0, 2) == pytest.approx(-1.0, abs=1e-12)


def test_aggregate_total_variation_example():
    total = sum(abs(aggregate_g(1, 2, 4, u, 2)) for u in range(4))
    assert total <= 8 + 1e-9


def test_aggregate_matches_direct_sum():
    rng = np.random.default_rng(8)
    for _ in range(30):
        q, r = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        a = int(units(q)[rng.integers(len(units(q)))])
        u = int(rng.integers(0, r))
        k = int(rng.integers(2, 4))
        direct = sum(
            g_sum(GSumQuery(a, q, int(b), r, k)) * e(-u * int(b) / r)
            for b in units(r)
        )
        assert aggregate_g(a, q, r, u, k) == pytest.approx(direct, abs=1e-11)


# --- prime sums ------------------------------------------------------------


def test_prime_sum_zero_frequencies():
    expected = log(2) + log(3) + log(5) + log(7)
    assert prime_exp_sum(PrimeSumQuery(0.0, 0.0, 2, 10)) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(5.347107, abs=1e-6)


def test_prime_sum_half_linear_phase():
    # e(p/2) = -1 for odd p, so the sum is 2 log 2 - theta(10)
    val = prime_exp_sum(PrimeSumQuery(0.0, 0.5, 2, 10))
    assert val == pytest.approx(2 * log(2) - chebyshev_theta(10), abs=1e-12)
    assert val.real == pytest.approx(-3.960813, abs=1e-6)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_prime_sum_reduces_to_chebyshev(k):
    assert prime_exp_sum(PrimeSumQuery(0.0, 0.0, k, 200)) == pytest.approx(
        chebyshev_theta(200), abs=1e-10
    )


def test_prime_sum_conjugation():
    for theta, xi in [(0.123, 0.456), (0.9, 0.05), (Fraction(1, 3), Fraction(2, 7))]:
        forward = prime_exp_sum(PrimeSumQuery(theta, xi, 2, 500))
        backward = prime_exp_sum(
            PrimeSumQuery(1 - Fraction(theta), 1 - Fraction(xi), 2, 500)
        )
        assert backward == pytest.approx(forward.conjugate(), abs=1e-12)


def test_prime_sum_exact_rational_phases():
    # exact fractions and their float images agree at small heights
    a = prime_exp_sum(PrimeSumQuery(Fraction(1, 4), Fraction(1, 2), 2, 1000))
    b = prime_exp_sum(PrimeSumQuery(0.25, 0.5, 2, 1000))
    assert a == pytest.approx(b, abs=1e-12)


def test_prime_sum_validation():
    with pytest.raises(InputError):
        prime_exp_sum(PrimeSumQuery(0.0, 0.0, 2, 1))


# --- products and mean values ----------------------------------------------


def test_f_product_all_ones():
    val = f_product(3, 7, [0, 0, 0], [1, 1, 1], 2)
    assert val == pytest.approx(g_sum(GSumQuery(3, 7, 0, 1, 2)) ** 3, abs=1e-12)


def test_f_product_vanishing_component():
    # component with gcd(r0, q) > 1 kills the product
    assert abs(f_product(1, 2, [1, 1], [4, 3], 2)) < 1e-12


def test_f_product_direct_example():
    assert f_product(1, 2, [1, 1], [2, 2], 2) == pytest.approx(1.0, abs=1e-12)


def test_f_product_validates_pairs():
    with pytest.raises(InputError):
        f_product(1, 2, [2], [4], 2)


def test_vinogradov_counter():
    assert count_vinogradov_system(3, 1, 2) == 3
    assert count_vinogradov_system(2, 2, 2) == 6
    for k in (2, 3, 4):
        assert count_vinogradov_system(7, 1, k) == 7


def test_vinogradov_counter_matches_pair_enumeration():
    # direct double loop over (x, y) pairs
    from itertools import product

    N, s, k = 4, 2, 2
    direct = 0
    for x in product(range(1, N + 1), repeat=s):
        for y in product(range(1, N + 1), repeat=s):
            if sum(v**k for v in x) == sum(v**k for v in y) and sum(x) == sum(y):
                direct += 1
    assert count_vinogradov_system(N, s, k) == direct


def test_vinogradov_counter_limits():
    with pytest.raises(SizeLimitError):
        count_vinogradov_system(31, 1, 2)
    with pytest.raises(SizeLimitError):
        count_vinogradov_system(10, 4, 2)


def _random_center(rng, q_hi, n):
    q = int(rng.integers(1, q_hi))
    a = int(units(q)[rng.integers(len(units(q)))])
    qvec = [int(v) for v in rng.integers(1, 20, n)]
    avec = [int(units(qi)[rng.integers(len(units(qi)))]) for qi in qvec]
    return a, q, avec, qvec


def test_center_weight_values():
    assert center_weight(6, [2, 3, 5]) == pytest.approx((2 / 2) * (3 / 3) * (1 / 5))
    assert center_weight(1, [1, 1]) == 1.0
    with pytest.raises(InputError):
        center_weight(0, [1])


def test_f_product_center_weight_envelope():
    """|f_product| fits under C q^(1/4 - n/2) center_weight^(3/4).

    The constant is calibrated on one sample and must then cover an
    independent sample with only 50% headroom.
    """
    n = 5

    def worst_ratio(seed, count):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(count):
            a, q, avec, qvec = _random_center(rng, 40, n)
            fval = abs(f_product(a, q, avec, qvec, 2))
            envelope = q ** (0.25 - n / 2) * center_weight(q, qvec) ** 0.75
            worst = max(worst, fval / envelope)
        return worst

    fitted = worst_ratio(5, 300)
    assert np.isfinite(fitted)
    assert worst_ratio(77, 300) <= 1.5 * fitted


def test_minor_arc_magnitudes_stay_small():
    """Raw |S_N| at a fixed irrational frequency pair, relative to theta(N).

    No exponent is asserted (the predicted decay is logarithmic); the probe
    checks the sums sit far below the zero-frequency mass across the sweep.
    """
    theta, xi = 2**0.5 - 1, 3**0.5 - 1
    for N in (1024, 4096, 16384, 65536):
        mag = abs(prime_exp_sum(PrimeSumQuery(theta, xi, 2, N)))
        assert mag <= 0.06 * chebyshev_theta(N)


# --- unit-sum magnitude growth ---------------------------------------------


def test_complete_sum_growth_exponent():
    """log of max_{a,b} |sum over units of e((a x^2 + b x)/q)| grows like q^(1/2).

    For each sampled prime q the numerator over all b at once is a DFT of
    the quadratic-phase sequence, so the max over both unit parameters is
    exact.  The regression slope of log(max) against log(q) stays below
    0.6, matching square-root growth.
    """
    targets = [31, 59, 101, 211, 401, 809, 1601, 1999]
    primes = sieve_primes(2100)
    qs, vals = [], []
    for t in targets:
        q = int(primes[np.searchsorted(primes, t)])
        x = np.arange(1, q, dtype=np.int64)
        xsq = (x * x) % q
        z = np.zeros((q - 1, q), dtype=complex)
        z[:, 1:] = np.exp(2j * np.pi * ((x[:, None] * xsq[None, :]) % q) / q)
        # numerator(a, b) = sum_x z[a, x] e(b x / q) for every b at once
        spectra = np.fft.ifft(z, axis=1) * q
        mags = np.abs(spectra[:, 1:])  # b over the nonzero residues (all units)
        qs.append(q)
        vals.append(mags.max())
    slope = np.polyfit(np.log(qs), np.log(vals), 1)[0]
    assert slope <= 0.6
