"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; every tolerance is pinned here.
"""

from itertools import product
from math import gcd, log, sqrt

import numpy as np
import pytest
from scipy.signal import fftconvolve

from wglab.ergodic import TorusSystem, TrigPolynomial, ergodic_average, weyl_decay_scan
from wglab.expsums import (
    GSumQuery,
    PrimeSumQuery,
    aggregate_g,
    chebyshev_theta,
    g_sum,
    g_via_lemma,
    prime_exp_sum,
)
from wglab.maxops import GridFunction, convolve, delta_scaling_probe
from wglab.numtheory import divisor_count, euler_phi, int_kth_root, sieve_primes, units
from wglab.oscint import OscQuery, osc_integral, singular_integral, surface_transform, SurfaceQuery
from wglab.surface import (
    ApproxParams,
    ProblemInstance,
    admissible_mask,
    enumerate_prime_points,
    error_term,
    hua_ratio,
    omega_hat,
    sample_admissible_lams,
)


def report(idx: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance {idx:02d} {name}: {status}{suffix}")


def test_criterion_01_reduction_identity_and_aggregate_bound():
    worst = 0.0
    bound_ok = True
    for k in (2, 3):
        for q in range(1, 25):
            for r in range(1, 25):
                r0 = r // gcd(q, r)
                bound = divisor_count(r) * r / euler_phi(r0)
                for a in units(q):
                    a = int(a)
                    for b in units(r):
                        query = GSumQuery(a, q, int(b), r, k)
                        worst = max(worst, abs(g_via_lemma(query) - g_sum(query)))
                    total = sum(abs(aggregate_g(a, q, r, u, k)) for u in range(r))
                    if total > bound + 1e-9:
                        bound_ok = False
    ok = worst <= 1e-9 and bound_ok
    report(1, "unit-sum reduction identity and aggregate bound", ok,
           f"max identity gap {worst:.2e}")
    assert worst <= 1e-9
    assert bound_ok


def test_criterion_02_enumeration_oracle():
    lam_max = 2000
    ok = True
    for k in (2, 3):
        values = [int(p) for p in sieve_primes(int_kth_root(lam_max, k))]
        for n in (3, 4, 5):
            buckets = {}
            for t in product(values, repeat=n):
                s = sum(v**k for v in t)
                if s <= lam_max:
                    buckets.setdefault(s, []).append(t)
            for lam in range(1, lam_max + 1):
                got = enumerate_prime_points(ProblemInstance(k, n, lam))
                want = sorted(buckets.get(lam, []))
                if [tuple(r) for r in got.representations] != want:
                    ok = False
    m77 = enumerate_prime_points(ProblemInstance(2, 5, 77))
    pinned = m77.r == 10 and abs(m77.R - 10 * log(3) ** 3 * log(5) ** 2) <= 1e-9
    report(2, "split enumeration equals nested loops", ok and pinned,
           f"r(77)={m77.r}, R(77)={m77.R:.9f}")
    assert ok
    assert pinned


def test_criterion_03_count_prediction_ratio():
    lams = sample_admissible_lams(admissible_mask(2, 5, 99_999), 10_000, 100_000, 50)
    assert len(lams) >= 50
    ratios = []
    for lam in lams:
        m = enumerate_prime_points(ProblemInstance(2, 5, lam))
        ratios.append(hua_ratio(m, Qsing=100))
    in_band = sum(1 for r in ratios if 0.7 <= r <= 1.3)
    frac = in_band / len(ratios)
    ok = frac >= 0.9
    report(3, "count/prediction ratio in [0.7, 1.3]", ok,
           f"{in_band}/{len(ratios)} in band; median {np.median(ratios):.3f}")
    assert ok, (
        f"only {frac:.0%} of sampled ratios lie in [0.7, 1.3]; "
        f"median {np.median(ratios):.3f} (slow logarithmic approach to 1)"
    )


def test_criterion_04_error_decay():
    rng = np.random.default_rng(2024)
    xi_sample = rng.random((32, 5))
    medians, zero_errs = [], []
    for j in range(5):
        lo, hi = 4096 * 2**j, 4096 * 2 ** (j + 1)
        lams = sample_admissible_lams(admissible_mask(2, 5, hi - 1), lo, hi, 6)
        errs = []
        for lam in lams:
            inst = ProblemInstance(2, 5, lam)
            m = enumerate_prime_points(inst)
            params = ApproxParams.for_instance(inst, C=2.0)
            for xi in xi_sample:
                errs.append(abs(error_term(m, params, xi)))
            if lam >= 10_000:
                zero_errs.append(abs(error_term(m, params, np.zeros(5))))
        medians.append(float(np.median(errs)))
    non_increasing = all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
    zero_ok = bool(zero_errs) and max(zero_errs) < 0.1
    ok = non_increasing and zero_ok
    report(4, "error-term decay across dyadic blocks", ok,
           "medians " + ", ".join(f"{v:.4f}" for v in medians)
           + f"; max |err(0)| {max(zero_errs):.3f}")
    assert non_increasing, f"block medians not non-increasing: {medians}"
    assert zero_ok, (
        f"max |error at zero frequency| = {max(zero_errs):.3f} >= 0.1 "
        "(zero-frequency main term overshoots at desk scale)"
    )


def test_criterion_05_weyl_decay():
    xi = (sqrt(2) - 1, sqrt(3) - 1, 0.0, 0.0, 0.0)
    blocks = weyl_decay_scan(2, 5, xi, 1000, 7)
    maxima = [b.max_abs for b in blocks]
    non_increasing = all(maxima[i + 1] <= maxima[i] for i in range(len(maxima) - 1))
    final_ok = maxima[-1] < 0.5
    control = weyl_decay_scan(2, 5, (0.5,) * 5, 1000, 7)
    control_ok = all(abs(b.max_abs - 1.0) <= 1e-9 for b in control)
    ok = non_increasing and final_ok and control_ok
    report(5, "transform decay at an irrational frequency", ok,
           "maxima " + ", ".join(f"{v:.4f}" for v in maxima))
    assert final_ok
    assert control_ok
    assert non_increasing, f"block maxima fluctuate: {maxima}"


def _mc_volume_derivative(n, k, u, seed, h, batches=60, batch=800_000):
    """Central-difference density of the power-sum volume, Richardson in h.

    The level surface touches the cube boundary at u = 1, which kinks the
    density; extrapolating from windows h and 2h removes the linear bias.
    """
    rng = np.random.default_rng(seed)
    hits_h = hits_2h = total = 0
    for _ in range(batches):
        s = (rng.random((batch, n)) ** k).sum(axis=1)
        hits_h += int(((s > u - h) & (s <= u + h)).sum())
        hits_2h += int(((s > u - 2 * h) & (s <= u + 2 * h)).sum())
        total += batch
    return 2 * hits_h / (2 * h * total) - hits_2h / (4 * h * total)


def test_criterion_06_oscillatory_integrals():
    worst = 0.0
    for d in (0.0, 0.3, -0.3, 2.0, -2.0):
        for e in (0.0, 0.5, -0.5, 3.0, -3.0):
            for N in (1.0, 4.0, 10.0):
                for k in (2, 3):
                    a = osc_integral(OscQuery(d, e, k, N), tol=1e-13 * N).value
                    b = N * osc_integral(OscQuery(N**k * d, N * e, k, 1.0), tol=1e-13).value
                    scale = max(abs(a), abs(b))
                    if scale <= 1e-9 * N:  # exact zeros of the integral
                        continue
                    worst = max(worst, abs(a - b) / scale)
    scaling_ok = worst <= 1e-6

    quarter = surface_transform(SurfaceQuery(2, 2, 1.0, (0.0, 0.0))).value.real
    quarter_ok = abs(quarter - np.pi / 4) <= 0.01 * np.pi / 4

    oracle_ok = True
    details = []
    for i, (n, k, h) in enumerate([(3, 2, 0.015), (5, 2, 0.05), (4, 3, 0.02)]):
        got = singular_integral(n, k, 1.0)
        want = _mc_volume_derivative(n, k, 1.0, seed=100 + i, h=h)
        details.append(f"({n},{k}) {got:.5f} vs {want:.5f}")
        if abs(got - want) > 0.01 * want:
            oracle_ok = False

    ok = scaling_ok and quarter_ok and oracle_ok
    report(6, "oscillatory integral identities", ok,
           f"scaling worst {worst:.2e}; " + "; ".join(details))
    assert scaling_ok
    assert quarter_ok
    assert oracle_ok


def test_criterion_07_major_arc_approximation():
    from fractions import Fraction

    N = 100_000
    theta_n = chebyshev_theta(N)
    worst = 0.0
    for q in (1, 2, 3):
        for r in (1, 2, 3):
            for a in range(q):
                if gcd(a, q) != 1:
                    continue
                for b in range(r):
                    if gcd(b, r) != 1:
                        continue
                    s = prime_exp_sum(PrimeSumQuery(Fraction(a, q), Fraction(b, r), 2, N))
                    g = g_sum(GSumQuery(a, q, b, r, 2))
                    worst = max(worst, abs(s - g * theta_n) / N)
    ok = worst <= 0.02
    report(7, "prime sum matches unit-sum times theta(N) on low arcs", ok,
           f"worst deviation {worst:.5f}")
    assert ok


def test_criterion_08_convolution_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for lam in (77, 125):
        measure = enumerate_prime_points(ProblemInstance(2, 5, lam))
        for _ in range(2):
            f = GridFunction(
                K=4,
                values=rng.standard_normal((9,) * 5) + 1j * rng.standard_normal((9,) * 5),
            )
            a = convolve(f, measure)
            # oracle: window [2K, 4K] of scipy's transform convolution, kernel at p + 2K
            reps, K = measure.representations, f.K
            keep = (np.abs(reps) <= 2 * K).all(axis=1)
            kern = np.zeros((4 * K + 1,) * 5)
            np.add.at(kern, tuple((reps[keep] + 2 * K).T), measure.weights[keep])
            b = fftconvolve(f.values, kern)[(slice(2 * K, 4 * K + 1),) * 5] / measure.R
            worst = max(worst, float(np.abs(a.values - b).max()))
    ok = worst <= 1e-8
    report(8, "transform and direct convolution agree", ok, f"max gap {worst:.2e}")
    assert ok


def test_criterion_09_delta_probe_growth():
    rep = delta_scaling_probe(2, 5, 1.2, [2**e for e in range(12, 17)])
    ok = rep.slope is not None and rep.slope > 0
    report(9, "delta-probe norm growth", ok, f"slope {rep.slope:.3f}")
    assert ok


def test_criterion_10_ergodic_harmonic_identity():
    rng = np.random.default_rng(10)
    ok = True
    worst = 0.0
    for lam in (77, 4901):
        m = enumerate_prime_points(ProblemInstance(2, 5, lam))
        if m.r == 0:
            continue
        system = None
        for _ in range(20):
            alpha = tuple(rng.random(5))
            system = TorusSystem(alpha=alpha)
            mvec = tuple(int(v) for v in rng.integers(-5, 6, size=5))
            x = rng.random(5)
            avg = ergodic_average(system, TrigPolynomial.harmonic(mvec), m, x)
            freq = np.array(mvec, dtype=float) * np.array(alpha)
            gap = abs(abs(avg) - abs(omega_hat(m, freq)))
            worst = max(worst, gap)
            if gap > 1e-10:
                ok = False
        if ergodic_average(system, TrigPolynomial.constant(5), m, np.zeros(5)) != 1.0 + 0j:
            ok = False
    report(10, "torus average matches the transform modulus", ok, f"worst gap {worst:.2e}")
    assert ok
