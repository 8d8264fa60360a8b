import numpy as np
import pytest

from wglab.arcs import (
    ArcSystem,
    _arc_center,
    RationalPoint,
    convergents,
    dirichlet_approx,
    major_arc_membership,
    major_arcs_measure,
    torus_distance,
)
from wglab.errors import InputError

SQRT2M1 = np.sqrt(2.0) - 1.0
GOLDEN_FRAC = (np.sqrt(5.0) - 1.0) / 2.0


def test_rational_point_validation():
    with pytest.raises(InputError):
        RationalPoint(2, 4)
    with pytest.raises(InputError):
        RationalPoint(1, 0)
    with pytest.raises(InputError):
        RationalPoint(5, 3)
    assert str(RationalPoint(1, 2)) == "1/2"


def test_convergents_sqrt2():
    got = [(c.a, c.q) for c in convergents(SQRT2M1, 4)]
    assert got == [(0, 1), (1, 2), (2, 5), (5, 12)]


def test_convergents_rational_terminates():
    got = [(c.a, c.q) for c in convergents(0.5, 8)]
    assert got == [(0, 1), (1, 2)]


def test_convergents_golden_ratio_fibonacci():
    got = [(c.a, c.q) for c in convergents(GOLDEN_FRAC, 7)]
    assert got == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13)]


def test_convergent_law():
    for xi in (SQRT2M1, GOLDEN_FRAC, np.pi % 1.0, 0.37100293):
        for c in convergents(xi, 12):
            assert abs(c.q * xi - c.a) < 1.0 / c.q + 1e-15


def test_convergents_count_limit():
    with pytest.raises(InputError):
        convergents(0.3, 65)


def test_dirichlet_examples():
    assert (dirichlet_approx(0.5, 10).a, dirichlet_approx(0.5, 10).q) == (1, 2)
    p = dirichlet_approx(0.333, 10)
    assert (p.a, p.q) == (1, 3)
    assert abs(3 * 0.333 - 1) == pytest.approx(0.001, abs=1e-12)
    p = dirichlet_approx(SQRT2M1, 30)
    assert (p.a, p.q) == (12, 29)


def test_dirichlet_guarantee():
    rng = np.random.default_rng(17)
    for theta in rng.random(50):
        for bound in (3, 10, 50, 400):
            p = dirichlet_approx(float(theta), bound)
            assert p.q <= bound
            assert p.q * torus_distance(theta - p.a / p.q) <= 1.0 / bound + 1e-12


def test_arc_system_validation():
    with pytest.raises(InputError):
        ArcSystem(X=10.0, Q=20.0)
    with pytest.raises(InputError):
        ArcSystem(X=10.0, Q=0.5)


def test_membership_examples():
    system = ArcSystem(X=1000.0, Q=10.0)
    hit = major_arc_membership(0.5001, system)
    assert (hit.a, hit.q) == (1, 2)
    assert major_arc_membership(0.123456, system) is None
    hit = major_arc_membership(0.0, system)
    assert (hit.a, hit.q) == (0, 1)


def test_membership_wraps_around_one():
    system = ArcSystem(X=1000.0, Q=10.0)
    hit = major_arc_membership(0.9999, system)
    assert (hit.a, hit.q) == (0, 1)


def test_membership_tie_prefers_smaller_q():
    # 1/2 lies in both the q=1 arcs' complement and the q=2 arc; with a huge
    # width every arc contains it and the scan must return 0/1
    system = ArcSystem(X=4.0, Q=2.0)
    hit = major_arc_membership(0.5, system)
    assert (hit.a, hit.q) == (0, 1)


def test_disjointness_on_grid():
    from math import gcd

    X, Q = 1000.0, 10.0
    w = Q / X
    thetas = np.linspace(0.0, 1.0, 100_000, endpoint=False)
    hits = np.zeros(len(thetas), dtype=np.int64)
    for q in range(1, int(Q) + 1):
        t = q * thetas
        a = np.rint(t)
        ok = np.abs(t - a) <= w
        amod = a.astype(np.int64) % q
        cop_lookup = np.array([gcd(v, q) == 1 for v in range(q)])
        hits += (ok & cop_lookup[amod]).astype(np.int64)
    assert hits.max() <= 1


def test_total_measure_bound():
    for X in (100.0, 1000.0, 20000.0):
        for Q in (2.0, 5.0, 10.0, 30.0):
            if 2 * Q >= X:
                continue
            assert major_arcs_measure(ArcSystem(X=X, Q=Q)) <= 4 * Q * Q / X


def _smallest_a_center(theta, Q, halfwidth):
    """Reference scan: smallest q, then the smallest a, whose window covers theta."""
    from math import ceil, floor, gcd

    for q in range(1, floor(Q) + 1):
        t = q * theta
        for a in range(ceil(t - halfwidth), floor(t + halfwidth) + 1):
            if gcd(a % q, q) == 1:
                return (a % q, q)
    return None


def test_arc_center_nearest_first_and_membership():
    ties = sorted({a / (2 * q) for q in range(1, 13) for a in range(2 * q)})
    thetas = ties + list(np.linspace(0.0, 1.0, 257, endpoint=False) + 1e-3)
    # a window wider than 1/2: q = 1 always covers theta, at the nearest integer
    for halfwidth in (0.5000001, 0.6, 0.75, 1.0, 2.5):
        for theta in thetas:
            center, d = _arc_center(theta, 7.0, halfwidth)
            assert (center.a, center.q) == (0, 1)
            assert abs(d) <= 0.5
            assert d == theta - round(theta)
    # at the tie 1/2 both 0 and 1 are nearest; the smaller a = 0 leaves d = +1/2
    assert _arc_center(0.5, 3.0, 0.9)[1] == 0.5
    assert _arc_center(2.5, 1.0, 0.9)[1] == 0.5
    # membership is the helper's center, and equals the smallest-a scan
    for Q in (1.0, 2.5, 4.0, 7.5):
        for halfwidth in np.linspace(0.01, 1.0, 12):
            system = ArcSystem(X=Q / halfwidth, Q=Q)
            for theta in thetas:
                hit = major_arc_membership(theta, system)
                helper = _arc_center(theta, Q, system.halfwidth)
                expected = _smallest_a_center(theta, Q, system.halfwidth)
                assert (helper and (helper[0].a, helper[0].q)) == expected
                assert (hit and (hit.a, hit.q)) == expected
