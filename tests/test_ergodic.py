import numpy as np
import pytest

from wglab.errors import InputError, UndefinedMeasureError
from wglab.ergodic import (
    TorusSystem,
    TrigPolynomial,
    discrepancy,
    ergodic_average,
    orbit_points,
    weyl_decay_scan,
)
from wglab.surface import (
    ProblemInstance,
    admissible_mask,
    enumerate_prime_points,
    omega_hat,
)

ALPHA = (0.3173, 0.7193, 0.1234, 0.5551, 0.9017)


@pytest.fixture(scope="module")
def measure77():
    return enumerate_prime_points(ProblemInstance(2, 5, 77))


def test_constant_average_is_exactly_one(measure77):
    system = TorusSystem(alpha=ALPHA)
    f = TrigPolynomial.constant(5)
    for x in (np.zeros(5), np.full(5, 0.37)):
        assert ergodic_average(system, f, measure77, x) == 1.0 + 0j


def test_zero_rotation_returns_f_of_x(measure77):
    # identity transformations: the average cannot converge to the mean
    system = TorusSystem(alpha=(0.0,) * 5)
    f = TrigPolynomial(terms=(((1, 0, 0, 0, 0), 1.0 + 0j), ((0, 0, 0, 0, 0), -0.3 + 0j)))
    x = np.array([0.21, 0.4, 0.9, 0.05, 0.66])
    got = ergodic_average(system, f, measure77, x)
    assert got == pytest.approx(complex(f(x[None, :])[0]), abs=1e-12)


def test_harmonic_identity(measure77):
    system = TorusSystem(alpha=ALPHA)
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = tuple(int(v) for v in rng.integers(-4, 5, size=5))
        x = rng.random(5)
        avg = ergodic_average(system, TrigPolynomial.harmonic(m), measure77, x)
        freq = np.array(m, dtype=float) * np.array(ALPHA)
        assert abs(abs(avg) - abs(omega_hat(measure77, freq))) < 1e-10
        # and the modulus does not depend on the base point
        avg2 = ergodic_average(system, TrigPolynomial.harmonic(m), measure77, rng.random(5))
        assert abs(abs(avg) - abs(avg2)) < 1e-10


def test_average_linearity_and_sup_bound(measure77):
    system = TorusSystem(alpha=ALPHA)
    f = TrigPolynomial(terms=(((1, 2, 0, 0, -1), 0.5 + 0.25j), ((0, 1, 0, 0, 0), -1.0 + 0j)))
    x = np.full(5, 0.123)
    parts = sum(
        c * ergodic_average(system, TrigPolynomial(terms=((m, 1.0 + 0j),)), measure77, x)
        for m, c in f.terms
    )
    whole = ergodic_average(system, f, measure77, x)
    assert whole == pytest.approx(parts, abs=1e-12)
    orbit = (x[None, :] + measure77.representations * np.array(ALPHA)[None, :]) % 1.0
    assert abs(whole) <= np.abs(f(orbit)).max() + 1e-12


def test_average_requires_mass():
    empty = enumerate_prime_points(ProblemInstance(2, 5, 29))
    with pytest.raises(UndefinedMeasureError):
        ergodic_average(TorusSystem(alpha=ALPHA), TrigPolynomial.constant(5), empty, np.zeros(5))


def test_dimension_checks(measure77):
    with pytest.raises(InputError):
        ergodic_average(
            TorusSystem(alpha=(0.1, 0.2)), TrigPolynomial.constant(5), measure77, np.zeros(5)
        )


def test_trig_polynomial_mean():
    f = TrigPolynomial(terms=(((0, 0), 2.5 + 1j), ((1, 0), 1.0 + 0j)))
    assert f.mean == 2.5 + 1j


# --- dyadic decay scan --------------------------------------------------------


def test_weyl_scan_zero_frequency():
    blocks = weyl_decay_scan(2, 5, (0.0,) * 5, 500, 3)
    for b in blocks:
        assert b.max_abs == pytest.approx(1.0, abs=1e-9)


def test_weyl_scan_rational_half_point():
    # coordinate sums are odd along the progression: modulus stays 1
    blocks = weyl_decay_scan(2, 5, (0.5,) * 5, 500, 3)
    for b in blocks:
        assert b.max_abs == pytest.approx(1.0, abs=1e-9)


def test_weyl_scan_matches_enumeration():
    xi = (np.sqrt(2) - 1, np.sqrt(3) - 1, 0.0, 0.0, 0.0)
    blocks = weyl_decay_scan(2, 5, xi, 500, 2)
    for b in blocks:
        best = 0.0
        for lam in range(b.lam_lo, b.lam_hi):
            if lam % 24 != 5:
                continue
            m = enumerate_prime_points(ProblemInstance(2, 5, lam))
            if m.r == 0:
                continue
            best = max(best, abs(omega_hat(m, xi)))
        assert b.max_abs == pytest.approx(best, abs=1e-9)


def test_weyl_scan_validation():
    with pytest.raises(InputError):
        weyl_decay_scan(2, 5, (0.0,) * 5, 0, 3)
    for k, n in ((1, 5), (2, 1)):
        with pytest.raises(InputError, match="k >= 2, n >= 2"):
            weyl_decay_scan(k, n, (0.0,) * n, 100, 2)


def test_weyl_scan_skips_empty_blocks():
    # five cubes of primes sum to at least 40, so [8, 16) and [16, 32) hold no admissible lam
    xi = (0.3, 0.1, 0.0, 0.0, 0.0)
    blocks = weyl_decay_scan(3, 5, xi, 8, 5)
    assert [b.lam_lo for b in blocks] == [32, 64, 128]
    assert all(b.count > 0 for b in blocks)
    with pytest.raises(UndefinedMeasureError):
        weyl_decay_scan(3, 5, xi, 8, 2)


def test_weyl_scan_runs_where_float_counts_are_refused():
    # n = 7 on [0, 2e5), where float counts from transforms could round wrongly; the mask is the exact sumset
    xi = (0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
    blocks = weyl_decay_scan(2, 7, xi, 3125, 6)
    assert [b.lam_lo for b in blocks] == [3125 * 2**j for j in range(6)]
    first = blocks[0]
    mask = admissible_mask(2, 7, first.lam_hi - 1)
    assert first.count == mask[first.lam_lo :].sum() > 100
    m = enumerate_prime_points(ProblemInstance(2, 7, first.argmax_lam))
    assert first.max_abs == pytest.approx(abs(omega_hat(m, xi)), abs=1e-9)


def test_weyl_scan_overall_decay():
    # block maxima fluctuate, but the trend across decades is firmly down
    xi = (np.sqrt(2) - 1, np.sqrt(3) - 1, 0.0, 0.0, 0.0)
    blocks = weyl_decay_scan(2, 5, xi, 1000, 7)
    assert blocks[-1].max_abs < 0.5 * blocks[0].max_abs


# --- discrepancy ----------------------------------------------------------------


def test_discrepancy_single_point():
    assert discrepancy(np.array([[0.37, 0.41]]), 5000, seed=2) > 0.7


def test_discrepancy_orbit_in_range(measure77):
    pts = orbit_points(measure77, ALPHA)
    d = discrepancy(pts, 2000, seed=1)
    assert 0.0 < d <= 1.0


def test_discrepancy_grid_trend():
    """Centered M x M grids have star discrepancy ~ 1/M; the estimate follows."""
    prev = 1.0
    for M in (4, 8, 16):
        g = (np.stack(np.meshgrid(np.arange(M), np.arange(M)), -1).reshape(-1, 2) + 0.5) / M
        d = discrepancy(g, 4000, seed=3)
        assert d <= 3.0 / M
        assert d < prev
        prev = d


def test_discrepancy_matches_broadcast_comparison():
    # the rank bitsets must give the counts of the (boxes, points, n) broadcast, bit for bit:
    # on distinct random coordinates, and on orbit points, whose coordinates take at most 16 values
    # (one per prime up to sqrt(3005))
    orbit = orbit_points(enumerate_prime_points(ProblemInstance(2, 5, 3005)), ALPHA)
    for pts, num_boxes in [(np.random.default_rng(4).random((700, 5)), 6000), (orbit, 3000)]:
        assert len(pts) % 8 and num_boxes > 2_000_000 // len(pts)  # a partial byte; boxes in several chunks
        boxes = np.random.default_rng(9).random((num_boxes, 5))
        inside = (pts[None, :, :] < boxes[:, None, :]).all(axis=2).sum(axis=1) / len(pts)
        expected = float(np.abs(inside - boxes.prod(axis=1)).max())
        assert discrepancy(pts, num_boxes, seed=9) == expected
    assert len(orbit) == 1580 and max(len(np.unique(orbit[:, j])) for j in range(5)) <= 16


def test_discrepancy_empty_set():
    with pytest.raises(InputError):
        discrepancy(np.zeros((0, 3)))


def test_discrepancy_needs_a_box():
    # no sampled box is no estimate, not a perfect 0.0
    with pytest.raises(InputError):
        discrepancy(np.array([[0.37, 0.41]]), num_boxes=0)


def test_torus_system_validation():
    with pytest.raises(InputError):
        TorusSystem(alpha=())
