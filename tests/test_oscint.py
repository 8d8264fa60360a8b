import mpmath as mp
import numpy as np
import pytest

from wglab import oscint
from wglab.errors import InputError
from wglab.oscint import (
    OscQuery,
    SurfaceQuery,
    _i1_adaptive,
    _i1_quadratic,
    _i1_series_eta0,
    osc_integral,
    singular_integral,
    surface_transform,
)

DELTA_GRID = [0.0, 0.3, -0.3, 2.0, -2.0]
ETA_GRID = [0.0, 0.5, -0.5, 3.0, -3.0]
N_GRID = [1.0, 4.0, 10.0]


def test_constant_integrand():
    for k in (2, 3):
        res = osc_integral(OscQuery(0.0, 0.0, k, 5.0))
        assert res.value == pytest.approx(5.0, abs=1e-10)


def test_full_period_vanishes():
    for k in (2, 4):
        assert abs(osc_integral(OscQuery(0.0, 1.0, k, 1.0)).value) < 1e-10


def test_half_period_closed_form():
    # (e(eta) - 1) / (2 pi i eta) at eta = 1/2 is 2i/pi
    res = osc_integral(OscQuery(0.0, 0.5, 2, 1.0))
    assert res.value == pytest.approx(2j / np.pi, abs=1e-10)


def test_linear_phase_closed_form():
    for eta in (0.3, -1.7, 4.2):
        expected = (np.exp(2j * np.pi * eta) - 1) / (2j * np.pi * eta)
        assert osc_integral(OscQuery(0.0, eta, 3, 1.0)).value == pytest.approx(
            expected, abs=1e-10
        )


def test_error_estimate_reported():
    res = osc_integral(OscQuery(1.3, -0.7, 2, 6.0))
    assert res.error <= 1e-8 * 6.0


def test_scaling_identity_subset():
    for delta, eta, N, k in [(0.3, -0.5, 4.0, 2), (2.0, 3.0, 10.0, 3), (-0.3, 0.0, 10.0, 2)]:
        a = osc_integral(OscQuery(delta, eta, k, N), tol=1e-13 * N).value
        b = N * osc_integral(OscQuery(N**k * delta, N * eta, k, 1.0), tol=1e-13).value
        assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-9 * N)


@pytest.mark.parametrize("k", [2, 3])
def test_decay_shape_power_of_delta(k):
    """|I_N| stays under C * N (1 + N^k |delta|)^(-1/k) with one fitted C."""
    fitted = max(
        abs(osc_integral(OscQuery(d, e, k, N)).value)
        * (1 + N**k * abs(d)) ** (1.0 / k)
        / N
        for d in DELTA_GRID
        for e in ETA_GRID
        for N in N_GRID
    )
    assert fitted <= 2.0


@pytest.mark.parametrize("k", [2, 3])
def test_decay_shape_power_of_eta(k):
    """|I_N| stays under C * N (1 + N |eta|)^(-1/2) with one fitted C."""
    fitted = max(
        abs(osc_integral(OscQuery(d, e, k, N)).value) * (1 + N * abs(e)) ** 0.5 / N
        for d in DELTA_GRID
        for e in ETA_GRID
        for N in N_GRID
    )
    assert fitted <= 2.0


def test_validation():
    with pytest.raises(InputError):
        OscQuery(0.0, 0.0, 2, 0.0)
    with pytest.raises(InputError):
        OscQuery(0.0, 0.0, 1, 1.0)


def test_unreachable_tolerance_raises():
    from wglab.errors import NumericError

    with pytest.raises(NumericError, match="achieved"):
        osc_integral(OscQuery(1.0, 0.5, 2, 10.0), tol=0.0)


def test_tail_warning_flag():
    # slow boundary-resonant tail: flagged; fast-decaying case: clean
    slow = surface_transform(SurfaceQuery(2, 2, 1.0, (0.0, 0.0)))
    assert slow.tail_warning
    fast = surface_transform(SurfaceQuery(5, 2, 1.0, (0.0,) * 5))
    assert not fast.tail_warning


# --- closed-form inner routes vs the panel integrator ------------------------


def _i1_mpmath(theta: float, eta: float) -> complex:
    """I_1(theta, eta) for k = 2 from mpmath's erf at 30 digits, no reflection.

    With c = eta / (2 theta) and r = sqrt(-2 pi i theta) (principal branch),
    I_1 = e(-theta c^2) * sqrt(pi) / (2 r) * [erf(r (1 + c)) - erf(r c)].
    """
    with mp.workdps(30):
        th, et = mp.mpf(theta), mp.mpf(eta)
        c = et / (2 * th)
        r = mp.sqrt(-2j * mp.pi * th)
        val = mp.sqrt(mp.pi) / (2 * r) * (mp.erf(r * (1 + c)) - mp.erf(r * c))
        return complex(val * mp.expjpi(-2 * th * c * c))


def test_quadratic_route_matches_mpmath():
    thetas = [1e-4, -1e-4, 0.3, -0.6, 2.0, -7.5, 40.0, -311.7, 1799.3, -1800.0]
    for th in thetas:
        # -1.5 * th puts c = eta / (2 theta) at -3/4, on the reflected branch
        for eta in (0.0, 2.5, -20.0, 60.0, -59.0, -1.5 * th):
            got = _i1_quadratic(np.array([th]), eta)[0]
            assert abs(got - _i1_mpmath(th, eta)) <= 1e-13, (th, eta)
    # small |theta| against the panel integrator, a reference outside mpmath
    small = np.array([1e-4, -1e-4, 0.05, -0.2, 0.5, -0.74, 0.749])
    for eta in (0.0, 2.5, -0.3, -20.0, 61.0):
        panel = _i1_adaptive(small, eta, 2)
        assert np.abs(_i1_quadratic(small, eta) - panel).max() < 1e-12


def _w_mpmath(z: complex) -> complex:
    """The Faddeeva function exp(-z^2) erfc(-i z) from mpmath at 30 digits."""
    with mp.workdps(30):
        v = mp.mpc(z.real, z.imag)
        return complex(mp.exp(-v * v) * mp.erfc(-1j * v))


def test_faddeeva_matches_mpmath_and_wofz():
    """Weideman's w against mpmath, with scipy's wofz as a second, test-only oracle.

    On the ray r e^(i pi/4) that _i1_quadratic uses, and on a sample of the
    upper half-plane, the error is about 1e-15 (worst seen 1.0e-15).  Below
    the axis the reflection w(z) = 2 exp(-z^2) - w(-z) carries the roundoff
    of the phase of exp(-z^2), which grows like r^2: 4.5e-13 at r = -37 on
    the ray down to r = -56 (wofz: 4.1e-13).
    """
    from scipy.special import wofz
    ray = np.exp(0.25j * np.pi)
    rng = np.random.default_rng(5)
    above = np.concatenate([
        np.concatenate([[0.0], np.geomspace(1e-6, 1e5, 250)]) * ray,
        rng.uniform(-50.0, 50.0, 200) + 1j * rng.uniform(0.0, 50.0, 200),
        np.geomspace(1e-4, 1e5, 100) * np.exp(1j * np.pi * rng.uniform(0.0, 1.0, 100)),
        rng.uniform(-30.0, 30.0, 20) + 0j,  # the real axis
    ])
    below = -np.geomspace(1e-3, 56.0, 150) * ray
    for z, bound in ((above, 1e-14), (below, 1e-12)):
        got = oscint._faddeeva(z)
        ref = np.array([_w_mpmath(v) for v in z])
        assert np.abs(got - ref).max() <= bound
        assert np.abs(got - wofz(z)).max() <= bound
    assert oscint._faddeeva(np.array([0j]))[0] == 1.0


def test_quadratic_route_is_chunked_exactly():
    """One _i1_quadratic call over more (eta, theta) pairs than one batch holds.

    The chunks must give the values of small separate calls bit for bit, and
    a sample of them must match mpmath as in test_quadratic_route_matches_mpmath.
    """
    etas = np.array([0.0, 3.5, -41.0])[:, None]
    size = oscint._BATCH_ELEMENTS // len(etas) + 2_000
    thetas = np.linspace(-1150.0, 1150.0, size)
    thetas = thetas[thetas != 0.0]
    assert etas.size * len(thetas) > oscint._BATCH_ELEMENTS
    got = _i1_quadratic(thetas, etas)
    assert got.shape == (len(etas), len(thetas))
    for lo in range(0, len(thetas), 10_000):
        assert np.array_equal(got[:, lo : lo + 10_000], _i1_quadratic(thetas[lo : lo + 10_000], etas))
    rng = np.random.default_rng(3)
    for row, col in zip(rng.integers(0, len(etas), 12), rng.integers(0, len(thetas), 12)):
        assert abs(got[row, col] - _i1_mpmath(thetas[col], etas[row, 0])) <= 1e-13


def test_series_route_matches_adaptive():
    thetas = np.array([9.0, 25.0, 120.0, -18.0, -300.0])
    for k in (3, 4):
        closed = _i1_series_eta0(thetas, k)
        panel = _i1_adaptive(thetas, 0.0, k)
        assert np.abs(closed - panel).max() < 1e-11


# --- surface transform -------------------------------------------------------


def test_surface_transform_quarter_circle():
    res = surface_transform(SurfaceQuery(2, 2, 1.0, (0.0, 0.0)))
    assert res.value.real == pytest.approx(np.pi / 4, rel=0.01)
    assert abs(res.value.imag) < 1e-9
    # slow tail: the estimate must be reported and cover the known residual
    assert abs(res.value.real - np.pi / 4) <= 3 * res.tail_estimate


def test_surface_transform_positive_mass():
    for (n, k, lam0) in [(3, 2, 0.5), (5, 2, 1.7), (4, 3, 1.0), (5, 3, 2.5)]:
        res = surface_transform(SurfaceQuery(n, k, lam0, (0.0,) * n))
        assert res.value.real > 0
        assert abs(res.value.imag) < 1e-8


def test_surface_transform_conjugate_symmetry():
    eta = (0.7, -1.3, 0.2, 2.9, 0.0)
    a = surface_transform(SurfaceQuery(5, 2, 1.0, eta), abs_tol=1e-8)
    b = surface_transform(SurfaceQuery(5, 2, 1.0, tuple(-v for v in eta)), abs_tol=1e-8)
    assert b.value == pytest.approx(a.value.conjugate(), abs=1e-10)


def test_surface_query_validation():
    with pytest.raises(InputError):
        SurfaceQuery(2, 3, 1.0, (0.0, 0.0))  # n < k
    with pytest.raises(InputError):
        SurfaceQuery(3, 2, 4.0, (0.0,) * 3)  # level outside (0, n)
    with pytest.raises(InputError):
        SurfaceQuery(3, 2, 1.0, (0.0,) * 2)  # frequency length
    for bad in (2.0**52, -(2.0**52), float("nan"), float("inf")):  # no digit of e(eta x) survives
        with pytest.raises(InputError, match="2\\^52"):
            SurfaceQuery(2, 2, 1.0, (0.0, bad))
    SurfaceQuery(2, 2, 1.0, (0.0, 2.0**52 - 1))


def test_singular_integral_known_values():
    assert singular_integral(3, 2, 1.0) == pytest.approx(np.pi / 4, rel=1e-3)
    assert singular_integral(5, 2, 1.0) == pytest.approx(np.pi**2 / 24, rel=1e-5)


def test_singular_integral_closed_form():
    assert singular_integral(2, 2, 1.0) == pytest.approx(np.pi / 4, rel=1e-14)
    assert singular_integral(5, 2, 1.0) == pytest.approx(np.pi**2 / 24, rel=1e-14)
    for n, k, lam0 in ((5, 2, 0.3), (4, 3, 0.7)):
        quad = surface_transform(SurfaceQuery(n, k, lam0, (0.0,) * n)).value.real
        assert singular_integral(n, k, lam0) == pytest.approx(quad, rel=1e-5)
    with pytest.raises(InputError):  # the cube clips the surface above level 1
        singular_integral(5, 2, 1.5)
    with pytest.raises(InputError):
        singular_integral(5, 2, 0.0)


def test_singular_integral_volume_derivative():
    """Independent check: the value is the u-derivative of the box-sphere volume."""
    n, k, u = 5, 2, 1.0
    rng = np.random.default_rng(42)
    h, hits, total = 0.02, 0, 0
    for _ in range(40):
        x = rng.random((200_000, n))
        s = (x**k).sum(axis=1)
        hits += ((s > u - h) & (s <= u + h)).sum()
        total += len(s)
    oracle = hits / (2 * h * total)
    assert singular_integral(n, k, u) == pytest.approx(oracle, rel=0.02)


_ZEROS_BEFORE = (0.4112335287436101 + 0j, 109.95116277760006, False)
_MIXED_BEFORE = (-0.003540032199701912 + 0.001149899368625442j, 42.94967296000002, True)


@pytest.mark.parametrize("eta, abs_tol, per_shell, before, pinned", [
    # before: (value, theta_max, tail_warning) on the 0.5 / (lam0 + n + 0.5) wide panels
    # that preceded the band-sized ones, which must reproduce them to roundoff;
    # pinned: repr of the result of one pass per shell on band-sized panels
    # (2 / max(lam0, n - lam0) wide), with the numpy Faddeeva function and the
    # a-priori quad_error
    ((0.0,) * 5, 0.0, 1, _ZEROS_BEFORE,
     "SurfaceResult(value=(0.4112335287436101+0j), quad_error=8.42906303482906e-15, "
     "tail_estimate=9.69175221878197e-09, tail_warning=False, theta_max=109.95116277760006)"),
    ((1.5, -2.0, 1.5, 0.0, 0.0), 1e-5, 3, _MIXED_BEFORE,
     "SurfaceResult(value=(-0.003540032199701902+0.0011498993686254353j), "
     "quad_error=3.371695370235167e-16, tail_estimate=1.1665482369413929e-06, "
     "tail_warning=True, theta_max=42.94967296000002)"),
    ((1.5, -2.0, 1.5, -0.0, 0.0), 1e-5, 3, _MIXED_BEFORE,
     "SurfaceResult(value=(-0.003540032199701902+0.0011498993686254353j), "
     "quad_error=3.371695370235167e-16, tail_estimate=1.1665482369413929e-06, "
     "tail_warning=True, theta_max=42.94967296000002)"),
], ids=["zeros", "mixed", "mixed-negative-zero"])
def test_one_inner_integral_per_distinct_frequency(monkeypatch, eta, abs_tol, per_shell, before, pinned):
    shells, rows = [], []  # one _i1_quadratic call per shell, one eta row per distinct frequency
    shell_sums, quadratic = oscint._shell_sums, oscint._i1_quadratic

    def counted_shell(*args):
        shells.append(args[:2])
        return shell_sums(*args)

    def counted_quadratic(thetas, eta):
        rows.append(np.size(eta))
        return quadratic(thetas, eta)

    def k3_route(*args):
        raise AssertionError("k = 2 took the k >= 3 inner route")

    monkeypatch.setattr(oscint, "_shell_sums", counted_shell)
    monkeypatch.setattr(oscint, "_i1_quadratic", counted_quadratic)
    monkeypatch.setattr(oscint, "_i1_batch", k3_route)
    res = surface_transform(SurfaceQuery(5, 2, 1.0, eta), abs_tol=abs_tol)
    assert len(shells) > 0
    assert rows == [per_shell] * len(shells)
    assert repr(res) == pinned
    value, theta_max, warning = before
    assert abs(res.value - value) <= 1e-16
    assert res.theta_max == theta_max
    assert res.tail_warning == warning


def _shell_edges(radius):
    """The shell edges of surface_transform up to |theta| = radius."""
    edges = [0.0, 1.0]
    while edges[-1] * 1.6 <= radius * (1 + 1e-12):
        edges.append(edges[-1] * 1.6)
    return edges


@pytest.mark.parametrize("k", [2, 3])
def test_one_node_set_per_sign(monkeypatch, k):
    """Each shell hands the inner integrals one node set per sign, and nothing else.

    The thetas are the 16-point nodes of the shell's panels followed by their
    negatives.  At k = 2 the Faddeeva function sees two arguments per distinct
    frequency per node; at k >= 3 each distinct frequency takes one call.
    """
    query = SurfaceQuery(5, k, 1.0, (1.5, -2.0, 1.5, 0.0, 0.0))
    width = 2.0 / max(query.lam0, query.n - query.lam0)
    shells, calls, arguments = [], [], []
    shell_sums, quadratic, batch, faddeeva = (
        oscint._shell_sums, oscint._i1_quadratic, oscint._i1_batch, oscint._faddeeva)

    def counted_shell(lo, hi, *args):
        first, before = len(calls), sum(arguments)
        out = shell_sums(lo, hi, *args)
        shells.append((lo, hi, calls[first:], sum(arguments) - before))
        return out

    def counted_quadratic(thetas, eta):
        calls.append(np.array(thetas))
        return quadratic(thetas, eta)

    def counted_batch(thetas, eta, k):
        calls.append(np.array(thetas))
        return batch(thetas, eta, k)

    def counted_faddeeva(z):
        arguments.append(np.size(z))
        return faddeeva(z)

    monkeypatch.setattr(oscint, "_shell_sums", counted_shell)
    monkeypatch.setattr(oscint, "_i1_quadratic", counted_quadratic)
    monkeypatch.setattr(oscint, "_i1_batch", counted_batch)
    monkeypatch.setattr(oscint, "_faddeeva", counted_faddeeva)
    monkeypatch.setattr(oscint, "_WORK_BUDGET", 1_000_000)  # a few shells suffice at k = 3
    surface_transform(query, abs_tol=1e-5)
    distinct = 3
    assert len(shells) >= 4
    for lo, hi, shell_calls, shell_arguments in shells:
        u, _ = oscint._gl_panels(lo, hi, max(2, int(np.ceil((hi - lo) / width))))
        assert len(shell_calls) == (1 if k == 2 else distinct)
        for thetas in shell_calls:
            assert np.array_equal(thetas, np.concatenate([u, -u]))
        assert shell_arguments == (2 * distinct * 2 * len(u) if k == 2 else 0)


def _band_rule_queries():
    rng = np.random.default_rng(19)
    queries = []
    for _ in range(20):
        n = int(rng.integers(3, 7))
        eta = tuple(float(v) for v in rng.uniform(-40.0, 40.0, n))
        queries.append((SurfaceQuery(n, 2, float(rng.uniform(0.0, n)), eta), 110.0))
    # k >= 3 pays for its inner panels, so fewer shells and smaller frequencies
    for k, n, radius in ((3, 3, 27.0), (3, 4, 27.0), (4, 4, 17.0), (4, 5, 17.0), (5, 5, 11.0)):
        eta = tuple(float(v) for v in rng.uniform(-10.0, 10.0, n))
        queries.append((SurfaceQuery(n, k, float(rng.uniform(0.0, n)), eta), radius))
    return queries


def _refined_shell_sums(monkeypatch, lo, hi, query, width):
    """_shell_sums on 4x narrower outer panels and, at k >= 3, 2x narrower inner panels."""
    inner_panels = oscint._inner_panels
    with monkeypatch.context() as patch:
        patch.setattr(oscint, "_inner_panels", lambda *args: 2 * inner_panels(*args))
        return oscint._shell_sums(lo, hi, query, width / 4, [])


def test_band_sized_panels_are_converged(monkeypatch):
    """Two cycles per 16-point panel sit at roundoff: 4x narrower panels agree to 1e-14.

    Both signs of every shell's single pass are checked against 4x narrower
    outer panels (and at k >= 3 2x narrower inner panels), out to
    |theta| = 110 at k = 2 (the farthest any `wg approx` transform reaches)
    and 27, 17 and 11 at k = 3, 4 and 5.
    """
    for query, radius in _band_rule_queries():
        width = 2.0 / max(query.lam0, query.n - query.lam0)
        edges = _shell_edges(radius)
        for lo, hi in zip(edges, edges[1:]):
            plus, minus, _ = oscint._shell_sums(lo, hi, query, width, [])
            fine = _refined_shell_sums(monkeypatch, lo, hi, query, width)
            for value, ref in zip((plus, minus), fine):
                assert abs(value - ref) <= 1e-14 * (1.0 + abs(value)), (query, lo, hi)


def _coverage_queries():
    rng = np.random.default_rng(21)
    queries = []
    for k in range(2, 6):
        for n in range(k, 7):
            bound = 40.0 if k == 2 else 10.0
            eta = tuple(float(v) for v in rng.uniform(-bound, bound, n))
            queries.append(SurfaceQuery(n, k, float(rng.uniform(0.0, n)), eta))
    return queries


def test_quad_error_covers_refined_shells(monkeypatch):
    """The a-priori quad_error covers the distance to the same shells on refined panels.

    The reference sums the transform's shells again on 4x narrower outer and
    2x narrower inner panels, with the same geometric continuation.  A
    smaller work budget keeps the k >= 3 transforms short; the figure must
    hold wherever the shells end.
    """
    monkeypatch.setattr(oscint, "_WORK_BUDGET", 100_000)
    for query in _coverage_queries():
        res = surface_transform(query)
        width = 2.0 / max(query.lam0, query.n - query.lam0)
        edges = _shell_edges(res.theta_max)
        assert edges[-1] == res.theta_max
        shells = [sum(_refined_shell_sums(monkeypatch, lo, hi, query, width)[:2])
                  for lo, hi in zip(edges, edges[1:])]
        ref = sum(shells) + oscint._geometric_correction(shells)
        assert 0 < res.quad_error < 1e-9
        assert abs(res.value - ref) <= res.quad_error, (query, res, ref)
