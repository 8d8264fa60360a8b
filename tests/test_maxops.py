import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from wglab import maxops, surface
from wglab.errors import InputError, NumericError, UndefinedMeasureError
from wglab.maxops import (
    GridFunction,
    OperatorReport,
    _convolve_direct,
    _pruned,
    convolve,
    delta_scaling_probe,
    lp_norm,
    maximal,
)
from wglab.surface import (
    ProblemInstance,
    admissible_mask,
    enumerate_prime_points,
    gamma_member_mask,
    max_weight_array,
    rep_weight_array,
)


@pytest.fixture(scope="module")
def measure77():
    return enumerate_prime_points(ProblemInstance(2, 5, 77))


def test_grid_function_validation():
    with pytest.raises(InputError):
        GridFunction(K=2, values=np.zeros((4, 4)))
    with pytest.raises(InputError):
        GridFunction.zeros(3, 0)
    assert GridFunction.zeros(2, 1, dtype=float).values.dtype == float
    with pytest.raises(MemoryError):  # refused before numpy is asked to allocate
        GridFunction.zeros(5, 10**6)
    g = GridFunction.delta(3, 2)
    assert g.at((0, 0, 0)) == 1.0
    assert lp_norm(g, 1) == 1.0


def test_grid_function_zeros_refuses_a_box_above_the_memory_limit(monkeypatch, tmp_path):
    limit = tmp_path / "memory.max"
    limit.write_text("1000\n")
    monkeypatch.setattr(surface, "_CGROUP_LIMIT_FILES", (str(limit), "/nonexistent/v1"))
    assert GridFunction.zeros(2, 5, dtype=float).values.nbytes == 968  # 11^2 * 8 bytes
    with pytest.raises(MemoryError):
        GridFunction.zeros(2, 6, dtype=float)  # 13^2 * 8 = 1352 bytes
    with pytest.raises(MemoryError):
        GridFunction.constant(2, 5, 1j)  # complex: 11^2 * 16 bytes


def test_convolve_delta_reproduces_measure(measure77):
    f = GridFunction.delta(5, 5)
    out = convolve(f, measure77)
    for row, w in zip(measure77.representations, measure77.weights):
        assert out.at(row) == pytest.approx(w / measure77.R, rel=1e-12)
    assert lp_norm(out, 1) == pytest.approx(1.0, rel=1e-12)


def test_convolve_constant_total_mass(measure77):
    f = GridFunction.constant(5, 8)
    out = convolve(f, measure77)
    # translates fit inside the box at points x with x - p still in the box
    assert out.at((0, 0, 0, 0, 0)) == pytest.approx(1.0, rel=1e-12)
    assert out.at((1, -1, 0, 2, -2)) == pytest.approx(1.0, rel=1e-12)


def test_convolve_matches_linear_window_in_each_dimension(measure77):
    rng = np.random.default_rng(14)
    for n, lam in [(5, 77), (3, 83), (2, 13)]:
        measure = enumerate_prime_points(ProblemInstance(2, n, lam))
        if measure.r == 0:
            continue
        f = GridFunction(
            K=4,
            values=rng.standard_normal((9,) * n) + 1j * rng.standard_normal((9,) * n),
        )
        a = convolve(f, measure)
        b = _linear_window(f, *_pruned(measure, 4)) / measure.R
        assert np.abs(a.values - b).max() < 1e-10


def _linear_window(f, reps, weights):
    """Window [2K, 4K] of the full linear convolution, kernel placed at p + 2K."""
    K, n = f.K, f.n
    kern = np.zeros((4 * K + 1,) * n)
    np.add.at(kern, tuple((reps + 2 * K).T), weights)
    return fftconvolve(f.values, kern, mode="full")[(slice(2 * K, 4 * K + 1),) * n]


def _assert_roundoff(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_convolve_direct_matches_linear_window(measure77):
    rng = np.random.default_rng(3)
    K, n = 4, measure77.instance.n
    reps, weights = _pruned(measure77, K)
    real = rng.standard_normal((2 * K + 1,) * n)
    for values in (real + 1j * rng.standard_normal(real.shape), real):
        f = GridFunction(K=K, values=values)
        got = _convolve_direct(f, reps, weights)
        assert got.dtype == values.dtype
        _assert_roundoff(got, _linear_window(f, reps, weights))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), K=st.integers(1, 4), complex_grid=st.booleans())
def test_convolve_direct_matches_linear_window_property(data, n, K, complex_grid):
    point = st.tuples(*[st.integers(-2 * K, 2 * K)] * n)
    reps = np.array(data.draw(st.lists(point, min_size=1, max_size=12)), dtype=int).reshape(-1, n)
    weights = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(reps), max_size=len(reps))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((2 * K + 1,) * n)
    if complex_grid:
        values = values + 1j * rng.standard_normal(values.shape)
    f = GridFunction(K=K, values=values)
    _assert_roundoff(_convolve_direct(f, reps, weights), _linear_window(f, reps, weights))


def test_convolve_linearity(measure77):
    rng = np.random.default_rng(15)
    f = GridFunction(K=3, values=rng.standard_normal((7,) * 5) + 0j)
    g = GridFunction(K=3, values=rng.standard_normal((7,) * 5) + 0j)
    a, b = 0.375, -2.25  # exactly representable scalars
    combined = GridFunction(K=3, values=a * f.values + b * g.values)
    lhs = convolve(combined, measure77).values
    rhs = a * convolve(f, measure77).values + b * convolve(g, measure77).values
    assert np.abs(lhs - rhs).max() < 1e-12


def test_convolve_requires_mass():
    empty = enumerate_prime_points(ProblemInstance(2, 5, 29))
    with pytest.raises(UndefinedMeasureError):
        convolve(GridFunction.delta(5, 2), empty)


def test_convolve_memory_is_a_few_boxes():
    # at K = 6, 120 solutions of 208 survive pruning; accumulating them needs the output box
    # and one shifted slice, nothing the size of the (4K+1)^n span they reach
    measure = enumerate_prime_points(ProblemInstance(2, 5, 208))
    f = GridFunction(K=6, values=np.random.default_rng(18).standard_normal((13,) * 5))
    tracemalloc.start()
    try:
        convolve(f, measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * f.values.nbytes


def test_sup_norm_contraction(measure77):
    rng = np.random.default_rng(16)
    f = GridFunction(K=4, values=rng.standard_normal((9,) * 5) + 0j)
    out = convolve(f, measure77)
    assert lp_norm(out, np.inf) <= lp_norm(f, np.inf) + 1e-12


def test_maximal_single_and_monotone():
    lams = [77, 125, 149]
    measures = [
        enumerate_prime_points(ProblemInstance(2, 5, lam)) for lam in lams
    ]
    measures = [m for m in measures if m.r > 0]
    f = GridFunction.constant(5, 4, 0.7)
    single = maximal(f, measures[:1]).sup
    assert np.allclose(
        single.values, np.abs(convolve(f, measures[0]).values), atol=1e-14
    )
    small = maximal(f, measures[:2]).sup
    full = maximal(f, measures).sup
    assert np.all(full.values >= small.values - 1e-14)
    assert np.all(full.values >= np.abs(convolve(f, measures[-1]).values) - 1e-14)


def test_maximal_norms_per_measure():
    measures = [enumerate_prime_points(ProblemInstance(2, 5, lam)) for lam in (77, 125)]
    rng = np.random.default_rng(17)
    f = GridFunction(K=3, values=rng.standard_normal((7,) * 5))
    ps = (1.0, 2.0, np.inf)
    report = maximal(f, measures, ps)
    assert report.norms == tuple(tuple(lp_norm(convolve(f, m), p) for p in ps) for m in measures)
    assert maximal(f, measures).norms == ((), ())


def test_maximal_validation(measure77):
    with pytest.raises(InputError):
        maximal(GridFunction.delta(5, 2), [])
    other = enumerate_prime_points(ProblemInstance(2, 3, 83))
    with pytest.raises(InputError):
        maximal(GridFunction.delta(5, 2), [measure77, other])


def test_maximal_checks_exponents_before_convolving(measure77, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("convolved before the exponents were checked")

    monkeypatch.setattr("wglab.maxops.convolve", refuse)
    for p in (0.5, -np.inf, np.nan):
        with pytest.raises(InputError):
            maximal(GridFunction.delta(5, 2), [measure77], (2.0, p))


def test_delta_probe_refuses_degenerate_k_n():
    for k, n in ((1, 5), (2, 0), (2, -1)):
        with pytest.raises(InputError, match="k >= 2, n >= 2"):
            delta_scaling_probe(k, n, 2.0, [16, 32, 64])


def test_real_delta_and_constant_grids_match_complex():
    # every solution of 38 and 83 as a sum of three prime squares lies in the K = 7 box
    measures = [enumerate_prime_points(ProblemInstance(2, 3, lam)) for lam in (38, 83)]
    grids = [GridFunction.delta(3, 7), GridFunction.constant(3, 7), GridFunction.constant(3, 7, 0.7)]
    for f in grids:
        assert f.values.dtype == float
        c = GridFunction(K=f.K, values=f.values.astype(complex))
        for m in measures:
            got = convolve(f, m).values
            want = convolve(c, m).values
            np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-12 * np.abs(want).max())
            assert np.abs(want.imag).max() <= 1e-12 * np.abs(want).max()
        ps = (1.0, 2.0, np.inf)
        got, want = maximal(f, measures, ps), maximal(c, measures, ps)
        scale = want.sup.values.max()
        np.testing.assert_allclose(got.sup.values, want.sup.values, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(got.norms, want.norms, rtol=1e-12, atol=0)
    assert GridFunction.constant(2, 1, 1j).values.dtype == complex


def test_lp_norm_examples():
    delta = GridFunction.delta(3, 2)
    for p in (1, 1.5, 2, 7, np.inf):
        assert lp_norm(delta, p) == 1.0
    g = GridFunction.zeros(2, 2)
    g.values[0, 0] = g.values[1, 1] = g.values[2, 2] = g.values[3, 3] = 1.0
    assert lp_norm(g, 2) == pytest.approx(2.0)
    assert lp_norm(GridFunction(K=2, values=3.5 * g.values), 2) == pytest.approx(7.0)
    with pytest.raises(InputError):
        lp_norm(g, 0.5)


@pytest.mark.parametrize("p", [1000, 5000])
@pytest.mark.parametrize("top", [0.4, 3.0])
def test_lp_norm_at_large_p(p, top):
    """|f|^p alone underflows (top < 1) or overflows (top > 1) at these p."""
    g = GridFunction.zeros(2, 3, dtype=float)
    g.values[...] = 0.5 * top
    g.values[0, 0] = g.values[1, 2] = -top
    got = lp_norm(g, p)
    assert lp_norm(g, np.inf) == top
    assert got > top  # a p-norm is never below the sup norm
    assert got == pytest.approx(top * 2.0 ** (1.0 / p), rel=1e-12)  # the rest adds 47 * 2^-p


def test_delta_probe_against_enumeration():
    """The convolution route equals the per-lambda definition on small ranges."""
    k, n, p, lam_max = 2, 3, 1.2, 600
    report = delta_scaling_probe(k, n, p, [lam_max])
    total = 0.0
    for lam in range(1, lam_max + 1):
        m = enumerate_prime_points(ProblemInstance(k, n, lam))
        if m.r == 0 or not gamma_member_mask(k, n, np.array([lam]))[0]:
            continue
        total += ((m.weights / m.R) ** p).sum()
    assert report.norms[0] == pytest.approx(total ** (1 / p), rel=1e-9)


def test_delta_probe_accepted_norms_match_enumeration_and_the_rest_are_refused():
    """Every norm the probe prints on [0, 4096] agrees with exact enumeration to 1e-12; an overflow is refused."""
    k, n = 2, 5
    gate = admissible_mask(k, n, 4096)
    measures = [enumerate_prime_points(ProblemInstance(k, n, int(lam))) for lam in np.flatnonzero(gate)]
    for p in (1, 1.2, 1.5, 2, 3, 4, 5, 6, 8, 12, 20):
        for L in (2**8, 2**10, 2**12):
            got = delta_scaling_probe(k, n, p, [L]).norms[0]
            want = sum(((m.weights / m.R) ** p).sum() for m in measures if m.instance.lam <= L) ** (1 / p)
            assert got == pytest.approx(want, rel=1e-12), (p, L)
    for L in (2**8, 2**12):  # R(lam)^400 overflows from lam = 77 on
        with pytest.raises(NumericError):
            delta_scaling_probe(k, n, 400, [L])


def test_delta_probe_monotone_norms():
    report = delta_scaling_probe(2, 5, 1.2, [512, 1024, 2048, 4096])
    norms = list(report.norms)
    assert norms == sorted(norms)
    assert report.slope is not None and report.slope >= 0


def test_delta_probe_sup_norm_bounded():
    report = delta_scaling_probe(2, 5, np.inf, [4096])
    assert 0 < report.norms[0] <= 1.0


@pytest.mark.parametrize("k, n, cutoffs", [
    (2, 5, [64, 256, 1024, 4096]),  # lam = 149 attains 0.2 from 256 on; the FFT ratio read 0.19999999843601
    (2, 4, [64, 256, 1024]),
    (3, 4, [200, 2000]),
])
def test_delta_probe_sup_norm_is_exact(monkeypatch, k, n, cutoffs):
    """At p = inf every norm equals the largest enumerated weight share over the gated lam <= L."""
    gate = admissible_mask(k, n, cutoffs[-1])
    shares = {}
    for lam in np.flatnonzero(gate):
        m = enumerate_prime_points(ProblemInstance(k, n, int(lam)))
        shares[int(lam)] = float(m.weights.max() / m.R)
    want = [max([v for lam, v in shares.items() if lam <= L], default=0.0) for L in cutoffs]
    enumerated = []

    def counted(instance):
        enumerated.append(instance.lam)
        return enumerate_prime_points(instance)

    monkeypatch.setattr(maxops, "enumerate_prime_points", counted)
    assert list(delta_scaling_probe(k, n, np.inf, cutoffs).norms) == want
    assert len(enumerated) == len(set(enumerated)) <= len(cutoffs)  # once per distinct argmax lam


def test_delta_probe_sup_norm_takes_max_weights_on_a_prefix(monkeypatch):
    """At (2, 5) the ratio 0.2 at lam = 149 beats every bound (log(lam)/2)^5 / R(lam) above 1024."""
    k, n = 2, 5
    cutoffs = [2**e for e in range(12, 19)]
    lam_max = cutoffs[-1]
    # the whole-range argmax of each cutoff, then its enumerated ratio
    gate = admissible_mask(k, n, lam_max)
    ratio = np.zeros(lam_max + 1)
    ratio[gate] = max_weight_array(k, n, lam_max)[gate] / rep_weight_array(k, n, lam_max)[gate]
    want = []
    for L in cutoffs:
        m = enumerate_prime_points(ProblemInstance(k, n, int(np.argmax(ratio[: L + 1]))))
        want.append(float(m.weights.max() / m.R))
    tops = []

    def recorded(k, n, lam_max, classes):
        tops.append(lam_max)
        return max_weight_array(k, n, lam_max, classes)

    monkeypatch.setattr(maxops, "max_weight_array", recorded)
    assert list(delta_scaling_probe(k, n, np.inf, cutoffs).norms) == want == [0.2] * len(cutoffs)
    assert tops and max(tops) <= 2048


def test_delta_probe_runs_where_float_counts_are_refused():
    # n = 7 on [0, 2e5), where float counts from transforms could round wrongly; the gate is the exact sumset
    report = delta_scaling_probe(2, 7, np.inf, [4096, 199_999])
    assert report.norms == pytest.approx([1 / 7, 1 / 7], rel=1e-12)  # seven orderings of one solution


def test_delta_probe_slope_is_exactly_zero_on_equal_norms():
    report = delta_scaling_probe(2, 5, np.inf, [2**e for e in range(12, 19)])
    assert set(report.norms) == {0.2} and report.slope == 0.0  # np.polyfit printed -6.8e-17
    report = delta_scaling_probe(2, 5, 1.2, [2**e for e in range(12, 16)])
    fitted = np.polyfit(np.log(report.lam_values), np.log(report.norms), 1)[0]
    assert report.slope == pytest.approx(fitted, rel=1e-12)
    assert delta_scaling_probe(2, 5, 1.2, [4096, 4096]).slope is None  # one distinct cutoff: nothing to fit


def test_delta_probe_without_admissible_lam_is_undefined():
    # the first lam with a prime solution for (k, n) = (2, 5) is 77
    with pytest.raises(UndefinedMeasureError):
        delta_scaling_probe(2, 5, 1.2, [2**e for e in range(7)])
    report = delta_scaling_probe(2, 5, 1.2, [64, 128])
    assert report.norms[0] == 0 < report.norms[1] and report.slope is None


def test_delta_probe_is_report():
    report = delta_scaling_probe(2, 5, 1.2, [1024, 2048])
    assert isinstance(report, OperatorReport)
    assert report.p == 1.2
    assert len(report.lam_values) == len(report.norms) == 2
