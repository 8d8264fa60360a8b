"""Oscillatory integrals and the surface-measure Fourier transform.

Two integral families live here:

    I_N(delta, eta) = integral over [0, N] of e(delta x^k + eta x) dx,

and the Fourier transform of the density cut out on {x in [0,1]^n :
x_1^k + ... + x_n^k = lam0} by the coordinate cube,

    ds(eta) = integral over R of { prod_j I_1(theta, eta_j) } e(-lam0 theta) dtheta.

Quadrature is panel Gauss-Legendre with panel widths chosen so each panel
sees O(1) oscillations.  Substituting u = x^k turns I_1(theta, eta_j) into
an integral of e(theta u) over u in [0, 1] (against e(eta_j x) dx carried to
u), so as a function of theta it has frequencies in [0, 1], and the theta
integrand of ds has frequencies in the band [-lam0, n - lam0].  Its panels
are sized by that band: a coarse panel spans two cycles of the highest
frequency, where the 16-point rule is already at roundoff for functions of
exponential type.  Degree-2 inner integrals use an exact Faddeeva-function
form and zero-linear-frequency inner integrals use an asymptotic series,
which keeps the theta-truncation radius affordable.

The Faddeeva function w(z) is Weideman's rational approximation (SIAM J.
Numer. Anal. 31, 1994) with N = 40 terms, in numpy, the package's only
runtime dependency.  N = 40 is the smallest multiple of 4 whose truncation
error stays under half an ulp: at N = 36 it is 2.9e-16 at the origin,
where every eta_j = 0 puts a w argument.  On and above the real axis it
agrees with mpmath to 1.0e-15; below it, w(z) = 2 exp(-z^2) - w(-z)
carries the roundoff of the phase of exp(-z^2), at most 4.5e-13 for
|z| <= 56.

Each theta shell is one pass: the nodes of both signs at both panel
resolutions are built together, and each distinct eta_j's inner integral
is evaluated once over all of them (at k = 2, every distinct eta_j in a
single Faddeeva batch).
"""

from dataclasses import dataclass
from functools import cache
from math import ceil, gamma, pi, sqrt
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

_SERIES_MIN_THETA = 8.0  # asymptotic series cutoff for the eta = 0 inner integral
_SERIES_TERMS = 12
_REL_TOL = 1e-6  # surface_transform stops once two shells fall below this share of the total
_MAX_SHELLS = 16
_WORK_BUDGET = 40_000_000  # estimated integrand evaluations per surface_transform
_BATCH_ELEMENTS = 1 << 18  # (eta, theta) pairs per Faddeeva batch, so a deep shell's arrays stay small
_WEIDEMAN_N = 40  # 36 terms leave 2.9e-16 at the origin; 40 leave 8e-18, under half an ulp


@dataclass(frozen=True)
class OscQuery:
    """Arguments of I_N(delta, eta) at degree k."""

    delta: float
    eta: float
    k: int
    N: float

    def __post_init__(self):
        if self.N <= 0:
            raise InputError("integration length N must be positive")
        if self.k < 2:
            raise InputError("degree k must be >= 2")


@dataclass(frozen=True)
class SurfaceQuery:
    """Arguments of the surface transform: dimension, degree, level, frequencies.

    Requires n >= k; the theta-tail is absolutely integrable only for
    n > k, and on the boundary n = k the value is recovered through the
    oscillatory cancellation of the e(-lam0 theta) factor.
    """

    n: int
    k: int
    lam0: float
    eta: tuple

    def __post_init__(self):
        if self.k < 2 or self.n < 2:
            raise InputError("need n >= 2 and k >= 2")
        if self.n < self.k:
            raise InputError("need n >= k for a convergent frequency integral")
        if not 0 < self.lam0 < self.n:
            raise InputError("level lam0 must lie in (0, n)")
        if len(self.eta) != self.n:
            raise InputError("frequency vector must have length n")


class OscResult(NamedTuple):
    value: complex
    error: float


class SurfaceResult(NamedTuple):
    value: complex
    quad_error: float
    tail_estimate: float
    tail_warning: bool
    theta_max: float


def _osc_phase_exp(phase: np.ndarray) -> np.ndarray:
    """e(phase) with the phase reduced mod 1 before exponentiation."""
    return np.exp(2j * np.pi * (phase - np.rint(phase)))


def _gl_panels(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on each of ``panels`` equal panels of [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    h = 0.5 * (edges[1] - edges[0])
    x = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + h * _GL_X[None, :]).ravel()
    return x, np.tile(_GL_W, panels) * h


def osc_integral(query: OscQuery, tol: float = None) -> OscResult:
    """I_N(delta, eta) by adaptive panel Gauss-Legendre.

    The default absolute tolerance is 1e-8 * N.  The reported error is the
    difference between the two finest refinement levels.
    """
    delta, eta, k, N = query.delta, query.eta, query.k, query.N
    if tol is None:
        tol = 1e-8 * N
    cycles = abs(delta) * N**k + abs(eta) * N
    panels = max(8, int(ceil(cycles)) + 8)
    budget = 2_000_000  # total integrand evaluations

    def value(panels: int) -> complex:
        x, w = _gl_panels(0.0, N, panels)
        return complex(_osc_phase_exp(delta * x**k + eta * x) @ w)

    prev = value(panels)
    used = 16 * panels
    while True:
        panels *= 2
        cur = value(panels)
        used += 16 * panels
        err = abs(cur - prev)
        if err <= tol:
            return OscResult(cur, err)
        if used > budget:
            raise NumericError(
                f"oscillatory integral did not reach tolerance {tol:.3e}; achieved {err:.3e}"
            )
        prev = cur


@cache
def _weideman_coefficients() -> tuple[float, np.ndarray]:
    """Scale L and polynomial coefficients (highest degree first) of Weideman's w(z).

    The coefficients are the Fourier coefficients of exp(-t^2) (L^2 + t^2)
    under t = L tan(phi / 2), taken with a 4N-point FFT.
    """
    n = _WEIDEMAN_N
    m = 2 * n
    scale = sqrt(n / sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-(t**2)) * (scale**2 + t**2)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    coeffs = a[n:0:-1].copy()
    coeffs.flags.writeable = False
    return scale, coeffs


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-i z), elementwise.

    Weideman's rational approximation for Im z >= 0,
    w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)) with Z = (L + i z) / (L - i z)
    and p the polynomial of _weideman_coefficients, evaluated by Horner's rule;
    below the axis w(z) = 2 exp(-z^2) - w(-z).
    """
    scale, coeffs = _weideman_coefficients()
    z = np.asarray(z, dtype=complex)
    below = z.imag < 0
    upper = np.where(below, -z, z)
    d = scale - 1j * upper
    big_z = (scale + 1j * upper) / d
    p = np.full(z.shape, coeffs[0], dtype=complex)
    for c in coeffs[1:]:
        p *= big_z
        p += c
    out = 2.0 * p / (d * d) + (1.0 / sqrt(pi)) / d
    if below.any():
        zb = z[below]
        out[below] = 2.0 * np.exp(-(zb * zb)) - out[below]
    return out


def _i1_quadratic(thetas: np.ndarray, eta) -> np.ndarray:
    """Exact I_1(theta, eta) for k = 2 through the Faddeeva function w (theta != 0).

    Completing the square, with s = sqrt(2 pi theta) e^(-i pi/4) and c = eta / (2 theta):
    I_1 = sqrt(pi) / (2 s) * [w(i s c) - e(theta + eta) w(i s (1 + c))].  Negative theta
    uses I_1(-theta, -eta) = conj I_1(theta, eta); for c < -1/2 the reflection x -> 1 - x
    negates the bracket and both w arguments, which keeps them where |w| <= 1.  Both w
    arguments lie on the ray r e^(i pi/4) with r >= -sqrt(2 pi |theta|) / 2, where
    ``_faddeeva`` agrees with mpmath to 1.0e-15 for r >= 0; below the axis its error
    grows with r^2, to at most 4.5e-13 for r >= -56 (|theta| <= 2000).

    ``eta`` is a scalar or a column of frequencies, one output row each; the thetas are
    taken in chunks of at most _BATCH_ELEMENTS (eta, theta) pairs.
    """
    th = np.asarray(thetas, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = np.empty(np.broadcast_shapes(eta.shape, th.shape), dtype=complex)
    step = max(1, _BATCH_ELEMENTS // max(1, eta.size))
    for lo in range(0, len(th), step):
        tt = th[lo : lo + step]
        t, e = np.abs(tt), np.where(tt < 0, -eta, eta)
        sign = np.where(e < -t, -1.0, 1.0)  # c < -1/2
        s = np.sqrt(2.0 * pi * t) * np.exp(-0.25j * pi)
        z0 = 1j * sign * s * e / (2.0 * t)
        w0, w1 = _faddeeva(np.stack([z0, z0 + 1j * sign * s]))
        val = sign * np.sqrt(pi) / (2.0 * s) * (w0 - _osc_phase_exp(t + e) * w1)
        out[..., lo : lo + step] = np.where(tt < 0, np.conj(val), val)
    return out


def _i1_series_eta0(thetas: np.ndarray, k: int) -> np.ndarray:
    """I_1(theta, 0) for |theta| >= _SERIES_MIN_THETA, any degree.

    Substituting u = x^k gives (1/k) * integral of u^(1/k - 1) e(theta u)
    over [0, 1]; the half-line piece is an exact gamma value and the
    remainder integral over [1, infinity) expands into an integration-by-
    parts series whose terms fall off like (2 pi |theta|)^-j.
    """
    th = np.asarray(thetas, dtype=float)
    lead = (
        gamma(1.0 / k)
        * (2.0 * pi * np.abs(th)) ** (-1.0 / k)
        * np.exp(1j * np.sign(th) * pi / (2.0 * k))
    )
    s = 1.0 - 1.0 / k
    denom = 2j * pi * th
    tail = np.zeros_like(th, dtype=complex)
    coeff = 1.0
    power = denom.copy()
    for j in range(_SERIES_TERMS):
        tail += -coeff / power
        coeff *= s + j
        power *= denom
    tail *= _osc_phase_exp(th)
    return (lead - tail) / k


def _i1_adaptive(thetas: np.ndarray, eta: float, k: int, oversample: int) -> np.ndarray:
    """Panel Gauss-Legendre for I_1(theta, eta), vectorized over theta."""
    th = np.asarray(thetas, dtype=float)
    if len(th) == 0:
        return np.zeros(0, dtype=complex)
    panels = (max(6, int(ceil(np.abs(th).max() + abs(eta))) + 6)) * oversample
    x, w = _gl_panels(0.0, 1.0, panels)
    out = np.empty(len(th), dtype=complex)
    # chunked so the (theta, node) phase matrix stays small
    chunk = max(1, int(4_000_000 // max(len(x), 1)))
    xk = x**k
    for lo in range(0, len(th), chunk):
        tt = th[lo : lo + chunk]
        phase = tt[:, None] * xk[None, :] + eta * x[None, :]
        out[lo : lo + chunk] = _osc_phase_exp(phase) @ w
    return out


def _i1_batch(thetas: np.ndarray, eta: float, k: int, oversample: int) -> np.ndarray:
    """I_1(theta, eta) for an array of thetas at k >= 3, picking the cheaper route."""
    th = np.asarray(thetas, dtype=float)
    if eta != 0.0:
        return _i1_adaptive(th, eta, k, oversample)
    out = np.empty(len(th), dtype=complex)
    closed = np.abs(th) >= _SERIES_MIN_THETA
    out[closed] = _i1_series_eta0(th[closed], k)
    out[~closed] = _i1_adaptive(th[~closed], eta, k, oversample)
    return out


def _inner_cost(query: SurfaceQuery, hi: float) -> float:
    """Rough inner-node count per outer node for a shell reaching |theta| = hi."""
    if query.k == 2:
        return 16.0 * query.n
    return float(sum(16.0 if v == 0.0 else 16.0 * (hi + abs(v) + 12.0) for v in query.eta))


def _shell_sums(lo: float, hi: float, query: SurfaceQuery, width: float, c_track: list) -> dict:
    """Shell integrals over sign * [lo, hi], keyed (sign, oversample), each of F(sign*u) du.

    Oversample 1 is the coarse panel set, 2 the fine one.  The nodes of all
    four sets are built first; each distinct eta_j's I_1 is evaluated once
    over all of them (at k = 2 every distinct eta_j in one Faddeeva batch, at
    k >= 3 both signs of a resolution in one call, since the inner panel
    count depends only on max |theta|).  Each set keeps its own sum, with the
    factors multiplied in query.eta order.
    """
    sets = ((1, 1), (-1, 1), (1, 2), (-1, 2))
    nodes, weights = [], []
    for oversample in (1, 2):
        panels = max(2, int(ceil((hi - lo) / (width / oversample))))
        u, w = _gl_panels(lo, hi, panels)
        nodes += [u, -u]
        weights += [w, w]
    th = np.concatenate(nodes)
    bounds = np.cumsum([0] + [len(x) for x in nodes])
    distinct = list(dict.fromkeys(map(float, query.eta)))  # equal frequencies (0.0 and -0.0 too) share I_1
    if query.k == 2:
        inner = _i1_quadratic(th, np.array(distinct)[:, None])
    else:
        inner = np.empty((len(distinct), len(th)), dtype=complex)
        for a, b, oversample in ((0, bounds[2], 1), (bounds[2], bounds[4], 2)):
            for row, eta_j in enumerate(distinct):
                inner[row, a:b] = _i1_batch(th[a:b], eta_j, query.k, oversample)
    c_track.append(float((np.abs(inner) * (1.0 + np.abs(th)) ** (1.0 / query.k)).max()))
    prod = np.ones(len(th), dtype=complex)
    for eta_j in map(float, query.eta):
        prod *= inner[distinct.index(eta_j)]
    prod *= _osc_phase_exp(-query.lam0 * th)
    return {key: complex(prod[a:b] @ w) for key, a, b, w in zip(sets, bounds, bounds[1:], weights)}


def surface_transform(query: SurfaceQuery, abs_tol: float = 0.0) -> SurfaceResult:
    """Truncated frequency integral for the surface transform, with tail report.

    Integration proceeds over geometric shells in |theta| until consecutive
    shells fall below the tolerance, the shell cap is reached, or the work
    budget runs out.  When the trailing shells form a stable geometric
    sequence (the slowly decaying case, caused by inner endpoint phases
    resonating with e(-lam0 theta)), the geometric continuation is summed
    in closed form and added.  The tail estimate combines that model with
    the absolute bound from |I_1| <= C (1 + |theta|)^(-1/k) decay (finite
    only for n > k); a warning flag marks tails above 1e-4 of the value.

    Each shell is split into panels of width 2 / max(lam0, n - lam0): two
    cycles of the integrand's highest frequency per coarse panel, one per
    fine panel.  The work budget counts the outer nodes this rule uses.
    At k >= 3 each outer node pays for its own inner panels and the budget
    usually ends the shells, so the panel width sets how far in theta the
    budget reaches.
    """
    band = max(query.lam0, query.n - query.lam0)  # the integrand's frequencies lie in [-lam0, n - lam0]
    width = 2.0 / band  # two cycles per coarse panel: the 16-point rule is at roundoff there
    total = 0j
    quad_err = 0.0
    shells: list[complex] = []
    c_track: list[float] = []
    work = 0.0
    theta_hi = 0.0

    edges = [0.0, 1.0]
    while len(edges) <= _MAX_SHELLS:
        edges.append(edges[-1] * 1.6)

    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        outer_nodes = 16.0 * ceil((hi - lo) / width) * 6  # both signs, both resolutions
        estimated = outer_nodes * _inner_cost(query, hi) / 16.0
        if i >= 1 and work + estimated > _WORK_BUDGET:
            break
        sums = _shell_sums(lo, hi, query, width, c_track)
        shell = 0j
        shell_err = 0.0
        for sign in (1, -1):
            fine = sums[sign, 2]
            shell += fine
            shell_err += abs(fine - sums[sign, 1])
        work += estimated
        total += shell
        quad_err += shell_err
        shells.append(shell)
        theta_hi = hi
        tol = max(_REL_TOL * abs(total), abs_tol)
        if i >= 3 and abs(shells[-1]) + abs(shells[-2]) <= 0.5 * tol:
            break

    correction = _geometric_correction(shells)
    mags = [abs(s) for s in shells]
    ratios = [
        mags[i] / mags[i - 1] for i in range(max(1, len(mags) - 3), len(mags)) if mags[i - 1] > 0
    ]
    rho = min(0.95, max(ratios)) if ratios else 0.5
    tail_raw = mags[-1] * rho / (1.0 - rho) if mags else 0.0
    if correction != 0:
        total += correction
        tail = 0.5 * abs(correction) + 2.0 * quad_err
    else:
        tail = tail_raw
    if query.n > query.k:
        c_emp = max(c_track) if c_track else 1.0
        nk = query.n / query.k
        tail_abs = 2.0 * c_emp**query.n * (1.0 + theta_hi) ** (1.0 - nk) / (nk - 1.0)
        tail = min(tail, tail_abs)
    warning = tail > 1e-4 * max(abs(total), 1e-300)
    return SurfaceResult(total, quad_err, tail, bool(warning), theta_hi)


def _geometric_correction(shells: list) -> complex:
    """Closed-form sum of the geometric continuation of the shell sequence.

    Uses the mean of the last three complex shell ratios; returns 0 when
    the ratios are too large or too scattered for the model to apply.
    """
    if len(shells) < 5:
        return 0j
    tail = shells[-4:]
    if any(abs(v) == 0 for v in tail[:-1]):
        return 0j
    ratios = [tail[i + 1] / tail[i] for i in range(3)]
    mean = sum(ratios) / 3
    if abs(mean) > 0.9:
        return 0j
    spread = max(abs(r - mean) for r in ratios)
    if spread > 0.5 * abs(mean):
        return 0j
    return tail[-1] * mean / (1.0 - mean)


def singular_integral(n: int, k: int, lam0: float) -> float:
    """Total mass of the level-lam0 surface density: the transform at zero frequency.

    For 0 < lam0 <= 1 the cube constraint is inactive, and the mass is the
    lam0-derivative of the volume Gamma(1+1/k)^n / Gamma(1+n/k) * lam0^(n/k)
    of {x >= 0 : x_1^k + ... + x_n^k <= lam0} (Dirichlet's integral):
    Gamma(1+1/k)^n / Gamma(n/k) * lam0^(n/k - 1).  Larger levels are refused.
    """
    SurfaceQuery(n=n, k=k, lam0=lam0, eta=(0.0,) * n)  # the transform's own checks on n, k, lam0
    if lam0 > 1:
        raise InputError("the closed-form singular integral needs lam0 <= 1")
    return gamma(1.0 + 1.0 / k) ** n / gamma(n / k) * lam0 ** (n / k - 1.0)
