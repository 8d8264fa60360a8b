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
are sized by that band: a panel spans two cycles of the highest frequency,
where the 16-point rule is already at roundoff for functions of
exponential type.  Degree-2 inner integrals use an exact Faddeeva-function
form and zero-linear-frequency inner integrals use an asymptotic series,
which keeps the theta-truncation radius affordable; other inner panels
span two cycles of the inner phase's top frequency.

The Faddeeva function w(z) is Weideman's rational approximation (SIAM J.
Numer. Anal. 31, 1994) with N = 40 terms (see _WEIDEMAN_N), in numpy, the
package's only runtime dependency.  On and above the real axis it agrees
with mpmath to 1.0e-15; below it, w(z) = 2 exp(-z^2) - w(-z) carries the
roundoff of the phase of exp(-z^2), at most 4.5e-13 for |z| <= 56.

Each theta shell is one pass over one node set per sign, with each distinct
eta_j's inner integral evaluated once over the nodes of both signs (at
k = 2, in a single Faddeeva batch); its quadrature error is a priori.
"""

from dataclasses import dataclass
from functools import cache
from math import ceil, factorial, gamma, pi, sqrt
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
_WEIDEMAN_N = 40  # 36 terms leave 2.9e-16 at the origin, where eta_j = 0 puts w; 40 leave 8e-18
# 16-point remainder per unit half-panel length on two cycles of e(nu theta), real and imaginary parts
_GL_REMAINDER = 2 * 2**33 * factorial(16) ** 4 / (33 * factorial(32) ** 3) * (2 * pi) ** 32
_FADDEEVA_ERR = 1.0e-15  # |w - mpmath| on and above the real axis; below, 4.5e-13 at |theta| = 2000,
_FADDEEVA_ERR_PER_THETA = 4.5e-13 / 2000  # growing like r^2 <= pi |theta| / 2
# k >= 3: two-cycle inner panels err by <= 6.6e-15 against 4x refinement (k = 2..6,
# |theta| <= 200, |eta| <= 30); the gamma series' remainder is <= 1.7e-14 at |theta| = 8
_INNER_PANEL_ERR = 2e-14


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
    oscillatory cancellation of the e(-lam0 theta) factor.  |eta_j| >= 2^52
    is refused: a double that size has no bits below the units place, so
    no digit of e(eta_j x) near x = 1 survives.
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
        if not all(abs(e) < 2.0**52 for e in self.eta):  # also refuses NaN
            raise InputError(f"each |eta_j| must be below 2^52 = 4503599627370496, got {self.eta}")


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
    out = 2.0 * p / d / d + (1.0 / sqrt(pi)) / d  # d * d overflows above |z| ~ 1e154
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


def _inner_panels(theta_max: float, eta: float, k: int) -> int:
    """Panels on [0, 1] of two cycles each of theta x^k + eta x's top frequency k theta_max + |eta|."""
    return max(1, ceil((k * theta_max + abs(eta)) / 2.0))


def _i1_adaptive(thetas: np.ndarray, eta: float, k: int) -> np.ndarray:
    """Panel Gauss-Legendre for I_1(theta, eta), vectorized over theta."""
    th = np.asarray(thetas, dtype=float)
    if len(th) == 0:
        return np.zeros(0, dtype=complex)
    x, w = _gl_panels(0.0, 1.0, _inner_panels(float(np.abs(th).max()), eta, k))
    out = np.empty(len(th), dtype=complex)
    chunk = max(1, 4_000_000 // len(x))  # so the (theta, node) phase matrix stays small
    xk = x**k
    for lo in range(0, len(th), chunk):
        tt = th[lo : lo + chunk]
        phase = tt[:, None] * xk[None, :] + eta * x[None, :]
        out[lo : lo + chunk] = _osc_phase_exp(phase) @ w
    return out


def _i1_batch(thetas: np.ndarray, eta: float, k: int) -> np.ndarray:
    """I_1(theta, eta) for an array of thetas at k >= 3, picking the cheaper route."""
    th = np.asarray(thetas, dtype=float)
    if eta != 0.0:
        return _i1_adaptive(th, eta, k)
    out = np.empty(len(th), dtype=complex)
    closed = np.abs(th) >= _SERIES_MIN_THETA
    out[closed] = _i1_series_eta0(th[closed], k)
    out[~closed] = _i1_adaptive(th[~closed], eta, k)
    return out


def _inner_cost(query: SurfaceQuery, hi: float) -> float:
    """Rough inner-node count per outer node for a shell reaching |theta| = hi."""
    if query.k == 2:
        return 16.0 * query.n
    series = hi > _SERIES_MIN_THETA  # zero frequencies take the gamma series there
    return sum(16.0 if v == 0.0 and series else 16.0 * _inner_panels(hi, v, query.k) for v in query.eta)


def _shell_sums(lo: float, hi: float, query: SurfaceQuery, width: float, c_track: list) -> tuple:
    """The integrals of F(u) and F(-u) over u in [lo, hi], and their inner and rounding error.

    One set of panels at most ``width`` wide serves both signs, and the
    factors are multiplied in query.eta order.
    """
    u, w = _gl_panels(lo, hi, max(2, int(ceil((hi - lo) / width))))
    th = np.concatenate([u, -u])
    distinct = list(dict.fromkeys(map(float, query.eta)))  # equal frequencies (0.0 and -0.0 too) share I_1
    if query.k == 2:
        inner = _i1_quadratic(th, np.array(distinct)[:, None])
    else:
        inner = np.array([_i1_batch(th, eta_j, query.k) for eta_j in distinct])
    c_track.append(float((np.abs(inner) * (1.0 + np.abs(th)) ** (1.0 / query.k)).max()))
    prod = np.ones(len(th), dtype=complex)
    for eta_j in map(float, query.eta):
        prod *= inner[distinct.index(eta_j)]
    prod *= _osc_phase_exp(-query.lam0 * th)
    plus, minus = prod[: len(u)], prod[len(u) :]
    route = _FADDEEVA_ERR + _FADDEEVA_ERR_PER_THETA * hi if query.k == 2 else _INNER_PANEL_ERR
    phases = 2.0 * pi * (query.n + 1) * (hi + max(map(abs, query.eta)))
    relative = query.n * route + 0.5 * np.finfo(float).eps * (len(u) + phases)
    return complex(plus @ w), complex(minus @ w), float((np.abs(plus) + np.abs(minus)) @ w * relative)


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

    Each shell is evaluated once, on panels of width 2 / max(lam0, n - lam0):
    two cycles of the integrand's highest frequency.  The work budget counts
    the outer nodes times their inner cost; a first shell above it is
    refused.  At k >= 3 the budget usually ends the shells, so the panel
    widths set how far in theta it reaches.

    quad_error is a priori.  F(theta) = integral of e(theta nu) d mu(nu) for
    a measure mu of total variation <= 1 on the band, so the 16-point
    remainder is at most _GL_REMAINDER = 1.9e-19 per unit of half-panel
    length, 1.9e-19 theta_max in all.  Each shell adds sum |w_i F(theta_i)|
    times n times its inner route's accuracy, plus one rounding unit per
    node of a sign's sum and 2 pi |phase| for each of the n + 1 phases e(.),
    whose arguments reach hi + max |eta_j|.
    """
    band = max(query.lam0, query.n - query.lam0)  # the integrand's frequencies lie in [-lam0, n - lam0]
    width = 2.0 / band  # two cycles per panel: the 16-point rule is at roundoff there
    total = 0j
    quad_err = 0.0
    shells: list[complex] = []
    c_track: list[float] = []
    work = 0.0

    edges = [0.0, 1.0]
    while len(edges) <= _MAX_SHELLS:
        edges.append(edges[-1] * 1.6)

    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        estimated = 2.0 * ceil((hi - lo) / width) * _inner_cost(query, hi)  # both signs
        if work + estimated > _WORK_BUDGET:
            if i == 0:
                raise NumericError(f"the first theta shell needs about {estimated:.3g} evaluations")
            break
        plus, minus, err = _shell_sums(lo, hi, query, width, c_track)
        shell = plus + minus
        work += estimated
        total += shell
        quad_err += _GL_REMAINDER * (hi - lo) + err
        shells.append(shell)
        theta_hi = hi
        tol = max(_REL_TOL * abs(total), abs_tol)
        if i >= 3 and abs(shells[-1]) + abs(shells[-2]) <= 0.5 * tol:
            break

    if not np.isfinite(total + quad_err):
        raise NumericError("the surface transform overflowed at these frequencies")
    correction = _geometric_correction(shells)
    mags = [abs(s) for s in shells]
    ratios = [
        mags[i] / mags[i - 1] for i in range(max(1, len(mags) - 3), len(mags)) if mags[i - 1] > 0
    ]
    rho = min(0.95, max(ratios)) if ratios else 0.5
    tail = mags[-1] * rho / (1.0 - rho)  # the first shell always runs
    if correction != 0:
        total += correction
        tail = 0.5 * abs(correction) + 2.0 * quad_err
    if query.n > query.k:
        nk = query.n / query.k
        tail_abs = 2.0 * max(c_track) ** query.n * (1.0 + theta_hi) ** (1.0 - nk) / (nk - 1.0)
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
