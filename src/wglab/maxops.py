"""Discrete convolution averages, maximal functions, and norm probes on finite grids."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import fft as sp_fft

from .errors import InputError, UndefinedMeasureError
from .numtheory import PrimeTable
from .surface import (
    SurfaceMeasure,
    admissible_mask,
    max_weight_array,
    rep_weight_array,
)


@dataclass(frozen=True)
class GridFunction:
    """Real or complex values on the centered box {-K, ..., K}^n, dense storage."""

    K: int
    values: np.ndarray

    def __post_init__(self):
        if self.K < 1:
            raise InputError("box radius K must be >= 1")
        side = 2 * self.K + 1
        if self.values.shape != (side,) * self.values.ndim:
            raise InputError("values must form a (2K+1)^n cube")

    @property
    def n(self) -> int:
        return self.values.ndim

    @classmethod
    def zeros(cls, n: int, K: int, dtype=complex):
        """Zeros on the box; a box larger than the address space raises MemoryError."""
        if (2 * K + 1) ** n * np.dtype(dtype).itemsize > np.iinfo(np.intp).max:
            raise MemoryError(f"a (2K+1)^n box with K={K}, n={n} does not fit in memory")
        return cls(K=K, values=np.zeros((2 * K + 1,) * n, dtype=dtype))

    @classmethod
    def delta(cls, n: int, K: int):
        g = cls.zeros(n, K, dtype=float)
        g.values[(K,) * n] = 1.0
        return g

    @classmethod
    def constant(cls, n: int, K: int, value=1.0):
        """A real grid for a real value, a complex one otherwise."""
        g = cls.zeros(n, K, dtype=np.result_type(float, value))
        g.values[...] = value
        return g

    def at(self, point) -> complex:
        if any(abs(int(p)) > self.K for p in point):
            raise InputError(f"point {tuple(point)} lies outside the radius-{self.K} box")
        idx = tuple(int(p) + self.K for p in point)
        return complex(self.values[idx])


def _pruned(measure: SurfaceMeasure, K: int):
    """Solutions that can move any box point into the box again."""
    reps = measure.representations
    keep = (np.abs(reps) <= 2 * K).all(axis=1)
    return reps[keep], measure.weights[keep]


def _convolve_direct(f: GridFunction, reps, weights) -> np.ndarray:
    K = f.K
    out = np.zeros_like(f.values)
    for p, w in zip(reps, weights):
        dst = []
        src = []
        for pi in p:
            lo = max(-K, -K + pi)
            hi = min(K, K + pi)
            if lo > hi:
                break
            dst.append(slice(lo + K, hi + K + 1))
            src.append(slice(lo - pi + K, hi - pi + K + 1))
        else:
            out[tuple(dst)] += w * f.values[tuple(src)]
    return out


def _convolve_fft(f: GridFunction, reps, weights) -> np.ndarray:
    """Circular convolution by transforms, with roundoff set to exactly 0.

    Every entry of the transform result is within
    b = 16 u log2(N) (||w||_1 ||f||_2 + ||w||_2 ||f||_1) of the exact one
    (u = 2^-53, N = L^n points, w the weights).  Each transform of length N
    errs by at most g = 6.7 u log2(N) relative in the 2-norm (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 24.2; the radix-3
    and radix-5 passes are taken as in ``surface._count_rounding_bound``), and the
    spectra are bounded by ||w||_1 and ||f||_1.  So the spectra's errors
    add g sqrt(N) (||w||_2 ||f||_1 + ||w||_1 ||f||_2), their product
    sqrt(5) u sqrt(N) ||w||_1 ||f||_2, and the inverse transform divides
    that by sqrt(N) and adds g ||w||_1 ||f||_2 (Young: the result's 2-norm
    is at most ||w||_1 ||f||_2).  In all, (2g + sqrt(5) u) times the sum of
    both products, inside b.  An entry at or below b is indistinguishable
    from 0 and is reported as 0.
    """
    K, n = f.K, f.n
    real = f.values.dtype.kind != "c"
    shape = (sp_fft.next_fast_len(4 * K + 1, real),) * n
    fft, ifft = (sp_fft.rfftn, sp_fft.irfftn) if real else (sp_fft.fftn, sp_fft.ifftn)
    kern = np.zeros(shape)
    np.add.at(kern, tuple((reps % shape[0]).T), weights)
    prod = fft(kern)
    prod *= fft(f.values, shape)
    out = ifft(prod, shape)[(slice(0, 2 * K + 1),) * n].copy()
    mags = np.abs(f.values)
    w1, w2 = np.abs(weights).sum(), np.sqrt((weights**2).sum())
    bound = 16.0 * 2.0**-53 * n * np.log2(shape[0]) * (w1 * np.sqrt((mags**2).sum()) + w2 * mags.sum())
    out[np.abs(out) <= bound] = 0
    return out


def convolve(
    f: GridFunction,
    measure: SurfaceMeasure,
    normalized: bool = True,
    method: str = "auto",
) -> GridFunction:
    """(measure * f)(x) = sum over solutions p of weight(p) f(x - p), on the box.

    f is treated as zero outside its box.  ``method`` selects the sparse
    accumulation path ("direct"), the transform path ("fft"), or a size
    heuristic ("auto"); the two paths agree to roundoff.

    The transform path is a circular convolution of length
    L = next_fast_len(4K+1) per axis, with weight(p) placed at p mod L and
    the result read from [0, 2K].  No wrap-around reaches that window: box
    index i + p spans [-2K, 4K], and a shift by L >= 4K+1 moves [0, 2K]
    entirely outside that span.
    """
    if f.n != measure.instance.n:
        raise InputError("grid dimension does not match the measure")
    if normalized and measure.R <= 0:
        raise UndefinedMeasureError("cannot normalize a zero-mass measure")
    reps, weights = _pruned(measure, f.K)
    if method == "auto":
        method = "fft" if len(reps) > 64 else "direct"
    if method == "direct":
        out = _convolve_direct(f, reps, weights)
    elif method == "fft":
        out = _convolve_fft(f, reps, weights)
    else:
        raise InputError(f"unknown convolution method {method!r}")
    if normalized:
        # times 1/R is how numpy divides a complex array by a real R, so real grids round alike
        out = out * (1.0 / measure.R)
    return GridFunction(K=f.K, values=out)


@dataclass(frozen=True)
class MaximalReport:
    """Pointwise supremum over a family, and the p-norms of each member's convolution."""

    sup: GridFunction
    norms: tuple  # norms[i][j] = lp_norm(measures[i] * f, ps[j])


def maximal(f: GridFunction, measures: Sequence[SurfaceMeasure], ps: Sequence[float] = ()) -> MaximalReport:
    """Pointwise supremum of |measure * f| over the given family, with per-member p-norms.

    Each measure is convolved once.
    """
    if len(measures) == 0:
        raise InputError("maximal function needs at least one measure")
    kn = {(m.instance.k, m.instance.n) for m in measures}
    if len(kn) != 1:
        raise InputError("measures must share one (k, n)")
    for p in ps:
        _check_exponent(p)
    sup = np.zeros(f.values.shape)
    norms = []
    for m in measures:
        conv = convolve(f, m)
        norms.append(tuple(lp_norm(conv, p) for p in ps))
        np.maximum(sup, np.abs(conv.values), out=sup)
    return MaximalReport(sup=GridFunction(K=f.K, values=sup), norms=tuple(norms))


def _check_exponent(p: float) -> None:
    if not p >= 1:
        raise InputError("p-norm needs p >= 1")


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete p-norm over the box; p = inf gives the sup norm."""
    _check_exponent(p)
    mags = np.abs(f.values)
    if p == np.inf:
        return float(mags.max())
    return float((mags**p).sum() ** (1.0 / p))


@dataclass(frozen=True)
class OperatorReport:
    """Norm growth of a maximal operator over a family of cutoffs."""

    p: float
    lam_values: tuple
    norms: tuple
    slope: Optional[float]


def delta_scaling_probe(
    k: int,
    n: int,
    p: float,
    lam_values: Sequence[int],
    table: PrimeTable,
) -> OperatorReport:
    """lp norm of sup over admissible lam <= L of the delta-convolution, per cutoff L.

    Distinct lam have disjoint supports (a lattice point determines its
    power sum), so the supremum splits and the p-th power of the norm is
    an additive total over lam.  The fitted slope is the log-log
    regression of the norm against the cutoff; growth is expected for
    p < n/(n - k), while p = inf just reports the largest single weight.
    If no admissible lam up to the largest cutoff has a prime solution,
    there is no operator to measure: UndefinedMeasureError.
    """
    _check_exponent(p)
    lam_values = sorted(int(v) for v in lam_values)
    lam_max = lam_values[-1]
    gate = admissible_mask(k, n, lam_max, table)
    if not gate.any():
        raise UndefinedMeasureError(f"no admissible lam <= {lam_max} has a prime solution")
    weight_tot = rep_weight_array(k, n, lam_max, table)
    if np.isinf(p):
        ratio = np.zeros(lam_max + 1)
        maxw = max_weight_array(k, n, lam_max, table)
        ratio[gate] = maxw[gate] / weight_tot[gate]
        running = np.maximum.accumulate(ratio)
        norms = [float(running[L]) for L in lam_values]
    else:
        powsum = rep_weight_array(k, n, lam_max, table, power=p)
        contrib = np.zeros(lam_max + 1)
        contrib[gate] = powsum[gate] / weight_tot[gate] ** p
        running = np.cumsum(contrib)
        norms = [float(running[L] ** (1.0 / p)) for L in lam_values]
    slope = None
    if len(lam_values) >= 2 and all(v > 0 for v in norms):
        slope = float(np.polyfit(np.log(lam_values), np.log(norms), 1)[0])
    return OperatorReport(p=p, lam_values=tuple(lam_values), norms=tuple(norms), slope=slope)
