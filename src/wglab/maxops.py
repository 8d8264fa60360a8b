"""Discrete convolution averages, maximal functions, and norm probes on finite grids."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericError, UndefinedMeasureError
from .surface import (
    ProblemInstance,
    SurfaceMeasure,
    admissible_mask,
    available_memory,
    enumerate_prime_points,
    max_weight_array,
    rep_count_array,
    rep_weight_array,
    rep_weight_rounding,
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
        """Zeros on the box; a box above ``available_memory()`` raises MemoryError."""
        size, memory = (2 * K + 1) ** n * np.dtype(dtype).itemsize, available_memory()
        if size > memory:
            raise MemoryError(f"a (2K+1)^n box with K={K}, n={n} needs {size} bytes, above the {memory} available")
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


def convolve(f: GridFunction, measure: SurfaceMeasure) -> GridFunction:
    """(measure * f)(x) = (1/R) sum over solutions p of weight(p) f(x - p), on the box.

    f is treated as zero outside its box.
    """
    if f.n != measure.instance.n:
        raise InputError("grid dimension does not match the measure")
    if measure.R <= 0:
        raise UndefinedMeasureError("cannot normalize a zero-mass measure")
    # times 1/R is how numpy divides a complex array by a real R, so real grids round alike
    out = _convolve_direct(f, *_pruned(measure, f.K)) * (1.0 / measure.R)
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
    top = mags.max()
    if p == np.inf or not 0 < top < np.inf:
        return float(top)
    # scaled by the largest magnitude, so mags**p neither underflows nor overflows at large p
    return float(top * ((mags / top) ** p).sum() ** (1.0 / p))


@dataclass(frozen=True)
class OperatorReport:
    """Norm growth of a maximal operator over a family of cutoffs."""

    p: float
    lam_values: tuple
    norms: tuple
    slope: Optional[float]


# delta_scaling_probe refuses a cutoff whose estimated FFT roundoff exceeds this share of norm^p
_ROUNDOFF_SHARE = 1e-5


def delta_scaling_probe(k: int, n: int, p: float, lam_values: Sequence[int]) -> OperatorReport:
    """lp norm of sup over admissible lam <= L of the delta-convolution, per cutoff L.

    Distinct lam have disjoint supports (a lattice point determines its
    power sum), so the supremum splits and the p-th power of the norm is
    an additive total over lam.  The fitted slope is the log-log
    regression of the norm against the cutoff; growth is expected for
    p < n/(n - k), the exponent below which the delta example alone forces
    it, while p = inf just reports the largest single weight over R(lam).
    If no admissible lam up to the largest cutoff has a prime solution,
    there is no operator to measure: UndefinedMeasureError.

    The sums of weights^p come from FFTs, whose roundoff
    (``rep_weight_rounding`` per lam, divided by R(lam)^p) grows with p
    and the range.  A cutoff where its sum over the gated lam exceeds
    _ROUNDOFF_SHARE of norm^p is refused with NumericError.  At (k, n) =
    (2, 5), a single cutoff 2^8, 2^10, 2^12, 2^14, 2^16 or 2^18 accepts p
    up to about 9.3, 5.3, 3.9, 2.9, 2.3 or 1.9; p = inf is always accepted.
    At p = inf the FFT ratios only pick each cutoff's argmax lam, whose
    ratio is then taken from ``enumerate_prime_points``, once per distinct
    lam; a lam whose true ratio beats it by less than the FFT roundoff can
    still be missed.
    """
    if k < 2 or n < 2:
        raise InputError("need k >= 2, n >= 2")
    _check_exponent(p)
    lam_values = sorted(int(v) for v in lam_values)
    lam_max = lam_values[-1]
    gate = admissible_mask(k, n, rep_count_array(k, n, lam_max))
    if not gate.any():
        raise UndefinedMeasureError(f"no admissible lam <= {lam_max} has a prime solution")
    weight_tot = rep_weight_array(k, n, lam_max)
    if np.isinf(p):
        ratio = np.zeros(lam_max + 1)
        maxw = max_weight_array(k, n, lam_max)
        ratio[gate] = maxw[gate] / weight_tot[gate]
        argmax = [int(np.argmax(ratio[: L + 1])) for L in lam_values]
        exact = {0: 0.0}  # argmax 0: no gated lam up to the cutoff
        for lam in set(argmax) - {0}:
            measure = enumerate_prime_points(ProblemInstance(k, n, lam))
            exact[lam] = float(measure.weights.max() / measure.R)
        norms = [exact[lam] for lam in argmax]
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow at large p is refused below
            powsum = rep_weight_array(k, n, lam_max, power=p)
            scale = weight_tot[gate] ** p
            contrib = np.zeros(lam_max + 1)
            contrib[gate] = powsum[gate] / scale
            spread = np.zeros(lam_max + 1)
            spread[gate] = rep_weight_rounding(k, n, lam_max, p) / scale
        running, err = np.cumsum(contrib), np.cumsum(spread)
        for L in lam_values:
            if not err[L] <= _ROUNDOFF_SHARE * running[L]:  # also refuses a NaN or negative sum
                raise NumericError(
                    f"p={p:g} on [0, {L}]: FFT roundoff (estimated {err[L]:.3g}) is above "
                    f"{_ROUNDOFF_SHARE:g} of norm^p ({running[L]:.3g}); lower p or the range"
                )
        norms = [float(running[L] ** (1.0 / p)) for L in lam_values]
    slope = None
    if len(lam_values) >= 2 and all(v > 0 for v in norms):
        slope = float(np.polyfit(np.log(lam_values), np.log(norms), 1)[0])
    return OperatorReport(p=p, lam_values=tuple(lam_values), norms=tuple(norms), slope=slope)
