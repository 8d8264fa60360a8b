"""Discrete convolution averages, maximal functions, and norm probes on finite grids."""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericError, UndefinedMeasureError
from .surface import (
    ProblemInstance,
    SurfaceMeasure,
    _admissible_classes,
    available_memory,
    class_lams,
    enumerate_prime_points,
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


# at p = inf, the first prefix [0, _PREFIX_START] on which max weights are taken
_PREFIX_START = 1024


def delta_scaling_probe(k: int, n: int, p: float, lam_values: Sequence[int]) -> OperatorReport:
    """lp norm of sup over admissible lam <= L of the delta-convolution, per cutoff L.

    Distinct lam have disjoint supports (a lattice point determines its
    power sum), so the supremum splits and the p-th power of the norm is
    an additive total over lam.  The fitted slope is the least-squares
    slope of log(norm) against log(cutoff), in closed form, so equal norms
    give exactly 0 (None below two distinct cutoffs); growth is expected for
    p < n/(n - k), the exponent below which the delta example alone forces
    it, while p = inf just reports the largest single weight over R(lam).
    If no admissible lam up to the largest cutoff has a prime solution,
    there is no operator to measure: UndefinedMeasureError.

    The sums of weights^p are ``rep_weight_array`` with the fill
    (log p)^p: positive sums within gamma_m of themselves (``_half_block``),
    so each ratio to R(lam)^p errs by about (p + 1) gamma_m.  A p where
    R(lam)^p or a sum of weights^p of a gated lam overflows is refused with
    NumericError (p = 400 at (k, n) = (2, 5) on every cutoff from 2^8).
    At p = inf the array ratios only pick each cutoff's argmax lam, whose
    ratio is then taken from ``enumerate_prime_points``, once per distinct
    lam; a lam whose true ratio beats it by less than the arrays' rounding
    can still be missed.  The max weights are taken on a prefix [0, top] only:
    every prime of a solution has p^k <= lam, so a lam's ratio is at most
    (log(lam) / k)^n / R(lam), and no lam above top can reach the best
    ratio on [0, top] once that bound stays below it for every gated lam
    above top.  top starts at min(lam_max, 1024); if the bound does not
    allow it, top moves once to the first value the bound allows, which
    the larger best ratio there allows too.  ``max_weight_array`` on a
    prefix equals the whole range's there bit for bit, so every argmax is
    the same.

    Every array is built on the admissible residue classes alone
    (``_admissible_classes``).  A weight is a sum of positive products of
    log p, so the admissible lam with a prime solution are those of
    positive weight: no sumset is built.
    """
    if k < 2 or n < 2:
        raise InputError("need k >= 2, n >= 2")
    _check_exponent(p)
    lam_values = sorted(int(v) for v in lam_values)
    lam_max = lam_values[-1]
    classes = _admissible_classes(k, n, lam_max)
    weight_tot = rep_weight_array(k, n, lam_max, classes=classes)
    gate = weight_tot > 0
    if not gate.any():
        raise UndefinedMeasureError(f"no admissible lam <= {lam_max} has a prime solution")
    lams, weights = class_lams(lam_max, classes)[gate], weight_tot[gate]
    if np.isinf(p):
        # beyond[t]: the largest ratio bound (log(lam) / k)^n / R(lam) over the gated lam > t, non-increasing
        bound = np.zeros(lam_max + 2)
        bound[lams] = (np.log(lams) / k) ** n / weights
        beyond = np.maximum.accumulate(bound[::-1])[::-1][1:]
        top = min(lam_max, _PREFIX_START)
        while True:  # at most twice: the best ratio only grows with top
            maxw = max_weight_array(k, n, top, classes)  # at the class lam <= top, a prefix of the gate's
            on = int(np.searchsorted(lams, top, side="right"))
            ratio = np.zeros(top + 1)
            ratio[lams[:on]] = maxw[gate[: len(maxw)]] / weights[:on]
            # the first t with beyond[t] below the best ratio: no lam above it can reach that ratio
            enough = min(lam_max, int(np.searchsorted(-beyond, -ratio.max(), side="right")))
            if enough <= top:
                break
            top = enough
        argmax = [int(np.argmax(ratio[: min(L, top) + 1])) for L in lam_values]
        exact = {0: 0.0}  # argmax 0: no gated lam up to the cutoff
        for lam in set(argmax) - {0}:
            measure = enumerate_prime_points(ProblemInstance(k, n, lam))
            exact[lam] = float(measure.weights.max() / measure.R)
        norms = [exact[lam] for lam in argmax]
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow (inf, or NaN from inf * 0) is refused below
            powsum = rep_weight_array(k, n, lam_max, power=p, classes=classes)[gate]
            scale = weights**p
        finite = np.isfinite(powsum) & np.isfinite(scale)
        if not finite.all():
            raise NumericError(
                f"p={p:g}: R(lam)^p or the sum of weights^p overflows at lam = {lams[~finite][0]}; lower p"
            )
        running = np.cumsum(powsum / scale)
        ends = np.searchsorted(lams, lam_values, side="right")  # the gated lam up to each cutoff
        norms = [float(running[e - 1] ** (1.0 / p)) if e else 0.0 for e in ends.tolist()]
    slope = None
    if len(set(lam_values)) >= 2 and all(v > 0 for v in norms):
        # least squares of log(norm / norm_0) on log L, in closed form: equal norms give exactly 0
        x = np.log(lam_values)
        x -= x.mean()
        y = np.log(norms) - np.log(norms[0])
        slope = float((x * y).sum() / (x * x).sum())
    return OperatorReport(p=p, lam_values=tuple(lam_values), norms=tuple(norms), slope=slope)
