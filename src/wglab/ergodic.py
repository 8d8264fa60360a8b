"""Averages along prime points on torus rotation systems, and equidistribution diagnostics."""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, UndefinedMeasureError
from .surface import (
    SurfaceMeasure,
    admissible_mask,
    omega_hat,
    weight_and_numerator_arrays,
)


@dataclass(frozen=True)
class TorusSystem:
    """Commuting coordinate rotations x -> x + alpha_i e_i on the n-torus."""

    alpha: tuple

    def __post_init__(self):
        if len(self.alpha) == 0:
            raise InputError("rotation vector must be nonempty")

    @property
    def n(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite combination of harmonics e(m . x) with complex coefficients."""

    terms: tuple  # of (frequency tuple, coefficient)

    def __post_init__(self):
        if len(self.terms) == 0:
            raise InputError("trigonometric polynomial needs at least one term")
        dims = {len(m) for m, _ in self.terms}
        if len(dims) != 1:
            raise InputError("all frequencies must share one dimension")

    @property
    def n(self) -> int:
        return len(self.terms[0][0])

    @classmethod
    def harmonic(cls, m):
        return cls(terms=((tuple(int(v) for v in m), 1.0 + 0j),))

    @classmethod
    def constant(cls, n: int, value=1.0):
        return cls(terms=(((0,) * n, complex(value)),))

    @property
    def mean(self) -> complex:
        zero = (0,) * self.n
        return sum((c for m, c in self.terms if m == zero), 0j)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(points), dtype=complex)
        for m, c in self.terms:
            out += c * np.exp(2j * np.pi * (points @ np.asarray(m, dtype=float)))
        return out


def ergodic_average(
    system: TorusSystem,
    f: TrigPolynomial,
    measure: SurfaceMeasure,
    x,
) -> complex:
    """Weighted average of f over the orbit points x + (p_1 alpha_1, ..., p_n alpha_n).

    For a single harmonic e(m . x) the result equals
    e(m . x) * omega_hat(m_1 alpha_1, ..., m_n alpha_n); the module checks
    this identity on the fly for one-term polynomials (frequencies enter
    the transform as m_i alpha_i, without conjugation).
    """
    if measure.R <= 0:
        raise UndefinedMeasureError("measure has zero mass")
    x = np.asarray(x, dtype=float)
    if len(x) != measure.instance.n or f.n != measure.instance.n or system.n != measure.instance.n:
        raise InputError("system, function, measure, and point must share one dimension")
    alpha = np.asarray(system.alpha, dtype=float)
    orbit = (x[None, :] + measure.representations * alpha[None, :]) % 1.0
    value = complex((measure.weights * f(orbit)).sum() / measure.R)
    if len(f.terms) == 1:
        m, c = f.terms[0]
        freq = np.asarray(m, dtype=float) * alpha
        predicted = c * np.exp(2j * np.pi * float(np.dot(m, x))) * omega_hat(measure, freq)
        if abs(value - predicted) > 1e-9 * (1.0 + abs(value)):
            raise NumericError("harmonic average disagrees with its transform value")
    return value


@dataclass(frozen=True)
class WeylBlock:
    """Largest transform modulus over one dyadic block of admissible lam."""

    lam_lo: int
    lam_hi: int
    count: int
    max_abs: float
    argmax_lam: int


def weyl_decay_scan(k: int, n: int, xi, lam_min: int, num_blocks: int) -> list[WeylBlock]:
    """max |omega_hat(xi)| over admissible lam in [L, 2L), L = lam_min * 2^j.

    The weights and numerators of every lam below the top block come at
    once from ``weight_and_numerator_arrays`` (exact block sums and shift
    rounds; |omega_hat| within about 2 gamma_m of ``_half_block``'s
    bound), and the lam with a prime solution from the exact boolean
    sumset, so no lam is enumerated.  Blocks without an admissible lam are
    left out; if none is left, UndefinedMeasureError.
    """
    if k < 2 or n < 2:
        raise InputError("need k >= 2, n >= 2")
    if lam_min < 1 or num_blocks < 1:
        raise InputError("need lam_min >= 1 and num_blocks >= 1")
    lam_max = lam_min * 2**num_blocks - 1
    weights, numer = weight_and_numerator_arrays(k, n, lam_max, xi)
    valid = admissible_mask(k, n, lam_max)
    blocks = []
    for j in range(num_blocks):
        lo, hi = lam_min * 2**j, lam_min * 2 ** (j + 1)
        idx = np.flatnonzero(valid[lo:hi]) + lo
        if len(idx) == 0:  # no transform to take a maximum of
            continue
        mags = np.abs(numer[idx]) / weights[idx]
        best = int(np.argmax(mags))
        blocks.append(WeylBlock(lo, hi, len(idx), float(mags[best]), int(idx[best])))
    if not blocks:
        raise UndefinedMeasureError(f"no dyadic block from {lam_min} holds an admissible lam")
    return blocks


def discrepancy(points, num_boxes: int = 10_000, seed: int = 0) -> float:
    """Randomized star-discrepancy estimate of a point set on the torus.

    Samples ``num_boxes`` anchored boxes [0, b) and reports the largest
    deviation between the empirical fraction and the box volume.  This is
    an estimator (a lower bound up to sampling): exact star discrepancy
    is exponential in the dimension.

    The counts are exact integers.  A point lies below a corner in
    coordinate j exactly when its rank among the distinct values of that
    coordinate is below the number of those values under the corner.  Per
    coordinate, each such threshold that a chunk of boxes uses gets a
    packed bit row of the points below it, and a box's count is the
    popcount of the AND of its n rows.  A chunk holds up to
    2_000_000 // len(points) boxes, so that each coordinate's rows take at
    most about 2 MB while they are built.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float)) % 1.0
    if points.size == 0 or num_boxes < 1:
        raise InputError("discrepancy needs a nonempty point set and num_boxes >= 1")
    m, n = points.shape
    width = (m + 7) // 8  # bytes of one packed row
    columns = [np.unique(points[:, j], return_inverse=True) for j in range(n)]  # (distinct values, ranks)
    byte, bit = np.arange(m) // 8, 1 << (np.arange(m) % 8)  # where point i sits in a packed row
    rng = np.random.default_rng(seed)
    worst = 0.0
    chunk = max(1, 2_000_000 // m)
    done = 0
    while done < num_boxes:
        take = min(chunk, num_boxes - done)
        boxes = rng.random((take, n))
        inside = np.full((take, width), 255, dtype=np.uint8)
        for corners, (values, ranks) in zip(boxes.T, columns):
            used, which = np.unique(np.searchsorted(values, corners), return_inverse=True)
            # point i first belongs to the row of the smallest used threshold above its rank, and to every
            # later row; the points of one byte carry distinct bits, so a sum of bit values is their OR
            first = np.searchsorted(used, np.arange(len(values)), side="right")[ranks]
            rows = np.bincount(first * width + byte, bit, (len(used) + 1) * width).astype(np.uint8)
            inside &= np.bitwise_or.accumulate(rows.reshape(-1, width), axis=0)[which]
        counts = np.bitwise_count(inside).sum(axis=1, dtype=np.int64)
        worst = max(worst, float(np.abs(counts / m - boxes.prod(axis=1)).max()))
        done += take
    return worst


def orbit_points(measure: SurfaceMeasure, alpha) -> np.ndarray:
    """The set {(alpha_1 p_1, ..., alpha_n p_n) mod 1 : solution p}."""
    alpha = np.asarray(alpha, dtype=float)
    return (measure.representations * alpha[None, :]) % 1.0
