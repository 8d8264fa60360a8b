"""Rational approximation, continued fractions, and major/minor arc decompositions."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, takewhile
from math import ceil, floor, gcd
from typing import Optional

from .errors import InputError


@dataclass(frozen=True)
class RationalPoint:
    """A reduced fraction a/q used as an arc center or convergent.

    Arc centers are canonical (0 <= a < q, or 0/1); convergent lists may
    additionally contain 1/1 when the target lies in (1/2, 1).
    """

    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise InputError("denominator must be >= 1")
        if gcd(self.a, self.q) != 1:
            raise InputError("fraction must be reduced")
        if not 0 <= self.a <= self.q:
            raise InputError("numerator must satisfy 0 <= a <= q")

    @property
    def value(self) -> float:
        return self.a / self.q

    def __str__(self) -> str:
        return f"{self.a}/{self.q}"


@dataclass(frozen=True)
class ArcSystem:
    """Parameters (X, Q) of the arc family |q*theta - a| <= Q/X, q <= Q.

    The arcs are pairwise disjoint when X > Q(2Q - 1): centers a/q != a'/q'
    lie at least 1/(q q') apart, and the two half-widths add up to
    Q (q + q') / (X q q').  2Q < X only separates arcs of equal q; at X = 25,
    Q = 10, theta = 0.105 lies in the arcs of both 1/9 and 1/10.
    """

    X: float
    Q: float

    def __post_init__(self):
        if not 1 <= self.Q <= self.X:
            raise InputError("arc system needs 1 <= Q <= X")

    @property
    def halfwidth(self) -> float:
        return self.Q / self.X


def torus_distance(x: float) -> float:
    """Distance from x to the nearest integer."""
    return abs(x - round(x))


def _convergent_pairs(theta: float):
    """(p, q) of each continued-fraction convergent of theta reduced to [0, 1), in order.

    Every float is rational, so the expansion is exact and finite.
    """
    x = Fraction(theta)
    num, den = x.numerator % x.denominator, x.denominator
    p_prev, q_prev, p, q = 1, 0, 0, 1
    yield p, q
    while num:
        a = den // num
        num, den = den - a * num, num
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield p, q


def convergents(xi: float, count: int) -> list[RationalPoint]:
    """First ``count`` continued-fraction convergents of xi reduced to [0, 1).

    The expansion is finite, so the list may be shorter than requested.
    Each returned b/r obeys |r*xi - b| < 1/r.
    """
    if not 1 <= count <= 64:
        raise InputError("convergent count must be between 1 and 64")
    return [RationalPoint(p, q) for p, q in islice(_convergent_pairs(xi), count)]


def dirichlet_approx(theta: float, Qbound: float) -> RationalPoint:
    """Reduced a/q with q <= Qbound and q * ||theta - a/q|| <= 1/Qbound.

    The last continued-fraction convergent with denominator <= Qbound
    realizes the pigeonhole guarantee.  theta is reduced to [0, 1) first
    and the result is canonical, so the approximation error is measured
    on the torus.
    """
    if Qbound < 1:
        raise InputError("dirichlet_approx needs Qbound >= 1")
    *_, (p, q) = takewhile(lambda c: c[1] <= Qbound, _convergent_pairs(theta))
    return RationalPoint(p % q, q)


def _arc_center(theta: float, Q: float, halfwidth: float) -> Optional[tuple[RationalPoint, float]]:
    """Smallest q <= Q, then the nearest a, with |q*theta - a| <= halfwidth and gcd(a, q) = 1.

    Returns the reduced center (a mod q)/q and the signed offset q*theta - a,
    or None.  Two a at the same distance go to the smaller one.
    """
    for q in range(1, floor(Q) + 1):
        t = q * theta
        candidates = sorted(
            range(ceil(t - halfwidth), floor(t + halfwidth) + 1),
            key=lambda a: (abs(t - a), a),
        )
        for a in candidates:
            if gcd(a % q, q) == 1:  # gcd(0, 1) = 1 covers the central 0/1 arc
                return RationalPoint(a % q, q), t - a
    return None


def major_arc_membership(theta: float, system: ArcSystem) -> Optional[RationalPoint]:
    """The center a/q of the arc containing theta, or None on the minor arcs.

    Overlaps (possible unless X > Q(2Q - 1)) resolve to the smallest q, then the
    nearest a.  That is also the smallest a: below halfwidth 1/2 a window
    |q*theta - a| <= Q/X holds at most one integer, and from 1/2 on the
    q = 1 window covers every theta and gives 0/1.  theta is reduced to
    [0, 1) and distances are measured on the torus, so the central arc
    wraps around 0.
    """
    hit = _arc_center(theta % 1.0, system.Q, system.halfwidth)
    return hit[0] if hit else None
