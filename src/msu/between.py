"""Metric betweenness, collinearity tests, and line realizations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from .errors import (
    IndexRangeError,
    InvalidTripleError,
    WrongCardinalityError,
)
from .scalars import (
    DEFAULT_TOL,
    Number,
    close,
    coerce_entries,
    leq,
    positive,
)
from .spaces import FiniteMetricSpace


@dataclass(frozen=True)
class LineRealization:
    """Coordinates on the real line, one per point, preserving distances."""

    coords: tuple[Number, ...]

    def payload(self) -> dict:
        return {"coords": list(self.coords)}


@dataclass(frozen=True)
class PLLabeling:
    """Point ordering p0,p1,p2,p3 exhibiting the pseudo-linear equalities.

    d(p0,p1) = d(p2,p3), d(p1,p2) = d(p3,p0), and
    d(p0,p2) = d(p0,p1) + d(p1,p2) = d(p1,p3).
    """

    perm: tuple[int, int, int, int]

    def payload(self) -> dict:
        return {"perm": list(self.perm)}


@dataclass(frozen=True)
class MBStatus:
    """Whether every triple is collinear, with the first failure if not."""

    is_mb: bool
    witness: Optional[tuple[int, int, int]]

    def payload(self) -> dict:
        return {
            "is_mb": self.is_mb,
            "witness": list(self.witness) if self.witness else None,
        }


def _check_triple_indices(space: FiniteMetricSpace, i: int, j: int, k: int) -> None:
    for t in (i, j, k):
        if not 0 <= t < space.n:
            raise IndexRangeError(f"point index {t} out of range")
    if len({i, j, k}) != 3:
        raise IndexRangeError("triple indices must be distinct")


def lies_between(space: FiniteMetricSpace, i: int, j: int, k: int) -> bool:
    """True when the middle argument splits the span: d(i,k) = d(i,j) + d(j,k)."""
    _check_triple_indices(space, i, j, k)
    return space.close(space.dist(i, k), space.dist(i, j) + space.dist(j, k))


def _validated_sides(
    d12: Number, d13: Number, d23: Number, tol: float
) -> list[Number]:
    sides, _ = coerce_entries([d12, d13, d23])
    for v in sides:
        if not positive(v, tol):
            raise InvalidTripleError(f"side {v} is not positive")
    a, b, c = sides
    if not (leq(a, b + c, tol) and leq(b, a + c, tol) and leq(c, a + b, tol)):
        raise InvalidTripleError(f"sides {a}, {b}, {c} violate the triangle inequality")
    return sides


def is_mb_triple(
    d12: Number, d13: Number, d23: Number, tol: float = DEFAULT_TOL
) -> bool:
    """True when one point lies between the other two: 2*max = sum."""
    a, b, c = _validated_sides(d12, d13, d23, tol)
    return close(2 * max(a, b, c), a + b + c, tol)


def cayley_menger(
    d12: Number, d13: Number, d23: Number, tol: float = DEFAULT_TOL
) -> Number:
    """Collinearity determinant of a triple; zero exactly for flat triples.

    The Cayley-Menger determinant of the three points, in closed form:
    -(a+b+c)(-a+b+c)(a-b+c)(a+b-c), which is -16 times the squared area
    of the triangle with these sides (Heron), so it is negative for every
    non-degenerate triple.  Exact inputs give the exact determinant.  For
    float inputs the product can differ in its last bits from a cofactor
    expansion of the 4x4 matrix.
    """
    a, b, c = _validated_sides(d12, d13, d23, tol)
    return -(a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)


def is_mb_space(space: FiniteMetricSpace) -> MBStatus:
    """Check that among any three points one lies between the other two.

    Spaces with fewer than three points pass vacuously.  The witness is
    the first violating triple in lexicographic index order, if any.
    Exact spaces are tested on the int rows they keep, which keeps every
    answer of 2*max = sum.
    """
    d, _, same, _ = space.kernel_rows()
    for i, j, k in combinations(range(space.n), 3):
        a, b, c = d[i][j], d[i][k], d[j][k]
        if not same(2 * max(a, b, c), a + b + c):
            return MBStatus(False, (i, j, k))
    return MBStatus(True, None)


def pl_labeling(space: FiniteMetricSpace) -> Optional[PLLabeling]:
    """First point ordering (lexicographic) satisfying the PL equalities."""
    if space.n != 4:
        raise WrongCardinalityError(f"need exactly 4 points, got {space.n}")
    d = space.dist
    for p0, p1, p2, p3 in permutations(range(4)):
        if not space.close(d(p0, p1), d(p2, p3)):
            continue
        if not space.close(d(p1, p2), d(p3, p0)):
            continue
        span = d(p0, p1) + d(p1, p2)
        if space.close(d(p0, p2), span) and space.close(d(p1, p3), span):
            return PLLabeling((p0, p1, p2, p3))
    return None


def line_realization(space: FiniteMetricSpace) -> Optional[LineRealization]:
    """Distance-preserving coordinates on the real line, or none.

    The first point is pinned at 0 and the second on the positive side,
    so successful outputs are canonical up to nothing.  Remaining points
    sit at +/- their distance from the first point; the sign choices are
    resolved by backtracking against all previously placed points.
    """
    n = space.n
    if n == 0:
        return LineRealization(())
    coords: list[Number] = [0] * n
    if n >= 2:
        coords[1] = space.dist(0, 1)

    def place(t: int) -> bool:
        if t == n:
            return True
        r = space.dist(0, t)
        for cand in (r, -r):
            ok = True
            for u in range(1, t):
                gap = cand - coords[u]
                if gap < 0:
                    gap = -gap
                if not space.close(gap, space.dist(u, t)):
                    ok = False
                    break
            if ok:
                coords[t] = cand
                if place(t + 1):
                    return True
        return False

    # Every pair is checked once: (0, t) holds by the choice of +/-r, and
    # place() tests each later point against points 1..t-1.
    if not place(min(2, n)):
        return None
    return LineRealization(tuple(coords))


def is_pseudolinear(space: FiniteMetricSpace) -> bool:
    """True for 4-point spaces where every triple lines up but the whole does not."""
    if space.n != 4:
        raise WrongCardinalityError(f"need exactly 4 points, got {space.n}")
    if line_realization(space) is not None:
        return False
    for drop in range(4):
        if line_realization(space.delete(drop)) is None:
            return False
    return True
