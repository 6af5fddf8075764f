"""Finite metric spaces: construction and axiom validation.

An exact space keeps its matrix scaled to int rows (`scaled`), computed
once, for the exact kernels of this package; a float space has none and
its kernels keep the tolerance rules of `scalars`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from math import frexp, inf, isfinite, ldexp
from operator import eq, le
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import IndexRangeError, InputFormatError, InvalidMetricError
from .scalars import (
    DEFAULT_TOL,
    Number,
    close,
    coerce_entries,
    integer_rows,
    leq,
    positive,
    tolerant,
)

ASYMMETRY = "asymmetry"
NONZERO_DIAGONAL = "nonzero-diagonal"
NONPOSITIVE_DISTANCE = "nonpositive-distance"
TRIANGLE = "triangle"

# Fewest points from which the triangle scan takes its pairs from the
# packed filter.  Below about 18 points, exact or float, packing the rows
# costs more than the triples it clears; at 18 the two are within 4 %
# (BENCH_triangle_scan.json).
PACKED_MIN_POINTS = 20


@dataclass(frozen=True)
class Violation:
    """One failed metric axiom.

    kind "asymmetry": indices (i, j) with d[i][j] != d[j][i].
    kind "nonzero-diagonal": indices (i,).
    kind "nonpositive-distance": indices (i, j) with d[i][j] <= 0, i != j.
    kind "triangle": indices (i, j, k) with d(i,k) > d(i,j) + d(j,k).
    """

    kind: str
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.indices}"

    def payload(self) -> dict:
        return {"kind": self.kind, "indices": list(self.indices)}


def metric_violations(
    matrix: Sequence[Sequence[Number]],
    tol: float = DEFAULT_TOL,
    limit: Optional[int] = None,
    scaled: Optional[tuple[int, Sequence[Sequence[int]]]] = None,
) -> list[Violation]:
    """Scan a square matrix for metric-axiom violations.

    Stops early after `limit` findings when given. Triangle checks use the
    upper-triangle entries, so they stay meaningful even when asymmetry is
    also being reported.

    An exact matrix is checked on its int-scaled rows (same answers, no
    Fraction arithmetic).  `scaled`, when given, must be
    integer_rows(matrix): validate_space passes the rows the new space
    keeps, so a validated space is scaled once.  Each diagonal entry, pair
    and triangle first runs a plain test, and the tolerance rule (close,
    positive, leq) runs only where that test fails, so the list, its order
    and `limit` are those of the tolerance rule alone.  From
    PACKED_MIN_POINTS points up, the triangle loop skips each pair (i, j)
    whose triangles k > j the packed filter clears.  The tests are sound:

    - diagonal: `v == 0` gives float(v) == 0.0, so close(v, 0, tol);
    - symmetry: `a == b` (no identity shortcut, so NaN fails) gives
      close(a, b, tol), as equal values stay equal as floats;
    - positivity: `v > f and v > f * v`, with f = 0 on int rows, where it
      is positive(v) itself, and f = tol >= 0 otherwise: an exact v is then
      > 0, and for a float v > 0, close(v, 0, tol) reads
      `v <= max(tol, tol * v)`, the negation of the test;
    - triangle: on two exact values `<=` is leq itself; where a float takes
      part, `a <= b + c` gives float(a) <= b + c (rounding is monotone) and
      so leq(a, b + c, tol) for every tol; a NaN fails `<=`;
    - packed triangle, exact: on int rows whose entries right of the
      diagonal are all >= 0, the plain tests of a pair's tail become three
      big-int tests with the same answers.  Given non-negative int tails
      and a slack S >= 0 (here S = 0), let m be the largest entry and
      W >= bit_length(2m + S) + 1 a multiple of 8, so 2m + S < 2^(W-1).
      Row r's tail k > r is packed into one int, d_rk in the W-bit field
      k - r - 1; shifting row i's right by W(j - i) lines its field k up
      with row j's, leaving the L = n - 1 - j fields k > j.  ONES has a 1
      and H the bit W - 1 in each of those fields.  Take A with fields
      a_k <= 2m + S (Rj + dij*ONES, Ri + Rj, Ri + dij*ONES, each plus
      S*ONES: a sum of fields below 2^(W-1) carries into no other field)
      and B with fields b_k <= m (Ri, dij*ONES, Rj).  A + H has the fields
      2^(W-1) + a_k; minus b_k each stays in [1, 2^W), so no field borrows
      from the next, the difference is these fields side by side, and bit
      W - 1 of field k is set exactly when a_k >= b_k.  So
      `(A + H - B) & H == H` holds exactly when b_k <= a_k for every k > j:
      with the three (A, B) above that is d_ik <= d_ij + d_jk + S,
      d_ij <= d_ik + d_jk + S and d_jk <= d_ik + d_ij + S over the tail,
      the three plain tests of each triangle when S = 0.  Rj + H + S*ONES
      and Rj - H - S*ONES are formed once per row, and the three
      differences share one `& H`;
    - packed triangle, float: on rows whose entries right of the diagonal
      are all of type float (a pair of exact entries compares without
      tolerance), with a finite sum (no NaN, no infinity) and all >= 0,
      with 0 < tol < inf.  Let M be the largest such entry, e(x) the
      exponent of math.frexp (so x < 2^e(x)), s = 4 - e(tol), so that
      t = tol * 2^s is in [8, 16) and exact, and u = M * 2^(s - 52).  With
      e(M) + s <= 62 (else every pair runs the loop) every
      f = int(ldexp(x, s)) is below 2^62 and is floor(x * 2^s): the
      product is exact, and one in the subnormal range floors to 0 either
      way.  Take S = floor(t) - floor(u) - 3 (floor(u) is exact too: a
      rounded u is below 1); if S < 0 every pair runs the loop.  Then
      S + 2 < t - u.  If f_a <= f_b + f_c + S, then
      a * 2^s < f_a + 1 <= (b + c) * 2^s + S + 1, so
      a - (b + c) < (S + 1) / 2^s < tol - M * 2^-52 - 2^-s.  The float sum
      is within half an ulp of b + c <= 2M, so fl(b + c) >= b + c - M*2^-52
      and a - fl(b + c) < tol.  Rounding is monotone and tol is a float,
      so the computed gap is at most tol, and close accepts any gap up to
      max(tol, tol * max(|a|, |fl(b + c)|)) >= tol: leq(a, b + c, tol)
      holds.  The same holds for each orientation, so a pair the packed
      tests on these ints accept has no violation, and a pair they flag
      runs the loop, which decides alone.  Spaces whose M is large next
      to tol (M/tol near 2^51 or more) get S < 0: the slack uses only the
      absolute floor tol of close.
    """
    _check_square(matrix)
    if scaled is None:
        scaled = integer_rows(matrix)
    floor = tol
    if scaled is not None:
        floor, matrix = 0, scaled[1]
    n = len(matrix)
    out: list[Violation] = []

    def full() -> bool:
        return limit is not None and len(out) >= limit

    for i in range(n):
        v = matrix[i][i]
        if not (v == 0 or close(v, 0, tol)):
            out.append(Violation(NONZERO_DIAGONAL, (i,)))
            if full():
                return out
    for i, row in enumerate(matrix):
        for j in range(i + 1, n):
            a, b = row[j], matrix[j][i]
            if not (a == b or close(a, b, tol)):
                out.append(Violation(ASYMMETRY, (i, j)))
                if full():
                    return out
            if not (a > floor and a > floor * a or positive(a, tol)):
                out.append(Violation(NONPOSITIVE_DISTANCE, (i, j)))
                if full():
                    return out
    for i, j in _triangle_pairs(matrix, scaled is not None, tol):
        dij = matrix[i][j]
        for k in range(j + 1, n):
            djk = matrix[j][k]
            dik = matrix[i][k]
            # three unordered conditions: each side at most the sum of the
            # others; a plain `<=` that holds is leq's answer (docstring)
            if not (dik <= dij + djk or leq(dik, dij + djk, tol)):
                out.append(Violation(TRIANGLE, (i, j, k)))
            elif not (dij <= dik + djk or leq(dij, dik + djk, tol)):
                out.append(Violation(TRIANGLE, (i, k, j)))
            elif not (djk <= dij + dik or leq(djk, dij + dik, tol)):
                out.append(Violation(TRIANGLE, (j, i, k)))
            else:
                continue
            if full():
                return out
    return out


def _triangle_pairs(
    rows: Sequence[Sequence[Number]], exact: bool, tol: float
) -> Iterable[tuple[int, int]]:
    """The pairs (i, j), i < j < n - 1, in order, whose triangles k > j the
    loop of metric_violations runs: from PACKED_MIN_POINTS points up, on
    rows the packed filter takes (see metric_violations), the pairs it
    flags; on any other rows, every pair.  `exact` says the rows are the
    int rows of an exact matrix."""
    n = len(rows)
    if n >= PACKED_MIN_POINTS:
        tails = [row[i + 1 :] for i, row in enumerate(rows[:-1])]
        if exact:
            if min(map(min, tails)) >= 0:
                return _guard_bit_suspects(tails, max(map(max, tails)), 0)
        elif set(map(type, chain.from_iterable(tails))) == {float} and isfinite(
            sum(map(sum, tails))
        ):
            top = max(map(max, tails))
            scale = min(map(min, tails)) >= 0 and _fixed_point(tol, top)
            if scale:
                s, slack = scale
                fixed = [list(map(int, map(ldexp, tail, repeat(s)))) for tail in tails]
                return _guard_bit_suspects(fixed, int(ldexp(top, s)), slack)
    return ((i, j) for i in range(n - 2) for j in range(i + 1, n - 1))


def _fixed_point(tol: float, top: float) -> Optional[tuple[int, int]]:
    """(s, S), the exponent and slack of the float packed filter for
    entries in [0, top], or None where the slack would be negative (see
    metric_violations)."""
    if not 0 < tol < inf:
        return None
    s = 4 - frexp(tol)[1]
    if frexp(top)[1] + s > 62:
        return None
    slack = int(ldexp(tol, s)) - int(ldexp(top, s - 52)) - 3
    return (s, slack) if slack >= 0 else None


def _guard_bit_suspects(
    tails: list[Sequence[int]], top: int, slack: int
) -> Iterator[tuple[int, int]]:
    """The pairs (i, j), in order, for which some k > j has a side above
    the sum of the other two plus `slack`, on int tails in [0, top]."""
    n = len(tails) + 1
    size = (2 * top + slack).bit_length() // 8 + 1
    w = 8 * size
    packed = [
        int.from_bytes(
            b"".join(map(int.to_bytes, tail, repeat(size), repeat("little"))),
            "little",
        )
        for tail in tails
    ]
    one = b"\x01" + bytes(size - 1)
    # per row j: ONES, H, Rj + H + S*ONES and Rj - H - S*ONES over its tail
    rest = []
    for j, rj in enumerate(packed):
        o = int.from_bytes(one * (n - 1 - j), "little")
        h = o << w - 1
        lift = h + slack * o
        rest.append((j, o, h, rj + lift, rj - lift))
    for i in range(n - 2):
        ri = packed[i]
        for dij, (j, o, h, up, down) in zip(tails[i], rest[i + 1 :]):
            ri >>= w
            d = dij * o
            if (up + d - ri) & (ri + up - d) & (ri + d - down) & h != h:
                yield i, j


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space over string labels.

    `matrix` entries are either all exact (int/Fraction) or all float;
    float-mode comparisons use the absolute-or-relative tolerance `tol`.
    Instances are immutable; build them through validate_space.

    `scaled` is the matrix as int rows over one scale, computed on first
    use and kept; the exact kernels read it.  It is not a field, so ==,
    hash and repr do not see it.
    """

    labels: tuple[str, ...]
    matrix: tuple[tuple[Number, ...], ...]
    exact: bool
    tol: float

    @cached_property
    def scaled(self) -> Optional[tuple[int, tuple[tuple[int, ...], ...]]]:
        """(scale, int rows) of an exact matrix, as integer_rows gives them;
        None for a float one."""
        return integer_rows(self.matrix)

    def kernel_rows(self) -> tuple[Sequence[Sequence[Number]], Number, Callable, Callable]:
        """(rows, one, same, below) for a kernel that compares entries: the
        kept int rows, their scale (distance 1), == and <= for an exact
        space; else the matrix, 1, and close and leq from
        scalars.tolerant(tol), since every entry of a float space is a
        float."""
        if self.scaled is None:
            return (self.matrix, 1, *tolerant(self.tol))
        return self.scaled[1], self.scaled[0], eq, le

    @property
    def n(self) -> int:
        return len(self.labels)

    def dist(self, i: int, j: int) -> Number:
        return self.matrix[i][j]

    def close(self, a: Number, b: Number) -> bool:
        return close(a, b, self.tol)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexRangeError(f"no point labeled {label!r}") from None

    def diameter(self) -> Number:
        best: Number = 0
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.matrix[i][j] > best:
                    best = self.matrix[i][j]
        return best

    def restrict(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        """Subspace on the given point indices, order preserved."""
        idx = list(indices)
        if len(set(idx)) != len(idx):
            raise IndexRangeError("restriction indices must be distinct")
        for i in idx:
            if not 0 <= i < self.n:
                raise IndexRangeError(f"point index {i} out of range")
        return FiniteMetricSpace(
            labels=tuple(self.labels[i] for i in idx),
            matrix=tuple(tuple(self.matrix[i][j] for j in idx) for i in idx),
            exact=self.exact,
            tol=self.tol,
        )

    def delete(self, index: int) -> "FiniteMetricSpace":
        """Subspace with one point removed."""
        if not 0 <= index < self.n:
            raise IndexRangeError(f"point index {index} out of range")
        return self.restrict([i for i in range(self.n) if i != index])


def _check_square(matrix: Sequence[Sequence[Number]]) -> None:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise InputFormatError("matrix is not square")


def validate_space(
    matrix: Sequence[Sequence[Number]],
    labels: Optional[Sequence[str]] = None,
    tol: float = DEFAULT_TOL,
) -> FiniteMetricSpace:
    """Validate a distance matrix and wrap it as a FiniteMetricSpace.

    Raises InvalidMetricError carrying the full violation list on failure.
    """
    n = len(matrix)
    if labels is None:
        labels = [f"p{i}" for i in range(n)]
    labels = [str(x) for x in labels]
    if len(labels) != n:
        raise InputFormatError(f"{len(labels)} labels for {n} points")
    if len(set(labels)) != n:
        raise InputFormatError("labels must be distinct")

    space = metric_space(matrix, labels, tol)
    violations = metric_violations(space.matrix, tol, scaled=space.scaled)
    if violations:
        raise InvalidMetricError(violations)
    return space


def metric_space(
    matrix: Sequence[Sequence[Number]], labels: Sequence[str], tol: float
) -> FiniteMetricSpace:
    """Wrap a matrix without checking the axioms; entries take one mode.

    For builders whose output is a metric by construction, and for
    validate_space, which checks the axioms next.  Labels must be distinct
    strings; a matrix that is not square raises InputFormatError.
    """
    _check_square(matrix)
    n = len(matrix)
    flat, exact = coerce_entries(v for row in matrix for v in row)
    rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    return FiniteMetricSpace(labels=tuple(labels), matrix=rows, exact=exact, tol=tol)
