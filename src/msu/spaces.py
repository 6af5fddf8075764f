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
from operator import add, eq, getitem, gt, le, mul
from typing import Callable, Iterator, Optional, Sequence

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

# Fewest points for which the packed triangle filter beats the three passes:
# packing the rows costs about as much as the passes save at n = 6.
PACKED_MIN_POINTS = 7
# The same for float rows, which first pay a type scan and a fixed-point
# conversion: over 15 interleaved rounds of validate_space on L1 grid
# points, packing took 1.05x the passes' time at n = 8 and 0.93x at n = 9
# (0.96x and 0.87x on float shortest-path closures of thirds).
FLOAT_PACKED_MIN_POINTS = 9


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
    keeps, so a validated space is scaled once.  Each row, and each
    pair (i, j) of the triangle scan, first tests all its entries at once
    (in C-level passes, or on packed ints for a pair of the triangle scan
    of larger rows); only a row or pair that fails one runs the per-entry
    tolerance loop, so the list, its order and `limit` are those of the
    loop alone.  In the triangle loop, a plain `a <= b + c` that holds
    stands for leq (the triangle pass below), so leq runs only where `<=`
    fails; on packed float rows, whose entries right of the diagonal (all
    the loop reads) are all floats, it runs as scalars.tolerant(tol), the
    same formula.  The tests are sound:

    - diagonal: `v == 0` gives float(v) == 0.0, so close(v, 0, tol);
    - symmetry: `a == b` (no identity shortcut, so NaN fails) gives
      close(a, b, tol), as equal values stay equal as floats;
    - positivity: `v > f and v > f * v`, with f = 0 on int rows, where it
      is positive(v) itself, and f = tol >= 0 otherwise: an exact v is then
      > 0, and for a float v > 0, close(v, 0, tol) reads
      `v <= max(tol, tol * v)`, the negation of the pass;
    - triangle: on two exact values `<=` is leq itself; where a float takes
      part, `a <= b + c` gives float(a) <= b + c (rounding is monotone) and
      so leq(a, b + c, tol) for every tol.  Each sum is the same IEEE
      operation as in the loop, since addition commutes, and a NaN fails
      `<=`;
    - packed triangle, exact: on int rows of at least PACKED_MIN_POINTS
      points whose entries right of the diagonal are all >= 0, the three
      passes of a pair become three big-int tests with the same answers.
      Given non-negative int tails and a slack S >= 0 (here S = 0), let m
      be the largest entry and W >= bit_length(2m + S) + 1 a multiple of
      8, so 2m + S < 2^(W-1).  Row r's tail k > r is packed into one int,
      d_rk in the W-bit field k - r - 1; shifting row i's right by
      W(j - i) lines its field k up with row j's, leaving the
      L = n - 1 - j fields k > j.  ONES has a 1 and H the bit W - 1 in
      each of those fields.  Take A with fields a_k <= 2m + S
      (Rj + dij*ONES, Ri + Rj, Ri + dij*ONES, each plus S*ONES: a sum of
      fields below 2^(W-1) carries into no other field) and B with fields
      b_k <= m (Ri, dij*ONES, Rj).  A + H has the fields 2^(W-1) + a_k;
      minus b_k each stays in [1, 2^W), so no field borrows from the
      next, the difference is these fields side by side, and bit W - 1 of
      field k is set exactly when a_k >= b_k.  So `(A + H - B) & H == H`
      holds exactly when b_k <= a_k for every k > j: with the three
      (A, B) above that is d_ik <= d_ij + d_jk + S, d_ij <= d_ik + d_jk + S
      and d_jk <= d_ik + d_ij + S over the tail, the three passes when
      S = 0.  Rj + H + S*ONES and Rj - H - S*ONES are formed once per row,
      and the three differences share one `& H`;
    - packed triangle, float: on rows of at least FLOAT_PACKED_MIN_POINTS
      points whose entries right of the diagonal are all of type float
      (a pair of exact entries compares without tolerance), with a finite
      sum (no NaN, no infinity) and all >= 0, with 0 < tol < inf.  Let M
      be the largest such entry, e(x) the exponent of math.frexp (so
      x < 2^e(x)), s = 4 - e(tol), so that t = tol * 2^s is in [8, 16)
      and exact, and u = M * 2^(s - 52).  With e(M) + s <= 62 (else the
      passes run) every f = int(ldexp(x, s)) is below 2^62 and is
      floor(x * 2^s): the product is exact, and one in the subnormal range
      floors to 0 either way.  Take S = floor(t) - floor(u) - 3 (floor(u)
      is exact too: a rounded u is below 1); if S < 0 the passes run.
      Then S + 2 < t - u.  If f_a <= f_b + f_c + S, then
      a * 2^s < f_a + 1 <= (b + c) * 2^s + S + 1, so
      a - (b + c) < (S + 1) / 2^s < tol - M * 2^-52 - 2^-s.  The float sum
      is within half an ulp of b + c <= 2M, so fl(b + c) >= b + c - M*2^-52
      and a - fl(b + c) < tol.  Rounding is monotone and tol is a float,
      so the computed gap is at most tol, and close accepts any gap up to
      max(tol, tol * max(|a|, |fl(b + c)|)) >= tol: leq(a, b + c, tol)
      holds.  The same holds for each orientation, so a pair the packed
      tests on these ints accept has no violation, and a pair they flag
      runs the loop, which decides alone.  Spaces whose M is large next
      to tol (M/tol near 2^51 or more) get S < 0 and run the passes: the
      slack uses only the absolute floor tol of close.
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

    if not all(map(eq, map(getitem, matrix, range(n)), repeat(0))):
        for i in range(n):
            if not close(matrix[i][i], 0, tol):
                out.append(Violation(NONZERO_DIAGONAL, (i,)))
                if full():
                    return out
    columns = list(zip(*matrix))
    for i in range(n):
        ri = matrix[i][i + 1 :]
        if (
            all(map(eq, ri, columns[i][i + 1 :]))
            and all(map(gt, ri, repeat(floor)))
            and all(map(gt, ri, map(mul, ri, repeat(floor))))
        ):
            continue
        for j in range(i + 1, n):
            if not close(matrix[i][j], matrix[j][i], tol):
                out.append(Violation(ASYMMETRY, (i, j)))
                if full():
                    return out
            if not positive(matrix[i][j], tol):
                out.append(Violation(NONPOSITIVE_DISTANCE, (i, j)))
                if full():
                    return out

    def below(a: Number, b: Number) -> bool:
        return leq(a, b, tol)

    if scaled is not None:
        pairs = _packed_suspects(matrix) if n >= PACKED_MIN_POINTS else _suspects(matrix)
    elif n >= FLOAT_PACKED_MIN_POINTS and _all_float(tails := _tails(matrix)):
        below = tolerant(tol)[1]
        pairs = _float_suspects(matrix, tails, tol)
    else:
        pairs = _suspects(matrix)
    for i, j in pairs:
        dij = matrix[i][j]
        for k in range(j + 1, n):
            djk = matrix[j][k]
            dik = matrix[i][k]
            # three unordered conditions: each side at most the sum of the
            # others; a plain `<=` that holds is leq's answer (docstring)
            if not (dik <= dij + djk or below(dik, dij + djk)):
                out.append(Violation(TRIANGLE, (i, j, k)))
            elif not (dij <= dik + djk or below(dij, dik + djk)):
                out.append(Violation(TRIANGLE, (i, k, j)))
            elif not (djk <= dij + dik or below(djk, dij + dik)):
                out.append(Violation(TRIANGLE, (j, i, k)))
            else:
                continue
            if full():
                return out
    return out


def _tails(matrix: Sequence[Sequence[Number]]) -> list[Sequence[Number]]:
    """Row i's entries right of the diagonal, for i < n - 1."""
    return [row[i + 1 :] for i, row in enumerate(matrix[:-1])]


def _all_float(tails: list[Sequence[Number]]) -> bool:
    return set(map(type, chain.from_iterable(tails))) == {float}


def _suspects(matrix: Sequence[Sequence[Number]]) -> Iterator[tuple[int, int]]:
    """The pairs (i, j), i < j < n - 1, in order, whose tail k > j fails one
    of the three triangle passes."""
    n = len(matrix)
    for i in range(n - 2):
        row_i = matrix[i]
        for j in range(i + 1, n - 1):
            dij = row_i[j]
            ri, rj = row_i[j + 1 :], matrix[j][j + 1 :]
            if not (
                all(map(le, ri, map(add, rj, repeat(dij))))
                and all(map(le, repeat(dij), map(add, ri, rj)))
                and all(map(le, rj, map(add, ri, repeat(dij))))
            ):
                yield i, j


def _packed_suspects(rows: Sequence[Sequence[int]]) -> Iterator[tuple[int, int]]:
    """_suspects on int rows, each pair's three passes done on packed ints.

    Rows with a negative entry right of the diagonal take _suspects.
    """
    tails = _tails(rows)
    if min(map(min, tails)) < 0:
        return _suspects(rows)
    return _guard_bit_suspects(tails, max(map(max, tails)), 0)


def _float_suspects(
    rows: Sequence[Sequence[float]], tails: list[Sequence[float]], tol: float
) -> Iterator[tuple[int, int]]:
    """The pairs whose tail may hold a triangle violation, on rows whose
    `tails` (_tails(rows)) are all floats.

    Rows the fixed-point form fits (see metric_violations) take the packed
    tests with slack S; any other rows take _suspects.
    """
    if not isfinite(sum(map(sum, tails))):
        return _suspects(rows)
    top = max(map(max, tails))
    scale = min(map(min, tails)) >= 0 and _fixed_point(tol, top)
    if not scale:
        return _suspects(rows)
    s, slack = scale
    fixed = [list(map(int, map(ldexp, tail, repeat(s)))) for tail in tails]
    return _guard_bit_suspects(fixed, int(ldexp(top, s)), slack)


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
