"""Finite metric spaces: construction and axiom validation.

An exact space keeps its matrix scaled to int rows (`scaled`), computed
once, for the exact kernels of this package; a float space has none and
its kernels keep the tolerance rules of `scalars`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, eq, getitem, gt, le, mul
from typing import Iterator, Optional, Sequence

from .errors import IndexRangeError, InputFormatError, InvalidMetricError
from .scalars import (
    DEFAULT_TOL,
    Number,
    close,
    coerce_entries,
    integer_rows,
    leq,
    positive,
)

ASYMMETRY = "asymmetry"
NONZERO_DIAGONAL = "nonzero-diagonal"
NONPOSITIVE_DISTANCE = "nonpositive-distance"
TRIANGLE = "triangle"

# Fewest points for which the packed triangle filter beats the three passes:
# packing the rows costs about as much as the passes save at n = 6.
PACKED_MIN_POINTS = 7


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
    pair (i, j) of the triangle scan, first tests all its entries in
    C-level passes (on packed ints for a pair of the triangle scan of
    larger int rows); only a row or pair that fails one runs the
    per-entry tolerance loop, so the list, its order and `limit` are those
    of the loop alone.  The passes are sound:

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
    - packed triangle: on int rows of at least PACKED_MIN_POINTS points
      whose entries right of the diagonal are all >= 0, the three passes
      of a pair become three big-int tests with the same answers.  Let m
      be the largest such entry and W >= bit_length(2m) + 1 a multiple of
      8, so 2m < 2^(W-1).  Row r's tail k > r is packed into one int, d_rk
      in the W-bit field k - r - 1; shifting row i's right by W(j - i)
      lines its field k up with row j's, leaving the L = n - 1 - j fields
      k > j.  ONES has a 1 and H the bit W - 1 in each of those fields.
      Take A with fields a_k <= 2m (Rj + dij*ONES, Ri + Rj, Ri + dij*ONES:
      a sum of two fields < 2^(W-1) carries into no other field) and B
      with fields b_k <= m (Ri, dij*ONES, Rj).  No a_k reaches bit W - 1,
      so A | H = A + H, whose field k is 2^(W-1) + a_k; minus b_k it stays
      in [1, 2^W), so no field borrows from the next, the difference is
      these fields side by side, and bit W - 1 of field k is set exactly
      when a_k >= b_k.  So `((A | H) - B) & H == H` holds exactly when
      b_k <= a_k for every k > j: with the three (A, B) above that is
      d_ik <= d_ij + d_jk, d_ij <= d_ik + d_jk and d_jk <= d_ik + d_ij over
      the tail, the three passes.
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
    packed = scaled is not None and n >= PACKED_MIN_POINTS
    for i, j in _packed_suspects(matrix) if packed else _suspects(matrix):
        dij = matrix[i][j]
        for k in range(j + 1, n):
            djk = matrix[j][k]
            dik = matrix[i][k]
            # three unordered conditions: each side at most the sum of the others
            if not leq(dik, dij + djk, tol):
                out.append(Violation(TRIANGLE, (i, j, k)))
            elif not leq(dij, dik + djk, tol):
                out.append(Violation(TRIANGLE, (i, k, j)))
            elif not leq(djk, dij + dik, tol):
                out.append(Violation(TRIANGLE, (j, i, k)))
            else:
                continue
            if full():
                return out
    return out


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
    n = len(rows)
    tails = [row[i + 1 :] for i, row in enumerate(rows[:-1])]
    if min(map(min, tails)) < 0:
        yield from _suspects(rows)
        return
    size = (2 * max(map(max, tails))).bit_length() // 8 + 1
    w = 8 * size
    packed = [
        int.from_bytes(
            b"".join(map(int.to_bytes, tail, repeat(size), repeat("little"))),
            "little",
        )
        for tail in tails
    ]
    one = b"\x01" + bytes(size - 1)
    ones = [int.from_bytes(one * (n - 1 - j), "little") for j in range(n - 1)]
    highs = [x << w - 1 for x in ones]
    for i in range(n - 2):
        ri, later = packed[i], i + 1
        for j, dij, rj, o, h in zip(
            range(later, n - 1), rows[i][later:], packed[later:], ones[later:], highs[later:]
        ):
            ri >>= w
            d = dij * o
            if not (
                (rj + d | h) - ri & h == h
                and (ri + rj | h) - d & h == h
                and (ri + d | h) - rj & h == h
            ):
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

    def kernel_rows(self) -> tuple[Sequence[Sequence[Number]], Number]:
        """(rows, one) for a kernel that compares entries: the kept int rows
        and their scale (distance 1) for an exact space, else (matrix, 1)."""
        if self.scaled is None:
            return self.matrix, 1
        return self.scaled[1], self.scaled[0]

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
