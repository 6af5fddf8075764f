"""Numeric layer: exact rationals side by side with binary64.

Distance values are plain Python numbers. ints and Fractions are "exact";
floats are "approximate" and every comparison between them goes through an
absolute-or-relative tolerance. Exact values never compare fuzzily.

The exact kernels (axiom scan, embedding search, classification, `mb`,
shortest paths on Fraction weights) do not compare Fractions one by one:
integer_rows scales an exact matrix to plain ints over one scale, and each
exact FiniteMetricSpace computes that once and keeps it.  Floats keep the
tolerance rules below.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import InputFormatError

Number = Union[int, Fraction, float]

DEFAULT_TOL = 1e-9


def is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def close(a: Number, b: Number, tol: float = DEFAULT_TOL) -> bool:
    """Equality test; exact for exact pairs, tolerant otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    x, y = float(a), float(b)
    if x == y:
        return True
    return abs(x - y) <= max(tol, tol * max(abs(x), abs(y)))


def leq(a: Number, b: Number, tol: float = DEFAULT_TOL) -> bool:
    """a <= b, up to tolerance in float mode."""
    if is_exact(a) and is_exact(b):
        return a <= b
    return float(a) <= float(b) or close(a, b, tol)


def tolerant(
    tol: float,
) -> tuple[Callable[[float, float], bool], Callable[[float, float], bool]]:
    """close and leq for two floats, with `tol` fixed: the same formulas
    without the exact-type test, for a kernel that knows its rows are all
    float (float(x) is x there).  leq's `x <= y or close(...)` skips the
    `x == y` of close, which cannot hold once `x <= y` has failed."""

    def close_floats(x: float, y: float) -> bool:
        return x == y or abs(x - y) <= max(tol, tol * max(abs(x), abs(y)))

    def leq_floats(x: float, y: float) -> bool:
        return x <= y or abs(x - y) <= max(tol, tol * max(abs(x), abs(y)))

    return close_floats, leq_floats


def positive(a: Number, tol: float = DEFAULT_TOL) -> bool:
    """Strictly positive beyond tolerance."""
    return not leq(a, 0, tol)


def integer_rows(
    matrix: Sequence[Sequence[Number]],
) -> Optional[tuple[int, tuple[tuple[int, ...], ...]]]:
    """An all-exact matrix as (scale, rows): each entry times `scale`, the
    lcm of the denominators, so every row is plain ints.

    Scaling by a positive constant keeps every order, equality and sum, so
    each exact test (==, <=, d(i,k) <= d(i,j) + d(j,k), 2*max = sum) has the
    same answer on the rows as on the matrix.  A matrix holding any entry
    that is not an int or a Fraction (a float) gives None.
    """
    if any(type(v) not in (int, Fraction) for row in matrix for v in row):
        return None
    dens = {v.denominator for row in matrix for v in row}
    scale = lcm(*dens)
    factor = {d: scale // d for d in dens}
    rows = tuple(
        tuple([v.numerator * factor[v.denominator] for v in row]) for row in matrix
    )
    return scale, rows


def parse_number(raw: object) -> Number:
    """Decode one JSON numeric entry: a number, or a "p/q" string.

    Python's json module reads NaN, Infinity and overflowing literals such
    as 1e400 as floats; those are rejected here, since no distance or
    parameter of this package is infinite.
    """
    if isinstance(raw, str):
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational literal {raw!r}") from exc
        return value
    if isinstance(raw, bool):
        raise InputFormatError(f"boolean {raw!r} is not a distance")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        if not isfinite(raw):
            raise InputFormatError(f"non-finite number {raw!r}")
        return raw
    raise InputFormatError(f"cannot read {raw!r} as a number")


def format_number(x: Number) -> object:
    """JSON-ready form: exact values become "p/q" strings, floats stay floats."""
    if is_exact(x):
        return str(Fraction(x))
    return float(x)


def coerce_entries(values: Iterable[Number]) -> tuple[list[Number], bool]:
    """Normalize a batch of numbers to one mode.

    Returns (converted values, exact flag). ints are mode-neutral and adapt;
    a genuine Fraction mixed with a float is rejected.  The mode comes from
    the set of entry types (float and Fraction subclasses included), so
    only a batch holding both a float and a Fraction type is scanned entry
    by entry.
    """
    vals = list(values)
    types = set(map(type, vals))
    if not any(issubclass(t, float) for t in types):
        return vals, True
    if any(issubclass(t, Fraction) for t in types):
        for v in vals:
            if isinstance(v, Fraction) and v.denominator != 1:
                raise InputFormatError(
                    "matrix mixes exact rationals with floats; pick one mode"
                )
    return list(map(float, vals)), False
