"""Point pairs realizing distances in (-1,0) union N, and interval placement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    InputFormatError,
    LengthRangeError,
    NonpositiveDistanceError,
)
from .scalars import Number, format_number, is_exact


@dataclass(frozen=True)
class F2Neg:
    """The real number -t for t in (0,1)."""

    t: Number

    def __post_init__(self) -> None:
        if not 0 < self.t < 1:
            raise InputFormatError(f"negative-side offset {self.t} outside (0,1)")

    def coordinate(self) -> Number:
        return -self.t

    def payload(self) -> dict:
        return {"neg": format_number(self.t)}


@dataclass(frozen=True)
class F2Nat:
    """The natural number n >= 1."""

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise InputFormatError(f"natural point {self.n!r} must be an integer >= 1")

    def coordinate(self) -> Number:
        return self.n

    def payload(self) -> dict:
        return {"nat": self.n}


F2Point = Union[F2Neg, F2Nat]


def f2_point_distance(a: F2Point, b: F2Point) -> Number:
    gap = a.coordinate() - b.coordinate()
    return -gap if gap < 0 else gap


def _split(t: Number) -> tuple[int, Number]:
    n = math.floor(t)
    return n, t - n


def f2_embed_distance(t: Number) -> tuple[F2Point, F2Point]:
    """A point pair of the space at distance exactly t.

    For t = n + frac with n >= 1 and frac > 0 the pair (-frac, n) is the
    only realization.  Integers use the fixed convention (1, 1 + t); for
    t < 1 a pair centered at -1/2 on the negative side is returned.
    Rational input gives a rational (exact) pair.
    """
    if isinstance(t, bool) or not t > 0:
        raise NonpositiveDistanceError(f"distance {t} must be positive")
    n, frac = _split(t)
    if frac == 0:
        return (F2Nat(1), F2Nat(1 + n))
    if n == 0:
        half = Fraction(1, 2) if is_exact(t) else 0.5
        return (F2Neg(half + frac / 2), F2Neg(half - frac / 2))
    return (F2Neg(frac), F2Nat(n))


def f2_removal_witness(q: F2Point) -> Number:
    """A distance no longer realizable once q is removed from the space.

    The returned value t > 1 has nonzero fractional part, so its only
    realizing pair is the one produced by f2_embed_distance, and that
    pair uses q.
    """
    if isinstance(q, F2Nat):
        return q.n + Fraction(1, 2)
    return 1 + q.t


def interval_embed(
    t: Number, puncture: Optional[Number] = None
) -> Optional[tuple[Number, Number]]:
    """A closed sub-interval of (0,1) of length t avoiding the puncture.

    Without a puncture the placement is centered.  With puncture p the
    interval is centered in the right gap (p,1) when it fits there
    strictly, else in the left gap, else none exists.
    """
    if isinstance(t, bool) or not 0 < t < 1:
        raise LengthRangeError(f"length {t} outside (0,1)")
    if puncture is None:
        lo = (1 - t) / 2
        return (lo, lo + t)
    p = puncture
    if isinstance(p, bool) or not 0 < p < 1:
        raise InputFormatError(f"puncture {p} outside (0,1)")
    if t < 1 - p:
        lo = p + (1 - p - t) / 2
        return (lo, lo + t)
    if t < p:
        lo = (p - t) / 2
        return (lo, lo + t)
    return None
