"""Isometric-embedding search, comparability, and structural classification."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InputFormatError
from .scalars import Number, close, tolerant
from .spaces import FiniteMetricSpace


@dataclass(frozen=True)
class PointMap:
    """An injective map of point indices; image[i] is where point i lands."""

    image: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.image[i]

    def is_bijection_onto(self, codomain_size: int) -> bool:
        return len(set(self.image)) == len(self.image) == codomain_size

    def payload(self) -> list[int]:
        return list(self.image)


class Comparability(Enum):
    LEFT_EMBEDS = "left-embeds"
    RIGHT_EMBEDS = "right-embeds"
    BOTH_EMBED = "both-embed"
    INCOMPARABLE = "incomparable"


def _search(
    domain: FiniteMetricSpace,
    codomain: FiniteMetricSpace,
    tol: float,
    limit: Optional[int],
    pin: Optional[int] = None,
) -> list[PointMap]:
    """Backtracking over bitmasks of candidate codomain points.

    Bit q of the table entry for (image point p, domain distance x) says
    that codomain point q lies at distance x from p.  When both spaces are
    exact, the test is int `==` on their kept int rows: x is taken to the
    codomain's scale once per call, and an x that is no integer there gets
    the empty mask with no compare.  Otherwise it is `close(x, cd[q][p],
    tol)`, the entry and argument order a point-by-point test of
    "d(i, k) = d'(q, image[k])" reads, for two float spaces as the
    formula of scalars.tolerant picked once per call.  Each entry is
    filled on first use and kept for the rest of the call; the distinct
    values of x are numbered once, so a key is one int.  Point i may go
    to the unused points in the AND of the entries for (image[k], d(i, k))
    over k < i; taking them lowest bit first lists the maps in increasing
    image-tuple order, so `limit` keeps a prefix of the full list.  `pin`
    fixes image[0].
    """
    n, m = domain.n, codomain.n
    ds, cs = domain.scaled, codomain.scaled
    exact = ds is not None and cs is not None
    dd = ds[1] if exact else domain.matrix
    cols = list(zip(*(cs[1] if exact else codomain.matrix)))
    ids: dict = {}
    below = [[ids.setdefault(x, len(ids)) for x in row[:i]] for i, row in enumerate(dd)]
    values = list(ids)
    if exact:
        # x / ds[0] at the codomain's scale cs[0], or None off its grid
        values = [y if not r else None for y, r in (divmod(x * cs[0], ds[0]) for x in values)]
    elif ds is None and cs is None:
        same = tolerant(tol)[0]
    else:  # one exact space and one float: close's mixed-type rule

        def same(x: Number, y: Number) -> bool:
            return close(x, y, tol)

    masks: dict = {}

    def mask(p: int, v: int) -> int:
        key = v * m + p
        bits = masks.get(key)
        if bits is None:
            x, col = values[v], cols[p]
            if not exact:
                bits = sum(1 << q for q, y in enumerate(col) if same(x, y))
            elif x is None:
                bits = 0
            else:
                bits = sum(1 << q for q, y in enumerate(col) if y == x)
            masks[key] = bits
        return bits

    out: list[PointMap] = []
    image = [0] * n
    full = (1 << m) - 1

    def extend(i: int, used: int) -> bool:
        if i == n:
            out.append(PointMap(tuple(image)))
            return limit is not None and len(out) >= limit
        cand = full ^ used
        for k, v in enumerate(below[i]):
            cand &= mask(image[k], v)
            if not cand:
                return False
        while cand:
            low = cand & -cand
            image[i] = low.bit_length() - 1
            if extend(i + 1, used | low):
                return True
            cand ^= low
        return False

    if pin is None:
        extend(0, 0)
    else:
        image[0] = pin
        extend(1, 1 << pin)
    return out


def find_embeddings(
    domain: FiniteMetricSpace,
    codomain: FiniteMetricSpace,
    limit: Optional[int] = None,
) -> list[PointMap]:
    """All (or up to `limit`) distance-preserving injections domain -> codomain.

    Output is sorted by image tuple, lexicographically; the empty space embeds
    via the empty map.  A `limit` below 1 raises InputFormatError.
    """
    if limit is not None and limit < 1:
        raise InputFormatError(f"limit must be at least 1, got {limit!r}")
    n, m = domain.n, codomain.n
    if n == 0:
        return [PointMap(())]
    if n > m:
        return []
    return _search(domain, codomain, max(domain.tol, codomain.tol), limit)


def embeds(domain: FiniteMetricSpace, codomain: FiniteMetricSpace) -> bool:
    return bool(find_embeddings(domain, codomain, limit=1))


def compare(left: FiniteMetricSpace, right: FiniteMetricSpace) -> Comparability:
    """Which embedding directions exist between two spaces."""
    lr = embeds(left, right)
    rl = embeds(right, left)
    if lr and rl:
        return Comparability.BOTH_EMBED
    if lr:
        return Comparability.LEFT_EMBEDS
    if rl:
        return Comparability.RIGHT_EMBEDS
    return Comparability.INCOMPARABLE


@dataclass(frozen=True)
class SelfMapReport:
    """The self-embeddings of a space; `not_shifted` says each is onto."""

    not_shifted: bool
    isometries: tuple[PointMap, ...]


def self_embeddings(space: FiniteMetricSpace) -> list[PointMap]:
    return find_embeddings(space, space)


def is_not_shifted(space: FiniteMetricSpace) -> SelfMapReport:
    """List the self-embeddings; a finite space is never shifted.

    Proof: the search gives distinct points distinct images, and an
    injective map of a finite set into itself is onto.  So every listed
    map is an isometry and `not_shifted` is always True.
    """
    return SelfMapReport(True, tuple(self_embeddings(space)))


@dataclass(frozen=True)
class SpaceTraits:
    ultrametric: bool
    discrete: bool
    strongly_rigid: bool
    homogeneous: bool

    def payload(self) -> dict:
        return {
            "ultrametric": self.ultrametric,
            "discrete": self.discrete,
            "strongly_rigid": self.strongly_rigid,
            "homogeneous": self.homogeneous,
        }


def is_ultrametric(space: FiniteMetricSpace) -> bool:
    """Strong triangle inequality on every triple (on the int rows of an
    exact space), with the compare kernel_rows picks once per call."""
    n, (d, _, _, below) = space.n, space.kernel_rows()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k == i or k == j:
                    continue
                big = d[i][k] if d[i][k] > d[k][j] else d[k][j]
                if not below(d[i][j], big):
                    return False
    return True


def classify_space(space: FiniteMetricSpace) -> SpaceTraits:
    """Structural flags: ultrametric, discrete, strongly rigid, homogeneous.

    An exact space is tested on its int rows, where distance 1 is the
    scale.

    Strongly rigid (no two pairs at the same distance) tests neighbours of
    the sorted distances only.  That is enough: for non-negative a <= b <= c,
    close(a, c) implies close(b, c).  Exactly, a == c forces b == c; with a
    float, c - b <= c - a also after rounding, and both pairs are held to the
    same bound max(tol, tol * c).  So if some pair is close, the larger value
    of that pair is close to its left neighbour.

    Homogeneous (some self-map sends point 0 to each point j) runs one
    search per j with image[0] pinned to j, stopping at its first map.
    """
    n, (d, one, same, _) = space.n, space.kernel_rows()

    off = sorted(d[i][j] for i in range(n) for j in range(i + 1, n))
    discrete = all(same(v, one) for v in off)
    strongly_rigid = not any(same(a, b) for a, b in zip(off, off[1:]))

    homogeneous = all(_search(space, space, space.tol, 1, pin=j) for j in range(n))
    return SpaceTraits(is_ultrametric(space), discrete, strongly_rigid, homogeneous)
