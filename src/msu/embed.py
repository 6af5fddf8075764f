"""Isometric-embedding search, comparability, and structural classification."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .scalars import close, leq
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
) -> list[PointMap]:
    n, m = domain.n, codomain.n
    dd, cd = domain.matrix, codomain.matrix
    out: list[PointMap] = []
    image = [0] * n
    used = [False] * m

    def extend(i: int) -> bool:
        if i == n:
            out.append(PointMap(tuple(image)))
            return limit is not None and len(out) >= limit
        row = dd[i]
        for j in range(m):
            if used[j]:
                continue
            crow = cd[j]
            ok = True
            for k in range(i):
                if not close(row[k], crow[image[k]], tol):
                    ok = False
                    break
            if ok:
                used[j] = True
                image[i] = j
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    extend(0)
    return out


def find_embeddings(
    domain: FiniteMetricSpace,
    codomain: FiniteMetricSpace,
    limit: Optional[int] = None,
) -> list[PointMap]:
    """All (or up to `limit`) distance-preserving injections domain -> codomain.

    Output is sorted by image tuple, lexicographically; the empty space embeds
    via the empty map.
    """
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
    """Strong triangle inequality on every triple."""
    n, d, tol = space.n, space.matrix, space.tol
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k == i or k == j:
                    continue
                big = d[i][k] if d[i][k] > d[k][j] else d[k][j]
                if not leq(d[i][j], big, tol):
                    return False
    return True


def classify_space(space: FiniteMetricSpace) -> SpaceTraits:
    """Structural flags: ultrametric, discrete, strongly rigid, homogeneous."""
    n, d, tol = space.n, space.matrix, space.tol

    off = [d[i][j] for i in range(n) for j in range(i + 1, n)]
    discrete = all(close(v, 1, tol) for v in off)
    strongly_rigid = all(
        not close(off[a], off[b], tol)
        for a in range(len(off))
        for b in range(a + 1, len(off))
    )

    if n == 0:
        homogeneous = True
    else:
        homogeneous = len({pm.image[0] for pm in self_embeddings(space)}) == n
    return SpaceTraits(is_ultrametric(space), discrete, strongly_rigid, homogeneous)
