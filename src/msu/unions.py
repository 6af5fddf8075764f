"""Disjoint-union constructions: gluings, anchored unions, and their verifier."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence, Union

from .embed import (
    Comparability,
    compare,
    find_embeddings,
    is_ultrametric,
)
from .errors import (
    DuplicatePointError,
    EmptyFamilyError,
    EpsilonTooSmallError,
    IndexRangeError,
    InputFormatError,
    IsometricDuplicateError,
    NonpositiveDistanceError,
    NotPseudolinearError,
    NotUltrametricError,
    RadiusTooSmallError,
    SeparatorError,
)
from .between import is_pseudolinear
from .scalars import (
    DEFAULT_TOL,
    Number,
    close,
    coerce_entries,
    leq,
    positive,
)
from .spaces import FiniteMetricSpace, metric_space, validate_space


@dataclass(frozen=True)
class TaggedPoint:
    """A point addressed as (part index, point index within that part)."""

    part: int
    point: int

    def payload(self) -> dict:
        return {"part": self.part, "point": self.point}


@dataclass(frozen=True)
class UnionSpace:
    """A metric space assembled from parts, remembering the partition.

    parts[i] lists the indices of space that came from input part i; the
    restriction of the union metric to each block equals the input metric.
    provenance records the builder name and its parameters.
    """

    space: FiniteMetricSpace
    parts: tuple[tuple[int, ...], ...]
    provenance: dict = field(compare=False)

    def part_count(self) -> int:
        return len(self.parts)

    def part_space(self, i: int) -> FiniteMetricSpace:
        if not 0 <= i < len(self.parts):
            raise IndexRangeError(f"part index {i} out of range")
        return self.space.restrict(self.parts[i])

    def global_index(self, tp: TaggedPoint) -> int:
        if not 0 <= tp.part < len(self.parts):
            raise IndexRangeError(f"part index {tp.part} out of range")
        block = self.parts[tp.part]
        if not 0 <= tp.point < len(block):
            raise IndexRangeError(
                f"point index {tp.point} out of range for part {tp.part}"
            )
        return block[tp.point]

    def payload(self) -> dict:
        return {
            "labels": list(self.space.labels),
            "matrix": [list(row) for row in self.space.matrix],
            "parts": [list(block) for block in self.parts],
            "provenance": self.provenance,
        }


def _union_labels(parts: Sequence[FiniteMetricSpace]) -> list[str]:
    return [f"{i}:{lab}" for i, part in enumerate(parts) for lab in part.labels]


def _blocks(parts: Sequence[FiniteMetricSpace]) -> list[tuple[int, ...]]:
    blocks = []
    base = 0
    for part in parts:
        blocks.append(tuple(range(base, base + part.n)))
        base += part.n
    return blocks


def _assemble(
    parts: Sequence[FiniteMetricSpace],
    cross,
    provenance: dict,
    tol: float,
) -> UnionSpace:
    """Build the union matrix from part metrics and a cross-distance rule.

    cross(i, x, j, y) gives the distance between point x of part i and
    point y of part j for i < j.  Each block of the matrix is a verbatim
    copy of its part's matrix, so the restriction to a block is that part's
    metric.  The result is not re-validated: each builder's docstring
    proves that its rule gives a metric.
    """
    blocks = _blocks(parts)
    n = sum(part.n for part in parts)
    rows: list[list[Number]] = [[0] * n for _ in range(n)]
    for i, part in enumerate(parts):
        for a in range(part.n):
            for b in range(part.n):
                rows[blocks[i][a]][blocks[i][b]] = part.matrix[a][b]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for a in range(parts[i].n):
                for b in range(parts[j].n):
                    v = cross(i, a, j, b)
                    rows[blocks[i][a]][blocks[j][b]] = v
                    rows[blocks[j][b]][blocks[i][a]] = v
    return UnionSpace(metric_space(rows, _union_labels(parts), tol), tuple(blocks), provenance)


def _common_tol(parts: Sequence[FiniteMetricSpace]) -> float:
    return max([DEFAULT_TOL] + [p.tol for p in parts])


def glue_ultrametric_pair(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    x0: int,
    y0: int,
    r0: Number,
) -> UnionSpace:
    """Join two ultrametric spaces at chosen base points, r0 apart.

    Cross distances follow the max rule d(a,b) = max(d(a,x0), r0, d(y0,b)),
    so d(x0,y0) = r0.  The rule keeps the strong triangle inequality: for
    a, a' in x and b in y, d(a,a') <= max(d(a,x0), d(x0,a')) <= max(d(a,b),
    d(a',b)), and d(a,b) <= max(d(a,a'), d(a',b)) term by term, since
    d(a,x0) <= max(d(a,a'), d(a',x0)) and r0, d(y0,b) <= d(a',b); the
    triples with two points in y are the mirror case.
    """
    tol = _common_tol([x, y])
    if not is_ultrametric(x):
        raise NotUltrametricError("first space is not ultrametric")
    if not is_ultrametric(y):
        raise NotUltrametricError("second space is not ultrametric")
    if not 0 <= x0 < x.n:
        raise IndexRangeError(f"base point {x0} out of range")
    if not 0 <= y0 < y.n:
        raise IndexRangeError(f"base point {y0} out of range")
    if not positive(r0, tol):
        raise NonpositiveDistanceError(f"joint distance {r0} must be positive")

    def cross(i: int, a: int, j: int, b: int) -> Number:
        return max(x.matrix[a][x0], r0, y.matrix[y0][b])

    return _assemble(
        [x, y],
        cross,
        {"builder": "glue_ultrametric_pair", "x0": x0, "y0": y0, "r0": r0},
        tol,
    )


def glue_constant(
    x1: FiniteMetricSpace, x2: FiniteMetricSpace, r0: Number
) -> UnionSpace:
    """Join two spaces with every cross distance equal to r0.

    Requires r0 positive and at least both diameters.  The result is a
    metric: a triple has two points in one part, so its sides are some d
    at most a diameter, hence at most r0 (up to tolerance in float mode),
    and r0 twice; d <= r0 + r0 and r0 <= d + r0.
    """
    tol = _common_tol([x1, x2])
    lo = max(x1.diameter(), x2.diameter())
    if not positive(r0, tol) or not leq(lo, r0, tol):
        raise RadiusTooSmallError(
            f"joint distance {r0} must be positive and at least {lo}"
        )
    return _assemble(
        [x1, x2],
        lambda i, a, j, b: r0,
        {"builder": "glue_constant", "r0": r0},
        tol,
    )


def connectivity_threshold(space: FiniteMetricSpace) -> Number:
    """Smallest e such that the graph with edges {d <= e} is connected.

    The largest distance always qualifies: at e = diameter the graph is
    complete.
    """
    if space.n <= 1:
        return 0
    values = sorted(
        {space.matrix[i][j] for i in range(space.n) for j in range(i + 1, space.n)}
    )
    for v in values[:-1]:
        if is_epsilon_connected(space, v):
            return v
    return values[-1]


def is_epsilon_connected(space: FiniteMetricSpace, eps: Number) -> bool:
    """Connectivity of the graph whose edges are pairs at distance <= eps."""
    n = space.n
    if n <= 1:
        return True
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if not seen[v] and leq(space.matrix[u][v], eps, space.tol):
                seen[v] = True
                stack.append(v)
    return all(seen)


def union_epsilon_connected(
    parts: Sequence[FiniteMetricSpace],
    anchors: Sequence[int],
    eps1: Number,
) -> UnionSpace:
    """Union of parts joined through anchor points at pairwise distance eps1.

    The metric is that of shortest paths in the graph that is complete
    inside each part (original distances) and on the anchors x_i (weight
    eps1), in closed form: for a in part i and b in part j != i,
    d(a, b) = d_i(a, x_i) + eps1 + d_j(x_j, b); inside a part the
    distances are the part's own.  eps1 must strictly exceed every part's
    connectivity threshold.

    Proof.  Only anchor edges join parts, so a path from a to b leaves part
    i through x_i, enters part j through x_j and uses an anchor edge; by
    the parts' triangle inequalities it is no shorter than a, x_i, x_j, b.
    A path that leaves a part and comes back does so through the anchor,
    so it is no shorter than the direct edge.  Shortest paths on a
    connected graph with positive weights form a metric, so the result is
    not re-validated.

    Blocks hold each part's upper triangle, mirrored, and int 0 on the
    diagonal, which also serves as the leg from an anchor to itself: an
    exact entry is an int exactly when its terms are.  A float entry is
    the one sum, left to right, so it may differ in the last bit from a
    float shortest-path search, which can take an in-part detour that
    only rounding made shorter.
    """
    parts = list(parts)
    if not parts:
        raise EmptyFamilyError("need at least one part")
    for k, part in enumerate(parts):
        if part.n == 0:
            raise InputFormatError(f"part {k} is empty")
    if len(anchors) != len(parts):
        raise InputFormatError(
            f"{len(anchors)} anchors for {len(parts)} parts"
        )
    for k, a in enumerate(anchors):
        if not 0 <= a < parts[k].n:
            raise IndexRangeError(f"anchor {a} out of range for part {k}")

    tol = _common_tol(parts)
    threshold: Number = 0
    for part in parts:
        t = connectivity_threshold(part)
        if t > threshold:
            threshold = t
    if leq(eps1, threshold, tol):
        raise EpsilonTooSmallError(
            f"anchor distance {eps1} must exceed the connectivity threshold {threshold}"
        )

    blocks = _blocks(parts)
    n = sum(part.n for part in parts)
    rows: list[list[Number]] = [[0] * n for _ in range(n)]
    for part, block in zip(parts, blocks):
        for a in range(part.n):
            for b in range(a + 1, part.n):
                rows[block[a]][block[b]] = rows[block[b]][block[a]] = part.matrix[a][b]
    hubs = [block[x] for block, x in zip(blocks, anchors)]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for g in blocks[i]:
                for h in blocks[j]:
                    rows[g][h] = rows[h][g] = rows[g][hubs[i]] + eps1 + rows[hubs[j]][h]

    return UnionSpace(
        metric_space(rows, _union_labels(parts), tol),
        tuple(blocks),
        {
            "builder": "union_epsilon_connected",
            "anchors": list(anchors),
            "eps1": eps1,
        },
    )


def union_ultrametric_family(
    distances: Sequence[Number],
    separators: Sequence[Number],
    tol: float = DEFAULT_TOL,
) -> UnionSpace:
    """Union of two-point parts, one per requested distance.

    separators is an ascending list starting at 0; the cross distance
    between two parts is the first separator above the larger of their
    two in-part distances.  Each requested distance must fall strictly
    inside a separator gap, beyond tolerance, and consecutive distances
    must differ beyond tolerance.

    Then the output is an ultrametric in which each requested distance is
    realized by exactly one unordered pair.  Write g(t) for the separator
    above t; g is non-decreasing.  A triple with two points in part i and
    one in part j has the side t_i and twice g(max(t_i, t_j)) > t_i.  For
    one point from each of parts i, j, k, max(t_i, t_j) <= max(max(t_i,
    t_k), max(t_k, t_j)), and g keeps that order.  Every cross distance is
    a separator, which no t is close to, and distances that are apart
    consecutively are apart pairwise, so only the pair of part i sits at
    t_i.
    """
    values, _ = coerce_entries(list(distances) + list(separators))
    ts = values[: len(distances)]
    seps = values[len(distances) :]
    if not ts:
        raise EmptyFamilyError("need at least one distance")
    if not seps or seps[0] != 0:
        raise SeparatorError("separator list must start at 0")
    for i in range(1, len(seps)):
        if not seps[i - 1] < seps[i]:
            raise SeparatorError("separators must be strictly ascending")
    for i in range(1, len(ts)):
        if not ts[i - 1] < ts[i]:
            raise InputFormatError("distances must be strictly ascending")
        if close(ts[i - 1], ts[i], tol):
            raise InputFormatError(
                f"distances {ts[i - 1]} and {ts[i]} are equal within tolerance"
            )
    if not positive(ts[0], tol):
        raise InputFormatError(f"distance {ts[0]} is not positive")

    def gap_top(t: Number) -> Number:
        k = bisect_left(seps, t)
        if k >= len(seps):
            raise SeparatorError(f"distance {t} is above every separator")
        if close(seps[k], t, tol) or close(seps[k - 1], t, tol):
            raise SeparatorError(f"distance {t} equals a separator")
        return seps[k]

    for t in ts:
        gap_top(t)

    parts = [validate_space([[0, t], [t, 0]], tol=tol) for t in ts]

    def cross(i: int, a: int, j: int, b: int) -> Number:
        return gap_top(max(ts[i], ts[j]))

    return _assemble(
        parts,
        cross,
        {
            "builder": "union_ultrametric_family",
            "distances": list(ts),
            "separators": list(seps),
        },
        tol,
    )


def union_pl_quadruples(quads: Sequence[FiniteMetricSpace]) -> UnionSpace:
    """Union of pseudo-linear quadruples at cross distance max of diameters.

    Parts must be pairwise non-isometric; within a part the original
    metric survives verbatim.  The result is a metric.  Write D_i for the
    diameter of part i, positive as a quadruple has distinct points.  Two
    points of part i are at most D_i <= max(D_i, D_j) apart, so a triangle
    with two points in part i and one in part j holds; for one point from
    each of parts i, j, k, max(D_i, D_j) <= max(D_i, D_k) + max(D_k, D_j).
    """
    quads = list(quads)
    if not quads:
        raise EmptyFamilyError("need at least one quadruple")
    for k, q in enumerate(quads):
        if not is_pseudolinear(q):
            raise NotPseudolinearError(f"part {k} is not pseudo-linear")
    for i in range(len(quads)):
        for j in range(i + 1, len(quads)):
            if find_embeddings(quads[i], quads[j], limit=1):
                raise IsometricDuplicateError(f"parts {i} and {j} are isometric")

    diams = [q.diameter() for q in quads]

    def cross(i: int, a: int, j: int, b: int) -> Number:
        return max(diams[i], diams[j])

    return _assemble(
        quads,
        cross,
        {"builder": "union_pl_quadruples"},
        _common_tol(quads),
    )


@dataclass(frozen=True)
class RealPoint:
    """A point of the line component, at coordinate t."""

    t: Number

    def payload(self) -> dict:
        return {"real": self.t}


@dataclass(frozen=True)
class QuadPoint:
    """A point of the quadruple-union component."""

    at: TaggedPoint

    def payload(self) -> dict:
        return {"quad": self.at.payload()}


MPoint = Union[RealPoint, QuadPoint]


@dataclass(frozen=True)
class BridgeParams:
    """How the line is tied to the quadruple union.

    p is the attachment coordinate on the line, b the attachment point in
    the union, and r > 0 the length of the tie.
    """

    p: Number
    b: TaggedPoint
    r: Number

    def __post_init__(self) -> None:
        if not positive(self.r, DEFAULT_TOL):
            raise NonpositiveDistanceError(f"bridge length {self.r} must be positive")


def m_distance(
    a: MPoint, b: MPoint, quads_union: UnionSpace, bridge: BridgeParams
) -> Number:
    """Distance in the line-plus-quadruples space.

    |x - y| on the line, the union metric inside the union, and
    |x - p| + r + d(b_anchor, y) across the two components.
    """
    if isinstance(a, RealPoint) and isinstance(b, RealPoint):
        gap = a.t - b.t
        return -gap if gap < 0 else gap
    if isinstance(a, QuadPoint) and isinstance(b, QuadPoint):
        return quads_union.space.dist(
            quads_union.global_index(a.at), quads_union.global_index(b.at)
        )
    real, quad = (a, b) if isinstance(a, RealPoint) else (b, a)
    gap = real.t - bridge.p
    if gap < 0:
        gap = -gap
    anchor = quads_union.global_index(bridge.b)
    return gap + bridge.r + quads_union.space.dist(
        anchor, quads_union.global_index(quad.at)
    )


def _m_label(pt: MPoint) -> str:
    if isinstance(pt, RealPoint):
        return f"r:{pt.t}"
    return f"q:{pt.at.part}.{pt.at.point}"


def sample_m_space(
    points: Sequence[MPoint],
    quads_union: UnionSpace,
    bridge: BridgeParams,
) -> FiniteMetricSpace:
    """Finite restriction of the line-plus-quadruples space to given points.

    The space glues two metric spaces along a tie of positive length, so
    its distances obey the axioms by construction.  The validation can
    only fail in float mode, on two points of the line closer than the
    tolerance; that raises InvalidMetricError, an input error.
    """
    points = list(points)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[i] == points[j]:
                raise DuplicatePointError(f"point {_m_label(points[i])} repeated")
    n = len(points)
    rows: list[list[Number]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = m_distance(points[i], points[j], quads_union, bridge)
            rows[i][j] = v
            rows[j][i] = v
    return validate_space(rows, [_m_label(p) for p in points])


@dataclass(frozen=True)
class UnionReport:
    """Verifier outcome; failures are structured (kind, indices) entries."""

    passed: bool
    comparable_pairs: tuple[tuple[int, int], ...]
    copy_counts: tuple[int, ...]

    def payload(self) -> dict:
        return {
            "passed": self.passed,
            "shifted_parts": [],
            "comparable_pairs": [list(p) for p in self.comparable_pairs],
            "copy_counts": list(self.copy_counts),
        }


def verify_minimal_union(union: UnionSpace) -> UnionReport:
    """Check the three marks of a minimal universal union.

    (i) every part is not shifted, (ii) parts are pairwise incomparable,
    and (iii) each part has exactly one isometric copy inside the union
    (counting distinct image sets over all embeddings).

    Mark (i) holds for every finite part and is not computed: a
    self-embedding is injective, and an injective self-map of a finite set
    is onto (see embed.is_not_shifted).  shifted_parts is always empty.
    """
    k = union.part_count()
    part_spaces = [union.part_space(i) for i in range(k)]

    comparable = tuple(
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if compare(part_spaces[i], part_spaces[j]) is not Comparability.INCOMPARABLE
    )
    counts = []
    for i in range(k):
        maps = find_embeddings(part_spaces[i], union.space)
        counts.append(len({frozenset(pm.image) for pm in maps}))
    passed = not comparable and all(c == 1 for c in counts)
    return UnionReport(passed, comparable, tuple(counts))
