"""Planar ray unions: tripod and two-ray embeddings, witnesses, and the solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Union

from .between import line_realization
from .errors import (
    AlphaRangeError,
    DegenerateTriangleError,
    IndexRangeError,
    InputFormatError,
    InternalCheckError,
    InvalidTripleError,
    OriginNotAllowedError,
    WrongCardinalityError,
)
from .scalars import DEFAULT_TOL, leq
from .spaces import FiniteMetricSpace, validate_space

EPS_GEO = 1e-9
SOLVER_TOL = 1e-6

_TWO_THIRDS_PI = 2 * math.pi / 3


@dataclass(frozen=True)
class Triangle:
    """Side lengths a = d(v1,v2), b = d(v0,v2), c = d(v0,v1).

    Degenerate (collinear) triangles are accepted and flagged; outright
    triangle-inequality violations are rejected.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        sides = (float(self.a), float(self.b), float(self.c))
        object.__setattr__(self, "a", sides[0])
        object.__setattr__(self, "b", sides[1])
        object.__setattr__(self, "c", sides[2])
        for s in sides:
            if not s > 0:
                raise InvalidTripleError(f"side {s!r} is not positive")
        a, b, c = sides
        if not (leq(a, b + c) and leq(b, a + c) and leq(c, a + b)):
            raise InvalidTripleError(
                f"sides {a}, {b}, {c} violate the triangle inequality"
            )

    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def is_degenerate(self) -> bool:
        return _is_flat(self.sides())

    def payload(self) -> dict:
        return {"sides": [self.a, self.b, self.c]}


@dataclass(frozen=True)
class RaySpace:
    """A union of rays from one origin, given by their direction angles."""

    angles: tuple[float, ...]
    include_origin: bool

    def __post_init__(self) -> None:
        for i in range(len(self.angles)):
            for j in range(i + 1, len(self.angles)):
                gap = (self.angles[i] - self.angles[j]) % (2 * math.pi)
                if min(gap, 2 * math.pi - gap) < 1e-12:
                    raise InputFormatError("ray directions must be distinct")

    @staticmethod
    def tripod() -> "RaySpace":
        return RaySpace((0.0, _TWO_THIRDS_PI, 2 * _TWO_THIRDS_PI), True)

    @staticmethod
    def two_rays(alpha: float) -> "RaySpace":
        if not 0 < alpha < math.pi:
            raise AlphaRangeError(f"ray angle {alpha!r} outside (0, pi)")
        return RaySpace((0.0, float(alpha)), False)

    def planar(self, pt: "RayPoint") -> tuple[float, float]:
        theta = self.angles[pt.ray]
        return (pt.t * math.cos(theta), pt.t * math.sin(theta))

    def point_distance(self, p: "RayPoint", q: "RayPoint") -> float:
        if p.ray == q.ray:
            return abs(p.t - q.t)
        px, py = self.planar(p)
        qx, qy = self.planar(q)
        return math.hypot(px - qx, py - qy)


@dataclass(frozen=True)
class RayPoint:
    """A point on ray `ray` at distance t from the origin."""

    ray: int
    t: float

    def payload(self, rays: Optional[RaySpace] = None) -> dict:
        out: dict = {"ray": self.ray, "t": self.t}
        if rays is not None:
            out["xy"] = list(rays.planar(self))
        return out


TriangleLike = Union[Triangle, FiniteMetricSpace]


def _pair_distances(tri: TriangleLike) -> tuple[float, float, float]:
    """Distances (d01, d02, d12) of the three vertices, as floats."""
    if isinstance(tri, Triangle):
        return (tri.c, tri.b, tri.a)
    if tri.n != 3:
        raise WrongCardinalityError(f"need exactly 3 points, got {tri.n}")
    return (
        float(tri.dist(0, 1)),
        float(tri.dist(0, 2)),
        float(tri.dist(1, 2)),
    )


def _dist_of(pair: tuple[float, float, float], i: int, j: int) -> float:
    d01, d02, d12 = pair
    if {i, j} == {0, 1}:
        return d01
    if {i, j} == {0, 2}:
        return d02
    return d12


def _vertex_cos(pair: tuple[float, float, float], v: int) -> float:
    """Cosine of the triangle angle at vertex v."""
    u, w = [x for x in range(3) if x != v]
    p = _dist_of(pair, v, u)
    q = _dist_of(pair, v, w)
    r = _dist_of(pair, u, w)
    return (p * p + q * q - r * r) / (2 * p * q)


def _is_flat(pair: tuple[float, float, float]) -> bool:
    s = sorted(pair)
    return math.isclose(s[2], s[0] + s[1], rel_tol=EPS_GEO, abs_tol=EPS_GEO)


@dataclass(frozen=True)
class FTResult:
    """Fermat point of a triangle: where the total distance to vertices dips.

    location is "interior" (with the three distances to the vertices) or
    "vertex" (the minimizer sits at the vertex whose angle reaches 120
    degrees).  total_cost is the minimal distance sum.
    """

    location: str
    distances: Optional[tuple[float, float, float]]
    vertex: Optional[int]
    total_cost: float

    def payload(self) -> dict:
        return {
            "location": self.location,
            "distances": list(self.distances) if self.distances else None,
            "vertex": self.vertex,
            "total_cost": self.total_cost,
        }


def fermat_torricelli(tri: TriangleLike) -> FTResult:
    """Minimize the sum of distances to the three vertices.

    Interior case distances satisfy r_i^2 + r_j^2 + r_i r_j = d(i,j)^2,
    the law of cosines at 120 degrees.
    """
    pair = _pair_distances(tri)
    if _is_flat(pair):
        raise DegenerateTriangleError(
            f"vertices with distances {pair} are collinear"
        )
    cosines = [_vertex_cos(pair, v) for v in range(3)]
    wide = [v for v in range(3) if cosines[v] <= -0.5 + 1e-12]
    if wide:
        v = wide[0]
        u, w = [x for x in range(3) if x != v]
        total = _dist_of(pair, v, u) + _dist_of(pair, v, w)
        return FTResult("vertex", None, v, total)

    d01, d02, d12 = pair
    sq = d01 * d01 + d02 * d02 + d12 * d12
    area = _triangle_area(pair)
    t_sq = sq / 2 + 2 * math.sqrt(3.0) * area
    total = math.sqrt(t_sq)
    # Distance from the interior point to vertex v, opposite side length opp.
    opp = {0: d12, 1: d02, 2: d01}
    r = tuple((t_sq + sq - 3 * opp[v] * opp[v]) / (3 * total) for v in range(3))
    for i in range(3):
        for j in range(i + 1, 3):
            want = _dist_of(pair, i, j)
            got = math.sqrt(r[i] * r[i] + r[j] * r[j] + r[i] * r[j])
            if abs(got - want) > 1e-6 * max(1.0, want):
                raise InternalCheckError("interior point distances failed the 120-degree law")
    return FTResult("interior", r, None, total)


def _triangle_area(pair: tuple[float, float, float]) -> float:
    a, b, c = sorted(pair, reverse=True)
    # Numerically stable Heron form; operands ordered a >= b >= c.
    s = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return math.sqrt(max(s, 0.0)) / 4


def _flat_placement(pair: tuple[float, float, float], start: float) -> list[RayPoint]:
    """A flat triple in its line order on ray 0, the near end at start."""
    d01, d02, d12 = pair
    line = line_realization(validate_space(
        [[0.0, d01, d02], [d01, 0.0, d12], [d02, d12, 0.0]], tol=max(DEFAULT_TOL, EPS_GEO)
    ))
    if line is None:
        raise InternalCheckError("flat triple failed to line up")
    lo = min(line.coords)
    return [RayPoint(0, float(t - lo) + start) for t in line.coords]


def _distances_ok(
    rays: RaySpace,
    pts: Sequence[RayPoint],
    pair: tuple[float, float, float],
    eps_geo: float,
) -> bool:
    """Whether the points lie the distances (d01, d02, d12) apart in the
    plane, within eps_geo relative (absolute below 1)."""
    return not any(
        abs(rays.point_distance(pts[i], pts[j]) - want) > eps_geo * max(1.0, want)
        for i, j, want in ((0, 1, pair[0]), (0, 2, pair[1]), (1, 2, pair[2]))
    )


def embed_triple_tripod(
    tri: TriangleLike, eps_geo: float = EPS_GEO
) -> list[RayPoint]:
    """Place three points on the tripod, preserving their distances.

    Flat triples go onto a single ray.  A 120-degree-or-wider corner goes
    onto two rays with the wide corner nearest the origin.  Otherwise each
    vertex takes its own ray at its distance from the interior minimizer
    of fermat_torricelli.
    """
    rays = RaySpace.tripod()
    pair = _pair_distances(tri)
    if _is_flat(pair):
        pts = _flat_placement(pair, 0.0)
    else:
        cosines = [_vertex_cos(pair, v) for v in range(3)]
        wide = [v for v in range(3) if cosines[v] <= -0.5 + 1e-12]
        if wide:
            v = wide[0]
            g, e = (v + 1) % 3, (v + 2) % 3
            beta = math.acos(max(-1.0, min(1.0, cosines[v])))
            e_len = _dist_of(pair, v, e)
            g_len = _dist_of(pair, v, g)
            t_f = max(0.0, -e_len * (math.cos(beta) + math.sin(beta) / math.sqrt(3.0)))
            s = 2 * e_len * math.sin(beta) / math.sqrt(3.0)
            at = {v: RayPoint(0, t_f), g: RayPoint(0, t_f + g_len), e: RayPoint(1, s)}
            pts = [at[k] for k in range(3)]
        else:
            ft = fermat_torricelli(tri)
            assert ft.distances is not None
            pts = [RayPoint(v, ft.distances[v]) for v in range(3)]
    if not _distances_ok(rays, pts, pair, eps_geo):
        raise InternalCheckError(f"placement drifted from the distances {pair}")
    return pts


def embed_triple_two_rays(
    tri: TriangleLike, alpha: float, eps_geo: float = EPS_GEO
) -> Optional[list[RayPoint]]:
    """Place three points on two rays at angle alpha, origin excluded.

    Flat triples take one ray, shifted off the origin.  Otherwise an
    embedding exists exactly when some corner is strictly wider than
    alpha; that corner goes nearest the origin on one ray and the
    opposite vertex onto the other ray.
    """
    rays = RaySpace.two_rays(alpha)
    pair = _pair_distances(tri)
    if _is_flat(pair):
        pts = _flat_placement(pair, 0.5)
    else:
        order = sorted(range(3), key=lambda v: _vertex_cos(pair, v))
        v = order[0]
        gamma = math.acos(max(-1.0, min(1.0, _vertex_cos(pair, v))))
        u, w = [x for x in range(3) if x != v]
        p_len = _dist_of(pair, v, w)
        q1 = p_len * math.sin(gamma - alpha) / math.sin(alpha)
        if q1 <= 1e-12 * p_len:
            return None
        t_p = p_len * math.sin(gamma) / math.sin(alpha)
        at = {v: RayPoint(0, q1), u: RayPoint(0, q1 + _dist_of(pair, v, u)), w: RayPoint(1, t_p)}
        pts = [at[k] for k in range(3)]
    if not _distances_ok(rays, pts, pair, eps_geo):
        raise InternalCheckError(f"placement drifted from the distances {pair}")
    return pts


def witness_triangle_tripod(e: RayPoint) -> Triangle:
    """Equilateral triangle through e whose copies all pass through e."""
    if not e.t > 0:
        raise OriginNotAllowedError("witness point must be off the origin")
    side = e.t * math.sqrt(3.0)
    return Triangle(side, side, side)


def witness_triangle_two_rays(z: RayPoint, alpha: float) -> Triangle:
    """Isoceles triangle pinned to z on the two-ray space at angle alpha.

    z1 mirrors z onto the other ray, z2 sits past z1 at the mirror
    distance, so the equal sides meet at z1 and the base angle comes out
    to pi/4 - alpha/4.  The triangle exists for any angle below pi/3;
    it pins the puncture only when the base angle does not exceed alpha,
    i.e. from pi/5 upward.
    """
    if not (0 < alpha < math.pi / 3):
        raise AlphaRangeError(f"angle {alpha!r} outside (0, pi/3)")
    if not z.t > 0:
        raise OriginNotAllowedError("witness point must be off the origin")
    chord = 2 * z.t * math.sin(alpha / 2)
    # Vertices: v0 = z on its ray, v1 = z1, v2 = z2 on the other ray.
    zx, zy = z.t * math.cos(alpha), z.t * math.sin(alpha)
    base = math.hypot(zx - (z.t + chord), zy)
    return Triangle(chord, base, chord)


def solve_constrained_embedding(
    tri: TriangleLike,
    rays: RaySpace,
    forbidden: Sequence[RayPoint] = (),
    tol: float = SOLVER_TOL,
    eps_geo: float = EPS_GEO,
) -> list[list[RayPoint]]:
    """All placements of a triangle on a ray union, minus exclusions.

    Every vertex-to-ray assignment is solved in closed form: two vertices
    on one ray leave one square root, three distinct rays one
    inscribed-angle construction, and a flat triple on one ray a sliding
    continuum.  A continuum is listed by representatives: per ray and end
    order of a flat triple, the near end at 0 (origin included) or 0.5
    (2 * tol if larger), moved outward to the nearest offset that clears every forbidden point
    by 2 * tol; on a circumcircle, the midpoint of each arc.  Flat triples
    straddling two opposite rays are not listed; they always have one-ray
    placements as well.  Roots are kept when the planar distances check
    out, every coordinate is admissible for the origin rule, and no image
    point comes within tol of a forbidden point.  An empty result means
    no placement exists.  A forbidden point on a ray the space does not
    have raises IndexRangeError.
    """
    for f in forbidden:
        if not 0 <= f.ray < len(rays.angles):
            raise IndexRangeError(f"forbidden point {f.ray}:{f.t!r} is on no ray of the space")
    pair = _pair_distances(tri)
    flat = _is_flat(pair)
    fpts = [rays.planar(f) for f in forbidden]

    results: list[list[RayPoint]] = []
    for assign in product(range(len(rays.angles)), repeat=3):
        theta = [rays.angles[a] for a in assign]
        if len(set(assign)) == 3:
            roots = _three_ray_roots(pair, theta, rays.include_origin)
        elif len(set(assign)) == 2:
            roots = _two_ray_roots(pair, assign, theta, flat)
        elif flat:
            roots = _one_ray_roots(pair, theta[0], fpts, rays.include_origin, tol)
        else:
            roots = []
        kept: list[tuple[float, ...]] = []
        for root in roots:
            if min(root) < -tol:
                continue
            ts = tuple(max(t, 0.0) for t in root)
            if not rays.include_origin and min(ts) <= tol:
                continue
            pts = [RayPoint(assign[v], ts[v]) for v in range(3)]
            if not _distances_ok(rays, pts, pair, eps_geo):
                continue
            if any(math.dist(rays.planar(p), f) < tol for p in pts for f in fpts):
                continue
            if any(max(abs(ts[i] - old[i]) for i in range(3)) <= tol for old in kept):
                continue
            kept.append(ts)
        for key in sorted(kept):
            results.append([RayPoint(assign[v], key[v]) for v in range(3)])
    return results


def _two_ray_roots(
    pair: tuple[float, float, float],
    assign: tuple[int, ...],
    theta: list[float],
    flat: bool,
) -> list[tuple[float, ...]]:
    """Vertices i, j share a ray, k takes another: at most two roots.

    With t_j = t_i + sigma * d_ij, the law-of-cosines equations for d_ik
    and d_jk differ by t_i - c * t_k = a, and then d_ik^2 = a^2 + s^2 t_k^2.
    A flat triple lies along the shared ray, which meets another ray only
    at the origin.
    """
    i, j = next((i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if assign[i] == assign[j])
    k = 3 - i - j
    d_ij, d_ik, d_jk = _dist_of(pair, i, j), _dist_of(pair, i, k), _dist_of(pair, j, k)
    c = math.cos(theta[i] - theta[k])
    s = abs(math.sin(theta[i] - theta[k]))
    roots = []
    for sigma in (1.0, -1.0):
        a = sigma * ((d_jk * d_jk - d_ik * d_ik) / d_ij - d_ij) / 2
        t_k = 0.0 if flat else math.sqrt(max((d_ik - a) * (d_ik + a), 0.0)) / s
        ts = [t_k, t_k, t_k]
        ts[i] = a + c * t_k
        ts[j] = ts[i] + sigma * d_ij
        roots.append(tuple(ts))
    return roots


def _three_ray_roots(
    pair: tuple[float, float, float], theta: list[float], include_origin: bool
) -> list[tuple[float, ...]]:
    """Each vertex on its own ray: the origin as an inscribed-angle point.

    In a frame with v0 = (0, 0) and v1 on the x axis, the origin sees the
    chord v0 v_m under the directed angle theta_m - theta_0, so it lies on
    the circle through v0 and v_m centred at (v_m + cot(angle) rot90(v_m)) / 2.
    Both circles pass through v0, so the origin is the mirror image of v0
    in the line through their centres.  When the circles coincide it may
    roam their common circle, the circumcircle; its arc midpoints stand for
    that continuum.
    """
    d01, d02, d12 = pair
    roots = [(0.0, d01, d02), (d01, 0.0, d12), (d02, d12, 0.0)] if include_origin else []
    x2 = (d01 * d01 + d02 * d02 - d12 * d12) / (2 * d01)
    h = 2 * _triangle_area(pair) / d01
    for y2 in (h, -h):
        verts = ((0.0, 0.0), (d01, 0.0), (x2, y2))
        (ax, ay), (bx, by) = [
            ((vx - vy / math.tan(beta)) / 2, (vy + vx / math.tan(beta)) / 2)
            for (vx, vy), beta in zip(verts[1:], (theta[1] - theta[0], theta[2] - theta[0]))
        ]
        dx, dy = bx - ax, by - ay
        radius = math.hypot(ax, ay)
        norm = math.hypot(dx, dy)
        if norm > 1e-9 * radius:
            lam = -(ax * dx + ay * dy) / (norm * norm)
            origins = [(2 * (ax + lam * dx), 2 * (ay + lam * dy))]
        else:
            origins = []
            for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                (px, py), (qx, qy), (rx, ry) = verts[p], verts[q], verts[r]
                nx, ny = py - qy, qx - px
                if nx * (rx - px) + ny * (ry - py) > 0:
                    nx, ny = -nx, -ny
                scale = radius / math.hypot(nx, ny)
                origins.append((ax + nx * scale, ay + ny * scale))
        roots.extend(tuple(math.dist(v, o) for v in verts) for o in origins)
    return roots


def _one_ray_roots(
    pair: tuple[float, float, float],
    theta: float,
    fpts: list[tuple[float, float]],
    include_origin: bool,
    tol: float,
) -> list[tuple[float, ...]]:
    """A flat triple on one ray: one representative per end order."""
    mid = 2 - max(range(3), key=lambda s: pair[s])
    ends = [v for v in range(3) if v != mid]
    ux, uy = math.cos(theta), math.sin(theta)
    # Each forbidden point as (position along the ray's line, distance off it).
    along = [(fx * ux + fy * uy, abs(fx * uy - fy * ux)) for fx, fy in fpts]
    roots = []
    for near, far in (ends, ends[::-1]):
        offs = [0.0, 0.0, 0.0]
        offs[mid] = _dist_of(pair, near, mid)
        offs[far] = _dist_of(pair, near, far)
        s = 0.0 if include_origin else max(0.5, 2 * tol)
        moved = any(math.hypot(s + u - x, h) < tol for x, h in along for u in offs)
        while moved:
            moved = False
            for x, h in along:
                w = math.sqrt(max(4 * tol * tol - h * h, 0.0))
                for u in offs:
                    if abs(s + u - x) < w and x + w - u > s:
                        s, moved = x + w - u, True
        roots.append(tuple(s + u for u in offs))
    return roots

