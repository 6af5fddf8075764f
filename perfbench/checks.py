"""Independent checks of msu's answers.

Nothing here calls msu: every expected value is computed from the
generator's own data with plain Python (and networkx for embedding
counts), so a check can disagree with the library.
"""

from __future__ import annotations

import math
from itertools import combinations

FLOAT_TOL = 1e-9
# Ray placements are re-measured to this relative tolerance, the solver's
# default geometric epsilon; SOLVER_TOL is msu's documented solver tolerance.
GEO_TOL = 1e-9
SOLVER_TOL = 1e-6


class CheckFailed(Exception):
    """An answer disagrees with the independent computation."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def same(a, b, tol=None) -> bool:
    if tol is None:
        return a == b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# ---- matrices and graphs ----


def floyd_warshall(n, edges):
    """All-pairs shortest paths of an undirected weighted graph; None = no path."""
    d = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for i, j, w in edges:
        if d[i][j] is None or w < d[i][j]:
            d[i][j] = d[j][i] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                if dk[j] is None:
                    continue
                via = dik + dk[j]
                if di[j] is None or via < di[j]:
                    di[j] = via
    return d


def check_validate(answer, rows, injected, tol=None):
    """injected is None for a metric, else (kind, indices) of the one planted fault."""
    if injected is None:
        expect(not isinstance(answer, BaseException), f"valid matrix rejected: {answer!r}")
        n = len(rows)
        expect(answer.n == n, "wrong point count")
        for i in range(n):
            for j in range(n):
                expect(same(answer.matrix[i][j], rows[i][j], tol), f"entry {i},{j} changed")
        return
    kind, idx = injected
    vs = getattr(answer, "violations", None)
    expect(vs is not None, f"{kind} violation at {idx} not reported: {answer!r}")
    hits = [v for v in vs if v.kind == kind and set(idx) <= set(v.indices)]
    expect(bool(hits), f"{kind} at {idx} missing from {[str(v) for v in vs][:6]}")


def check_metrization(report, n, edges, tol=None):
    """edges as (i, j, w) index triples; compares with Floyd-Warshall."""
    d = floyd_warshall(n, edges)
    pseudo = all(same(d[i][j], w, tol) for i, j, w in edges)
    expect(report.pseudometrizable == pseudo, "pseudometrizable flag disagrees")
    if pseudo:
        positive = all(d[i][j] > (tol or 0) for i in range(n) for j in range(i + 1, n))
        expect(report.metrizable == positive, "metrizable flag disagrees")
        if positive:
            m = report.metric.matrix
            for i in range(n):
                for j in range(n):
                    expect(same(m[i][j], d[i][j], tol), f"metric entry {i},{j} != shortest path")
        return
    cyc = report.violating_cycle
    expect(cyc is not None and len(cyc) >= 3, "no violating cycle reported")
    weight = {}
    for i, j, w in edges:
        weight[(i, j)] = weight[(j, i)] = w
    ring = list(cyc) + [cyc[0]]
    ws = []
    for a, b in zip(ring, ring[1:]):
        expect((a, b) in weight, f"cycle step {a}-{b} is not an edge")
        ws.append(weight[(a, b)])
    heavy = max(ws)
    expect(heavy > sum(ws) - heavy, "cycle's heaviest edge is not over half its weight")


def line_coords(m):
    """Coordinates realizing m on the line, or None (diameter-pair method)."""
    n = len(m)
    if n <= 1:
        return [0] * n
    a, b = max(((i, j) for i in range(n) for j in range(i + 1, n)), key=lambda p: m[p[0]][p[1]])
    xs = [m[a][t] for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(xs[i] - xs[j]) != m[i][j]:
                return None
    return xs


def check_line(answer, m):
    if answer is None:
        expect(line_coords(m) is None, "line realization exists but none returned")
        return
    xs = answer.coords
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            expect(abs(xs[i] - xs[j]) == m[i][j], f"coords miss distance {i},{j}")


def first_unflat_triple(m, tol=None):
    for i, j, k in combinations(range(len(m)), 3):
        a, b, c = m[i][j], m[i][k], m[j][k]
        if not same(2 * max(a, b, c), a + b + c, tol):
            return (i, j, k)
    return None


def check_mb(status, m):
    w = first_unflat_triple(m)
    expect(status.is_mb == (w is None), "MB flag disagrees")
    expect((tuple(status.witness) if status.witness else None) == w, "wrong MB witness")


def check_cayley_menger(det, a, b, c):
    want = -(a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    expect(det == want, f"determinant {det} != Heron product {want}")


# ---- embeddings ----


def iter_embeddings(dom, cod, tol=None, start=()):
    """Distance-preserving injections dom -> cod extending the image tuple
    start, by backtracking; yields image tuples in lexicographic order."""
    n, m = len(dom), len(cod)
    image = list(start) + [0] * (n - len(start))

    def grow(i, used):
        if i == n:
            yield tuple(image)
            return
        for j in range(m):
            if j not in used and all(same(dom[i][k], cod[j][image[k]], tol) for k in range(i)):
                image[i] = j
                yield from grow(i + 1, used | {j})

    return grow(len(start), frozenset(start))


def embeddings(dom, cod, tol=None):
    return list(iter_embeddings(dom, cod, tol))


def embeds(dom, cod, tol=None):
    return next(iter_embeddings(dom, cod, tol), None) is not None


def networkx_images(dom, cod, tol=None):
    """Image tuples of all embeddings, from networkx GraphMatcher on
    edge-labelled complete graphs (subgraph isomorphism = embedding)."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    def complete(m):
        g = nx.Graph()
        g.add_nodes_from(range(len(m)))
        for i, j in combinations(range(len(m)), 2):
            g.add_edge(i, j, d=m[i][j])
        return g

    gm = GraphMatcher(complete(cod), complete(dom), edge_match=lambda x, y: same(x["d"], y["d"], tol))
    out = []
    for mapping in gm.subgraph_isomorphisms_iter():
        image = [0] * len(dom)
        for c, d in mapping.items():
            image[d] = c
        out.append(tuple(image))
    return sorted(out)


def check_maps(maps, dom, cod, planted=None, tol=None, oracle=None):
    """oracle: the sorted image tuples computed apart from msu."""
    images = [tuple(pm.image) for pm in maps]
    expect(images == sorted(set(images)), "maps are not distinct and sorted")
    for img in images:
        for i, j in combinations(range(len(dom)), 2):
            expect(same(dom[i][j], cod[img[i]][img[j]], tol), f"map {img} breaks distance {i},{j}")
    if planted is not None:
        expect(tuple(planted) in images, "planted map missing")
    if oracle is not None:
        expect(images == oracle, f"{len(images)} maps, oracle finds {len(oracle)}")


def check_traits(traits, m, tol=None):
    n = len(m)
    off = [m[i][j] for i, j in combinations(range(n), 2)]
    expect(traits.discrete == all(same(v, 1, tol) for v in off), "discrete flag")
    expect(
        traits.strongly_rigid == all(not same(x, y, tol) for x, y in combinations(off, 2)),
        "strongly rigid flag",
    )
    ultra = all(
        m[i][j] <= max(m[i][k], m[k][j]) or same(m[i][j], max(m[i][k], m[k][j]), tol)
        for i in range(n) for j in range(n) for k in range(n)
    )
    expect(traits.ultrametric == ultra, "ultrametric flag")
    expect(traits.homogeneous == homogeneous(m, tol), "homogeneous flag")


def homogeneous(m, tol=None):
    """Every point is the image of point 0 under some self-isometry."""
    return all(next(iter_embeddings(m, m, tol, start=(j,)), None) is not None for j in range(len(m)))


def maximal_reps(members):
    """Smallest index of each maximal mutual-embeddability class."""
    k = len(members)
    r = [[embeds(members[i], members[j]) for j in range(k)] for i in range(k)]
    reps = []
    for i in range(k):
        if any(r[j][i] and r[i][j] for j in range(i)):
            continue
        if any(r[i][j] and not r[j][i] for j in range(k)):
            continue
        reps.append(i)
    return reps


def is_minimal_universal(members, target):
    if not all(embeds(x, target) for x in members):
        return False
    n = len(target)
    for y in range(n):
        keep = [t for t in range(n) if t != y]
        sub = [[target[a][b] for b in keep] for a in keep]
        if all(embeds(x, sub) for x in members):
            return False
    return True


def one_copy_each(parts, target):
    """Parts pairwise incomparable, each with one image set in the target."""
    for a, b in combinations(parts, 2):
        if embeds(a, b) or embeds(b, a):
            return False
    return all(len({frozenset(img) for img in embeddings(p, target)}) == 1 for p in parts)


def union_matrix(parts, anchors, eps1):
    """Shortest paths of the anchored union graph, by Floyd-Warshall."""
    base, edges = 0, []
    anchor_ids = []
    for part, a in zip(parts, anchors):
        for i, j in combinations(range(len(part)), 2):
            edges.append((base + i, base + j, part[i][j]))
        anchor_ids.append(base + a)
        base += len(part)
    for x, y in combinations(anchor_ids, 2):
        edges.append((x, y, eps1))
    return floyd_warshall(base, edges)


def check_union(union, parts, anchors, eps1):
    want = union_matrix(parts, anchors, eps1)
    got = union.space.matrix
    n = len(want)
    expect(union.space.n == n, "union has the wrong size")
    for i in range(n):
        for j in range(n):
            expect(got[i][j] == want[i][j], f"union entry {i},{j} != shortest path")


# ---- rays ----


def planar(angles, ray, t):
    th = angles[ray]
    return (t * math.cos(th), t * math.sin(th))


def tripod_angles():
    return (0.0, 2 * math.pi / 3, 4 * math.pi / 3)


def two_ray_angles(alpha):
    return (0.0, alpha)


def placement_problem(pts, sides, angles, origin_ok, forbidden=(), flat=False):
    """Why a placement is not a genuine one, or None when it is.

    sides = (d01, d02, d12).  A flat triple on rays without the origin must
    sit on one ray: a line meets two rays away from their common origin
    in at most two points.
    """
    xy = []
    for p in pts:
        if p.ray not in range(len(angles)) or not math.isfinite(p.t) or p.t < 0:
            return f"bad coordinate {p!r}"
        if not origin_ok and p.t <= 0:
            return f"{p!r} is the excluded origin"
        xy.append(planar(angles, p.ray, p.t))
    for (i, j), want in zip(((0, 1), (0, 2), (1, 2)), sides):
        got = math.dist(xy[i], xy[j])
        if abs(got - want) > GEO_TOL * max(1.0, want):
            return f"distance {i},{j} is {got}, not {want}"
    for ray, t in forbidden:
        f = planar(angles, ray, t)
        if any(math.dist(q, f) < SOLVER_TOL for q in xy):
            return f"placement uses the forbidden point {ray}:{t}"
    if flat and not origin_ok and len({p.ray for p in pts}) != 1:
        return "flat triple straddles two rays"
    return None


def check_placement(pts, sides, angles, origin_ok, forbidden=(), flat=False):
    expect(pts is not None and len(pts) == 3, f"no placement: {pts!r}")
    why = placement_problem(pts, sides, angles, origin_ok, forbidden, flat)
    expect(why is None, str(why))


def corner_angles(sides):
    """Interior angles at vertices 0, 1, 2 of a triangle with (d01, d02, d12)."""
    d01, d02, d12 = sides

    def ang(p, q, r):  # angle between sides p, q opposite r
        return math.acos(max(-1.0, min(1.0, (p * p + q * q - r * r) / (2 * p * q))))

    return (ang(d01, d02, d12), ang(d01, d12, d02), ang(d02, d12, d01))


def fermat_point(verts):
    """Weiszfeld iteration for the point minimizing the distance sum."""
    x = sum(v[0] for v in verts) / 3
    y = sum(v[1] for v in verts) / 3
    for _ in range(2000):
        ws = [1.0 / max(math.dist((x, y), v), 1e-15) for v in verts]
        nx_ = sum(w * v[0] for w, v in zip(ws, verts)) / sum(ws)
        ny_ = sum(w * v[1] for w, v in zip(ws, verts)) / sum(ws)
        if math.dist((x, y), (nx_, ny_)) < 1e-14:
            break
        x, y = nx_, ny_
    return x, y


def triangle_vertices(sides):
    d01, d02, d12 = sides
    x2 = (d01 * d01 + d02 * d02 - d12 * d12) / (2 * d01)
    return [(0.0, 0.0), (d01, 0.0), (x2, math.sqrt(max(0.0, d02 * d02 - x2 * x2)))]


def check_fermat(ft, sides):
    verts = triangle_vertices(sides)
    angles = corner_angles(sides)
    wide = [v for v in range(3) if angles[v] >= 2 * math.pi / 3 - 1e-9]
    if wide:
        expect(ft.location == "vertex" and ft.vertex == wide[0], "wide corner not chosen")
        best = sum(math.dist(verts[wide[0]], v) for v in verts)
    else:
        expect(ft.location == "interior", "interior minimizer expected")
        p = fermat_point(verts)
        r = [math.dist(p, v) for v in verts]
        for i in range(3):
            expect(abs(ft.distances[i] - r[i]) <= 1e-6 * max(1.0, r[i]), f"distance to vertex {i}")
        best = sum(r)
    expect(abs(ft.total_cost - best) <= 1e-9 * max(1.0, best), "total cost is not the minimum")


def tripod_witness_sides(t):
    s = t * math.sqrt(3.0)
    return (s, s, s)
