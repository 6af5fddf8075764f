"""Shared builders and brute-force oracles for the test suite."""

from fractions import Fraction
from itertools import combinations, permutations, product
import math
import random

import msu
from msu.scalars import close, leq, positive


def from_coords(coords):
    return msu.validate_space([[abs(a - b) for b in coords] for a in coords])


def equilateral(n, d=1):
    return msu.validate_space([[0 if i == j else d for j in range(n)] for i in range(n)])


def quad(a, b):
    # Four-cycle with sides a, b, a, b and both diagonals a + b.
    s = a + b
    return msu.validate_space(
        [
            [0, a, s, b],
            [a, 0, b, s],
            [s, b, 0, a],
            [b, s, a, 0],
        ]
    )


def pair(d):
    return msu.validate_space([[0, d], [d, 0]])


def random_int_metric(rng: random.Random, n: int, lo=1, hi=9):
    """Shortest-path closure of a random complete integer-weighted graph."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = m[i][k] + m[k][j]
                if via < m[i][j]:
                    m[i][j] = via
    return m


def random_rational_metric(rng: random.Random, n: int, dens=(1, 2, 3, 4, 5)):
    den = rng.choice(dens)
    m = random_int_metric(rng, n)
    return [[Fraction(v, den) for v in row] for row in m]


def random_space(rng: random.Random, n: int):
    return msu.validate_space(random_rational_metric(rng, n))


def random_two_value(rng: random.Random, n: int):
    # a < b <= 2a keeps every triple valid regardless of the pattern.
    a = rng.randint(1, 5)
    b = rng.randint(a, 2 * a)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice((a, b))
    return msu.validate_space(m)


def random_ultrametric_matrix(rng: random.Random, n: int, top=None):
    if top is None:
        top = Fraction(rng.randint(4, 12))
    if n == 1:
        return [[Fraction(0)]]
    k = rng.randint(2, n)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    sizes, prev = [], 0
    for c in cuts + [n]:
        sizes.append(c - prev)
        prev = c
    shrink = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))
    blocks = [random_ultrametric_matrix(rng, s, top * rng.choice(shrink)) for s in sizes]
    m = [[top] * n for _ in range(n)]
    at = 0
    for block in blocks:
        bn = len(block)
        for i in range(bn):
            for j in range(bn):
                m[at + i][at + j] = block[i][j]
        at += bn
    return m


def random_ultrametric(rng: random.Random, n: int):
    return msu.validate_space(random_ultrametric_matrix(rng, n))


def brute_embeddings(dom, cod):
    """All distance-preserving injections, by exhaustive enumeration.

    Each pair i < j compares d(j, i) with d'(image[j], image[i]), the entries
    and argument order the embedding search reads, so float matrices whose
    transposed entries differ in the last bit get the same answer.
    """
    found = []
    for image in permutations(range(cod.n), dom.n):
        if all(
            cod.close(dom.dist(j, i), cod.dist(image[j], image[i]))
            for i in range(dom.n)
            for j in range(i + 1, dom.n)
        ):
            found.append(image)
    return found


def loop_embeddings(dom, cod, limit=None):
    """The point-by-point backtracking that preceded the candidate masks.

    Every codomain point is tried at every level and re-compared with every
    earlier distance; kept as an oracle for order, `limit` and float answers.
    """
    n, m, tol = dom.n, cod.n, max(dom.tol, cod.tol)
    dd, cd = dom.matrix, cod.matrix
    out, image, used = [], [0] * n, [False] * m

    def extend(i):
        if i == n:
            out.append(tuple(image))
            return limit is not None and len(out) >= limit
        for j in range(m):
            if used[j] or not all(close(dd[i][k], cd[j][image[k]], tol) for k in range(i)):
                continue
            used[j], image[i] = True, j
            if extend(i + 1):
                return True
            used[j] = False
        return False

    extend(0)
    return out


def pairwise_distinct(values, tol=msu.DEFAULT_TOL):
    """No two values close: the all-pairs scan strongly_rigid replaced."""
    return all(
        not close(values[a], values[b], tol)
        for a in range(len(values))
        for b in range(a + 1, len(values))
    )


def close_edge(x, tol=msu.DEFAULT_TOL):
    """The largest float y > x with close(x, y): one ulp more is not close."""
    y = x + max(tol, tol * x)
    while not close(x, y, tol):
        y = math.nextafter(y, 0)
    while close(x, math.nextafter(y, math.inf), tol):
        y = math.nextafter(y, math.inf)
    return y


def brute_line_embeddable(space):
    """Exhaustive sign-choice placement on the real line."""
    n = space.n
    if n <= 1:
        return True
    for signs in range(1 << (n - 1)):
        coords = [0]
        for t in range(1, n):
            r = space.dist(0, t)
            coords.append(r if signs >> (t - 1) & 1 else -r)
        if all(
            abs(coords[i] - coords[j]) == space.dist(i, j)
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def all_simple_cycles(n, edges):
    """Vertex tuples of every simple cycle, smallest vertex first."""
    adj = {i: {} for i in range(n)}
    for i, j, w in edges:
        adj[i][j] = w
        adj[j][i] = w
    cycles = []

    def extend(path, seen):
        head, tail = path[0], path[-1]
        for nxt in adj[tail]:
            if nxt == head and len(path) >= 3:
                if path[1] < path[-1]:  # one orientation per cycle
                    cycles.append(tuple(path))
            elif nxt > head and nxt not in seen:
                extend(path + [nxt], seen | {nxt})

    for s in range(n):
        extend([s], {s})
    return cycles


def cycle_weight_oracle(n, edges):
    """Every edge of every simple cycle carries at most half the cycle weight."""
    lookup = {}
    for i, j, w in edges:
        lookup[(i, j)] = lookup[(j, i)] = w
    for cyc in all_simple_cycles(n, edges):
        ring = list(cyc) + [cyc[0]]
        total = sum(lookup[(ring[t], ring[t + 1])] for t in range(len(cyc)))
        for t in range(len(cyc)):
            if 2 * lookup[(ring[t], ring[t + 1])] > total:
                return False
    return True


def _vdc(index, base):
    x, f, n = 0.0, 1.0 / base, index
    while n:
        x += (n % base) * f
        n //= base
        f /= base
    return x


def _solve3(m, rhs):
    a = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    scale = max(max(abs(v) for v in row[:3]) for row in a)
    if scale == 0:
        return None
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-13 * scale:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, 3):
            f = a[r][col] * inv
            if f:
                for c in range(col, 4):
                    a[r][c] -= f * a[col][c]
    x = [0.0, 0.0, 0.0]
    for r in (2, 1, 0):
        s = a[r][3] - sum(a[r][c] * x[c] for c in range(r + 1, 3))
        x[r] = s / a[r][r]
    return x


def _newton_root(start, rows, scale_sq, box):
    """Damped Newton on rows (i, j, cos of the ray gap or None for a shared ray, d^2)."""
    t = list(start)
    target = 1e-12 * scale_sq

    def residual(v):
        return [
            (v[i] - v[j]) * (v[i] - v[j]) - dd
            if cg is None
            else v[i] * v[i] + v[j] * v[j] - 2 * v[i] * v[j] * cg - dd
            for i, j, cg, dd in rows
        ]

    f = residual(t)
    phi = f[0] * f[0] + f[1] * f[1] + f[2] * f[2]
    for _ in range(60):
        if max(abs(x) for x in f) <= target:
            return (t[0], t[1], t[2])
        jac = [[0.0, 0.0, 0.0] for _ in range(3)]
        for row, (i, j, cg, _dd) in enumerate(rows):
            if cg is None:
                gap = 2 * (t[i] - t[j])
                jac[row][i] = gap
                jac[row][j] = -gap
            else:
                jac[row][i] = 2 * t[i] - 2 * t[j] * cg
                jac[row][j] = 2 * t[j] - 2 * t[i] * cg
        step = _solve3(jac, [-x for x in f])
        if step is None:
            return None
        lam = 1.0
        for _half in range(30):
            cand = [t[0] + lam * step[0], t[1] + lam * step[1], t[2] + lam * step[2]]
            fc = residual(cand)
            phic = fc[0] * fc[0] + fc[1] * fc[1] + fc[2] * fc[2]
            if phic < phi:
                t, f, phi = cand, fc, phic
                break
            lam /= 2
        else:
            return None
        if max(abs(x) for x in t) > 1e9 * box:
            return None
    if max(abs(x) for x in f) <= target:
        return (t[0], t[1], t[2])
    return None


def newton_placements(tri, rays, forbidden=(), tol=1e-6, eps_geo=1e-9):
    """Placements found by damped Newton from 64 fixed starts per assignment.

    The multistart search that preceded the closed-form solver, kept as an
    independent oracle: every root it finds is a genuine placement, but it
    can miss some (flat triples, singular Jacobians).
    """
    d01, d02, d12 = (tri.c, tri.b, tri.a)
    pairs = [(0, 1, d01), (0, 2, d02), (1, 2, d12)]
    diam = max(d01, d02, d12)
    box = 1.5 * diam
    scale_sq = max(1.0, diam * diam)
    k = len(rays.angles)
    cosg = [[math.cos(rays.angles[i] - rays.angles[j]) for j in range(k)] for i in range(k)]
    starts = [tuple(box * _vdc(s_idx, b) for b in (2, 3, 5)) for s_idx in range(1, 65)]
    fpts = [rays.planar(f) for f in forbidden]
    results = []
    for assign in product(range(k), repeat=3):
        rows = [
            (i, j, None if assign[i] == assign[j] else cosg[assign[i]][assign[j]], d * d)
            for i, j, d in pairs
        ]
        kept = []
        for start in starts:
            root = _newton_root(start, rows, scale_sq, box)
            if root is None or min(root) < -tol:
                continue
            ts = [max(t, 0.0) for t in root]
            if not rays.include_origin and min(ts) <= tol:
                continue
            pts = [msu.RayPoint(assign[v], ts[v]) for v in range(3)]
            if any(
                abs(rays.point_distance(pts[i], pts[j]) - d) > eps_geo * max(1.0, d)
                for i, j, d in pairs
            ):
                continue
            if any(math.dist(rays.planar(p), f) < tol for p in pts for f in fpts):
                continue
            if any(max(abs(ts[i] - old[i]) for i in range(3)) <= tol for old in kept):
                continue
            kept.append(tuple(ts))
        results.extend([msu.RayPoint(assign[v], key[v]) for v in range(3)] for key in sorted(kept))
    return results


def brute_violations(matrix, tol=msu.DEFAULT_TOL, limit=None):
    """Every axiom violation by one scalar test per entry, pair and triple.

    The scan that preceded the int-scaled kernel with its row filter, kept
    as the oracle of metric_violations: same checks, same order, same limit.
    """
    n = len(matrix)
    out = []

    def add(kind, idx):
        out.append(msu.Violation(kind, idx))
        return limit is not None and len(out) >= limit

    for i in range(n):
        if not close(matrix[i][i], 0, tol) and add("nonzero-diagonal", (i,)):
            return out
    for i in range(n):
        for j in range(i + 1, n):
            if not close(matrix[i][j], matrix[j][i], tol) and add("asymmetry", (i, j)):
                return out
            if not positive(matrix[i][j], tol) and add("nonpositive-distance", (i, j)):
                return out
    for i in range(n):
        for j in range(i + 1, n):
            dij = matrix[i][j]
            for k in range(j + 1, n):
                djk, dik = matrix[j][k], matrix[i][k]
                if not leq(dik, dij + djk, tol):
                    idx = (i, j, k)
                elif not leq(dij, dik + djk, tol):
                    idx = (i, k, j)
                elif not leq(djk, dij + dik, tol):
                    idx = (j, i, k)
                else:
                    continue
                if add("triangle", idx):
                    return out
    return out


def brute_suspect_pairs(rows, slack=0):
    """The pairs (i, j), i < j < n - 1, in order, with some k > j whose
    triangle fails one of the three passes `<=`, each side at most the sum
    of the other two plus `slack`: the pairs the packed triangle filter of
    metric_violations must flag."""
    n = len(rows)
    return [
        (i, j)
        for i in range(n - 2)
        for j in range(i + 1, n - 1)
        if not all(
            rows[i][k] <= rows[i][j] + rows[j][k] + slack
            and rows[i][j] <= rows[i][k] + rows[j][k] + slack
            and rows[j][k] <= rows[i][j] + rows[i][k] + slack
            for k in range(j + 1, n)
        )
    ]


def brute_is_mb_space(space):
    """First triple (lexicographic) with no point between the other two."""
    d = space.dist
    for i, j, k in combinations(range(space.n), 3):
        a, b, c = d(i, j), d(i, k), d(j, k)
        if not space.close(2 * max(a, b, c), a + b + c):
            return msu.MBStatus(False, (i, j, k))
    return msu.MBStatus(True, None)


def cofactor_det(m):
    """Determinant by recursive cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = 0
    for col, val in enumerate(m[0]):
        if val == 0:
            continue
        minor = [row[:col] + row[col + 1 :] for row in m[1:]]
        term = val * cofactor_det(minor)
        total = total - term if col % 2 else total + term
    return total


def cayley_menger_matrix(a, b, c):
    """The bordered 4x4 Cayley-Menger matrix of a triple with sides a, b, c."""
    a2, b2, c2 = a * a, b * b, c * c
    return [[0, a2, b2, 1], [a2, 0, c2, 1], [b2, c2, 0, 1], [1, 1, 1, 0]]


def fraction_shortest_paths(graph):
    """All-pairs shortest paths by Dijkstra on the unscaled weights.

    The search that preceded the int-scaled one, kept as its oracle: same
    vertex order, same strict improvements, so the same paths, and each
    entry is the sum of its path's weights in their own types (an int only
    when every weight on the path is one).  The i < j entry is copied to
    j > i, as in the search.
    """
    n, adj = graph.n, graph.adjacency()
    rows = []
    for s in range(n):
        dist, done = [None] * n, [False] * n
        dist[s] = 0
        for _ in range(n):
            open_ = [v for v in range(n) if not done[v] and dist[v] is not None]
            if not open_:
                break
            u = min(open_, key=lambda v: dist[v])
            done[u] = True
            for v, w in adj[u]:
                if not done[v] and (dist[v] is None or dist[u] + w < dist[v]):
                    dist[v] = dist[u] + w
        rows.append(dist)
    for i in range(n):
        for j in range(i + 1, n):
            rows[j][i] = rows[i][j]
    return rows


def entrywise_coerce_entries(values):
    """coerce_entries as it tested each entry with isinstance, before it
    read the mode from the set of entry types; kept as its oracle."""
    vals = list(values)
    has_float = any(isinstance(v, float) for v in vals)
    if not has_float:
        return vals, True
    for v in vals:
        if isinstance(v, Fraction) and v.denominator != 1:
            raise msu.InputFormatError(
                "matrix mixes exact rationals with floats; pick one mode"
            )
    return [float(v) for v in vals], False
