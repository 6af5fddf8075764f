import math
import random

import pytest

import msu
from conftest import newton_placements

RT3 = math.sqrt(3)
TRIPOD = msu.RaySpace.tripod()


def planar_dists(rays, pts):
    return [
        rays.point_distance(pts[i], pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))
    ]


def tri_dists(tri):
    # pairwise targets in the same (01, 02, 12) order
    return [tri.c, tri.b, tri.a]


def rel_close(x, y, eps=1e-9):
    return abs(x - y) <= eps * max(1.0, abs(x), abs(y))


def test_triangle_validation():
    with pytest.raises(msu.InvalidTripleError):
        msu.Triangle(1, 1, 3)
    with pytest.raises(msu.InvalidTripleError):
        msu.Triangle(0, 1, 1)
    assert msu.Triangle(1, 2, 3).is_degenerate()
    assert not msu.Triangle(2, 2, 3).is_degenerate()


def test_ray_space_constructors():
    assert TRIPOD.angles == (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    assert TRIPOD.include_origin
    two = msu.RaySpace.two_rays(math.pi / 4)
    assert two.angles == (0.0, math.pi / 4) and not two.include_origin
    with pytest.raises(msu.AlphaRangeError):
        msu.RaySpace.two_rays(0.0)
    with pytest.raises(msu.AlphaRangeError):
        msu.RaySpace.two_rays(math.pi)


def test_point_distance_same_and_cross_ray():
    a, b = msu.RayPoint(0, 1.0), msu.RayPoint(0, 3.0)
    assert TRIPOD.point_distance(a, b) == 2.0
    c = msu.RayPoint(1, 1.0)
    assert rel_close(TRIPOD.point_distance(a, c), RT3)


def test_fermat_torricelli_equilateral():
    ft = msu.fermat_torricelli(msu.Triangle(1, 1, 1))
    assert ft.location == "interior" and ft.vertex is None
    assert all(rel_close(r, 1 / RT3) for r in ft.distances)
    assert rel_close(ft.total_cost, RT3)


def test_fermat_torricelli_vertex_cases():
    ft = msu.fermat_torricelli(msu.Triangle(RT3, 1, 1))
    assert ft.location == "vertex" and ft.vertex == 0
    assert rel_close(ft.total_cost, 2.0)
    ft = msu.fermat_torricelli(msu.Triangle(9.9, 5, 5))
    assert ft.location == "vertex" and ft.vertex == 0


def test_fermat_torricelli_flat_rejected():
    with pytest.raises(msu.DegenerateTriangleError):
        msu.fermat_torricelli(msu.Triangle(1, 2, 3))


def test_embeds_test_flatness_before_corner_angles():
    # Sides this small count as flat against the absolute floor of EPS_GEO,
    # and their products underflow to 0, so no cosine can be taken.
    tri = msu.Triangle(1e-300, 1e-300, 1e-300)
    with pytest.raises(msu.InvalidMetricError):
        msu.embed_triple_tripod(tri)
    with pytest.raises(msu.InvalidMetricError):
        msu.embed_triple_two_rays(tri, 0.5)


def test_fermat_torricelli_random_sampling_oracle():
    rng = random.Random(23)
    for _ in range(40):
        pts = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(3)]
        a = math.dist(pts[1], pts[2])
        b = math.dist(pts[0], pts[2])
        c = math.dist(pts[0], pts[1])
        tri = msu.Triangle(a, b, c)
        if tri.is_degenerate():
            continue
        ft = msu.fermat_torricelli(tri)
        for _ in range(120):
            q = (rng.uniform(-1, 6), rng.uniform(-1, 6))
            cost = sum(math.dist(q, p) for p in pts)
            assert ft.total_cost <= cost + 1e-9


def test_tripod_embed_collinear_case():
    pts = msu.embed_triple_tripod(msu.Triangle(2.0, 3.0, 1.0))
    assert len({p.ray for p in pts}) == 1
    assert sorted(p.t for p in pts) == [0.0, 1.0, 3.0]


def test_tripod_embed_interior_case():
    pts = msu.embed_triple_tripod(msu.Triangle(1, 1, 1))
    assert sorted(p.ray for p in pts) == [0, 1, 2]
    assert all(rel_close(p.t, 1 / RT3) for p in pts)


def test_tripod_embed_wide_angle_case():
    tri = msu.Triangle(RT3, 1, 1)
    pts = msu.embed_triple_tripod(tri)
    ts = sorted(round(p.t, 9) for p in pts)
    assert ts == [0.0, 1.0, 1.0]
    assert len({p.ray for p in pts if p.t > 1e-9}) == 2
    got = planar_dists(TRIPOD, pts)
    for g, w in zip(got, tri_dists(tri)):
        assert rel_close(g, w)


def test_tripod_embed_random_triangles_verified():
    rng = random.Random(5)
    for _ in range(60):
        pts = [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(3)]
        sides = (
            math.dist(pts[1], pts[2]),
            math.dist(pts[0], pts[2]),
            math.dist(pts[0], pts[1]),
        )
        if min(sides) < 1e-3:
            continue
        tri = msu.Triangle(*sides)
        out = msu.embed_triple_tripod(tri)
        for g, w in zip(planar_dists(TRIPOD, out), tri_dists(tri)):
            assert rel_close(g, w)


def test_two_rays_embed_examples():
    assert msu.embed_triple_two_rays(msu.Triangle(1, 1, 1), math.pi / 4) is not None
    assert msu.embed_triple_two_rays(msu.Triangle(1, 1, 1), math.pi / 3) is None
    out = msu.embed_triple_two_rays(msu.Triangle(2.0, 3.0, 1.0), 1.2)
    assert out is not None
    assert sorted(p.t for p in out) == [0.5, 1.5, 3.5]
    assert len({p.ray for p in out}) == 1


def test_two_rays_embed_origin_excluded():
    out = msu.embed_triple_two_rays(msu.Triangle(1, 1, 1), math.pi / 4)
    assert all(p.t > 0 for p in out)


def test_two_rays_embed_below_pi_third_always_found():
    rng = random.Random(9)
    for _ in range(40):
        alpha = rng.uniform(0.1, math.pi / 3 - 0.05)
        pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(3)]
        sides = (
            math.dist(pts[1], pts[2]),
            math.dist(pts[0], pts[2]),
            math.dist(pts[0], pts[1]),
        )
        if min(sides) < 1e-3:
            continue
        tri = msu.Triangle(*sides)
        out = msu.embed_triple_two_rays(tri, alpha)
        assert out is not None
        rays = msu.RaySpace.two_rays(alpha)
        for g, w in zip(planar_dists(rays, out), tri_dists(tri)):
            assert rel_close(g, w, 1e-9)


def test_witness_triangle_tripod():
    w = msu.witness_triangle_tripod(msu.RayPoint(0, 1.0))
    assert all(rel_close(s, RT3) for s in (w.a, w.b, w.c))
    w = msu.witness_triangle_tripod(msu.RayPoint(2, 2.0))
    assert all(rel_close(s, 2 * RT3) for s in (w.a, w.b, w.c))
    with pytest.raises(msu.OriginNotAllowedError):
        msu.witness_triangle_tripod(msu.RayPoint(0, 0.0))


def test_witness_triangle_two_rays():
    alpha = math.pi / 4
    w = msu.witness_triangle_two_rays(msu.RayPoint(1, 1.0), alpha)
    side = 2 * math.sin(alpha / 2)
    assert rel_close(w.a, side) and rel_close(w.c, side)
    base_angle = math.acos((w.b / 2) / side)
    assert rel_close(base_angle, math.pi / 4 - alpha / 4)

    w = msu.witness_triangle_two_rays(msu.RayPoint(1, 1.0), math.pi / 5)
    side = 2 * math.sin(math.pi / 10)
    assert rel_close(math.acos((w.b / 2) / side), math.pi / 5)

    with pytest.raises(msu.AlphaRangeError):
        msu.witness_triangle_two_rays(msu.RayPoint(1, 1.0), math.pi / 2)
    with pytest.raises(msu.OriginNotAllowedError):
        msu.witness_triangle_two_rays(msu.RayPoint(1, 0.0), math.pi / 4)


def test_solver_punctured_tripod_empty():
    e = msu.RayPoint(0, 1.0)
    w = msu.witness_triangle_tripod(e)
    assert msu.solve_constrained_embedding(w, TRIPOD, forbidden=[e]) == []


@pytest.mark.parametrize("ray", [3, 9, -1])
def test_solver_rejects_a_forbidden_point_on_a_missing_ray(ray):
    w = msu.witness_triangle_tripod(msu.RayPoint(0, 1.0))
    with pytest.raises(msu.IndexRangeError):
        msu.solve_constrained_embedding(w, TRIPOD, forbidden=[msu.RayPoint(ray, 1.0)])
    with pytest.raises(msu.IndexRangeError):
        msu.solve_constrained_embedding(
            w, msu.RaySpace.two_rays(0.5), forbidden=[msu.RayPoint(ray if ray != 3 else 2, 1.0)]
        )


def test_solver_unpunctured_unique_image():
    w = msu.witness_triangle_tripod(msu.RayPoint(0, 1.0))
    sols = msu.solve_constrained_embedding(w, TRIPOD, forbidden=[])
    assert sols
    images = {frozenset((p.ray, round(p.t, 6)) for p in s) for s in sols}
    assert images == {frozenset({(0, 1.0), (1, 1.0), (2, 1.0)})}


def test_solver_contains_constructive_embedding():
    tri = msu.Triangle(2.2, 1.7, 1.0)
    target = sorted((p.ray, p.t) for p in msu.embed_triple_tripod(tri))
    sols = msu.solve_constrained_embedding(tri, TRIPOD, forbidden=[])
    def matches(sol):
        cand = sorted((p.ray, p.t) for p in sol)
        return all(
            c[0] == t[0] and abs(c[1] - t[1]) <= 1e-6 for c, t in zip(cand, target)
        )
    assert any(matches(s) for s in sols)


def test_solver_results_verified_and_deduplicated():
    sols = msu.solve_constrained_embedding(msu.Triangle(1, 1, 1), TRIPOD, forbidden=[])
    seen = set()
    for sol in sols:
        for g, w in zip(planar_dists(TRIPOD, sol), [1, 1, 1]):
            assert rel_close(g, w, 1e-6)
        key = tuple((p.ray, round(p.t, 5)) for p in sol)
        assert key not in seen
        seen.add(key)


def test_solver_two_rays_above_pi_third_empty():
    rays = msu.RaySpace.two_rays(1.1)
    assert msu.solve_constrained_embedding(msu.Triangle(1, 1, 1), rays, forbidden=[]) == []


def test_solver_respects_origin_exclusion():
    rays = msu.RaySpace.two_rays(math.pi / 4)
    sols = msu.solve_constrained_embedding(msu.Triangle(2.0, 3.0, 1.0), rays, forbidden=[])
    for sol in sols:
        assert all(p.t > 0 for p in sol)


def on_circle_through_origin(angles, centre):
    """Triangle whose vertices sit where the rays cross a circle through the origin."""
    cx, cy = centre
    ts = [2 * (cx * math.cos(a) + cy * math.sin(a)) for a in angles]
    xy = [(t * math.cos(a), t * math.sin(a)) for t, a in zip(ts, angles)]
    return msu.Triangle(math.dist(xy[1], xy[2]), math.dist(xy[0], xy[2]), math.dist(xy[0], xy[1]))


def remeasure(angles, sol):
    xy = [(p.t * math.cos(angles[p.ray]), p.t * math.sin(angles[p.ray])) for p in sol]
    return [math.dist(xy[i], xy[j]) for i, j in ((0, 1), (0, 2), (1, 2))]


def test_solver_contains_every_newton_placement():
    rng = random.Random(31)
    # An oracle call takes 0.1-1.5 s, so one triangle per ray space.
    spaces = [TRIPOD] + [msu.RaySpace.two_rays(a) for a in (math.pi / 6, math.pi / 4, 2.2)]
    spaces += [msu.RaySpace((0.0, 0.9, 2.0, 4.1), flag) for flag in (True, False)]
    for rays in spaces:
        while True:
            pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(3)]
            sides = (math.dist(pts[1], pts[2]), math.dist(pts[0], pts[2]), math.dist(pts[0], pts[1]))
            tri = msu.Triangle(*sides)
            if min(sides) > 0.1 and not tri.is_degenerate():
                break
        closed = msu.solve_constrained_embedding(tri, rays)
        for sol in newton_placements(tri, rays):
            assert any(
                all(p.ray == q.ray and abs(p.t - q.t) <= 1e-6 for p, q in zip(sol, cand))
                for cand in closed
            ), (rays, sides, sol)
        for sol in closed:
            assert all(p.t >= 0 and (rays.include_origin or p.t > 0) for p in sol)
            for got, want in zip(remeasure(rays.angles, sol), tri_dists(tri)):
                assert rel_close(got, want), (rays, sides, sol)


@pytest.mark.parametrize("sides", [(1, 1, 2), (2, 2, 4)])
def test_solver_flat_triple_on_two_rays_uses_one_ray(sides):
    rays = msu.RaySpace.two_rays(0.5)
    tri = msu.Triangle(*sides)
    sols = msu.solve_constrained_embedding(tri, rays)
    assert sols
    for sol in sols:
        assert len({p.ray for p in sol}) == 1
        assert all(p.t > msu.SOLVER_TOL for p in sol)
        for got, want in zip(remeasure(rays.angles, sol), tri_dists(tri)):
            assert rel_close(got, want)


def test_solver_flat_triple_slides_past_a_puncture():
    rays = msu.RaySpace.two_rays(0.5)
    tri = msu.Triangle(1, 1, 2)
    hole = msu.solve_constrained_embedding(tri, rays)[0][2]
    sols = msu.solve_constrained_embedding(tri, rays, forbidden=[hole])
    assert any(sol[0].ray == hole.ray for sol in sols)
    for sol in sols:
        assert all(math.dist(rays.planar(p), rays.planar(hole)) >= msu.SOLVER_TOL for p in sol)


def test_solver_flat_triple_on_tripod_includes_constructive_embedding():
    tri = msu.Triangle(2.0, 3.0, 1.0)
    target = [(p.ray, p.t) for p in msu.embed_triple_tripod(tri)]
    sols = msu.solve_constrained_embedding(tri, TRIPOD)
    assert [[(p.ray, p.t) for p in sol] for sol in sols].count(target) == 1


def test_solver_circumcircle_continuum_has_arc_midpoint():
    # Rays whose gaps equal the triangle's angles: the origin may sit
    # anywhere on an arc of the circumcircle, listed by the arc midpoint,
    # where the outer two vertices are equally far from the origin.
    angles = (0.0, 0.6, 1.2)
    rays = msu.RaySpace(angles, False)
    tri = on_circle_through_origin(angles, (1.0, 2.0))
    sols = [s for s in msu.solve_constrained_embedding(tri, rays) if [p.ray for p in s] == [0, 1, 2]]
    assert any(rel_close(s[0].t, s[2].t) and rel_close(s[1].t, 2 * math.sqrt(5)) for s in sols)
