import dataclasses
import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msu
from conftest import (
    brute_embeddings,
    close_edge,
    equilateral,
    from_coords,
    loop_embeddings,
    pair,
    pairwise_distinct,
    random_rational_metric,
    random_space,
    random_two_value,
    random_ultrametric,
)

Z = msu.validate_space([[0, 1, Fraction(3, 2)], [1, 0, 2], [Fraction(3, 2), 2, 0]])


def test_identity_found_for_submatrix():
    big = from_coords([0, 1, 3, 6])
    sub = big.restrict((0, 1, 2))
    maps = msu.find_embeddings(sub, big)
    assert (0, 1, 2) in {m.image for m in maps}


def test_equilateral_six_maps():
    e = equilateral(3)
    assert len(msu.find_embeddings(e, e)) == 6


def test_pair_into_z_two_maps():
    maps = msu.find_embeddings(pair(1), Z)
    assert sorted(m.image for m in maps) == [(0, 1), (1, 0)]


def test_limit_truncates_deterministically():
    e = equilateral(3)
    first = msu.find_embeddings(e, e, limit=2)
    assert [m.image for m in first] == [m.image for m in msu.find_embeddings(e, e)][:2]


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_is_rejected(limit):
    e = equilateral(3)
    with pytest.raises(msu.InputFormatError, match="limit"):
        msu.find_embeddings(e, e, limit=limit)
    with pytest.raises(msu.InputFormatError):
        msu.find_embeddings(e, equilateral(2), limit=limit)


def test_empty_domain_single_trivial_map():
    empty = msu.FiniteMetricSpace((), (), True, msu.DEFAULT_TOL)
    maps = msu.find_embeddings(empty, equilateral(3))
    assert len(maps) == 1 and maps[0].image == ()


def test_compare_cases():
    assert msu.compare(pair(1), pair(2)) is msu.Comparability.INCOMPARABLE
    assert msu.compare(Z, Z) is msu.Comparability.BOTH_EMBED
    tri = msu.validate_space([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert msu.compare(pair(1), tri) is msu.Comparability.LEFT_EMBEDS
    assert msu.compare(tri, pair(1)) is msu.Comparability.RIGHT_EMBEDS


def test_selfmaps_examples():
    rep = msu.is_not_shifted(equilateral(3))
    assert rep.not_shifted and len(rep.isometries) == 6
    rep = msu.is_not_shifted(msu.validate_space([[0]]))
    assert rep.not_shifted and len(rep.isometries) == 1
    tri = msu.validate_space([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    rep = msu.is_not_shifted(tri)
    assert rep.not_shifted and len(rep.isometries) == 1


def test_classify_examples():
    assert msu.classify_space(equilateral(3)).payload() == {
        "ultrametric": True,
        "discrete": True,
        "strongly_rigid": False,
        "homogeneous": True,
    }
    tri = msu.validate_space([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert msu.classify_space(tri).strongly_rigid
    ultra = msu.validate_space([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    traits = msu.classify_space(ultra)
    assert traits.ultrametric and not traits.strongly_rigid


def test_is_ultrametric():
    assert msu.is_ultrametric(msu.validate_space([[0, 1, 2], [1, 0, 2], [2, 2, 0]]))
    assert not msu.is_ultrametric(from_coords([0, 1, 2]))


def rand_space_strategy(max_n=5):
    return st.integers(min_value=0, max_value=2**30).map(
        lambda seed: _mixed_space(random.Random(seed), max_n)
    )


def _mixed_space(rng, max_n):
    n = rng.randint(1, max_n)
    kind = rng.random()
    if kind < 0.4:
        return random_space(rng, n)
    if kind < 0.7:
        return random_two_value(rng, n)
    return random_ultrametric(rng, n)


@settings(max_examples=60, deadline=None)
@given(rand_space_strategy())
def test_prop_self_embeddings_are_bijections(space):
    for m in msu.self_embeddings(space):
        assert sorted(m.image) == list(range(space.n))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.booleans())
def test_prop_brute_self_maps_are_bijections(seed, floats):
    # Oracle for is_not_shifted, which reports "not shifted" without looking.
    space = _mixed_space(random.Random(seed), 5)
    if floats:
        space = msu.validate_space([[float(v) for v in row] for row in space.matrix])
    brute = brute_embeddings(space, space)
    assert all(sorted(image) == list(range(space.n)) for image in brute)
    rep = msu.is_not_shifted(space)
    assert rep.not_shifted and [m.image for m in rep.isometries] == sorted(brute)


@settings(max_examples=40, deadline=None)
@given(rand_space_strategy(max_n=4), rand_space_strategy(max_n=4))
def test_prop_both_embed_implies_isometric(x, y):
    if msu.compare(x, y) is msu.Comparability.BOTH_EMBED:
        assert x.n == y.n
        maps = msu.find_embeddings(x, y)
        assert any(sorted(m.image) == list(range(y.n)) for m in maps)


@settings(max_examples=60, deadline=None)
@given(rand_space_strategy())
def test_prop_matches_brute_force(space):
    rng = random.Random(space.n * 1000 + hash(space.matrix) % 997)
    other = _mixed_space(rng, 5)
    got = [m.image for m in msu.find_embeddings(space, other)]
    assert got == sorted(brute_embeddings(space, other))


@settings(max_examples=50, deadline=None)
@given(rand_space_strategy())
def test_prop_strongly_rigid_identity_only_from_three_points(space):
    # Two-point spaces always carry the swap, so the claim starts at n = 3.
    traits = msu.classify_space(space)
    if traits.strongly_rigid and space.n >= 3:
        rep = msu.is_not_shifted(space)
        assert len(rep.isometries) == 1 and rep.isometries[0].image == tuple(range(space.n))


def test_two_point_space_has_identity_and_swap():
    rep = msu.is_not_shifted(pair(1))
    assert msu.classify_space(pair(1)).strongly_rigid
    assert sorted(m.image for m in rep.isometries) == [(0, 1), (1, 0)]


# Three distances, realised exactly or as floats.  A float 1.0 or 1.5 may
# move to the last value still close to it or one ulp beyond, and a lower
# triangle entry may differ from its transpose in the last bit, so float
# answers hinge on which entry is compared with which.
EXACT_VALUES = (1, Fraction(5, 4), Fraction(3, 2))
FLOAT_VALUES = (1.0, 1.25, 1.5)
EDGES = {1.0: close_edge(1.0), 1.5: close_edge(1.5)}


def _pattern(rng, n):
    return [[rng.randrange(3) for _ in range(n)] for _ in range(n)]


def _realise(rng, pattern, mode):
    n = len(pattern)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if mode == "exact":
                rows[i][j] = rows[j][i] = EXACT_VALUES[pattern[i][j]]
                continue
            v = FLOAT_VALUES[pattern[i][j]]
            if v in EDGES and rng.random() < 0.3:
                v = EDGES[v] if rng.random() < 0.5 else math.nextafter(EDGES[v], math.inf)
            w = v
            if rng.random() < 0.3:
                w = math.nextafter(v, rng.choice((0, math.inf)))
            if mode == "int-float" and v == 1.0:
                v = w = 1
            rows[i][j], rows[j][i] = v, w
    return msu.validate_space(rows)


MODES = {
    "exact": ("exact", "exact"),
    "float": ("float", "float"),
    "exact-into-float": ("exact", "float"),
    "float-into-exact": ("float", "exact"),
    "int-float-rows": ("int-float", "int-float"),
}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.sampled_from(sorted(MODES)))
def test_prop_find_embeddings_match_brute_force_in_order_and_limit(seed, modes):
    rng = random.Random(seed)
    dom_mode, cod_mode = MODES[modes]
    m = rng.randint(1, 6)
    cod_pattern = _pattern(rng, m)
    if rng.random() < 0.6:
        pick = rng.sample(range(m), rng.randint(1, m))
        dom_pattern = [[cod_pattern[a][b] for b in pick] for a in pick]
    else:
        dom_pattern = _pattern(rng, rng.randint(1, 4))
    dom, cod = _realise(rng, dom_pattern, dom_mode), _realise(rng, cod_pattern, cod_mode)
    want = brute_embeddings(dom, cod)
    assert loop_embeddings(dom, cod) == want
    assert [pm.image for pm in msu.find_embeddings(dom, cod)] == want
    for limit in range(1, len(want) + 1):
        assert [pm.image for pm in msu.find_embeddings(dom, cod, limit)] == want[:limit]
        assert loop_embeddings(dom, cod, limit) == want[:limit]


def test_transposed_entries_are_read_as_the_search_reads_them():
    # d'(1, 0) is close to 1.0 and d'(0, 1) one ulp beyond: only the map
    # whose later domain point lands on codomain point 1 preserves d(1, 0).
    edge = EDGES[1.0]
    cod = msu.validate_space([[0, math.nextafter(edge, math.inf)], [edge, 0]])
    maps = [pm.image for pm in msu.find_embeddings(pair(1.0), cod)]
    assert maps == brute_embeddings(pair(1.0), cod) == [(0, 1)]


def _complete_graph(nx, space):
    """The complete graph of a space, each edge carrying its distance."""
    g = nx.Graph()
    g.add_nodes_from(range(space.n))
    for i in range(space.n):
        for j in range(i + 1, space.n):
            g.add_edge(i, j, d=space.dist(i, j))
    return g


@pytest.mark.parametrize("seed", range(3))
def test_planted_subspaces_match_networkx(seed):
    iso = pytest.importorskip("networkx.algorithms.isomorphism")
    import networkx as nx

    rng = random.Random(seed)
    m, k, den = rng.randint(30, 40), rng.randint(5, 7), rng.randint(1, 3)
    # Entries in [3, 6] / den: every triangle holds, and few values make
    # many partial matches for the search to cut.
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(3, 6), den)
    cod = msu.validate_space(rows)
    planted = tuple(rng.sample(range(m), k))
    dom = cod.restrict(planted)
    complete = partial(_complete_graph, nx)
    matcher = iso.GraphMatcher(complete(cod), complete(dom), edge_match=lambda a, b: a["d"] == b["d"])
    expected = sorted(
        tuple(c for _, c in sorted((d, c) for c, d in mapping.items()))
        for mapping in matcher.subgraph_isomorphisms_iter()
    )
    maps = [pm.image for pm in msu.find_embeddings(dom, cod)]
    assert planted in maps
    assert maps == expected


def _noisy_float_grid(rng, m, step):
    """L1 distances of m distinct grid points times `step`, each off by up
    to 1e-12 relative (far inside the default tolerance), so that equal
    distances match only through the tolerance rule."""
    pts = rng.sample([(x, y) for x in range(7) for y in range(7)], m)
    rows = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = step * (abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1]))
            rows[i][j] = rows[j][i] = d * (1 + rng.uniform(-1e-12, 1e-12))
    return msu.validate_space(rows)


@pytest.mark.parametrize("seed", range(3))
def test_planted_float_subspaces_match_networkx(seed):
    iso = pytest.importorskip("networkx.algorithms.isomorphism")
    import networkx as nx

    rng = random.Random(seed)
    cod = _noisy_float_grid(rng, rng.randint(30, 40), rng.choice((0.1, 0.3)))
    planted = tuple(rng.sample(range(cod.n), rng.randint(4, 6)))
    dom = cod.restrict(planted)
    complete = partial(_complete_graph, nx)

    def same(a, b):
        # the search's test: close(domain distance, codomain distance)
        return msu.scalars.close(b["d"], a["d"], cod.tol)

    matcher = iso.GraphMatcher(complete(cod), complete(dom), edge_match=same)
    expected = sorted(
        tuple(c for _, c in sorted((d, c) for c, d in mapping.items()))
        for mapping in matcher.subgraph_isomorphisms_iter()
    )
    maps = [pm.image for pm in msu.find_embeddings(dom, cod)]
    assert planted in maps
    assert maps == expected


def test_valid_float_kernels_make_no_scalar_compare(monkeypatch):
    # Each float kernel picks scalars.tolerant once per call, so a valid
    # float space is checked, searched and classified with no close, leq
    # or positive call.
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    for mod in (msu.scalars, msu.spaces, msu.embed, msu.between):
        for name in ("close", "leq", "positive"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
    rng = random.Random(40)
    cod = _noisy_float_grid(rng, 40, 0.1)
    assert not calls
    dom = cod.restrict(rng.sample(range(40), 5))
    assert msu.find_embeddings(dom, cod)
    small = cod.restrict(range(8))
    msu.classify_space(small)
    msu.is_ultrametric(small)
    msu.is_mb_space(small)
    assert not calls


def _cycle(n, scale):
    return [[scale * min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]


def _homogeneity_case(rng):
    kind = rng.randrange(4)
    n = rng.randint(1, 6)
    if kind == 0:
        return _mixed_space(rng, 6)
    if kind == 1:
        return equilateral(n, rng.randint(1, 3))
    if kind == 2:
        # Blocks of one size at distance 1 inside and 2 across: homogeneous;
        # a block of another size breaks it.
        sizes = [rng.randint(1, 3)] * rng.randint(1, 2)
        if rng.random() < 0.4:
            sizes.append(rng.randint(1, 3))
        block = [b for b, size in enumerate(sizes) for _ in range(size)]
        return msu.validate_space(
            [[0 if i == j else 1 if a == b else 2 for j, b in enumerate(block)] for i, a in enumerate(block)]
        )
    rows = _cycle(max(n, 3), Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    if rng.random() < 0.4:
        # Stretch one distance: the cycle is no longer vertex-transitive.
        rows[0][1] = rows[1][0] = rows[0][1] * Fraction(5, 4)
    return msu.validate_space(rows)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.booleans())
def test_prop_pinned_homogeneity_matches_the_self_maps(seed, floats):
    space = _homogeneity_case(random.Random(seed))
    if floats:
        space = msu.validate_space([[float(v) for v in row] for row in space.matrix])
    starts = {image[0] for image in loop_embeddings(space, space)}
    assert msu.classify_space(space).homogeneous == (starts == set(range(space.n)))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.booleans())
def test_prop_homogeneity_matches_the_starts_of_found_self_maps(seed, floats):
    # Two deciders of one property: the pinned searches of classify_space,
    # and the first images of every self-map find_embeddings lists.
    space = _homogeneity_case(random.Random(seed))
    if floats:
        space = msu.validate_space([[float(v) for v in row] for row in space.matrix])
    starts = {m.image[0] for m in msu.find_embeddings(space, space)}
    assert msu.classify_space(space).homogeneous == all(j in starts for j in range(space.n))


def _compare_pair(rng):
    """Two spaces that embed one way, both ways (relabelled copies) or not
    at all, in either order, each exact or float."""
    x = _mixed_space(rng, 5)
    kind = rng.randrange(3)
    if kind == 0:
        y = _mixed_space(rng, 5)
    else:
        idx = list(range(x.n))
        rng.shuffle(idx)
        y = x.restrict(idx[: rng.randint(1, x.n)] if kind == 1 else idx)
    pair_ = [x, y]
    rng.shuffle(pair_)
    for at, s in enumerate(pair_):
        if rng.random() < 0.3:
            pair_[at] = msu.validate_space([[float(v) for v in row] for row in s.matrix])
    return pair_


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_compare_agrees_with_two_embeds_calls(seed):
    left, right = _compare_pair(random.Random(seed))
    lr, rl = msu.embeds(left, right), msu.embeds(right, left)
    assert lr == bool(brute_embeddings(left, right))
    assert rl == bool(brute_embeddings(right, left))
    want = {
        (True, True): msu.Comparability.BOTH_EMBED,
        (True, False): msu.Comparability.LEFT_EMBEDS,
        (False, True): msu.Comparability.RIGHT_EMBEDS,
        (False, False): msu.Comparability.INCOMPARABLE,
    }[lr, rl]
    assert msu.compare(left, right) is want


def test_homogeneity_builds_one_map_per_point(monkeypatch):
    # All 9! self-maps of equilateral(9) were listed to decide this before.
    built = []

    def counting(image):
        built.append(image)
        return PointMap(image)

    PointMap = msu.embed.PointMap
    monkeypatch.setattr(msu.embed, "PointMap", counting)
    assert msu.classify_space(equilateral(9)).homogeneous
    assert len(built) <= 9


def _rigidity_values(rng, kind, count):
    if kind == "exact":
        return [Fraction(rng.randint(8, 16), 8) for _ in range(count)]
    if kind == "float":
        pool = [rng.uniform(1.0, 2.0) for _ in range(count)]
        return [rng.choice(pool) for _ in range(count)]
    # Chains of values one tolerance step apart, and one ulp past the step:
    # neighbours are close while the ends of a chain may not be.
    out = []
    while len(out) < count:
        v = rng.uniform(1.0, 1.9)
        for _ in range(rng.randint(1, 3)):
            out.append(v)
            v = close_edge(v)
            if rng.random() < 0.5:
                v = math.nextafter(v, math.inf)
    return out[:count]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.sampled_from(("exact", "float", "edge")))
def test_prop_strongly_rigid_matches_the_pairwise_scan(seed, kind):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    values = _rigidity_values(rng, kind, n * (n - 1) // 2)
    rng.shuffle(values)
    rows = [[0] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(it)
    space = msu.validate_space(rows)
    off = [space.dist(i, j) for i in range(n) for j in range(i + 1, n)]
    assert msu.classify_space(space).strongly_rigid == pairwise_distinct(off, space.tol)


def _two_scales(rng):
    """A codomain and a domain whose int rows have different scales.

    The codomain is a closure metric over a denominator of 6, 10 or 12,
    plus one far point at a distance over 7 or 11, which no other entry
    shares.  The domain is mostly a shuffled restriction, whose entries
    reduce over divisors of that denominator (and take the far point only
    sometimes); otherwise a closure metric over a denominator of 1 to 5.
    """
    m = rng.randint(1, 6)
    rows = random_rational_metric(rng, m, dens=(6, 10, 12))
    far = max(max(r) for r in rows) + Fraction(rng.randint(1, 3), rng.choice((7, 11)))
    rows = [r + [far] for r in rows] + [[far] * m + [0]]
    cod = msu.validate_space(rows)
    if rng.random() < 0.3:
        return random_space(rng, rng.randint(1, 3)), cod
    points = m + 1 if rng.random() < 0.2 else m
    return cod.restrict(rng.sample(range(points), rng.randint(1, points))), cod


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_find_embeddings_across_scales_match_brute_force(seed):
    dom, cod = _two_scales(random.Random(seed))
    want = brute_embeddings(dom, cod)
    assert [pm.image for pm in msu.find_embeddings(dom, cod)] == want
    for limit in range(1, len(want) + 1):
        assert [pm.image for pm in msu.find_embeddings(dom, cod, limit)] == want[:limit]


def test_distance_off_the_codomain_scale_gets_no_map():
    # The codomain's int rows are over 2; 1/7 and 15/7 are no integer there.
    cod = from_coords([0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3])
    assert cod.scaled[0] == 2
    for dom in (pair(Fraction(1, 7)), from_coords([0, 1, Fraction(15, 7)])):
        assert msu.find_embeddings(dom, cod) == [] == brute_embeddings(dom, cod)
        assert not msu.embeds(dom, cod)
    assert [pm.image for pm in msu.find_embeddings(pair(Fraction(3, 2)), cod)] == [
        (0, 3), (1, 4), (3, 0), (3, 5), (4, 1), (5, 3)
    ]


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_scaling_both_spaces_keeps_maps_traits_and_mb(seed):
    # Multiplying every distance by r > 0 changes no answer, except that
    # "discrete" then asks whether every distance was 1/r.
    rng = random.Random(seed)
    r = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    roll = rng.random()
    if roll < 0.2:
        d = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        cod = equilateral(rng.randint(2, 5), d)
        dom = equilateral(rng.randint(1, cod.n), d)
        r = rng.choice((r, 1 / d))
    elif roll < 0.4:
        den = rng.randint(1, 4)
        cod = from_coords([Fraction(c, den) for c in sorted(rng.sample(range(0, 30), rng.randint(1, 6)))])
        dom = cod.restrict(rng.sample(range(cod.n), rng.randint(1, cod.n)))
    else:
        dom, cod = _two_scales(rng)

    def times_r(space):
        return msu.validate_space([[v * r for v in row] for row in space.matrix], space.labels)

    assert msu.find_embeddings(times_r(dom), times_r(cod)) == msu.find_embeddings(dom, cod)
    assert msu.find_embeddings(times_r(dom), times_r(cod), 1) == msu.find_embeddings(dom, cod, 1)
    for space in (dom, cod):
        off = [space.dist(i, j) for i in range(space.n) for j in range(i + 1, space.n)]
        want = dataclasses.replace(msu.classify_space(space), discrete=all(v * r == 1 for v in off))
        assert msu.classify_space(times_r(space)) == want
        assert msu.is_mb_space(times_r(space)) == msu.is_mb_space(space)


def test_kept_rows_stay_out_of_eq_hash_and_repr():
    rows = [[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, Fraction(1, 2)], [1, Fraction(1, 2), 0]]
    # validate_space fills the kept rows as it scans; metric_space does not.
    used = msu.validate_space(rows)
    fresh = msu.spaces.metric_space(rows, used.labels, used.tol)
    assert "scaled" in vars(used) and "scaled" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used.scaled is used.scaled and used.scaled == (2, ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    assert msu.validate_space([[0.0, 0.5], [0.5, 0.0]]).scaled is None
