import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msu
from conftest import (
    from_coords, pair, quad, random_rational_metric, random_space, random_ultrametric,
)


def float_twin(space):
    return msu.validate_space([[float(v) for v in row] for row in space.matrix])


def mixed_space(rng, n):
    """A random exact space whose integral entries are ints or Fractions."""
    m = random_rational_metric(rng, n, dens=(1, 1, 2, 3))
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j].denominator == 1 and rng.random() < 0.5:
                m[i][j] = m[j][i] = int(m[i][j])
    return msu.validate_space(m)


def anchor_graph_distances(parts, anchors, eps1):
    """The anchored union by shortest paths through msu.graphs: each part
    complete on its own distances, the anchors complete at eps1."""
    base, edges, hubs = 0, [], []
    for part, x in zip(parts, anchors):
        m = part.matrix
        edges += [(base + a, base + b, m[a][b]) for a in range(part.n) for b in range(a + 1, part.n)]
        hubs.append(base + x)
        base += part.n
    edges += [(g, h, eps1) for k, g in enumerate(hubs) for h in hubs[k + 1 :]]
    graph = msu.build_graph([str(v) for v in range(base)], edges, tol=max(p.tol for p in parts))
    return msu.shortest_path_pseudometric(graph)


def test_glue_ultrametric_cross_values():
    u = msu.glue_ultrametric_pair(pair(1), pair(2), 0, 0, Fraction(3, 2))
    m = u.space.matrix
    assert (m[0][2], m[0][3], m[1][2], m[1][3]) == (Fraction(3, 2), 2, Fraction(3, 2), 2)
    assert msu.is_ultrametric(u.space)


def test_glue_two_points():
    single = msu.validate_space([[0]])
    u = msu.glue_ultrametric_pair(single, single, 0, 0, 5)
    assert u.space.matrix == ((0, 5), (5, 0))


def test_glue_max_formula_dominates():
    u = msu.glue_ultrametric_pair(pair(3), msu.validate_space([[0]]), 0, 0, 1)
    assert u.space.matrix[1][2] == 3


def test_glue_labels_and_parts():
    u = msu.glue_ultrametric_pair(pair(1), pair(2), 0, 0, 2)
    assert u.space.labels == ("0:p0", "0:p1", "1:p0", "1:p1")
    assert u.parts == ((0, 1), (2, 3))
    assert u.part_space(1).matrix == pair(2).matrix


def test_glue_requires_ultrametric_parts():
    with pytest.raises(msu.NotUltrametricError):
        msu.glue_ultrametric_pair(from_coords([0, 1, 2]), pair(1), 0, 0, 1)


def test_glue_requires_positive_radius():
    with pytest.raises(msu.NonpositiveDistanceError):
        msu.glue_ultrametric_pair(pair(1), pair(2), 0, 0, 0)


def test_glue_random_ultrametrics_stay_ultrametric():
    rng = random.Random(11)
    for _ in range(25):
        x = random_ultrametric(rng, rng.randint(1, 5))
        y = random_ultrametric(rng, rng.randint(1, 5))
        r0 = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        u = msu.glue_ultrametric_pair(x, y, rng.randrange(x.n), rng.randrange(y.n), r0)
        assert msu.is_ultrametric(u.space)


def test_glue_constant_examples():
    u = msu.glue_constant(pair(1), pair(2), 2)
    assert all(u.space.matrix[i][j] == 2 for i in (0, 1) for j in (2, 3))
    singles = msu.validate_space([[0]])
    assert msu.glue_constant(singles, singles, 1).space.matrix == ((0, 1), (1, 0))
    with pytest.raises(msu.RadiusTooSmallError):
        msu.glue_constant(pair(1), pair(2), 1)


def test_connectivity_threshold_and_connectedness():
    s = from_coords([0, Fraction(1, 2), 1])
    assert msu.connectivity_threshold(s) == Fraction(1, 2)
    assert msu.is_epsilon_connected(s, Fraction(1, 2))
    gap = from_coords([0, Fraction(1, 2), 2])
    assert not msu.is_epsilon_connected(gap, Fraction(1, 2))
    assert msu.is_epsilon_connected(msu.validate_space([[0]]), Fraction(1, 100))


def test_union_epsilon_connected_cross_distance():
    a = from_coords([0, Fraction(1, 2)])
    b = from_coords([0, Fraction(7, 10)])
    u = msu.union_epsilon_connected([a, b], [0, 0], 1)
    assert u.space.matrix[1][3] == Fraction(11, 5)
    # anchor-to-anchor equals eps1, in-part entries are the part's own
    assert u.space.matrix[0][2] == 1
    assert u.space.matrix[0][1] == Fraction(1, 2)
    assert u.space.matrix[2][3] == Fraction(7, 10)


def test_union_epsilon_single_part_is_identity():
    a = from_coords([0, Fraction(1, 2)])
    u = msu.union_epsilon_connected([a], [0], 1)
    assert u.space.matrix == a.matrix


def test_union_epsilon_threshold_enforced():
    a = from_coords([0, Fraction(1, 2)])
    b = from_coords([0, Fraction(7, 10)])
    with pytest.raises(msu.EpsilonTooSmallError):
        msu.union_epsilon_connected([a, b], [0, 0], Fraction(3, 5))
    with pytest.raises(msu.EpsilonTooSmallError):
        msu.union_epsilon_connected([a, b], [0, 0], Fraction(7, 10))


def test_union_ultrametric_family_examples():
    u = msu.union_ultrametric_family([Fraction(1, 2), Fraction(7, 10)], [0, 1])
    vals = sorted({v for row in u.space.matrix for v in row if v != 0})
    assert vals == [Fraction(1, 2), Fraction(7, 10), 1]
    assert msu.is_ultrametric(u.space)

    u = msu.union_ultrametric_family([Fraction(1, 2), Fraction(3, 2)], [0, 1, 2])
    assert u.space.matrix[0][2] == 2

    with pytest.raises(msu.SeparatorError):
        msu.union_ultrametric_family([1], [0, 1])
    with pytest.raises(msu.SeparatorError):
        msu.union_ultrametric_family([2], [0, 1])
    with pytest.raises(msu.SeparatorError):
        msu.union_ultrametric_family([Fraction(1, 2)], [1, 2])


def test_union_ultrametric_family_rejects_values_within_tolerance():
    with pytest.raises(msu.InputFormatError):
        msu.union_ultrametric_family([1.0, 1.0000000000001], [0, 2.0])
    with pytest.raises(msu.SeparatorError):
        msu.union_ultrametric_family([1.0000000000001], [0, 1.0, 2.0])
    with pytest.raises(msu.SeparatorError):
        msu.union_ultrametric_family([0.9999999999999], [0, 1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.booleans())
def test_prop_union_ultrametric_family_hits_each_distance_once(seed, floats):
    # Oracle for the two union properties the builder no longer re-checks.
    rng = random.Random(seed)
    seps = [0] + sorted(rng.sample(range(1, 20), rng.randint(1, 4)))
    ts = set()
    for _ in range(rng.randint(1, 6)):
        k = rng.randrange(1, len(seps))
        ts.add(seps[k - 1] + Fraction(rng.randint(1, 9), 10) * (seps[k] - seps[k - 1]))
    ts = sorted(ts)
    if floats:
        ts, seps = [float(t) for t in ts], [float(v) for v in seps]
    u = msu.union_ultrametric_family(ts, seps)
    m, n = u.space.matrix, u.space.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert m[i][j] <= max(m[i][k], m[k][j])
    for t in ts:
        hits = [(i, j) for i in range(n) for j in range(i + 1, n) if msu.close(m[i][j], t)]
        assert len(hits) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.booleans())
def test_prop_union_epsilon_connected_is_a_metric_keeping_parts(seed, floats):
    # Oracle for the axioms and restrictions the builder no longer re-checks.
    rng = random.Random(seed)
    parts = [random_space(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
    anchors = [rng.randrange(p.n) for p in parts]
    eps1 = max(msu.connectivity_threshold(p) for p in parts) + Fraction(
        rng.randint(1, 6), rng.choice((1, 2, 3))
    )
    if floats:
        parts, eps1 = [float_twin(p) for p in parts], float(eps1)
    u = msu.union_epsilon_connected(parts, anchors, eps1)
    assert msu.metric_violations(u.space.matrix, u.space.tol) == []
    for i, part in enumerate(parts):
        got = u.part_space(i).matrix
        for a in range(part.n):
            for b in range(part.n):
                if floats:
                    assert msu.close(got[a][b], part.matrix[a][b], part.tol)
                else:
                    assert got[a][b] == part.matrix[a][b]


@pytest.mark.parametrize("floats", [False, True])
def test_union_epsilon_connected_matches_the_shortest_path_oracle(floats):
    # Exact entries equal the search's in value and type; float entries may
    # differ in the last bit, where the search took a detour that only
    # rounding made shorter.
    rng = random.Random(31 + floats)
    for _ in range(150):
        parts = [mixed_space(rng, rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        anchors = [rng.randrange(p.n) for p in parts]
        eps1 = max(msu.connectivity_threshold(p) for p in parts) + Fraction(
            rng.randint(1, 6), rng.choice((1, 2, 3))
        )
        if eps1.denominator == 1 and rng.random() < 0.5:
            eps1 = int(eps1)
        if floats:
            parts, eps1 = [float_twin(p) for p in parts], float(eps1)
        u = msu.union_epsilon_connected(parts, anchors, eps1)
        want = anchor_graph_distances(parts, anchors, eps1)
        for row, want_row in zip(u.space.matrix, want):
            for got, w in zip(row, want_row):
                if floats:
                    assert abs(got - w) <= 1e-15 * max(abs(got), abs(w))
                else:
                    assert (type(got), got) == (type(w), w)
        assert msu.metric_violations(u.space.matrix, u.space.tol) == []


def test_assembled_unions_restrict_to_their_parts():
    # Oracle for the axioms and restrictions _assemble no longer re-checks.
    rng = random.Random(23)
    for _ in range(10):
        x, y = random_ultrametric(rng, rng.randint(1, 5)), random_ultrametric(rng, rng.randint(1, 5))
        s1, s2 = random_space(rng, rng.randint(1, 5)), random_space(rng, rng.randint(1, 5))
        bound = max(s1.diameter(), s2.diameter(), 1)
        fx, fy, f1, f2 = (float_twin(s) for s in (x, y, s1, s2))
        built = [
            (msu.glue_ultrametric_pair(x, y, 0, y.n - 1, rng.randint(1, 9)), (x, y)),
            (msu.glue_constant(s1, s2, bound + rng.randint(0, 3)), (s1, s2)),
            (msu.glue_ultrametric_pair(fx, fy, 0, fy.n - 1, rng.randint(1, 9) / 2), (fx, fy)),
            # r0 just under the diameter bound, inside the tolerance
            (msu.glue_constant(f1, f2, float(bound) * (1 - 0.9e-9)), (f1, f2)),
        ]
        for u, parts in built:
            assert msu.metric_violations(u.space.matrix, u.space.tol) == []
            for i, part in enumerate(parts):
                assert u.part_space(i).matrix == part.matrix
    quads = [quad(1, 2), quad(1, 3), quad(2, 5)]
    for qs in (quads, [float_twin(q) for q in quads]):
        u = msu.union_pl_quadruples(qs)
        assert msu.metric_violations(u.space.matrix, u.space.tol) == []
        assert [u.part_space(i).matrix for i in range(3)] == [q.matrix for q in qs]
    exact = [Fraction(1, 2), 2, Fraction(5, 2)]
    for ts, seps in ((exact, [0, 1, 3]), ([float(t) for t in exact], [0.0, 1.0, 3.0])):
        u = msu.union_ultrametric_family(ts, seps)
        assert msu.metric_violations(u.space.matrix, u.space.tol) == []
        assert [u.part_space(i).matrix for i in range(3)] == [pair(t).matrix for t in ts]


def test_union_pl_quadruples_examples():
    u = msu.union_pl_quadruples([quad(1, 2), quad(1, 3)])
    assert all(u.space.matrix[i][j] == 4 for i in range(4) for j in range(4, 8))
    assert msu.union_pl_quadruples([quad(1, 2)]).space.matrix == quad(1, 2).matrix
    with pytest.raises(msu.IsometricDuplicateError):
        msu.union_pl_quadruples([quad(1, 2), quad(1, 2)])
    with pytest.raises(msu.NotPseudolinearError):
        msu.union_pl_quadruples([from_coords([0, 1, 3, 4])])


BIG = msu.union_pl_quadruples([quad(1, 2), quad(1, 3)])
BR = msu.BridgeParams(Fraction(7, 2), msu.TaggedPoint(0, 1), Fraction(1, 2))


def test_m_distance_cases():
    assert msu.m_distance(msu.RealPoint(0), msu.RealPoint(3), BIG, BR) == 3
    bridge_pt = msu.QuadPoint(msu.TaggedPoint(0, 1))
    assert msu.m_distance(msu.RealPoint(BR.p), bridge_pt, BIG, BR) == Fraction(1, 2)
    # one unit along the line, then the bridge, then two inside the quadruple
    far = msu.QuadPoint(msu.TaggedPoint(0, 2))
    assert msu.m_distance(msu.RealPoint(BR.p + 1), far, BIG, BR) == Fraction(7, 2)


def test_m_distance_symmetry():
    rng = random.Random(3)
    pts = [msu.RealPoint(Fraction(rng.randint(-8, 8), 2)) for _ in range(3)]
    pts += [msu.QuadPoint(msu.TaggedPoint(p, i)) for p in (0, 1) for i in range(4)]
    for x in pts:
        for y in pts:
            assert msu.m_distance(x, y, BIG, BR) == msu.m_distance(y, x, BIG, BR)


def test_sample_m_space_examples():
    s = msu.sample_m_space([msu.RealPoint(0), msu.RealPoint(1), msu.RealPoint(2)], BIG, BR)
    assert s.matrix == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    s = msu.sample_m_space([msu.RealPoint(BR.p), msu.QuadPoint(BR.b)], BIG, BR)
    assert s.matrix == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))
    assert s.labels == ("r:7/2", "q:0.1")


def test_sample_m_space_rejects_duplicates():
    with pytest.raises(msu.DuplicatePointError):
        msu.sample_m_space([msu.RealPoint(1), msu.RealPoint(1)], BIG, BR)


def test_sample_m_space_rejects_float_points_closer_than_tolerance():
    with pytest.raises(msu.InvalidMetricError):
        msu.sample_m_space([msu.RealPoint(0.0), msu.RealPoint(1e-12)], BIG, BR)


def test_bridge_params_positive_r():
    with pytest.raises(msu.NonpositiveDistanceError):
        msu.BridgeParams(0, msu.TaggedPoint(0, 0), 0)


def test_verify_minimal_union_passes_and_fails():
    a = from_coords([0, Fraction(1, 2)])
    b = from_coords([0, Fraction(7, 10)])
    rep = msu.verify_minimal_union(msu.union_epsilon_connected([a, b], [0, 0], 1))
    assert rep.passed and rep.copy_counts == (1, 1)

    twin = msu.glue_constant(pair(1), pair(1), 1)
    rep = msu.verify_minimal_union(twin)
    assert not rep.passed and rep.comparable_pairs

    rep = msu.verify_minimal_union(BIG)
    assert rep.passed and rep.copy_counts == (1, 1)
    assert rep.payload()["shifted_parts"] == []


def test_verify_reports_extra_copies():
    # Halving an equilateral four-point space leaves six copies of each pair.
    e4 = msu.validate_space([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    u = msu.UnionSpace(e4, ((0, 1), (2, 3)), {"builder": "test"})
    rep = msu.verify_minimal_union(u)
    assert not rep.passed
    assert rep.copy_counts == (6, 6)
    assert rep.comparable_pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_union_verifier_and_minimality_decider_agree(seed):
    # Two deciders of one theorem: pairwise incomparable parts with one copy
    # each in the union (verify_minimal_union), and a union from which no
    # point can be spared (is_minimal_universal_space).  Some parts repeat
    # or restrict another, so both answers occur.
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(1, 3)):
        if parts and rng.random() < 0.3:
            other = rng.choice(parts)
            parts.append(other.restrict(rng.sample(range(other.n), rng.randint(1, other.n))))
        else:
            parts.append(random_space(rng, rng.randint(1, 4)))
    anchors = [rng.randrange(p.n) for p in parts]
    eps1 = max(msu.connectivity_threshold(p) for p in parts) + Fraction(
        rng.randint(1, 6), rng.choice((1, 2, 3))
    )
    u = msu.union_epsilon_connected(parts, anchors, eps1)
    family = msu.SpaceFamily(tuple(parts))
    assert msu.verify_minimal_union(u).passed == msu.is_minimal_universal_space(family, u.space).minimal
