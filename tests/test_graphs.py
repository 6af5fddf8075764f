import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msu
from conftest import cycle_weight_oracle, fraction_shortest_paths, random_int_metric


def path_abc(w1, w2):
    return msu.build_graph(["a", "b", "c"], [("a", "b", w1), ("b", "c", w2)])


def triangle(w1, w2, w3):
    return msu.build_graph(
        ["a", "b", "c"], [("a", "b", w1), ("b", "c", w2), ("a", "c", w3)]
    )


def test_build_graph_validation():
    with pytest.raises(msu.InputFormatError):
        msu.build_graph(["a", "a"], [])
    with pytest.raises(msu.InputFormatError):
        msu.build_graph(["a", "b"], [("a", "a", 1)])
    with pytest.raises(msu.InputFormatError):
        msu.build_graph(["a", "b"], [("a", "b", 1), ("b", "a", 2)])
    with pytest.raises(msu.InputFormatError):
        msu.build_graph(["a", "b"], [("a", "b", -1)])
    with pytest.raises(msu.InputFormatError):
        msu.build_graph(["a", "b"], [("a", "c", 1)])


def test_integer_endpoints_accepted():
    g = msu.build_graph(["a", "b"], [(0, 1, 2)])
    assert g.edges == ((0, 1, 2),)


def test_shortest_path_examples():
    assert msu.shortest_path_pseudometric(path_abc(1, 2))[0][2] == 3
    assert msu.shortest_path_pseudometric(triangle(1, 1, 2))[0][2] == 2
    assert msu.shortest_path_pseudometric(triangle(1, 1, 3))[0][2] == 2


def test_disconnected_raises():
    g = msu.build_graph(["a", "b", "c"], [("a", "b", 1)])
    with pytest.raises(msu.DisconnectedGraphError) as err:
        msu.shortest_path_pseudometric(g)
    assert err.value.pair == (0, 2)
    assert "'c'" in str(err.value)


def test_metrize_examples():
    rep = msu.check_metrizability(triangle(1, 1, 3))
    assert not rep.pseudometrizable and not rep.metrizable
    assert rep.violating_cycle == (0, 1, 2)

    rep = msu.check_metrizability(triangle(3, 4, 5))
    assert rep.metrizable
    assert rep.metric.matrix == ((0, 3, 5), (3, 0, 4), (5, 4, 0))

    rep = msu.check_metrizability(path_abc(0, 1))
    assert rep.pseudometrizable and not rep.metrizable and rep.metric is None


def test_metrize_empty_graph_rejected():
    with pytest.raises(msu.InputFormatError):
        msu.check_metrizability(msu.build_graph([], []))


def test_exact_and_float_modes_agree_on_ints():
    gi = triangle(1, 1, 2)
    gf = msu.build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 2.0)])
    di = msu.shortest_path_pseudometric(gi)
    df = msu.shortest_path_pseudometric(gf)
    assert all(float(di[i][j]) == df[i][j] for i in range(3) for j in range(3))


def random_connected_graph(rng, n, weights=(0, 1, 2, 3)):
    edges = []
    nodes = list(range(n))
    rng.shuffle(nodes)
    for t in range(1, n):
        u = nodes[rng.randint(0, t - 1)]
        edges.append((min(u, nodes[t]), max(u, nodes[t]), rng.choice(weights)))
    present = {(u, v) for u, v, _ in edges}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < 0.4:
                edges.append((i, j, rng.choice(weights)))
    labels = [f"v{i}" for i in range(n)]
    return msu.build_graph(labels, edges), edges


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_edge_criterion_matches_cycle_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g, edges = random_connected_graph(rng, n)
    rep = msu.check_metrizability(g)
    assert rep.pseudometrizable == cycle_weight_oracle(n, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.booleans())
def test_prop_pseudometric_axioms(seed, floats):
    # Oracle for the shortest-path rule, which the library does not re-check.
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    weights = (1, 2, 3, 5)
    if floats:
        weights = tuple(rng.uniform(0.1, 5.0) for _ in range(4))
    g, _ = random_connected_graph(rng, n, weights=weights)
    d = msu.shortest_path_pseudometric(g)
    slack = 1e-12 if floats else 0
    for i in range(n):
        assert d[i][i] == 0
        for j in range(n):
            assert d[i][j] == d[j][i]
            for k in range(n):
                assert d[i][j] <= (d[i][k] + d[k][j]) * (1 + slack)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.booleans())
def test_prop_metric_is_the_validated_pseudometric(seed, floats):
    # The metrizable result is built without re-validation; validate it here.
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    if rng.random() < 0.5:
        m = random_int_metric(rng, n)
        edges = [(i, j, m[i][j]) for i in range(n) for j in range(i + 1, n)]
        g = msu.build_graph([f"v{i}" for i in range(n)], edges)
    else:
        g, edges = random_connected_graph(rng, n, weights=(1, 2, 3, 5))
    if floats:
        g = msu.build_graph(g.labels, [(i, j, float(w)) for i, j, w in g.edges])
    rep = msu.check_metrizability(g)
    assert rep.pseudometric == msu.shortest_path_pseudometric(g)
    if rep.metrizable:
        want = msu.validate_space(rep.pseudometric, g.labels, tol=g.tol)
        assert rep.metric == want
        got_types = [type(v) for row in rep.metric.matrix for v in row]
        assert got_types == [type(v) for row in want.matrix for v in row]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_violating_cycle_is_a_witness(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    g, edges = random_connected_graph(rng, n)
    rep = msu.check_metrizability(g)
    if rep.violating_cycle is None:
        return
    cyc = rep.violating_cycle
    lookup = {}
    for u, v, w in edges:
        lookup[(u, v)] = lookup[(v, u)] = w
    ring = list(cyc) + [cyc[0]]
    total = sum(lookup[(ring[t], ring[t + 1])] for t in range(len(cyc)))
    assert any(2 * lookup[(ring[t], ring[t + 1])] > total for t in range(len(cyc)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_exact_shortest_paths_keep_values_and_types(seed):
    # Weights are all Fractions (the int-scaled search), all ints, or a mix
    # of ints and Fractions, with ties between paths; each entry must be
    # the unscaled sum along the same path, type included, since reports
    # print 2 and "2" apart.
    rng = random.Random(seed)
    fractions = (Fraction(0), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 3))
    pool = rng.choice((fractions, (0, 1, 2, 3), (0, 1, 2, 3) + fractions))
    graph, _ = random_connected_graph(rng, rng.randint(1, 7), weights=pool)
    got = msu.shortest_path_pseudometric(graph)
    want = fraction_shortest_paths(graph)
    assert [[(type(v), v) for v in row] for row in got] == [
        [(type(v), v) for v in row] for row in want
    ]
    report = msu.check_metrizability(graph)
    assert report.pseudometric == got
    # The edge and sign tests, which run on the int-scaled rows, read off
    # the unscaled oracle.
    bad = [(i, j) for i, j, w in graph.edges if want[i][j] != w]
    assert report.pseudometrizable == (not bad)
    if bad:
        cycle = report.violating_cycle
        assert (cycle[0], cycle[-1]) == bad[0]
    apart = all(want[i][j] > 0 for i in range(graph.n) for j in range(i + 1, graph.n))
    assert report.metrizable == (not bad and apart)
