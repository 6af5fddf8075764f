import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msu
from conftest import (
    brute_embeddings,
    equilateral,
    from_coords,
    pair,
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
