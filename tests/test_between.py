import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msu
from conftest import (
    brute_is_mb_space,
    brute_line_embeddable,
    cayley_menger_matrix,
    cofactor_det,
    equilateral,
    from_coords,
    quad,
    random_rational_metric,
    random_space,
)
from msu.scalars import integer_rows

TRI_123 = msu.validate_space([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_lies_between_examples():
    assert msu.lies_between(TRI_123, 0, 1, 2)
    assert not msu.lies_between(TRI_123, 1, 0, 2)
    e = equilateral(3)
    assert not any(msu.lies_between(e, *t) for t in ((0, 1, 2), (1, 0, 2), (0, 2, 1)))
    skew = msu.validate_space(
        [[0, 1, 2], [1, 0, Fraction(3, 2)], [2, Fraction(3, 2), 0]]
    )
    assert not msu.lies_between(skew, 0, 1, 2)


def test_lies_between_index_checks():
    with pytest.raises(msu.IndexRangeError):
        msu.lies_between(TRI_123, 0, 1, 3)
    with pytest.raises(msu.IndexRangeError):
        msu.lies_between(TRI_123, 0, 0, 1)


def test_is_mb_triple_examples():
    assert msu.is_mb_triple(1, 2, 3)
    assert not msu.is_mb_triple(1, 1, 1)
    assert msu.is_mb_triple(1, 1, 2)


def test_is_mb_triple_rejects_invalid():
    with pytest.raises(msu.InvalidTripleError):
        msu.is_mb_triple(1, 1, 3)
    with pytest.raises(msu.InvalidTripleError):
        msu.is_mb_triple(0, 1, 1)


def test_cayley_menger_frozen_values():
    assert msu.cayley_menger(1, 2, 3) == 0
    assert msu.cayley_menger(1, 1, 1) == -3
    assert msu.cayley_menger(3, 4, 5) == -576


def test_cayley_menger_exact_fractions():
    det = msu.cayley_menger(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert det == Fraction(-3, 16)


def test_is_mb_space_examples():
    assert msu.is_mb_space(from_coords([0, 1, 3, 6, 10])).is_mb
    st_eq = msu.is_mb_space(equilateral(3))
    assert not st_eq.is_mb and st_eq.witness == (0, 1, 2)
    assert msu.is_mb_space(quad(1, 2)).is_mb


def test_pl_labeling_examples():
    assert msu.pl_labeling(quad(1, 2)) is not None
    assert msu.pl_labeling(from_coords([0, 1, 3, 4])) is None
    assert msu.pl_labeling(equilateral(4)) is None


def test_pl_labeling_wrong_size():
    with pytest.raises(msu.WrongCardinalityError):
        msu.pl_labeling(equilateral(3))


def test_is_pseudolinear_examples():
    assert msu.is_pseudolinear(quad(1, 2))
    assert not msu.is_pseudolinear(from_coords([0, 1, 3, 4]))
    assert not msu.is_pseudolinear(equilateral(4))


def test_line_realization_examples():
    assert msu.line_realization(TRI_123).coords == (0, 1, 3)
    assert msu.line_realization(quad(1, 2)) is None
    assert msu.line_realization(msu.validate_space([[0]])).coords == (0,)


def test_line_realization_canonical_reflection():
    # Second placed point always lands on the positive side.
    s = from_coords([5, 4, 2])
    coords = msu.line_realization(s).coords
    assert coords[0] == 0 and coords[1] > 0


gromov = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=6),
)


@settings(max_examples=200, deadline=None)
@given(gromov)
def test_prop_cayley_menger_sign_matches_collinearity(parts):
    # Sides a = x+y, b = x+z, c = y+z are always a valid (possibly flat) triple.
    x, y, z, den = parts
    a, b, c = Fraction(x + y, den), Fraction(x + z, den), Fraction(y + z, den)
    if 0 in (a, b, c):
        return
    det = msu.cayley_menger(a, b, c)
    assert det == cofactor_det(cayley_menger_matrix(a, b, c))
    assert det <= 0
    flat = 2 * max(a, b, c) == a + b + c
    assert (det == 0) == flat
    assert msu.is_mb_triple(a, b, c) == flat


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_line_realization_matches_sign_oracle(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        coords = sorted(rng.sample(range(-12, 13), rng.randint(2, 5)))
        den = rng.randint(1, 3)
        space = from_coords([Fraction(c, den) for c in coords])
    else:
        space = random_space(rng, rng.randint(2, 5))
    got = msu.line_realization(space)
    assert (got is not None) == brute_line_embeddable(space)
    if got is not None:
        for i in range(space.n):
            for j in range(space.n):
                assert abs(got.coords[i] - got.coords[j]) == space.dist(i, j)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_pl_deciders_agree(seed):
    rng = random.Random(seed)
    roll = rng.random()
    if roll < 0.35:
        space = from_coords(sorted(rng.sample(range(0, 20), 4)))
    elif roll < 0.7:
        space = quad(rng.randint(1, 6), rng.randint(1, 6))
    else:
        space = random_space(rng, 4)
    assert msu.is_pseudolinear(space) == (msu.pl_labeling(space) is not None)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_mb_space_off_four_points_line_embeds(seed):
    # A collinear-in-triples space of any size other than four is a line space.
    rng = random.Random(seed)
    n = rng.choice((2, 3, 5))
    coords = sorted(rng.sample(range(0, 40), n))
    space = from_coords(coords)
    assert msu.is_mb_space(space).is_mb
    assert msu.line_realization(space) is not None


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.sampled_from((1e-12, 1e-9, 1e-4)))
def test_prop_is_mb_space_matches_the_triple_scan(seed, tol):
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    roll = rng.random()
    if roll < 0.3:
        den = rng.randint(1, 4)
        coords = [Fraction(c, den) for c in sorted(rng.sample(range(0, 40), n))]
        rows = [[abs(a - b) for b in coords] for a in coords]
    elif roll < 0.45:
        rows = random_space(rng, max(n, 1)).matrix
    elif roll < 0.55:
        rows = quad(rng.randint(1, 6), rng.randint(1, 6)).matrix
    else:
        # float plane points on a line 0.1 apart, one sometimes lifted off it
        pts = [[0.1 * c, 0.0] for c in sorted(rng.sample(range(0, 40), n))]
        if n and rng.random() < 0.5:
            rng.choice(pts)[1] = rng.choice((1e-7, 1e-4, 0.05))
        rows = [[math.dist(p, q) for q in pts] for p in pts]
    space = msu.validate_space(rows, tol=tol)
    assert msu.is_mb_space(space) == brute_is_mb_space(space)


def test_validated_space_is_scaled_once_for_mb(monkeypatch):
    # validate_space scans the int rows the space then keeps, and
    # is_mb_space reads them: a failed first triple costs no rescaling.
    calls = []

    def counting(matrix):
        calls.append(len(matrix))
        return integer_rows(matrix)

    monkeypatch.setattr(msu.spaces, "integer_rows", counting)
    monkeypatch.setattr(msu.between, "integer_rows", counting, raising=False)
    spaces = [
        msu.validate_space(random_rational_metric(random.Random(5), 90)),
        from_coords([Fraction(c, 3) for c in range(0, 60, 7)]),
    ]
    assert calls == [90, 9]
    for space in spaces:
        status = msu.is_mb_space(space)
        assert status == brute_is_mb_space(space)
        assert msu.is_mb_space(space) == status
    assert [msu.is_mb_space(s).is_mb for s in spaces] == [False, True]
    assert calls == [90, 9]
