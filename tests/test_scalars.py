import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msu
from conftest import entrywise_coerce_entries
from msu.scalars import (
    close,
    coerce_entries,
    format_number,
    integer_rows,
    is_exact,
    leq,
    parse_number,
    positive,
    tolerant,
)


def test_parse_number_forms():
    assert parse_number(3) == 3
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number("2") == Fraction(2)
    assert parse_number(0.5) == 0.5


def test_parse_number_rejects_bool_and_junk():
    with pytest.raises(msu.InputFormatError):
        parse_number(True)
    with pytest.raises(msu.InputFormatError):
        parse_number("three")
    with pytest.raises(msu.InputFormatError):
        parse_number(None)


@pytest.mark.parametrize("raw", [float("nan"), float("inf"), float("-inf"), 1e400])
def test_parse_number_rejects_non_finite_floats(raw):
    # json.loads reads NaN, Infinity and 1e400 as floats.
    with pytest.raises(msu.InputFormatError, match="non-finite"):
        parse_number(raw)


def test_format_number_round_trip():
    assert format_number(Fraction(3, 4)) == "3/4"
    assert format_number(2) == "2"
    assert format_number(0.5) == 0.5
    assert parse_number(format_number(Fraction(7, 3))) == Fraction(7, 3)


def test_is_exact():
    assert is_exact(1)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(1.0)


def test_close_exact_is_equality():
    assert close(Fraction(1, 3), Fraction(1, 3))
    assert not close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))


def test_close_float_tolerance():
    assert close(1.0, 1.0 + 1e-12)
    assert not close(1.0, 1.001)
    # relative branch for large magnitudes
    assert close(1e12, 1e12 + 1.0)


def test_leq_and_positive():
    assert leq(Fraction(1, 2), Fraction(1, 2))
    assert leq(1.0, 1.0 + 1e-12)
    assert positive(Fraction(1, 10**9))
    assert not positive(0)
    assert not positive(1e-12)


def test_coerce_entries_exact():
    vals, exact = coerce_entries([1, Fraction(1, 2), parse_number("3/4")])
    assert exact and vals == [1, Fraction(1, 2), Fraction(3, 4)]


def test_coerce_entries_float_mode():
    vals, exact = coerce_entries([1, 0.5])
    assert not exact and vals == [1.0, 0.5]


def test_coerce_entries_mode_mixing_rejected():
    with pytest.raises(msu.InputFormatError):
        coerce_entries([0.5, Fraction(1, 3)])


class _Half(float):
    pass


class _Ratio(Fraction):
    pass


_ENTRIES = (
    0, 1, -2, 10**400, True, False, 0.5, -0.0, 2.0, _Half(1.5), _Half(3.0),
    Fraction(3), Fraction(1, 3), Fraction(-4, 2), _Ratio(5), _Ratio(1, 7),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_ENTRIES), max_size=8))
def test_prop_coerce_entries_matches_the_entrywise_tests(values):
    try:
        want = entrywise_coerce_entries(values)
    except (msu.InputFormatError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            coerce_entries(values)
        return
    got = coerce_entries(values)
    assert got == want
    assert [type(v) for v in got[0]] == [type(v) for v in want[0]]


def test_integer_rows_scales_exact_matrices_to_ints():
    m = [[0, Fraction(1, 2), Fraction(2, 3)], [Fraction(1, 2), 0, 1], [Fraction(2, 3), 1, 0]]
    scale, rows = integer_rows(m)
    assert scale == 6
    assert rows == ((0, 3, 4), (3, 0, 6), (4, 6, 0))
    assert all(type(v) is int for row in rows for v in row)
    assert integer_rows([[Fraction(4, 1), 2]]) == (1, ((4, 2),))
    assert integer_rows([]) == (1, ())


def test_integer_rows_gives_none_for_float_matrices():
    for m in ([[0.0, 0.5], [0.5, 0.0]], [[0, 0.5], [Fraction(1, 2), 0]], [[True, 1]]):
        assert integer_rows(m) is None


# Signed zeros, subnormals, the largest floats, NaN and infinities.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf)
_TOLS = (0.0, 1e-17, 1e-12, 1e-9, 2.0, 5e-324, 1e308, math.inf, math.nan)


@st.composite
def _float_pairs(draw):
    """(x, y, tol) with y at the tolerance edge of x: gaps of tol times
    0.99, 1 and 1.01 (absolute, and relative to |x|), one ulp, or any."""
    x = draw(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()))
    tol = draw(st.sampled_from(_TOLS))
    how = draw(st.sampled_from(("abs", "rel", "ulp", "edge", "any")))
    if how in ("abs", "rel"):
        gap = tol * draw(st.sampled_from((0.99, 1.0, 1.01)))
        y = x + gap * (max(1.0, abs(x)) if how == "rel" else 1.0) * draw(st.sampled_from((1, -1)))
    elif how == "ulp":
        y = math.nextafter(x, draw(st.sampled_from((math.inf, -math.inf))))
    elif how == "edge":
        y = draw(st.sampled_from(_EDGE_FLOATS))
    else:
        y = draw(st.floats())
    return x, y, tol


@settings(max_examples=1000, deadline=None)
@given(_float_pairs())
def test_prop_tolerant_matches_close_and_leq_on_floats(pair):
    x, y, tol = pair
    close_floats, leq_floats = tolerant(tol)
    assert close_floats(x, y) == close(x, y, tol)
    assert close_floats(y, x) == close(y, x, tol)
    assert leq_floats(x, y) == leq(x, y, tol)
    assert leq_floats(y, x) == leq(y, x, tol)
