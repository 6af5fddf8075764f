import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import msu
from conftest import (
    brute_suspect_pairs,
    brute_violations,
    equilateral,
    from_coords,
    random_int_metric,
    random_rational_metric,
)
from msu.scalars import integer_rows, leq
from msu.spaces import PACKED_MIN_POINTS

# Sizes on both sides of the one size from which the triangle scan takes
# its pairs from the packed filter.
_SIZES = st.integers(min_value=0, max_value=12) | st.integers(
    min_value=PACKED_MIN_POINTS - 1, max_value=PACKED_MIN_POINTS + 2
)


def _limits(n, full):
    """The limits to try on n points with the violations `full`: every one
    up to 12 points; above, where a scrambled matrix holds a violation in
    almost every triple and each call costs up to the whole scan, the first
    50 and the last."""
    limits = range(1, len(full) + 1)
    return limits if n <= 12 else [*limits[:50], *limits[-1:]]


def test_equilateral_valid():
    s = equilateral(3)
    assert s.n == 3 and s.exact


def test_example_z_valid():
    z = msu.validate_space([[0, 1, Fraction(3, 2)], [1, 0, 2], [Fraction(3, 2), 2, 0]])
    assert z.diameter() == 2


def test_triangle_violation_reported():
    with pytest.raises(msu.InvalidMetricError) as err:
        msu.validate_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    kinds = {v.kind for v in err.value.violations}
    assert "triangle" in kinds


def test_asymmetry_reported():
    with pytest.raises(msu.InvalidMetricError) as err:
        msu.validate_space([[0, 1], [2, 0]])
    assert any(v.kind == "asymmetry" for v in err.value.violations)


def test_nonzero_diagonal_reported():
    with pytest.raises(msu.InvalidMetricError) as err:
        msu.validate_space([[1, 2], [2, 0]])
    assert any(v.kind == "nonzero-diagonal" for v in err.value.violations)


def test_nonpositive_distance_reported():
    with pytest.raises(msu.InvalidMetricError) as err:
        msu.validate_space([[0, 0], [0, 0]])
    assert any(v.kind == "nonpositive-distance" for v in err.value.violations)


def test_ragged_matrix_rejected():
    with pytest.raises(msu.InputFormatError):
        msu.validate_space([[0, 1], [1]])


@pytest.mark.parametrize("rows", [[[0, 1], [1, 0, 5]], [[0, 1, 5], [1, 0]]])
def test_ragged_matrix_with_n_squared_entries_or_more_rejected(rows):
    # Re-cut into rows of n, these once lost the 5 or read as a wrong matrix.
    with pytest.raises(msu.InputFormatError, match="not square"):
        msu.validate_space(rows)


def test_default_labels():
    s = msu.validate_space([[0, 1], [1, 0]])
    assert s.labels == ("p0", "p1")


def test_restrict_and_delete():
    s = from_coords([0, 1, 3, 6])
    r = s.restrict((1, 3))
    assert r.matrix == ((0, 5), (5, 0))
    d = s.delete(0)
    assert d.n == 3 and d.labels == s.labels[1:]


def test_float_mode_space():
    s = msu.validate_space([[0.0, 1.5], [1.5, 0.0]])
    assert not s.exact
    assert s.close(s.dist(0, 1), 1.5 + 1e-12)


def test_mode_mixing_rejected():
    with pytest.raises(msu.InputFormatError):
        msu.validate_space([[0, 0.5], [Fraction(1, 3), 0]])


def _planted(rng, n):
    """An exact closure metric with a few faults of every kind planted."""
    rows = [list(r) for r in random_rational_metric(rng, n)]
    top = max(max(r) for r in rows) if n else 0
    for _ in range(rng.randint(0, 3)):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(4)
        if kind == 0:
            rows[i][i] = Fraction(rng.randint(1, 3), rng.randint(1, 4))
        elif kind == 1:
            rows[i][j] += Fraction(1, rng.randint(1, 4))
        elif kind == 2:
            rows[i][j] = rows[j][i] = -rng.randint(0, 2)
        else:
            rows[i][j] = rows[j][i] = 3 * top + 1
    return rows


def _float_grid(rng, n):
    # L1 distances of grid points scaled by 0.1 or 0.3: many collinear
    # triples whose float sums miss the third side by an ulp.
    step = rng.choice((0.1, 0.3))
    pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)]
    rows = [[step * (abs(p[0] - q[0]) + abs(p[1] - q[1])) for q in pts] for p in pts]
    if rng.random() < 0.5 and n >= 2:
        i, j = rng.sample(range(n), 2)
        rows[i][j] *= rng.choice((0.5, 1.0 + 1e-10, 3.0))
    return rows


def _mixed(rng, n):
    # Raw rows mixing ints, floats and Fractions; no coercion beforehand.
    rows = _planted(rng, n)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                rows[i][j] = float(rows[i][j])
            elif rows[i][j].denominator == 1:
                rows[i][j] = int(rows[i][j])
    return rows


def _non_finite(rng, n):
    rows = _float_grid(rng, n)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        bad = rng.choice((math.nan, math.inf, -math.inf))
        rows[i][j] = bad
        if rng.random() < 0.5:
            rows[j][i] = bad
    return rows


def _near_tolerance(rng, n):
    # Entries at and one ulp around each tolerance tried below, subnormals,
    # signed zeros and last-bit asymmetry: the edges of the row pre-passes.
    edges = [0.0, -0.0, 5e-324, 1.0, 3.0, 2.0**1000]
    for t in (1e-12, 1e-9, 2.0):
        edges += [t, math.nextafter(t, 0), math.nextafter(t, math.inf), 2 * t]
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.1:
            rows[i][i] = rng.choice(edges)
        for j in range(i + 1, n):
            v = rng.choice(edges) if rng.random() < 0.3 else rng.uniform(1.0, 2.0)
            w = math.nextafter(v, math.inf) if rng.random() < 0.2 else v
            rows[i][j], rows[j][i] = v, w
    return rows


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.sampled_from((_planted, _float_grid, _mixed, _non_finite, _near_tolerance)),
    st.sampled_from((1e-12, 1e-9, 2.0)),
    _SIZES.filter(bool),
)
def test_prop_metric_violations_match_the_triple_scan(seed, build, tol, n):
    rng = random.Random(seed)
    rows = build(rng, n)
    full = brute_violations(rows, tol)
    assert msu.metric_violations(rows, tol) == full
    for limit in _limits(n, full):
        assert msu.metric_violations(rows, tol, limit) == full[:limit]


# Largest entries m on both sides of each step of the packed field width
# (2m of 7 and 8, 16 and 17, and 65 bits), and the top of the range drawn.
_PACKED_TOPS = (1, 63, 64, 127, 128, 2**15 - 1, 2**15, 2**63, 10**30)


def _exact_extreme(rng, n):
    """Raw exact rows for the packed filter: a valid base (a closure metric
    stretched up to 10**30, or a band [ceil(m/2), m], a metric whatever
    the pattern) with zeros, negative upper entries, faults of every
    triangle orientation and an asymmetric lower triangle planted, in
    ints or in Fractions whose denominators have a large lcm."""
    top = rng.choice(_PACKED_TOPS)
    if rng.random() < 0.5:
        stretch = max(1, top // 9)
        rows = [[v * stretch for v in row] for row in random_int_metric(rng, n)]
    else:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint((top + 1) // 2, top)
    for _ in range(rng.choice((0, 0, 1, 3))):
        if n < 2:
            break
        i, j = sorted(rng.sample(range(n), 2))
        kind = rng.randrange(5)
        if kind == 0:
            rows[i][j] = rows[j][i] = 0
        elif kind == 1:
            rows[i][j] = -rng.randint(1, top)
        elif kind == 2:
            rows[i][j] = rows[j][i] = 3 * top + rng.randint(0, 2)
        elif kind == 3:
            rows[i][j] = rows[j][i] = rows[i][j] // 3
        else:
            rows[j][i] = rng.randint(-top, 3 * top)
    if rng.random() < 0.2:
        for i in range(n):
            for j in range(i):
                rows[i][j] = rng.randint(-top, 3 * top)
    if rng.random() < 0.4:
        dens = (1, 2, 997, 1009, 65521, 2**31 - 1)
        rows = [[Fraction(v, rng.choice(dens)) for v in row] for row in rows]
    return rows


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), _SIZES)
def test_prop_packed_triangle_filter_matches_the_triple_scan(seed, n):
    rows = _exact_extreme(random.Random(seed), n)
    full = brute_violations(rows)
    assert msu.metric_violations(rows) == full
    for limit in _limits(n, full):
        assert msu.metric_violations(rows, limit=limit) == full[:limit]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=3, max_value=14),
    st.sampled_from((0, 0, 1, 5, 2**20)),
    st.sampled_from((None, 0, 1)),
)
def test_prop_packed_filter_flags_the_pairs_the_passes_flag(seed, n, slack, over):
    rng = random.Random(seed)
    rows = [list(row) for row in integer_rows(_exact_extreme(rng, n))[1]]
    if over is not None:
        # a tight triangle (common in closure metrics) stretched to the
        # slack, which the filter clears, or one past it, which it flags
        i, k = sorted(rng.sample(range(n), 2))
        rows[i][k] += slack + over
    tails = [row[i + 1 :] for i, row in enumerate(rows[:-1])]
    assume(min(map(min, tails)) >= 0)
    flagged = msu.spaces._guard_bit_suspects(tails, max(map(max, tails)), slack)
    assert list(flagged) == brute_suspect_pairs(rows, slack)


def _counting_leq(monkeypatch):
    calls = []

    def counting_leq(a, b, tol=msu.DEFAULT_TOL):
        calls.append(1)
        return leq(a, b, tol)

    monkeypatch.setattr(msu.spaces, "leq", counting_leq)
    return calls


def test_valid_exact_input_makes_no_per_triple_call(monkeypatch):
    calls = _counting_leq(monkeypatch)
    for n in (10, 40, 90):
        rows = random_rational_metric(random.Random(n), n)
        assert msu.metric_violations(rows) == []
        assert not calls
        top = max(max(r) for r in rows)
        j = min(17, n - 1)
        rows[3][j] = rows[j][3] = 3 * top
        assert any(v.kind == "triangle" for v in msu.metric_violations(rows))
        assert calls
        calls.clear()


@pytest.mark.parametrize("top", _PACKED_TOPS)
def test_packed_fields_hold_every_sum_of_two(monkeypatch, top):
    # Entries in [ceil(m/2), m] form a metric; at m = 64, 127 and 2**15 - 1
    # the sums of two reach the guard bit of a field one bit too narrow,
    # which would flag pairs the passes clear.
    calls = _counting_leq(monkeypatch)
    rng = random.Random(top)
    for n in (40, 90):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint((top + 1) // 2, top), 3)
        assert msu.metric_violations(rows) == []
        assert not calls


@pytest.mark.parametrize("floats", [False, True])
def test_valid_input_makes_no_per_entry_call(monkeypatch, floats):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(msu.spaces, name, wrapped)

    counting("close", msu.scalars.close)
    counting("positive", msu.scalars.positive)
    for n in (10, 40):
        rows = random_rational_metric(random.Random(n + 1), n)
        if floats:
            rows = [[float(v) for v in row] for row in rows]
        assert msu.metric_violations(rows) == []
        assert not calls
        rows[5][9] = -rows[5][9]
        assert [v.kind for v in msu.metric_violations(rows, limit=1)] == ["asymmetry"]
        assert calls
        calls.clear()


def _float_extreme(rng, n, tol):
    """Raw float rows for the float packed filter: distances of grid points
    in the L1, Euclidean or max norm (collinear triples whose float sums
    miss the third side by an ulp), scaled by 2^k, with faults planted:
    gaps of tol times 0.5, 0.99, 1, 1.01 and 2 on one side, absolute or
    relative to it, 1-ulp nudges, NaN and infinities, single int and
    Fraction entries, and exact triples breaking the triangle inequality
    by tol / 4, which only an exact compare sees."""
    side = max(3, math.isqrt(n) + 2)
    pts = rng.sample([(x, y) for x in range(side) for y in range(side)], n)
    norm = rng.choice((lambda dx, dy: dx + dy, math.hypot, max))
    unit = math.ldexp(rng.choice((0.1, 0.3, 1.0)), rng.choice((0, 0, 10, -10, 40, -40, 300, -300)))
    if rng.random() < 0.2:
        unit = 1e8  # at tol 1e-9 the float packed filter has no slack (S < 0)
    # at least 8 tol, or every pair is nonpositive and the triangle scan idles
    unit = max(unit, math.ldexp(unit, math.frexp(8 * tol)[1] - math.frexp(unit)[1]))
    rows = [[unit * norm(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts] for p in pts]
    for _ in range(rng.choice((0, 1, 1, 2, 4))):
        i, j, k = sorted(rng.sample(range(n), 3))
        v, kind = rows[i][j], rng.randrange(5)
        if kind >= 3 and not all(map(math.isfinite, (v, rows[j][k]))):
            kind = 2  # no exact value of NaN or an infinity
        if kind == 0:
            gap = tol * rng.choice((0.5, 0.99, 1.0, 1.01, 2.0))
            rows[i][j] = v + gap * (max(1.0, v) if rng.random() < 0.5 else 1.0)
        elif kind == 1:
            rows[i][j] = math.nextafter(v, rng.choice((0.0, math.inf)))
        elif kind == 2:
            rows[i][j] = rng.choice((math.nan, math.inf, -math.inf))
        elif kind == 3:
            rows[i][j] = rng.choice((Fraction(v), int(v)))
        else:
            a, b = Fraction(rows[i][j]), Fraction(rows[j][k])
            rows[i][j], rows[j][k] = a, b
            rows[i][k] = rows[k][i] = a + b + Fraction(tol) / 4
        if rng.random() < 0.7:
            rows[j][i] = rows[i][j]
    if rng.random() < 0.2:
        rows[0][0] = 0
    return rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=3, max_value=40),
    st.sampled_from((1e-17, 1e-12, 1e-9, 2.0)),
)
def test_prop_float_packed_filter_matches_the_triple_scan(seed, n, tol):
    rows = _float_extreme(random.Random(seed), n, tol)
    full = brute_violations(rows, tol)
    assert msu.metric_violations(rows, tol) == full
    for limit in range(1, len(full) + 1):
        assert msu.metric_violations(rows, tol, limit) == full[:limit]


@pytest.mark.parametrize("gap", [0.99, 1.01])
def test_float_packed_filter_flags_a_gap_just_above_tol(gap):
    # Points k/64 on a line: every float sum is exact, and every triangle
    # through the stretched pair (0, n - 1) misses by gap * tol, all below 1.
    n, tol = PACKED_MIN_POINTS + 4, 1e-9
    rows = [[abs(i - j) / 64 for j in range(n)] for i in range(n)]
    rows[0][n - 1] = rows[n - 1][0] = rows[0][n - 1] + gap * tol
    full = msu.metric_violations(rows, tol)
    assert full == brute_violations(rows, tol)
    assert len(full) == (n - 2 if gap > 1 else 0)


@pytest.mark.parametrize("cls", [Fraction, int])
def test_exact_triples_in_float_rows_compare_exactly(cls):
    # An all-exact triple inside float rows breaks the triangle inequality
    # by less than tol: leq compares it exactly, so the float filter must
    # not pack these rows.
    tol = 2.0 if cls is int else 1e-9
    for n in (12, PACKED_MIN_POINTS + 4):
        rows = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
        rows[2][5] = rows[5][2] = cls(3)
        rows[5][9] = rows[9][5] = cls(4)
        rows[2][9] = rows[9][2] = cls(7) + (1 if cls is int else Fraction(tol) / 4)
        assert msu.metric_violations(rows, tol) == brute_violations(rows, tol)
        assert msu.Violation("triangle", (2, 5, 9)) in msu.metric_violations(rows, tol)


@st.composite
def _tol_and_top(draw):
    tol = draw(st.floats(min_value=5e-324, max_value=1e300))
    top = tol * draw(st.floats(min_value=0.0, max_value=1.0)) * 2.0 ** draw(st.integers(-60, 56))
    return tol, min(top, 1.7976931348623157e308)


@settings(max_examples=1000, deadline=None)
@given(_tol_and_top())
def test_prop_float_slack_keeps_its_proven_bound(pair):
    # The premise of the proof in metric_violations: S >= 0 and
    # S + 2 < tol * 2^s - M * 2^(s - 52), with M * 2^s below 2^62.
    tol, top = pair
    scale = msu.spaces._fixed_point(tol, top)
    if scale is not None:
        s, slack = scale
        assert slack >= 0 and int(math.ldexp(top, s)) < 2**62
        unit = Fraction(2) ** s
        assert Fraction(tol) * unit - Fraction(top) * unit / 2**52 > slack + 2


def test_float_slack_of_the_default_tolerance():
    # tol = 1e-9 gives s = 33 (tol * 2^s = 8.59...), so S = 8 - 0 - 3.
    assert msu.spaces._fixed_point(1e-9, 1.0) == (33, 5)
    # M * 2^-52 about tol: no slack left, the passes run.
    assert msu.spaces._fixed_point(1e-9, 1e-9 * 2.0**52) is None
    for bad in (0.0, -1e-9, math.inf, math.nan):
        assert msu.spaces._fixed_point(bad, 1.0) is None
