import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msu
from conftest import equilateral, from_coords, pair, random_space, random_two_value

Z = msu.validate_space([[0, 1, Fraction(3, 2)], [1, 0, 2], [Fraction(3, 2), 2, 0]])
TRI = msu.validate_space([[0, 1, 2], [1, 0, 3], [2, 3, 0]])


def test_quasiorder_examples():
    qo = msu.embed_quasiorder(msu.SpaceFamily((pair(1), pair(2))))
    assert qo.relation == ((True, False), (False, True))
    qo = msu.embed_quasiorder(msu.SpaceFamily((pair(1), TRI)))
    assert qo.relation[0][1] and not qo.relation[1][0]
    qo = msu.embed_quasiorder(msu.SpaceFamily((pair(1),)))
    assert qo.relation == ((True,),)


def test_quotient_poset_collapse_and_maximal():
    double = msu.SpaceFamily((pair(1), pair(1)))
    po = msu.quotient_poset(msu.embed_quasiorder(double))
    assert po.classes == ((0, 1),) and po.maximal == (0,)

    fam = msu.SpaceFamily((pair(1), pair(2), TRI))
    po = msu.quotient_poset(msu.embed_quasiorder(fam))
    assert po.classes == ((0,), (1,), (2,))
    assert [po.classes[c][0] for c in po.maximal] == [2]

    anti = msu.SpaceFamily((pair(1), pair(2), pair(3)))
    po = msu.quotient_poset(msu.embed_quasiorder(anti))
    assert len(po.maximal) == 3


def test_quotient_poset_rejects_broken_relation():
    broken = msu.EmbedQuasiOrder(((True, True, False), (False, True, True), (False, False, True)))
    with pytest.raises(msu.TransitivityError):
        msu.quotient_poset(broken)


def test_maximal_representatives():
    fam = msu.SpaceFamily((pair(1), pair(2), TRI))
    assert msu.maximal_representatives(fam) == [2]


def test_minimal_universal_subclass_examples():
    point = msu.validate_space([[0]])
    fam = msu.SpaceFamily((point, pair(1), pair(2), equilateral(3)))
    sub = msu.minimal_universal_subclass(fam)
    mats = sorted(s.matrix for s in sub.members)
    assert mats == sorted([equilateral(3).matrix, pair(2).matrix])

    assert msu.minimal_universal_subclass(msu.SpaceFamily((pair(1),))).members[0].matrix == pair(1).matrix

    dup = msu.minimal_universal_subclass(msu.SpaceFamily((pair(1), pair(1))))
    assert len(dup.members) == 1

    with pytest.raises(msu.EmptyFamilyError):
        msu.minimal_universal_subclass(msu.SpaceFamily(()))


def test_is_universal_space_examples():
    assert msu.is_universal_space(msu.SpaceFamily((pair(1), pair(2))), Z)
    assert not msu.is_universal_space(msu.SpaceFamily((pair(2),)), pair(1))
    assert msu.is_universal_space(msu.SpaceFamily(()), pair(1))


def test_is_minimal_universal_space_examples():
    fam = msu.SpaceFamily((pair(1), pair(2)))
    rep = msu.is_minimal_universal_space(fam, Z)
    assert rep.minimal and rep.failing_point is None and rep.failing_member is None

    slack = from_coords([0, 1, 2, 4])  # duplicated gaps leave removable points
    rep = msu.is_minimal_universal_space(fam, slack)
    assert not rep.minimal and rep.failing_point is not None

    rep = msu.is_minimal_universal_space(msu.SpaceFamily((pair(3),)), pair(1))
    assert not rep.minimal and rep.failing_member == 0

    rep = msu.is_minimal_universal_space(msu.SpaceFamily((equilateral(3),)), equilateral(3))
    assert rep.minimal


def condition_i_by_search(fam):
    """The pairwise search nonexistence_condition_i replaced with a proof."""
    ms = fam.members
    universal = [i for i, m in enumerate(ms) if all(msu.embeds(x, m) for x in ms)]
    for a in range(len(universal)):
        for b in range(a + 1, len(universal)):
            i, j = universal[a], universal[b]
            if not (msu.embeds(ms[i], ms[j]) and msu.embeds(ms[j], ms[i])):
                return True, (i, j)
    return False, None


def random_family(rng):
    # Shuffled copies make several members universal at once.
    members = [random_space(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
    for s in list(members):
        if rng.random() < 0.5:
            members.append(s.restrict(rng.sample(range(s.n), s.n)))
    if rng.random() < 0.3:
        members = [msu.validate_space([[float(v) for v in row] for row in s.matrix]) for s in members]
    rng.shuffle(members)
    return msu.SpaceFamily(tuple(members))


def test_nonexistence_condition_i_always_false():
    rng = random.Random(5)
    fams = [
        msu.SpaceFamily((pair(1), pair(2), TRI, equilateral(3))),
        msu.SpaceFamily((pair(1),)),
        msu.SpaceFamily((pair(1), pair(2))),
        msu.SpaceFamily((TRI, TRI.restrict((2, 0, 1)), pair(1))),
    ]
    fams += [random_family(rng) for _ in range(20)]
    for fam in fams:
        assert condition_i_by_search(fam) == (False, None)
        assert msu.nonexistence_condition_i(fam) == (False, None)


def test_quotient_order_is_antisymmetric():
    rng = random.Random(9)
    for _ in range(20):
        po = msu.quotient_poset(msu.embed_quasiorder(random_family(rng)))
        k = len(po.classes)
        assert not any(po.order[c][d] and po.order[d][c] for c in range(k) for d in range(k) if c != d)


def test_float_embeddability_chain_is_not_transitive():
    fam = msu.SpaceFamily(tuple(pair(d) for d in (1.0, 1.0000000009, 1.0000000018)))
    with pytest.raises(msu.TransitivityError, match="member 0 embeds into 1 and 1 into 2"):
        msu.embed_quasiorder(fam)


def test_subclass_is_universal_and_irredundant():
    rng = random.Random(17)
    for _ in range(20):
        base = [random_space(rng, rng.randint(2, 4)) for _ in range(rng.randint(1, 3))]
        members = list(base)
        for s in base:
            if s.n > 2 and rng.random() < 0.7:
                keep = tuple(sorted(rng.sample(range(s.n), s.n - 1)))
                members.append(s.restrict(keep))
        rng.shuffle(members)
        fam = msu.SpaceFamily(tuple(members))
        sub = msu.minimal_universal_subclass(fam)
        for m in fam.members:
            assert any(msu.embeds(m, a) for a in sub.members)
        for drop in range(len(sub.members)):
            rest = [a for t, a in enumerate(sub.members) if t != drop]
            assert any(not any(msu.embeds(m, a) for a in rest) for m in fam.members)
        for i, a in enumerate(sub.members):
            for b in sub.members[i + 1 :]:
                assert msu.compare(a, b) is msu.Comparability.INCOMPARABLE


def _family_with_repeats(rng):
    """Exact two-distance spaces, each with a relabelled copy and sometimes
    a one-point restriction: mutual-embeddability classes of one to three
    members, and members that embed into others."""
    base = [random_two_value(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
    members = []
    for space in base:
        members += [space, space.restrict(rng.sample(range(space.n), space.n))]
        if space.n > 1 and rng.random() < 0.5:
            members.append(space.delete(rng.randrange(space.n)))
    return members


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_prop_minimal_universal_subclass_is_unique_up_to_isometry(seed):
    # The uniqueness theorem: two minimal universal subfamilies of one
    # family, here from two orders of its members, pair off one to one by
    # mutual embeddability, which for finite spaces is isometry.
    rng = random.Random(seed)
    members = _family_with_repeats(rng)
    subs = []
    for _ in range(2):
        rng.shuffle(members)
        subs.append(msu.minimal_universal_subclass(msu.SpaceFamily(tuple(members))).members)
    first, second = subs
    partners = [
        [j for j, y in enumerate(second) if msu.embeds(x, y) and msu.embeds(y, x)]
        for x in first
    ]
    assert all(len(p) == 1 for p in partners)
    assert sorted(p[0] for p in partners) == list(range(len(second)))
    assert all(x.n == second[p[0]].n for x, p in zip(first, partners))
