"""Families of spaces: embeddability order, quotient poset, minimal subclasses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embed import embeds
from .errors import EmptyFamilyError, TransitivityError
from .spaces import FiniteMetricSpace


@dataclass(frozen=True)
class SpaceFamily:
    """An ordered finite family of metric spaces; duplicates are allowed."""

    members: tuple[FiniteMetricSpace, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EmbedQuasiOrder:
    """relation[i][j] records whether member i embeds into member j."""

    relation: tuple[tuple[bool, ...], ...]

    def payload(self) -> dict:
        return {"relation": [list(row) for row in self.relation]}


@dataclass(frozen=True)
class QuotientPoset:
    """Mutual-embeddability classes with the induced order.

    classes partition the member indices; order[c][d] says class c embeds
    into class d; maximal lists the classes with nothing strictly above.
    """

    classes: tuple[tuple[int, ...], ...]
    order: tuple[tuple[bool, ...], ...]
    maximal: tuple[int, ...]

    def payload(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "order": [list(row) for row in self.order],
            "maximal": list(self.maximal),
        }


def _intransitive_triple(
    r: tuple[tuple[bool, ...], ...]
) -> Optional[tuple[int, int, int]]:
    """First (i, j, k) with i -> j and j -> k but not i -> k, if any."""
    n = len(r)
    for i in range(n):
        for j in range(n):
            if not r[i][j]:
                continue
            for k in range(n):
                if r[j][k] and not r[i][k]:
                    return i, j, k
    return None


def embed_quasiorder(fam: SpaceFamily) -> EmbedQuasiOrder:
    """Pairwise embeddability matrix over the family, in input order.

    Exact embeddability composes, so it is transitive.  Embedding within a
    float tolerance need not be: distances 1.0, 1.0 + 0.9*tol and
    1.0 + 1.8*tol chain but the ends differ by more than tol.  Such a
    family raises TransitivityError.
    """
    ms = fam.members
    relation = tuple(
        tuple(embeds(ms[i], ms[j]) for j in range(len(ms))) for i in range(len(ms))
    )
    bad = _intransitive_triple(relation)
    if bad is not None:
        i, j, k = bad
        raise TransitivityError(
            f"embeddability is not transitive within tolerance: member {i} "
            f"embeds into {j} and {j} into {k}, but {i} not into {k}; "
            "try a smaller --tol"
        )
    return EmbedQuasiOrder(relation)


def quotient_poset(qo: EmbedQuasiOrder) -> QuotientPoset:
    """Collapse mutual embeddability and order the resulting classes.

    The order is antisymmetric: if class c embeds into class d and d into
    c, their first members embed both ways, so they share a block, and the
    blocks are the classes of an equivalence once the relation is
    transitive; hence c = d.
    """
    r = qo.relation
    n = len(r)
    for i in range(n):
        if len(r[i]) != n:
            raise TransitivityError("relation matrix is not square")
        if not r[i][i]:
            raise TransitivityError(f"relation is not reflexive at {i}")
    if _intransitive_triple(r) is not None:
        raise TransitivityError("relation is not transitive")

    assigned = [-1] * n
    classes: list[tuple[int, ...]] = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        block = tuple(j for j in range(n) if r[i][j] and r[j][i])
        for j in block:
            assigned[j] = len(classes)
        classes.append(block)

    k = len(classes)
    order = tuple(
        tuple(r[classes[c][0]][classes[d][0]] for d in range(k)) for c in range(k)
    )
    maximal = tuple(
        c for c in range(k) if not any(d != c and order[c][d] for d in range(k))
    )
    return QuotientPoset(tuple(classes), order, maximal)


def maximal_representatives(fam: SpaceFamily) -> list[int]:
    """Smallest input index of each maximal mutual-embeddability class."""
    poset = quotient_poset(embed_quasiorder(fam))
    return sorted(poset.classes[c][0] for c in poset.maximal)


def minimal_universal_subclass(fam: SpaceFamily) -> SpaceFamily:
    """One representative per maximal class; universal and irredundant."""
    if not fam.members:
        raise EmptyFamilyError("family has no members")
    reps = maximal_representatives(fam)
    return SpaceFamily(tuple(fam.members[i] for i in reps))


def is_universal_space(fam: SpaceFamily, target: FiniteMetricSpace) -> bool:
    """True when every family member embeds into the target."""
    return all(embeds(m, target) for m in fam.members)


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of the minimal-universality decision.

    failing_member disproves universality; failing_point is a target
    point whose removal keeps the target universal, disproving minimality.
    """

    minimal: bool
    failing_member: Optional[int]
    failing_point: Optional[int]

    def payload(self) -> dict:
        return {
            "minimal": self.minimal,
            "failing_member": self.failing_member,
            "failing_point": self.failing_point,
        }


def is_minimal_universal_space(
    fam: SpaceFamily, target: FiniteMetricSpace
) -> MinimalityReport:
    """Universal, and no point of the target can be spared."""
    for i, m in enumerate(fam.members):
        if not embeds(m, target):
            return MinimalityReport(False, i, None)
    for y in range(target.n):
        if is_universal_space(fam, target.delete(y)):
            return MinimalityReport(False, None, y)
    return MinimalityReport(True, None, None)


def nonexistence_condition_i(
    fam: SpaceFamily,
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Two non-isometric members that are both universal for the family.

    Never holds for a finite family, so the answer is always (False, None).
    Proof: if members i and j are both universal, every member embeds into
    each of them; in particular i embeds into j and j into i.  Mutually
    embeddable finite spaces are isometric: an embedding i -> j -> i
    composes to an injective, hence onto, self-map of i, so i and j have
    equally many points and i -> j is onto.  This holds in float mode
    too: "i embeds into j" is the very embeds() answer that counts j as
    universal.
    """
    return False, None
