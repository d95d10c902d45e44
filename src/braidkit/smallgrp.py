"""Constructions and recognisers for the small finite groups used in the
torsion arguments, plus the Klein-bottle relation scan.

Groups are carried as explicit permutation models (usually the regular
representation), so membership, quotients, and subgroup scans all reduce
to set arithmetic on image tuples; subgroups are ``permgrp.closure``
run within the group's element set.  Both scans are bounded up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .errors import BoundExceededError, InvalidInputError
from .permgrp import DEFAULT_CLOSURE_BOUND, Permutation, _check_closed, closure, identity_perm

__all__ = [
    "FiniteGroup",
    "from_generators",
    "dicyclic",
    "z3_semidirect_z4",
    "symmetric_group",
    "is_dihedral",
    "quotient",
    "subgroup_scan",
    "KleinScanResult",
    "klein_relation_scan",
]

SUBGROUP_SCAN_MAX_ORDER = 10**4
# full evaluations of the Klein scan's stage 2, at least (2 radius + 1)^3;
# radius 107 is the largest
KLEIN_SCAN_MAX_PAIRS = 10**7


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a closed list of permutations of a common degree.

    ``generators`` holds indices into ``elements``.
    """

    elements: tuple[Permutation, ...]
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(_check_closed(self.elements)) != len(self.elements):
            raise InvalidInputError("duplicate elements")

    @property
    def degree(self) -> int:
        return self.elements[0].degree

    @property
    def order(self) -> int:
        return len(self.elements)

    def generator_perms(self) -> list[Permutation]:
        return [self.elements[i] for i in self.generators]

    def element_set(self) -> set:
        return {p.images for p in self.elements}

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "order": self.order,
            "elements": [p.to_json() for p in self.elements],
            "generators": list(self.generators),
        }


def from_generators(gens: Sequence[Permutation]) -> FiniteGroup:
    """Close a generating set into a FiniteGroup, within the closure's
    default bound ``permgrp.DEFAULT_CLOSURE_BOUND``."""
    elems = closure(list(gens))
    index = {p.images: i for i, p in enumerate(elems)}
    return FiniteGroup(tuple(elems), tuple(index[g.images] for g in gens))


def _check_regular_order(order: int) -> None:
    """Refuse a regular representation of more than ``DEFAULT_CLOSURE_BOUND``
    cells: ``order`` permutations of degree ``order``."""
    if order * order > DEFAULT_CLOSURE_BOUND:
        raise BoundExceededError(
            f"the regular representation of a group of order {order} needs "
            f"{order * order} cells, over the bound {DEFAULT_CLOSURE_BOUND}"
        )


def _regular_representation(
    elems: list, mul, gens: list
) -> FiniteGroup:
    """Right-regular permutation model of an abstract multiplication table."""
    _check_regular_order(len(elems))
    order = sorted(range(len(elems)), key=lambda i: elems[i])
    index = {elems[i]: rank for rank, i in enumerate(order)}
    sorted_elems = [elems[i] for i in order]
    perms = []
    for g in sorted_elems:
        perms.append(Permutation(tuple(index[mul(x, g)] for x in sorted_elems)))
    group = from_generators([perms[index[g]] for g in gens])
    return group


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: x of order 2n and y with
    x^n = y^2, y x y^-1 = x^-1.  For n a power of 2 this is the
    generalised quaternion group (Q16 at n = 4).
    """
    if n < 2:
        raise InvalidInputError("dicyclic parameter must be >= 2")
    _check_regular_order(4 * n)  # before the element list, which is 4n long
    elems = [(a, b) for b in range(2) for a in range(2 * n)]

    def mul(u, v):
        a, b = u
        c, d = v
        if b == 0:
            return ((a + c) % (2 * n), d)
        # (a,1)*(c,d): y x^c = x^-c y, y^2 = x^n
        if d == 0:
            return ((a - c) % (2 * n), 1)
        return ((a - c + n) % (2 * n), 0)

    return _regular_representation(elems, mul, [(1, 0), (0, 1)])


def z3_semidirect_z4() -> FiniteGroup:
    """Order-12 group: Z3 extended by a generator of order 4 acting by
    inversion."""
    elems = [(a, b) for b in range(4) for a in range(3)]

    def mul(u, v):
        a, b = u
        c, d = v
        sign = -1 if b % 2 else 1
        return ((a + sign * c) % 3, (b + d) % 4)

    return _regular_representation(elems, mul, [(1, 0), (0, 1)])


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on its natural points, generated by (1,2) and (1,2,...,n)."""
    if n < 1:
        raise InvalidInputError("degree must be >= 1")
    if n == 1:
        return FiniteGroup((identity_perm(1),), ())
    gens = [
        Permutation(tuple([1, 0] + list(range(2, n)))),
        Permutation(tuple(list(range(1, n)) + [0])),
    ]
    return from_generators(gens)


def is_dihedral(group: FiniteGroup) -> bool:
    """Whether the group is dihedral of order 2k, k >= 2: a cyclic
    subgroup of index 2 inverted by an outside involution.  The Klein
    four-group counts as the dihedral group of order 4.
    """
    order = group.order
    if order < 4 or order % 2:
        return False
    k = order // 2
    elems = group.elements
    for r in elems:
        if r.order() != k:
            continue
        powers = set()
        acc = identity_perm(group.degree)
        for _ in range(k):
            powers.add(acc.images)
            acc = acc * r
        r_inv = r.inverse()
        for s in elems:
            if s.images in powers or s.order() != 2:
                continue
            if (s * r * s).images == r_inv.images:
                return True
    return False


def quotient(group: FiniteGroup, normal_gens: Sequence[Permutation]) -> FiniteGroup:
    """Quotient by the subgroup generated by ``normal_gens``, which must be
    normal; the result acts faithfully on the cosets."""
    gset = group.element_set()
    # the identity generator makes quotient(group, []) the group itself
    sub_perms = closure([identity_perm(group.degree), *normal_gens], len(gset), within=gset)
    sub = {h.images for h in sub_perms}
    for g in group.generator_perms() or group.elements:
        g_inv = g.inverse()
        for h in sub_perms:
            if (g_inv * h * g).images not in sub:
                raise InvalidInputError("subgroup is not normal")
    # right cosets, canonical representative = least element image tuple
    coset_of: dict = {}
    reps: list[Permutation] = []
    for el in group.elements:
        if el.images in coset_of:
            continue
        members = sorted((h * el).images for h in sub_perms)
        rep_index = len(reps)
        for img in members:
            coset_of[img] = rep_index
        reps.append(el)
    perms = []
    for g in group.elements:
        image = tuple(coset_of[(rep * g).images] for rep in reps)
        perms.append(Permutation(image))
    distinct = sorted({p.images for p in perms})
    index = {img: i for i, img in enumerate(distinct)}
    elements = tuple(Permutation(img) for img in distinct)
    gen_indices = [index[perms[gi].images] for gi in group.generators]
    return FiniteGroup(elements, tuple(dict.fromkeys(gen_indices)))


def subgroup_scan(
    group: FiniteGroup,
    *,
    order: int | None = None,
    min_order: int | None = None,
    dihedral: bool | None = None,
) -> list[FiniteGroup]:
    """All subgroups matching the predicate, enumerated by closing element
    subsets, smallest groups first.  Deterministic output order."""
    if group.order > SUBGROUP_SCAN_MAX_ORDER:
        raise BoundExceededError(
            f"subgroup scan limited to groups of order {SUBGROUP_SCAN_MAX_ORDER}"
        )
    gset = group.element_set()
    trivial = frozenset({tuple(range(group.degree))})
    # each subgroup found -> the generators it was first closed from
    all_subgroups: dict[frozenset, list[Permutation]] = {trivial: []}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            done = set(sub)
            for el in group.elements:
                if el.images in done:
                    continue
                # <sub, el> = <sub, el * h> for h in sub: close once per coset
                done.update(map(itemgetter(*el.images), sub))
                gens = all_subgroups[sub] + [el]
                bigger = frozenset(p.images for p in closure(gens, len(gset), within=gset))
                if bigger not in all_subgroups:
                    all_subgroups[bigger] = gens
                    new.append(bigger)
        frontier = new
    out = []
    for sub in sorted(all_subgroups, key=lambda s: (len(s), sorted(s))):
        if order is not None and len(sub) != order:
            continue
        if min_order is not None and len(sub) < min_order:
            continue
        sub_group = _subgroup_as_group(sub)
        if dihedral is not None and is_dihedral(sub_group) != dihedral:
            continue
        out.append(sub_group)
    return out


def _subgroup_as_group(images: frozenset) -> FiniteGroup:
    elems = tuple(Permutation(t) for t in sorted(images))
    gens = tuple(i for i, p in enumerate(elems) if not p.is_identity())
    return FiniteGroup(elems, gens)


@dataclass(frozen=True)
class KleinScanResult:
    """Solutions (x, y) of x y x y = y^-1 x y x in the Klein-bottle group,
    scanned over a coordinate window."""

    radius: int
    solutions: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    @property
    def nontrivial_solutions(self) -> tuple:
        return tuple((x, y) for x, y in self.solutions if y != (0, 0))

    @property
    def all_trivial(self) -> bool:
        return not self.nontrivial_solutions


def _klein_mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    # semidirect product Z x| Z, the second coordinate acting by sign flip
    a, b = u
    c, d = v
    return (a + (-1) ** (b % 2) * c, b + d)


def _klein_inv(u: tuple[int, int]) -> tuple[int, int]:
    a, b = u
    return ((-1) ** (b % 2 + 1) * a, -b)


def _klein_sides(
    x: tuple[int, int], y: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two sides x y x y and y^-1 x y x of the relation."""
    lhs = _klein_mul(_klein_mul(_klein_mul(x, y), x), y)
    rhs = _klein_mul(_klein_mul(_klein_mul(_klein_inv(y), x), y), x)
    return lhs, rhs


def _klein_stage_one(rng: range) -> list[tuple[int, int]]:
    """The (b, d) in rng x rng whose sides agree in the second coordinate,
    evaluated at a = c = 0."""
    kept = []
    for b in rng:
        for d in rng:
            lhs, rhs = _klein_sides((0, b), (0, d))
            if lhs[1] == rhs[1]:
                kept.append((b, d))
    return kept


def klein_relation_scan(radius: int) -> KleinScanResult:
    """Scan all x = (a, b), y = (c, d) with coordinates in [-radius, radius]
    for solutions of x y x y = y^-1 x y x.

    (a, b) -> b is a homomorphism onto Z, so a pair whose sides differ in
    the second coordinate is no solution.  Stage 1 evaluates the relation at
    a = c = 0 for every (b, d) and keeps those whose sides agree there;
    stage 2 evaluates it in full for every a, c over the kept (b, d).  Each
    reported solution is checked by the group law.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    width = 2 * radius + 1
    # y = 1 solves the relation, so every (b, 0) survives stage 1: stage 2
    # costs at least width^3, and that is refused before any work
    if width**3 > KLEIN_SCAN_MAX_PAIRS:
        raise BoundExceededError(
            f"Klein scan of radius {radius} exceeds {KLEIN_SCAN_MAX_PAIRS} evaluations: "
            f"stage 2 needs at least {width**3}"
        )
    rng = range(-radius, radius + 1)
    kept = _klein_stage_one(rng)
    if len(kept) * width**2 > KLEIN_SCAN_MAX_PAIRS:
        raise BoundExceededError(
            f"Klein scan of radius {radius} exceeds {KLEIN_SCAN_MAX_PAIRS} evaluations: "
            f"stage 2 needs {len(kept) * width**2}"
        )
    sols = []
    for b, d in kept:
        for a in rng:
            x = (a, b)
            for c in rng:
                y = (c, d)
                lhs, rhs = _klein_sides(x, y)
                if lhs == rhs:
                    sols.append((x, y))
    sols.sort()  # the (a, b, c, d) order of a scan over the whole window
    return KleinScanResult(radius, tuple(sols))
