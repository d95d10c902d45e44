"""Constructions and recognisers for the small finite groups used in the
torsion arguments, plus the Klein-bottle relation scan.

A ``FiniteGroup`` is its generators, permutations of one degree (often
a regular representation's), and ``permgrp.closure`` lists its elements
from their stabilizer chain, so no group built here can be invalid.  A
quotient sifts its normal generators' conjugates into their chain and
acts with the group's generators alone.  The Klein scan is bounded up
front; the subgroup scan as it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .errors import BoundExceededError, InvalidInputError
from .permgrp import CLOSURE_MAX_CELLS, DEFAULT_CLOSURE_BOUND, Permutation, closure, identity_perm
from .permgrp import _Chain, _conjugate, _inverse, _power

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
# full evaluations of the Klein scan, (2 radius + 1)^3; radius 107 is the
# largest
KLEIN_SCAN_MAX_PAIRS = 10**7


@dataclass(frozen=True)
class FiniteGroup:
    """The group generated by permutations of one degree.  ``elements``
    is their ``closure``, sorted by image tuple, so the identity comes
    first; ``closure`` refuses an empty tuple, mixed degrees and groups
    past its bounds.

    >>> s3 = FiniteGroup((Permutation((1, 2, 0)), Permutation((1, 0, 2))))
    >>> s3.order, s3.elements[0].is_identity(), s3.to_json()["generators"]
    (6, True, [3, 2])
    """

    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(closure(self.generators)))

    @property
    def degree(self) -> int:
        return self.elements[0].degree

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> set:
        return {p.images for p in self.elements}

    def to_json(self) -> dict:
        """The elements, and the generators as indices into them."""
        index = {p.images: i for i, p in enumerate(self.elements)}
        return {
            "degree": self.degree,
            "order": self.order,
            "elements": [p.to_json() for p in self.elements],
            "generators": [index[g.images] for g in self.generators],
        }


def from_generators(gens: Sequence[Permutation]) -> FiniteGroup:
    """The group generated by ``gens``, within the closure's default bound
    ``permgrp.DEFAULT_CLOSURE_BOUND``."""
    return FiniteGroup(tuple(gens))


def _check_regular_order(order: int) -> None:
    """Refuse a regular representation of more than ``DEFAULT_CLOSURE_BOUND``
    cells: ``order`` permutations of degree ``order``."""
    if order * order > DEFAULT_CLOSURE_BOUND:
        raise BoundExceededError(
            f"the regular representation of a group of order {order} needs "
            f"{order * order} cells, over the bound {DEFAULT_CLOSURE_BOUND}"
        )


def _regular_representation(elems: list, mul, gens: list) -> FiniteGroup:
    """Right-regular permutation model of the group ``gens`` generate in
    an abstract multiplication table: g takes the rank of x to the rank of
    x·g.  Only the generators' permutations are built, |gens|·|elems|
    products; their closure lists the rest."""
    _check_regular_order(len(elems))
    sorted_elems = sorted(elems)
    index = {g: rank for rank, g in enumerate(sorted_elems)}
    perms = [Permutation(tuple([index[mul(x, g)] for x in sorted_elems])) for g in gens]
    return from_generators(perms)


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


def _symmetric_generators(n: int) -> tuple[list[tuple[int, ...]], int]:
    """The image tuples of (1,2) and (1,2,...,n), none for n = 1, and the
    order n! of S_n, refused as its closure would be when n! exceeds
    ``DEFAULT_CLOSURE_BOUND``, before any tuple is built."""
    if n < 1:
        raise InvalidInputError("degree must be >= 1")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > DEFAULT_CLOSURE_BOUND:
            raise BoundExceededError(f"group closure exceeds bound {DEFAULT_CLOSURE_BOUND}")
    return ([(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []), order


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on its natural points, generated by (1,2) and (1,2,...,n)."""
    gens, _ = _symmetric_generators(n)
    return from_generators([Permutation(g) for g in gens] or [identity_perm(1)])


# the groups ``braidkit smallgrp`` and the claims build by name, from n
NAMED_GROUPS = {
    "dicyclic": dicyclic,
    "z3-semidirect-z4": lambda n: z3_semidirect_z4(),
    "symmetric": symmetric_group,
}


def is_dihedral(group: FiniteGroup) -> bool:
    """Whether the group is dihedral of order 2k, k >= 2: a cyclic
    subgroup of index 2 inverted by an outside involution.  The Klein
    four-group counts as the dihedral group of order 4.

    The first element r of order k decides.  An involution s outside ⟨r⟩
    with s·r·s = r⁻¹ makes the group ⟨r⟩⋊⟨s⟩ ≅ D_k; conversely, every
    element of order k in D_k, k >= 3, is a rotation, which every
    reflection inverts, and for k = 2 the group is V₄, whose involutions
    commute, or Z₄, whose only involution is r.  s is outside ⟨r⟩ when it
    is not r^(k/2), the only involution of ⟨r⟩ for k even.

    >>> is_dihedral(dicyclic(4)), is_dihedral(symmetric_group(3))
    (False, True)
    """
    k, odd = divmod(group.order, 2)
    r = None if odd or k < 2 else next((g.images for g in group.elements if g.order() == k), None)
    if r is None:
        return False
    r_inv, ident = _inverse(r), tuple(range(group.degree))
    mid = _power(r, k // 2) if k % 2 == 0 else None
    return any(
        s != mid and s != ident and _inverse(s) == s and _conjugate(s, s, r) == r_inv
        for s in (g.images for g in group.elements)
    )


def quotient(group: FiniteGroup, normal_gens: Sequence[Permutation]) -> FiniteGroup:
    """Quotient by the subgroup N generated by ``normal_gens``, which must
    be normal; the result acts faithfully on the right cosets N·x.

    N is normal exactly when each generator g of the group conjugates each
    generator x of N into N, for then g maps the finite N onto itself
    (Holt, Eick & O'Brien, ch. 4); the g⁻¹·x·g are sifted into N's chain.
    The cosets are numbered in the order of their first elements in the
    list, and the quotient is the closure of the generators' actions.

    >>> q16 = dicyclic(4)
    >>> quo = quotient(q16, [g for g in q16.elements if g.order() == 2])
    >>> quo.order, is_dihedral(quo)
    (8, True)
    """
    gset = group.element_set()
    if any(h.images not in gset for h in normal_gens):
        raise InvalidInputError("a normal generator is not an element of the group")
    normal, gens = [h.images for h in normal_gens], [g.images for g in group.generators]
    chain = _Chain(group.degree, normal, None, group.order)
    if any(chain.add(_conjugate(g, _inverse(g), x)) for x in normal for g in gens):
        raise InvalidInputError("subgroup is not normal")
    sub = chain.elements()
    coset_of, reps = {}, []  # element -> number of its coset; the first of each
    for x in (el.images for el in group.elements):
        if x not in coset_of:
            coset_of.update((tuple([x[i] for i in h]), len(reps)) for h in sub)
            reps.append(x)
    # generator g takes the coset of rep to that of rep·g
    actions = [tuple([coset_of[tuple([g[i] for i in rep])] for rep in reps]) for g in gens]
    return from_generators([Permutation(a) for a in dict.fromkeys(actions)])


def subgroup_scan(
    group: FiniteGroup,
    *,
    order: int | None = None,
    min_order: int | None = None,
    dihedral: bool | None = None,
) -> list[FiniteGroup]:
    """All subgroups matching the predicate, enumerated by closing element
    subsets, smallest groups first, each generated by the elements it was
    first closed from.  Deterministic output order.  Each closure is the
    image tuples its ``_Chain`` lists, capped at the group's order; their
    cells, elements × degree, are charged together against
    ``CLOSURE_MAX_CELLS``, the bound of one closure's list."""
    if group.order > SUBGROUP_SCAN_MAX_ORDER:
        raise BoundExceededError(
            f"subgroup scan limited to groups of order {SUBGROUP_SCAN_MAX_ORDER}"
        )
    closed = 0
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
                chain = _Chain(group.degree, [g.images for g in gens], None, group.order)
                bigger = frozenset(chain.elements())
                closed += len(bigger) * group.degree
                if closed > CLOSURE_MAX_CELLS:
                    raise BoundExceededError(
                        f"subgroup scan exceeds bound {CLOSURE_MAX_CELLS} cells "
                        "(closed elements × degree)"
                    )
                if bigger not in all_subgroups:
                    all_subgroups[bigger] = gens
                    new.append(bigger)
        frontier = new
    subs = [
        from_generators(all_subgroups[sub] or [identity_perm(group.degree)])
        for sub in sorted(all_subgroups, key=lambda s: (len(s), sorted(s)))
        if (order is None or len(sub) == order) and (min_order is None or len(sub) >= min_order)
    ]
    return [sub for sub in subs if dihedral is None or is_dihedral(sub) == dihedral]


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


def klein_relation_scan(radius: int) -> KleinScanResult:
    """Scan all x = (a, b), y = (c, d) with coordinates in [-radius, radius]
    for solutions of x y x y = y^-1 x y x.

    (a, b) -> b is a homomorphism onto Z, under which the two sides map to
    2b + 2d and 2b, so every solution has d = 0: the relation is evaluated
    in full for every a, b, c with d = 0, (2 radius + 1)^3 evaluations,
    and each reported solution is checked by the group law.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    width = 2 * radius + 1
    if width**3 > KLEIN_SCAN_MAX_PAIRS:
        raise BoundExceededError(
            f"Klein scan of radius {radius} exceeds {KLEIN_SCAN_MAX_PAIRS} evaluations: "
            f"it needs {width**3}"
        )
    rng = range(-radius, radius + 1)
    sols = []
    for a in rng:
        for b in rng:
            x = (a, b)
            for c in rng:
                y = (c, 0)
                lhs = _klein_mul(_klein_mul(_klein_mul(x, y), x), y)  # x y x y
                if lhs == _klein_mul(_klein_mul(_klein_mul(_klein_inv(y), x), y), x):
                    sols.append((x, y))
    return KleinScanResult(radius, tuple(sols))
