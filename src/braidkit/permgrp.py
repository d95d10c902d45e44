"""Permutations and permutation-group analytics: composition, cycle
types, orbits, minimal blocks and primitivity, subgroup closure, group
orders and membership from a Schreier–Sims stabilizer chain, centraliser
orders, and lower central series of finite groups.

One stabilizer chain, ``_Chain``, over image tuples generates every
group.  ``closure`` and the listed LCS terms are its listing; its order
answers the rest: group orders, the check that an element list is a
group, and lower central series as normal closures.  A chain stops once
its order passes the most elements its caller accepts; ``group_order``
bounds its transversal cells by ``DEFAULT_CLOSURE_BOUND`` instead.

Composition is left-to-right throughout: (p * q)(x) = q(p(x)).  Points
are 0-based internally; cycle notation and all reported point sets are
1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, lcm
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import BoundExceededError, InvalidInputError

if TYPE_CHECKING:
    from .zlinalg import FgAbelianGroup

__all__ = [
    "Permutation",
    "identity_perm",
    "compose",
    "parse_cycles",
    "CycleType",
    "cycle_type",
    "centralizer_order",
    "orbits",
    "is_primitive",
    "closure",
    "group_order",
    "DEFAULT_CLOSURE_BOUND",
    "GroupInvariants",
    "lower_central_series",
    "finite_group_invariants",
]

DEFAULT_CLOSURE_BOUND = 10**6
# elements × degree of a ``closure`` list, refused before any is listed, as
# the census tables and ``zlinalg.RELATOR_MATRIX_MAX_CELLS`` are at 10⁷
CLOSURE_MAX_CELLS = 10**7


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., m-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.images)
        if sorted(self.images) != list(range(m)):
            raise InvalidInputError("image array is not a bijection")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 1-based, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            cyc, x = [], start
            while not seen[x]:
                seen[x] = True
                cyc.append(x + 1)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p) for p in cyc) + ")" for cyc in cycs)

    def to_json(self) -> list[int]:
        """1-based image array [img(1), ..., img(m)]."""
        return [i + 1 for i in self.images]

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Permutation":
        return cls(tuple(int(x) - 1 for x in data))


def identity_perm(m: int) -> Permutation:
    return Permutation(tuple(range(m)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: apply p first, then q."""
    if p.degree != q.degree:
        raise InvalidInputError("cannot compose permutations of different degrees")
    qi = q.images
    return Permutation(tuple(qi[i] for i in p.images))


_CYCLE_RE = re.compile(r"\s*\(([0-9,\s]*)\)\s*")


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-based cycle notation, e.g. "(1,2)(3,4,5)"; "()" is the identity.

    Points are comma-separated; spaces may surround points and cycles, but
    an empty point, as in "(1,,2)", or points separated by spaces alone,
    as in "(1 2)", are refused, and so are cycles that share a point, as
    in "(1,2)(2,3)".
    """
    if not text.strip():
        raise InvalidInputError("empty permutation string")
    cycles = []
    consumed = 0
    for match in _CYCLE_RE.finditer(text):
        if match.start() != consumed:
            raise InvalidInputError(f"cannot parse permutation {text!r}")
        consumed = match.end()
        body = match.group(1)
        if body.strip():
            tokens = [tok.strip() for tok in body.split(",")]
            if not all(tok.isdigit() for tok in tokens):
                raise InvalidInputError(
                    f"bad cycle in {text!r}: points must be comma-separated numbers"
                )
            # a point with more digits than the bound is over it, and is
            # refused before int() meets Python's digit limit
            tokens = [tok.lstrip("0") or "0" for tok in tokens]
            digits = max(map(len, tokens))
            if digits > len(str(DEFAULT_CLOSURE_BOUND)):
                raise BoundExceededError(
                    f"a cycle point of {digits} digits exceeds bound {DEFAULT_CLOSURE_BOUND}"
                )
            points = [int(tok) for tok in tokens]
            if any(p < 1 for p in points) or len(set(points)) != len(points):
                raise InvalidInputError(f"bad cycle in {text!r}")
            cycles.append(points)
    if consumed != len(text):
        raise InvalidInputError(f"cannot parse permutation {text!r}")
    moved = [x for cyc in cycles for x in cyc]
    if len(moved) != len(set(moved)):
        raise InvalidInputError(f"cycles overlap in {text!r}")
    maxpoint = max(moved, default=0)
    m = degree if degree is not None else maxpoint
    if maxpoint > m:
        raise InvalidInputError(f"cycle point {maxpoint} exceeds degree {m}")
    if m > DEFAULT_CLOSURE_BOUND:
        raise BoundExceededError(f"degree {m} exceeds bound {DEFAULT_CLOSURE_BOUND}")
    images = list(range(m))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return Permutation(tuple(images))


@dataclass(frozen=True)
class CycleType:
    """Multiplicities l_k of k-cycles, k = 1..m (fixed points included)."""

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(k * l for k, l in enumerate(self.multiplicities, start=1)) != self.degree:
            raise InvalidInputError("cycle lengths do not sum to the degree")

    @property
    def degree(self) -> int:
        return len(self.multiplicities)

    @classmethod
    def from_lengths(cls, lengths: Iterable[int], degree: int | None = None) -> "CycleType":
        lengths = list(lengths)
        m = degree if degree is not None else sum(lengths)
        if m > DEFAULT_CLOSURE_BOUND:
            raise BoundExceededError(f"degree {m} exceeds bound {DEFAULT_CLOSURE_BOUND}")
        mult = [0] * m
        for k in lengths:
            if not 1 <= k <= m:
                raise InvalidInputError(f"cycle length {k} outside 1..{m}")
            mult[k - 1] += 1
        return cls(tuple(mult))

    def lengths(self) -> list[int]:
        return [k for k, l in enumerate(self.multiplicities, start=1) for _ in range(l)]

    def __str__(self) -> str:
        return "".join(
            f"({k})^{l}" for k, l in enumerate(self.multiplicities, start=1) if l
        )


def cycle_type(p: Permutation) -> CycleType:
    lengths = [len(cyc) for cyc in p.cycles()]  # the fixed points are 1-cycles
    return CycleType.from_lengths(lengths + [1] * (p.degree - sum(lengths)), p.degree)


def centralizer_order(t: CycleType) -> int:
    """Order of the centraliser in S_m of any permutation of this type:
    the product over cycle lengths k of k^(l_k) * (l_k)!.
    """
    out = 1
    for k, l in enumerate(t.multiplicities, start=1):
        out *= k**l * factorial(l)
    return out


def orbits(gens: Sequence[Permutation], m: int) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of {1..m}, each orbit sorted, ordered by least point."""
    for g in gens:
        if g.degree != m:
            raise InvalidInputError("generator degree mismatch")
    seen = [False] * m
    out = []
    for start in range(m):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        queue = [start]
        while queue:
            x = queue.pop()
            for g in gens:
                y = g.images[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    queue.append(y)
        out.append(tuple(sorted(p + 1 for p in orbit)))
    return tuple(out)


def _minimal_block(gens: Sequence[Permutation], m: int, beta: int) -> list[int]:
    """Smallest block containing {0, beta} (0-based), by orbit merging."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parent[find(beta)] = find(0)
    pairs = [(0, beta)]
    while pairs:
        x, y = pairs.pop()
        for g in gens:
            gx, gy = g.images[x], g.images[y]
            rx, ry = find(gx), find(gy)
            if rx != ry:
                parent[ry] = rx
                pairs.append((gx, gy))
    root = find(0)
    return [p for p in range(m) if find(p) == root]


def is_primitive(
    gens: Sequence[Permutation], m: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Primitivity of the group generated by gens acting on {1..m}.

    Returns (True, None) or (False, witness), where the witness is a
    nontrivial block (or an orbit when the action is intransitive).
    For m <= 2 no nontrivial partition exists, so every group counts
    as primitive, the trivial group included.
    """
    return _primitivity(gens, m, orbits(gens, m))


def _primitivity(
    gens: Sequence[Permutation], m: int, parts: tuple[tuple[int, ...], ...]
) -> tuple[bool, tuple[int, ...] | None]:
    """``is_primitive``, given parts, the ``orbits`` of gens."""
    if m <= 2:
        return True, None
    if len(parts) > 1:
        return False, parts[0]
    for beta in range(1, m):
        block = _minimal_block(gens, m, beta)
        if 1 < len(block) < m:
            return False, tuple(p + 1 for p in block)
    return True, None


def closure(gens: Sequence[Permutation], bound: int = DEFAULT_CLOSURE_BOUND) -> list[Permutation]:
    """All elements of the group generated by gens, sorted by image array:
    the listing of their ``_Chain``.

    Raises BoundExceededError if the group has more than ``bound``
    elements, or if the list would hold more than ``CLOSURE_MAX_CELLS``
    cells (elements × degree); the chain's order checks both before any
    element is listed, and nothing is truncated silently.
    """
    if bound < 1:
        raise InvalidInputError("closure bound must be >= 1")
    if not gens:
        raise InvalidInputError("closure needs at least one generator")
    m = gens[0].degree
    for g in gens:
        if g.degree != m:
            raise InvalidInputError("generator degree mismatch")
    # the chain's cells are at most m·Π|Δ_i|, so past the list's cell
    # bound they show a list past it too
    chain = _Chain(m, [g.images for g in gens], CLOSURE_MAX_CELLS, bound)
    cells = chain.order() * m
    if cells > CLOSURE_MAX_CELLS:
        raise BoundExceededError(
            f"group closure needs {cells} cells ({chain.order()} elements × degree {m}), "
            f"over the bound {CLOSURE_MAX_CELLS}"
        )
    return [_trusted(t) for t in chain.elements()]


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation of an image tuple already known to be a bijection,
    built without the sorting check of ``Permutation.__post_init__``."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def _inverse(t: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(t)
    for i, j in enumerate(t):
        inv[j] = i
    return tuple(inv)


def _conjugate(h, hinv, x):
    """The image tuple of h⁻¹·x·h: point h(i) goes to h(x(i))."""
    return tuple([h[x[k]] for k in hinv])


def _power(t: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The image tuple of t^e for any integer e, by repeated squaring on
    the image tuple: O(m·log|e|), and t itself for e = 1."""
    if e < 0:
        t, e = _inverse(t), -e
    if e == 1 or len(t) < 2:  # below degree 2 the identity is the only permutation
        return t
    out = None  # the product of the squares t^(2^i) for the bits of e
    while e:
        if e & 1:
            # itemgetter(*p)(q) is the product p·q
            out = t if out is None else itemgetter(*out)(t)
        e >>= 1
        if e:
            t = itemgetter(*t)(t)
    return tuple(range(len(t))) if out is None else out


class _Chain:
    """A stabilizer chain of the group generated by the image tuples of
    degree m added so far, built by the deterministic Schreier–Sims
    algorithm (Sims 1970; Seress, *Permutation Group Algorithms*, 2003,
    ch. 4); the elements are never listed.

    Level i of the chain keeps a base point b_i, its orbit Δ_i under the
    strong generators that fix b_0..b_{i-1}, and for each orbit point β
    a transversal element u_β taking b_i to β, with its inverse.
    ``add(g)`` sifts g through the levels and returns False when the
    residue is the identity, that is when the chain already holds g.
    Otherwise the residue becomes a strong generator of the levels it
    passed (when it fixes every base point, the first point it moves
    becomes the next base point), and every Schreier generator
    u_β·s·u_{s(β)}⁻¹ is sifted the same way until none is new; each
    (orbit point, strong generator) pair is taken once, the deepest
    level's first.  The order is Π|Δ_i|, and every element is exactly one
    product u_{k-1}⋯u_0 of one transversal element per level.

    BoundExceededError is raised past ``bound`` cells, the Σ|Δ_i|·m of the
    transversals, or once the order passes ``cap``; a None is unchecked.
    Π|Δ_i| only grows, and when it is checked every orbit has at least 2
    points, so Σ|Δ_i| <= Π|Δ_i| and a cap holds the cells to m·cap.
    """

    def __init__(self, m: int, gens: Iterable = (), bound=DEFAULT_CLOSURE_BOUND, cap=None) -> None:
        if bound is not None and bound < 1:
            raise InvalidInputError("chain bound must be >= 1")
        self.m, self.bound, self.cap, self.cells, self.size = m, bound, cap, 0, 1
        self.ident = tuple(range(m))
        self.base: list[int] = []
        self.transversals: list[dict] = []  # per level: orbit point β -> (u_β, u_β⁻¹)
        self.strong: list[list] = []  # per level: (s, s⁻¹) for each strong generator
        for g in gens:
            self.add(g)

    def order(self) -> int:
        return self.size

    def elements(self) -> list[tuple[int, ...]]:
        """The image tuple of every element, sorted, from the products of
        one transversal element per level, the deepest applied first."""
        out = [self.ident]
        for orbit in reversed(self.transversals):
            us = [u for u, _ in orbit.values()]
            # itemgetter(*p)(u) is the product p·u
            out = [pick(u) for pick in [itemgetter(*p) for p in out] for u in us]
        return sorted(out)

    def add(self, g: tuple[int, ...]) -> bool:
        base, transversals, strong = self.base, self.transversals, self.strong
        m, ident, cells, size = self.m, self.ident, self.cells, self.size
        bound, cap = self.bound, self.cap
        pending: list = []  # (level, β, s, s⁻¹), each pair pushed once
        h, top, added = g, 0, False  # h is to be sifted from level top
        while True:
            if h is not None:
                level = top
                while level < len(base):
                    b = base[level]
                    beta = h[b]
                    if beta != b:
                        entry = transversals[level].get(beta)
                        if entry is None:
                            break
                        h = itemgetter(*h)(entry[1])
                    level += 1
                if h != ident:  # a new strong generator of levels top..level
                    added = True
                    if level == len(base):  # h moves b, so a checked point follows
                        cells += m
                        b = next(i for i, x in enumerate(h) if i != x)
                        base.append(b)
                        transversals.append({b: (ident, ident)})
                        strong.append([])
                    hinv = _inverse(h)
                    for i in range(top, level + 1):
                        strong[i].append((h, hinv))
                        # above the last level h fixes b_i, so the Schreier
                        # generator of (b_i, h) is h, which the rule below skips
                        fixed = base[i] if i < level else None
                        pending.extend(
                            [(i, beta, h, hinv) for beta in transversals[i] if beta != fixed]
                        )
            if not pending:
                break
            level, beta, s, sinv = pending.pop()
            orbit = transversals[level]
            u, uinv = orbit[beta]
            t = itemgetter(*u)(s)  # u_β·s takes b_level to s(β)
            gamma = s[beta]
            entry = orbit.get(gamma)
            h = None
            if entry is None:
                cells += m
                if bound is not None and cells > bound:
                    raise BoundExceededError(f"stabilizer chain exceeds bound {bound} cells")
                size = size // len(orbit) * (len(orbit) + 1)
                if cap is not None and size > cap:
                    raise BoundExceededError(f"group closure exceeds bound {cap}")
                orbit[gamma] = (t, itemgetter(*sinv)(uinv))
                pending.extend([(level, gamma, s2, s2inv) for s2, s2inv in strong[level]])
            elif t != entry[0]:
                h, top = itemgetter(*t)(entry[1]), level + 1
                if h == s:
                    # s fixes b_level, so it moves the base point of a deeper
                    # level and is a strong generator of level + 1 already
                    h = None
        self.cells, self.size = cells, size
        return added


def group_order(gens: Sequence[tuple[int, ...]], bound: int = DEFAULT_CLOSURE_BOUND) -> int:
    """Order of the group generated by image tuples of one degree m, from
    a ``_Chain``; past ``bound`` transversal cells it raises
    BoundExceededError."""
    gens = list(gens)
    m = len(gens[0]) if gens else 0
    if any(len(g) != m for g in gens):
        raise InvalidInputError("generator degree mismatch")
    return _Chain(m, gens, bound).order()


def _check_closed(elements: Sequence[Permutation]) -> tuple[list, list]:
    """The distinct elements, sorted, and those a ``_Chain`` takes as new,
    a generating set of them, once checked to form a group: exactly when
    the group they generate is no larger than the set, so the chain is
    capped at the set's size.
    """
    if not elements:
        raise InvalidInputError("empty element list")
    m = elements[0].degree
    elems = sorted({e.images for e in elements})
    if any(len(t) != m for t in elems):
        raise InvalidInputError("element degree mismatch")
    try:
        chain = _Chain(m, (), None, len(elems))
        gens = [t for t in elems if chain.add(t)]
        closed = chain.order() == len(elems)
    except BoundExceededError:  # the group outgrew the set
        closed = False
    if not closed:
        raise InvalidInputError("the elements do not form a group")
    return [_trusted(t) for t in elems], gens


def _series(gens: list, m: int, order: int) -> list[tuple[_Chain, list]]:
    """(chain, generators) of each term after the first of the lower
    central series of the group of order ``order`` generated by the image
    tuples ``gens`` of degree m.  Γᵢ₊₁ = [Γᵢ, G] is the normal closure of
    the commutators of Γᵢ's generators with G's (Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4): each element
    the chain takes as new is a generator, and its conjugates by G's
    generators are sifted in turn, so the loop ends with the chain, which
    is capped at ``order`` since every term lies in the group.  Stops at
    the first repeat or at the trivial subgroup.
    """
    pairs = [(g, _inverse(g)) for g in gens]
    terms: list[tuple[_Chain, list]] = []
    current, prev = gens, order
    while True:
        # [a, g] = a⁻¹·g⁻¹·a·g takes x to g(a(g⁻¹(a⁻¹(x))))
        todo = [
            tuple([g[a[ginv[k]]] for k in _inverse(a)]) for a in current for g, ginv in pairs
        ]
        chain, nxt = _Chain(m, (), None, order), []
        while todo:
            x = todo.pop()
            if chain.add(x):
                nxt.append(x)
                todo += [_conjugate(g, ginv, x) for g, ginv in pairs]
        terms.append((chain, nxt))
        if chain.order() in (1, prev):
            return terms
        current, prev = nxt, chain.order()


def lower_central_series(elements: Sequence[Permutation]) -> list[list[Permutation]]:
    """Successive terms of the lower central series of a finite group,
    given as a closed element list.  Stops at the first repeat or at the
    trivial subgroup; the final term is included; each term after the
    first is the listing of the chain ``_series`` built for it."""
    group, gens = _check_closed(elements)
    terms = _series(gens, group[0].degree, len(group))
    return [group] + [[_trusted(t) for t in chain.elements()] for chain, _ in terms]


@dataclass(frozen=True)
class GroupInvariants:
    order: int
    abelianization: FgAbelianGroup
    lcs_orders: tuple[int, ...]


def _abelian_invariants(gens: list, order: int, normal: list, normal_order: int) -> FgAbelianGroup:
    """Invariant factors of the abelian quotient A = ⟨gens⟩ / ⟨normal⟩, of
    orders ``order`` and ``normal_order``, from chain orders alone: A^e is
    generated by the images of the t^e, t in gens, so |⟨normal, t^e⟩| =
    |⟨normal⟩|·|A^e|, and |A^(p^(j-1))| / |A^(p^j)| = p^k_j, where k_j
    counts the cyclic p-summands of exponent >= j.
    """
    from .zlinalg import FgAbelianGroup  # the module's only use of zlinalg

    moduli: list[int] = []
    for p in _prime_factors(order // normal_order):
        ks: list[int] = []  # ks[j-1] = k_j
        prev, e = order, p
        m = len(gens[0])  # order > normal_order, so gens is not empty
        while (cur := _Chain(m, normal + [_power(t, e) for t in gens], None, order).order()) < prev:
            ks.append(next(k for k in range(1, prev) if cur * p**k == prev))
            prev, e = cur, e * p
        # the exponents are the partition conjugate to ks
        moduli += [p ** sum(k >= i for k in ks) for i in range(1, ks[0] + 1)]
    return FgAbelianGroup.from_moduli(moduli)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def finite_group_invariants(elements: Sequence[Permutation]) -> GroupInvariants:
    """Order, abelianisation, and lower-central-series orders of a finite
    group given as a closed element list, from the chain orders of
    ``_series`` without listing any term."""
    group, gens = _check_closed(elements)
    return _invariants(gens, group[0].degree, len(group))


def _invariants(gens: list, m: int, order: int) -> GroupInvariants:
    """``finite_group_invariants`` of the group of order ``order``
    generated by the image tuples ``gens`` of degree m."""
    terms = _series(gens, m, order)
    derived_chain, derived = terms[0]
    ab = _abelian_invariants(gens, order, derived, derived_chain.order())
    return GroupInvariants(order, ab, (order, *(chain.order() for chain, _ in terms)))
