"""Permutations and permutation-group analytics: composition, cycle
types, orbits, minimal blocks and primitivity, subgroup closure, group
orders from a Schreier–Sims stabilizer chain, centraliser orders, and
lower central series of finite groups.

``closure`` lists every element and serves where the list is the
output; ``group_order`` builds a stabilizer chain over image tuples and
never lists the group, so its cost follows the chain's size, not the
order.  Both are bounded by ``DEFAULT_CLOSURE_BOUND``: elements for the
closure, stored transversal cells for the chain.

Composition is left-to-right throughout: (p * q)(x) = q(p(x)).  Points
are 0-based internally; cycle notation and all reported point sets are
1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, prod
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import BoundExceededError, InvalidInputError
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
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(p + 1 for p in cyc))
        return out

    def order(self) -> int:
        out = 1
        for cyc in self.cycles():
            out = out * len(cyc) // gcd(out, len(cyc))
        return out

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
    as in "(1 2)", are refused.
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
    maxpoint = max((p for cyc in cycles for p in cyc), default=0)
    m = degree if degree is not None else maxpoint
    if maxpoint > m:
        raise InvalidInputError(f"cycle point {maxpoint} exceeds degree {m}")
    if m > DEFAULT_CLOSURE_BOUND:
        raise BoundExceededError(f"degree {m} exceeds bound {DEFAULT_CLOSURE_BOUND}")
    images = list(range(m))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    perm = Permutation(tuple(images))
    if sorted(x for cyc in cycles for x in cyc) != sorted(
        set(x for cyc in cycles for x in cyc)
    ):
        raise InvalidInputError(f"cycles overlap in {text!r}")
    return perm


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
        out = []
        for k, l in enumerate(self.multiplicities, start=1):
            out.extend([k] * l)
        return out

    def __str__(self) -> str:
        return "".join(
            f"({k})^{l}" for k, l in enumerate(self.multiplicities, start=1) if l
        )


def cycle_type(p: Permutation) -> CycleType:
    seen = [False] * p.degree
    lengths = []
    for start in range(p.degree):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = p.images[x]
        lengths.append(length)
    return CycleType.from_lengths(lengths, p.degree)


def centralizer_order(t: CycleType) -> int:
    """Order of the centraliser in S_m of any permutation of this type:
    the product over cycle lengths k of k^(l_k) * (l_k)!.
    """
    out = 1
    for k, l in enumerate(t.multiplicities, start=1):
        out *= k**l
        for i in range(2, l + 1):
            out *= i
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
    if m <= 2:
        return True, None
    parts = orbits(gens, m)
    if len(parts) > 1:
        return False, parts[0]
    for beta in range(1, m):
        block = _minimal_block(gens, m, beta)
        if 1 < len(block) < m:
            return False, tuple(p + 1 for p in block)
    return True, None


def closure(
    gens: Sequence[Permutation],
    bound: int = DEFAULT_CLOSURE_BOUND,
    within: set | None = None,
) -> list[Permutation]:
    """All elements of the group generated by gens, sorted by image array.

    Raises BoundExceededError if the group has more than ``bound``
    elements; never truncates silently.  With ``within`` (a set of image
    tuples) given, the identity and every product must lie in it: the
    first one outside raises InvalidInputError.
    """
    if bound < 1:
        raise InvalidInputError("closure bound must be >= 1")
    if not gens:
        raise InvalidInputError("closure needs at least one generator")
    m = gens[0].degree
    for g in gens:
        if g.degree != m:
            raise InvalidInputError("generator degree mismatch")
    ident = tuple(range(m))
    if within is not None and ident not in within:
        raise InvalidInputError("the identity is outside the ambient set")
    if m < 2:  # the identity is the only permutation
        return [Permutation(ident)]
    seen = {ident}
    frontier = [ident]
    # pick(x) is the product g * x, so this grows the group from the left;
    # itemgetter builds the image tuple in one C call
    pickers = [itemgetter(*g.images) for g in gens]
    while frontier:
        new = []
        for x in frontier:
            for pick in pickers:
                y = pick(x)
                if y not in seen:
                    if within is not None and y not in within:
                        raise InvalidInputError("a product leaves the ambient set")
                    if len(seen) >= bound:
                        raise BoundExceededError(
                            f"group closure exceeds bound {bound}"
                        )
                    seen.add(y)
                    new.append(y)
        frontier = new
    return [_trusted(t) for t in sorted(seen)]


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


def group_order(gens: Sequence[tuple[int, ...]], bound: int = DEFAULT_CLOSURE_BOUND) -> int:
    """Order of the group generated by image tuples of one degree m, from
    a stabilizer chain built by the deterministic Schreier–Sims algorithm
    (Sims 1970; Seress, *Permutation Group Algorithms*, 2003); the
    elements are never listed.

    Level i of the chain keeps a base point b_i, its orbit Δ_i under the
    strong generators that fix b_0..b_{i-1}, and for each orbit point β
    a transversal element u_β taking b_i to β, with its inverse.  Every
    Schreier generator u_β·s·u_{s(β)}⁻¹ is sifted through the levels
    below; a residue that is not the identity becomes a strong
    generator of the levels it passed, and when it fixes every base
    point, the first point it moves becomes the next base point.  Each
    (orbit point, strong generator) pair is taken once, the deepest
    level's first.  The order is Π|Δ_i|.

    The transversals hold Σ|Δ_i|·m cells; past ``bound`` it raises
    BoundExceededError.
    """
    if bound < 1:
        raise InvalidInputError("chain bound must be >= 1")
    gens = list(gens)
    m = len(gens[0]) if gens else 0
    if any(len(g) != m for g in gens):
        raise InvalidInputError("generator degree mismatch")
    if m < 2:  # the identity is the only permutation
        return 1
    ident = tuple(range(m))
    base: list[int] = []
    transversals: list[dict] = []  # per level: orbit point β -> (u_β, u_β⁻¹)
    strong: list[list] = []  # per level: (s, s⁻¹) for each strong generator
    pending: list = []  # (level, β, s, s⁻¹), each pair pushed once
    cells = 0
    for g in gens:
        h, top = g, 0  # h is to be sifted from level top
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
                if cells > bound:
                    raise BoundExceededError(f"stabilizer chain exceeds bound {bound} cells")
                orbit[gamma] = (t, itemgetter(*sinv)(uinv))
                pending.extend([(level, gamma, s2, s2inv) for s2, s2inv in strong[level]])
            elif t != entry[0]:
                h, top = itemgetter(*t)(entry[1]), level + 1
                if h == s:
                    # s fixes b_level, so it moves the base point of a deeper
                    # level and is a strong generator of level + 1 already
                    h = None
    return prod(map(len, transversals))


def _commutator_perm(g: Permutation, h: Permutation) -> Permutation:
    return g.inverse() * h.inverse() * g * h


def lower_central_series(elements: Sequence[Permutation]) -> list[list[Permutation]]:
    """Successive terms of the lower central series of a finite group,
    given as a closed element list.  Stops at the first repeat or at the
    trivial subgroup; the final term is included.
    """
    group = _check_closed(elements)
    terms = [group]
    while True:
        current = terms[-1]
        comms = {(_commutator_perm(g, h)).images for g in group for h in current}
        nontrivial = [Permutation(t) for t in comms if any(i != j for i, j in enumerate(t))]
        if nontrivial:
            nxt = closure(nontrivial, bound=len(group))
        else:
            nxt = [identity_perm(group[0].degree)]
        terms.append(nxt)
        if len(nxt) == 1 or len(nxt) == len(current):
            return terms


def _check_closed(elements: Sequence[Permutation]) -> list[Permutation]:
    """The distinct elements, sorted, once checked to form a group: each
    element outside the subgroup so far joins the generators and the
    subgroup is re-closed within the list.  Each re-closure at least
    doubles it (Lagrange), so O(|G| log |G|) products in all.
    """
    if not elements:
        raise InvalidInputError("empty element list")
    elems = {e.images for e in elements}
    group = [identity_perm(elements[0].degree)]
    sub = {group[0].images}
    gens: list[Permutation] = []
    for e in elements:
        if e.images not in sub:
            gens.append(e)
            group = closure(gens, len(elems), within=elems)
            sub = {p.images for p in group}
    return group


@dataclass(frozen=True)
class GroupInvariants:
    order: int
    abelianization: FgAbelianGroup
    lcs_orders: tuple[int, ...]


def _abelian_invariants_from_cosets(
    group: list[Permutation], normal: list[Permutation]
) -> FgAbelianGroup:
    """Invariant factors of the (abelian) quotient group / normal subgroup,
    recovered from order statistics of the cosets.

    For an abelian group, counting solutions of x^(p^j) = 1 for each
    prime power determines the multiset of elementary divisors.
    """
    normal_set = {p.images for p in normal}
    reps: list[Permutation] = []
    covered: set = set()
    for el in group:
        if el.images in covered:
            continue
        reps.append(el)
        for h in normal:
            covered.add((el * h).images)
    q = len(reps)

    def power_in_normal(rep: Permutation, e: int) -> bool:
        acc = identity_perm(rep.degree)
        base = rep
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc.images in normal_set

    moduli: list[int] = []
    for p in _prime_factors(q):
        # ks[j-1] = number of cyclic p-summands with exponent >= j
        ks: list[int] = []
        prev_count = 1
        j = 1
        while True:
            count = sum(1 for rep in reps if power_in_normal(rep, p**j))
            ratio = count // prev_count
            k = 0
            while ratio > 1:
                ratio //= p
                k += 1
            if k == 0:
                break
            ks.append(k)
            prev_count = count
            j += 1
        for exp in range(1, len(ks) + 1):
            nxt = ks[exp] if exp < len(ks) else 0
            moduli.extend([p**exp] * (ks[exp - 1] - nxt))
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
    group given as a closed element list."""
    series = lower_central_series(elements)
    group = series[0]
    derived = series[1]
    ab = _abelian_invariants_from_cosets(group, derived)
    return GroupInvariants(len(group), ab, tuple(len(t) for t in series))
