"""Verify, classify, enumerate, and combine homomorphisms from a finitely
presented group into a symmetric group S_m.

Words are evaluated left-to-right, matching the composition convention of
the permutation module.  The census search assigns generator images in
order of decreasing relator usage (so the heavily constrained sigma
generators go first) and prunes on every relator whose generators are all
assigned.

One kernel evaluates relators for the census and for verify_hom (and so
for classify_hom).  Each relator is compiled once, as ``Word.runs``, into
its maximal cyclic runs (generator index, signed exponent k), and each
permutation t in play gets one table per exponent, its power t^k:
verify_hom builds the powers each generator's runs use, keyed by k, and
the census builds those of every exponent for all of S_m before it
starts, one slot of an element's tuple each, and then only assigns
element indices.  ``_holds`` follows one point at a time through the runs
over those tables and stops at the first point the word moves, so a
rejected candidate usually costs one lookup per run, however long the
runs are.

Image orders, for classify_hom and the surjective and cyclic filters,
come from ``permgrp.group_order``, a Schreier–Sims stabilizer chain that
never lists the image group: the image is S_m when its order is m!, and
commuting images generate a cyclic group when the lcm of their orders
equals the order.

The census counts by conjugacy orbits.  Every relator and every predicate
is invariant under simultaneous conjugation, so the first generator in
search order takes one image r per cycle type, weighted by its class size
m!/|C(r)|, and the second one image per orbit of the centralizer C(r)
acting by conjugation, weighted by the orbit size (canonical
augmentation; McKay, J. Algorithms 26, 1998).  An accepted leaf adds
the product of its weights.  Representatives are drawn from the
S_m-conjugates of the accepted leaves, each homomorphism met exactly
once.

Deeper generators take their candidates from memoised solution sets.  A
relator that becomes complete at depth d ≥ 2 but does not involve the
generator at d − 1 sees the same images of its other generators at
every sibling, so the elements of S_m that satisfy it are found once per
tuple of those images and kept for the rest of the search.  A node tries
the intersection of its relators' sets, and checks each candidate with
``_holds`` on the relators that do involve the generator at d − 1; a
depth with no such memoised relator tries every element of S_m.

The search is bounded by nodes counted as it runs: one per candidate
image examined (at a deep node, each element of its smallest solution
set, or of S_m when it has none), one per element of S_m for each
solution set computed and each root's centralizer-orbit pass, and, when
representatives are kept, one per homomorphism they are chosen from, so
the memo's size stays within the bound too.  Past ``search_bound`` it
raises BoundExceededError.

``enumerate_homs`` deals the p(m) root classes into min(workers, p(m),
usable CPUs) shards and merges them in one place: counts and nodes
summed, representatives sorted and cut, so the result, or the error, is
the same for any number of workers.  With more than one shard it first
runs the whole census serially in this process under ``SERIAL_NODES``
nodes, since a small census ends sooner than a pool of processes starts,
and runs the shards in a pool only when that trial runs out.  The trial's
work is then thrown away, so a sharded census spends at most
``SERIAL_NODES`` nodes beyond its bound.
"""

from __future__ import annotations

import itertools
import os
from bisect import insort
from dataclasses import dataclass
from math import factorial, lcm

from .errors import BoundExceededError, InvalidInputError, checked, json_field
from .fpgroup import Presentation, class2_quotient_presentation, closed_orientable
from .permgrp import (
    DEFAULT_CLOSURE_BOUND,
    Permutation,
    _conjugate,
    _inverse,
    _power,
    _primitivity,
    group_order,
    is_primitive,
    orbits,
    parse_cycles,
)

__all__ = [
    "GeneratorAssignment",
    "HomClassification",
    "verify_hom",
    "classify_hom",
    "CensusResult",
    "enumerate_homs",
    "direct_sum",
    "PREDICATES",
    "imprimitive_s8_assignment",
    "imprimitive_s16_assignment",
    "imprimitive_s32_assignment",
    "wreath_cycle_assignment",
    "composite_s408_assignment",
    "builtin_assignment",
]

DEFAULT_SEARCH_BOUND = 10**7
# nodes a census with more than one worker spends serially, in this
# process, before any pool starts; measured in ``enumerate_homs``
SERIAL_NODES = 3 * 10**4


@dataclass(frozen=True)
class GeneratorAssignment:
    """One permutation image per generator of a presentation."""

    presentation: Presentation
    degree: int
    images: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.presentation.generator_count:
            raise InvalidInputError("one image per generator required")
        for p in self.images:
            if p.degree != self.degree:
                raise InvalidInputError("image degree mismatch")

    def image_of(self, name: str) -> Permutation:
        return self.images[self.presentation.generator_index(name) - 1]

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "images": {
                name: perm.cycle_string()
                for name, perm in zip(self.presentation.generator_names, self.images)
            },
        }

    @classmethod
    def from_json(cls, presentation: Presentation, data: dict) -> "GeneratorAssignment":
        checked(data, dict, "assignment")
        degree = json_field(data, "degree", int, "assignment")
        named = json_field(data, "images", dict, "assignment")
        cells = degree * presentation.generator_count
        if cells > DEFAULT_CLOSURE_BOUND:
            raise BoundExceededError(
                f"assignment needs {cells} image cells (degree {degree} × "
                f"{presentation.generator_count} generators), over the bound "
                f"{DEFAULT_CLOSURE_BOUND}"
            )
        unknown = sorted(set(named) - set(presentation.generator_names))
        if unknown:
            raise InvalidInputError(
                f"images for generators the presentation lacks: {', '.join(map(repr, unknown))}"
            )
        images = []
        for name in presentation.generator_names:
            if name not in named:
                raise InvalidInputError(f"missing image for generator {name!r}")
            images.append(parse_cycles(checked(named[name], str, f"image of {name!r}"), degree))
        return cls(presentation, degree, tuple(images))


def _exponents(presentation: Presentation) -> set[int]:
    """The exponents of the relators' runs, and 1, whose power is the
    image tuple itself."""
    return {1} | {k for rel in presentation.relators for _, k in rel.runs}


def _holds(word, tables) -> bool:
    """True when the compiled word evaluates to the identity, where for
    each run (g, key) tables[g][key] is the image tuple of the run's
    power of generator g: verify_hom keys a generator's tables by the
    exponent, the census its elements' by the exponent's slot.

    One point at a time is followed through the whole word, and the
    first point the word moves ends the check.  Point 0 is traced
    straight through the tables, which settles most failing words in one
    lookup per run; the steps are resolved once for the other points.
    """
    y = 0
    for g, k in word:
        y = tables[g][k][y]
    if y:
        return False
    steps = [tables[g][k] for g, k in word]
    for x in range(1, len(steps[0])):
        y = x
        for step in steps:
            y = step[y]
        if y != x:
            return False
    return True


def verify_hom(presentation: Presentation, assignment: GeneratorAssignment) -> int | None:
    """Check every relator; returns None if all hold, else the 1-based
    index of the first failing relator.

    Each generator gets a table for each exponent its runs use, t^k by
    repeated squaring.  The work, runs × degree lookups plus degree cells
    per table, is charged against ``DEFAULT_SEARCH_BOUND`` before any
    table is built; past it, BoundExceededError is raised.
    """
    if assignment.presentation.generator_count != presentation.generator_count:
        raise InvalidInputError("assignment arity does not match the presentation")
    m = assignment.degree
    words = [rel.runs for rel in presentation.relators]
    used = {run for word in words for run in word}
    runs = sum(map(len, words))
    cost = (runs + len(used)) * m
    if cost > DEFAULT_SEARCH_BOUND:
        raise BoundExceededError(
            f"verifying needs {cost} cells and lookups ({runs} runs and {len(used)} "
            f"power tables × degree {m}), over the bound {DEFAULT_SEARCH_BOUND}"
        )
    if m == 0:  # S_0 is trivial, and _holds starts at point 0
        return None
    tables = [{} for _ in assignment.images]
    for g, k in used:
        tables[g][k] = _power(assignment.images[g].images, k)
    for idx, word in enumerate(words, start=1):
        if not _holds(word, tables):
            return idx
    return None


@dataclass(frozen=True)
class HomClassification:
    valid: bool
    image_order: int
    abelian: bool
    cyclic: bool
    transitive: bool
    primitive: bool
    surjective_onto_sym: bool

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "image_order": self.image_order,
            "abelian": self.abelian,
            "cyclic": self.cyclic,
            "transitive": self.transitive,
            "primitive": self.primitive,
            "surjective": self.surjective_onto_sym,
        }


def classify_hom(presentation: Presentation, assignment: GeneratorAssignment) -> HomClassification:
    """Image-group classification of a valid homomorphism."""
    return _classify(presentation, assignment)[0]


def _classify(presentation: Presentation, assignment: GeneratorAssignment):
    """(classification, witness): ``classify_hom``'s result and, from the
    same orbit pass and block search, ``is_primitive``'s witness for the
    images (a nontrivial block, an orbit when intransitive, or None)."""
    failing = verify_hom(presentation, assignment)
    if failing is not None:
        err = InvalidInputError(f"assignment fails relator {failing}")
        err.failing_relator = failing
        raise err
    m = assignment.degree
    gens = assignment.images
    order = _image_order(gens)
    abelian = _commute(gens)
    parts = orbits(gens, m)  # one pass, for transitive and primitive
    primitive, witness = _primitivity(gens, m, parts)
    return HomClassification(
        valid=True,
        image_order=order,
        abelian=abelian,
        cyclic=abelian and _cyclic(gens, order),
        transitive=len(parts) == 1,
        primitive=primitive,
        surjective_onto_sym=order == factorial(m),
    ), witness


def _image_order(images) -> int:
    """Order of the group the images generate, from a stabilizer chain
    within its default bound ``permgrp.DEFAULT_CLOSURE_BOUND``."""
    return group_order([p.images for p in images])


def _commute(perms) -> bool:
    """True when the permutations commute pairwise."""
    tables = [p.images for p in perms]
    return all(
        tuple(map(b.__getitem__, a)) == tuple(map(a.__getitem__, b))
        for i, a in enumerate(tables)
        for b in tables[i + 1 :]
    )


def _cyclic(perms, order: int) -> bool:
    """Whether commuting permutations that generate a group of this order
    generate a cyclic one: the exponent of a finite abelian group, the lcm
    of its generators' orders, equals its order exactly when it is
    cyclic."""
    return lcm(*(p.order() for p in perms)) == order


def _predicate_transitive(images, m):
    return len(orbits(images, m)) == 1


def _predicate_primitive(images, m):
    return is_primitive(images, m)[0]


def _predicate_surjective(images, m):
    return _image_order(images) == factorial(m)


def _predicate_cyclic(images, m):
    return _commute(images) and _cyclic(images, _image_order(images))


def _predicate_abelian(images, m):
    return _commute(images)


PREDICATES = {
    "all": lambda images, m: True,
    "transitive": _predicate_transitive,
    "primitive": _predicate_primitive,
    "surjective": _predicate_surjective,
    "cyclic": _predicate_cyclic,
    "abelian": _predicate_abelian,
}


@dataclass(frozen=True)
class CensusResult:
    count: int
    representatives: tuple[GeneratorAssignment, ...]

    def to_json(self, include_representatives: bool = True) -> dict:
        out = {"count": self.count}
        if include_representatives:
            out["representatives"] = [a.to_json() for a in self.representatives]
        return out


def _search_plan(presentation: Presentation):
    """Assignment order (most-used generators first), per depth d the
    relators that become fully assigned at d, as two lists, and the
    exponents of their runs (see ``_exponents``), sorted: each relator
    is compiled as its runs (g, s), with s the slot of the run's exponent
    in that list.

    From d = 2 on, ``shared[d]`` holds each relator that does not involve
    the generator at depth d − 1, as (word, its other generators, an empty
    memo for its solution sets): every sibling under one depth-(d − 1)
    node sees the same images of those generators.  ``rest[d]`` holds the
    other words.
    """
    n = presentation.generator_count
    usage = [0] * n
    rel_gens = []
    for rel in presentation.relators:
        gens = {abs(let) - 1 for let in rel.letters}
        rel_gens.append(gens)
        for g in gens:
            usage[g] += 1
    order = sorted(range(n), key=lambda g: (-usage[g], g))
    depth_of = {g: d for d, g in enumerate(order)}
    shared = [[] for _ in range(n)]
    rest = [[] for _ in range(n)]
    exponents = sorted(_exponents(presentation))
    slot = {k: s for s, k in enumerate(exponents)}
    for rel, gens in zip(presentation.relators, rel_gens):
        depth = max(depth_of[g] for g in gens)
        word = tuple([(g, slot[k]) for g, k in rel.runs])
        if depth >= 2 and order[depth - 1] not in gens:
            shared[depth].append((word, tuple(sorted(gens - {order[depth]})), {}))
        else:
            rest[depth].append(word)
    return order, shared, rest, exponents


def _centralizer_gens(x: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Generators of the centralizer of x in S_m: a rotation of each cycle,
    and a swap of each pair of neighbouring cycles of equal length (fixed
    points are 1-cycles), which generate the product of the wreath
    products C_k wr S_(l_k)."""
    m = len(x)
    cycles = [[i] for i in range(m) if x[i] == i]
    cycles += [[p - 1 for p in cyc] for cyc in Permutation(x).cycles()]
    cycles.sort(key=len)
    gens = []
    for cyc in cycles:
        if len(cyc) > 1:
            g = list(range(m))
            for i in cyc:
                g[i] = x[i]
            gens.append(tuple(g))
    for c, d in zip(cycles, cycles[1:]):
        if len(c) == len(d):
            g = list(range(m))
            for i, j in zip(c, d):
                g[i], g[j] = j, i
            gens.append(tuple(g))
    return gens


def _conjugacy_orbits(gens, images, index):
    """Orbits of the group generated by gens acting on S_m by conjugation,
    in the order of their least elements.  Each orbit is (least element,
    {member: h}) with h a conjugator taking the least element to the
    member; all are element indices but h, an image tuple.

    A breadth-first pass over S_m: O(m! · len(gens)) conjugations.
    """
    pairs = [(g, _inverse(g)) for g in gens]
    identity = tuple(range(len(images[0])))
    placed = [False] * len(images)
    out = []
    for start in range(len(images)):
        if placed[start]:
            continue
        members = {start: identity}
        placed[start] = True
        frontier = [start]
        for y in frontier:
            x, hy = images[y], members[y]
            for g, ginv in pairs:
                z = index[_conjugate(g, ginv, x)]
                if not placed[z]:
                    placed[z] = True
                    members[z] = tuple([g[i] for i in hy])
                    frontier.append(z)
        out.append((start, members))
    return out


def _search(
    presentation: Presentation,
    m: int,
    predicate,
    max_representatives: int,
    shard: slice = slice(None),
    bound: int = DEFAULT_SEARCH_BOUND,
):
    """The orbit census: (count, sorted representative keys, nodes).

    The first generator in search order takes one image per conjugacy
    class of S_m, the second one image per orbit of that image's
    centralizer, and each deeper one the elements common to the solution
    sets of its shared relators (see ``_search_plan``), or every element
    of S_m when it has none.  A solution set is computed on its first
    use, at a charge of m! nodes, and kept in a dict of this call, so
    each shard keeps its own.  A leaf that passes the predicate counts the
    class size times the orbit size.  ``shard`` slices the list of
    classes the first image is taken from.
    """
    n = presentation.generator_count
    if n == 0:
        # the trivial group has exactly one homomorphism anywhere
        return (1 if predicate((), m) else 0), [], 0
    nodes = 0

    def spend(cost: int) -> None:
        nonlocal nodes
        nodes += cost
        if nodes > bound:
            raise BoundExceededError(f"census search exceeds {bound} nodes")

    # one root per class, and for n > 1 one orbit pass over S_m per root,
    # spent before any table is built
    roots = range(_partition_count(m))[shard]
    spend(len(roots) * (1 + factorial(m) if n > 1 else 1))
    order, shared, rest, exponents = _search_plan(presentation)
    images = list(itertools.permutations(range(m)))
    index = {x: i for i, x in enumerate(images)}
    perms = [Permutation(x) for x in images]
    # tables[i][s]: element i to the exponent of slot s
    tables = list(zip(*[[_power(x, k) for x in images] for k in exponents]))
    classes = _conjugacy_orbits(_centralizer_gens(images[0]), images, index)
    classes = classes[shard]
    chosen = [0] * n  # element index, per generator
    current: list = [None] * n  # tables[chosen[g]], per generator
    group: list = []  # accepted leaves of the current second image
    reps: list = []  # sorted image-tuple keys, capped
    k = max_representatives

    def place(depth: int, i: int) -> bool:
        gen = order[depth]
        chosen[gen] = i
        current[gen] = tables[i]
        return all(_holds(word, current) for word in rest[depth])

    def solutions(gen: int, word) -> set:
        """The element indices at gen that satisfy word, its other
        generators' images as chosen."""
        found = set()
        for i, table in enumerate(tables):
            current[gen] = table
            if _holds(word, current):
                found.add(i)
        return found

    def descend(depth: int) -> None:
        if depth == n:
            if predicate(tuple(perms[i] for i in chosen), m):
                group.append(tuple(chosen))
            return
        gen, words = order[depth], rest[depth]
        sets = []
        for word, others, memo in shared[depth]:
            key = tuple([chosen[g] for g in others])
            found = memo.get(key)
            if found is None:
                spend(len(tables))
                found = memo[key] = solutions(gen, word)
            sets.append(found)
        if sets:
            sets.sort(key=len)
            spend(len(sets[0]))
            candidates = sets[0].intersection(*sets[1:])
        else:
            spend(len(tables))
            candidates = range(len(tables))
        for i in candidates:
            chosen[gen] = i
            current[gen] = tables[i]
            for word in words:
                if not _holds(word, current):
                    break
            else:
                descend(depth + 1)

    def offer(key) -> None:
        if len(reps) < k:
            insort(reps, key)
        elif key < reps[-1]:
            insort(reps, key)
            reps.pop()

    def expand(conjugators) -> None:
        """Offer every conjugate of the group's leaves; conjugators take
        the group's first two images onto each pair in their orbit."""
        spend(len(group) * len(conjugators))
        for h in conjugators:
            hinv = _inverse(h)
            memo = {}
            for leaf in group:
                # once k keys are kept, a conjugate whose first image is
                # above the largest key's first image cannot enter
                if len(reps) == k:
                    first = memo.get(leaf[0])
                    if first is None:
                        first = memo[leaf[0]] = _conjugate(h, hinv, images[leaf[0]])
                    if first > reps[-1][0]:
                        continue
                key = []
                for i in leaf:
                    c = memo.get(i)
                    if c is None:
                        c = memo[i] = _conjugate(h, hinv, images[i])
                    key.append(c)
                offer(tuple(key))

    count = 0
    for r, rmembers in classes:
        if not place(0, r):
            continue
        if n == 1:  # no second generator: one empty orbit, weight 1
            seconds = [(None, {None: images[0]})]
        else:
            seconds = _conjugacy_orbits(_centralizer_gens(images[r]), images, index)
            spend(len(seconds))
        for s, smembers in seconds:
            if s is not None and not place(1, s):
                continue
            descend(min(2, n))
            if not group:
                continue
            count += len(rmembers) * len(smembers) * len(group)
            if k > 0:
                expand(
                    [
                        tuple([h2[i] for i in h1])
                        for h1 in smembers.values()
                        for h2 in rmembers.values()
                    ]
                )
            group.clear()
    return count, reps, nodes


def _search_shard(args):
    """One shard of a census; the predicate is passed by its name in
    PREDICATES, since the values there need not pickle."""
    presentation, m, predicate, max_reps, shard, bound = args
    return _search(presentation, m, PREDICATES[predicate], max_reps, shard, bound)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _partition_count(m: int) -> int:
    """p(m), the number of cycle types, so of conjugacy classes, of S_m."""
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def enumerate_homs(
    presentation: Presentation,
    m: int,
    predicate: str = "all",
    max_representatives: int = 10,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    workers: int = 1,
) -> CensusResult:
    """Exact census of homomorphisms into S_m whose image satisfies the
    predicate; counts are raw (no conjugacy deduplication), and
    representatives are the lexicographically smallest image tuples in
    generator order.

    Relators and predicates are invariant under simultaneous conjugation,
    so the search visits one first image per conjugacy class of S_m
    (weight: the class size m!/|C(r)|) and one second image per orbit of
    that image's centralizer C(r) (weight: the orbit size), and counts
    each accepted leaf by the product of its weights.  Representatives
    are chosen from the conjugates of the accepted leaves.

    Below the second generator, each relator that does not involve the
    generator just above is solved once per tuple of its other
    generators' images, and a node tries only the elements that satisfy
    all such relators.

    The search is bounded by nodes: one per candidate image examined, one
    per element of S_m for each solution set computed and each root's
    centralizer-orbit pass, and, when representatives are kept, one per
    homomorphism they are chosen from.  Over ``search_bound`` nodes it
    raises BoundExceededError, as it does at once when the element tables
    of S_m, m!·m cells for each exponent of the relators' runs and for 1,
    exceed the bound.

    With ``workers`` > 1 the root classes are dealt round-robin to at most
    that many processes, but only after a serial trial of the whole
    census, in this process, under min(search_bound, ``SERIAL_NODES``)
    nodes.  If the trial finishes, its result is the answer and no pool
    starts.  If it runs out with search_bound ≤ ``SERIAL_NODES``, so that
    its bound was the caller's, its error is the answer.  Otherwise its
    work is thrown away and the pool runs the census under
    ``search_bound``: a sharded census spends at most ``SERIAL_NODES``
    nodes beyond its bound.

    An empty pool of two processes takes about 10 ms to start.  Median
    in-process times of the serial census and of two workers with no
    trial, 10 representatives kept (Python 3.11, 2 vCPUs), put the
    break-even near 5·10⁴ nodes:

    ===========================  =========  ===============
    closed surface braid group     nodes     ms, 1 → 2
    ===========================  =========  ===============
    g=1, n=4 → S_4                   3,326   4 → 20
    g=2, n=2 → S_4                  22,100   22 → 34
    g=1, n=4 → S_5                  32,140   25 → 37
    g=1, n=5 → S_5                  51,525   49 → 47
    g=2, n=3 → S_5                 230,080   300 → 216
    ===========================  =========  ===============

    ``SERIAL_NODES`` = 3·10⁴ sits below the break-even, so on these
    censuses a trial that runs out costs about 30 ms.  Between the
    allowance and about 5·10⁴ nodes that cost is not won back: two
    workers take up to twice as long as a pool with no trial and longer
    than one worker (g=1, n=4 → S_5: about 70 ms, against 35–45 ms with
    no trial and 30 ms serially).
    """
    if m < 1:
        raise InvalidInputError("target degree must be >= 1")
    if predicate not in PREDICATES:
        raise InvalidInputError(
            f"unknown predicate {predicate!r}; choose from {sorted(PREDICATES)}"
        )
    cells = factorial(m) * m * len(_exponents(presentation))
    if cells > search_bound:
        raise BoundExceededError(
            f"S_{m} needs element tables of {cells} cells, over the search bound {search_bound}"
        )
    # never more shards than root classes (one when there is no generator)
    # or CPUs
    classes = _partition_count(m) if presentation.generator_count else 1
    shards = max(1, min(workers, classes, _usable_cpus()))
    if shards > 1:
        try:  # the serial trial
            return enumerate_homs(
                presentation, m, predicate, max_representatives, min(search_bound, SERIAL_NODES)
            )
        except BoundExceededError:
            if search_bound <= SERIAL_NODES:
                raise
    # root classes dealt round-robin, one shard per process
    args = [
        (presentation, m, predicate, max_representatives, slice(i, None, shards), search_bound)
        for i in range(shards)
    ]
    if shards == 1:
        results = list(map(_search_shard, args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=shards) as pool:
            results = list(pool.map(_search_shard, args))
    counts, keys, nodes = zip(*results)
    if sum(nodes) > search_bound:  # as one search over every class would have raised
        raise BoundExceededError(f"census search exceeds {search_bound} nodes")
    reps = sorted(itertools.chain.from_iterable(keys))[:max_representatives]
    return CensusResult(
        sum(counts),
        tuple(GeneratorAssignment(presentation, m, tuple(map(Permutation, key))) for key in reps),
    )


def direct_sum(assignments) -> GeneratorAssignment:
    """Block-diagonal sum of assignments over one shared presentation."""
    assignments = list(assignments)
    if not assignments:
        raise InvalidInputError("direct_sum needs at least one assignment")
    base = assignments[0].presentation
    for a in assignments[1:]:
        if a.presentation != base:
            raise InvalidInputError("assignments must share one presentation")
    total = sum(a.degree for a in assignments)
    images = []
    for gi in range(base.generator_count):
        block = []
        offset = 0
        for a in assignments:
            block.extend(x + offset for x in a.images[gi].images)
            offset += a.degree
        images.append(Permutation(tuple(block)))
    return GeneratorAssignment(base, total, tuple(images))


# ---------------------------------------------------------------------------
# canned representations with transitive, imprimitive, non-abelian images


def _named_assignment(presentation: Presentation, images: dict) -> GeneratorAssignment:
    """Send each generator to the permutation whose image list is keyed by
    its name, and every sigma generator to the one keyed "sigma"."""
    out = []
    for name in presentation.generator_names:
        key = "sigma" if name.startswith("sigma") else name
        if key not in images:
            raise InvalidInputError(f"presentation has unexpected generator {name!r}")
        out.append(Permutation(tuple(images[key])))
    return GeneratorAssignment(presentation, len(out[0].images), tuple(out))


def _block_assignment(presentation: Presentation, genus: int) -> GeneratorAssignment:
    """The genus-g block representation on 2^g blocks of four points:
    sigma rotates every block, b_i swaps the blocks whose indices differ
    in bit i-1, and a_i applies (1,3)(2,4) inside the blocks whose bit
    i-1 is 0.  Point c of block j is 4j + c."""
    points = range(4 << genus)
    images = {"sigma": [x - x % 4 + (x + 1) % 4 for x in points]}
    for i in range(genus):
        bit = 1 << i
        images[f"a{i + 1}"] = [x if x // 4 & bit else x ^ 2 for x in points]
        images[f"b{i + 1}"] = [x ^ 4 * bit for x in points]
    return _named_assignment(presentation, images)


def imprimitive_s8_assignment(strands: int = 4) -> GeneratorAssignment:
    """The degree-8 representation of the genus-1 surface braid group: two
    blocks of four rotated by sigma, swapped by b1; transitive with a
    non-abelian image."""
    if strands < 3 or strands % 2:
        raise InvalidInputError("the degree-8 assignment needs an even strand count >= 4")
    return _block_assignment(closed_orientable(1, strands), 1)


def imprimitive_s16_assignment() -> GeneratorAssignment:
    """Degree-16 genus-2 analogue of the block representation (four blocks
    of four, block-swapping b generators)."""
    return _block_assignment(class2_quotient_presentation(2, 3), 2)


def imprimitive_s32_assignment() -> GeneratorAssignment:
    """Degree-32 genus-3 analogue of the block representation."""
    return _block_assignment(class2_quotient_presentation(3, 4), 3)


def wreath_cycle_assignment(
    block_count: int, presentation: Presentation | None = None
) -> GeneratorAssignment:
    """Representation of the genus-1 class-2 quotient inside the wreath-type
    subgroup of S_(2*l*l): l blocks of size 2l, with

    * a1 rotating block i by 2i,
    * b1 cycling the blocks,
    * sigma rotating every block by one step.

    Valid on the class-2 quotient presentation for any strand count that
    block_count divides; the sigma image has order 2*l.
    """
    l = block_count
    if l < 3:
        raise InvalidInputError("need at least 3 blocks")
    if presentation is None:
        presentation = class2_quotient_presentation(1, l)
    size = 2 * l
    degree = l * size

    def point(i: int, c: int) -> int:
        return (i % l) * size + (c % size)

    a_img = [0] * degree
    b_img = [0] * degree
    s_img = [0] * degree
    for i in range(l):
        for c in range(size):
            src = point(i, c)
            a_img[src] = point(i, c + 2 * i)
            # block shift direction chosen so that [a1, b1] evaluates to
            # sigma^2 under left-to-right composition
            b_img[src] = point(i - 1, c)
            s_img[src] = point(i, c + 1)
    return _named_assignment(presentation, {"a1": a_img, "b1": b_img, "sigma": s_img})


def composite_s408_assignment() -> GeneratorAssignment:
    """Block-diagonal sum of the wreath-type representations for block
    counts 3, 5, 7, 11 on the 1155-strand class-2 quotient; the sigma
    image has order lcm(6, 10, 14, 22) = 2310 inside S_408."""
    presentation = class2_quotient_presentation(1, 3 * 5 * 7 * 11)
    parts = [wreath_cycle_assignment(l, presentation) for l in (3, 5, 7, 11)]
    return direct_sum(parts)


_BUILTIN_ASSIGNMENTS = {
    "imprimitive-s8": imprimitive_s8_assignment,
    "imprimitive-s16": imprimitive_s16_assignment,
    "imprimitive-s32": imprimitive_s32_assignment,
    "wreath-cycle": wreath_cycle_assignment,
    "composite-s408": composite_s408_assignment,
}


def builtin_assignment(name: str, **kwargs) -> GeneratorAssignment:
    """Look up one of the canned representations by name."""
    if name not in _BUILTIN_ASSIGNMENTS:
        raise InvalidInputError(
            f"unknown assignment {name!r}; choose from {sorted(_BUILTIN_ASSIGNMENTS)}"
        )
    return _BUILTIN_ASSIGNMENTS[name](**kwargs)
