import itertools
import random
import time
from math import factorial
from operator import itemgetter

import pytest

from braidkit.errors import BoundExceededError, InvalidInputError
from braidkit.permgrp import (
    CLOSURE_MAX_CELLS,
    DEFAULT_CLOSURE_BOUND,
    CycleType,
    Permutation,
    _Chain,
    _check_closed,
    _power,
    _prime_factors,
    centralizer_order,
    closure,
    compose,
    cycle_type,
    finite_group_invariants,
    group_order,
    identity_perm,
    is_primitive,
    lower_central_series,
    orbits,
    parse_cycles,
)
from braidkit.zlinalg import FgAbelianGroup

EXO_GENS = [
    parse_cycles("(1,3)(2,4)", 8),
    parse_cycles("(1,5)(2,6)(3,7)(4,8)", 8),
    parse_cycles("(1,2,3,4)(5,6,7,8)", 8),
]


# --- composition and parsing --------------------------------------------------


def test_compose_is_left_to_right():
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(1,3)", 3)
    assert compose(p, q).cycle_string() == "(1,2,3)"


def test_compose_with_identity_and_inverse():
    p = parse_cycles("(1,4,2)", 5)
    assert compose(p, identity_perm(5)) == p
    assert compose(p, p.inverse()) == identity_perm(5)


def test_compose_degree_mismatch():
    with pytest.raises(InvalidInputError):
        compose(identity_perm(3), identity_perm(4))


def test_parse_and_print_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        images = list(range(7))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert parse_cycles(p.cycle_string(), 7) == p
    assert identity_perm(4).cycle_string() == "()"
    assert parse_cycles("()", 4) == identity_perm(4)


def test_parse_rejects_garbage():
    for bad in [
        "", "(1,2", "1,2", "(0,1)", "(1,1)", "(1,2)(2,3)",
        "(1,,2)", "(1,2,)", "(,)", "(,1)", "(1 2)", "(1, 2 3)",
    ]:
        with pytest.raises(InvalidInputError):
            parse_cycles(bad, 4)


def test_overlapping_cycles_are_refused_with_one_message():
    # a shared point, a cycle that closes on another's point, a repeat
    for text in ("(1,2)(2,3)", "(1,2)(3,1)", "(1,2)(1,2)"):
        with pytest.raises(InvalidInputError, match=r"^cycles overlap in "):
            parse_cycles(text)
        with pytest.raises(InvalidInputError, match=r"^cycles overlap in "):
            parse_cycles(text, 5)


def test_parse_allows_spaces_around_points_and_cycles():
    assert parse_cycles("( 1 , 2 )", 4) == parse_cycles("(1,2)", 4)
    assert parse_cycles(" (1,2) (3,4) ", 4) == parse_cycles("(1,2)(3,4)", 4)
    assert parse_cycles("( )", 4) == identity_perm(4)


def test_json_uses_one_based_images():
    p = parse_cycles("(1,2)", 3)
    assert p.to_json() == [2, 1, 3]
    assert Permutation.from_json([2, 1, 3]) == p


def test_non_bijections_are_rejected():
    with pytest.raises(InvalidInputError):
        Permutation((0, 0))
    with pytest.raises(InvalidInputError):
        Permutation.from_json([1, 1])


def test_power_matches_repeated_products():
    rng = random.Random(5)
    for m in (0, 1, 2, 5, 9):
        for _ in range(10):
            images = list(range(m))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            value, inverse = identity_perm(m), p.inverse()
            for e in range(40):
                assert _power(p.images, e) == value.images
                assert _power(p.images, -e) == _power(inverse.images, e)
                value = value * p
            order = p.order()
            assert _power(p.images, 2310 * order + 7) == _power(p.images, 7)
            assert _power(p.images, -2310 * order - 1) == inverse.images
    t = (1, 2, 0)
    assert _power(t, 1) is t  # the image tuple itself, not a copy


# --- cycle types -----------------------------------------------------------


def test_cycle_type_identity():
    assert cycle_type(identity_perm(5)).multiplicities == (5, 0, 0, 0, 0)


def test_cycle_type_full_cycle():
    p = parse_cycles("(1,2,3,4,5,6,7,8)", 8)
    assert cycle_type(p).multiplicities[7] == 1


def test_cycle_type_mixed():
    p = parse_cycles("(1,2)(3,4,5)", 6)
    assert cycle_type(p).lengths() == [1, 2, 3]


def test_cycle_type_validation():
    with pytest.raises(InvalidInputError):
        CycleType((1, 2))  # 1 + 4 != 2


# --- centralizer orders -------------------------------------------------------


def test_centralizer_order_examples():
    assert centralizer_order(CycleType.from_lengths([4, 4])) == 32
    assert centralizer_order(CycleType.from_lengths([6])) == 6
    assert centralizer_order(CycleType.from_lengths([1, 1, 1, 1])) == 24


def test_cycle_type_degree_over_the_bound_is_refused_before_allocating():
    for lengths, degree in (([10**9], None), ([1], 10**9)):
        start = time.perf_counter()
        with pytest.raises(BoundExceededError, match="exceeds bound"):
            CycleType.from_lengths(lengths, degree)
        assert time.perf_counter() - start < 1.0
    assert CycleType.from_lengths([DEFAULT_CLOSURE_BOUND]).degree == DEFAULT_CLOSURE_BOUND


def brute_centralizer_count(u, m):
    return sum(
        1
        for images in itertools.permutations(range(m))
        if all(images[u.images[i]] == u.images[images[i]] for i in range(m))
    )


def test_centralizer_order_matches_brute_count_for_every_element():
    for m in range(1, 6):
        for images in itertools.permutations(range(m)):
            u = Permutation(images)
            assert centralizer_order(cycle_type(u)) == brute_centralizer_count(u, m)


@pytest.mark.parametrize("m", [6, 7])
def test_centralizer_order_by_conjugacy_class(m):
    # centralizer order is a class function, so one representative per cycle
    # type covers every element; the class equation confirms full coverage
    reps = {}
    for images in itertools.permutations(range(m)):
        t = cycle_type(Permutation(images)).multiplicities
        if t not in reps:
            reps[t] = Permutation(images)
    total = 0
    for t, u in reps.items():
        expected = centralizer_order(CycleType(t))
        assert expected == brute_centralizer_count(u, m)
        total += factorial(m) // expected
    assert total == factorial(m)


# --- orbits ---------------------------------------------------------------------


def test_orbits_transitive_example():
    assert orbits(EXO_GENS, 8) == ((1, 2, 3, 4, 5, 6, 7, 8),)


def test_orbits_with_fixed_points():
    assert orbits([parse_cycles("(1,2)", 4)], 4) == ((1, 2), (3,), (4,))


def test_orbits_of_empty_generator_list():
    assert orbits([], 3) == ((1,), (2,), (3,))


def test_orbit_sizes_sum_to_degree():
    rng = random.Random(12)
    for _ in range(30):
        m = rng.randint(1, 9)
        gens = []
        for _ in range(rng.randint(0, 3)):
            images = list(range(m))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        assert sum(len(o) for o in orbits(gens, m)) == m


# --- primitivity ------------------------------------------------------------------


def test_block_representation_is_imprimitive_with_a_block_of_four():
    ok, witness = is_primitive(EXO_GENS, 8)
    assert not ok
    assert witness == (1, 2, 3, 4)


def test_prime_cycle_is_primitive():
    ok, witness = is_primitive([parse_cycles("(1,2,3,4,5)", 5)], 5)
    assert ok and witness is None


def test_symmetric_group_is_primitive():
    gens = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)]
    assert is_primitive(gens, 4) == (True, None)


def test_intransitive_group_is_imprimitive_with_orbit_witness():
    ok, witness = is_primitive([parse_cycles("(1,2)", 4)], 4)
    assert not ok
    assert witness == (1, 2)


def test_trivial_group_on_two_points_counts_as_primitive():
    assert is_primitive([], 2) == (True, None)
    assert is_primitive([identity_perm(2)], 2) == (True, None)


def test_transitive_groups_of_prime_degree_are_primitive():
    samples = [
        [parse_cycles("(1,2,3,4,5,6,7)", 7)],
        [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)],
        [parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)],
    ]
    for gens in samples:
        m = gens[0].degree
        assert len(orbits(gens, m)) == 1
        assert is_primitive(gens, m)[0]


def test_witness_blocks_are_invariant():
    cases = [
        (EXO_GENS, 8),
        ([parse_cycles("(1,2,3,4)", 4)], 4),
        ([parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)], 4),
        ([parse_cycles("(1,2,3,4,5,6)", 6)], 6),
    ]
    for gens, m in cases:
        ok, witness = is_primitive(gens, m)
        if ok or len(orbits(gens, m)) > 1:
            continue
        block = set(witness)
        for g in gens:
            translate = {g.images[p - 1] + 1 for p in block}
            assert translate == block or not (translate & block)


# --- closure -----------------------------------------------------------------------


def _closure_by_walk(gens):
    """Test-only oracle that never builds a stabilizer chain: the group
    generated by gens, grown breadth-first from the identity by one
    generator at a time and sorted by image tuple."""
    m = gens[0].degree
    ident = tuple(range(m))
    seen, frontier = {ident}, [ident]
    # pick(x) is the product g * x, so this grows the group from the left
    pickers = [itemgetter(*g.images) for g in gens] if m > 1 else []
    while frontier:
        new = []
        for x in frontier:
            for pick in pickers:
                y = pick(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return [Permutation(t) for t in sorted(seen)]


def test_closure_of_s3_generators():
    group = closure([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    assert len(group) == 6


def test_closure_of_block_representation_has_order_16():
    # an index-2 subgroup of the full centralizer of (1,2,3,4)(5,6,7,8)
    assert len(closure(EXO_GENS)) == 16


def test_closure_of_dihedral_generators():
    group = closure([parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)])
    assert len(group) == 8


def test_closure_bound_is_enforced():
    with pytest.raises(BoundExceededError):
        closure([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)], bound=10)


def test_closure_matches_the_walk_on_every_subgroup_of_s4():
    s4, subgroups = _s4_subgroups_by_brute_force()
    assert len(subgroups) == 30
    for sub in subgroups:
        listed = closure([Permutation(t) for t in sorted(sub)])
        assert [p.images for p in listed] == sorted(sub)
    for a, b in itertools.combinations_with_replacement(s4, 2):
        gens = [Permutation(a), Permutation(b)]
        assert closure(gens) == _closure_by_walk(gens), (a, b)


def test_closure_matches_the_walk_on_seeded_generators():
    rng = random.Random(61)
    seen_orders = set()
    for m in range(3, 8):
        for _ in range(60):
            gens = [Permutation(g) for g in _random_gens(rng, m, rng.randint(1, 3))]
            if rng.random() < 0.1:  # identity-only generating sets
                gens = [identity_perm(m)] * rng.randint(1, 2)
            listed = closure(gens)
            assert listed == _closure_by_walk(gens), [g.images for g in gens]
            assert len({p.images for p in listed}) == len(listed)
            seen_orders.add(len(listed))
    assert {1, 2, 120, 720, 5040} <= seen_orders
    assert closure([identity_perm(1)]) == [identity_perm(1)]  # degree 1
    assert closure([Permutation(())]) == [Permutation(())]  # degree 0


def test_closure_refuses_large_groups_before_listing():
    def cycle(n):
        return Permutation((*range(1, n), 0))

    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="group closure exceeds bound 1000000"):
        closure([parse_cycles("(1,2)", 10), cycle(10)])
    assert time.perf_counter() - start < 0.5
    # a list of elements x degree past CLOSURE_MAX_CELLS is refused from the
    # chain: a 4,000-cycle's chain alone holds 1.6 x 10^7 cells, S_5 on
    # 84,000 points holds 14 x 84,000, but its list would hold 120 x 84,000
    with pytest.raises(BoundExceededError, match="stabilizer chain exceeds bound 10000000 cells"):
        closure([cycle(4000)])
    m = 84_000
    s5 = [Permutation((1, 0, *range(2, m))), Permutation((1, 2, 3, 4, 0, *range(5, m)))]
    with pytest.raises(BoundExceededError) as err:
        closure(s5)
    assert str(err.value) == (
        "group closure needs 10080000 cells (120 elements × degree 84000), over the bound 10000000"
    )
    assert len(closure([Permutation((*range(1, 100), 0, *range(100, 100_000)))])) == 100
    assert 100 * 100_000 <= CLOSURE_MAX_CELLS


def test_closure_result_is_closed_spot_check():
    rng = random.Random(13)
    group = closure([parse_cycles("(1,2)", 4), parse_cycles("(2,3,4)", 4)])
    members = {p.images for p in group}
    for _ in range(100):
        a, b = rng.choice(group), rng.choice(group)
        assert (a * b).images in members


def _is_group_by_brute_force(images):
    """Test-only oracle: a nonempty set with the identity and every one of
    its |S|^2 products."""
    if not images:
        return False
    m = len(next(iter(images)))
    return tuple(range(m)) in images and all(
        tuple(b[i] for i in a) in images for a in images for b in images
    )


def _agrees_with_oracle(images, rng):
    order = sorted(images)
    rng.shuffle(order)
    try:
        _check_closed([Permutation(t) for t in order])
        accepted = True
    except InvalidInputError:
        accepted = False
    return accepted == _is_group_by_brute_force(set(images))


def _s4_subgroups_by_brute_force():
    """Every subgroup of S_4 is generated by two elements."""
    s4 = list(itertools.permutations(range(4)))
    found = set()
    for a, b in itertools.combinations_with_replacement(s4, 2):
        sub = {tuple(range(4)), a, b}
        while True:
            bigger = sub | {tuple(y[i] for i in x) for x in sub for y in sub}
            if bigger == sub:
                break
            sub = bigger
        found.add(frozenset(sub))
    return s4, found


def test_check_closed_matches_brute_force_on_s4():
    rng = random.Random(29)
    s4, subgroups = _s4_subgroups_by_brute_force()
    assert len(subgroups) == 30
    for sub in subgroups:
        assert _agrees_with_oracle(sub, rng)
        for el in s4:  # one element toggled
            assert _agrees_with_oracle(sub ^ {el}, rng)
    for _ in range(2000):
        assert _agrees_with_oracle(set(rng.sample(s4, rng.randint(1, 24))), rng)


def test_check_closed_returns_the_sorted_distinct_elements():
    elems = [parse_cycles("(1,2)", 3), identity_perm(3), parse_cycles("(1,2)", 3)]
    assert _check_closed(elems) == ([identity_perm(3), parse_cycles("(1,2)", 3)], [(1, 0, 2)])
    with pytest.raises(InvalidInputError):
        _check_closed([])


# --- finite group invariants ----------------------------------------------------------


def s_n_elements(n):
    return [Permutation(images) for images in itertools.permutations(range(n))]


def test_s4_lower_central_series():
    inv = finite_group_invariants(s_n_elements(4))
    assert inv.order == 24
    assert inv.lcs_orders == (24, 12, 12)
    assert inv.abelianization.to_json() == {"free_rank": 0, "torsion": [2]}
    series = lower_central_series(s_n_elements(4))
    terminal = finite_group_invariants(series[-1])
    assert terminal.order == 12
    assert terminal.abelianization.to_json() == {"free_rank": 0, "torsion": [3]}


def test_s3_lower_central_series():
    inv = finite_group_invariants(s_n_elements(3))
    assert inv.lcs_orders == (6, 3, 3)
    assert inv.abelianization.to_json() == {"free_rank": 0, "torsion": [2]}


def test_q16_lower_central_series():
    from braidkit.smallgrp import dicyclic

    inv = finite_group_invariants(list(dicyclic(4).elements))
    assert inv.lcs_orders == (16, 4, 2, 1)


def test_invariants_reject_non_closed_input():
    with pytest.raises(InvalidInputError):
        finite_group_invariants([parse_cycles("(1,2)", 3)])
    with pytest.raises(InvalidInputError):
        finite_group_invariants([identity_perm(3), parse_cycles("(1,2,3)", 3)])
    with pytest.raises(InvalidInputError, match="degree mismatch"):
        lower_central_series([identity_perm(3), identity_perm(2)])
    # three elements that generate S_100 are refused once the chain holds
    # more than 3 elements' worth of cells, long before S_100 is built
    start = time.perf_counter()
    s100 = [identity_perm(100), parse_cycles("(1,2)", 100), Permutation((*range(1, 100), 0))]
    with pytest.raises(InvalidInputError, match="do not form a group"):
        lower_central_series(s100)
    assert time.perf_counter() - start < 0.5


# test-only oracles, neither of which uses the stabilizer chain: the lower
# central series by a walk over element pairs, and abelian invariants by a
# walk over cosets


def _commutator_walk_series(elements):
    """Every commutator [g, h], g in G and h in the last term, formed and
    closed by the walk; G is the walk's closure of the (closed) element
    list."""
    group = _closure_by_walk(list(elements))
    terms = [group]
    while True:
        current = terms[-1]
        comms = {(g.inverse() * h.inverse() * g * h).images for g in group for h in current}
        nontrivial = [Permutation(t) for t in comms if any(i != j for i, j in enumerate(t))]
        if nontrivial:
            nxt = _closure_by_walk(nontrivial)
        else:
            nxt = [identity_perm(group[0].degree)]
        terms.append(nxt)
        if len(nxt) == 1 or len(nxt) == len(current):
            return terms


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


def test_series_and_invariants_match_the_element_list_oracles():
    from braidkit.smallgrp import dicyclic, z3_semidirect_z4

    _, subgroups = _s4_subgroups_by_brute_force()
    groups = [s_n_elements(n) for n in (3, 4, 5)]
    groups += [list(dicyclic(n).elements) for n in (2, 3, 4)]
    groups += [list(z3_semidirect_z4().elements)]
    groups += [[Permutation(t) for t in sorted(sub)] for sub in subgroups]
    for elements in groups:
        series = lower_central_series(elements)
        oracle = _commutator_walk_series(elements)
        assert series == oracle
        inv = finite_group_invariants(elements)
        assert inv.order == len(elements)
        assert inv.lcs_orders == tuple(len(t) for t in oracle)
        assert inv.abelianization == _abelian_invariants_from_cosets(oracle[0], oracle[1])
        terminal = _commutator_walk_series(oracle[-1])
        assert finite_group_invariants(series[-1]).abelianization == (
            _abelian_invariants_from_cosets(terminal[0], terminal[1])
        )


# --- the stabilizer chain --------------------------------------------------------------


def _random_gens(rng, m, count):
    """count random permutations of degree m; half the time each moves only
    a random set of points, so small and intransitive groups come up too."""
    gens = []
    for _ in range(count):
        points = list(range(m))
        if rng.random() < 0.5:
            points = rng.sample(points, rng.randint(2, m))
        images = list(range(m))
        for a, b in zip(points, rng.sample(points, len(points))):
            images[a] = b
        gens.append(tuple(images))
    return gens


def _closure_order(gens):
    return len(_closure_by_walk([Permutation(g) for g in gens]))


def test_chain_order_matches_closure_on_every_subgroup_of_s4():
    s4, subgroups = _s4_subgroups_by_brute_force()
    assert len(subgroups) == 30
    for sub in subgroups:  # the whole subgroup as generators
        assert group_order(sorted(sub)) == len(sub)
    for a in s4:  # every pair, so every subgroup from two generators
        for b in s4:
            assert group_order([a, b]) == _closure_order([a, b]), (a, b)


@pytest.mark.parametrize("m", [5, 6])
def test_chain_order_matches_closure_on_random_generators(m):
    rng = random.Random(40 + m)
    orders = set()
    for _ in range(300):
        gens = _random_gens(rng, m, rng.randint(1, 3))
        order = group_order(gens)
        assert order == _closure_order(gens), gens
        orders.add(order)
    assert len(orders) > 10


def test_chain_order_matches_closure_on_the_canned_assignments():
    from braidkit import homsearch

    canned = [
        homsearch.imprimitive_s8_assignment(),
        homsearch.imprimitive_s16_assignment(),
        homsearch.imprimitive_s32_assignment(),
    ] + [homsearch.wreath_cycle_assignment(l) for l in (3, 5, 7, 11)]
    for a in canned:
        assert group_order([p.images for p in a.images]) == len(_closure_by_walk(list(a.images)))


def test_chain_order_matches_sympy_on_random_generators():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(41)
    for _ in range(200):
        m = rng.randint(2, 12)
        gens = _random_gens(rng, m, rng.randint(1, 3))
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
        assert group_order(gens) == group.order(), gens


def test_chain_order_of_trivial_inputs():
    assert group_order([]) == 1
    assert group_order([(0,)]) == 1
    assert group_order([(0, 1, 2), (0, 1, 2)]) == 1
    with pytest.raises(InvalidInputError):
        group_order([(0, 1), (0, 1, 2)])


def _chain_of(gens, m):
    chain = _Chain(m)
    for g in gens:
        chain.add(g)
    return chain


def test_chain_add_matches_closure_membership_on_every_subgroup_of_s4():
    s4, subgroups = _s4_subgroups_by_brute_force()
    assert len(subgroups) == 30
    for sub in subgroups:
        for x in s4:
            chain = _chain_of(sorted(sub), 4)
            assert chain.add(x) == (x not in sub), (sorted(sub), x)
            assert chain.order() == _closure_order(sorted(sub) + [x])


@pytest.mark.parametrize("m", [5, 6])
def test_chain_add_matches_closure_membership_on_random_sets(m):
    rng = random.Random(50 + m)
    held = 0
    for _ in range(100):
        gens = _random_gens(rng, m, rng.randint(1, 2))
        members = sorted(p.images for p in _closure_by_walk([Permutation(g) for g in gens]))
        candidates = _random_gens(rng, m, 5) + rng.sample(members, min(5, len(members)))
        for x in candidates:  # a fresh chain each time: an added x joins it
            assert _chain_of(gens, m).add(x) == (x not in members), (gens, x)
            held += x in members
    assert held > 500


def test_chain_bound_counts_transversal_cells():
    # S_5 has orbits 5, 4, 3, 2 down any base: 14 stored elements of 5 cells
    s5 = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    assert group_order(s5, bound=70) == 120
    with pytest.raises(BoundExceededError):
        group_order(s5, bound=69)
