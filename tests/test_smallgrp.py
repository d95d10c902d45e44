import hashlib
import json
import random
import time

import pytest

from braidkit.errors import BoundExceededError, InvalidInputError
from braidkit import permgrp, smallgrp
from braidkit.permgrp import (
    Permutation,
    finite_group_invariants,
    identity_perm,
    lower_central_series,
    parse_cycles,
)
from braidkit.permgrp import _power, closure
from braidkit.smallgrp import (
    KLEIN_SCAN_MAX_PAIRS,
    FiniteGroup,
    _klein_inv,
    _klein_mul,
    _regular_representation,
    dicyclic,
    from_generators,
    is_dihedral,
    klein_relation_scan,
    quotient,
    subgroup_scan,
    symmetric_group,
    z3_semidirect_z4,
)


def unique_involution(group):
    return [e for e in group.elements if e.order() == 2]


# --- dicyclic groups -----------------------------------------------------------


def test_dicyclic_orders():
    for n in (2, 3, 4, 5, 6):
        assert dicyclic(n).order == 4 * n


def test_dicyclic_has_unique_involution():
    for n in (2, 3, 4, 5, 6):
        assert len(unique_involution(dicyclic(n))) == 1


def test_dicyclic_first_generator_has_order_2n():
    for n in (2, 4):
        group = dicyclic(n)
        x, y = group.generators
        assert x.order() == 2 * n
        assert y.order() == 4
        # defining relations: x^n = y^2 and y x y^-1 = x^-1
        xn = group.elements[0]
        for _ in range(n):
            xn = xn * x
        assert xn == y * y
        assert (y * x * y.inverse()) == x.inverse()


def test_dicyclic_parameter_validation():
    with pytest.raises(InvalidInputError):
        dicyclic(1)


def test_regular_representation_over_the_bound_is_refused_at_once():
    # 1,004² cells exceed 10⁶; dicyclic(250) has exactly 10⁶
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="order 1004 needs 1008016 cells"):
        dicyclic(251)
    with pytest.raises(BoundExceededError):
        dicyclic(10**12)  # refused before its 4n elements are listed
    with pytest.raises(BoundExceededError, match="order 1001 needs"):
        _regular_representation(list(range(1001)), None, [])
    assert time.perf_counter() - start < 1.0


def test_regular_representations_keep_their_elements_and_generators():
    # the digest pins the elements and generator indices they had when
    # they were built from the whole multiplication table
    groups = [dicyclic(n) for n in range(2, 11)] + [z3_semidirect_z4()]
    assert [g.to_json()["generators"] for g in groups] == [[2, 1]] * 9 + [[4, 1]]
    digest = hashlib.sha256(json.dumps([g.to_json() for g in groups]).encode()).hexdigest()
    assert digest == "e92ebbc3f59163f61189f5e02bf1068f33e269a1b7393171a8731d675e2fb06f"


def test_regular_representations_multiply_by_the_generators_alone(monkeypatch):
    # |gens|·|G| products build the generators' permutations; the whole
    # right-regular table, |G|² products, is the oracle for the elements
    built = []

    def counting(elems, mul, gens):
        calls = []

        def counted_mul(u, v):
            calls.append(None)
            return mul(u, v)

        group = _regular_representation(elems, counted_mul, gens)
        built.append((group, len(calls), elems, mul, gens))
        return group

    monkeypatch.setattr(smallgrp, "_regular_representation", counting)
    for n in range(2, 11):
        dicyclic(n)
    z3_semidirect_z4()
    assert len(built) == 10
    for group, calls, elems, mul, gens in built:
        assert calls == len(gens) * len(elems) == 2 * group.order
        ranked = sorted(elems)
        index = {g: rank for rank, g in enumerate(ranked)}
        table = sorted(tuple(index[mul(x, g)] for x in ranked) for g in ranked)
        assert [p.images for p in group.elements] == table


# --- the order-12 group -----------------------------------------------------------


def test_z3_semidirect_z4_order_and_abelianization():
    group = z3_semidirect_z4()
    assert group.order == 12
    inv = finite_group_invariants(list(group.elements))
    assert inv.abelianization.to_json() == {"free_rank": 0, "torsion": [4]}


def test_z3_semidirect_z4_center_has_order_two():
    group = z3_semidirect_z4()
    center = [
        g
        for g in group.elements
        if all((g * h).images == (h * g).images for h in group.elements)
    ]
    assert len(center) == 2


# --- dihedral recognition ----------------------------------------------------------


def test_dihedral_group_of_order_eight_is_recognized():
    group = from_generators([parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)])
    assert group.order == 8
    assert is_dihedral(group)


def test_quaternion_group_is_not_dihedral():
    assert not is_dihedral(dicyclic(4))
    assert not is_dihedral(dicyclic(2))


def test_cyclic_group_is_not_dihedral():
    z4 = from_generators([parse_cycles("(1,2,3,4)", 4)])
    assert not is_dihedral(z4)


def test_klein_four_group_counts_as_dihedral():
    v4 = from_generators([parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)])
    assert is_dihedral(v4)


# --- quotients -----------------------------------------------------------------------


def test_dicyclic_mod_center_is_dihedral():
    for n in (2, 3, 4, 5, 6):
        group = dicyclic(n)
        quo = quotient(group, unique_involution(group))
        assert quo.order == 2 * n
        assert is_dihedral(quo)


def test_s3_mod_a3_has_order_two():
    s3 = symmetric_group(3)
    a3 = [e for e in s3.elements if e.order() in (1, 3)]
    quo = quotient(s3, a3)
    assert quo.order == 2


def test_quotient_by_whole_group_is_trivial():
    s3 = symmetric_group(3)
    assert quotient(s3, list(s3.elements)).order == 1


def test_quotient_orders_multiply():
    group = dicyclic(4)
    x, _ = group.generators
    sub = from_generators([x * x])  # <x^2>, normal, order 4
    quo = quotient(group, list(sub.elements))
    assert quo.order * sub.order == group.order


def test_quotient_by_nothing_keeps_the_order():
    for group in (symmetric_group(3), dicyclic(3), z3_semidirect_z4()):
        assert quotient(group, []).order == group.order


def test_quotient_rejects_non_normal_subgroup():
    s3 = symmetric_group(3)
    transposition = [e for e in s3.elements if e.order() == 2][0]
    with pytest.raises(InvalidInputError):
        quotient(s3, [transposition])


def test_quotient_rejects_generators_outside_the_group():
    s3 = symmetric_group(3)
    for outside in (parse_cycles("(1,2)", 4), parse_cycles("(1,2)", 2)):
        with pytest.raises(InvalidInputError, match="not an element of the group"):
            quotient(s3, [outside])
    a3 = from_generators([parse_cycles("(1,2,3)", 3)])
    with pytest.raises(InvalidInputError, match="not an element of the group"):
        quotient(a3, [parse_cycles("(1,2)", 3)])


# --- the element-by-element recognisers, as test-only oracles ----------------------------


def _is_dihedral_by_products(group):
    """Every element r of order k = |G|/2 against every involution outside
    the k powers of r, by Permutation products."""
    order = group.order
    if order < 4 or order % 2:
        return False
    k = order // 2
    elems = group.elements
    for r in elems:
        if r.order() != k:
            continue
        powers = {_power(r.images, e) for e in range(k)}
        r_inv = r.inverse()
        for s in elems:
            if s.images in powers or s.order() != 2:
                continue
            if (s * r * s).images == r_inv.images:
                return True
    return False


def _quotient_by_products(group, normal_gens):
    """The coset action of every element, with normality checked on every
    element of the closed subgroup, by Permutation products: the sorted
    distinct actions, and the distinct actions of the generators."""
    gset = group.element_set()
    if any(h.images not in gset for h in normal_gens):
        raise InvalidInputError("a normal generator is not an element of the group")
    # the identity generator makes quotient(group, []) the group itself
    sub_perms = closure([identity_perm(group.degree), *normal_gens], len(gset))
    sub = {h.images for h in sub_perms}
    for g in group.generators:
        g_inv = g.inverse()
        for h in sub_perms:
            if (g_inv * h * g).images not in sub:
                raise InvalidInputError("subgroup is not normal")
    # right cosets, each represented by its least element
    coset_of: dict = {}
    reps: list[Permutation] = []
    for el in group.elements:
        if el.images not in coset_of:
            coset_of.update(((h * el).images, len(reps)) for h in sub_perms)
            reps.append(el)
    action = {}
    for g in group.elements:
        action[g] = Permutation(tuple(coset_of[(rep * g).images] for rep in reps))
    elements = tuple(sorted(set(action.values()), key=lambda p: p.images))
    return elements, tuple(dict.fromkeys(action[g] for g in group.generators))


def _natural(n, *cycles):
    return from_generators([parse_cycles(c, n) for c in cycles])


def _oracle_family():
    """dicyclic(2..29), Z3 x| Z4, S_1..S_5, every subgroup of S_4,
    dicyclic(6) and Z3 x| Z4, and D_3..D_30 and C_3..C_30 on n points."""
    groups = [dicyclic(n) for n in range(2, 30)] + [z3_semidirect_z4()]
    groups += [symmetric_group(n) for n in range(1, 6)]
    for big in (symmetric_group(4), dicyclic(6), z3_semidirect_z4()):
        groups += subgroup_scan(big)
    for n in range(3, 31):
        cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
        reflection = "".join(f"({i},{n + 1 - i})" for i in range(1, n // 2 + 1))
        groups += [_natural(n, cycle, reflection), _natural(n, cycle)]
    return groups


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInputError as exc:
        return str(exc)


def test_is_dihedral_matches_the_product_oracle():
    verdicts = []
    for group in _oracle_family():
        verdicts.append(is_dihedral(group))
        assert verdicts[-1] == _is_dihedral_by_products(group), group.generators
    assert 0 < sum(verdicts) < len(verdicts)


def test_quotient_matches_the_product_oracle():
    rng = random.Random(1)
    outcomes = []
    for group in _oracle_family():
        elems, gens = list(group.elements), list(group.generators)
        outside = identity_perm(group.degree + 1)
        for normal in (
            [],
            elems[-1:],
            [e for e in elems if e.order() == 2],
            gens[:1],
            gens,
            [g * g for g in gens],
            elems,
            rng.sample(elems, min(2, len(elems))),
            [outside, *gens],
        ):
            outcomes.append(_outcome(quotient, group, normal))
            got = outcomes[-1]
            if not isinstance(got, str):
                got = (got.elements, got.generators)
            assert got == _outcome(_quotient_by_products, group, normal)
    texts = [o for o in outcomes if isinstance(o, str)]
    assert set(texts) == {
        "a normal generator is not an element of the group",
        "subgroup is not normal",
    }
    assert len(texts) < len(outcomes)


# --- subgroup scans ----------------------------------------------------------------------


def test_z3z4_has_no_dihedral_subgroups():
    assert subgroup_scan(z3_semidirect_z4(), min_order=4, dihedral=True) == []


def test_s4_has_three_subgroups_of_order_eight_all_dihedral():
    subs = subgroup_scan(symmetric_group(4), order=8)
    assert len(subs) == 3
    assert all(is_dihedral(s) for s in subs)


def test_dicyclic_has_no_dihedral_subgroups():
    assert subgroup_scan(dicyclic(4), dihedral=True) == []


def test_subgroup_scan_counts_all_subgroups_of_s3():
    subs = subgroup_scan(symmetric_group(3))
    assert [s.order for s in subs] == [1, 2, 2, 2, 3, 6]


def test_subgroup_scan_finds_the_thirty_subgroups_of_s4():
    orders = [s.order for s in subgroup_scan(symmetric_group(4))]
    assert orders == [1] + [2] * 9 + [3] * 4 + [4] * 7 + [6] * 4 + [8] * 3 + [12, 24]


# --- Klein-bottle relation scan --------------------------------------------------------------


def test_klein_group_model_is_a_group():
    for u in [(-2, 1), (3, 0), (1, -1)]:
        assert _klein_mul(u, _klein_inv(u)) == (0, 0)
        assert _klein_mul(_klein_inv(u), u) == (0, 0)
    # associativity spot-check
    a, b, c = (1, 1), (-2, 3), (4, -1)
    assert _klein_mul(_klein_mul(a, b), c) == _klein_mul(a, _klein_mul(b, c))


def test_klein_scan_solutions_are_trivial_up_to_radius_ten():
    for radius in (1, 2, 3, 10):
        result = klein_relation_scan(radius)
        assert result.all_trivial
        assert len(result.nontrivial_solutions) == 0
        # every trivial-y pair is a solution
        assert len(result.solutions) == (2 * radius + 1) ** 2


def test_klein_specific_non_solution():
    x, y = (1, 1), (1, 0)
    lhs = _klein_mul(_klein_mul(_klein_mul(x, y), x), y)
    rhs = _klein_mul(_klein_mul(_klein_mul(_klein_inv(y), x), y), x)
    assert lhs != rhs


def test_klein_scan_radius_validation():
    with pytest.raises(InvalidInputError):
        klein_relation_scan(0)


def _four_loop_klein_scan(radius):
    """Brute force over every (x, y) of the window, in (a, b, c, d) order."""
    rng = range(-radius, radius + 1)
    sols = []
    for a in rng:
        for b in rng:
            x = (a, b)
            for c in rng:
                for d in rng:
                    y = (c, d)
                    lhs = _klein_mul(_klein_mul(_klein_mul(x, y), x), y)
                    rhs = _klein_mul(_klein_mul(_klein_mul(_klein_inv(y), x), y), x)
                    if lhs == rhs:
                        sols.append((x, y))
    return tuple(sols)


def test_klein_scan_equals_the_four_loop_scan():
    for radius in range(1, 11):
        assert klein_relation_scan(radius).solutions == _four_loop_klein_scan(radius)


def test_klein_scan_is_bounded_before_it_starts():
    start = time.perf_counter()
    with pytest.raises(BoundExceededError):
        klein_relation_scan(108)  # 217^3 evaluations
    assert time.perf_counter() - start < 1.0


def test_klein_scan_radius_107_is_within_both_guards():
    # the whole scan takes about 20 s; its guard is checked alone
    width = 2 * 107 + 1
    assert width**3 <= KLEIN_SCAN_MAX_PAIRS


# --- FiniteGroup ------------------------------------------------------------------------------


def test_finite_group_is_the_closure_of_its_generators():
    a, b = parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)
    group = FiniteGroup((a, b))
    assert group == from_generators([a, b])
    assert group.generators == (a, b)
    assert group.elements == tuple(closure([a, b]))
    assert (group.order, group.degree) == (8, 4)
    assert symmetric_group(1).elements == (identity_perm(1),)


def test_finite_group_refuses_what_closure_refuses():
    with pytest.raises(InvalidInputError, match="^closure needs at least one generator$"):
        FiniteGroup(())
    with pytest.raises(InvalidInputError, match="^generator degree mismatch$"):
        FiniteGroup((parse_cycles("(1,2)", 3), parse_cycles("(1,2)", 4)))
    with pytest.raises(BoundExceededError, match="^group closure exceeds bound 1000000$"):
        FiniteGroup((Permutation((1, 0, *range(2, 10))), Permutation((*range(1, 10), 0))))


def test_finite_group_checks_on_one_chain(monkeypatch):
    made = []

    class CountingChain(permgrp._Chain):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    s3 = symmetric_group(3)
    monkeypatch.setattr(permgrp, "_Chain", CountingChain)
    FiniteGroup(s3.generators)
    # the closure's chain alone: degree 3, started from the generators,
    # bounded by the list's cells and capped at the closure bound
    assert made == [(3, [(1, 0, 2), (1, 2, 0)], permgrp.CLOSURE_MAX_CELLS, 10**6)]


def test_large_degree_small_order_is_within_the_list_size_bound():
    # S_4 on the first 4 of 150,000 points: the chains of S_4 and of its
    # derived subgroup A_4 hold 9 and 7 x 150,000 cells, over
    # DEFAULT_CLOSURE_BOUND but within the 24 x 150,000 of the element
    # list, which bounds every chain over the group
    m = 150_000
    s4 = from_generators(
        [Permutation((1, 0, *range(2, m))), Permutation((1, 2, 3, 0, *range(4, m)))]
    )
    assert s4.order == 24
    assert [len(term) for term in lower_central_series(s4.elements)] == [24, 12, 12]
    inv = finite_group_invariants(s4.elements)
    assert inv.lcs_orders == (24, 12, 12)
    assert inv.abelianization.to_json() == {"free_rank": 0, "torsion": [2]}
