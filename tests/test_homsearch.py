import concurrent.futures
import itertools
import json
import random
import time
from math import factorial

import pytest

from braidkit import homsearch, permgrp
from braidkit.errors import BoundExceededError, InvalidInputError
from braidkit.fpgroup import (
    FamilyTag,
    Presentation,
    artin_presentation,
    boundary_orientable,
    class2_quotient_presentation,
    closed_orientable,
    nonorientable,
)
from braidkit.homsearch import (
    GeneratorAssignment,
    classify_hom,
    composite_s408_assignment,
    direct_sum,
    enumerate_homs,
    imprimitive_s8_assignment,
    imprimitive_s16_assignment,
    imprimitive_s32_assignment,
    verify_hom,
    wreath_cycle_assignment,
)
from braidkit.permgrp import Permutation, closure, identity_perm, parse_cycles
from braidkit.permgrp import finite_group_invariants
from braidkit.word import reduce_word


def assignment(p, degree, images):
    perms = tuple(parse_cycles(s, degree) for s in images)
    return GeneratorAssignment(p, degree, perms)


# --- verification -----------------------------------------------------------


def test_all_identity_assignment_is_valid():
    p = closed_orientable(1, 3)
    for m in (3, 1, 0):
        a = GeneratorAssignment(p, m, tuple(identity_perm(m) for _ in range(4)))
        assert verify_hom(p, a) is None


def test_braid_to_s3_classic_surjection():
    p = artin_presentation(4)
    a = assignment(p, 3, ["(1,2)", "(2,3)", "(1,2)"])
    assert verify_hom(p, a) is None


def test_surface_block_representation_is_valid():
    a = imprimitive_s8_assignment(4)
    assert a.presentation.family.surface == "closed-orientable"
    assert verify_hom(a.presentation, a) is None


def test_braid_relator_failure_is_reported_first():
    p = artin_presentation(3)
    a = assignment(p, 3, ["(1,2)", "(1,2,3)"])
    assert verify_hom(p, a) == 1


def plain_value(letters, perms, m):
    """A word's image by plain Permutation products, left to right."""
    out = identity_perm(m)
    for let in letters:
        img = perms[abs(let) - 1]
        out = out * (img if let > 0 else img.inverse())
    return out


def test_verify_matches_plain_composition_on_random_words():
    rng = random.Random(2718)
    first_failing = []
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(2, 6)
        perms = []
        for _ in range(n):
            images = list(range(m))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        relators, wanted = [], rng.randint(1, 5)
        while len(relators) < wanted:
            letters = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.7:
                # a power of the word equal to the identity under perms
                letters *= plain_value(letters, perms, m).order()
            word = reduce_word(letters, n)
            if len(word):
                relators.append(word)
        p = Presentation(tuple(f"x{i}" for i in range(1, n + 1)), tuple(relators))
        expected = next(
            (i for i, rel in enumerate(relators, start=1)
             if not plain_value(rel.letters, perms, m).is_identity()),
            None,
        )
        assert verify_hom(p, GeneratorAssignment(p, m, tuple(perms))) == expected
        first_failing.append(expected)
    assert None in first_failing
    assert {1, 2, 3} <= set(first_failing)


def test_verify_arity_mismatch():
    p = artin_presentation(4)
    with pytest.raises(InvalidInputError):
        GeneratorAssignment(p, 3, (identity_perm(3),))


# --- the run kernel against a letter-by-letter oracle ---------------------------


def _letter_compile(letters):
    """A word as (0-based generator index, is_inverse) pairs, one per letter."""
    return tuple((abs(let) - 1, let < 0) for let in letters)


def _letter_holds(word, tables):
    """True when the letter-compiled word evaluates to the identity, where
    tables[g] is the (image, inverse) pair of generator g: every point is
    followed through every letter."""
    y = 0
    for g, inv in word:
        y = tables[g][inv][y]
    if y:
        return False
    steps = [tables[g][inv] for g, inv in word]
    for x in range(1, len(steps[0])):
        y = x
        for step in steps:
            y = step[y]
        if y != x:
            return False
    return True


def letter_verify(p, a):
    """``verify_hom`` one letter at a time."""
    if a.degree == 0:
        return None
    tables = [(q.images, q.inverse().images) for q in a.images]
    return next(
        (i for i, rel in enumerate(p.relators, start=1)
         if not _letter_holds(_letter_compile(rel.letters), tables)),
        None,
    )


def _blockwise_images(rng, n, m):
    """n random permutations of degree m, each acting on the blocks of four
    consecutive points (the last may be smaller), then relabelled by one
    random permutation: every element they generate has order dividing
    12, the exponent of S_4."""
    relabel = list(range(m))
    rng.shuffle(relabel)
    perms = []
    for _ in range(n):
        images = []
        for start in range(0, m, 4):
            block = list(range(start, min(start + 4, m)))
            rng.shuffle(block)
            images += block
        out = [0] * m
        for i, j in enumerate(images):
            out[relabel[i]] = relabel[j]
        perms.append(Permutation(tuple(out)))
    return perms


def _kernel_relator(rng, perms, m, holds):
    """A freely reduced word over len(perms) generators that holds under
    perms or (for m >= 2) does not; half carry a run of over 3,000
    letters, and the word is rotated, half the time inside that run."""
    n = len(perms)
    while True:
        letters, prev = [], None
        for _ in range(rng.randint(1, 5)):
            g = rng.choice([x for x in range(1, n + 1) if x != prev] or [1])
            letters += [g * rng.choice((1, -1))] * rng.randint(1, 3)
            prev = g
        value = plain_value(letters, perms, m)
        if holds:
            letters *= value.order()
        elif value.is_identity():
            continue
        # x^3000 is the identity, so the inserted run keeps the word's value
        i = rng.randrange(len(letters))
        if rng.random() < 0.5:
            letters[i:i] = [letters[i]] * 3000
        letters = list(reduce_word(letters, n).letters)
        if letters:
            break
    k = rng.randrange(len(letters))
    if len(letters) > 3000 and rng.random() < 0.5:
        k = i + rng.randrange(1, 3000)  # most often inside the long run
    return reduce_word(letters[k:] + letters[:k], n)


def test_words_take_maximal_cyclic_runs():
    def runs(*letters):
        return reduce_word(letters, 3).runs

    assert runs() == ()
    assert runs(1) == ((0, 1),)
    assert runs(2, 2, 2) == ((1, 3),)
    assert runs(-1, -1, 2, 1) == ((0, -2), (1, 1), (0, 1))
    # a run split across the word's ends is taken whole: x·y·x as x²·y
    assert runs(1, 2, 1) == ((0, 2), (1, 1))
    assert runs(*[-3] * 1000, 1, 2, *[-3] * 2000) == ((2, -3000), (0, 1), (1, 1))


def test_the_s408_sigma_relator_is_one_run():
    a = composite_s408_assignment()
    sigma = a.presentation.generator_index("sigma") - 1
    relator = a.presentation.relators[0]
    assert relator.runs == ((sigma, 2310),)
    # the benchmark's rewrites rotate a relator and may invert it
    letters = relator.letters
    assert reduce_word(letters[7:] + letters[:7], 3).runs == ((sigma, 2310),)
    assert (~relator).runs == ((sigma, -2310),)


def test_run_kernel_matches_the_letter_oracle():
    rng = random.Random(2310)
    positions, exponents, split = set(), set(), 0
    for m, trials in [(0, 10), (1, 10), (2, 40), (5, 60), (408, 8)]:
        for _ in range(trials):
            n = rng.randint(1, 3)
            perms = _blockwise_images(rng, n, m)
            while m >= 2 and all(p.is_identity() for p in perms):
                perms = _blockwise_images(rng, n, m)
            count = rng.randint(1, 4)
            failing = rng.randint(1, count) if m >= 2 else None
            relators = [
                _kernel_relator(rng, perms, m, holds=failing is None or i < failing or rng.random() < 0.5)
                if i != failing else _kernel_relator(rng, perms, m, holds=False)
                for i in range(1, count + 1)
            ]
            p = Presentation(tuple(f"x{i}" for i in range(1, n + 1)), tuple(relators))
            a = GeneratorAssignment(p, m, tuple(perms))
            assert verify_hom(p, a) == letter_verify(p, a) == failing
            positions.add(failing)
            for rel in relators:
                exponents.update(k for _, k in rel.runs)
                letters = rel.letters
                split += len(set(letters)) > 1 and letters[0] == letters[-1]
    assert positions == {None, 1, 2, 3, 4}
    assert max(exponents) > 3000 and min(exponents) < -3000
    assert split > 0  # some rotation cut a run in two


def test_verify_is_bounded_before_any_table_is_built():
    # (ab)^1000 at degree 20,000: 2,000 runs and two tables of 20,000 points,
    # 40,040,000 cells and lookups
    p = Presentation.from_json({"generators": ["a", "b"], "relators": [[1, 2] * 1000]})
    a = GeneratorAssignment(p, 20_000, (identity_perm(20_000),) * 2)
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="verifying needs 40040000 cells"):
        verify_hom(p, a)
    with pytest.raises(BoundExceededError, match="40040000"):
        classify_hom(p, a)
    assert time.perf_counter() - start < 0.5
    smaller = GeneratorAssignment(p, 4_995, (identity_perm(4_995),) * 2)
    assert verify_hom(p, smaller) is None  # 9,999,990: within the bound


# --- classification -----------------------------------------------------------


def test_block_representation_classification():
    a = imprimitive_s8_assignment(4)
    c = classify_hom(a.presentation, a)
    assert c.valid
    assert c.transitive
    assert not c.primitive
    assert not c.abelian
    # index-2 subgroup of the degree-8 centralizer of the sigma image
    assert c.image_order == 16


def test_block_representation_order_against_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    a = imprimitive_s8_assignment(4)
    gens = [combinatorics.Permutation(list(p.images)) for p in a.images]
    image = combinatorics.PermutationGroup(gens)
    sigma = gens[a.presentation.generator_index("sigma1") - 1]
    centralizer = combinatorics.SymmetricGroup(8).centralizer(combinatorics.PermutationGroup([sigma]))
    assert image.order() == 16
    assert centralizer.order() == 32
    assert image.is_subgroup(centralizer)


def test_trivial_assignment_classification():
    p = closed_orientable(1, 5)
    a = GeneratorAssignment(p, 3, tuple(identity_perm(3) for _ in range(6)))
    c = classify_hom(p, a)
    assert not c.transitive
    assert c.image_order == 1
    assert c.cyclic


def test_surjective_assignment_classification():
    p = artin_presentation(4)
    a = assignment(p, 3, ["(1,2)", "(2,3)", "(1,2)"])
    c = classify_hom(p, a)
    assert c.surjective_onto_sym
    assert c.primitive
    assert c.transitive


def test_classify_rejects_invalid_hom():
    p = artin_presentation(3)
    a = assignment(p, 3, ["(1,2)", "(1,2,3)"])
    with pytest.raises(InvalidInputError) as err:
        classify_hom(p, a)
    assert err.value.failing_relator == 1


def test_classify_makes_one_orbit_pass(monkeypatch):
    artin = artin_presentation(3)
    cases = [
        assignment(artin, 0, ["()", "()"]),
        assignment(artin, 1, ["()", "()"]),
        assignment(artin, 2, ["()", "()"]),
        assignment(artin, 2, ["(1,2)", "(1,2)"]),
        imprimitive_s8_assignment(4),
        imprimitive_s16_assignment(),
        imprimitive_s32_assignment(),
        composite_s408_assignment(),
    ] + [wreath_cycle_assignment(l) for l in (3, 5, 7, 11)]
    expected = [
        (len(permgrp.orbits(a.images, a.degree)) == 1, permgrp.is_primitive(a.images, a.degree)[0])
        for a in cases
    ]
    # at degrees 0, 1 and 2 every group counts as primitive, the
    # intransitive ones too
    assert expected[:4] == [(False, True), (True, True), (False, True), (True, True)]
    orbits = permgrp.orbits
    calls = []

    def counting(gens, m):
        calls.append(m)
        return orbits(gens, m)

    monkeypatch.setattr(homsearch, "orbits", counting)
    monkeypatch.setattr(permgrp, "orbits", counting)
    for a, (transitive, primitive) in zip(cases, expected):
        calls.clear()
        c = classify_hom(a.presentation, a)
        assert calls == [a.degree]
        assert (c.transitive, c.primitive) == (transitive, primitive)


# --- censuses -------------------------------------------------------------------


def brute_transitive_count_artin4_to_s3():
    perms = [Permutation(t) for t in itertools.permutations(range(3))]
    ident = identity_perm(3)
    count = 0
    for s1 in perms:
        for s2 in perms:
            for s3 in perms:
                if (s1 * s2 * s1) != (s2 * s1 * s2):
                    continue
                if (s2 * s3 * s2) != (s3 * s2 * s3):
                    continue
                if (s1 * s3) != (s3 * s1):
                    continue
                moved = set()
                for g in (s1, s2, s3):
                    moved.update(i for i in range(3) if g.images[i] != i)
                reached = {0}
                frontier = [0]
                while frontier:
                    x = frontier.pop()
                    for g in (s1, s2, s3):
                        y = g.images[x]
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
                if len(reached) == 3:
                    count += 1
    return count


def test_transitive_census_artin4_s3():
    result = enumerate_homs(artin_presentation(4), 3, predicate="transitive")
    assert result.count == 8
    assert result.count == brute_transitive_count_artin4_to_s3()


def brute_total_hom_count(p, m):
    perms = [Permutation(t) for t in itertools.permutations(range(m))]
    ident = tuple(range(m))
    count = 0
    for combo in itertools.product(perms, repeat=p.generator_count):
        ok = True
        for rel in p.relators:
            point = list(range(m))
            for let in rel.letters:
                img = combo[abs(let) - 1]
                table = img.images if let > 0 else img.inverse().images
                point = [table[x] for x in point]
            if tuple(point) != ident:
                ok = False
                break
        count += ok
    return count


def test_total_census_matches_naive_enumeration():
    cases = [
        (nonorientable(1, 3), 3),
        (closed_orientable(0, 3), 3),
        (closed_orientable(1, 2), 2),
        (artin_presentation(3), 3),
    ]
    for p, m in cases:
        assert enumerate_homs(p, m, predicate="all").count == brute_total_hom_count(p, m)


@pytest.mark.parametrize("m,classes,expected", [(3, 3, 18), (4, 5, 120), (5, 7, 840)])
def test_torus_census_counts_commuting_pairs(m, classes, expected):
    # closed_orientable(1, 1) presents Z^2 = <a1, b1 | [a1, b1]>, so its homs
    # into S_m are the commuting pairs; by the class equation there are
    # |S_m| times the number p(m) of conjugacy classes of them
    p = closed_orientable(1, 1)
    assert p.generator_names == ("a1", "b1")
    assert [r.letters for r in p.relators] == [(1, -2, -1, 2)]
    assert expected == factorial(m) * classes
    assert enumerate_homs(p, m).count == expected


def test_surjective_census_closed_genus1_five_strands_is_empty():
    assert enumerate_homs(closed_orientable(1, 5), 3, predicate="surjective").count == 0


def test_surjective_census_nonorientable_five_strands_is_empty():
    assert enumerate_homs(nonorientable(1, 5), 3, predicate="surjective").count == 0


def test_surjective_census_four_strands_is_nonempty():
    result = enumerate_homs(closed_orientable(1, 4), 3, predicate="surjective")
    assert result.count == 6
    witness = assignment(
        closed_orientable(1, 4), 3, ["()", "()", "(1,2)", "(2,3)", "(1,2)"]
    )
    assert verify_hom(witness.presentation, witness) is None


def test_primitive_census_composite_degree_is_empty():
    assert enumerate_homs(closed_orientable(1, 5), 4, predicate="primitive").count == 0


def test_surjective_representatives_have_full_image():
    result = enumerate_homs(
        closed_orientable(1, 4), 3, predicate="surjective", max_representatives=6
    )
    for rep in result.representatives:
        c = classify_hom(rep.presentation, rep)
        assert c.surjective_onto_sym and c.image_order == factorial(3)
        assert not c.primitive or c.transitive


def test_representatives_pass_verification_and_are_sorted():
    result = enumerate_homs(artin_presentation(4), 3, predicate="transitive", max_representatives=8)
    assert len(result.representatives) == 8
    keys = [tuple(p.images for p in rep.images) for rep in result.representatives]
    assert keys == sorted(keys)
    for rep in result.representatives:
        assert verify_hom(rep.presentation, rep) is None


def test_census_count_is_conjugation_invariant():
    rng = random.Random(14)
    base = enumerate_homs(artin_presentation(4), 3, predicate="transitive").count
    # conjugating every image by a fixed permutation permutes the census,
    # so filtering through a relabeled predicate gives the same count
    for _ in range(5):
        images = list(range(3))
        rng.shuffle(images)
        h = Permutation(tuple(images))

        def relabeled(images_tuple, m, h=h):
            conj = tuple(h.inverse() * p * h for p in images_tuple)
            from braidkit.permgrp import orbits

            return len(orbits(list(conj), m)) == 1

        from braidkit.homsearch import _search

        count, _, _ = _search(artin_presentation(4), 3, relabeled, 0)
        assert count == base


def cyclic_by_element_walk(gens, m):
    """Test-only: the generated group is cyclic when one element has its order."""
    group = closure(list(gens) or [identity_perm(m)], factorial(m))
    return any(p.order() == len(group) for p in group)


def test_cyclic_rule_matches_an_element_walk():
    cyclic = homsearch.PREDICATES["cyclic"]
    s4 = [Permutation(x) for x in itertools.permutations(range(4))]
    subgroups = set()
    for x in s4:
        for y in s4:  # every subgroup of S_4 has two generators
            subgroups.add(tuple(p.images for p in closure([x, y], 24)))
            for gens in ((x,), (x, y)):
                assert cyclic(gens, 4) == cyclic_by_element_walk(gens, 4), gens
    assert len(subgroups) == 30
    rng = random.Random(7)
    for m in (5, 6):
        sm = [Permutation(x) for x in itertools.permutations(range(m))]
        for trial in range(300):
            gens = []
            for _ in range(rng.randint(1, 3)):
                # half the sets commute, so the rule is tested where it matters
                pool = sm if trial % 2 else [
                    p for p in sm if all(p * g == g * p for g in gens)
                ]
                gens.append(rng.choice(pool))
            assert cyclic(tuple(gens), m) == cyclic_by_element_walk(gens, m), gens


# --- the orbit census against a plain search ------------------------------------


def plain_homs(p, m):
    """Every homomorphism into S_m as a tuple of image tuples in generator
    order, by a plain search that tries all m! images of every generator.
    Generators are assigned most-used first; a relator is checked by full
    composition once all its generators are assigned."""
    n = p.generator_count
    images = list(itertools.permutations(range(m)))
    inverses = {x: tuple(sorted(range(m), key=x.__getitem__)) for x in images}
    relator_gens = [{abs(let) - 1 for let in rel.letters} for rel in p.relators]
    order = sorted(range(n), key=lambda g: -sum(g in gens for gens in relator_gens))
    checks = [[] for _ in range(n)]
    for rel, gens in zip(p.relators, relator_gens):
        checks[max(order.index(g) for g in gens)].append(rel.letters)
    chosen = [None] * n
    found = []

    def holds(letters):
        point = list(range(m))
        for let in letters:
            x = chosen[abs(let) - 1]
            table = x if let > 0 else inverses[x]
            point = [table[y] for y in point]
        return point == list(range(m))

    def descend(depth):
        if depth == n:
            found.append(tuple(chosen))
            return
        for x in images:
            chosen[order[depth]] = x
            if all(holds(letters) for letters in checks[depth]):
                descend(depth + 1)

    descend(0)
    return found


# every census run in tests/, and the CENSUS rows of bench/workloads.py
ORACLE_CENSUSES = [
    ("artin", 0, 3, 3),
    ("artin", 0, 4, 3),
    ("closed-orientable", 0, 3, 3),
    ("closed-orientable", 1, 1, 3),
    ("closed-orientable", 1, 1, 4),
    ("closed-orientable", 1, 1, 5),
    ("closed-orientable", 1, 2, 2),
    ("closed-orientable", 1, 4, 3),
    ("closed-orientable", 1, 5, 3),
    ("closed-orientable", 2, 5, 3),
    ("nonorientable", 1, 3, 3),
    ("nonorientable", 1, 5, 3),
    # bench/workloads.py CENSUS (surface, genus, strands, degree)
    ("closed-orientable", 1, 4, 4),
    ("closed-orientable", 1, 5, 4),
    ("boundary-orientable", 1, 3, 4),
    ("nonorientable", 2, 3, 4),
    ("artin", 0, 4, 5),
    ("closed-orientable", 2, 2, 3),
]


def family(surface, g, n):
    if surface == "artin":
        return artin_presentation(n)
    builders = {
        "closed-orientable": closed_orientable,
        "boundary-orientable": boundary_orientable,
        "nonorientable": nonorientable,
    }
    return builders[surface](g, n)


@pytest.mark.parametrize("surface,g,n,m", ORACLE_CENSUSES)
def test_orbit_census_matches_plain_search(surface, g, n, m):
    p = family(surface, g, n)
    homs = plain_homs(p, m)
    for name, predicate in sorted(homsearch.PREDICATES.items()):
        accepted = sorted(
            key for key in homs if predicate(tuple(Permutation(x) for x in key), m)
        )
        for k in (0, 10, 10**6):
            result = enumerate_homs(p, m, name, max_representatives=k)
            assert result.count == len(accepted), (name, k)
            keys = [tuple(x.images for x in rep.images) for rep in result.representatives]
            assert keys == accepted[:k], (name, k)


def test_degenerate_censuses_keep_their_results():
    empty = Presentation.from_json({"generators": [], "relators": []})
    cube_root = Presentation.from_json({"generators": ["x"], "relators": [[1, 1, 1]]})
    free = Presentation.from_json({"generators": ["x"], "relators": []})
    three_cycles = ["(2,3,4)", "(2,4,3)", "(1,2,3)", "(1,2,4)", "(1,3,2)", "(1,3,4)",
                    "(1,4,2)", "(1,4,3)"]
    expected = {
        (empty, 3, "all"): (1, []),
        (empty, 3, "transitive"): (0, []),
        (empty, 1, "surjective"): (1, []),
        (cube_root, 4, "all"): (9, [["()"]] + [[c] for c in three_cycles]),
        (cube_root, 4, "transitive"): (0, []),
        (free, 3, "all"): (6, [["()"], ["(2,3)"], ["(1,2)"], ["(1,2,3)"], ["(1,3,2)"], ["(1,3)"]]),
        (free, 3, "primitive"): (2, [["(1,2,3)"], ["(1,3,2)"]]),
        (closed_orientable(1, 3), 1, "transitive"): (1, [["()"] * 4]),
    }
    for (p, m, name), (count, reps) in expected.items():
        result = enumerate_homs(p, m, name)
        assert result.count == count
        assert [[x.cycle_string() for x in rep.images] for rep in result.representatives] == reps


def test_closed_genus1_five_strands_into_s5_runs_under_the_default_bound():
    assert enumerate_homs(closed_orientable(1, 5), 5, max_representatives=0).count == 2280


def test_deep_censuses_keep_their_counts(monkeypatch):
    # counts pinned from the search that tried every element at every deep node
    assert enumerate_homs(closed_orientable(1, 4), 6, max_representatives=0).count == 42480
    serial = enumerate_homs(closed_orientable(2, 3), 5)
    assert serial.count == 59640
    # the solution-set memo is local to each shard's search
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 2)
    assert enumerate_homs(closed_orientable(2, 3), 5, workers=2) == serial


def test_holds_calls_are_charged_as_nodes(monkeypatch):
    # a memo miss makes one _holds call per element of S_m and is charged
    # m! nodes; every other call checks a candidate against the relators
    # left after the memo, and each candidate is charged a node, so the
    # calls stay under nodes × the most such relators at one depth.  A
    # search that did not charge the candidates of a memo hit makes about
    # 2.8 calls per node on closed g=2, n=3 → S_4.
    calls = 0
    holds = homsearch._holds

    def counting(word, tables):
        nonlocal calls
        calls += 1
        return holds(word, tables)

    monkeypatch.setattr(homsearch, "_holds", counting)
    for p, m in [(closed_orientable(1, 4), 5), (closed_orientable(2, 3), 4)]:
        calls = 0
        _, _, nodes = homsearch._search(p, m, homsearch.PREDICATES["all"], 0)
        _, shared, rest, _ = homsearch._search_plan(p)
        widest = max(len(a) + len(b) for a, b in zip(shared, rest))
        assert calls <= nodes * max(1, max(map(len, rest))) <= nodes * widest


def test_node_budget_raises_in_serial_and_sharded_runs(monkeypatch):
    p = closed_orientable(1, 4)
    count, _, nodes = homsearch._search(p, 4, homsearch.PREDICATES["all"], 0)
    assert count == 384
    assert enumerate_homs(p, 4, max_representatives=0, search_bound=nodes).count == 384
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 2)
    for allowance in (homsearch.SERIAL_NODES, 0):  # the serial trial, then a real pool
        monkeypatch.setattr(homsearch, "SERIAL_NODES", allowance)
        for workers in (1, 2):
            with pytest.raises(BoundExceededError, match="nodes"):
                enumerate_homs(p, 4, max_representatives=0, search_bound=nodes - 1, workers=workers)
    # S_9: the 30 centralizer-orbit passes alone are over the default budget,
    # which is spent before any table is built
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="nodes"):
        enumerate_homs(p, 9)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(BoundExceededError, match="S_11"):
        enumerate_homs(p, 11)


def test_census_tables_count_every_exponent_of_the_runs():
    # x², y³ and x·y⁻¹ use the exponents 1, 2, 3 and -1: four tables of
    # 9!·9 cells for S_9, over the default budget, which the image tables
    # alone (3,265,920 cells) are not
    p = Presentation.from_json({"generators": ["x", "y"], "relators": [[1, 1], [2, 2, 2], [1, -2]]})
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="S_9 needs element tables of 13063680 cells"):
        enumerate_homs(p, 9)
    assert time.perf_counter() - start < 1.0
    assert enumerate_homs(p, 3).count == 1  # x = y of order dividing 2 and 3


def test_one_generator_census_is_refused_before_the_tables_of_s10():
    # S_10's element tables hold 10!·10 = 36,288,000 cells, over the default
    # budget, although a one-generator census would spend only p(10) nodes
    free_involution = Presentation.from_json({"generators": ["x"], "relators": [[1, 1]]})
    empty = Presentation.from_json({"generators": [], "relators": []})
    for p in (free_involution, empty):
        start = time.perf_counter()
        with pytest.raises(BoundExceededError, match="S_10"):
            enumerate_homs(p, 10)
        assert time.perf_counter() - start < 1.0


def test_search_bound_guard():
    with pytest.raises(BoundExceededError):
        enumerate_homs(closed_orientable(2, 5), 6, search_bound=10**6)


def test_worker_sharding_matches_serial_search(monkeypatch):
    # no serial trial, so that a real pool of two processes runs the census
    # and looks the predicate up by name in each worker
    monkeypatch.setattr(homsearch, "SERIAL_NODES", 0)
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 2)
    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    serial = enumerate_homs(artin_presentation(4), 3, predicate="transitive", max_representatives=5)
    parallel = enumerate_homs(
        artin_presentation(4), 3, predicate="transitive", max_representatives=5, workers=2
    )
    assert started == [2]
    assert parallel.count == serial.count
    assert [a.to_json() for a in parallel.representatives] == [
        a.to_json() for a in serial.representatives
    ]


@pytest.fixture
def pools(monkeypatch):
    """The worker pools a census starts: each is an InlinePool."""
    started = []

    class InlinePool:
        """Runs the shards in this process and records the pool it was asked for."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            started.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            self.shards = list(items)
            return map(fn, self.shards)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return started


def test_worker_pool_is_capped(monkeypatch, pools):
    # no serial trial, so that these small censuses reach the pool
    monkeypatch.setattr(homsearch, "SERIAL_NODES", 0)
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 4)
    p = artin_presentation(4)
    for m, workers, cap in [(3, 10**9, 3), (3, 3, 3), (2, 10**9, 2)]:
        serial = enumerate_homs(p, m, max_representatives=5)
        pools.clear()
        sharded = enumerate_homs(p, m, max_representatives=5, workers=workers)
        assert [(pool.max_workers, len(pool.shards)) for pool in pools] == [(cap, cap)]
        assert sharded == serial
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 1)
    pools.clear()
    assert enumerate_homs(p, 3, workers=10**9) == enumerate_homs(p, 3)
    assert pools == []


def census_nodes(p, m):
    """Nodes of the serial census of all homomorphisms, 10 representatives kept."""
    return homsearch._search(p, m, homsearch.PREDICATES["all"], 10)[2]


def test_census_under_the_serial_allowance_starts_no_pool(monkeypatch, pools):
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 2)
    p = closed_orientable(1, 4)
    assert census_nodes(p, 4) <= homsearch.SERIAL_NODES
    assert enumerate_homs(p, 4, workers=2) == enumerate_homs(p, 4)
    assert pools == []


def test_census_over_the_serial_allowance_starts_one_capped_pool(monkeypatch, pools):
    p = closed_orientable(1, 4)
    monkeypatch.setattr(homsearch, "SERIAL_NODES", census_nodes(p, 4) - 1)
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 4)
    serial = enumerate_homs(p, 4)
    for workers, cap in [(2, 2), (10**9, 4)]:  # S_4 has 5 classes, the host 4 CPUs
        pools.clear()
        assert enumerate_homs(p, 4, workers=workers) == serial
        assert [(pool.max_workers, len(pool.shards)) for pool in pools] == [(cap, cap)]


def test_census_bound_errors_name_the_callers_bound(monkeypatch, pools):
    # one bound the trial covers, and one between the allowance and the
    # census's nodes, where the trial's error is thrown away
    monkeypatch.setattr(homsearch, "_usable_cpus", lambda: 2)
    p = closed_orientable(2, 3)
    allowance = homsearch.SERIAL_NODES
    for bound, pooled in [(allowance // 2, 0), (2 * allowance, 1)]:
        for workers in (1, 2):
            pools.clear()
            with pytest.raises(BoundExceededError) as err:
                enumerate_homs(p, 5, search_bound=bound, workers=workers)
            assert str(err.value) == f"census search exceeds {bound} nodes"
            assert len(pools) == (pooled if workers == 2 else 0)


def test_serial_allowance_sits_between_censuses_that_shard_at_a_loss_and_at_a_gain():
    # two workers lose on the first and gain on the second (the timings in
    # the enumerate_homs docstring); when the meaning of a node changes,
    # these counts change, and the allowance must be measured again
    losing = census_nodes(closed_orientable(2, 2), 4)
    paying = census_nodes(closed_orientable(2, 3), 5)
    assert (losing, paying) == (22_100, 230_080)
    assert losing < homsearch.SERIAL_NODES < paying


# --- image constraints over the full census ----------------------------------------


@pytest.mark.parametrize("g,n,m", [(1, 5, 3), (2, 5, 3), (1, 5, 4)])
def test_all_homs_have_equal_sigma_images_and_nilpotent_image(g, n, m):
    p = closed_orientable(g, n)
    result = enumerate_homs(p, m, predicate="all", max_representatives=10**6)
    assert result.count == len(result.representatives)
    sigma_indices = [
        i for i, name in enumerate(p.generator_names) if name.startswith("sigma")
    ]
    for rep in result.representatives:
        sigmas = {rep.images[i].images for i in sigma_indices}
        assert len(sigmas) == 1
        image = closure(list(rep.images), factorial(m))
        inv = finite_group_invariants(image)
        # nilpotency class at most 2: the third term of the series is trivial
        assert 1 in inv.lcs_orders[:3]


# --- direct sums -----------------------------------------------------------------------


def test_direct_sum_of_single_assignment_is_identity():
    a = imprimitive_s8_assignment(4)
    s = direct_sum([a])
    assert s.degree == 8
    assert s.images == a.images


def test_direct_sum_of_two_s2_blocks():
    p = artin_presentation(2)
    a = assignment(p, 2, ["(1,2)"])
    s = direct_sum([a, a])
    assert s.degree == 4
    assert s.images[0].cycle_string() == "(1,2)(3,4)"
    assert verify_hom(p, s) is None


def test_direct_sum_requires_matching_presentations():
    a = imprimitive_s8_assignment(4)
    b = imprimitive_s8_assignment(6)
    with pytest.raises(InvalidInputError):
        direct_sum([a, b])


def test_direct_sum_sigma_order_is_lcm_of_blocks():
    p = class2_quotient_presentation(1, 15)
    parts = [wreath_cycle_assignment(l, p) for l in (3, 5)]
    total = direct_sum(parts)
    assert total.image_of("sigma").order() == 30  # lcm(6, 10)
    assert verify_hom(p, total) is None


# --- canned representations ----------------------------------------------------------------


def test_wreath_assignment_at_three_blocks():
    a = wreath_cycle_assignment(3)
    assert a.degree == 18
    assert verify_hom(a.presentation, a) is None
    assert a.image_of("sigma").order() == 6
    c = classify_hom(a.presentation, a)
    assert not c.abelian


def test_degree16_and_degree32_assignments_are_valid():
    for a in (imprimitive_s16_assignment(), imprimitive_s32_assignment()):
        assert verify_hom(a.presentation, a) is None
        c = classify_hom(a.presentation, a)
        assert c.transitive and not c.primitive and not c.abelian


SIGMA8 = "(1,2,3,4)(5,6,7,8)"
SIGMA16 = SIGMA8 + "(9,10,11,12)(13,14,15,16)"
# the images the degree-8, 16 and 32 representations were first written with
CANNED_IMAGES = {
    "s8-4": {"a1": "(1,3)(2,4)", "b1": "(1,5)(2,6)(3,7)(4,8)",
             "sigma1": SIGMA8, "sigma2": SIGMA8, "sigma3": SIGMA8},
    "s8-6": {"a1": "(1,3)(2,4)", "b1": "(1,5)(2,6)(3,7)(4,8)",
             "sigma1": SIGMA8, "sigma2": SIGMA8, "sigma3": SIGMA8, "sigma4": SIGMA8,
             "sigma5": SIGMA8},
    "s16": {
        "a1": "(1,3)(2,4)(9,11)(10,12)",
        "a2": "(1,3)(2,4)(5,7)(6,8)",
        "b1": "(1,5)(2,6)(3,7)(4,8)(9,13)(10,14)(11,15)(12,16)",
        "b2": "(1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)(8,16)",
        "sigma": SIGMA16,
    },
    "s32": {
        "a1": "(1,3)(2,4)(9,11)(10,12)(17,19)(18,20)(25,27)(26,28)",
        "a2": "(1,3)(2,4)(5,7)(6,8)(17,19)(18,20)(21,23)(22,24)",
        "a3": "(1,3)(2,4)(5,7)(6,8)(9,11)(10,12)(13,15)(14,16)",
        "b1": "(1,5)(2,6)(3,7)(4,8)(9,13)(10,14)(11,15)(12,16)"
        "(17,21)(18,22)(19,23)(20,24)(25,29)(26,30)(27,31)(28,32)",
        "b2": "(1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)(8,16)"
        "(17,25)(18,26)(19,27)(20,28)(21,29)(22,30)(23,31)(24,32)",
        "b3": "(1,17)(2,18)(3,19)(4,20)(5,21)(6,22)(7,23)(8,24)"
        "(9,25)(10,26)(11,27)(12,28)(13,29)(14,30)(15,31)(16,32)",
        "sigma": SIGMA16 + "(17,18,19,20)(21,22,23,24)(25,26,27,28)(29,30,31,32)",
    },
}


def test_block_representations_keep_their_cycle_strings():
    built = {
        ("s8-4", 8): imprimitive_s8_assignment(4),
        ("s8-6", 8): imprimitive_s8_assignment(6),
        ("s16", 16): imprimitive_s16_assignment(),
        ("s32", 32): imprimitive_s32_assignment(),
    }
    for (name, degree), a in built.items():
        assert a.to_json() == {"degree": degree, "images": CANNED_IMAGES[name]}, name


def test_wreath_assignment_rejects_a_genus2_presentation():
    with pytest.raises(InvalidInputError, match="a2"):
        wreath_cycle_assignment(3, class2_quotient_presentation(2, 3))


def test_composite_representation_degree_408():
    a = composite_s408_assignment()
    assert a.degree == 408
    assert verify_hom(a.presentation, a) is None
    assert a.image_of("sigma").order() == 2310


def test_composite_s408_classification_has_the_exact_order():
    # 3,081,597,750 is sympy's order of the three images
    a = composite_s408_assignment()
    start = time.perf_counter()
    c = classify_hom(a.presentation, a)
    assert time.perf_counter() - start < 1.0
    assert c.image_order == 3_081_597_750
    assert not c.abelian and not c.cyclic and not c.surjective_onto_sym


# --- serialization ---------------------------------------------------------------------------


def test_assignment_json_round_trip():
    a = imprimitive_s8_assignment(4)
    data = a.to_json()
    assert data["images"]["a1"] == "(1,3)(2,4)"
    back = GeneratorAssignment.from_json(a.presentation, data)
    assert back == a


def test_presentation_and_assignment_json_survive_a_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def assignments(draw):
        names = draw(st.lists(st.text("abσ1_", min_size=1, max_size=3), unique=True, max_size=5))
        n = len(names)
        raw = []
        if n:
            letters = st.integers(-n, n).filter(bool)
            raw = draw(st.lists(st.lists(letters, min_size=1, max_size=12), max_size=4))
        relators = [w for w in (reduce_word(r, n) for r in raw) if not w.is_identity()]
        digit = st.integers(0, 9)
        family = draw(st.none() | st.builds(FamilyTag, st.text("xyπ-", max_size=8), digit, digit))
        p = Presentation(tuple(names), tuple(relators), family)
        degree = draw(st.integers(0, 8))
        images = [Permutation(tuple(draw(st.permutations(range(degree))))) for _ in names]
        return GeneratorAssignment(p, degree, tuple(images))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(assignments())
    def check(a):
        p = a.presentation
        assert Presentation.from_json(json.loads(json.dumps(p.to_json()))) == p
        assert GeneratorAssignment.from_json(p, json.loads(json.dumps(a.to_json()))) == a

    check()


def test_assignment_degree_is_bounded_before_any_image_is_built():
    p = closed_orientable(1, 2)  # a1, b1, sigma1
    data = {"degree": 333_334, "images": {name: "()" for name in p.generator_names}}
    with pytest.raises(BoundExceededError, match="1000002 image cells"):
        GeneratorAssignment.from_json(p, data)
    with pytest.raises(BoundExceededError):
        parse_cycles("()", 1_000_001)
    with pytest.raises(BoundExceededError):
        parse_cycles("(1,1000001)")
