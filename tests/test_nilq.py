import pytest

from braidkit.errors import BoundExceededError, InvalidInputError
from braidkit.fpgroup import (
    Presentation,
    _central_sigma_presentation,
    add_relators,
    boundary_orientable,
    class2_quotient_presentation,
    closed_orientable,
    nonorientable,
)
from braidkit.nilq import (
    _lyndon_index,
    _lyndon_words,
    _weight_rows,
    _word_series,
    free_layer_rank,
    lcs_layer,
    nilpotent_quotient,
)
from braidkit.word import exponent_vector, generator
from braidkit.zlinalg import FgAbelianGroup, _kernel_basis, abelianization, admits_epimorphism


def layer(p, i):
    g = lcs_layer(p, i)
    return g.free_rank, list(g.invariant_factors)


# --- pinned layer values ------------------------------------------------------


def test_layer2_torus_three_strands():
    assert layer(closed_orientable(1, 3), 2) == (0, [3])


def test_layer2_torus_two_strands():
    assert layer(closed_orientable(1, 2), 2) == (0, [2, 2, 2])


def test_layer3_torus_two_strands():
    assert layer(closed_orientable(1, 2), 3) == (0, [2, 2, 2, 2, 2])


def test_layer2_genus2_surface_group():
    assert layer(closed_orientable(2, 1), 2) == (5, [])


def test_layer2_boundary():
    assert layer(boundary_orientable(1, 3), 2) == (1, [])


def test_layer2_nonorientable_stabilizes():
    assert layer(nonorientable(2, 3), 2) == (0, [])


def test_layer2_sphere_stabilizes():
    assert layer(closed_orientable(0, 3), 2) == (0, [])


def test_layer3_torus_stabilizes_at_three_strands():
    assert layer(closed_orientable(1, 4), 3) == (0, [])


def test_layer2_projective_plane_two_strands():
    assert layer(nonorientable(1, 2), 2) == (0, [2])


# --- free-layer ranks -----------------------------------------------------------


def test_free_layer_rank_values():
    assert free_layer_rank(2, 2) == 1
    assert free_layer_rank(2, 3) == 2
    assert free_layer_rank(4, 2) == 6


def test_free_layer_rank_rejects_weight_above_three():
    with pytest.raises(InvalidInputError):
        free_layer_rank(2, 4)


def test_free_groups_have_free_layers_of_witt_rank():
    for n in (1, 2, 3, 4):
        free = Presentation(tuple(f"x{i}" for i in range(1, n + 1)), ())
        for w in (1, 2, 3):
            assert layer(free, w) == (free_layer_rank(n, w), [])


def _is_lyndon(word):
    return all(word < word[k:] + word[:k] for k in range(1, len(word)))


def test_lyndon_word_counts_are_witt_ranks():
    import itertools

    for n in range(1, 7):
        words = list(_lyndon_words(n, 3))
        brute = sorted(
            w for k in (1, 2, 3) for w in itertools.product(range(n), repeat=k) if _is_lyndon(w)
        )
        assert words == brute
        for w in (1, 2, 3):
            assert sum(1 for x in words if len(x) == w) == free_layer_rank(n, w)


def _standard_bracketing(word):
    """Tensor expansion of the standard bracketing of a Lyndon word: split
    off the longest proper Lyndon suffix v = word[k:] and bracket."""
    if len(word) == 1:
        return {word: 1}
    k = next(k for k in range(1, len(word)) if _is_lyndon(word[k:]))
    left, right = _standard_bracketing(word[:k]), _standard_bracketing(word[k:])
    out = {}
    for k1, v1 in left.items():
        for k2, v2 in right.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
            out[k2 + k1] = out.get(k2 + k1, 0) - v1 * v2
    return {key: v for key, v in out.items() if v}


def test_lyndon_basis_is_unitriangular_against_lyndon_words():
    # why the coefficients at Lyndon words are Z-coordinates on Lie elements
    for n in range(1, 5):
        for word in _lyndon_words(n, 3):
            expansion = _standard_bracketing(word)
            assert expansion[word] == 1
            assert all(key >= word for key in expansion), word


def test_lyndon_index_blocks_weights_in_order():
    index = _lyndon_index(9, 3)
    assert len(index) == 36 + 240
    assert sorted(index.values()) == list(range(276))
    assert [len(w) for w in sorted(index, key=index.get)] == [2] * 36 + [3] * 240


# --- engine consistency -----------------------------------------------------------


GRID = [
    closed_orientable(g, n) for g in (0, 1, 2, 3) for n in (1, 2, 3, 4, 5)
] + [
    boundary_orientable(g, n) for g in (1, 2, 3) for n in (1, 2, 3, 4, 5)
] + [
    nonorientable(g, n) for g in (1, 2, 3) for n in (1, 2, 3, 4, 5)
] + [
    class2_quotient_presentation(g, n) for g in (1, 2, 3) for n in (3, 4, 5)
]


# Layers 1-3 of every GRID presentation as (free rank, torsion), recorded
# from the Hall-basis engine that preceded the Lyndon-coordinate one.
GRID_LAYERS = {
    ("closed-orientable", 0, 1): ((0, ()), (0, ()), (0, ())),
    ("closed-orientable", 0, 2): ((0, (2,)), (0, ()), (0, ())),
    ("closed-orientable", 0, 3): ((0, (4,)), (0, ()), (0, ())),
    ("closed-orientable", 0, 4): ((0, (6,)), (0, ()), (0, ())),
    ("closed-orientable", 0, 5): ((0, (8,)), (0, ()), (0, ())),
    ("closed-orientable", 1, 1): ((2, ()), (0, ()), (0, ())),
    ("closed-orientable", 1, 2): ((2, (2,)), (0, (2, 2, 2)), (0, (2,) * 5)),
    ("closed-orientable", 1, 3): ((2, (2,)), (0, (3,)), (0, ())),
    ("closed-orientable", 1, 4): ((2, (2,)), (0, (4,)), (0, ())),
    ("closed-orientable", 1, 5): ((2, (2,)), (0, (5,)), (0, ())),
    ("closed-orientable", 2, 1): ((4, ()), (5, ()), (16, ())),
    ("closed-orientable", 2, 2): ((4, (2,)), (0, (2,) * 3 + (6,)), (0, (2,) * 10)),
    ("closed-orientable", 2, 3): ((4, (2,)), (0, (4,)), (0, ())),
    ("closed-orientable", 2, 4): ((4, (2,)), (0, (5,)), (0, ())),
    ("closed-orientable", 2, 5): ((4, (2,)), (0, (6,)), (0, ())),
    ("closed-orientable", 3, 1): ((6, ()), (14, ()), (64, ())),
    ("closed-orientable", 3, 2): ((6, (2,)), (0, (2,) * 6 + (4,)), (0, (2,) * 21)),
    ("closed-orientable", 3, 3): ((6, (2,)), (0, (5,)), (0, ())),
    ("closed-orientable", 3, 4): ((6, (2,)), (0, (6,)), (0, ())),
    ("closed-orientable", 3, 5): ((6, (2,)), (0, (7,)), (0, ())),
    ("boundary-orientable", 1, 1): ((2, ()), (1, ()), (2, ())),
    ("boundary-orientable", 1, 2): ((2, (2,)), (1, (2, 2)), (0, (2,) * 5)),
    ("boundary-orientable", 1, 3): ((2, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 1, 4): ((2, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 1, 5): ((2, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 2, 1): ((4, ()), (6, ()), (20, ())),
    ("boundary-orientable", 2, 2): ((4, (2,)), (1, (2,) * 4), (0, (2,) * 10)),
    ("boundary-orientable", 2, 3): ((4, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 2, 4): ((4, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 2, 5): ((4, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 3, 1): ((6, ()), (15, ()), (70, ())),
    ("boundary-orientable", 3, 2): ((6, (2,)), (1, (2,) * 6), (0, (2,) * 21)),
    ("boundary-orientable", 3, 3): ((6, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 3, 4): ((6, (2,)), (1, ()), (0, ())),
    ("boundary-orientable", 3, 5): ((6, (2,)), (1, ()), (0, ())),
    ("nonorientable", 1, 1): ((0, (2,)), (0, ()), (0, ())),
    ("nonorientable", 1, 2): ((0, (2, 2)), (0, (2,)), (0, (2,))),
    ("nonorientable", 1, 3): ((0, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 1, 4): ((0, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 1, 5): ((0, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 2, 1): ((1, (2,)), (0, (2,)), (0, (2,))),
    ("nonorientable", 2, 2): ((1, (2, 2)), (0, (2, 2)), (0, (2, 2, 2))),
    ("nonorientable", 2, 3): ((1, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 2, 4): ((1, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 2, 5): ((1, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 3, 1): ((2, (2,)), (1, (2, 2)), (2, (2,) * 5)),
    ("nonorientable", 3, 2): ((2, (2, 2)), (0, (2, 2, 2)), (0, (2,) * 6)),
    ("nonorientable", 3, 3): ((2, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 3, 4): ((2, (2, 2)), (0, ()), (0, ())),
    ("nonorientable", 3, 5): ((2, (2, 2)), (0, ()), (0, ())),
    ("class2-quotient", 1, 3): ((2, (2,)), (0, (3,)), (0, ())),
    ("class2-quotient", 1, 4): ((2, (2,)), (0, (4,)), (0, ())),
    ("class2-quotient", 1, 5): ((2, (2,)), (0, (5,)), (0, ())),
    ("class2-quotient", 2, 3): ((4, (2,)), (0, (4,)), (0, ())),
    ("class2-quotient", 2, 4): ((4, (2,)), (0, (5,)), (0, ())),
    ("class2-quotient", 2, 5): ((4, (2,)), (0, (6,)), (0, ())),
    ("class2-quotient", 3, 3): ((6, (2,)), (0, (5,)), (0, ())),
    ("class2-quotient", 3, 4): ((6, (2,)), (0, (6,)), (0, ())),
    ("class2-quotient", 3, 5): ((6, (2,)), (0, (7,)), (0, ())),
}


def test_grid_layers_are_pinned():
    assert len(GRID_LAYERS) == len(GRID)
    for p in GRID:
        f = p.family
        got = tuple(
            (g.free_rank, g.invariant_factors) for g in nilpotent_quotient(p, 3).layers
        )
        assert got == GRID_LAYERS[f.surface, f.genus, f.strands], f


# SHA-256 of the concatenated reprs of nilpotent_quotient(p, c).relation_lattices
# over GRID in order and c = 1, 2, 3, recorded from the dense-row engine
# that preceded the sparse-row one.
GRID_LATTICES_SHA256 = "92d0d9dc82daabff9a6d228dd574a30efd3c69413e0c66cd3e5de0fce144997e"


def test_grid_relation_lattices_are_pinned():
    import hashlib

    digest = hashlib.sha256()
    for p in GRID:
        for c in (1, 2, 3):
            digest.update(repr(nilpotent_quotient(p, c).relation_lattices).encode())
    assert digest.hexdigest() == GRID_LATTICES_SHA256


# Oracles for the relation rows: whole truncated series multiplied out, as
# the rows were built before [r, x] came from the B_2/B_3 identity and word
# series from one letter at a time.


def _oracle_mul(s, t, c):
    by_degree = [[] for _ in range(c + 1)]
    for k2, v2 in t.items():
        by_degree[len(k2)].append((k2, v2))
    out = {}
    for k1, v1 in s.items():
        for d in range(c + 1 - len(k1)):
            for k2, v2 in by_degree[d]:
                out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _oracle_inv(s, c):
    eps = {k: -v for k, v in s.items() if k}
    out, term = {(): 1}, {(): 1}
    for _ in range(c):
        term = _oracle_mul(term, eps, c)
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _oracle_word_series(letters, c):
    out = {(): 1}
    for let in letters:
        g = {(): 1, (abs(let) - 1,): 1}
        out = _oracle_mul(out, g if let > 0 else _oracle_inv(g, c), c)
    return out


def _oracle_weight_rows(p, c, index):
    n, width = p.generator_count, len(index)

    def project(s):
        row = [0] * width
        for key, v in s.items():
            if key in index:
                row[index[key]] += v
        return row

    def bracket(s, t):
        st, ts = project(_oracle_mul(s, t, c)), project(_oracle_mul(t, s, c))
        return [a - b for a, b in zip(st, ts)]

    series = [_oracle_word_series(r.letters, c) for r in p.relators]
    exponents = [exponent_vector(r, n) for r in p.relators]
    rows = []
    for s, vec in zip(series, exponents):
        s1 = {(i,): v for i, v in enumerate(vec) if v}
        s_inv = _oracle_inv(s, c)
        for x in range(n):
            g = {(): 1, (x,): 1}  # [s, x] = s^-1 x^-1 s x
            cs = _oracle_mul(_oracle_mul(s_inv, _oracle_inv(g, c), c), _oracle_mul(s, g, c), c)
            rows.append(project(cs))
            if c == 3:
                c2 = {k: v for k, v in cs.items() if len(k) == 2}
                rows.extend(bracket(c2, {(y,): 1}) for y in range(n))
        if c == 3:
            for k in range(n):
                for l in range(k):
                    rows.append(bracket(s1, {(k, l): 1, (l, k): -1}))
    for lam in _kernel_basis(exponents, n):
        prod = {(): 1}
        for s, k in zip(series, lam):
            for _ in range(abs(k)):
                prod = _oracle_mul(prod, s if k > 0 else _oracle_inv(s, c), c)
        rows.append(project(prod))
    return rows


def _random_relators(rng, n):
    """Three random words on n generators that stay nonempty once reduced;
    the first is a word times a rearranged inverse, so its exponent sums
    all vanish."""
    from braidkit.word import reduce_word

    relators = []
    while len(relators) < 3:
        word = [rng.choice([i for i in range(-n, n + 1) if i]) for _ in range(rng.randint(1, 9))]
        if not relators:
            tail = [-x for x in word]
            rng.shuffle(tail)
            word += tail
        if len(reduce_word(word, n)):
            relators.append(word)
    return relators


def _rows_agree_with_oracle(p):
    n = p.generator_count
    if n == 0:  # nilpotent_quotient answers before building any row
        return
    for c in (2, 3):
        index = _lyndon_index(n, c)
        for r in p.relators:
            assert _word_series(r.letters, c) == _oracle_word_series(r.letters, c)
        exponents = [exponent_vector(r, n) for r in p.relators]
        rows = _weight_rows(p, c, exponents, index)
        assert all(0 not in row.values() for row in rows)  # sparse rows hold no zeros
        dense = [[row.get(j, 0) for j in range(len(index))] for row in rows]
        assert dense == _oracle_weight_rows(p, c, index), (p.family, c)


def test_weight_rows_match_full_product_oracle_on_grid():
    for p in GRID:
        _rows_agree_with_oracle(p)


def test_word_series_are_built_once_per_relator_and_sign_when_a_row_needs_them(monkeypatch):
    import braidkit.nilq as nilq

    built = []
    word_series = nilq._word_series

    def counting(letters, c):
        built.append(tuple(letters))
        return word_series(letters, c)

    monkeypatch.setattr(nilq, "_word_series", counting)
    for p in GRID:
        n = p.generator_count
        if n == 0:  # nilpotent_quotient answers before building any row
            continue
        exponents = [exponent_vector(r, n) for r in p.relators]
        # at c = 2 only the relator products use series; at c = 3 every
        # relator's series also gives its degree-2 part
        used = {(i, k < 0) for lam in _kernel_basis(exponents, n) for i, k in enumerate(lam) if k}
        for c in (2, 3):
            if c == 3:
                used |= {(i, False) for i in range(len(p.relators))}
            built.clear()
            _weight_rows(p, c, exponents, _lyndon_index(n, c))
            expected = [(~p.relators[i] if inverse else p.relators[i]).letters for i, inverse in used]
            assert sorted(built) == sorted(expected), (p.family, c)


def test_weight_rows_match_full_product_oracle_on_random_relators():
    import random

    rng = random.Random(77)
    inverse_letters = zero_sums = 0
    for trial in range(60):
        n = 2 + trial % 3  # one generator has no nonempty word with zero exponent sum
        p = _named_presentation([f"x{i}" for i in range(1, n + 1)], _random_relators(rng, n))
        inverse_letters += any(x < 0 for r in p.relators for x in r.letters)
        zero_sums += any(not any(exponent_vector(r, n)) for r in p.relators if len(r))
        _rows_agree_with_oracle(p)
    assert inverse_letters and zero_sums


def test_layer1_equals_abelianization_on_grid():
    for p in GRID:
        assert lcs_layer(p, 1) == abelianization(p), p.family


def test_class3_reproduces_lower_layers_on_grid():
    for p in GRID:
        q3 = nilpotent_quotient(p, 3)
        q2 = nilpotent_quotient(p, 2)
        assert q3.layers[0] == q2.layers[0] == abelianization(p), p.family
        assert q3.layers[1] == q2.layers[1], p.family


def _named_presentation(names, relators):
    n = len(names)
    from braidkit.word import reduce_word

    return Presentation(tuple(names), tuple(reduce_word(r, n) for r in relators))


def test_layers_match_permutation_route_for_finite_groups():
    # dual route: the presentation engine against the lower central series
    # of an explicit permutation model of the same group
    from braidkit.permgrp import (
        _abelian_invariants_from_cosets,
        closure,
        lower_central_series,
        parse_cycles,
    )
    from braidkit.smallgrp import dicyclic, symmetric_group

    cases = [
        (_named_presentation(["x"], [[1] * 6]), closure([parse_cycles("(1,2,3,4,5,6)", 6)])),
        (
            _named_presentation(["x", "y"], [[1, 1], [2, 2], [1, 2] * 3]),
            list(symmetric_group(3).elements),
        ),
        (
            _named_presentation(["x", "y"], [[1, 1], [2, 2], [1, 2] * 4]),
            closure([parse_cycles("(1,3)", 4), parse_cycles("(1,2)(3,4)", 4)]),
        ),
        (
            _named_presentation(["x", "y"], [[1] * 4, [2, 2, -1, -1], [-2, 1, 2, 1]]),
            list(dicyclic(2).elements),
        ),
    ]
    for presentation, elements in cases:
        series = lower_central_series(elements)
        while len(series) < 4:
            series.append(series[-1])
        for i in (1, 2, 3):
            assert lcs_layer(presentation, i) == _abelian_invariants_from_cosets(
                series[i - 1], series[i]
            )


def test_layers_are_invariant_under_relator_surgery():
    import random

    rng = random.Random(42)
    base = closed_orientable(1, 2)
    expected = [lcs_layer(base, i) for i in (1, 2, 3)]
    for _ in range(8):
        rels = list(base.relators)
        rng.shuffle(rels)
        k = rng.randrange(len(rels))
        rels[k] = ~rels[k]
        k = rng.randrange(len(rels))
        conj = generator(rng.randint(1, 3), 3)
        rels[k] = ~conj * rels[k] * conj
        mutated = Presentation(base.generator_names, tuple(rels))
        assert [lcs_layer(mutated, i) for i in (1, 2, 3)] == expected


def test_adding_relators_never_enlarges_layers():
    for p in [closed_orientable(1, 3), nonorientable(2, 3), boundary_orientable(1, 2)]:
        n = p.generator_count
        q = add_relators(p, [generator(1, n)])
        for i in (1, 2):
            old = lcs_layer(p, i)
            new = lcs_layer(q, i)
            assert admits_epimorphism(old, new), (p.family, i)


# --- two-strand sandwich bounds ------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3])
def test_two_strand_closed_layer_is_bounded_quotient(g):
    got = lcs_layer(closed_orientable(g, 2), 2)
    upper = FgAbelianGroup.from_moduli([2] * (2 * g) + [g + 1])
    assert not got.is_trivial
    assert admits_epimorphism(upper, got)


@pytest.mark.parametrize("g", [1, 2])
def test_two_strand_boundary_layer_is_bounded_quotient(g):
    got = lcs_layer(boundary_orientable(g, 2), 2)
    upper = FgAbelianGroup.from_moduli([2] * (2 * g), free_rank=1)
    assert not got.is_trivial
    assert admits_epimorphism(upper, got)


# --- the central-sigma family ----------------------------------------------------------


def test_central_sigma_group_layer_is_z2_at_genus_one():
    p = _central_sigma_presentation(1, 4, None)
    assert layer(p, 2) == (0, [2])


@pytest.mark.parametrize("g", [2, 3])
def test_central_sigma_group_layer_is_cyclic_of_order_genus_plus_one(g):
    # sigma^2 generates the derived subgroup and has order g + 1
    p = _central_sigma_presentation(g, 2 * (1 + g), None)
    assert layer(p, 2) == (0, [g + 1])


def test_class2_quotient_layers_match_the_full_group():
    for g, n in [(1, 3), (1, 4), (2, 3)]:
        quotient_layer = lcs_layer(class2_quotient_presentation(g, n), 2)
        full_layer = lcs_layer(closed_orientable(g, n), 2)
        assert quotient_layer == full_layer == FgAbelianGroup(0, (n - 1 + g,))
        assert lcs_layer(class2_quotient_presentation(g, n), 3).is_trivial


# --- degenerate and error cases ----------------------------------------------------------


def test_zero_generator_presentation_has_trivial_layers():
    p = Presentation((), ())
    for i in (1, 2, 3):
        assert lcs_layer(p, i).is_trivial


def test_layer_index_out_of_range():
    with pytest.raises(InvalidInputError):
        lcs_layer(closed_orientable(1, 2), 4)
    with pytest.raises(InvalidInputError):
        nilpotent_quotient(closed_orientable(1, 2), 0)


def test_bound_is_checked_before_any_row(monkeypatch):
    import braidkit.nilq as nilq

    def no_rows(*args):
        raise AssertionError("rows built before the bound check")

    monkeypatch.setattr(nilq, "_word_series", no_rows)
    monkeypatch.setattr(nilq, "_weight_rows", no_rows)
    with pytest.raises(BoundExceededError):
        nilpotent_quotient(closed_orientable(3, 4), 3, bound=10**6)
    with pytest.raises(BoundExceededError):
        lcs_layer(closed_orientable(1, 2), 2, bound=10)


def test_relator_length_counts_toward_the_bound(monkeypatch):
    import random

    import braidkit.nilq as nilq

    def no_series(*args):
        raise AssertionError("series built before the bound check")

    # one reduced relator of 7,374 letters on 12 generators: its rows times
    # Lyndon columns are 142,274, but letters x 12^3 is over 10^7
    rng = random.Random(3)
    letters = [1]
    while len(letters) < 7374:
        x = rng.choice([i for i in range(-12, 13) if i and i != -letters[-1]])
        letters.append(x)
    p = _named_presentation([f"x{i}" for i in range(1, 13)], [letters])
    assert len(p.relators[0]) == 7374
    monkeypatch.setattr(nilq, "_word_series", no_series)
    monkeypatch.setattr(nilq, "_weight_rows", no_series)
    with pytest.raises(BoundExceededError):
        lcs_layer(p, 3)


def test_quotient_record_shape():
    q = nilpotent_quotient(closed_orientable(1, 2), 3)
    assert q.nilpotency_class == 3
    assert len(q.layers) == len(q.relation_lattices) == 3
