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
    _magnus_walk,
    _product_row,
    _weight_row_count,
    _weight_rows,
    free_layer_rank,
    lcs_layer,
    nilpotent_quotient,
)
from braidkit.word import _exponent_sums, exponent_vector, generator
from braidkit.zlinalg import (
    FgAbelianGroup,
    IntMatrix,
    _kernel_basis,
    _row_echelon,
    _staircase_cokernel,
    abelianization,
    admits_epimorphism,
)


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
    assert [free_layer_rank(0, w) for w in (1, 2, 3)] == [0, 0, 0]  # the trivial group
    with pytest.raises(InvalidInputError):
        free_layer_rank(-1, 1)


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


def test_no_generators_give_no_lyndon_words_and_no_rows():
    import itertools

    # islice, so that a generator that never ends fails instead of hanging
    assert list(itertools.islice(_lyndon_words(0, 3), 10)) == []
    assert list(itertools.islice(_lyndon_words(-1, 2), 10)) == []
    for c in (2, 3):
        assert _weight_rows(Presentation((), ()), c, [], [], [], _lyndon_index(0, c)) == []


def test_lyndon_index_blocks_weights_in_order():
    index = _lyndon_index(9, 3)
    assert len(index) == 9 + 36 + 240
    assert sorted(index.values()) == list(range(285))
    assert [len(w) for w in sorted(index, key=index.get)] == [1] * 9 + [2] * 36 + [3] * 240
    assert [index[(i,)] for i in range(9)] == list(range(9))  # exponent vectors are rows


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
# over GRID in order and c = 1, 2, 3.  These are echelon rows, which move
# with the row set even when no lattice does; recorded when the rows
# linear in S_1 came from a basis of the exponent lattice.
GRID_LATTICES_SHA256 = "c3870f0dd31f4d46334db2f04e9d11485ffb8e3076c4c51b35c73f793bd207e3"

# The same over the Hermite forms of the lattices (_hermite), which are
# unique to each lattice; recorded from the engine that built the rows
# linear in S_1 per distinct exponent vector.
GRID_HERMITE_SHA256 = "8e10b036cdf64cb7657adcfa67481db77163218555702e2407b2e926440f08bd"


def test_grid_relation_lattices_are_pinned():
    import hashlib

    digest = hashlib.sha256()
    for p in GRID:
        for c in (1, 2, 3):
            digest.update(repr(nilpotent_quotient(p, c).relation_lattices).encode())
    assert digest.hexdigest() == GRID_LATTICES_SHA256


def test_relation_lattices_read_after_the_layers_keep_their_digests():
    import hashlib

    digests = [hashlib.sha256(), hashlib.sha256()]
    for p in GRID:
        for c in (1, 2, 3):
            q = nilpotent_quotient(p, c)
            q.layers  # read first; the lattices come from the same rows
            digests[0].update(repr(q.relation_lattices).encode())
            digests[1].update(repr(tuple(_hermite(m) for m in q.relation_lattices)).encode())
    assert [d.hexdigest() for d in digests] == [GRID_LATTICES_SHA256, GRID_HERMITE_SHA256]


def _hermite(matrix):
    """Hermite normal form of a matrix of echelon rows with positive
    pivots, as relation_lattices holds: the entries above each pivot
    reduced into [0, pivot).  It is unique to the rows' lattice."""
    cols = matrix.cols
    rows = [list(matrix.entries[i * cols : (i + 1) * cols]) for i in range(matrix.rows)]
    for i, r in enumerate(rows):
        p = next(j for j, x in enumerate(r) if x)
        assert r[p] > 0
        for above in rows[:i]:  # column p of later rows is zero
            q = above[p] // r[p]
            if q:
                for j in range(p, cols):
                    above[j] -= q * r[j]
    return IntMatrix.from_rows(rows, cols=cols)


def _lattice_hermite(rows, width):
    """Hermite normal form of the lattice of any rows of the given width."""
    echelon = [[r.get(j, 0) for j in range(width)] for r in _row_echelon(rows, width)]
    return _hermite(IntMatrix.from_rows(echelon, cols=width))


def test_grid_relation_lattices_keep_their_hermite_forms():
    import hashlib

    digest = hashlib.sha256()
    for p in GRID:
        for c in (1, 2, 3):
            lattices = nilpotent_quotient(p, c).relation_lattices
            digest.update(repr(tuple(_hermite(m) for m in lattices)).encode())
    assert digest.hexdigest() == GRID_HERMITE_SHA256


# Oracles for the relation rows: whole truncated series multiplied out, as
# the rows were built before [r, x] came from the B_2/B_3 identity and
# every coefficient from one walk over the relator.


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


def _oracle_walk(letters, c):
    """What _magnus_walk gives: the word's series, cut to the words of
    length 1..c-1 and the Lyndon words of length c."""
    series = _oracle_word_series(letters, c)
    return {k: v for k, v in series.items() if k and (len(k) < c or _is_lyndon(k))}


def _oracle_project(series, index):
    return {index[k]: v for k, v in series.items() if k in index and v}


def _oracle_weight_rows(p, c, index):
    """Every relation row, dense and tagged with its kind, from whole
    truncated series: per relator the [r, x] rows (("commutator",
    relator's exponent vector)), at c = 3 each followed by its [[r, x], y]
    rows (("double", the vector)), then the [r, [x_k, x_l]] rows
    ("jacobi"); the relator products ("product") last.  Each jacobi row is
    checked to be the difference of two double rows."""
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
        double = {}
        for x in range(n):
            g = {(): 1, (x,): 1}  # [s, x] = s^-1 x^-1 s x
            cs = _oracle_mul(_oracle_mul(s_inv, _oracle_inv(g, c), c), _oracle_mul(s, g, c), c)
            rows.append((("commutator", vec), project(cs)))
            if c == 3:
                c2 = {k: v for k, v in cs.items() if len(k) == 2}
                for y in range(n):
                    double[x, y] = bracket(c2, {(y,): 1})
                    rows.append((("double", vec), double[x, y]))
        if c == 3:
            for k in range(n):
                for l in range(k):
                    row = bracket(s1, {(k, l): 1, (l, k): -1})
                    # Jacobi: [S_1, [X_k, X_l]] = [[S_1, X_k], X_l] - [[S_1, X_l], X_k]
                    assert row == [a - b for a, b in zip(double[k, l], double[l, k])]
                    rows.append(("jacobi", row))
    for lam in _kernel_basis(exponents, n):
        prod = {(): 1}
        for s, k in zip(series, lam):
            for _ in range(abs(k)):
                prod = _oracle_mul(prod, s if k > 0 else _oracle_inv(s, c), c)
        rows.append(("product", project(prod)))
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


def _row_inputs(p):
    """What nilpotent_quotient gives _weight_rows besides the index, each
    computed on its own: the sparse exponent vectors, the echelon of the
    vectors and the kernel basis of _kernel_basis."""
    n = p.generator_count
    dense = [exponent_vector(r, n) for r in p.relators]
    return [_exponent_sums(r) for r in p.relators], _row_echelon(dense, n), _kernel_basis(dense, n)


def _rows_agree_with_oracle(p):
    n = p.generator_count
    for c in (2, 3):
        index = _lyndon_index(n, c)
        width = len(index)
        for r in p.relators:  # S_1, S_2 and, at c = 3, S_3 at the Lyndon words
            assert _magnus_walk(r.letters, c) == _oracle_walk(r.letters, c)
        rows = _weight_rows(p, c, *_row_inputs(p), index)
        assert all(rows)  # no row that projects to zero is kept
        assert all(0 not in row.values() for row in rows)  # sparse rows hold no zeros
        dense = [[row.get(j, 0) for j in range(width)] for row in rows]
        # the oracle's nonzero rows by kind, without the Jacobi-redundant
        # ones; the rows linear in S_1 (the commutator rows at c = 2, the
        # double rows at c = 3) are built from a basis of the exponent
        # vectors, so they are compared by the lattice they span, and the
        # others row for row
        kinds = {}
        for kind, row in _oracle_weight_rows(p, c, index):
            if kind != "jacobi" and any(row):
                kinds.setdefault(kind if isinstance(kind, str) else kind[0], []).append(row)
        per_relator = kinds.get("commutator", []) if c == 3 else []
        products = kinds.get("product", [])
        linear = kinds.get("commutator" if c == 2 else "double", [])
        k, m = len(per_relator), len(dense) - len(products)
        assert dense[:k] == per_relator and dense[m:] == products, (p.family, c)
        assert k <= m <= k + len(linear), (p.family, c)
        assert _lattice_hermite(dense[k:m], width) == _lattice_hermite(linear, width), (p.family, c)


def test_weight_rows_match_full_product_oracle_on_grid():
    for p in GRID:
        _rows_agree_with_oracle(p)


def test_class3_rows_skip_repeated_exponent_vectors():
    # rows built at c = 3 over GRID, and over the 49 presentations of the
    # lcs-grid benchmark (GRID without the five-strand surfaces), with the
    # [[r, x], y] rows built once per vector of a basis of the exponent
    # lattice; 12,686 and 7,675 when every relator built them, and 10,694
    # and 6,269 when every distinct exponent vector did
    counts = []
    for p in GRID:
        counts.append(len(_weight_rows(p, 3, *_row_inputs(p), _lyndon_index(p.generator_count, 3))))
    in_lcs_grid = [p.family.strands <= 4 or p.family.surface == "class2-quotient" for p in GRID]
    assert sum(in_lcs_grid) == 49
    assert sum(counts) == 10010
    assert sum(k for k, kept in zip(counts, in_lcs_grid) if kept) == 5789


def test_class2_rows_skip_repeated_exponent_vectors():
    # rows built at c = 2 over GRID and over the 49 presentations of the
    # lcs-grid benchmark, with the [r, x] rows built once per vector of a
    # basis of the exponent lattice; 1,644 and 1,072 when every relator
    # with a nonzero exponent vector built them, and 1,370 and 865 when
    # every distinct exponent vector did
    counts = []
    for p in GRID:
        counts.append(len(_weight_rows(p, 2, *_row_inputs(p), _lyndon_index(p.generator_count, 2))))
    in_lcs_grid = [p.family.strands <= 4 or p.family.surface == "class2-quotient" for p in GRID]
    assert sum(counts) == 1268
    assert sum(k for k, kept in zip(counts, in_lcs_grid) if kept) == 788


def _seeded_words(seed, count):
    """The relator sigma^2314 of class2_quotient_presentation(3, 1155), then
    seeded words on 1..5 generators: single letters, short runs and long
    runs, unreduced at times."""
    import random

    rng = random.Random(seed)
    words = [class2_quotient_presentation(3, 1155).relators[0].letters]
    for trial in range(count):
        n = 1 + trial % 5
        letters = []
        for _ in range(rng.randint(0, 12)):
            x = rng.choice([i for i in range(-n, n + 1) if i])
            letters += [x] * rng.choice([1, 1, 1, 2, 3, rng.randint(4, 60)])
        words.append(letters)
    return words


def _check_walks(words, c):
    inverse = repeated = long_runs = 0
    for letters in words:
        # S_1, at c = 3 S_2 at every pair, and degree c at the Lyndon words
        assert _magnus_walk(letters, c) == _oracle_walk(letters, c), letters
        inverse += any(x < 0 for x in letters)
        repeated += len(set(map(abs, letters))) < len(letters)
        long_runs += any(letters[i : i + 20] == [letters[i]] * 20 for i in range(len(letters)))
    return inverse, repeated, long_runs


def test_pair_counts_are_the_lyndon_coefficients_of_word_series():
    words = _seeded_words(25, 2400)
    assert len(words) > 2000 and min(_check_walks(words, 2)) > 100


def test_walk_gives_every_pair_and_the_lyndon_triples_of_word_series():
    words = _seeded_words(26, 600)
    assert len(words[0]) == 2314
    assert min(_check_walks(words, 3)) > 50


def _product_cases(seed):
    """300 seeded presentations, each with its exponent vectors and kernel
    basis: a rearranged u^a v^b has exponent vector a u + b v, so the
    kernel has vectors over three relators, with entries of size 2 or more
    and of both signs."""
    import random

    from braidkit.word import reduce_word

    rng = random.Random(seed)
    for trial in range(300):
        n = 2 + trial % 3
        letters = [i for i in range(-n, n + 1) if i]
        u, v, extra = ([rng.choice(letters) for _ in range(rng.randint(1, 6))] for _ in range(3))
        a, b = rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, -1, -3])
        w = [x if k > 0 else -x for k, word in ((a, u), (b, v)) for x in word * abs(k)]
        rng.shuffle(w)
        relators = [r for r in (u, v, w, extra) if len(reduce_word(r, n))]
        p = _named_presentation([f"x{i}" for i in range(1, n + 1)], relators)
        exponents = [exponent_vector(r, n) for r in p.relators]
        yield p, _kernel_basis(exponents, n)


def _product_oracle(p, lam, index, c):
    """The relator product, in index order, multiplied out as whole series."""
    prod = {(): 1}
    for r, k in zip(p.relators, lam):
        s = _oracle_word_series(r.letters, c)
        for _ in range(abs(k)):
            prod = _oracle_mul(prod, s if k > 0 else _oracle_inv(s, c), c)
    return _oracle_project(prod, index)


def _check_product_rows(c, seed):
    large = negative = three = 0
    for p, kernel in _product_cases(seed):
        index = _lyndon_index(p.generator_count, c)
        walks = {i: _magnus_walk(r.letters, c) for i, r in enumerate(p.relators)}
        for lam in kernel:
            assert _product_row(lam, walks, index, c) == _product_oracle(p, lam, index, c), (
                p.relators,
                lam,
            )
            large += max(map(abs, lam)) >= 2
            negative += min(lam) < 0
            three += sum(map(bool, lam)) >= 3
    assert min(large, negative, three) > 50


def test_class2_product_rows_equal_series_products():
    _check_product_rows(2, 2314)


def test_class3_product_rows_equal_series_products():
    _check_product_rows(3, 3314)


def test_smith_loop_runs_only_for_layers_with_a_pivot_above_one(monkeypatch):
    import braidkit.zlinalg as zlinalg

    calls = []
    smith_diagonal = zlinalg._smith_diagonal

    def counting(rows):
        calls.append(len(rows))
        return smith_diagonal(rows)

    monkeypatch.setattr(zlinalg, "_smith_diagonal", counting)
    monkeypatch.setattr(zlinalg, "smith_normal_form", None)  # no dense detour
    expected = []
    for p in GRID:
        q = nilpotent_quotient(p, 3)
        q.layers  # the record reads its layers on demand
        for m in q.relation_lattices:
            rows = [m.entries[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]
            larger = sum(next(x for x in r if x) > 1 for r in rows)
            if larger:
                expected.append(larger)
    assert calls == expected
    assert 0 < len(calls) < 3 * len(GRID)


def test_no_series_is_built_and_each_relator_is_walked_at_most_once(monkeypatch):
    import braidkit.nilq as nilq

    for name in ("_word_series", "_series_mul", "_series_pow", "_bracket_terms", "_commutator_row"):
        assert not hasattr(nilq, name), name
    walked = []
    walk = nilq._magnus_walk

    def counting(letters, c):
        walked.append(tuple(letters))
        out = walk(letters, c)
        # no truncated series: the top degree only at Lyndon words
        assert all(len(k) < c or len(k) == c and _is_lyndon(k) for k in out)
        return out

    monkeypatch.setattr(nilq, "_magnus_walk", counting)
    for p in GRID:
        inputs = _row_inputs(p)
        # at c = 2 only the relators in a product are walked, and at c = 3
        # every relator, for the S_2 of its [r, x] rows
        used = {i for lam in inputs[2] for i, k in enumerate(lam) if k}
        for c, expected in ((2, used), (3, range(len(p.relators)))):
            walked.clear()
            _weight_rows(p, c, *inputs, _lyndon_index(p.generator_count, c))
            letters = sorted(tuple(p.relators[i].letters) for i in expected)
            assert sorted(walked) == letters, (p.family, c)


def _random_presentations():
    """60 seeded presentations of three random relators each."""
    import random

    rng = random.Random(77)
    out = []
    for trial in range(60):
        n = 2 + trial % 3  # one generator has no nonempty word with zero exponent sum
        names = [f"x{i}" for i in range(1, n + 1)]
        out.append(_named_presentation(names, _random_relators(rng, n)))
    return out


def test_weight_rows_match_full_product_oracle_on_random_relators():
    inverse_letters = zero_sums = 0
    for p in _random_presentations():
        n = p.generator_count
        inverse_letters += any(x < 0 for r in p.relators for x in r.letters)
        zero_sums += any(not any(exponent_vector(r, n)) for r in p.relators if len(r))
        _rows_agree_with_oracle(p)
    assert inverse_letters and zero_sums


def _weight_layers(rows, n, c):
    """Layers of weights 2..c cut out by dense or sparse relation rows in
    the columns of _lyndon_index(n, c), whose weight-1 block is empty: one
    echelon, and per weight the rows whose lower weights vanish, cut at
    the block offsets."""
    widths = [free_layer_rank(n, w) for w in range(1, c + 1)]
    width = sum(widths)
    echelon = [[r.get(j, 0) for j in range(width)] for r in _row_echelon(rows, width)]
    layers = []
    for w in range(2, c + 1):
        start, end = sum(widths[: w - 1]), sum(widths[:w])
        block = [r[start:end] for r in echelon if not any(r[:start])]
        layers.append(_staircase_cokernel(_row_echelon(block, end - start), end - start))
    return layers


def test_left_out_rows_do_not_change_the_layers_on_random_relators():
    for p in _random_presentations():
        n = p.generator_count
        for c in (2, 3):
            index = _lyndon_index(n, c)
            full = [row for _, row in _oracle_weight_rows(p, c, index)]
            assert _weight_layers(full, n, c) == _weight_layers(
                _weight_rows(p, c, *_row_inputs(p), index), n, c
            ), (p.relators, c)


def test_single_layer_equals_the_quotients_layer_at_every_class():
    for p in GRID + _random_presentations():
        layers = {c: nilpotent_quotient(p, c).layers for c in (1, 2, 3)}
        for i in (1, 2, 3):
            got = lcs_layer(p, i)
            assert all(got == layers[c][i - 1] for c in range(i, 4)), (p.relators, i)


def test_single_layer_reads_one_cokernel_and_builds_no_matrix(monkeypatch):
    import braidkit.nilq as nilq

    calls = []
    cokernel = nilq._staircase_cokernel

    def counting(rows, width):
        calls.append(width)
        return cokernel(rows, width)

    def no_matrix(*args):
        raise AssertionError("a dense lattice was built")

    monkeypatch.setattr(nilq, "_staircase_cokernel", counting)
    monkeypatch.setattr(nilq, "IntMatrix", no_matrix)
    monkeypatch.setattr(nilq, "_layer_from_lattice", no_matrix)
    for p in GRID:
        for i in (1, 2, 3):
            calls.clear()
            lcs_layer(p, i)
            assert calls == [free_layer_rank(p.generator_count, i)], (p.family, i)


def test_a_quotient_echelons_the_exponent_vectors_once(monkeypatch):
    import braidkit.nilq as nilq
    import braidkit.zlinalg as zlinalg

    def no_kernel(*args):
        raise AssertionError("the exponent vectors were echeloned again for the kernel")

    calls = []
    echelon = nilq._row_echelon

    def counting(rows, ncols):
        calls.append(ncols)
        return echelon(rows, ncols)

    assert not hasattr(nilq, "_kernel_basis")
    monkeypatch.setattr(zlinalg, "_kernel_basis", no_kernel)
    monkeypatch.setattr(nilq, "_row_echelon", counting)
    for p in GRID + _random_presentations():
        n, m = p.generator_count, len(p.relators)
        for c in (1, 2, 3):
            calls.clear()
            nilpotent_quotient(p, c)
            widths = sum(free_layer_rank(n, w) for w in range(1, c + 1))
            assert calls == ([n] if c == 1 else [n + m, widths]), (p.relators, c)


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
    from test_permgrp import _abelian_invariants_from_cosets

    from braidkit.permgrp import closure, lower_central_series, parse_cycles
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

    monkeypatch.setattr(nilq, "_magnus_walk", no_rows)
    monkeypatch.setattr(nilq, "_weight_rows", no_rows)
    monkeypatch.setattr(nilq, "_row_echelon", no_rows)
    monkeypatch.setattr(nilq, "_lyndon_index", no_rows)
    with pytest.raises(BoundExceededError):  # estimated at 437,040
        nilpotent_quotient(closed_orientable(3, 4), 3, bound=10**5)
    for c in (1, 2, 3):
        with pytest.raises(BoundExceededError):
            lcs_layer(closed_orientable(1, 2), c, bound=10)


def test_lyndon_columns_count_toward_the_bound(monkeypatch):
    import braidkit.nilq as nilq

    def no_index(*args):
        raise AssertionError("Lyndon index built before the bound check")

    # the free group of rank 400 has no relators, but 21,413,400 Lyndon
    # columns at c = 3
    monkeypatch.setattr(nilq, "_lyndon_index", no_index)
    with pytest.raises(BoundExceededError):
        lcs_layer(Presentation(tuple(f"x{i}" for i in range(400)), ()), 3)


def test_row_estimate_covers_the_rows_built():
    for p in GRID + _random_presentations():
        n = p.generator_count
        inputs = _row_inputs(p)
        for c in (2, 3):
            built = _weight_rows(p, c, *inputs, _lyndon_index(n, c))
            assert _weight_row_count(inputs[0], n, c) >= len(built), (p.family, p.relators, c)


def test_relator_length_counts_toward_the_bound(monkeypatch):
    import random

    import braidkit.nilq as nilq

    def no_series(*args):
        raise AssertionError("relator walked before the bound check")

    # one reduced relator of 7,374 letters on 12 generators: its rows times
    # Lyndon columns are at most 102,700, but letters x 12^3 is over 10^7
    rng = random.Random(3)
    letters = [1]
    while len(letters) < 7374:
        x = rng.choice([i for i in range(-12, 13) if i and i != -letters[-1]])
        letters.append(x)
    p = _named_presentation([f"x{i}" for i in range(1, 13)], [letters])
    assert len(p.relators[0]) == 7374
    monkeypatch.setattr(nilq, "_magnus_walk", no_series)
    monkeypatch.setattr(nilq, "_weight_rows", no_series)
    with pytest.raises(BoundExceededError):
        lcs_layer(p, 3)


def test_quotient_record_shape():
    q = nilpotent_quotient(closed_orientable(1, 2), 3)
    assert q.nilpotency_class == 3
    assert len(q.layers) == len(q.relation_lattices) == 3
