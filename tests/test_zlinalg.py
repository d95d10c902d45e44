import itertools
import random
from math import gcd

import pytest

from braidkit.errors import BoundExceededError, InvalidInputError
from braidkit.fpgroup import Presentation, artin_presentation, closed_orientable, nonorientable
from braidkit.nilq import nilpotent_quotient
from braidkit.word import exponent_vector, generator
from braidkit.zlinalg import (
    FgAbelianGroup,
    IntMatrix,
    _kernel_basis,
    _row_echelon,
    _staircase_cokernel,
    abelianization,
    admits_epimorphism,
    min_generators_lower_bound,
    smith_normal_form,
)


def det(matrix):
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det(minor)
    return total


# --- Smith normal form -------------------------------------------------------


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert snf.diagonal == (1, 1, 1)
    assert snf.rank == 3
    assert snf.factors == ()


def test_snf_diag_2_3():
    snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert snf.diagonal == (1, 6)


def test_snf_2x2_example():
    snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert snf.diagonal == (2, 4)


def test_from_rows_refuses_a_column_count_the_rows_do_not_have():
    with pytest.raises(InvalidInputError, match="rows have 2 columns, not 5"):
        IntMatrix.from_rows([[1, 2]], cols=5)
    assert IntMatrix.from_rows([[1, 2]], cols=2) == IntMatrix(1, 2, (1, 2))
    assert IntMatrix.from_rows([], cols=5) == IntMatrix(0, 5, ())


def test_snf_zero_and_empty():
    assert smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]])).rank == 0
    assert smith_normal_form(IntMatrix(0, 3, ())).rank == 0


def bareiss_det(matrix):
    """Fraction-free determinant, exact over the integers."""
    a = [list(r) for r in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def determinantal_divisors(m, r, c):
    """D_k = gcd of all k x k minors, for k = 1..min(r, c), by ``bareiss_det``;
    a k's gcd stops once it reaches 1."""
    out = []
    for k in range(1, min(r, c) + 1):
        g = 0
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(c), k):
                g = gcd(g, bareiss_det([[m[i][j] for j in cols] for i in rows]))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
    return out


def check_snf_against_minors(m, r, c):
    """The diagonal of ``m``'s SNF: positive entries, zeros only after the
    rank, a divisibility chain, and d_1 ... d_k = D_k for every k."""
    snf = smith_normal_form(IntMatrix.from_rows(m, cols=c))
    diag = list(snf.diagonal)
    nonzero = [d for d in diag if d]
    assert len(diag) == min(r, c)
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert snf.rank == len(nonzero)
    prod = 1
    for d, divisor in zip(diag, determinantal_divisors(m, r, c)):
        prod *= d
        assert prod == divisor


def test_snf_diagonal_matches_determinantal_divisors():
    rng = random.Random(7)
    for trial in range(60):
        r = rng.randint(1, 4) if trial % 10 else 5
        c = rng.randint(1, 5) if trial % 10 else 6
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        check_snf_against_minors(m, r, c)


def test_snf_determinantal_divisors_on_larger_matrices():
    rng = random.Random(77)
    for _ in range(10):
        r, c = 8, 9
        m = [[rng.randint(-99, 99) for _ in range(c)] for _ in range(r)]
        check_snf_against_minors(m, r, c)


def test_snf_divisibility_chain_and_minor_gcd_oracle():
    rng = random.Random(8)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(IntMatrix.from_rows(m))
        diag = [d for d in snf.diagonal if d]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # product of the first k diagonal entries = gcd of all k x k minors
        prod = 1
        for k in range(1, len(diag) + 1):
            prod *= diag[k - 1]
            g = 0
            for rows in itertools.combinations(range(r), k):
                for cols in itertools.combinations(range(c), k):
                    sub = [[m[i][j] for j in cols] for i in rows]
                    g = gcd(g, det(sub))
            assert prod == g


def test_snf_properties_on_unit_rich_matrices():
    # property check of the unit-pivot shortcut: zeros and units dominate
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-12, 12))
    matrices = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
        lambda shape: st.tuples(
            st.lists(
                st.lists(entry, min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            ),
            st.just(shape[1]),
        )
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(matrices)
    def check(case):
        m, c = case
        check_snf_against_minors(m, len(m), c)

    check()


def _dense_smith(a):
    """The dense Smith reduction that preceded the echelon alternation, kept
    as an oracle.  Reduces ``a`` in place and returns its diagonal."""
    m = len(a)
    n = len(a[0]) if m else 0

    def row_op(i, k, q):  # row_i -= q * row_k
        ai, ak = a[i], a[k]
        for j in range(n):
            ai[j] -= q * ak[j]

    def col_op(j, k, q):  # col_j -= q * col_k
        for r in a:
            r[j] -= q * r[k]

    exhausted = False
    for t in range(min(m, n)):
        if exhausted:
            break
        while True:
            # smallest nonzero |entry| in the trailing block, row-major scan
            pi = pj = -1
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = a[i][j]
                    if x and (best is None or abs(x) < best):
                        best, pi, pj = abs(x), i, j
                        if best == 1:
                            break
                if best == 1:
                    break
            if best is None:
                exhausted = True
                break
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            # one reduction pass against this fixed pivot
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
            if any(a[i][t] for i in range(t + 1, m)) or any(
                a[t][j] for j in range(t + 1, n)
            ):
                continue
            # fold a row the pivot does not divide into row t
            d = a[t][t]
            if d == 1:
                break
            offender = None
            for i in range(t + 1, m):
                if any(a[i][j] % d for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
    return [a[t][t] for t in range(min(m, n))]


def _random_snf_input(rng, trial):
    """A seeded matrix of up to 14 x 14, with empty shapes, single rows and
    columns, zero rows and columns, and entries up to 10^6."""
    r = 0 if trial % 20 == 0 else 1 if trial % 20 == 1 else rng.randint(0, 14)
    c = 0 if trial % 20 == 2 else 1 if trial % 20 == 3 else rng.randint(0, 14)
    big = rng.choice((1, 9, 99, 10**6))
    density = rng.choice((0.2, 0.5, 1.0))
    m = [[rng.randint(-big, big) if rng.random() < density else 0 for _ in range(c)] for _ in range(r)]
    if r and c and rng.random() < 0.3:
        m[rng.randrange(r)] = [0] * c
    if r and c and rng.random() < 0.3:
        j = rng.randrange(c)
        for row in m:
            row[j] = 0
    return m, c


def test_snf_matches_the_dense_reduction_on_seeded_matrices():
    rng = random.Random(12)
    seen = dict.fromkeys(("empty", "single row", "single column", "zero row", "zero column"), 0)
    seen["entry over 10^5"] = 0
    for trial in range(3000):
        m, c = _random_snf_input(rng, trial)
        snf = smith_normal_form(IntMatrix.from_rows(m, cols=c))
        assert list(snf.diagonal) == _dense_smith([list(r) for r in m]), (m, c)
        seen["empty"] += not m or not c
        seen["single row"] += len(m) == 1
        seen["single column"] += c == 1
        seen["zero row"] += any(not any(r) for r in m)
        seen["zero column"] += bool(m) and any(not any(r[j] for r in m) for j in range(c))
        seen["entry over 10^5"] += any(abs(x) > 10**5 for r in m for x in r)
    assert all(seen.values()), seen


def test_snf_matches_the_dense_reduction_on_grid_inputs():
    from test_nilq import GRID

    for p in GRID:
        matrices = [_relator_matrix(p)]
        for c in (1, 2, 3):
            matrices.extend(nilpotent_quotient(p, c).relation_lattices)
        for matrix in matrices:
            c = matrix.cols
            dense = [list(matrix.entries[i * c : (i + 1) * c]) for i in range(matrix.rows)]
            assert list(smith_normal_form(matrix).diagonal) == _dense_smith(dense), p


def _relator_matrix(p):
    """The relators' exponent vectors as a dense matrix, one row per relator."""
    n = p.generator_count
    return IntMatrix.from_rows([exponent_vector(r, n) for r in p.relators], cols=n)


def _cokernel(matrix):
    """Z^cols / rows, from the staircase of the matrix's echelon rows."""
    c = matrix.cols
    rows = [matrix.entries[i * c : (i + 1) * c] for i in range(matrix.rows)]
    return _staircase_cokernel(_row_echelon(rows, c), c)


def _smith_cokernel(matrix):
    """Z^cols / rows, from the diagonal of the whole Smith normal form."""
    snf = smith_normal_form(matrix)
    return FgAbelianGroup(matrix.cols - snf.rank, snf.factors)


def test_cokernel_matches_the_smith_diagonal_on_seeded_matrices():
    rng = random.Random(23)
    seen = dict.fromkeys(("empty", "zero row", "repeated row", "all pivots 1"), 0)
    seen.update(dict.fromkeys(("pivot 1 and larger", "larger pivots only"), 0))
    for trial in range(3000):
        m, c = _random_snf_input(rng, trial)
        if m and trial % 3 == 0:  # exact repeats, anywhere
            for _ in range(rng.randint(1, 3)):
                m.insert(rng.randint(0, len(m)), list(rng.choice(m)))
        matrix = IntMatrix.from_rows(m, cols=c)
        echelon = _row_echelon(m, c)
        before = [dict(r) for r in echelon]
        expected = _smith_cokernel(matrix)
        assert _staircase_cokernel(echelon, c) == expected, (m, c)
        assert echelon == before  # the rows are left alone
        assert _cokernel(matrix) == expected, (m, c)
        units = sum(r[min(r)] == 1 for r in echelon)
        nonzero = [tuple(r) for r in m if any(r)]
        seen["empty"] += not m or not c
        seen["zero row"] += len(nonzero) < len(m)
        seen["repeated row"] += len(set(nonzero)) < len(nonzero)
        seen["all pivots 1"] += 0 < units == len(echelon)
        seen["pivot 1 and larger"] += 0 < units < len(echelon)
        seen["larger pivots only"] += units == 0 < len(echelon)
    assert all(x >= 20 for x in seen.values()), seen


def test_cokernel_matches_the_smith_diagonal_on_grid_lattices():
    from test_nilq import GRID

    for p in GRID:
        assert abelianization(p) == _smith_cokernel(_relator_matrix(p)), p
        for c in (1, 2, 3):
            q = nilpotent_quotient(p, c)
            for matrix, layer in zip(q.relation_lattices, q.layers):
                assert layer == _cokernel(matrix) == _smith_cokernel(matrix), (p, c)


def test_from_moduli_matches_the_dense_reduction_of_its_diagonal():
    rng = random.Random(13)
    for _ in range(1000):
        moduli = [rng.choice((0, 1, -1, rng.randint(-60, 60))) for _ in range(rng.randint(0, 8))]
        free_rank = rng.randint(0, 2)
        tors = [abs(x) for x in moduli if abs(x) > 1]
        diag = _dense_smith([[x if i == j else 0 for j in range(len(tors))] for i, x in enumerate(tors)])
        expected = FgAbelianGroup(free_rank + moduli.count(0), tuple(d for d in diag if d > 1))
        assert FgAbelianGroup.from_moduli(moduli, free_rank) == expected, moduli


# --- row echelon ---------------------------------------------------------------


def _dense_row_echelon(rows, ncols):
    """The dense-row echelon that preceded the sparse one, kept as an oracle:
    at each column the rows with a nonzero entry there, in input order,
    are sorted by absolute entry and reduced by the first until one is left."""
    work = [list(r) for r in rows if any(r)]
    out = []
    col = 0
    while work and col < ncols:
        active = [r for r in work if r[col]]
        if not active:
            col += 1
            continue
        touched = active
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            p = active[0]
            support = [j for j in range(col, ncols) if p[j]]
            for r in active[1:]:
                q = r[col] // p[col]
                if q:
                    for j in support:
                        r[j] -= q * p[j]
            active = [r for r in active if r[col]]
        p = active[0]
        if p[col] < 0:
            for j in range(ncols):
                p[j] = -p[j]
        out.append(p)
        gone = {id(r) for r in touched if r is p or not any(r)}
        work = [r for r in work if id(r) not in gone]
        col += 1
    return out


def _dense_kernel_basis(rows, ncols):
    m = len(rows)
    aug = [list(rows[i]) + [int(j == i) for j in range(m)] for i in range(m)]
    return [r[ncols:] for r in _dense_row_echelon(aug, ncols + m) if not any(r[:ncols])]


def _random_echelon_input(rng, trial):
    """A seeded matrix mixing zero, duplicate, dependent and sparse rows."""
    ncols = 1 + trial % 9
    nrows = 0 if trial % 50 == 0 else rng.randint(1, 8)
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.4 and len(rows) >= 2:  # an integer combination of two rows
            a, b = rng.sample(rows, 2)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            density = rng.choice((0.2, 0.5, 1.0))
            rows.append(
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(ncols)]
            )
    return rows, ncols


def _densify(rows, ncols):
    """Dense lists of sparse echelon rows, checking that they hold no zeros."""
    assert all(r and 0 not in r.values() for r in rows)
    return [[r.get(j, 0) for j in range(ncols)] for r in rows]


def test_row_echelon_matches_dense_oracle():
    rng = random.Random(2024)
    seen = dict.fromkeys(("empty", "zero", "duplicate", "negative", "reduced to zero"), 0)
    for trial in range(3000):
        rows, ncols = _random_echelon_input(rng, trial)
        expected = _dense_row_echelon(rows, ncols)
        assert _densify(_row_echelon(rows, ncols), ncols) == expected, (rows, ncols)
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        assert _densify(_row_echelon(sparse, ncols), ncols) == expected, (rows, ncols)
        assert _densify(_row_echelon([tuple(r) for r in rows], ncols), ncols) == expected
        assert _kernel_basis(rows, ncols) == _dense_kernel_basis(rows, ncols), (rows, ncols)
        nonzero = [r for r in rows if any(r)]
        seen["empty"] += not rows
        seen["zero"] += len(nonzero) < len(rows)
        seen["duplicate"] += len({tuple(r) for r in nonzero}) < len(nonzero)
        seen["negative"] += any(next(x for x in r if x) < 0 for r in nonzero)
        seen["reduced to zero"] += len(expected) < len(nonzero)
    assert all(seen.values()), seen


def test_exact_repeats_leave_the_row_echelon_unchanged():
    # a repeat ties with its earlier twin at every step, so it is reduced
    # alike, is never the pivot, and vanishes when its twin becomes one
    rng = random.Random(2025)
    for trial in range(3000):
        if trial % 2:
            rows, ncols = _random_echelon_input(rng, trial)
        else:
            rows, ncols = _random_snf_input(rng, trial)
        if trial % 4 < 2:
            rows = [{j: x for j, x in enumerate(r) if x} for r in rows]
        repeated = list(rows)
        for _ in range(rng.randint(1, 6) if rows else 0):
            twin = rng.randrange(len(repeated))
            copy = dict(repeated[twin]) if trial % 4 < 2 else list(repeated[twin])
            repeated.insert(rng.randint(twin + 1, len(repeated)), copy)
        assert _row_echelon(repeated, ncols) == _row_echelon(rows, ncols), (rows, ncols)


def test_row_echelon_refuses_rows_that_lead_past_its_columns():
    # such a row was never popped from its bucket and vanished from the output
    with pytest.raises(ValueError, match="column 3"):
        _row_echelon([{3: 1}], 3)
    with pytest.raises(ValueError, match="column 3"):  # leads there once reduced
        _row_echelon([[1, 0, 0, 5], [1, 0, 0, 0]], 3)


def test_row_echelon_leaves_its_input_alone():
    dense = [[2, 4, 0], [-2, 0, 6], [0, 0, 0]]
    sparse = [{0: 2, 1: 4}, {0: -2, 2: 6}, {}]
    assert _row_echelon(dense, 3) == _row_echelon(sparse, 3) == [{0: 2, 1: 4}, {1: 4, 2: 6}]
    assert dense == [[2, 4, 0], [-2, 0, 6], [0, 0, 0]]
    assert sparse == [{0: 2, 1: 4}, {0: -2, 2: 6}, {}]


# --- abelianization -----------------------------------------------------------


def test_abelianization_examples():
    assert abelianization(closed_orientable(1, 3)).to_json() == {
        "free_rank": 2,
        "torsion": [2],
    }
    assert abelianization(closed_orientable(0, 4)).to_json() == {
        "free_rank": 0,
        "torsion": [6],
    }
    assert abelianization(nonorientable(2, 3)).to_json() == {
        "free_rank": 1,
        "torsion": [2, 2],
    }
    assert abelianization(artin_presentation(5)).to_json() == {
        "free_rank": 1,
        "torsion": [],
    }


def test_abelianization_metamorphic_invariance():
    rng = random.Random(9)
    base = closed_orientable(1, 3)
    expected = abelianization(base)
    n = base.generator_count
    for _ in range(25):
        rels = list(base.relators)
        rng.shuffle(rels)
        idx = rng.randrange(len(rels))
        rels[idx] = ~rels[idx]
        idx = rng.randrange(len(rels))
        conj = generator(rng.randint(1, n), n)
        rels[idx] = ~conj * rels[idx] * conj
        mutated = Presentation(base.generator_names, tuple(rels))
        assert abelianization(mutated) == expected


def test_abelianization_is_bounded_before_any_row(monkeypatch):
    import braidkit.zlinalg as zlinalg

    def no_rows(*args):
        raise AssertionError("an exponent vector was built before the bound check")

    monkeypatch.setattr(zlinalg, "_exponent_sums", no_rows)
    monkeypatch.setattr(zlinalg, "_row_echelon", no_rows)
    n = 3163  # n² = 10,004,569 cells, just over the bound of 10⁷
    wide = Presentation.from_json(
        {"generators": [f"x{i}" for i in range(n)], "relators": [[i] for i in range(1, n + 1)]}
    )
    with pytest.raises(BoundExceededError, match="3163 relators × 3163 generators"):
        abelianization(wide)


def test_abelianization_of_trivial_presentation():
    p = Presentation((), ())
    assert abelianization(p).is_trivial


# --- FgAbelianGroup -------------------------------------------------------------


def test_from_moduli_canonicalizes():
    assert FgAbelianGroup.from_moduli([2, 3]) == FgAbelianGroup(0, (6,))
    assert FgAbelianGroup.from_moduli([2, 4]) == FgAbelianGroup(0, (2, 4))
    assert FgAbelianGroup.from_moduli([0, 30, 4]) == FgAbelianGroup(1, (2, 60))
    assert FgAbelianGroup.from_moduli([1, 1]) == FgAbelianGroup(0, ())


def test_invariant_factor_validation():
    with pytest.raises(InvalidInputError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(InvalidInputError):
        FgAbelianGroup(0, (4, 2))
    with pytest.raises(InvalidInputError):
        FgAbelianGroup(-1, ())


def test_group_order():
    assert FgAbelianGroup(0, (2, 6)).order() == 12
    assert FgAbelianGroup(1, (2,)).order() is None
    assert FgAbelianGroup(0, ()).order() == 1


# --- admits_epimorphism ----------------------------------------------------------


def test_epimorphism_examples():
    z = FgAbelianGroup(1)
    assert admits_epimorphism(z, FgAbelianGroup(0, (5,)))
    assert not admits_epimorphism(FgAbelianGroup(0, (4,)), FgAbelianGroup(0, (3,)))
    assert not admits_epimorphism(FgAbelianGroup(0, (2, 2)), FgAbelianGroup(0, (4,)))
    assert admits_epimorphism(FgAbelianGroup(1, (2,)), FgAbelianGroup(0, (4,)))


def _finite_abelian_groups_up_to(max_order):
    """All isomorphism classes, as tuples of elementary divisors."""
    groups = []
    for n in range(1, max_order + 1):
        factor_lists = [[]]
        rest = n
        d = 2
        prime_powers = []
        while d * d <= rest:
            if rest % d == 0:
                e = 0
                while rest % d == 0:
                    rest //= d
                    e += 1
                prime_powers.append((d, e))
            d += 1
        if rest > 1:
            prime_powers.append((rest, 1))

        def partitions(k):
            if k == 0:
                yield ()
                return
            for first in range(k, 0, -1):
                for tail in partitions(k - first):
                    if not tail or tail[0] <= first:
                        yield (first,) + tail

        for p, e in prime_powers:
            new = []
            for parts in partitions(e):
                for lst in factor_lists:
                    new.append(lst + [p**x for x in parts])
            factor_lists = new
        groups.extend(tuple(sorted(lst)) for lst in factor_lists)
    return sorted(set(groups))


def _surjection_oracle(a_factors, b_factors):
    """Enumerate homomorphisms by generator images, pruning on the size of
    the generated subgroup, and report whether any is surjective.  A
    (level, subgroup) state that failed once is not searched again."""
    if not b_factors:
        return True
    b_order = 1
    for d in b_factors:
        b_order *= d
    zero = tuple(0 for _ in b_factors)

    def add(x, y):
        return tuple((u + v) % d for u, v, d in zip(x, y, b_factors))

    def candidates(order):
        out = []
        for e in itertools.product(*[range(d) for d in b_factors]):
            if all((order * c) % d == 0 for c, d in zip(e, b_factors)):
                out.append(e)
        return out

    cands = [candidates(k) for k in a_factors]

    def extend(subgroup, e):
        multiples = []
        x = e
        while x != zero:
            multiples.append(x)
            x = add(x, e)
        out = set(subgroup)
        for mult in multiples:
            out.update(add(c, mult) for c in subgroup)
        return out

    failed = set()

    def dfs(i, subgroup):
        if len(subgroup) == b_order:
            return True
        if i == len(cands):
            return False
        bound = len(subgroup)
        for k in a_factors[i:]:
            bound *= k
        if bound < b_order:
            return False
        state = (i, frozenset(subgroup))
        if state in failed:
            return False
        if any(dfs(i + 1, extend(subgroup, e)) for e in cands[i]):
            return True
        failed.add(state)
        return False

    return dfs(0, {zero})


def test_epimorphism_against_enumeration_oracle():
    groups = _finite_abelian_groups_up_to(36)
    for a_factors in groups:
        a = FgAbelianGroup.from_moduli(a_factors)
        for b_factors in groups:
            b = FgAbelianGroup.from_moduli(b_factors)
            expected = _surjection_oracle(a_factors, b_factors)
            assert admits_epimorphism(a, b) == expected, (a_factors, b_factors)


def test_epimorphism_reflexive_and_transitive():
    rng = random.Random(10)
    groups = [
        FgAbelianGroup.from_moduli(mods, free_rank=rng.randint(0, 2))
        for mods in [(2, 4), (3,), (2, 2, 2), (6, 12), (), (5, 25)]
    ]
    for g in groups:
        assert admits_epimorphism(g, g)
    for a in groups:
        for b in groups:
            for c in groups:
                if admits_epimorphism(a, b) and admits_epimorphism(b, c):
                    assert admits_epimorphism(a, c)


# --- generator-count lower bound ---------------------------------------------------


def test_min_generators_examples():
    assert min_generators_lower_bound(closed_orientable(1, 2)) == 3
    assert min_generators_lower_bound(closed_orientable(2, 5)) == 5
    assert min_generators_lower_bound(artin_presentation(4)) == 1
