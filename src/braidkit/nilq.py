"""Lower central series layers of finitely presented groups, through
nilpotency class 3, in Lyndon coordinates.

The Magnus map sends the generator x_i to 1 + X_i in the power series
ring over Z in non-commuting X_1..X_n, cut above degree c.  It sends an
element of the free group's Γ_w to 1 + (a Lie element of degree w) +
higher terms, and it maps Γ_2/Γ_{c+1} additively and injectively into
the degree 2..c parts.  A degree-w Lie element is fixed by its
coefficients at the Lyndon words of length w, since the standard
bracketing of a Lyndon word is that word plus larger ones
(Chen-Fox-Lyndon 1958); those coefficients are the Z-coordinates of the
weight-w layer.  The Lyndon words of length 1 are the generators, so one
index of the Lyndon words of length 1..c, in blocks by weight, gives
every relation row its coordinates:

* in the weight-1 block, the relators' exponent vectors;
* in the blocks of weights 2..c, commutators [r, x] of relators with
  generators (for c = 3 also [[r, x], y]) and products of relator powers
  whose exponent sums cancel, each in Lyndon coordinates as it is made.

Each relator's letters are counted once, into its sparse exponent
vector e_i.  At c >= 2 the m vectors are echeloned once, each with the
unit vector of its relator appended past the n generator columns (an
m x m identity block).  The rows that pivot below n, cut to n columns,
are the plain echelon of the vectors, since the block lies past n and
so changes no pivot choice below n: a Z-basis of the exponent lattice
and the weight-1 block.  The rows that pivot at or past n hold in the
block a basis of the multiplicity vectors λ with Σ λ_i e_i = 0, the
relator products of the weight 2..c rows.  Those rows have no weight-1
entry and are echeloned apart, so the two echelons together are the
one over all the rows.  The rows leading in weight w's block, cut to
that block, span the weight-w lattice (the relations whose lower
weights vanish), and the weight-w layer of the presented group is its
cokernel.  It is read only for the weights asked for, off the
staircase as it stands: the rows with pivot 1 split off trivial
summands, and only the others go on to a Smith reduction
(``zlinalg._staircase_cokernel``).  No dense matrix is built unless the
lattices are asked for.

Only rows that can be nonzero are built.  A relator whose exponent
vector is zero (a braid or commutation relator) has S_1 = 0, so its
[r, x] rows vanish at c = 2 (they are B_2 below) and its [[r, x], y]
rows, which lead with [B_2, X_y], vanish at c = 3.  The rows
[r, [x_k, x_l]], which lead with [S_1, [X_k, X_l]], are never built:
by the Jacobi identity

    [S_1, [X_k, X_l]] = [[S_1, X_k], X_l] - [[S_1, X_l], X_k],

each is the difference of the [[r, x_k], x_l] and [[r, x_l], x_k] rows,
so it adds nothing to the lattice (Magnus, Karrass & Solitar,
*Combinatorial Group Theory*, 1966, ch. 5).  The [r, x] rows at c = 2
(each is B_2, below) and the [[r, x], y] rows at c = 3 (each is
[B_2, X_y]) are Z-linear in r's exponent vector S_1, so they are built
once per vector of a Z-basis of the exponent lattice, the weight-1
echelon rows, in place of S_1.  The relators' vectors and the basis
vectors are integer combinations of each other, so by linearity the
basis rows and the per-relator rows span the same lattice.  No row that
projects to zero is kept.

For u in Γ_i and v in Γ_j the image of [u, v] is 1 + [u_i, v_j] plus
terms above degree i + j, so the weight-3 commutator rows are brackets
of sparse leading parts.  For [r, x], write r = 1 + S and x = 1 + X:
then [r, x] = 1 + (xr)^-1 (SX - XS), and below degree 4 only
1 - S_1 - X of (xr)^-1 matters, so

    [r, x] = 1 + B_2 + B_3 - (S_1 + X) B_2,  B_d = S_{d-1} X - X S_{d-1}.

No series is built, at either class.  Every coefficient a row reads
comes from one walk over the relator (``_magnus_walk``) that keeps
running S_1 and S_2: right-multiplying by a letter x^e, e = ±1,
multiplies the series by 1 + X or by 1 - X + X^2 - ..., so S_2 gains
e S_1 X and S_3 gains e S_2 X, and an inverse letter also adds S_1 X^2
to S_3 (its other terms fall on xx and xxx, which are not Lyndon words).
The walk keeps S_2 at the Lyndon words (k, l), k < l, alone, where a
word's coefficient is the sum of e_p e_q over its letter pairs p < q on
generators k and l (Fox, *Ann. Math.* 57, 1953).  The other pairs follow
from the quasi-shuffle identities

    c(lk) = c(k) c(l) - c(kl)  (k < l),    c(kk) = C(c(k), 2),

the second because the word's image in one generator k is
(1 + X_k)^c(k); here C(λ, m) = λ(λ - 1)...(λ - m + 1)/m!, an integer
also for λ < 0.  At c = 3 the walk writes S_3 only at the Lyndon words
of length 3, the (a, b, d) with a < d and a <= b.  A step on x writes
(a, b, x) with a < x and a <= b, so it reads S_2 only at (a, b), a <= b:
the walk's own pairs and C(S_1[a], 2) on the diagonal.

Each row is written straight into its Lyndon columns:

* [r, x] is B_2 at c = 2 and B_2 + B_3 - (S_1 + X) B_2 at c = 3;
* [[r, x], y] leads with [B_2, X_y] = Σ_j S_1[j] [[X_j, X_x], X_y], and
  [[X_j, X_x], X_y] = jxy - xjy - yjx + yxj, of which only the Lyndon
  words are kept;
* a product of relator powers, in index order, is one running product
  P = Π (1 + A_i) - 1.  By the binomial series r^λ = (1 + S)^λ = 1 + A,
  with A_1 = λS_1, A_2 = λS_2 + C(λ, 2) S_1 S_1 and

      A_3 = λS_3 + C(λ, 2)(S_1 S_2 + S_2 S_1) + C(λ, 3) S_1 S_1 S_1,

  so a negative λ needs no inverse walk.  Each factor adds A + PA: P_2
  gains A_2 + P_1 A_1, and P_3 gains A_3 + P_1 A_2 + P_2 A_1.  The top
  degree c enters only as a sum, so P and every A are kept in full below
  degree c and at the Lyndon words of length c alone.  At c = 2 the
  product's weight-2 part is

      Σ_i (λ_i S_2^i + C(λ_i, 2) S_1^i S_1^i) + Σ_{i<j} λ_i λ_j S_1^i S_1^j.

Every row is a sparse ``{column: entry}`` dict from the moment it is
made.  Arithmetic is exact, and the work is bounded by an estimate of
the matrix size made before any row is built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BoundExceededError, InvalidInputError, checked, json_field
from .fpgroup import Presentation, resolve_presentation
from .word import _exponent_sums
from .zlinalg import (
    FgAbelianGroup,
    IntMatrix,
    _row_echelon,
    _staircase_cokernel,
    abelianization,
)

__all__ = [
    "DEFAULT_LCS_BOUND",
    "NilpotentQuotient",
    "nilpotent_quotient",
    "lcs_layer",
    "free_layer_rank",
    "resolve_group",
]

MAX_CLASS = 3
# (relation rows + 1) x Lyndon columns plus relator letters x n^c, the
# charge for the relators' walks; every corpus and test presentation
# needs under 1 million, which take well under a second and a few tens
# of MB
DEFAULT_LCS_BOUND = 10**7

# ---------------------------------------------------------------------------
# Magnus coefficients, read off one walk over a word


def _magnus_walk(letters, c: int) -> dict[tuple[int, ...], int]:
    """A word's Magnus coefficients at the words of length 1..c-1 and at
    the Lyndon words of length c, as ``{word: coefficient}`` without zeros,
    from one walk that keeps running S_1 and S_2 (see the module
    docstring)."""
    s1: dict[int, int] = {}
    s2: dict[tuple[int, ...], int] = {}  # at (k, l), k < l
    s3: dict[tuple[int, ...], int] = {}  # at the Lyndon words (a, b, x)
    for let in letters:
        x, e = abs(let) - 1, 1 if let > 0 else -1
        if c == 3:  # S_3 gains e S_2 X at (a, b, x), a < x and a <= b
            for (a, b), v in s2.items():
                if a < x:
                    s3[a, b, x] = s3.get((a, b, x), 0) + e * v
            for a, v in s1.items():
                if a < x and v:  # S_2 at (a, a) is C(v, 2)
                    s3[a, a, x] = s3.get((a, a, x), 0) + e * (v * (v - 1) // 2)
                    if e < 0:  # x^-1 = 1 - X + X^2 - ...: S_1 X^2 at (a, x, x)
                        s3[a, x, x] = s3.get((a, x, x), 0) + v
        for a, v in s1.items():
            if a < x and v:
                v = s2.get((a, x), 0) + e * v
                if v:
                    s2[a, x] = v
                else:  # kept without zeros
                    del s2[a, x]
        s1[x] = s1.get(x, 0) + e
    out = {(k,): v for k, v in s1.items() if v}
    out.update(s2)
    if c == 3:  # S_2 at (l, k) and (k, k) too, by the quasi-shuffle identities
        for k, u in s1.items():
            for l, w in s1.items():
                if k >= l:
                    v = u * w - s2.get((l, k), 0) if k > l else u * (u - 1) // 2
                    if v:
                        out[k, l] = v
        out.update({key: v for key, v in s3.items() if v})
    return out


# ---------------------------------------------------------------------------
# Lyndon coordinates


def _lyndon_words(n: int, c: int):
    """Lyndon words of length 1..c over 0..n-1, in lexicographic order
    (Duval's algorithm); none when n < 1."""
    if n < 1:
        return
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < c:
            w.append(w[len(w) - m])
        while w and w[-1] == n - 1:
            w.pop()


def _lyndon_index(n: int, c: int) -> dict[tuple[int, ...], int]:
    """Column of each Lyndon word of length 1..c: weight blocks in
    increasing order, words in lexicographic order within a block, so the
    weight-1 block is the generators in order and an exponent vector is a
    row as it stands."""
    return {w: j for j, w in enumerate(sorted(_lyndon_words(n, c), key=len))}


def free_layer_rank(n: int, w: int) -> int:
    """Rank of the weight-w lower central layer of a free group of rank n,
    by the necklace formula (1/w) * sum over d | w of mu(d) * n^(w/d);
    0 for the trivial group, n = 0.
    """
    if n < 0:
        raise InvalidInputError("generator count must be >= 0")
    if w not in (1, 2, 3):
        raise InvalidInputError(f"weight {w} unsupported (1..{MAX_CLASS})")
    mu = {1: 1, 2: -1, 3: -1}
    total = sum(mu[d] * n ** (w // d) for d in (1, 2, 3) if w % d == 0)
    return total // w


# ---------------------------------------------------------------------------
# relation lattices per weight


def _product_row(lam, walks: dict, index: dict, c: int) -> dict[int, int]:
    """Sparse Lyndon coordinates of the relator product Π r_i^λ_i, in
    index order, from one running product of the A_i = r_i^λ_i - 1 and the
    relators' walks alone (see the module docstring)."""

    def mul(s, t):  # the words of s t of length < c, and of length c if Lyndon
        by_length: list[list] = [[] for _ in range(c)]  # t's words shorter than c
        for key, v in t.items():
            if len(key) < c:
                by_length[len(key)].append((key, v))
        out: dict[tuple[int, ...], int] = {}
        for k1, v1 in s.items():
            for length in range(1, c + 1 - len(k1)):
                for k2, v2 in by_length[length]:
                    key = k1 + k2
                    if len(key) < c or key[0] < key[-1] and key[0] <= key[1]:
                        out[key] = out.get(key, 0) + v1 * v2
        return out

    prod: dict[tuple[int, ...], int] = {}  # P, the product so far less 1
    for i, k in enumerate(lam):
        if k:
            s = walks[i]
            power = {key: k * v for key, v in s.items()}  # A = k S + C(k, 2) S^2 + C(k, 3) S^3
            if k != 1:
                square = mul(s, s)
                terms = [(square, k * (k - 1) // 2)]
                if c == 3:
                    terms.append((mul(square, s), k * (k - 1) * (k - 2) // 6))
                for t, coefficient in terms:
                    for key, v in t.items():
                        power[key] = power.get(key, 0) + coefficient * v
            if not prod:  # the first factor: P = A
                prod = power
                continue
            for t in (power, mul(prod, power)):  # (1 + P)(1 + A) = 1 + P + A + PA
                for key, v in t.items():
                    prod[key] = prod.get(key, 0) + v
    return {index[key]: v for key, v in prod.items() if v and key in index}


def _weight_rows(
    p: Presentation, c: int, exponents: list, basis: list, kernel: list, index: dict
) -> list[dict[int, int]]:
    """Sparse nonzero rows spanning the relation lattice of weights 2..c,
    in the Lyndon coordinates of ``index`` (none has a weight-1 entry).

    ``exponents`` are the relators' sparse exponent vectors
    (``zlinalg._exponent_sums``), ``basis`` is a Z-basis of their lattice
    and ``kernel`` a basis of the multiplicity vectors λ with
    Σ λ_i e_i = 0, dense over the relators; ``nilpotent_quotient`` reads
    the last two off one echelon.

    At c = 3 each relator gives its n rows [r, x].  The rows linear in
    S_1, the [r, x] rows at c = 2 and the [[r, x], y] rows at c = 3, are
    built once per vector of ``basis`` in place of S_1 (see the module
    docstring).  The last rows are products of relator powers, one per
    vector λ of ``kernel``, whose weight-1 part vanishes.

    No series is built.  Each relator that a row reads is walked once
    (``_magnus_walk``): at c = 3 every relator, for the S_2 of its [r, x]
    rows, and at c = 2 only the relators in a product.  The walk keeps
    S_2 at the pairs (k, l), k < l, and gives (l, k) as
    S_1[k] S_1[l] - S_2[k, l] and (k, k) as C(S_1[k], 2); at c = 3 it
    writes S_3 only at the Lyndon words (a, b, d), a < d and a <= b.
    Each row is written straight into the Lyndon columns:

    * [r, x] is B_2 at c = 2, and B_2 + B_3 - (S_1 + X) B_2 at c = 3;
    * [[r, x], y] leads with [B_2, X_y] = Σ_j S_1[j] [[X_j, X_x], X_y],
      and [[X_j, X_x], X_y] = jxy - xjy - yjx + yxj, of which only the
      Lyndon words are kept;
    * a product keeps P = Π (1 + A_i) - 1 in full below degree c and at
      the Lyndon words of degree c.  Each factor adds A + PA, where
      A = λS + C(λ, 2) S^2 + C(λ, 3) S^3, so P_3 gains
      A_3 + P_1 A_2 + P_2 A_1, and no factor needs an inverse walk.
    """
    n = p.generator_count
    used = {i for lam in kernel for i, k in enumerate(lam) if k}
    walks = {
        i: _magnus_walk(r.letters, c) for i, r in enumerate(p.relators) if c == 3 or i in used
    }

    def b2(s1, x):  # B_2 = Σ_j S_1[j] (jx - xj), as terms and at the Lyndon words (j, x) or (x, j)
        terms = [((j, x), v) for j, v in s1 if j != x] + [((x, j), -v) for j, v in s1 if j != x]
        return terms, {index[key]: v for key, v in terms if key[0] < key[1]}

    def bracket(row, terms, x):  # row plus T X - X T at the Lyndon words, T of degree 2
        for (a, b), v in terms:
            if a < x and a <= b:
                j = index[a, b, x]
                row[j] = row.get(j, 0) + v
            if x < b and x <= a:
                j = index[x, a, b]
                row[j] = row.get(j, 0) - v
        return {j: v for j, v in row.items() if v}

    rows: list[dict[int, int]] = []
    if c == 3:  # per relator, [r, x] = B_2 + B_3 - (S_1 + X) B_2
        for i, vec in enumerate(exponents):
            s1 = list(vec.items())
            s2 = [(key, v) for key, v in walks[i].items() if len(key) == 2]
            for x in range(n):
                terms, row = b2(s1, x)
                for k, u in s1 + [(x, 1)]:  # - (S_1 + X) B_2 at the Lyndon words (k, a, b)
                    for (a, b), v in terms:
                        if k < b and k <= a:
                            j = index[k, a, b]
                            row[j] = row.get(j, 0) - u * v
                rows.append(bracket(row, s2, x))  # B_3 = S_2 X - X S_2
    for vec in basis:  # the rows linear in S_1: B_2 at c = 2, [B_2, X_y] at c = 3
        s1 = list(vec.items())
        for x in range(n):
            terms, row = b2(s1, x)
            rows.extend([row] if c == 2 else (bracket({}, terms, y) for y in range(n)))
    rows.extend(_product_row(lam, walks, index, c) for lam in kernel)
    return [row for row in rows if row]


def _weight_row_count(exponents: list, n: int, c: int) -> int:
    """The most rows ``_weight_rows`` builds, from the relators' sparse
    exponent vectors: at c = 3 n rows [r, x] per relator; n rows B_2 at
    c = 2, or n^2 rows [B_2, X_y] at c = 3, per relator whose exponent
    vector is nonzero; and at most one relator product per relator.  It
    over-counts at both classes: ``_weight_rows`` builds the B_2 and
    [B_2, X_y] rows once per vector of a basis of the exponent lattice,
    whose rank is at most the number of those relators."""
    unbalanced = sum(1 for vec in exponents if vec)
    if c == 2:
        return n * unbalanced + len(exponents)
    return (n + 1) * len(exponents) + n * n * unbalanced


def _layer_from_lattice(rows: list, width: int) -> IntMatrix:
    """The sparse ``_row_echelon`` rows of one weight's lattice, in its
    ``width`` Lyndon coordinates, as a dense ``IntMatrix``."""
    entries = [0] * (len(rows) * width)
    for i, row in enumerate(rows):
        for j, x in row.items():
            entries[i * width + j] = x
    return IntMatrix(len(rows), width, tuple(entries))


@dataclass(frozen=True)
class NilpotentQuotient:
    """The class-c nilpotent quotient of a presented group, per weight:
    the echelon rows of its relation lattice, in Lyndon coordinates, and
    read from them on demand the layer isomorphism types (``layers``,
    ``layer(w)``) and the lattices as dense matrices
    (``relation_lattices``).

    ``widths[w - 1]`` is the number of Lyndon coordinates of weight w,
    and ``lead_rows[w - 1]`` holds the echelon rows that lead in that
    block, cut to it: the relations whose lower weights vanish.
    """

    nilpotency_class: int
    widths: tuple[int, ...]
    lead_rows: tuple[list[dict[int, int]], ...] = field(repr=False)

    def layer(self, w: int) -> FgAbelianGroup:
        """Isomorphism type of the weight-w layer: the cokernel of its
        lead rows, read off their staircase."""
        if not 1 <= w <= self.nilpotency_class:
            raise InvalidInputError(f"weight {w} outside 1..{self.nilpotency_class}")
        return _staircase_cokernel(self.lead_rows[w - 1], self.widths[w - 1])

    @cached_property
    def layers(self) -> tuple[FgAbelianGroup, ...]:
        return tuple(self.layer(w) for w in range(1, self.nilpotency_class + 1))

    @cached_property
    def relation_lattices(self) -> tuple[IntMatrix, ...]:
        return tuple(map(_layer_from_lattice, self.lead_rows, self.widths))


def nilpotent_quotient(
    p: Presentation, nilpotency_class: int, bound: int = DEFAULT_LCS_BOUND
) -> NilpotentQuotient:
    """The lower central layers of weight <= nilpotency_class, as echelon
    rows per weight; layers and dense lattices are read from them on
    demand (``NilpotentQuotient``).

    Each relator's letters are counted once, into its sparse exponent
    vector, before the bound check.  Raises BoundExceededError, before
    building any row, if the relation rows plus one times the Lyndon
    columns, plus the relator letters times n^c (the charge for walking
    the relators), would exceed ``bound``.

    At c >= 2 one echelon of the exponent vectors, with an identity
    block appended past column n, gives both the weight-1 block, which
    is the basis of ``_weight_rows``, and the kernel of its relator
    products (see the module docstring).
    """
    c = nilpotency_class
    if c not in (1, 2, 3):
        raise InvalidInputError(f"class-{c} quotients are unsupported (max {MAX_CLASS})")
    n = p.generator_count
    exponents = [_exponent_sums(r) for r in p.relators]
    m = len(exponents)
    # the Lyndon columns of each weight, counted before the index is built
    widths = [free_layer_rank(n, w) for w in range(1, c + 1)]
    row_count = m + (_weight_row_count(exponents, n, c) if c > 1 else 0)
    # the index costs a row of columns; a relator's walk is charged
    # letters x n^c, above its cost of at most letters x (n^2 + n) steps
    cost = (row_count + 1) * sum(widths) + sum(len(r) for r in p.relators) * n**c
    if cost > bound:
        raise BoundExceededError(
            f"class-{c} quotient needs about {cost} cells and steps, over the bound {bound}"
        )

    if c == 1:
        echelon = _row_echelon(exponents, n)
    else:
        augmented = _row_echelon([{**vec, n + i: 1} for i, vec in enumerate(exponents)], n + m)
        rank = sum(1 for r in augmented if min(r) < n)  # the rows pivoting below n come first
        basis = [{j: x for j, x in r.items() if j < n} for r in augmented[:rank]]
        kernel = [[r.get(n + i, 0) for i in range(m)] for r in augmented[rank:]]
        rows = _weight_rows(p, c, exponents, basis, kernel, _lyndon_index(n, c))
        # no row of weights 2..c has a weight-1 entry, so they are echeloned
        # apart, and the basis is the weight-1 block of the one echelon
        echelon = basis + _row_echelon(rows, sum(widths))
    pivots = [min(r) for r in echelon]  # increasing
    lead_rows, lo, first = [], 0, 0
    for width in widths:  # one weight's block: columns lo..hi-1
        hi = lo + width
        last = bisect_left(pivots, hi, first)
        lead_rows.append([{j - lo: x for j, x in r.items() if j < hi} for r in echelon[first:last]])
        lo, first = hi, last
    return NilpotentQuotient(c, tuple(widths), tuple(lead_rows))


def lcs_layer(p: Presentation, i: int, bound: int = DEFAULT_LCS_BOUND) -> FgAbelianGroup:
    """Isomorphism type of the i-th lower central layer of the group
    presented by p, for i in {1, 2, 3}.

    >>> from .fpgroup import closed_orientable
    >>> str(lcs_layer(closed_orientable(1, 3), 2))
    'Z/3'
    """
    if i not in (1, 2, 3):
        raise InvalidInputError(f"layer {i} unsupported (1..{MAX_CLASS})")
    return nilpotent_quotient(p, i, bound).layer(i)


def resolve_group(spec) -> FgAbelianGroup:
    """An abelian group given literally, or as an abelianisation or LCS
    layer of a presentation."""
    if isinstance(spec, dict) and "lcs" in spec:
        inner = checked(spec["lcs"], dict, "lcs spec")
        layer = json_field(inner, "layer", int, "lcs spec")
        return lcs_layer(resolve_presentation(inner), layer)
    if isinstance(spec, dict) and "abelianization" in spec:
        return abelianization(resolve_presentation(spec["abelianization"]))
    if isinstance(spec, dict) and "free_rank" in spec:
        return FgAbelianGroup.from_json(spec)
    raise InvalidInputError(f"cannot interpret group spec {spec!r}")
