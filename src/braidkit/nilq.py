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
  whose exponent sums cancel, each projected as it is made.

One echelon reduces all the rows together.  The rows it leaves leading
in weight w's block, cut to that block, span the weight-w lattice (the
relations whose lower weights vanish), and the weight-w layer of the
presented group is its cokernel.  That is read off the staircase as it
stands: the rows with pivot 1 split off trivial summands, and only the
others go on to a Smith reduction (``zlinalg._staircase_cokernel``).

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
(each is B_2, below) and the [[r, x], y] rows at c = 3 (each leads with
[B_2, X_y]) depend on r's exponent vector alone, so a relator whose
vector an earlier relator has builds none: they would repeat the earlier
rows, and an exact repeat never changes the echelon.  Its twin comes
first in every tie, so the two are reduced alike, the repeat is never a
pivot, and it vanishes when its twin becomes one.  No row that projects
to zero is kept.

For u in Γ_i and v in Γ_j the image of [u, v] is 1 + [u_i, v_j] plus
terms above degree i + j, so the weight-3 commutator rows are brackets
of sparse leading parts.  For [r, x], write r = 1 + S and x = 1 + X:
then [r, x] = 1 + (xr)^-1 (SX - XS), and below degree 4 only
1 - S_1 - X of (xr)^-1 matters, so

    [r, x] = 1 + B_2 + B_3 - (S_1 + X) B_2,  B_d = S_{d-1} X - X S_{d-1}.

At c = 2 no series is built.  A word's coefficient at X_k X_l, k != l,
is the sum of e_p e_q over its letter pairs p < q on generators k and l,
e = ±1 being a letter's sign (an inverse letter's X^2 term never meets
two generators; Fox, *Ann. Math.* 57, 1953), so one walk with running
exponent sums gives S_2 at each Lyndon word (k, l).  As r^λ = 1 + λS_1 +
λS_2 + C(λ, 2) S_1 S_1 + ..., where C(λ, 2) = λ(λ - 1)/2 also for
λ < 0, a product of relator powers, in index order, has weight-2 part

    Σ_i (λ_i S_2^i + C(λ_i, 2) S_1^i S_1^i) + Σ_{i<j} λ_i λ_j S_1^i S_1^j.

At c = 3 only the products multiply whole series, and a product of one
relator is its series, or its inverse's, as it stands.  A relator's
series is built one letter at a time, and every row is a sparse
``{column: entry}`` dict from the moment it is made.  Arithmetic is
exact, and the work is bounded by an estimate of the matrix size made
before any row is built.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import reduce

from .errors import BoundExceededError, InvalidInputError, checked, json_field
from .fpgroup import Presentation, resolve_presentation
from .word import exponent_vector
from .zlinalg import (
    FgAbelianGroup,
    IntMatrix,
    _kernel_basis,
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
# (relation rows + 1) x Lyndon columns plus relator letters x n^c; every
# corpus and test presentation needs under 1 million, which take well
# under a second and a few tens of MB
DEFAULT_LCS_BOUND = 10**7

# ---------------------------------------------------------------------------
# truncated tensor-series arithmetic (exact, over Z)

Series = dict  # {tuple of 0-based generator indices: int coefficient}


def _series_mul(s: Series, t: Series, c: int) -> Series:
    # t's terms grouped by degree, so no pair above degree c is formed: the
    # product of two dense degree-3 series costs O(n^3) steps, not O(n^6)
    by_degree: list[list] = [[] for _ in range(c + 1)]
    for k2, v2 in t.items():
        by_degree[len(k2)].append((k2, v2))
    out: Series = {}
    for k1, v1 in s.items():
        for d in range(c + 1 - len(k1)):
            for k2, v2 in by_degree[d]:
                key = k1 + k2
                val = out.get(key, 0) + v1 * v2
                if val:
                    out[key] = val
                elif key in out:
                    del out[key]
    return out


def _series_pow(s: Series, k: int, c: int) -> Series:
    # s^k for k >= 1 by squaring; s itself, not a copy, when k = 1
    out = None
    while True:
        if k & 1:
            out = s if out is None else _series_mul(out, s, c)
        k >>= 1
        if not k:
            return out
        s = _series_mul(s, s, c)


def _word_series(letters, c: int) -> Series:
    # right-multiply by one letter at a time: 1 + X for x, and
    # 1 - X + X^2 - ... for x^-1, appending powers of X to shorter keys.
    # Terms are kept by degree and the degrees below c read from the top
    # down, so each is read before it is written and degree c, the
    # largest, is never walked
    by_degree: list[Series] = [{(): 1}] + [{} for _ in range(c)]
    for let in letters:
        x, sign = abs(let) - 1, 1 if let > 0 else -1
        top = 1 if let > 0 else c
        for d in range(c - 1, -1, -1):
            for key, v in by_degree[d].items():
                for e in range(d + 1, d + 1 + min(top, c - d)):
                    v *= sign
                    key += (x,)
                    terms = by_degree[e]
                    val = terms.get(key, 0) + v
                    if val:
                        terms[key] = val
                    else:
                        del terms[key]
    return {key: v for terms in by_degree for key, v in terms.items()}


def _pair_counts(letters) -> Series:
    """A word's Magnus coefficients at X_k X_l, k < l, from one walk that
    keeps running exponent sums: a letter x_l^e adds e times the sum so
    far of each generator k < l (see the module docstring)."""
    sums: dict[int, int] = {}
    out: Series = {}
    for let in letters:
        l, e = abs(let) - 1, 1 if let > 0 else -1
        for k, v in sums.items():
            if k < l and v:
                out[k, l] = out.get((k, l), 0) + e * v
        sums[l] = sums.get(l, 0) + e
    return {key: v for key, v in out.items() if v}


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


def _project(terms, index: dict) -> dict[int, int]:
    """Sparse Lyndon coordinates, ``{column: entry}``, of a sum of
    (word, coefficient) terms."""
    row: dict[int, int] = {}
    for key, v in terms:
        j = index.get(key)
        if j is not None:
            row[j] = row.get(j, 0) + v
    return {j: v for j, v in row.items() if v}


def _bracket_terms(s: Series, t: Series):
    """Terms of the bracket st - ts."""
    for k1, v1 in s.items():
        for k2, v2 in t.items():
            yield k1 + k2, v1 * v2
            yield k2 + k1, -v1 * v2


def _commutator_row(s1: Series, s2: Series, x: int, index: dict):
    """Sparse Lyndon coordinates, at c = 3, of [s, x] = s^-1 x^-1 s x, and
    its degree-2 part B_2, from the degree-1 and degree-2 parts of s by
    [s, x] = 1 + B_2 + B_3 - (S_1 + X) B_2 (see the module docstring)."""
    gx = {(x,): 1}
    b2: Series = {}
    for key, v in _bracket_terms(s1, gx):
        b2[key] = b2.get(key, 0) + v
    terms = list(b2.items())
    terms.extend(_bracket_terms(s2, gx))
    left = dict(s1)
    left[(x,)] = left.get((x,), 0) + 1
    terms.extend((k1 + k2, -v1 * v2) for k1, v1 in left.items() for k2, v2 in b2.items())
    return _project(terms, index), b2


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


def _class2_product(lam, exponents, pairs, index: dict) -> dict[int, int]:
    """Sparse Lyndon coordinates, at c = 2, of the relator product
    Π r_i^λ_i in index order, from the exponent vectors S_1^i and the pair
    counts S_2^i in ``pairs`` alone (see the module docstring)."""
    terms: dict[tuple[int, int], int] = {}
    prefix = [0] * len(exponents[0])  # Σ λ_i S_1^i over the factors so far
    for i, k in enumerate(lam):
        if k:
            for key, v in pairs[i].items():
                terms[key] = terms.get(key, 0) + k * v
            vec = exponents[i]
            if any(vec):
                # the prefix times k S_1^i, and C(k, 2) S_1^i S_1^i
                left = [k * a + k * (k - 1) // 2 * b for a, b in zip(prefix, vec)]
                for l, b in enumerate(vec):
                    if b:
                        for j in range(l):
                            if left[j]:
                                terms[j, l] = terms.get((j, l), 0) + left[j] * b
                prefix = [a + k * b for a, b in zip(prefix, vec)]
    return _project(terms.items(), index)


def _weight_rows(p: Presentation, c: int, exponents, index: dict) -> list[dict[int, int]]:
    """Sparse nonzero rows spanning the relation lattice of weights 2..c,
    in the Lyndon coordinates of ``index`` (none has a weight-1 entry):
    per relator its [r, x] rows and, at c = 3, its [[r, x], y] rows, each
    group left out where it vanishes or repeats (see the module docstring).

    The last rows are products of relator powers whose exponent vectors
    cancel, one per basis vector of the multiplicity lattice with
    vanishing weight-1 part.

    At c = 2 no series is built.  Each [r, x] row is B_2 = S_1 X - X S_1,
    fixed by r's exponent vector, so a relator whose vector an earlier one
    has builds none.  A word's coefficient at (k, l), k < l, is the sum of
    e_p e_q over its letter pairs p < q on generators k and l, and the
    product Π r_i^λ_i has the weight-2 part

        Σ_i (λ_i S_2^i + C(λ_i, 2) S_1^i S_1^i) + Σ_{i<j} λ_i λ_j S_1^i S_1^j.

    At c = 3 every relator's series is built once, for its degree-2 part,
    and an inverse relator's once, when a product first has a negative
    power of it.
    """
    n = p.generator_count
    built: dict[tuple[int, bool], Series] = {}

    def series(i: int, inverse: bool = False) -> Series:
        if (i, inverse) not in built:
            r = p.relators[i]
            built[i, inverse] = _word_series((~r if inverse else r).letters, c)
        return built[i, inverse]

    rows: list[dict[int, int]] = []
    seen: set[tuple[int, ...]] = set()
    for i, vec in enumerate(exponents):
        s1 = {(j,): v for j, v in enumerate(vec) if v}
        # B_2 = [S_1, X] and [B_2, X_y] are fixed by S_1 alone
        fresh = s1 and vec not in seen
        seen.add(vec)
        if c == 2:
            if fresh:  # each [r, x] is B_2 = S_1 X - X S_1, at (j, x) and (x, j)
                rows.extend(
                    {index[min(j, x), max(j, x)]: v if j < x else -v
                     for j, v in enumerate(vec) if v and j != x}
                    for x in range(n)
                )
            continue
        s2 = {k: v for k, v in series(i).items() if len(k) == 2}
        for x in range(n):
            row, b2 = _commutator_row(s1, s2, x, index)
            rows.append(row)
            if fresh:
                rows.extend(_project(_bracket_terms(b2, {(y,): 1}), index) for y in range(n))
    kernel = _kernel_basis(exponents, n)
    if c == 2:
        used = {i for lam in kernel for i, k in enumerate(lam) if k}
        pairs = {i: _pair_counts(p.relators[i].letters) for i in used}
        rows.extend(_class2_product(lam, exponents, pairs, index) for lam in kernel)
    else:
        for lam in kernel:
            powers = [_series_pow(series(i, k < 0), abs(k), c) for i, k in enumerate(lam) if k]
            prod = reduce(lambda s, t: _series_mul(s, t, c), powers)
            rows.append(_project(prod.items(), index))
    return [row for row in rows if row]


def _weight_row_count(relators, n: int, c: int) -> int:
    """The most rows ``_weight_rows`` builds: n rows [r, x] per relator
    (at c = 2 only per relator whose exponent vector is nonzero), at c = 3
    also n^2 rows [[r, x], y] per such relator, and at most one relator
    product per relator.  Reads letter counts, not n-long vectors, so it
    over-counts at both classes: it still counts the rows of a relator
    whose exponent vector repeats an earlier one's, which ``_weight_rows``
    does not build, its [r, x] rows at c = 2 and [[r, x], y] rows at c = 3."""
    counts = [Counter(r.letters) for r in relators]
    unbalanced = sum(any(k != cnt[-x] for x, k in cnt.items()) for cnt in counts)
    if c == 2:
        return n * unbalanced + len(relators)
    return (n + 1) * len(relators) + n * n * unbalanced


def _layer_from_lattice(rows: list, width: int) -> tuple[FgAbelianGroup, IntMatrix]:
    """Quotient of the free weight layer (``width`` Lyndon coordinates)
    by the lattice of sparse ``_row_echelon`` rows, read off their
    staircase, and those rows as an ``IntMatrix``."""
    entries = [0] * (len(rows) * width)
    for i, row in enumerate(rows):
        for j, x in row.items():
            entries[i * width + j] = x
    return _staircase_cokernel(rows, width), IntMatrix(len(rows), width, tuple(entries))


@dataclass(frozen=True)
class NilpotentQuotient:
    """Per-weight relation lattices, in Lyndon coordinates, and layer
    isomorphism types of the class-c nilpotent quotient of a presented
    group."""

    nilpotency_class: int
    relation_lattices: tuple[IntMatrix, ...]
    layers: tuple[FgAbelianGroup, ...]


def nilpotent_quotient(
    p: Presentation, nilpotency_class: int, bound: int = DEFAULT_LCS_BOUND
) -> NilpotentQuotient:
    """Compute all lower central layers of weight <= nilpotency_class.

    Raises BoundExceededError, before building any row, if the relation
    rows plus one times the Lyndon columns, plus the relator letters times
    n^c, would exceed ``bound``.
    """
    c = nilpotency_class
    if c not in (1, 2, 3):
        raise InvalidInputError(f"class-{c} quotients are unsupported (max {MAX_CLASS})")
    n = p.generator_count
    # the Lyndon columns of each weight, counted before the index is built
    widths = [free_layer_rank(n, w) for w in range(1, c + 1)]
    row_count = len(p.relators) + (_weight_row_count(p.relators, n, c) if c > 1 else 0)
    # the index costs a row of columns; a relator's series, letters x n^c
    # (at c = 2 its pair walk, at most letters x n)
    cost = (row_count + 1) * sum(widths) + sum(len(r) for r in p.relators) * n**c
    if cost > bound:
        raise BoundExceededError(
            f"class-{c} quotient needs about {cost} cells and steps, over the bound {bound}"
        )

    exponents = [exponent_vector(r, n) for r in p.relators]
    rows = exponents + (_weight_rows(p, c, exponents, _lyndon_index(n, c)) if c > 1 else [])
    echelon = _row_echelon(rows, sum(widths))
    pivots = [min(r) for r in echelon]  # increasing
    lattices, layers, lo, first = [], [], 0, 0
    for width in widths:  # one weight's block: columns lo..hi-1
        hi = lo + width
        last = bisect_left(pivots, hi, first)
        lead = [{j - lo: x for j, x in r.items() if j < hi} for r in echelon[first:last]]
        layer, lattice = _layer_from_lattice(lead, width)
        layers.append(layer)
        lattices.append(lattice)
        lo, first = hi, last
    return NilpotentQuotient(c, tuple(lattices), tuple(layers))


def lcs_layer(p: Presentation, i: int, bound: int = DEFAULT_LCS_BOUND) -> FgAbelianGroup:
    """Isomorphism type of the i-th lower central layer of the group
    presented by p, for i in {1, 2, 3}.

    >>> from .fpgroup import closed_orientable
    >>> str(lcs_layer(closed_orientable(1, 3), 2))
    'Z/3'
    """
    if i not in (1, 2, 3):
        raise InvalidInputError(f"layer {i} unsupported (1..{MAX_CLASS})")
    return nilpotent_quotient(p, i, bound).layers[i - 1]


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
