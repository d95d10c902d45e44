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
weight-w layer.  The weight-w layer of the presented group is then the
cokernel of the relation rows projected onto them:

* weight 1: the relators' exponent vectors;
* weights 2..c: commutators [r, x] of relators with generators (for
  c = 3 also [[r, x], y] and [r, [x_k, x_l]]) and products of relator
  powers whose exponent sums cancel.  Each row is projected as it is
  made; the weight-w lattice is spanned by the rows whose lower weights
  vanish after one echelon.

For u in Γ_i and v in Γ_j the image of [u, v] is 1 + [u_i, v_j] plus
terms above degree i + j, so the weight-3 commutator rows are brackets
of sparse leading parts.  For [r, x], write r = 1 + S and x = 1 + X:
then [r, x] = 1 + (xr)^-1 (SX - XS), and below degree 4 only
1 - S_1 - X of (xr)^-1 matters, so

    [r, x] = 1 + B_2 + B_3 - (S_1 + X) B_2,  B_d = S_{d-1} X - X S_{d-1}.

Only the relator products multiply whole series.  A relator's series is
built one letter at a time, and every row is a sparse ``{column: entry}``
dict from the moment it is made.  Arithmetic is exact, and the work is
bounded by an estimate of the matrix size made before any row is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceededError, InvalidInputError
from .fpgroup import Presentation
from .word import exponent_vector
from .zlinalg import FgAbelianGroup, IntMatrix, _cokernel, _kernel_basis, _row_echelon

__all__ = [
    "DEFAULT_LCS_BOUND",
    "NilpotentQuotient",
    "nilpotent_quotient",
    "lcs_layer",
    "free_layer_rank",
]

MAX_CLASS = 3
# relation rows x Lyndon columns plus relator letters x n^c; every corpus
# and test presentation needs under 3 million, which take about a second
# and a few tens of MB
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
    out: Series = {(): 1}
    base = s
    while k:
        if k & 1:
            out = _series_mul(out, base, c)
        k >>= 1
        if k:
            base = _series_mul(base, base, c)
    return out


def _word_series(letters, c: int) -> Series:
    # right-multiply by one letter at a time: 1 + X for x, and
    # 1 - X + X^2 - ... for x^-1, appending powers of X to shorter keys
    out: Series = {(): 1}
    for let in letters:
        x, sign = abs(let) - 1, 1 if let > 0 else -1
        top = 1 if let > 0 else c
        for key, v in list(out.items()):
            for _ in range(min(top, c - len(key))):
                v *= sign
                key += (x,)
                val = out.get(key, 0) + v
                if val:
                    out[key] = val
                else:
                    del out[key]
    return out


# ---------------------------------------------------------------------------
# Lyndon coordinates


def _lyndon_words(n: int, c: int):
    """Lyndon words of length 1..c over 0..n-1, in lexicographic order
    (Duval's algorithm)."""
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
    """Column of each Lyndon word of length 2..c: weight blocks in
    increasing order, words in lexicographic order within a block."""
    words = sorted((w for w in _lyndon_words(n, c) if len(w) > 1), key=len)
    return {w: j for j, w in enumerate(words)}


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


def _commutator_row(s1: Series, s2: Series, x: int, c: int, index: dict):
    """Sparse Lyndon coordinates of [s, x] = s^-1 x^-1 s x, and its
    degree-2 part B_2, from the degree-1 and degree-2 parts of s by
    [s, x] = 1 + B_2 + B_3 - (S_1 + X) B_2 (see the module docstring)."""
    gx = {(x,): 1}
    b2: Series = {}
    for key, v in _bracket_terms(s1, gx):
        b2[key] = b2.get(key, 0) + v
    terms = list(b2.items())
    if c == 3:
        terms.extend(_bracket_terms(s2, gx))
        left = dict(s1)
        left[(x,)] = left.get((x,), 0) + 1
        terms.extend((k1 + k2, -v1 * v2) for k1, v1 in left.items() for k2, v2 in b2.items())
    return _project(terms, index), b2


def free_layer_rank(n: int, w: int) -> int:
    """Rank of the weight-w lower central layer of a free group of rank n,
    by the necklace formula (1/w) * sum over d | w of mu(d) * n^(w/d).
    """
    if n < 1:
        raise InvalidInputError("generator count must be >= 1")
    if w not in (1, 2, 3):
        raise InvalidInputError(f"weight {w} unsupported (1..{MAX_CLASS})")
    mu = {1: 1, 2: -1, 3: -1}
    total = sum(mu[d] * n ** (w // d) for d in (1, 2, 3) if w % d == 0)
    return total // w


# ---------------------------------------------------------------------------
# relation lattices per weight


def _kernel_combinations(p: Presentation, series: list[Series], exponents, c: int) -> list[Series]:
    """Products of relator powers whose exponent vectors cancel.

    One product per basis element of the lattice of multiplicity vectors
    with vanishing weight-1 part; a negative power is a power of the
    inverse relator's series.
    """
    out = []
    for lam in _kernel_basis(exponents, p.generator_count):
        prod: Series = {(): 1}
        for r, s, k in zip(p.relators, series, lam):
            if k < 0:
                s, k = _word_series((~r).letters, c), -k
            if k:
                prod = _series_mul(prod, _series_pow(s, k, c), c)
        out.append(prod)
    return out


def _weight_rows(p: Presentation, c: int, exponents, index: dict) -> list[dict[int, int]]:
    """Sparse rows spanning the relation lattice of weights 2..c, in the
    concatenated Lyndon coordinates of ``index``."""
    n = p.generator_count
    series = [_word_series(r.letters, c) for r in p.relators]
    rows: list[dict[int, int]] = []
    for s, vec in zip(series, exponents):
        s1 = {(i,): v for i, v in enumerate(vec) if v}
        s2 = {k: v for k, v in s.items() if len(k) == 2} if c == 3 else {}
        for x in range(n):
            row, b2 = _commutator_row(s1, s2, x, c, index)
            rows.append(row)
            if c == 3:  # [[s, x], y] leads with [B_2, X_y]
                rows.extend(_project(_bracket_terms(b2, {(y,): 1}), index) for y in range(n))
        if c == 3:  # [s, [x_k, x_l]] leads with [s1, X_k X_l - X_l X_k]
            for k in range(n):
                for l in range(k):
                    rows.append(_project(_bracket_terms(s1, {(k, l): 1, (l, k): -1}), index))
    for prod in _kernel_combinations(p, series, exponents, c):
        rows.append(_project(prod.items(), index))
    return rows


def _layer_from_lattice(lattice_rows: list, width: int) -> tuple[FgAbelianGroup, IntMatrix]:
    """Quotient of the free weight layer (``width`` Lyndon coordinates)
    by a lattice of dense or sparse rows."""
    lattice = IntMatrix.from_rows(_row_echelon(lattice_rows, width), cols=width)
    return _cokernel(lattice), lattice


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
    rows times the Lyndon columns, plus the relator letters times n^c,
    would exceed ``bound``.
    """
    c = nilpotency_class
    if c not in (1, 2, 3):
        raise InvalidInputError(f"class-{c} quotients are unsupported (max {MAX_CLASS})")
    n = p.generator_count
    if n == 0:
        trivial = FgAbelianGroup(0)
        return NilpotentQuotient(
            c, tuple(IntMatrix(0, 0, ()) for _ in range(c)), tuple(trivial for _ in range(c))
        )
    widths = [free_layer_rank(n, w) for w in range(1, c + 1)]
    # rows per relator: its exponent vector at c = 1; otherwise n rows
    # [r, x], at c = 3 also n^2 rows [[r, x], y] and n(n-1)/2 rows
    # [r, [x_k, x_l]], and at most one relator product
    per_relator = 1 if c == 1 else 1 + n + (n * n + n * (n - 1) // 2 if c == 3 else 0)
    cost = len(p.relators) * per_relator * (sum(widths[1:]) if c > 1 else n)
    # a relator's truncated series costs about letters x n^c steps
    cost += sum(len(r) for r in p.relators) * n**c
    if cost > bound:
        raise BoundExceededError(
            f"class-{c} quotient needs about {cost} cells and steps, over the bound {bound}"
        )

    exponents = [exponent_vector(r, n) for r in p.relators]
    blocks = [exponents]
    if c >= 2:
        rows = _weight_rows(p, c, exponents, _lyndon_index(n, c))
        if c == 2:
            blocks.append(rows)
        else:  # the weight-3 lattice is the rows whose weight-2 part vanishes
            rows, w2 = _row_echelon(rows, sum(widths[1:])), widths[1]
            blocks.append([r[:w2] for r in rows])
            blocks.append([r[w2:] for r in rows if not any(r[:w2])])
    lattices, layers = [], []
    for block, width in zip(blocks, widths):
        layer, lattice = _layer_from_lattice(block, width)
        layers.append(layer)
        lattices.append(lattice)
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
