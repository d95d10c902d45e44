"""Exact integer linear algebra: Smith normal form, abelianisations,
finitely generated abelian groups, and surjection tests between them.

There is one elimination kernel: ``_row_echelon`` brings sparse or dense
rows to integer staircase form, for relation lattices and kernels alike,
and returns its pivot rows sparse, as ``{column: entry}`` dicts.
``_smith_diagonal`` alternates it with a sparse transposition until the
rows are diagonal, and ``smith_normal_form`` starts that from a matrix's
columns.  ``_staircase_cokernel`` reads the ``FgAbelianGroup`` cut out
by echelon rows, for lower central layers and abelianisations alike
(the echelon of the relators' exponent vectors): the rows with pivot 1
split off trivial summands, and only the others go on to
``_smith_diagonal``.
Everything is arbitrary-precision; intermediate entries of an
elimination can grow far beyond machine integers even for small
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import BoundExceededError, InvalidInputError, checked, json_field
from .fpgroup import Presentation
from .word import _exponent_sums

__all__ = [
    "IntMatrix",
    "SmithNormalForm",
    "smith_normal_form",
    "FgAbelianGroup",
    "abelianization",
    "admits_epimorphism",
    "min_generators_lower_bound",
]

# relators x generators of the exponent vectors an abelianisation reads,
# checked before any vector is built; the corpus's largest has 460 cells
RELATOR_MATRIX_MAX_CELLS = 10**7


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InvalidInputError("matrix dimensions must be non-negative")
        if self.rows * self.cols != len(self.entries):
            raise InvalidInputError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InvalidInputError("ragged rows")
            if cols is not None and cols != width:
                raise InvalidInputError(f"rows have {width} columns, not {cols}")
            cols = width
        elif cols is None:
            cols = 0
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), cols, flat)


@dataclass(frozen=True)
class SmithNormalForm:
    """Result of a Smith reduction: the min(rows, cols) diagonal entries
    d_1 | d_2 | ... (non-negative, zeros last), the rank (the nonzero
    count), and the nontrivial factors (the entries greater than 1)."""

    diagonal: tuple[int, ...]
    rank: int
    factors: tuple[int, ...]


def _invariant_chain(entries: Iterable[int]) -> list[int]:
    """Canonical diagonal of a diagonal matrix: absolute values, each
    dividing the next, zeros last.  Z/x + Z/y = Z/gcd + Z/lcm, so each pair
    (x, y) becomes (gcd, lcm); the pass at i leaves there the gcd of the
    entries from i on.  Units and zeros (Z summands) stay out of it."""
    values = [abs(x) for x in entries]
    chain = [x for x in values if x > 1]
    for i in range(len(chain)):
        x = chain[i]
        for j in range(i + 1, len(chain)):
            y = chain[j]
            if y % x:
                g = gcd(x, y)
                chain[j] = x // g * y
                x = g
        chain[i] = x
    return [1] * values.count(1) + chain + [0] * values.count(0)


def smith_normal_form(matrix: IntMatrix) -> SmithNormalForm:
    """Smith normal form of an integer matrix, by ``_row_echelon`` alone.

    The diagonal satisfies d_1 | d_2 | ... with non-negative entries,
    zeros last; ``factors`` lists the diagonal entries greater than 1.

    The columns are echelonised (column operations), then
    ``_smith_diagonal`` echelonises the rows of the result, and so on,
    until every echelon row holds one nonzero entry; ``_invariant_chain``
    orders that diagonal (Cohen, *A Course in
    Computational Algebraic Number Theory*, GTM 138, 1993, section 2.4).

    The alternation ends.  Each pass's first pivot that is not yet final
    is the gcd of the first row (or column) left by the pass before,
    which holds that pass's pivot q, so it divides q.  Either it is
    smaller, at most bit_length(q) times, or it is q: the previous pass
    cleared q's column and this one clears its row, so q is final, and
    later passes keep it first and leave it alone.

    >>> snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> snf.diagonal, snf.rank, snf.factors
    ((1, 6), 2, (6,))
    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    # dense column slices; the echelon keeps only their nonzero entries
    vectors = [matrix.entries[j :: matrix.cols] for j in range(matrix.cols)]
    echelon = _row_echelon(vectors, matrix.rows)
    diag = _invariant_chain(_smith_diagonal(echelon))
    diag += [0] * (min(matrix.rows, matrix.cols) - len(diag))
    return SmithNormalForm(tuple(diag), len(echelon), tuple(x for x in diag if x > 1))


def _smith_diagonal(echelon: list[dict[int, int]]) -> list[int]:
    """Diagonal entries, positive and in no set order, that
    ``_row_echelon`` rows reach by the Smith alternation: transpose
    sparsely, echelonise, and repeat until every row holds one nonzero
    entry.  Row and column operations alone, keeping the row count, so
    the rows' cokernel in Z^width is Z^(width - len(echelon)) plus Z/d
    for each returned d."""
    while not all(len(r) == 1 for r in echelon):
        # the nonzero columns, in order, become the vectors
        columns: dict[int, dict[int, int]] = {}
        for i, r in enumerate(echelon):
            for j, x in r.items():
                columns.setdefault(j, {})[i] = x
        echelon = _row_echelon([columns[j] for j in sorted(columns)], len(echelon))
    return [x for r in echelon for x in r.values()]


def _row_echelon(
    rows: Iterable[Sequence[int] | dict[int, int]], ncols: int
) -> list[dict[int, int]]:
    """Integer staircase form of the row lattice (row operations only).

    The returned rows are sparse ``{column: entry}`` dicts, holding no
    zeros, that span the same lattice as the input and have strictly
    increasing pivot (smallest) columns, each pivot positive.  Input rows
    are dense sequences or sparse dicts, and are kept sparse in buckets by
    leading column, tagged with their input position.  A column's bucket,
    in input order, is sorted by absolute leading entry and reduced by its
    first row until one row leads there: the pivot.  Reduced rows move to
    the bucket of their new leading column, and zero rows are dropped, so
    the output depends on the input order alone.  A row that leads at or
    past ``ncols``, as given or once reduced, raises ValueError.
    """
    buckets: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for pos, r in enumerate(rows):
        items = r.items() if isinstance(r, dict) else enumerate(r)
        row = {j: x for j, x in items if x}
        if row:
            buckets.setdefault(min(row), []).append((pos, row))
    out: list[dict[int, int]] = []
    for col in range(ncols):
        active = buckets.pop(col, None)
        if active is None:
            continue
        active.sort()  # by input position, which is unique
        while len(active) > 1:
            active.sort(key=lambda t: abs(t[1][col]))
            pivot = active[0][1]
            kept = [active[0]]
            for pos, r in active[1:]:
                q = r[col] // pivot[col]
                for j, x in pivot.items():
                    y = r.get(j, 0) - q * x
                    if y:
                        r[j] = y
                    else:
                        del r[j]
                if col in r:
                    kept.append((pos, r))
                elif r:
                    buckets.setdefault(min(r), []).append((pos, r))
            active = kept
        pivot = active[0][1]
        out.append({j: -x for j, x in pivot.items()} if pivot[col] < 0 else pivot)
    if buckets:
        raise ValueError(f"a row leads at column {min(buckets)}, past the {ncols} columns")
    return out


def _kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the left kernel {x : x * M = 0} of the matrix with the given
    rows, from the echelon of the rows with an identity block appended.
    No library path calls it: ``nilq.nilpotent_quotient`` reads the same
    kernel off its one echelon of the exponent vectors, and the tests use
    this as its oracle."""
    m = len(rows)
    aug = [{**dict(enumerate(row)), ncols + i: 1} for i, row in enumerate(rows)]
    ech = _row_echelon(aug, ncols + m)
    return [[r.get(ncols + i, 0) for i in range(m)] for r in ech if min(r) >= ncols]


def _solve_in_lattice(basis: list[dict[int, int]], vector: Sequence[int]) -> list[int]:
    """Coordinates of ``vector`` in an echelonised lattice basis.

    The basis must come from ``_row_echelon`` and the vector must lie in the
    lattice it spans; both are internal invariants here.
    """
    v = {j: x for j, x in enumerate(vector) if x}
    coords = [0] * len(basis)
    for idx, r in enumerate(basis):
        pj = min(r)
        if v.get(pj, 0):
            if v[pj] % r[pj]:
                raise ArithmeticError("vector is not in the lattice")
            q = coords[idx] = v[pj] // r[pj]
            for j, x in r.items():
                v[j] = v.get(j, 0) - q * x
    if any(v.values()):
        raise ArithmeticError("vector is not in the lattice")
    return coords


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_k in
    invariant-factor form: every d_i >= 2 and d_1 | d_2 | ... | d_k.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise InvalidInputError("negative free rank")
        for d in self.invariant_factors:
            if d < 2:
                raise InvalidInputError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise InvalidInputError("invariant factors must form a divisibility chain")

    @classmethod
    def from_moduli(cls, moduli: Iterable[int], free_rank: int = 0) -> "FgAbelianGroup":
        """Canonicalise an arbitrary direct sum of cyclic groups.

        ``0`` moduli count as Z summands.

        >>> FgAbelianGroup.from_moduli([2, 3])
        FgAbelianGroup(free_rank=0, invariant_factors=(6,))
        """
        chain = _invariant_chain(moduli)
        return cls(free_rank + chain.count(0), tuple(x for x in chain if x > 1))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int | None:
        """Group order, or None if infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, data: dict) -> "FgAbelianGroup":
        checked(data, dict, "abelian group")
        torsion = json_field(data, "torsion", list, "abelian group", [])
        return cls(
            json_field(data, "free_rank", int, "abelian group"),
            tuple(checked(d, int, "torsion entry") for d in torsion),
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "trivial"


def _staircase_cokernel(rows: list[dict[int, int]], width: int) -> FgAbelianGroup:
    """Isomorphism type of Z^width / (lattice of the ``_row_echelon`` rows).

    The rows are independent, so the free rank is width - len(rows).  A
    row whose pivot is 1 splits off a trivial summand: once the other rows
    are cleared at its pivot column, column operations turn it into a unit
    vector that no other row meets (Havas, Holt & Rees, "Recognizing badly
    presented Z-modules", *Linear Algebra Appl.* 192, 1993).  So only the
    rows with a larger pivot, each cleared at the unit pivot columns, go on
    to ``_smith_diagonal``.  Clearing adds unit rows, which lead past the
    row's own pivot, so the cleared rows are still a staircase; when every
    pivot is 1 there are none, and the torsion is trivial.
    """
    units: list[tuple[int, dict[int, int]]] = []
    rest: list[dict[int, int]] = []
    for r in rows:
        p = min(r)
        if r[p] == 1:
            units.append((p, r))
        else:
            rest.append(dict(r))
    for r in rest:
        for p, u in units:  # in pivot order, so a cleared column stays clear
            q = r.get(p)
            if q:
                for j, x in u.items():
                    y = r.get(j, 0) - q * x
                    if y:
                        r[j] = y
                    else:
                        del r[j]
    return FgAbelianGroup.from_moduli(_smith_diagonal(rest) if rest else (), width - len(rows))


def abelianization(presentation: Presentation) -> FgAbelianGroup:
    """Abelianisation of a finitely presented group: the cokernel of the
    relators' exponent vectors, read off their echelon's staircase.

    Raises BoundExceededError, before any vector is built, when the
    relators times the generators exceed ``RELATOR_MATRIX_MAX_CELLS``.

    >>> from .fpgroup import artin_presentation
    >>> str(abelianization(artin_presentation(5)))
    'Z'
    """
    n = presentation.generator_count
    cells = len(presentation.relators) * n
    if cells > RELATOR_MATRIX_MAX_CELLS:
        raise BoundExceededError(
            f"relator matrix needs {cells} cells ({len(presentation.relators)} relators × "
            f"{n} generators), over the bound {RELATOR_MATRIX_MAX_CELLS}"
        )
    rows = [_exponent_sums(r) for r in presentation.relators]
    return _staircase_cokernel(_row_echelon(rows, n), n)


def admits_epimorphism(a: FgAbelianGroup, b: FgAbelianGroup) -> bool:
    """Whether a surjective homomorphism a -> b exists.

    Criterion: align both factor lists largest-first (free summands first,
    as 0); b's list must be no longer than a's and divide it position by
    position, where every x divides 0 and 0 divides only 0.  The free
    ranks are compared as numbers, never spelled out as lists: b's may not
    exceed a's, and from position a.free_rank on b's torsion, largest
    first, must divide a's.
    """
    if b.free_rank > a.free_rank:
        return False
    ta = a.invariant_factors[::-1]
    # b's torsion entries that meet a's free summands are met by Z, which
    # surjects onto anything cyclic
    tb = b.invariant_factors[::-1][a.free_rank - b.free_rank :]
    return len(tb) <= len(ta) and all(x % y == 0 for x, y in zip(ta, tb))


def min_generators_lower_bound(presentation: Presentation) -> int:
    """Lower bound for the minimal number of generators, via the abelianisation."""
    ab = abelianization(presentation)
    return ab.free_rank + len(ab.invariant_factors)
