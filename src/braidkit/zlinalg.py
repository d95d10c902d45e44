"""Exact integer linear algebra: Smith normal form, abelianisations,
finitely generated abelian groups, and surjection tests between them.

There is one Smith path: ``smith_normal_form`` reduces a copy of the
matrix in place and keeps only its diagonal, and ``_cokernel`` turns a
relation matrix into its ``FgAbelianGroup``, for abelianisations and
lower central layers alike.  Everything is arbitrary-precision;
intermediate entries of a Smith reduction can grow far beyond machine
integers even for small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInputError, checked, json_field
from .fpgroup import Presentation
from .word import exponent_vector

__all__ = [
    "IntMatrix",
    "SmithNormalForm",
    "smith_normal_form",
    "FgAbelianGroup",
    "abelianization",
    "admits_epimorphism",
    "min_generators_lower_bound",
]


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
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise InvalidInputError("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), cols, flat)

    def row_list(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]


@dataclass(frozen=True)
class SmithNormalForm:
    """Result of a Smith reduction: the min(rows, cols) diagonal entries
    d_1 | d_2 | ... (non-negative, zeros last), the rank (the nonzero
    count), and the nontrivial factors (the entries greater than 1)."""

    diagonal: tuple[int, ...]
    rank: int
    factors: tuple[int, ...]


def _smith(a: list[list[int]]) -> list[int]:
    """Smith reduction of ``a`` in place; returns its diagonal."""
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
            # smallest nonzero |entry| in the trailing block, row-major scan;
            # nothing beats the first unit, so the scan stops there
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
            # one reduction pass against this fixed pivot; remainders are
            # strictly smaller than the pivot, so re-selecting afterwards
            # makes the pivot shrink geometrically (and keeps intermediate
            # entries polynomial in the input, unlike swapping mid-pass)
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
            # enforce divisibility of the trailing block by the pivot: fold
            # an offending row into row t and keep reducing (a unit divides all)
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


def smith_normal_form(matrix: IntMatrix) -> SmithNormalForm:
    """Smith normal form of an integer matrix.

    The diagonal satisfies d_1 | d_2 | ... with non-negative entries;
    ``factors`` lists the diagonal entries greater than 1.

    >>> snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> snf.diagonal, snf.rank, snf.factors
    ((1, 6), 2, (6,))
    """
    diag = tuple(_smith(matrix.row_list()))
    nonzero = [x for x in diag if x]
    return SmithNormalForm(diag, len(nonzero), tuple(x for x in nonzero if x > 1))


def _row_echelon(
    rows: Iterable[Sequence[int] | dict[int, int]], ncols: int
) -> list[list[int]]:
    """Integer staircase form of the row lattice (row operations only).

    The returned rows are dense lists that span the same lattice as the
    input and have strictly increasing pivot columns.  Input rows are
    dense sequences or sparse ``{column: entry}`` dicts, and are kept
    sparse in buckets by leading column, tagged with their input position.
    A column's bucket, in input order, is sorted by absolute leading entry
    and reduced by its first row until one row leads there: the pivot.
    Reduced rows move to the bucket of their new leading column, and zero
    rows are dropped, so the output depends on the input order alone.
    """
    buckets: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for pos, r in enumerate(rows):
        items = r.items() if isinstance(r, dict) else enumerate(r)
        row = {j: x for j, x in items if x}
        if row:
            buckets.setdefault(min(row), []).append((pos, row))
    out: list[list[int]] = []
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
        sign = -1 if pivot[col] < 0 else 1
        dense = [0] * ncols
        for j, x in pivot.items():
            dense[j] = sign * x
        out.append(dense)
    return out


def _kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the left kernel {x : x * M = 0} of the matrix with the given rows."""
    m = len(rows)
    aug = [list(rows[i]) + [int(j == i) for j in range(m)] for i in range(m)]
    ech = _row_echelon(aug, ncols + m)
    return [r[ncols:] for r in ech if not any(r[:ncols])]


def _solve_in_lattice(basis: list[list[int]], vector: Sequence[int]) -> list[int]:
    """Coordinates of ``vector`` in an echelonised lattice basis.

    The basis must come from ``_row_echelon`` and the vector must lie in the
    lattice it spans; both are internal invariants here.
    """
    ncols = len(vector)
    pivots = []
    for r in basis:
        for j, x in enumerate(r):
            if x:
                pivots.append(j)
                break
    v = list(vector)
    coords = [0] * len(basis)
    for idx, r in enumerate(basis):
        pj = pivots[idx]
        if v[pj]:
            if v[pj] % r[pj]:
                raise ArithmeticError("vector is not in the lattice")
            q = v[pj] // r[pj]
            coords[idx] = q
            for j in range(ncols):
                v[j] -= q * r[j]
    if any(v):
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
        mods = [abs(m) for m in moduli]
        free = free_rank + sum(1 for m in mods if m == 0)
        tors = [m for m in mods if m > 1]
        if not tors:
            return cls(free, ())
        diag = [[tors[i] if i == j else 0 for j in range(len(tors))] for i in range(len(tors))]
        snf = smith_normal_form(IntMatrix.from_rows(diag))
        return cls(free, snf.factors)

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


def _cokernel(matrix: IntMatrix) -> FgAbelianGroup:
    """Isomorphism type of Z^cols / (lattice spanned by the rows)."""
    snf = smith_normal_form(matrix)
    return FgAbelianGroup(matrix.cols - snf.rank, snf.factors)


def relator_matrix(presentation: Presentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    n = len(presentation.generator_names)
    rows = [list(exponent_vector(r, n)) for r in presentation.relators]
    return IntMatrix.from_rows(rows, cols=n)


def abelianization(presentation: Presentation) -> FgAbelianGroup:
    """Abelianisation of a finitely presented group.

    >>> from .fpgroup import artin_presentation
    >>> str(abelianization(artin_presentation(5)))
    'Z'
    """
    return _cokernel(relator_matrix(presentation))


def _padded_factor_list(g: FgAbelianGroup) -> list[int]:
    # largest-first, with 0 (= Z) entries for the free part
    return [0] * g.free_rank + list(reversed(g.invariant_factors))


def admits_epimorphism(a: FgAbelianGroup, b: FgAbelianGroup) -> bool:
    """Whether a surjective homomorphism a -> b exists.

    Criterion: align both factor lists largest-first (free summands first,
    as 0); b's list must be no longer than a's and divide it position by
    position, where every x divides 0 and 0 divides only 0.
    """
    fa = _padded_factor_list(a)
    fb = _padded_factor_list(b)
    if len(fb) > len(fa):
        return False
    for x, y in zip(fa, fb):
        # need y | x in the cyclic-group sense: Z_x surjects onto Z_y
        if x == 0:
            continue
        if y == 0 or x % y:
            return False
    return True


def min_generators_lower_bound(presentation: Presentation) -> int:
    """Lower bound for the minimal number of generators, via the abelianisation."""
    ab = abelianization(presentation)
    return ab.free_rank + len(ab.invariant_factors)
