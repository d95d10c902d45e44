"""Finitely presented groups: surface braid presentation builders and
relator surgery.

One rule, ``_surface_braid``, presents the braid group of every surface
family: the closed orientable surfaces (the sphere at genus 0), the
orientable ones with one boundary component, the closed non-orientable
ones, and the disc, whose braid group is Artin's.  It takes g groups of
surface generators, (a_i, b_i) per handle or rho_i per crosscap, then
sigma_1 .. sigma_{n-1}, and emits the relators in one order: the braid
relators of the sigmas; each surface generator commuting with sigma_j for
j >= 2; c sigma_1 c sigma_1 = sigma_1^(+-1) c sigma_1 c; a_i sigma_1 b_i =
sigma_1 b_i sigma_1 a_i sigma_1 per handle; the relations between
generators of different groups; and, on a closed surface only, the
product of the group words equal to the boundary word.  So the builders
are bit-for-bit deterministic.  Each family's size is known in closed
form and checked against ``FAMILY_MAX_SIZE`` before any word is made.
The class-2 quotient presentation, of another group, has its own builder
and the same check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BoundExceededError,
    InvalidInputError,
    UnsupportedFamilyError,
    checked,
    json_field,
)
from .word import Word, reduce_word

__all__ = [
    "FamilyTag",
    "Presentation",
    "artin_presentation",
    "closed_orientable",
    "boundary_orientable",
    "nonorientable",
    "class2_quotient_presentation",
    "add_relators",
    "resolve_presentation",
]


@dataclass(frozen=True)
class FamilyTag:
    """Provenance label for a builder-produced presentation."""

    surface: str
    genus: int
    strands: int

    def to_json(self) -> dict:
        return {"surface": self.surface, "genus": self.genus, "strands": self.strands}

    @classmethod
    def from_json(cls, data: dict) -> "FamilyTag":
        checked(data, dict, "family")
        return cls(
            json_field(data, "surface", str, "family"),
            json_field(data, "genus", int, "family"),
            json_field(data, "strands", int, "family"),
        )


@dataclass(frozen=True)
class Presentation:
    """Generators, freely reduced relators, and an optional family tag."""

    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]
    family: FamilyTag | None = None

    def __post_init__(self) -> None:
        n = len(self.generator_names)
        if len(set(self.generator_names)) != n:
            raise InvalidInputError("duplicate generator names")
        for r in self.relators:
            if r.alphabet_size != n:
                raise InvalidInputError("relator alphabet does not match generator count")
            if r.is_identity():
                raise InvalidInputError("relators must be nonempty")

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)

    def word(self, letters: Sequence[int]) -> Word:
        """Freely reduced word over this presentation's alphabet."""
        return reduce_word(letters, self.generator_count)

    def generator_index(self, name: str) -> int:
        """1-based index of a named generator."""
        try:
            return self.generator_names.index(name) + 1
        except ValueError:
            raise InvalidInputError(f"unknown generator {name!r}") from None

    def to_json(self) -> dict:
        out = {
            "generators": list(self.generator_names),
            "relators": [r.to_json() for r in self.relators],
        }
        out["family"] = self.family.to_json() if self.family else None
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        checked(data, dict, "presentation")
        names = tuple(
            checked(x, str, "generator name")
            for x in json_field(data, "generators", list, "presentation")
        )
        relators = json_field(data, "relators", list, "presentation")
        rels = tuple(Word.from_json(r, len(names)) for r in relators)
        fam = data.get("family")
        return cls(names, rels, FamilyTag.from_json(fam) if fam else None)


def _relation(lhs: Sequence[int], rhs: Sequence[int], n: int) -> Word:
    """Encode the relation lhs = rhs as the relator lhs * rhs^-1."""
    return reduce_word(list(lhs) + [-x for x in reversed(rhs)], n)


# generators plus relator letters a family presentation may have; the
# largest that the corpus, the benchmark or the tests build,
# class2_quotient_presentation(3, 1155), has 2,411
FAMILY_MAX_SIZE = 10**6


def _check_family_size(family: str, generators: int, letters: int) -> None:
    """BoundExceededError when a family presentation of this many
    generators and relator letters is over FAMILY_MAX_SIZE."""
    size = generators + letters
    if size > FAMILY_MAX_SIZE:
        raise BoundExceededError(
            f"{family} presentation needs {size} generators and relator letters,"
            f" over the bound {FAMILY_MAX_SIZE}"
        )


def _surface_braid_size(g: int, n: int, handle: bool, closed: bool) -> tuple[int, int, int]:
    """Generators, relators and relator letters of ``_surface_braid``'s
    presentation, counted from its loops in closed form."""
    k = 2 if handle else 1
    m = max(n - 2, 0)
    # (relators, letters each): commuting and braid sigma relators, then
    # steps 2-5 of the rule
    counts = [(m * (m - 1) // 2, 4), (m, 6)]
    if n >= 2:
        counts += [(k * g * m, 4), (k * g, 8), (g if handle else 0, 8)]
        counts.append((k * k * g * (g - 1) // 2, 8))
    surface = 2 * k * g + 2 * (n - 1) if closed else 0
    return (
        k * g + n - 1,
        sum(c for c, _ in counts) + (surface > 0),
        sum(c * w for c, w in counts) + surface,
    )


def _surface_braid(family: str, g: int, n: int, handle: bool, closed: bool) -> Presentation:
    """Braid group on n strands of a surface with g handles (``handle``) or
    g crosscaps, closed or with one boundary component.

    Each handle gives the generators a_i, b_i and each crosscap rho_i,
    followed by sigma_1 .. sigma_{n-1}.  Write c for any surface
    generator; the relators come in this order:

    1. sigma_i sigma_j = sigma_j sigma_i for j >= i + 2, then
       sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1};
    2. c sigma_j = sigma_j c for j >= 2;
    3. c sigma_1 c sigma_1 = sigma_1^e c sigma_1 c, with e = 1 on a handle
       and e = -1 on a crosscap;
    4. a_i sigma_1 b_i = sigma_1 b_i sigma_1 a_i sigma_1, on a handle;
    5. c_i sigma_1^-1 c_j sigma_1 = sigma_1^-1 c_j sigma_1 c_i for c_i of
       the i-th group and c_j of an earlier one;
    6. on a closed surface only, the product of the group words
       [a_i^-1, b_i] or rho_i^-2 equals the boundary word
       sigma_1 .. sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} .. sigma_1, kept
       when the relator is nonempty.

    Steps 2-5 need n >= 2 (Bellingeri, J. Algebra 274, 2004).  The disc,
    g = 0 with a boundary, gives Artin's braid group.  The size is checked
    against FAMILY_MAX_SIZE, in closed form, before any name or word is
    made.
    """
    generators, _, letters = _surface_braid_size(g, n, handle, closed)
    _check_family_size(family, generators, letters)
    k = 2 if handle else 1
    if handle:
        names = [f"{x}{i}" for i in range(1, g + 1) for x in "ab"]
    else:
        names = [f"rho{i}" for i in range(1, g + 1)]
    names += [f"sigma{j}" for j in range(1, n)]
    size = len(names)
    groups = [range(k * i + 1, k * i + k + 1) for i in range(g)]
    sigma = lambda j: k * g + j

    rels = [
        _relation([sigma(i), sigma(j)], [sigma(j), sigma(i)], size)
        for i in range(1, n) for j in range(i + 2, n)
    ]
    rels += [
        _relation([sigma(i), sigma(i + 1), sigma(i)], [sigma(i + 1), sigma(i), sigma(i + 1)], size)
        for i in range(1, n - 1)
    ]
    if n >= 2:
        s1 = sigma(1)
        e = s1 if handle else -s1
        rels += [
            _relation([c, sigma(j)], [sigma(j), c], size)
            for grp in groups for c in grp for j in range(2, n)
        ]
        rels += [_relation([c, s1, c, s1], [e, c, s1, c], size) for grp in groups for c in grp]
        if handle:
            rels += [_relation([a, s1, b], [s1, b, s1, a, s1], size) for a, b in groups]
        rels += [
            _relation([ci, -s1, cj, s1], [-s1, cj, s1, ci], size)
            for i, gi in enumerate(groups) for gj in groups[:i] for ci in gi for cj in gj
        ]
    if closed:
        lhs = []
        for grp in groups:
            lhs += [grp[0], -grp[1], -grp[0], grp[1]] if handle else [-grp[0], -grp[0]]
        up = [sigma(j) for j in range(1, n - 1)]
        boundary = up + [sigma(n - 1)] * 2 + up[::-1] if n >= 2 else []
        surface = _relation(lhs, boundary, size)
        if not surface.is_identity():
            rels.append(surface)
    return Presentation(tuple(names), tuple(rels), FamilyTag(family, g, n))


def artin_presentation(n: int) -> Presentation:
    """Braid group on n strands: sigma generators, braid and commuting
    relations; the disc's braid group.

    >>> artin_presentation(2).generator_count
    1
    """
    if n < 1:
        raise InvalidInputError("strand count must be >= 1")
    return _surface_braid("artin", 0, n, True, False)


def closed_orientable(g: int, n: int) -> Presentation:
    """Braid group of the closed orientable genus-g surface on n strands.

    g = 0 gives the sphere: braid relations plus the relation making the
    boundary word trivial.
    """
    if g < 0:
        raise InvalidInputError("genus must be >= 0")
    if n < 1:
        raise InvalidInputError("strand count must be >= 1")
    return _surface_braid("closed-orientable", g, n, True, True)


def boundary_orientable(g: int, n: int, boundary_components: int = 1) -> Presentation:
    """Braid group of the genus-g surface with one boundary component.

    The closed-surface relators without the surface relator.  Only one
    boundary component is supported.
    """
    if boundary_components != 1:
        raise UnsupportedFamilyError(
            "only one boundary component is supported (got"
            f" {boundary_components})"
        )
    if g < 1:
        raise InvalidInputError("genus must be >= 1 for the boundary family")
    if n < 1:
        raise InvalidInputError("strand count must be >= 1")
    return _surface_braid("boundary-orientable", g, n, True, False)


def nonorientable(g: int, n: int) -> Presentation:
    """Braid group of the closed non-orientable genus-g surface on n strands."""
    if g < 1:
        raise InvalidInputError("genus must be >= 1")
    if n < 1:
        raise InvalidInputError("strand count must be >= 1")
    return _surface_braid("nonorientable", g, n, False, True)


def class2_quotient_presentation(g: int, n: int) -> Presentation:
    """The class-2 nilpotent quotient of the closed orientable braid group,
    for n >= 3: generators a_i, b_i and a single sigma with
    sigma^(2(n-1+g)) = 1, all pairs commuting except (a_i, b_i), and
    [a_i, b_i] = sigma^2.
    """
    if g < 1:
        raise InvalidInputError("genus must be >= 1")
    if n < 3:
        raise InvalidInputError("the class-2 quotient presentation needs n >= 3")
    generators, _, letters = _class2_size(g, n)
    _check_family_size("class2-quotient", generators, letters)
    return _central_sigma_presentation(g, 2 * (n - 1 + g), FamilyTag("class2-quotient", g, n))


def _class2_size(g: int, n: int) -> tuple[int, int, int]:
    """Generators, relators and relator letters of
    ``class2_quotient_presentation(g, n)``: sigma^(2(n-1+g)), the commuting
    pairs and the g relators [a_i, b_i] sigma^-2."""
    pairs = (2 * g + 1) * g - g
    return 2 * g + 1, 1 + pairs + g, 2 * (n - 1 + g) + 4 * pairs + 6 * g


def _central_sigma_presentation(g: int, sigma_power: int, family: FamilyTag | None) -> Presentation:
    """Generators a_i, b_i, sigma with sigma^k central, sigma^k = 1 and
    [a_i, b_i] = sigma^2; shared by the class-2 quotient builder and tests."""
    names = []
    for i in range(1, g + 1):
        names += [f"a{i}", f"b{i}"]
    names.append("sigma")
    size = len(names)
    a = lambda i: 2 * i - 1
    b = lambda i: 2 * i
    s = size

    rels = [reduce_word([s] * sigma_power, size)]
    # commuting pairs in generator order, skipping (a_i, b_i)
    for x in range(1, size + 1):
        for y in range(x + 1, size + 1):
            if y == x + 1 and x % 2 == 1 and y <= 2 * g:
                continue  # (a_i, b_i)
            rels.append(_relation([x, y], [y, x], size))
    for i in range(1, g + 1):
        rels.append(reduce_word([-a(i), -b(i), a(i), b(i), -s, -s], size))
    return Presentation(tuple(names), tuple(rels), family)


def add_relators(presentation: Presentation, extra: Iterable[Word]) -> Presentation:
    """Append relators to a presentation (forming the quotient group).

    Words are reduced and empty words dropped; the family tag is cleared
    since the result no longer belongs to a builder family.
    """
    n = presentation.generator_count
    new = list(presentation.relators)
    for w in extra:
        if w.alphabet_size != n:
            raise InvalidInputError("extra relator over a different alphabet")
        if not w.is_identity():
            new.append(w)
    return Presentation(presentation.generator_names, tuple(new), None)


# surface family name -> builder of (genus, strands); each entry looks the
# builder up when called, so a wrapper set on this module is the one called
_FAMILIES = {
    "closed-orientable": lambda g, n: closed_orientable(g, n),
    "boundary-orientable": lambda g, n: boundary_orientable(g, n),
    "nonorientable": lambda g, n: nonorientable(g, n),
    "artin": lambda g, n: artin_presentation(n),
    "class2-quotient": lambda g, n: class2_quotient_presentation(g, n),
}


def resolve_presentation(spec: dict) -> Presentation:
    """Build a presentation from a family spec or inline JSON."""
    checked(spec, dict, "presentation spec")
    if "presentation" in spec:
        return Presentation.from_json(spec["presentation"])
    surface = json_field(spec, "surface", str, "presentation spec", None)
    if surface not in _FAMILIES:
        raise InvalidInputError(
            f"unknown surface family {surface!r}; choose from {sorted(_FAMILIES)}"
        )
    genus = json_field(spec, "genus", int, "presentation spec", 0)
    strands = json_field(spec, "strands", int, "presentation spec", 1)
    return _FAMILIES[surface](genus, strands)
