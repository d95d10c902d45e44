"""Finitely presented groups: surface braid presentation builders and
relator surgery.

Generator order is fixed per family (a_1, b_1, ..., a_g, b_g, sigma_1, ...
for orientable surfaces; rho_1, ..., rho_g, sigma_1, ... for
non-orientable ones) and relators are emitted in the order the defining
relations are customarily listed, so that builders are bit-for-bit
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInputError, UnsupportedFamilyError, checked, json_field
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


def _braid_relators(sigma, n_strands: int, n: int) -> list[Word]:
    """Commuting and braid relations among sigma_1 .. sigma_{n_strands-1}."""
    rels = []
    for i in range(1, n_strands):
        for j in range(i + 2, n_strands):
            rels.append(_relation([sigma(i), sigma(j)], [sigma(j), sigma(i)], n))
    for i in range(1, n_strands - 1):
        rels.append(
            _relation(
                [sigma(i), sigma(i + 1), sigma(i)],
                [sigma(i + 1), sigma(i), sigma(i + 1)],
                n,
            )
        )
    return rels


def _boundary_word(sigma, n_strands: int) -> list[int]:
    """sigma_1 ... sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} ... sigma_1."""
    if n_strands < 2:
        return []
    up = [sigma(i) for i in range(1, n_strands - 1)]
    return up + [sigma(n_strands - 1)] * 2 + list(reversed(up))


def artin_presentation(n: int) -> Presentation:
    """Braid group on n strands: sigma generators, braid and commuting relations.

    >>> artin_presentation(2).generator_count
    1
    """
    if n < 1:
        raise InvalidInputError("strand count must be >= 1")
    names = tuple(f"sigma{i}" for i in range(1, n))
    size = len(names)
    sigma = lambda i: i
    rels = _braid_relators(sigma, n, size)
    return Presentation(names, tuple(rels), FamilyTag("artin", 0, n))


def closed_orientable(g: int, n: int) -> Presentation:
    """Braid group of the closed orientable genus-g surface on n strands.

    g = 0 gives the sphere: braid relations plus the relation making the
    boundary word trivial.
    """
    if g < 0:
        raise InvalidInputError("genus must be >= 0")
    if n < 1:
        raise InvalidInputError("strand count must be >= 1")
    names = []
    for i in range(1, g + 1):
        names += [f"a{i}", f"b{i}"]
    names += [f"sigma{i}" for i in range(1, n)]
    size = len(names)
    a = lambda i: 2 * i - 1
    b = lambda i: 2 * i
    sigma = lambda i: 2 * g + i

    rels = _braid_relators(sigma, n, size)
    if n >= 2:
        s1 = sigma(1)
        for i in range(1, g + 1):
            for c in (a(i), b(i)):
                for j in range(2, n):
                    rels.append(_relation([c, sigma(j)], [sigma(j), c], size))
        for i in range(1, g + 1):
            for c in (a(i), b(i)):
                rels.append(_relation([c, s1, c, s1], [s1, c, s1, c], size))
        for i in range(1, g + 1):
            rels.append(_relation([a(i), s1, b(i)], [s1, b(i), s1, a(i), s1], size))
        for i in range(2, g + 1):
            for j in range(1, i):
                for ci in (a(i), b(i)):
                    for cj in (a(j), b(j)):
                        rels.append(
                            _relation([ci, -s1, cj, s1], [-s1, cj, s1, ci], size)
                        )
    lhs: list[int] = []
    for i in range(1, g + 1):
        lhs += [a(i), -b(i), -a(i), b(i)]  # [a_i^-1, b_i]
    surface = _relation(lhs, _boundary_word(sigma, n), size)
    if not surface.is_identity():
        rels.append(surface)
    return Presentation(tuple(names), tuple(rels), FamilyTag("closed-orientable", g, n))


def boundary_orientable(g: int, n: int, boundary_components: int = 1) -> Presentation:
    """Braid group of the genus-g surface with one boundary component.

    Identical to the closed-surface presentation with the final surface
    relator removed.  Only one boundary component is supported.
    """
    if boundary_components != 1:
        raise UnsupportedFamilyError(
            "only one boundary component is supported (got"
            f" {boundary_components})"
        )
    if g < 1:
        raise InvalidInputError("genus must be >= 1 for the boundary family")
    closed = closed_orientable(g, n)
    # the surface relator is the last one whenever it is nonempty, which
    # holds for every g >= 1
    rels = closed.relators[:-1]
    return Presentation(
        closed.generator_names, rels, FamilyTag("boundary-orientable", g, n)
    )


def nonorientable(g: int, n: int) -> Presentation:
    """Braid group of the closed non-orientable genus-g surface on n strands."""
    if g < 1:
        raise InvalidInputError("genus must be >= 1")
    if n < 1:
        raise InvalidInputError("strand count must be >= 1")
    names = [f"rho{i}" for i in range(1, g + 1)] + [f"sigma{i}" for i in range(1, n)]
    size = len(names)
    rho = lambda i: i
    sigma = lambda i: g + i

    rels = _braid_relators(sigma, n, size)
    if n >= 2:
        s1 = sigma(1)
        for i in range(1, g + 1):
            for j in range(2, n):
                rels.append(_relation([rho(i), sigma(j)], [sigma(j), rho(i)], size))
        for i in range(1, g + 1):
            rels.append(
                _relation([rho(i), s1, rho(i), s1], [-s1, rho(i), s1, rho(i)], size)
            )
        for r in range(2, g + 1):
            for s in range(1, r):
                rels.append(
                    _relation([rho(r), -s1, rho(s), s1], [-s1, rho(s), s1, rho(r)], size)
                )
    lhs = []
    for i in range(1, g + 1):
        lhs += [-rho(i), -rho(i)]
    twist = _relation(lhs, _boundary_word(sigma, n), size)
    if not twist.is_identity():
        rels.append(twist)
    return Presentation(tuple(names), tuple(rels), FamilyTag("nonorientable", g, n))


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
    return _central_sigma_presentation(g, 2 * (n - 1 + g), FamilyTag("class2-quotient", g, n))


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
