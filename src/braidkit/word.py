"""Free-group words over a signed integer alphabet.

A word is a sequence of nonzero integers: ``i`` (1-based) stands for the
i-th generator, ``-i`` for its inverse.  Words are kept freely reduced, so
equality of words is equality in the free group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InvalidInputError, checked

__all__ = [
    "Word",
    "reduce_word",
    "generator",
    "commutator",
    "exponent_vector",
]


@dataclass(frozen=True)
class Word:
    """A freely reduced word.

    ``letters`` holds signed 1-based generator indices; ``alphabet_size``
    is the number of generators in scope.
    """

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        for let in self.letters:
            if let == 0 or abs(let) > self.alphabet_size:
                raise InvalidInputError(
                    f"letter {let} outside alphabet of size {self.alphabet_size}"
                )
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise InvalidInputError("word is not freely reduced; use reduce_word")

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """The word's maximal runs g^k as (0-based generator index g,
        signed exponent k) pairs, computed once per word.

        A word is the identity exactly when its cyclic rotations are, so
        a run split across the word's ends, as in x·y·x, is taken whole
        (x²·y).

        >>> reduce_word([2, 1, 1, -2, -2, 1, 2], 2).runs
        ((1, 2), (0, 2), (1, -2), (0, 1))
        """
        runs = []
        prev = count = 0  # the current run's letter and length; no letter is 0
        for let in self.letters:
            if let == prev:
                count += 1
                continue
            if count:
                runs.append((abs(prev) - 1, count if prev > 0 else -count))
            prev, count = let, 1
        if not count:
            return ()
        g, k = abs(prev) - 1, count if prev > 0 else -count
        if runs and self.letters[0] == prev:  # the last run wraps round onto the first
            runs[0] = (g, runs[0][1] + k)
        else:
            runs.append((g, k))
        return tuple(runs)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet_size != other.alphabet_size:
            raise InvalidInputError("cannot multiply words over different alphabets")
        return reduce_word(self.letters + other.letters, self.alphabet_size)

    def __invert__(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)), self.alphabet_size)

    def is_identity(self) -> bool:
        return not self.letters

    def to_json(self) -> list[int]:
        return list(self.letters)

    @classmethod
    def from_json(cls, data: list[int], alphabet_size: int) -> "Word":
        for let in checked(data, list, "word"):
            checked(let, int, "word letter")
        return reduce_word(data, alphabet_size)


def reduce_word(letters: Iterable[int], alphabet_size: int) -> Word:
    """Freely reduce a raw signed sequence.

    >>> reduce_word([1, -1], 2).letters
    ()
    >>> reduce_word([1, 2, -2, 1], 2).letters
    (1, 1)
    """
    stack: list[int] = []
    for let in letters:
        if let == 0 or abs(let) > alphabet_size:
            raise InvalidInputError(
                f"letter {let} outside alphabet of size {alphabet_size}"
            )
        if stack and stack[-1] == -let:
            stack.pop()
        else:
            stack.append(let)
    return Word(tuple(stack), alphabet_size)


def generator(i: int, alphabet_size: int) -> Word:
    """The one-letter word g_i (or its inverse for negative i)."""
    return reduce_word([i], alphabet_size)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v.

    >>> commutator(generator(1, 2), generator(2, 2)).letters
    (-1, -2, 1, 2)
    """
    if u.alphabet_size != v.alphabet_size:
        raise InvalidInputError("commutator of words over different alphabets")
    return ~u * ~v * u * v


def exponent_vector(w: Word, n: int | None = None) -> tuple[int, ...]:
    """Signed letter counts, one entry per generator.

    This is the image of ``w`` in the free abelianisation Z^n.
    """
    if n is None:
        n = w.alphabet_size
    if n < w.alphabet_size:
        raise InvalidInputError("exponent_vector target smaller than word alphabet")
    out = [0] * n
    for g, k in _exponent_sums(w).items():
        out[g] = k
    return tuple(out)


def _exponent_sums(w: Word) -> dict[int, int]:
    """The exponent vector of ``w``, sparse: ``{generator index: signed
    letter count}`` without zeros, from one pass over its letters, so that
    a relator costs its length and not the generator count."""
    out: dict[int, int] = {}
    for let in w.letters:
        if let > 0:
            out[let] = out.get(let, 0) + 1
        else:
            out[-let] = out.get(-let, 0) - 1
    return {g - 1: k for g, k in out.items() if k}
