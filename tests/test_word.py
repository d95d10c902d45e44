import random

import pytest

from braidkit.errors import InvalidInputError
from braidkit.word import (
    Word,
    commutator,
    exponent_vector,
    generator,
    reduce_word,
)


def random_letters(rng, alphabet, length):
    return [rng.choice([1, -1]) * rng.randint(1, alphabet) for _ in range(length)]


def test_reduce_cancels_adjacent_inverses():
    assert reduce_word([1, -1], 2).letters == ()


def test_reduce_identity_case():
    assert reduce_word([], 3).letters == ()


def test_reduce_single_cancellation():
    assert reduce_word([1, 2, -2, 1], 2).letters == (1, 1)


def test_reduce_cascading_cancellation():
    assert reduce_word([1, 2, 3, -3, -2, -1], 3).letters == ()


@pytest.mark.parametrize("bad", [[0], [3], [-3]])
def test_reduce_rejects_out_of_alphabet(bad):
    with pytest.raises(InvalidInputError):
        reduce_word(bad, 2)


def test_word_constructor_requires_reduced():
    with pytest.raises(InvalidInputError):
        Word((1, -1), 2)


def test_self_commutator_is_trivial():
    g = generator(1, 2)
    assert commutator(g, g).is_identity()


def test_commutator_convention():
    assert commutator(generator(1, 2), generator(2, 2)).letters == (-1, -2, 1, 2)


def test_commutator_with_identity():
    assert commutator(generator(1, 2), Word((), 2)).is_identity()


def test_commutator_alphabet_mismatch():
    with pytest.raises(InvalidInputError):
        commutator(generator(1, 2), generator(1, 3))


def test_exponent_vector_counts_signed_occurrences():
    w = reduce_word([1, 2, 2, -1], 3)
    assert exponent_vector(w, 3) == (0, 2, 0)


def test_exponent_vector_empty_word():
    assert exponent_vector(Word((), 4)) == (0, 0, 0, 0)


def test_exponent_vector_of_commutator_vanishes():
    w = commutator(generator(1, 2), generator(2, 2))
    assert exponent_vector(w) == (0, 0)


def test_exponent_vector_rejects_small_target():
    with pytest.raises(InvalidInputError):
        exponent_vector(generator(3, 3), 2)


def test_json_round_trip():
    w = reduce_word([1, -2, 1], 2)
    assert Word.from_json(w.to_json(), 2) == w


def test_reduce_is_idempotent_on_random_input():
    rng = random.Random(100)
    for _ in range(300):
        letters = random_letters(rng, 4, rng.randint(0, 20))
        once = reduce_word(letters, 4)
        assert reduce_word(once.letters, 4) == once


def test_exponent_vector_invariant_under_reduction():
    rng = random.Random(101)
    for _ in range(300):
        letters = random_letters(rng, 3, rng.randint(0, 16))
        raw = [0, 0, 0]
        for let in letters:
            raw[abs(let) - 1] += 1 if let > 0 else -1
        assert exponent_vector(reduce_word(letters, 3), 3) == tuple(raw)


def test_commutators_abelianize_to_zero():
    rng = random.Random(102)
    for _ in range(200):
        u = reduce_word(random_letters(rng, 3, rng.randint(0, 10)), 3)
        v = reduce_word(random_letters(rng, 3, rng.randint(0, 10)), 3)
        assert exponent_vector(commutator(u, v)) == (0, 0, 0)


def test_word_times_inverse_is_identity():
    rng = random.Random(103)
    for _ in range(200):
        w = reduce_word(random_letters(rng, 4, rng.randint(0, 12)), 4)
        assert (w * ~w).is_identity()
        assert (~w * w).is_identity()


def test_reduced_words_stay_reduced_under_product_and_inverse():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12)
    words = letters.map(lambda raw: reduce_word(raw, 3))

    def is_reduced(w):
        return all(a != -b for a, b in zip(w.letters, w.letters[1:]))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(words, words)
    def check(u, v):
        assert is_reduced(u * v) and is_reduced(~u)
        assert (u * ~u).is_identity()
        assert ~(u * v) == ~v * ~u

    check()
