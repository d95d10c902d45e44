import hashlib
import json

import pytest

from braidkit import fpgroup
from braidkit.errors import BoundExceededError, InvalidInputError, UnsupportedFamilyError
from braidkit.fpgroup import (
    FAMILY_MAX_SIZE,
    Presentation,
    add_relators,
    artin_presentation,
    boundary_orientable,
    class2_quotient_presentation,
    closed_orientable,
    nonorientable,
    resolve_presentation,
)
from braidkit.word import exponent_vector, generator
from braidkit.zlinalg import abelianization


def shape(p):
    return p.generator_count, len(p.relators)


# --- artin family ---------------------------------------------------------


def test_artin_two_strands_is_free_of_rank_one():
    assert shape(artin_presentation(2)) == (1, 0)


def test_artin_three_strands():
    assert shape(artin_presentation(3)) == (2, 1)


def test_artin_four_strands():
    assert shape(artin_presentation(4)) == (3, 3)


def test_artin_rejects_zero_strands():
    with pytest.raises(InvalidInputError):
        artin_presentation(0)


# --- closed orientable ----------------------------------------------------


def test_closed_genus1_two_strands():
    assert shape(closed_orientable(1, 2)) == (3, 4)


def test_sphere_three_strands():
    assert shape(closed_orientable(0, 3)) == (2, 2)


def test_closed_genus1_three_strands():
    assert shape(closed_orientable(1, 3)) == (4, 7)


def test_closed_single_strand_has_one_relator():
    for g in (1, 2, 3):
        assert shape(closed_orientable(g, 1)) == (2 * g, 1)


def test_sphere_single_strand_is_trivial_presentation():
    assert shape(closed_orientable(0, 1)) == (0, 0)


def test_sphere_two_strands_is_order_two():
    # the empty commutator product on the left makes the relator sigma1^-2
    p = closed_orientable(0, 2)
    assert shape(p) == (1, 1)
    assert p.relators[0].letters == (-1, -1)


def test_generator_name_order():
    p = closed_orientable(2, 3)
    assert p.generator_names == ("a1", "b1", "a2", "b2", "sigma1", "sigma2")


# --- boundary (one component) ---------------------------------------------


def test_boundary_is_closed_minus_surface_relator():
    for g, n in [(1, 2), (1, 3), (2, 3), (2, 1)]:
        closed = closed_orientable(g, n)
        bound = boundary_orientable(g, n)
        assert bound.relators == closed.relators[:-1]


def test_boundary_genus1_one_strand_is_free_rank_two():
    assert shape(boundary_orientable(1, 1)) == (2, 0)


def test_boundary_genus2_one_strand():
    assert shape(boundary_orientable(2, 1)) == (4, 0)


def test_boundary_rejects_genus_zero():
    with pytest.raises(InvalidInputError):
        boundary_orientable(0, 3)


def test_boundary_rejects_multiple_components():
    with pytest.raises(UnsupportedFamilyError):
        boundary_orientable(1, 3, boundary_components=2)


# --- nonorientable ---------------------------------------------------------


def test_nonorientable_projective_plane_two_strands():
    assert shape(nonorientable(1, 2)) == (2, 2)


def test_nonorientable_genus2_three_strands():
    assert shape(nonorientable(2, 3)) == (4, 7)


def test_nonorientable_single_strand():
    p = nonorientable(1, 1)
    assert shape(p) == (1, 1)
    assert p.relators[0].letters == (-1, -1)


def test_nonorientable_one_strand_general_genus():
    for g in (2, 3):
        assert shape(nonorientable(g, 1)) == (g, 1)


# --- class-2 quotient ------------------------------------------------------


def test_class2_quotient_power_relator():
    p = class2_quotient_presentation(1, 4)
    assert p.relators[0].letters == (3,) * 8  # sigma^(2(n-1+g)) with n=4, g=1
    p = class2_quotient_presentation(1, 3)
    assert p.relators[0].letters == (3,) * 6


def test_class2_quotient_commutator_relators():
    p = class2_quotient_presentation(3, 4)
    assert p.generator_count == 7
    sigma = p.generator_count
    squares = [r for r in p.relators if r.letters[-2:] == (-sigma, -sigma) and len(r) == 6]
    assert len(squares) == 3


def test_class2_quotient_rejects_small_strand_count():
    with pytest.raises(InvalidInputError):
        class2_quotient_presentation(1, 2)


# --- invariants across the builder grid ------------------------------------


def test_builders_are_deterministic():
    for build in (
        lambda: closed_orientable(2, 4),
        lambda: boundary_orientable(2, 4),
        lambda: nonorientable(3, 4),
        lambda: artin_presentation(5),
    ):
        assert build() == build()


def _sigma_patterns(vectors, n_strands):
    """Classify the sigma-exponent blocks of non-surface relators."""
    zero, braid, sigma1 = 0, 0, 0
    for vec in vectors:
        if not any(vec):
            zero += 1
        elif vec[0] in (2, -2) and not any(vec[1:]):
            sigma1 += 1
        else:
            nonzero = [i for i, x in enumerate(vec) if x]
            assert len(nonzero) == 2 and nonzero[1] == nonzero[0] + 1
            assert vec[nonzero[0]] == 1 and vec[nonzero[1]] == -1
            braid += 1
    assert braid == max(0, n_strands - 2)
    return zero, braid, sigma1


def test_relator_exponent_sums():
    # a/b/rho exponents vanish on every relator but the final surface or
    # twist relator; sigma blocks carry only the braid pattern (+1, -1),
    # a single +-2 at sigma1 (g relators each family), or zeros, with the
    # final relator contributing -2 on every sigma (and every rho)
    for g in (1, 2, 3):
        for n in (2, 3, 4, 5):
            p = closed_orientable(g, n)
            nn = p.generator_count
            sigma_blocks = []
            for r in p.relators[:-1]:
                vec = exponent_vector(r, nn)
                assert vec[: 2 * g] == (0,) * (2 * g)
                sigma_blocks.append(vec[2 * g :])
            _, _, heavy = _sigma_patterns(sigma_blocks, n)
            assert heavy == g
            surface = exponent_vector(p.relators[-1], nn)
            assert surface == (0,) * (2 * g) + (-2,) * (n - 1)

            q = nonorientable(g, n)
            nq = q.generator_count
            sigma_blocks = []
            for r in q.relators[:-1]:
                vec = exponent_vector(r, nq)
                assert vec[:g] == (0,) * g
                sigma_blocks.append(vec[g:])
            _, _, heavy = _sigma_patterns(sigma_blocks, n)
            assert heavy == g
            assert exponent_vector(q.relators[-1], nq) == (-2,) * nq


def test_relators_are_nonempty_and_reduced():
    for g in (0, 1, 2):
        for n in (1, 2, 3, 4):
            p = closed_orientable(g, n)
            for r in p.relators:
                assert not r.is_identity()


# --- relator surgery --------------------------------------------------------


def test_add_relators_kills_sigma_to_give_free_abelian():
    p = closed_orientable(1, 3)
    extra = [generator(p.generator_index(f"sigma{i}"), p.generator_count) for i in (1, 2)]
    q = add_relators(p, extra)
    ab = abelianization(q)
    assert (ab.free_rank, ab.invariant_factors) == (2, ())


def test_add_relators_nonorientable_quotient_has_trivial_second_layer():
    from braidkit.nilq import lcs_layer

    p = nonorientable(2, 3)
    extra = [generator(p.generator_index(f"sigma{i}"), p.generator_count) for i in (1, 2)]
    q = add_relators(p, extra)
    assert lcs_layer(q, 2).is_trivial


def test_add_relators_empty_is_identity_operation():
    p = closed_orientable(1, 2)
    assert add_relators(p, []).relators == p.relators


def test_add_relators_rejects_alphabet_mismatch():
    p = closed_orientable(1, 2)
    with pytest.raises(InvalidInputError):
        add_relators(p, [generator(1, 99)])


# --- serialization -----------------------------------------------------------


def test_presentation_json_round_trip():
    p = nonorientable(2, 3)
    data = p.to_json()
    assert data["family"] == {"surface": "nonorientable", "genus": 2, "strands": 3}
    assert Presentation.from_json(data) == p


# --- one rule for every family, bounded before it builds ----------------------

# closed-orientable g 0-5, boundary-orientable and nonorientable g 1-5, each
# on n 1-7, then artin n 1-11, in that order
PINNED_SPECS = (
    [{"surface": "closed-orientable", "genus": g, "strands": n} for g in range(6) for n in range(1, 8)]
    + [
        {"surface": surface, "genus": g, "strands": n}
        for surface in ("boundary-orientable", "nonorientable")
        for g in range(1, 6)
        for n in range(1, 8)
    ]
    + [{"surface": "artin", "strands": n} for n in range(1, 12)]
)
# recorded when each family still had its own builder; a moved, changed or
# renamed relator or generator changes it
PINNED_SHA256 = "5e12d4bb739a3c80bec55d91f8081ab3357f3879dbe354bbfc19bd96780dc177"


def test_family_presentations_are_pinned_byte_for_byte():
    digest = hashlib.sha256()
    for spec in PINNED_SPECS:
        digest.update(json.dumps(resolve_presentation(spec).to_json()).encode())
    assert digest.hexdigest() == PINNED_SHA256


def _built_size(p):
    return p.generator_count, len(p.relators), sum(len(r) for r in p.relators)


def test_closed_form_sizes_equal_the_built_presentations():
    for g in range(7):
        for n in range(1, 10):
            cases = [(closed_orientable(g, n), fpgroup._surface_braid_size(g, n, True, True))]
            if g == 0:
                cases.append((artin_presentation(n), fpgroup._surface_braid_size(0, n, True, False)))
            else:
                cases += [
                    (boundary_orientable(g, n), fpgroup._surface_braid_size(g, n, True, False)),
                    (nonorientable(g, n), fpgroup._surface_braid_size(g, n, False, True)),
                ]
            if g >= 1 and n >= 3:
                cases.append((class2_quotient_presentation(g, n), fpgroup._class2_size(g, n)))
            for p, size in cases:
                assert _built_size(p) == size, p.family


def test_the_largest_family_in_use_is_under_the_bound():
    # sigma^2314 and 21 short relators on 7 generators: the composite-s408
    # representation's presentation
    generators, _, letters = _built_size(class2_quotient_presentation(3, 1155))
    assert generators + letters == 2411 < FAMILY_MAX_SIZE


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: artin_presentation(708), "artin presentation needs 1000403 "),
        (lambda: closed_orientable(1, 706), "closed-orientable presentation needs 1001825 "),
        (lambda: boundary_orientable(250, 2), "boundary-orientable presentation needs 1002501 "),
        (lambda: nonorientable(10**12, 3), "nonorientable presentation needs 4000000000011000000000012 "),
        (lambda: class2_quotient_presentation(1, 499992), "class2-quotient presentation needs 1000001 "),
    ],
)
def test_families_over_the_bound_are_refused_before_any_word(monkeypatch, build, message):
    def no_words(*args):
        raise AssertionError("a word was made")

    monkeypatch.setattr(fpgroup, "reduce_word", no_words)
    with pytest.raises(BoundExceededError, match=message + "generators and relator letters, over the bound 1000000"):
        build()


def test_families_at_the_bound_are_built():
    # 3 generators and 999,996 letters, 999,982 of them in sigma^999982
    assert _built_size(class2_quotient_presentation(1, 499991)) == (3, 4, 999996)
    # artin(707), one strand short of the refused artin(708), is admitted
    generators, _, letters = fpgroup._surface_braid_size(0, 707, True, False)
    assert generators + letters == 997576 <= FAMILY_MAX_SIZE
