"""Tests for the inversion-preserving embeddings xi1 and xi2."""

from itertools import permutations

import pytest

from dellac.grid import Config, Params, count_configs, enumerate_configs, inversions, tau_of
from dellac.embed import (
    _step,
    duplicated_values,
    undo_step,
    xi1,
    xi1_inverse,
    xi2,
    xi2_inverse,
)

# figure pair: a (2,2,2) configuration and its image in the (1,2,4) grid
XI1_SOURCE = Config(Params(2, 2, 2), ((1, 2), (1, 3), (3, 4), (2, 4)))
XI1_IMAGE = Config(Params(1, 2, 4), ((1, 3), (2, 5), (6, 7), (4, 8)))

# worked rewriting example: a (1,3,3) configuration and its (1,2,6) image
XI2_SOURCE = Config(Params(1, 3, 3), ((1, 3, 7), (2, 5, 6), (4, 8, 9)))
XI2_IMAGE = Config(Params(1, 2, 6), (
    (1, 3), (2, 6), (4, 9), (5, 8), (7, 10), (11, 12)))


def plain(values):
    return [(v, 0) for v in values]


def test_xi1_figure_pair():
    assert inversions(XI1_SOURCE) == 4
    image = xi1(XI1_SOURCE)
    assert image == XI1_IMAGE
    assert inversions(image) == 4
    assert xi1_inverse(image, 2) == XI1_SOURCE


def test_xi1_is_identity_on_single_dot_rows():
    for lmn in [(1, 2, 2), (1, 3, 2)]:
        for c in enumerate_configs(Params(*lmn)):
            assert xi1(c) == c


@pytest.mark.parametrize("lmn", [(2, 2, 2), (2, 3, 2)])
def test_xi1_round_trip(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        image = xi1(c)
        assert image.params == Params(1, params.m, params.l * params.n)
        assert inversions(image) == inversions(c)
        assert xi1_inverse(image, params.l) == c


def test_xi1_membership_count():
    accepted = sum(1 for d in enumerate_configs(Params(1, 2, 4))
                   if xi1_inverse(d, 2) is not None)
    assert accepted == count_configs(Params(2, 2, 2)) == 6


def test_xi1_inverse_rejects_unordered_block():
    # valid on its grid, but rows 5 and 6 list their columns decreasing
    d = Config(Params(1, 2, 4), ((1, 3), (2, 6), (5, 7), (4, 8)))
    assert xi1_inverse(d, 2) is None


def test_xi1_inverse_preconditions():
    with pytest.raises(ValueError):
        xi1_inverse(XI1_IMAGE, 3)
    with pytest.raises(ValueError):
        xi1_inverse(XI1_SOURCE, 2)


def test_duplicated_values():
    assert duplicated_values(3, 3) == (2, 5, 8)
    assert duplicated_values(2, 5) == ()
    assert duplicated_values(4, 2) == (2, 3, 6, 7)


def test_xi2_rewriting_chain():
    assert tau_of(XI2_SOURCE) == (1, 4, 2, 7, 5, 6, 3, 8, 9)
    word = plain(tau_of(XI2_SOURCE))
    word, v = _step(word, 2)
    assert v == (1, 0)
    assert word == [(1, 0), (2, 2), (2, 1), (4, 0), (7, 0),
                    (5, 0), (6, 0), (3, 0), (8, 0), (9, 0)]
    word, v = _step(word, 5)
    assert v == (1, 1)
    assert word == [(1, 0), (2, 2), (2, 1), (4, 0), (5, 2),
                    (3, 0), (7, 0), (6, 0), (5, 1), (8, 0), (9, 0)]
    word, v = _step(word, 8)
    assert v == (0, 0)
    assert word == [(1, 0), (2, 2), (2, 1), (4, 0), (5, 2), (3, 0),
                    (7, 0), (6, 0), (5, 1), (8, 1), (8, 2), (9, 0)]


def test_xi2_worked_example():
    image, va = xi2(XI2_SOURCE)
    assert tau_of(image) == (1, 3, 2, 5, 7, 4, 9, 8, 6, 10, 11, 12)
    assert image == XI2_IMAGE
    assert va == ((2, 1, 0), (5, 1, 1), (8, 0, 0))
    assert inversions(XI2_SOURCE) == inversions(image) == 7
    assert xi2_inverse(image, va) == XI2_SOURCE


def test_xi2_is_identity_on_two_dot_columns():
    for c in enumerate_configs(Params(1, 2, 3)):
        image, va = xi2(c)
        assert image == c
        assert va == ()
        assert xi2_inverse(image, va) == c


def test_undo_step_decodes_by_va():
    # the same word undoes differently under v_a = (2,2) and (1,3)
    word = [(8, 2), (2, 0), (11, 0), (3, 0), (12, 0), (4, 0), (8, 1)]
    assert undo_step(word, 8, 2, 2) == plain([11, 2, 12, 8, 3, 4])
    assert undo_step(word, 8, 1, 3) == plain([11, 8, 2, 12, 3, 4])
    assert undo_step(word, 8, 2, 1) is None


def test_undo_step_inverts_step_on_every_short_word():
    # every permutation of 1..N (N <= 6), every letter a, every (t, u) in
    # 0..N: the true v_a gives the word back, any other is None or a word
    # that replays to the image under that v_a
    for size in range(1, 7):
        for perm in permutations(range(1, size + 1)):
            word = plain(perm)
            for a in perm:
                image, va = _step(word, a)
                for t in range(size + 1):
                    for u in range(size + 1):
                        back = undo_step(image, a, t, u)
                        if (t, u) == va:
                            assert back == word
                        elif back is not None:
                            assert _step(back, a) == (image, (t, u))


@pytest.mark.parametrize("lmn", [(1, 3, 2), (1, 3, 3)])
def test_xi2_round_trip(lmn):
    params = Params(*lmn)
    seen = set()
    for c in enumerate_configs(params):
        image, va = xi2(c)
        assert image.params == Params(1, 2, (params.m - 1) * params.n)
        assert inversions(image) == inversions(c)
        assert xi2_inverse(image, va) == c
        seen.add((image.columns, va))
    assert len(seen) == count_configs(params)


def test_xi2_inverse_rejects_inconsistent_va():
    image, va = xi2(XI2_SOURCE)
    assert xi2_inverse(image, va[:-1]) is None
    shuffled = (va[1],) + (va[0],) + va[2:]
    assert xi2_inverse(image, shuffled) is None
    # an empty bookkeeping list always reads the image back as an m = 2
    # source, which is the identity direction
    assert xi2_inverse(image, ()) == image


def test_composition_lands_in_two_dot_grid():
    params = Params(2, 3, 2)
    for c in enumerate_configs(params):
        spread = xi1(c)
        image, va = xi2(spread)
        assert image.params == Params(1, 2, 8)
        assert inversions(image) == inversions(c)
        assert xi1_inverse(xi2_inverse(image, va), params.l) == c
