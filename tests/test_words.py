"""Tests for generalized permutations, Dumont acceptance, and st."""

import itertools
from collections import defaultdict
from functools import lru_cache

import pytest

from dellac.grid import Params, enumerate_configs, word_of
from dellac.words import (
    LengthNotDivisible,
    NoValidPi,
    OddShape,
    ParityViolation,
    PinViolation,
    check_pins,
    column_words,
    destandardize,
    enumerate_normalized_dumont,
    inv_word,
    invert,
    is_gen_dumont,
    is_normalized_dumont,
    is_normalized_dumont_12,
    letter_follows,
    lifts,
    parity_property,
    pinned_blocks,
    recover_pi,
    split_blocks,
    st_from_pi,
    st_statistic,
)

# Worked (2,3,3) pair: a normalized Dumont permutation and its unique lift.
SIGMA_233 = (5, 8, 1, 1, 7, 10, 2, 2, 4, 8, 3, 4,
             9, 11, 5, 7, 10, 11, 6, 9, 12, 12, 3, 6)
PI_233 = (10, 15, 1, 2, 13, 20, 3, 4, 7, 16, 5, 8,
          18, 21, 9, 14, 19, 22, 11, 17, 23, 24, 6, 12)


def test_destandardize():
    assert destandardize((1, 3, 2, 4), 2) == (1, 2, 1, 2)
    assert destandardize((2, 3, 1, 4), 2) == (1, 2, 1, 2)
    with pytest.raises(LengthNotDivisible):
        destandardize((1, 2, 3), 2)


def test_invert():
    assert invert((3, 1, 4, 2)) == (2, 4, 1, 3)


def test_inv_word():
    assert inv_word((1, 2, 3)) == 0
    assert inv_word((3, 2, 1)) == 3
    assert inv_word((1, 4, 2, 7, 5, 6, 3, 8, 9)) == 7


def test_is_gen_dumont_classical():
    accepted = [p for p in itertools.permutations(range(1, 5))
                if is_gen_dumont(p, 1)]
    assert accepted == [(2, 1, 4, 3), (3, 1, 4, 2)]
    with pytest.raises(OddShape):
        is_gen_dumont((1, 2, 1, 3, 2, 3), 2)


def test_is_gen_dumont_generalized():
    # The naive blockwise generalization is NOT satisfied by every image of
    # the configuration bijection once m >= 3: this genuine image has block 4
    # holding (4, 8), and 4 fails the "> 5" branch.
    assert not is_gen_dumont(SIGMA_233, 2)
    assert not is_gen_dumont((1, 1, 2, 2), 2)  # block 0 needs values > 1


def phi_word(c):
    """Position word of the affixed label word (inlined here so the word
    layer can be tested without the bijection module)."""
    p = c.params
    alpha = p.prefix_word() + word_of(c) + p.suffix_word()
    beta = [0] * len(alpha)
    seen = {}
    for pos, v in enumerate(alpha, start=1):
        k = seen.get(v, 0)
        beta[(v - 1) * p.l + k] = pos
        seen[v] = k + 1
    return tuple(beta)


def test_parity_property():
    assert parity_property((4, 1, 3), 1, 3)
    assert not parity_property((3, 1, 4), 1, 3)
    assert parity_property((2, 4, 6), 1, 3)       # all even parity, increasing
    assert not parity_property((4, 2, 6), 1, 3)
    # the six column words of the worked lift
    p = Params(2, 3, 3)
    assert column_words(PI_233, p) == [
        (11, 23, 9), (12, 15, 1), (19, 24, 5),
        (16, 2, 10), (20, 13, 17), (6, 14, 18)]
    for w in column_words(PI_233, p):
        assert parity_property(w, 2, 3)


def test_pinned_blocks():
    assert pinned_blocks(Params(1, 2, 2)) == {1: 1, 4: 6}
    assert pinned_blocks(Params(2, 3, 3)) == {1: 1, 3: 2, 10: 12}
    assert pinned_blocks(Params(1, 3, 1)) == {1: 1}
    check_pins(SIGMA_233, Params(2, 3, 3))
    with pytest.raises(PinViolation):
        check_pins((5, 8, 1, 2) + SIGMA_233[4:], Params(2, 3, 3))


def test_recover_pi_worked_example():
    p = Params(2, 3, 3)
    assert recover_pi(SIGMA_233, p) == PI_233
    # the lift is not the left-to-right standardization: letter 5 sits at
    # positions 1 and 15 but receives 10 before 9
    assert PI_233[0] == 10 and PI_233[14] == 9


def test_st_worked_example():
    p = Params(2, 3, 3)
    even, odd = split_blocks(PI_233, 2)
    assert odd == (1, 2, 3, 4, 5, 8, 9, 14, 11, 17, 6, 12)
    assert even == (10, 15, 13, 20, 7, 16, 18, 21, 19, 22, 23, 24)
    assert sum(odd) == 92 and inv_word(even) == 9 and inv_word(odd) == 8
    assert st_from_pi(PI_233, 2) == 144 - 92 - 9 - 8 == 35
    assert st_statistic(SIGMA_233, p) == 35


def test_st_smallest():
    assert st_statistic((3, 1, 4, 2), Params(1, 2, 1)) == 1


def test_rejections():
    p = Params(1, 2, 2)
    with pytest.raises(PinViolation):
        recover_pi((4, 2, 5, 1, 6, 3), p)
    with pytest.raises(ParityViolation):
        recover_pi((2, 1, 4, 3, 6, 5), p)
    assert is_normalized_dumont((2, 1, 4, 3, 6, 5), p) is None
    assert is_normalized_dumont((3, 1, 5, 2, 6, 4), p) is not None


@pytest.mark.parametrize("lmn,count", [
    ((1, 2, 1), 1), ((1, 2, 2), 2), ((1, 2, 3), 7),
    ((2, 2, 1), 1), ((2, 2, 2), 6),
    ((1, 3, 1), 1), ((1, 3, 2), 6),
    # fewer words than the 20 and 70 configurations: dStd^l merges lifts
    ((3, 2, 2), 4), ((4, 2, 2), 6),
    ((2, 3, 2), 90), ((1, 2, 5), 295), ((1, 6, 2), 252),
])
def test_enumerate_normalized_dumont_counts(lmn, count):
    p = Params(*lmn)
    sigmas = list(enumerate_normalized_dumont(p))
    assert len(sigmas) == count
    assert len(set(sigmas)) == count
    for s in sigmas:
        assert is_normalized_dumont(s, p) is not None


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_condition_matches_full_acceptance(n):
    p = Params(1, 2, n)
    L = p.word_len
    full = set()
    for sigma in itertools.permutations(range(1, L + 1)):
        if is_normalized_dumont(sigma, p) is not None:
            full.add(sigma)
        assert (sigma in full) == is_normalized_dumont_12(sigma)
    assert full == set(enumerate_normalized_dumont(p))


def pinned_block_words(p):
    """Every word with the pinned blocks of p whose blocks are weakly
    increasing: the candidates of a generate-and-test enumerator."""
    pins = pinned_blocks(p)
    left = {v: p.l for v in range(1, p.num_values + 1)}
    for v in pins.values():
        left[v] = 0
    blocks = []

    def rec(b):
        if b == p.num_values:
            yield tuple(v for blk in blocks for v in blk)
        elif b in pins:
            blocks.append((pins[b],) * p.l)
            yield from rec(b + 1)
            blocks.pop()
        else:
            for blk in itertools.combinations_with_replacement(
                    [v for v in left if left[v]], p.l):
                if all(blk.count(v) <= left[v] for v in blk):
                    for v in blk:
                        left[v] -= 1
                    blocks.append(blk)
                    yield from rec(b + 1)
                    blocks.pop()
                    for v in blk:
                        left[v] += 1

    yield from rec(0)


@pytest.mark.parametrize("lmn", [
    (1, 2, 1), (1, 2, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2),
    (1, 3, 1), (1, 3, 2), (2, 3, 1), (3, 2, 2),
])
def test_entry_bound_pruning_is_complete(lmn):
    # the lift search cuts a branch as soon as a letter fails, so it
    # must find the same words as generate-and-test over every candidate
    # (the name is that of the entry-bound prune this test first checked)
    p = Params(*lmn)
    reference = [s for s in pinned_block_words(p) if is_normalized_dumont(s, p) is not None]
    assert reference == list(enumerate_normalized_dumont(p))


# every (l, m, n) with l*m*n <= 12
SMALL_SETS = [(l, m, n) for l in range(1, 13) for m in range(2, 13) for n in range(1, 13)
              if l * m * n <= 12]


@lru_cache(maxsize=None)
def lifts_by_image(lmn):
    """varphi image -> the sorted lifts phi(c) of the configurations that
    map to it."""
    p = Params(*lmn)
    out = defaultdict(list)
    for c in enumerate_configs(p):
        pi = phi_word(c)
        out[destandardize(pi, p.l)].append(pi)
    return {sigma: sorted(pis) for sigma, pis in out.items()}


@pytest.mark.parametrize("lmn", SMALL_SETS)
def test_lifts_are_the_phi_images(lmn):
    # the word engine's search, run without a word, lists exactly the
    # permutation lifts phi(c) of the configurations; at (3,2,2) some of
    # these share a word after dStd^l, so the shortfall of normalized Dumont
    # words there comes from that step alone
    p = Params(*lmn)
    assert sorted(lifts(p)) == sorted(pi for pis in lifts_by_image(lmn).values() for pi in pis)


@pytest.mark.parametrize("lmn", SMALL_SETS)
def test_lifts_of_a_word_are_its_phi_preimages_in_order(lmn):
    # given a word, the search lists every lift phi(c) of it, in
    # lexicographic order; at (3,2,2) and beyond colliding words have two
    p = Params(*lmn)
    for sigma, pis in lifts_by_image(lmn).items():
        assert list(lifts(p, sigma)) == pis


@pytest.mark.parametrize("lmn", SMALL_SETS)
def test_normalized_dumont_words_are_the_single_preimage_images(lmn):
    # the enumerator, which never builds a configuration, finds exactly the
    # varphi images with one preimage: fewer words than configurations
    # wherever varphi collides, as at (3,2,2)
    singles = {sigma for sigma, pis in lifts_by_image(lmn).items() if len(pis) == 1}
    assert set(enumerate_normalized_dumont(Params(*lmn))) == singles


@pytest.mark.parametrize("sigma,error", [
    ((9,) * 6, NoValidPi),                # lacks every letter
    ((1, 2), NoValidPi),                  # too short
    ((3, 1, 5, 2, 6, 4, 7), NoValidPi),   # too long
    ((1, 1, 2, 3, 4, 5), NoValidPi),      # a letter twice, one missing
    ((4, 2, 5, 1, 6, 3), PinViolation),
])
def test_lifts_rejects_a_malformed_word(sigma, error):
    with pytest.raises(error):
        lifts(Params(1, 2, 2), sigma)
    with pytest.raises(error):
        recover_pi(sigma, Params(1, 2, 2))


def test_lifts_checks_pins_before_blocks():
    p = Params(2, 2, 2)
    # block 0 decreases
    with pytest.raises(NoValidPi):
        lifts(p, (5, 4, 1, 1, 4, 5, 2, 3, 6, 6, 2, 3))
    # block 1 decreases and breaks its pin: the pin is reported
    with pytest.raises(PinViolation):
        lifts(p, (1, 5, 4, 1, 4, 5, 2, 3, 6, 6, 2, 3))


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_letter_rule_folds_to_the_parity_property(l, m):
    # the search tests the parity property one letter at a time; over every
    # word of distinct positions in 1..12 the fold must agree with the
    # predicate as the paper states it
    for word in itertools.permutations(range(1, 13), m):
        letters = [((s + l - 1) // l % 2, s) for s in word]
        folded = all(letter_follows(a, b, letters[0])
                     for b, a in zip(letters, letters[1:]))
        assert folded == parity_property(word, l, m), word
