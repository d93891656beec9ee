"""Round-trip and statistic tests for the configuration <-> Dumont maps."""

from math import comb

import pytest

from dellac.grid import Config, Params, enumerate_configs, inversions
from dellac.bijection import phi, phi1, phi2, phi3, psi, varphi
from dellac.words import (
    AmbiguousLift,
    destandardize,
    enumerate_normalized_dumont,
    is_normalized_dumont,
    st_statistic,
)

SIGMA_233 = (5, 8, 1, 1, 7, 10, 2, 2, 4, 8, 3, 4,
             9, 11, 5, 7, 10, 11, 6, 9, 12, 12, 3, 6)
PI_233 = (10, 15, 1, 2, 13, 20, 3, 4, 7, 16, 5, 8,
          18, 21, 9, 14, 19, 22, 11, 17, 23, 24, 6, 12)
CFG_233 = Config(Params(2, 3, 3), (
    (1, 4, 7), (1, 2, 5), (3, 4, 6), (2, 5, 7), (3, 8, 9), (6, 8, 9)))

EXAMPLE_232 = Config(Params(2, 3, 2), ((1, 2, 5), (1, 4, 5), (3, 4, 6), (2, 3, 6)))

ROUND_TRIP_PARAMS = [(1, 2, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2), (1, 3, 2)]


def test_phi1_worked_example():
    assert phi1(EXAMPLE_232) == (2, 2, 4, 4, 6, 8, 3, 6, 1, 3,
                                 10, 1, 5, 8, 10, 5, 7, 7, 9, 9)


def test_phi1_smallest():
    c = next(iter(enumerate_configs(Params(1, 2, 1))))
    assert phi1(c) == (2, 4, 1, 3)
    assert varphi(c) == (3, 1, 4, 2)


def test_phi1_is_gen_perm():
    for lmn in ROUND_TRIP_PARAMS:
        p = Params(*lmn)
        half = p.num_values
        for c in enumerate_configs(p):
            g = phi1(c)
            assert sorted(g) == [v for v in range(1, half + 1) for _ in range(p.l)]


def test_phi_worked_example():
    assert phi(EXAMPLE_232) == (9, 12, 1, 2, 7, 10, 3, 4, 13, 16,
                                5, 8, 17, 18, 6, 14, 19, 20, 11, 15)


def test_phi2_inverts_permutations():
    assert phi2((3, 1, 4, 2), 1) == (2, 4, 1, 3)
    assert phi2((2, 4, 1, 3), 1) == (3, 1, 4, 2)
    with pytest.raises(ValueError):
        phi2((1, 1, 3, 3), 2)  # value 2 missing


def test_phi3_is_destandardized_phi2():
    for lmn in [(1, 2, 2), (2, 2, 1)]:
        p = Params(*lmn)
        for c in enumerate_configs(p):
            g = phi1(c)
            assert phi3(g, p.l) == destandardize(phi2(g, p.l), p.l)


def test_worked_233_chain():
    assert inversions(CFG_233) == 31
    assert phi(CFG_233) == PI_233
    assert varphi(CFG_233) == SIGMA_233
    assert psi(SIGMA_233, Params(2, 3, 3)) == CFG_233
    assert st_statistic(SIGMA_233, Params(2, 3, 3)) == comb(12, 2) - 31 == 35


@pytest.mark.parametrize("lmn", ROUND_TRIP_PARAMS)
def test_bijection_round_trip(lmn):
    p = Params(*lmn)
    images = []
    for c in enumerate_configs(p):
        sigma = varphi(c)
        assert is_normalized_dumont(sigma, p) is not None
        assert psi(sigma, p) == c
        images.append(sigma)
    # injectivity and exact image equality
    assert len(set(images)) == len(images)
    assert set(images) == set(enumerate_normalized_dumont(p))


def test_psi_round_trip_from_words():
    # start from the word side at one l >= 2 parameter set
    p = Params(2, 2, 2)
    for sigma in enumerate_normalized_dumont(p):
        assert varphi(psi(sigma, p)) == sigma


# (3,2,2): two configurations with inv 7 and 8 share one word, whose lift
# is therefore not unique
COLLIDING_322 = (((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4)),
                 ((1, 2), (1, 2), (1, 3), (3, 4), (2, 4), (3, 4)))
SIGMA_322 = (3, 4, 5, 1, 1, 1, 4, 5, 5, 2, 2, 3, 6, 6, 6, 2, 3, 4)


def test_psi_rejects_an_ambiguous_lift():
    p = Params(3, 2, 2)
    assert [varphi(Config(p, cols)) for cols in COLLIDING_322] == [SIGMA_322] * 2
    with pytest.raises(AmbiguousLift):
        psi(SIGMA_322, p)
    assert is_normalized_dumont(SIGMA_322, p) is None


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="varphi is not injective at (3,2,2): its 20 configurations have "
           "10 images, and 16 of them share a word with another one")
def test_varphi_is_injective_on_every_small_grid():
    sets = [(l, m, n) for l in range(1, 13) for m in range(2, 13)
            for n in range(1, 13) if l * m * n <= 12]
    colliding = {}
    for lmn in sets:
        p = Params(*lmn)
        owners = {}
        for c in enumerate_configs(p):
            owners.setdefault(varphi(c), []).append(c)
        shared = sum(len(cs) for cs in owners.values() if len(cs) > 1)
        if shared:
            colliding[lmn] = shared
    assert colliding == {}
