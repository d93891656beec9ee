"""End-to-end acceptance checks: one test per claim, each on a worked
example, and one parametrized test that runs every row of the
``dellac.checks`` registry, the rows ``dellac verify all`` prints.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
check and registry row.  Tests with a wall-clock budget assert it after
doing the work.
"""

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from dellac.bijection import phi, psi, varphi
from dellac.boundary import (
    count_boundary,
    genocchi_numbers,
    q_partition_function,
    q_partition_function_dp,
    recurrence_suite,
    staircase_gap,
    verify_expansion_instance,
)
from dellac.checks import verify_items
from dellac.dyck import area, check_inv_decomposition, split_phi, validate_phi_shape
from dellac.embed import xi1, xi2, xi2_inverse
from dellac.grid import (
    Config,
    Params,
    count_configs,
    dot_inversions,
    highest,
    inv_highest,
    inv_lowest,
    inversions,
    lowest,
    tau_of,
    window_poly,
)
from dellac.tuples import count_i, count_k
from dellac.words import inv_word, st_statistic


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget was {seconds}s"


# the worked (2,3,3) pair: st = 35, inv = 31, 35 + 31 = C(12,2) = 66
CFG_233 = Config(Params(2, 3, 3), (
    (1, 4, 7), (1, 2, 5), (3, 4, 6), (2, 5, 7), (3, 8, 9), (6, 8, 9)))
SIGMA_233 = (5, 8, 1, 1, 7, 10, 2, 2, 4, 8, 3, 4,
             9, 11, 5, 7, 10, 11, 6, 9, 12, 12, 3, 6)

# the worked (2,2,3) split: 11 = 7 + 2 + 2
CFG_223 = Config(Params(2, 2, 3), (
    (1, 2), (1, 3), (4, 5), (2, 5), (4, 6), (3, 6)))

# figure pair for xi1 (inv 4) and rewriting example for xi2 (inv 7)
XI1_SOURCE = Config(Params(2, 2, 2), ((1, 2), (1, 3), (3, 4), (2, 4)))
XI2_SOURCE = Config(Params(1, 3, 3), ((1, 3, 7), (2, 5, 6), (4, 8, 9)))

GAP_TABLE = {
    1: (1,),
    2: (2, 3),
    3: (7, 9, 15),
    4: (38, 45, 63, 111),
    5: (295, 333, 423, 621, 1131),
}

CUBIC_POLYS = {
    (2, 1): (1, 2, 3, 1),
    (2,): (1, 2, 3, 2, 1),
    (1, 1): (1, 2, 4, 3, 2),
    (1,): (1, 2, 4, 4, 3, 1),
    (): (1, 2, 4, 4, 4, 2, 1),
}


def test_01_median_genocchi_counts():
    with budget(10):
        expected = [1, 2, 7, 38, 295]
        by_grid = [count_configs(Params(1, 2, n)) for n in range(1, 6)]
        assert by_grid == expected
        assert genocchi_numbers(5) == expected


def test_02_staircase_gap_table():
    with budget(30):
        for n, row in GAP_TABLE.items():
            for i, want in enumerate(row):
                top = staircase_gap(n - 1, i)
                assert q_partition_function_dp(n, top).at_one() == want, (n, i)
                assert count_boundary(n, top) == want, (n, i)


def test_03_cubic_board_polynomials():
    for top, coeffs in CUBIC_POLYS.items():
        assert q_partition_function(3, top).coeffs == coeffs, top
        assert q_partition_function_dp(3, top).coeffs == coeffs, top


def test_04_st_plus_inv_is_constant():
    assert st_statistic(SIGMA_233, CFG_233.params) == 35
    assert inversions(CFG_233) == 31
    assert comb(CFG_233.params.word_len // 2, 2) == 66


def test_05_varphi_bijects_onto_normalized_dumont():
    assert varphi(CFG_233) == SIGMA_233
    assert psi(SIGMA_233, CFG_233.params) == CFG_233


def test_06_inversion_decomposes_into_area_plus_two_inv():
    phi_e, phi_o, phi_e_sorted = split_phi(phi(CFG_223), 2)
    assert (area(phi_e_sorted), inv_word(phi_e), inv_word(phi_o)) == (7, 2, 2)
    assert inversions(CFG_223) == 11
    assert check_inv_decomposition(CFG_223)


def test_07_split_word_validator_accepts_every_image():
    for c in (CFG_223, CFG_233):
        assert validate_phi_shape(phi(c), c.params) == [], c


def test_08_embeddings_preserve_inversions():
    assert inversions(XI1_SOURCE) == inversions(xi1(XI1_SOURCE)) == 4
    image, va = xi2(XI2_SOURCE)
    assert inversions(XI2_SOURCE) == inversions(image) == 7
    assert xi2_inverse(image, va) == XI2_SOURCE


def test_09_tuple_models_count_the_configurations():
    genocchi = [1, 2, 7, 38, 295]
    assert [count_i(Params(1, 2, n)) for n in range(1, 6)] == genocchi
    assert [count_k(Params(1, 2, n)) for n in range(1, 6)] == genocchi


def test_10_recurrence_suite_holds_exactly():
    with budget(300):
        per_identity = Counter()
        for report in recurrence_suite(5):
            assert report.ok, (report.identity, report.n, report.arguments,
                               report.lhs, report.rhs)
            per_identity[report.identity] += 1
        assert set(per_identity) == {"pinned-row", "free-row", "qtriple",
                                     "append-one", "shift1", "shift2",
                                     "split-pair", "six-term"}
        assert min(per_identity.values()) > 0


def test_11_rational_count_expansions():
    with budget(600):
        assert q_partition_function_dp(4, (3, 1)).at_one() == 63
        assert verify_expansion_instance(
            (5, (1,)),
            [(Fraction(1, 30), 7, (6, 5, 4, 3, 1)),
             (Fraction(1, 6), 6, (5, 4, 3, 1)),
             (Fraction(7, 30), 5, (4, 3, 1)),
             (Fraction(1, 10), 4, (3, 1))])
        assert verify_expansion_instance(
            (8, (7, 6, 5, 4, 2, 1)),
            [(Fraction(5, 7), 8, (7, 6, 5, 3, 2, 1)),
             (Fraction(10, 7), 7, (6, 5, 4, 2, 1)),
             (Fraction(8, 21), 6, (5, 4, 2, 1)),
             (Fraction(2, 21), 5, (4, 2, 1))])


# every set the transfer counts at once, without listing a configuration
EXTREMAL_SETS = [(l, m, n) for l in range(1, 10) for m in range(2, 10)
                 for n in range(1, 10) if l * m * n <= 18]


def inversion_coeffs(p):
    return window_poly(p.windows(), p.l, p.m).coeffs


def test_12_extremal_ends_are_unique():
    # the closed forms hold, one configuration attains the minimum, and the
    # maximum is attained by highest alone
    assert len(EXTREMAL_SETS) == 64
    for lmn in EXTREMAL_SETS:
        p = Params(*lmn)
        assert inversions(lowest(p)) == inv_lowest(p), lmn
        assert inversions(highest(p)) == inv_highest(p), lmn
        coeffs = inversion_coeffs(p)
        assert next(a for a in coeffs if a) == 1, lmn
        assert len(coeffs) - 1 == inv_highest(p) and coeffs[-1] == 1, lmn


@pytest.mark.xfail(
    strict=True,
    reason="the block-stacked configuration is not the inversion minimum at "
           "(2,3,3) and (3,2,3): one staggered configuration sits at 8 < 9 "
           "in each")
def test_12_extremal_configurations():
    # block-stacked is the minimum: the lowest degree is inv_lowest
    below = {}
    for lmn in EXTREMAL_SETS:
        p = Params(*lmn)
        least = next(k for k, a in enumerate(inversion_coeffs(p)) if a)
        if least != inv_lowest(p):
            below[lmn] = (least, inv_lowest(p))
    assert below == {}, below


def test_13_label_word_carries_the_statistics():
    tau = tau_of(CFG_233)
    assert inv_word(tau) == inversions(CFG_233) == 31
    for i, dot in enumerate(CFG_233.dots_row_major(), start=1):
        above_left, below_right = dot_inversions(CFG_233, dot)
        assert tau[i - 1] == i + above_left - below_right, dot


REGISTRY_ROWS = verify_items("all", 5, 12)


@pytest.mark.parametrize("suite, identity, tag, check", REGISTRY_ROWS,
                         ids=[f"{s}-{i}-{t}" for s, i, t, _ in REGISTRY_ROWS])
def test_14_registry_check(suite, identity, tag, check):
    ok, detail = check()
    assert ok, detail


def test_15_registry_keeps_every_verify_row():
    bij = ["l=1,m=2,n=2", "l=1,m=2,n=3", "l=1,m=3,n=2",
           "l=2,m=2,n=1", "l=2,m=2,n=2", "l=2,m=3,n=2"]
    emb = ["l=1,m=3,n=2", "l=1,m=3,n=3", "l=2,m=2,n=2", "l=2,m=3,n=2"]
    tup = ["l=1,m=2,n=3", "l=1,m=3,n=2", "l=2,m=2,n=2"]
    boards = ["n<=5"]
    rows = {
        "bijection": {"varphi-bijective": bij, "st-identity": bij,
                      "tau-inversions": bij, "tau-offsets": bij},
        "dyck": {"inv-decomposition": bij, "split-validator": bij,
                 "path-up-set": bij[:2]},
        "embeddings": {"xi1": emb, "xi2": emb[:2]},
        "tuples": {"i-collections": tup, "k-collections": tup},
        "recurrences": dict.fromkeys(
            ("pinned-row", "free-row", "qtriple", "append-one",
             "shift1", "shift2", "split-pair", "six-term"), boards),
        "genocchi": {"sequence": boards},
    }
    expected = sorted((suite, identity, tag) for suite, by_identity in rows.items()
                      for identity, tags in by_identity.items() for tag in tags)
    assert len(expected) == 59
    assert sorted((s, i, t) for s, i, t, _ in REGISTRY_ROWS) == expected
