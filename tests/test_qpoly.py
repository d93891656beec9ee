"""Tests for the exact q-polynomial arithmetic."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dellac.qpoly import ONE, ZERO, QPoly, q_binomial, q_int, shifted_sum


def test_trailing_zeros_are_stripped():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).coeffs == ()
    assert QPoly() == ZERO
    assert not ZERO
    assert ONE.coeffs == (1,)


def test_equality_against_ints():
    assert QPoly((5,)) == 5
    assert ZERO == 0
    assert QPoly((1, 1)) != 2


def test_degree_and_value_at_one():
    assert ZERO.degree == -1
    assert QPoly((1, 2, 3)).degree == 2
    assert QPoly((1, 2, 3)).at_one() == 6


def test_addition_and_subtraction():
    a = QPoly((1, 2))
    b = QPoly((0, 1, 4))
    assert (a + b).coeffs == (1, 3, 4)
    assert (a - a) == ZERO
    assert (b - a).coeffs == (-1, -1, 4)


def test_multiplication():
    assert (QPoly((1, 1)) * QPoly((1, 1))).coeffs == (1, 2, 1)
    assert (QPoly((1, 2)) * 3).coeffs == (3, 6)
    assert (2 * QPoly((0, 1))).coeffs == (0, 2)
    assert QPoly((1, 5)) * ZERO == ZERO


def test_shifted():
    assert QPoly((1, 2)).shifted(2).coeffs == (0, 0, 1, 2)
    assert ZERO.shifted(3) == ZERO
    with pytest.raises(ValueError):
        QPoly((1,)).shifted(-1)
    with pytest.raises(ValueError):
        QPoly.monomial(-2)


def test_shifted_sum_edge_cases():
    assert shifted_sum([]) == ZERO
    assert shifted_sum([(ZERO, 4), (ZERO, 0)]) == ZERO
    assert shifted_sum([(QPoly((1, 2)), 0)]).coeffs == (1, 2)
    # the high coefficients cancel, and the result is trimmed
    assert shifted_sum([(QPoly((1, 2, 3)), 1), (QPoly((0, -3)), 2)]).coeffs == (0, 1, 2)
    assert shifted_sum([(QPoly((0, 5)), 1), (QPoly((-5,)), 2)]) == ZERO
    with pytest.raises(ValueError):
        shifted_sum([(ONE, -1)])


polys = st.lists(st.integers(-4, 4), max_size=5).map(QPoly)


@given(st.lists(st.tuples(polys, st.integers(0, 6)), max_size=8))
def test_shifted_sum_is_the_fold_of_shifts(terms):
    folded = ZERO
    for p, k in terms:
        folded = folded + p.shifted(k)
    total = shifted_sum(terms)
    assert total == folded
    assert total.coeffs == folded.coeffs and total.coeffs[-1:] != (0,)


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(QPoly((1, 2, 0, 1))) == "1 + 2*q + q^3"
    assert str(QPoly((0, -1))) == "-q"


def test_q_int():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3).coeffs == (1, 1, 1)
    assert (q_int(3) * q_int(3)).coeffs == (1, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_binomial_small_table():
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(3, 1) == q_int(3)
    assert q_binomial(5, 0) == ONE
    assert q_binomial(2, 5) == ZERO


@given(st.integers(0, 9), st.integers(0, 9))
def test_q_binomial_specializes_to_binomial(n, k):
    assert q_binomial(n, k).at_one() == comb(n, k)
    if k <= n:
        assert q_binomial(n, k) == q_binomial(n, n - k)


@given(st.lists(st.integers(-6, 6), max_size=6),
       st.lists(st.integers(-6, 6), max_size=6),
       st.lists(st.integers(-6, 6), max_size=6))
def test_ring_laws(xs, ys, zs):
    a, b, c = QPoly(xs), QPoly(ys), QPoly(zs)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b).at_one() == a.at_one() + b.at_one()
    assert (a * b).at_one() == a.at_one() * b.at_one()
