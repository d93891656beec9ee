"""The oracle against brute force at sizes small enough to list everything.

    python3 -m pytest -q bench/test_oracle.py
"""

from itertools import combinations, product

import pytest

import oracle


def tally(configs):
    """Inversion polynomial of an iterable of column tuples."""
    counts = {}
    for columns in configs:
        k = oracle.config_inversions(columns)
        counts[k] = counts.get(k, 0) + 1
    return tuple(counts.get(k, 0) for k in range(max(counts) + 1)) if counts else ()


def brute_grid_poly(l, m, n):
    """Every choice of m window rows per column, kept when each row ends
    up with l dots."""
    choices = []
    for j in range(1, l * n + 1):
        lo, hi = oracle.grid_window(l, m, n, j)
        choices.append(list(combinations(range(lo, hi + 1), m)))

    def rows_full(columns):
        per_row = [0] * (m * n + 1)
        for col in columns:
            for i in col:
                per_row[i] += 1
        return all(c == l for c in per_row[1:])

    return tally(c for c in product(*choices) if rows_full(c))


def brute_board_poly(n, top=(), bottom=None):
    """Every choice of two allowed rows per column, kept when no row is
    used twice."""
    choices = [list(combinations(rows, 2)) for rows in oracle.board_allowed(n, top, bottom)]
    return tally(c for c in product(*choices)
                 if len({r for col in c for r in col}) == 2 * n)


def partitions_inside(k):
    """Weakly decreasing positive tuples with i-th part at most k + 1 - i."""
    def rec(prefix, cap):
        yield tuple(prefix)
        for p in range(min(cap, k - len(prefix)), 0, -1):
            yield from rec(prefix + [p], p)
    return list(rec([], k))


def brute_force_size(l, m, n):
    size = 1
    for j in range(1, l * n + 1):
        lo, hi = oracle.grid_window(l, m, n, j)
        size *= len(list(combinations(range(lo, hi + 1), m)))
    return size


GRIDS = [(l, m, n) for l in range(1, 5) for m in range(2, 7) for n in range(1, 5)
         if l * m * n <= 12 and brute_force_size(l, m, n) <= 100_000]


@pytest.mark.parametrize("lmn", GRIDS)
def test_grid_poly_matches_brute_force(lmn):
    assert oracle.grid_poly(*lmn) == brute_grid_poly(*lmn)


@pytest.mark.parametrize("n", range(1, 5))
def test_board_poly_matches_brute_force_for_every_top(n):
    for top in partitions_inside(n - 1):
        assert oracle.board_poly(n, top) == brute_board_poly(n, top), top


@pytest.mark.parametrize("bottom", [(), (1,), (2,), (1, 1), (2, 1), (3,), (3, 2), (2, 2)])
@pytest.mark.parametrize("top", [(), (1,), (2, 1), (3, 1, 1)])
def test_board_poly_matches_brute_force_off_the_staircase(top, bottom):
    assert oracle.board_poly(4, top, bottom) == brute_board_poly(4, top, bottom)


@pytest.mark.parametrize("n", range(1, 6))
def test_closed_form_and_staircase_boards(n):
    assert oracle.empty_top_closed_form(n) == brute_board_poly(n)
    staircase = oracle.staircase(n - 1)
    assert oracle.board_poly(n, staircase) == brute_board_poly(n, staircase)
    assert oracle.board_poly(n, staircase) == oracle.grid_poly(1, 2, n)


def test_closed_form_agrees_with_the_board_dp_further_out():
    for n in range(6, 10):
        assert oracle.empty_top_closed_form(n) == oracle.board_poly(n)


def test_a000366_prefix():
    assert oracle.A000366[:5] == tuple(sum(brute_grid_poly(1, 2, n)) for n in range(1, 6))
    assert oracle.A000366 == tuple(oracle.grid_count(1, 2, n) for n in range(1, 10))
    assert oracle.A000366[:7] == tuple(sum(oracle.board_poly(n, oracle.staircase(n - 1)))
                                       for n in range(1, 8))


def test_q_binomial_small_values():
    assert oracle.q_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert oracle.q_binomial(3, 0) == (1,)
    assert oracle.q_binomial(3, 4) == ()


def test_config_inversions_counts_strictly_up_left_pairs():
    # dots (1,1), (2,2) and (3,1): only (3,1) is above-left of (2,2)
    assert oracle.config_inversions(((1, 3), (2,))) == 1
    assert oracle.config_inversions(((1,), (2,))) == 0
