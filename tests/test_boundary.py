"""Tests for boards with trimmed corners and their q-counting."""

import json
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest

from dellac.bijection import phi1, varphi
from dellac.grid import (
    ColumnCountViolation,
    Config,
    Params,
    RowCountViolation,
    WindowViolation,
    enumerate_configs,
    fillings,
    inversions,
    window_poly,
)
from dellac.boundary import (
    Board,
    HypothesisViolated,
    PartitionOutOfStaircase,
    boundary_st,
    boundary_st_check,
    count_boundary,
    enumerate_boundary,
    genocchi_numbers,
    max_inv,
    minus_one,
    normalize,
    oplus,
    partitions_in_staircase,
    q_partition_function,
    q_partition_function_dp,
    recurrence_suite,
    staircase,
    staircase_gap,
    verify_expansion_instance,
    verify_recurrence,
)
from dellac.qpoly import QPoly, q_binomial, q_int
from dellac.words import st_statistic


def from_top_dots(board, dots):
    """The board filled with (row-from-top, column) dots, the way the
    paper's figures give them."""
    cols = [[] for _ in range(board.n)]
    for i, j in dots:
        cols[j - 1].append(2 * board.n + 1 - i)
    return Config(board, tuple(tuple(sorted(c)) for c in cols))


def tally(invs):
    """The polynomial with a q^k for each listed inversion count k."""
    counts = Counter(invs)
    return QPoly(counts[k] for k in range(max(counts, default=-1) + 1))


# ---------------------------------------------------------------------------
# Partition helpers
# ---------------------------------------------------------------------------

def test_normalize_drops_zeros_and_checks_order():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))


def test_oplus_concatenates_and_validates():
    assert oplus((4, 3), (2,), (1, 1)) == (4, 3, 2, 1, 1)
    assert oplus((2,), 0, ()) == (2,)
    with pytest.raises(ValueError):
        oplus((1,), (2,))


def test_staircase_and_gaps():
    assert staircase(3) == (3, 2, 1)
    assert staircase(0) == ()
    assert staircase_gap(4, 2) == (4, 3, 1)
    assert staircase_gap(4, 0) == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        staircase_gap(3, 4)


def test_minus_one():
    assert minus_one((3, 1, 1)) == (2,)
    assert minus_one(()) == ()


def test_partitions_in_staircase_counts():
    # one more staircase row multiplies choices like a Catalan step
    assert sorted(partitions_in_staircase(1)) == [(), (1,)]
    assert len(list(partitions_in_staircase(2))) == 5
    assert len(list(partitions_in_staircase(4))) == 42
    got = set(partitions_in_staircase(3))
    assert (2, 1, 1) in got and (3, 2, 1) in got and (3, 3) not in got


# ---------------------------------------------------------------------------
# Boards and enumeration
# ---------------------------------------------------------------------------

def test_board_masks_are_built_once_per_boundary():
    assert Board(3, (2, 0), [2, 1]) == Board(3, (2,), (2, 1))
    assert Board(3, (2, 0), [2, 1]).windows() is Board(3, (2,), (2, 1)).windows()
    assert Board(3).windows() is Board(3, (), (2, 1)).windows()


def test_board_windows_of_the_running_example():
    # the top part 2 cuts row 6 from columns 1 and 2; the bottom parts 2
    # and 1 cut row 1 from columns 2 and 3 and row 2 from column 3
    assert Board(3, (2,), (2, 1)).windows() == ((1, 5), (2, 5), (3, 6))


def test_example_counts():
    assert count_boundary(3, (2,), (2, 1)) == 9
    assert count_boundary(1) == 1
    assert count_boundary(3, (2, 1), (2, 1)) == 7
    assert count_boundary(0) == 1


def test_figures_round_trip_through_top_based_dots():
    fig1 = ((1, 3), (2, 1), (3, 2), (4, 3), (5, 2), (6, 1))
    fig2 = ((1, 3), (2, 1), (3, 3), (4, 2), (5, 2), (6, 1))
    for dots, cols, inv in [(fig1, ((1, 5), (2, 4), (3, 6)), 4),
                            (fig2, ((1, 5), (2, 3), (4, 6)), 3)]:
        c = from_top_dots(Board(3, (2,), (2, 1)), dots)
        assert c.columns == cols
        assert inversions(c) == inv


def test_boards_round_trip_through_json():
    boards = list(enumerate_boundary(3, (2,), (2, 1)))
    assert len(boards) == 9
    for c in boards:
        doc = c.to_json_dict()
        assert doc["n"] == 3 and doc["top"] == [2] and doc["bottom"] == [2, 1]
        assert "l" not in doc and "m" not in doc
        back = Config.from_json_dict(json.loads(json.dumps(doc)))
        assert back == c and back.params.num_values == 10
    # the default bottom is written out as the staircase it stands for
    c = next(enumerate_boundary(3, (1,)))
    assert c.to_json_dict()["bottom"] == [2, 1]
    assert Config.from_json_dict(c.to_json_dict()) == c


def test_board_validation_rejects_bad_dots():
    with pytest.raises(ValueError):
        Config(Board(2, (), (1,)), ((1, 2), (1, 3)))   # row 1 twice
    with pytest.raises(ValueError):
        Config(Board(2, (), (1,)), ((2, 1), (3, 4)))   # not increasing
    with pytest.raises(ValueError):
        # row 4 is cut in column 1 by the top part 1
        Config(Board(2, (1,), (1,)), ((3, 4), (1, 2)))


def test_board_validation_raises_config_errors():
    with pytest.raises(RowCountViolation):
        Config(Board(2, (), ()), ((1, 2), (1, 3)))      # row 1 twice
    with pytest.raises(ColumnCountViolation):
        Config(Board(2, (), ()), ((2, 1), (3, 4)))      # not increasing
    with pytest.raises(WindowViolation):
        Config(Board(2, (1,), (1,)), ((3, 4), (1, 2)))  # row 4 cut in column 1


def test_boundaries_that_do_not_fit_raise():
    with pytest.raises(PartitionOutOfStaircase):
        list(enumerate_boundary(2, (3,)))
    with pytest.raises(PartitionOutOfStaircase):
        list(enumerate_boundary(3, (), (2, 1, 1)))
    # a part equal to n only kills a row, which empties the count
    assert count_boundary(2, (2,)) == 0
    # a top partition longer than n - 1 is still meaningful
    assert count_boundary(2, (1, 1)) == 1


def test_staircase_boundaries_match_the_square_grid_family():
    for n in range(1, 5):
        delta = staircase(n - 1)
        boards = {c.columns for c in enumerate_boundary(n, delta)}
        grids = {c.columns for c in enumerate_configs(Params(1, 2, n))}
        assert boards == grids


def fitting_partitions(max_part, max_len):
    """Every partition with parts at most max_part and at most max_len
    parts."""
    out = []

    def rec(prefix, cap):
        out.append(tuple(prefix))
        if len(prefix) < max_len:
            for p in range(cap, 0, -1):
                prefix.append(p)
                rec(prefix, p)
                prefix.pop()

    rec([], max_part)
    return out


def brute_force_boards(n, top, bottom):
    """(columns, inversions) of every board, sorted, found by placing one dot
    per row from the top down into any open column with room left."""
    top_cut = dict(enumerate(top, start=1))        # i-th highest row
    bottom_cut = dict(enumerate(bottom, start=1))  # r-th lowest row
    open_cols = {r: [j for j in range(1, n + 1)
                     if j > top_cut.get(2 * n + 1 - r, 0)
                     and j <= n - bottom_cut.get(r, 0)]
                 for r in range(1, 2 * n + 1)}
    cols = [[] for _ in range(n + 1)]
    found = []

    def place(r):
        if r == 0:
            columns = tuple(tuple(sorted(c)) for c in cols[1:])
            dots = [(i, j) for j, col in enumerate(columns) for i in col]
            inv = sum(1 for i, j in dots for i2, j2 in dots if j < j2 and i > i2)
            found.append((columns, inv))
            return
        for j in open_cols[r]:
            if len(cols[j]) < 2:
                cols[j].append(r)
                place(r - 1)
                cols[j].pop()

    place(2 * n)
    return sorted(found)


def test_board_masks_match_brute_force_on_every_boundary_up_to_four():
    # every top (parts <= n, at most 2n of them) against every bottom
    # (parts <= n, at most n - 1): parts equal to n, tops longer than n and
    # the empty n = 0 board included; the listing and the transfer both
    # against the brute force
    pairs = boards_seen = empty = 0
    for n in range(0, 5):
        for top in fitting_partitions(n, 2 * n):
            for bottom in fitting_partitions(n, max(n - 1, 0)):
                want = brute_force_boards(n, top, bottom)
                columns = [c for c, _ in want]
                invs = [inv for _, inv in want]
                mask = Board(n, top, bottom).windows()
                assert list(fillings(mask, 1, 2)) == columns, (n, top, bottom)
                assert window_poly(mask, 1, 2) == tally(invs), (n, top, bottom)
                pairs += 1
                boards_seen += len(want)
                empty += not want
    assert (pairs, boards_seen, empty) == (18214, 106141, 17089)
    assert brute_force_boards(0, (), ()) == [((), 0)]
    assert brute_force_boards(2, (2,), ()) == []


# ---------------------------------------------------------------------------
# q-partition functions
# ---------------------------------------------------------------------------

def test_polynomials_of_size_three():
    assert q_partition_function(3, (2, 1)).coeffs == (1, 2, 3, 1)
    assert q_partition_function(3, (2,)).coeffs == (1, 2, 3, 2, 1)
    assert q_partition_function(3, (1, 1)).coeffs == (1, 2, 4, 3, 2)
    assert q_partition_function(3, (1,)).coeffs == (1, 2, 4, 4, 3, 1)
    assert q_partition_function(3, ()).coeffs == (1, 2, 4, 4, 4, 2, 1)


def test_polynomials_of_size_two():
    assert q_partition_function(2, ()).coeffs == (1, 1, 1)
    assert q_partition_function(2, (1,)).coeffs == (1, 1)
    assert q_partition_function(2, (1, 1)).coeffs == (1,)
    assert q_partition_function(2, (2,)) == QPoly()


def test_the_size_three_list_is_a_negative_palindrome_witness():
    p = q_partition_function(3, (1, 1))
    assert p.coeffs != p.coeffs[::-1]
    assert p.coeffs[-1] == 2


def test_table_of_near_staircase_counts():
    table = {1: [1], 2: [2, 3], 3: [7, 9, 15], 4: [38, 45, 63, 111],
             5: [295, 333, 423, 621, 1131]}
    for n, row in table.items():
        got = [q_partition_function_dp(n, staircase_gap(n - 1, i)).at_one()
               for i in range(n)]
        assert got == row


def test_genocchi_numbers():
    assert genocchi_numbers(6) == [1, 2, 7, 38, 295, 3098]


def test_genocchi_numbers_by_direct_enumeration():
    for n in range(1, 6):
        assert count_boundary(n, staircase(n - 1)) == genocchi_numbers(n)[-1]


def test_genocchi_recurrence_from_the_gap_family():
    for n in range(2, 7):
        lhs = q_partition_function_dp(n, staircase(n - 1)).at_one()
        rhs = 2 * q_partition_function_dp(n - 1, staircase(n - 2)).at_one()
        rhs += sum(q_partition_function_dp(n - 1, staircase_gap(n - 2, i)).at_one()
                   for i in range(1, n - 1))
        assert lhs == rhs


def listed_poly(n, lam):
    """The staircase-bottom polynomial tallied from the listed boards."""
    return tally(map(inversions, enumerate_boundary(n, lam)))


def test_dp_agrees_with_enumeration_up_to_five():
    for n in range(0, 6):
        for lam in partitions_in_staircase(n - 1):
            assert listed_poly(n, lam) == q_partition_function_dp(n, lam)


def test_dp_agrees_with_enumeration_at_six_spots():
    for lam in [(), (1,), (3, 2), (5, 4, 3, 2, 1), (5, 4, 2, 1), (4, 4, 1, 1),
                (2, 2, 1, 1), (3, 1, 1), (5, 3, 1)]:
        assert listed_poly(6, lam) == q_partition_function_dp(6, lam)


def test_dp_equals_the_transfer_on_every_fitting_top_up_to_six():
    # every top the board takes (parts <= n, at most 2n of them), most of
    # them longer than the n + 1 rows the last column reaches
    tops = longer = 0
    for n in range(1, 7):
        for top in fitting_partitions(n, 2 * n):
            assert q_partition_function_dp(n, top) == q_partition_function(n, top), (n, top)
            tops += 1
            longer += len(top) > n + 1
    assert (tops, longer) == (22164, 19812)


def test_transfer_agrees_with_the_dp_up_to_eight():
    for n in range(1, 9):
        for lam in partitions_in_staircase(n - 1):
            assert q_partition_function(n, lam) == q_partition_function_dp(n, lam), (n, lam)


@pytest.mark.parametrize("n", range(9, 13))
def test_transfer_agrees_with_the_dp_from_nine_to_twelve(n):
    # the staircase top, and one top through each branch of the expansion:
    # first part n - 1 (pinned row) and first part n - 2 (free row)
    for top in (staircase(n - 1), staircase_gap(n - 1, n // 2),
                staircase(n - 2) + (1,)):
        assert q_partition_function(n, top) == q_partition_function_dp(n, top), top
    if n == 9:  # the median Genocchi number (OEIS A000366)
        assert q_partition_function_dp(9, staircase(8)).at_one() == 15_366_679


def test_empty_top_closed_form():
    # staircase bottom, nothing cut from the top: prod_{k=2..n} [k+1 choose 2]_q
    at_one = []
    for n in range(1, 9):
        closed = prod((q_binomial(k + 1, 2) for k in range(2, n + 1)), start=QPoly((1,)))
        assert closed == q_partition_function_dp(n) == q_partition_function(n), n
        at_one.append(closed.at_one())
    assert at_one == [1, 3, 18, 180, 2700, 56700, 1587600, 57153600]


def test_max_inv_matches_degree_on_clean_partitions():
    # holds whenever no value is tripled and no two consecutive values are
    # both doubled; the excluded shapes genuinely exceed the formula
    def clean(lam):
        if any(lam.count(v) > 2 for v in set(lam)):
            return False
        doubled = {v for v in set(lam) if lam.count(v) == 2}
        return not any(v + 1 in doubled for v in doubled)

    for n in range(1, 6):
        for lam in partitions_in_staircase(n - 1):
            if clean(lam):
                assert q_partition_function_dp(n, lam).degree == max_inv(n, lam)
    assert max_inv(3, (2, 1)) == 3
    assert max_inv(3, ()) == 6
    assert max_inv(1, ()) == 0


def test_max_inv_counterexamples_stay_on_record():
    assert q_partition_function_dp(4, (1, 1, 1)).degree == 10
    assert max_inv(4, (1, 1, 1)) == 9
    assert q_partition_function_dp(5, (2, 2, 1, 1)).degree == 15
    assert max_inv(5, (2, 2, 1, 1)) == 14


# ---------------------------------------------------------------------------
# The boundary word and its statistic
# ---------------------------------------------------------------------------

def test_board_alphabet_follows_the_widest_window():
    # twice the height of the widest window: n + 1 plus the column slack
    assert Board(3, (2,), (2, 1)).num_values == 10   # slack 1
    assert Board(3, (2, 1)).num_values == 8          # both boundaries staircases
    assert Board(3).num_values == 12                 # an empty top frees two rows
    assert Board(0).num_values == 2                  # the empty board has no column
    assert Board(3, (2,), (2, 1)).labelling() == ((2, 4), (6, 8, 10, 1, 3, 5), (7, 9))


def test_sigma_word_of_the_first_figure():
    c = from_top_dots(Board(3, (2,), (2, 1)),
                      ((1, 3), (2, 1), (3, 2), (4, 3), (5, 2), (6, 1)))
    assert phi1(c) == (2, 4, 6, 3, 8, 1, 10, 5, 7, 9)
    assert boundary_st(c) == 6
    assert inversions(c) == 4           # st + inv = C(5, 2)


def test_sigma_word_is_a_permutation():
    for n, top, bottom in [(3, (2,), (2, 1)), (2, (), ()), (3, (1,), None)]:
        for c in enumerate_boundary(n, top, bottom):
            word = phi1(c)
            assert sorted(word) == list(range(1, len(word) + 1))


@pytest.mark.parametrize("n", range(1, 6))
def test_staircase_board_words_are_the_square_grid_words(n):
    # the staircase board and the (1, 2, n) grid are one labelled shape, so
    # they share the board word and st, the grid's st read off its
    # normalized Dumont permutation
    board, grid = Board(n, staircase(n - 1)), Params(1, 2, n)
    boards = {c.columns: c for c in enumerate_configs(board)}
    grids = list(enumerate_configs(grid))
    assert sorted(boards) == [g.columns for g in grids]
    for g in grids:
        b = boards[g.columns]
        assert phi1(b) == phi1(g)
        assert boundary_st(b) == st_statistic(varphi(g), grid)


def test_st_check_across_boundaries():
    cases = [(0, (), None), (1, (), None), (2, (), None), (3, (), None),
             (3, (2,), (2, 1)), (3, (1, 1), None), (2, (1,), (1,)),
             (3, (2, 1), (1,)), (4, (2,), (3, 1)), (3, (), ()),
             (4, (3, 1), None)]
    for n, top, bottom in cases:
        for c in enumerate_boundary(n, top, bottom):
            assert boundary_st_check(c)


def test_st_of_the_single_tiny_board():
    (c,) = enumerate_boundary(1)
    assert boundary_st(c) == comb(len(phi1(c)) // 2, 2)
    assert inversions(c) == 0


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------

def test_pinned_row_instance():
    r = verify_recurrence("pinned-row", 2, lam=(1,))
    assert r.ok and r.lhs.coeffs == (1, 1)


def test_free_row_expands_the_empty_partition():
    r = verify_recurrence("free-row", 2, lam=())
    assert r.ok and r.lhs == q_int(3)


def test_qtriple_instance_of_size_three():
    r = verify_recurrence("qtriple", 3, lam=())
    assert r.ok
    assert r.rhs == q_int(3) * q_int(3)
    assert (q_partition_function(3, (2, 1))
            + q_partition_function(2, (1,)).shifted(3)) == r.rhs


def test_split_pair_base_case():
    r = verify_recurrence("split-pair", 2, lam=(), m=1, nu=())
    assert r.ok and r.lhs == QPoly((1,))


def test_append_one_flags_double_units():
    with pytest.raises(HypothesisViolated):
        verify_recurrence("append-one", 4, lam=(2, 1, 1))


def test_shift1_requires_empty_tail():
    with pytest.raises(HypothesisViolated):
        verify_recurrence("shift1", 4, lam=(), m=2, nu=(1,))


def test_shift_hypotheses_are_checked():
    with pytest.raises(HypothesisViolated):
        verify_recurrence("shift2", 4, lam=(2,), m=2, nu=())
    with pytest.raises(HypothesisViolated):
        verify_recurrence("split-pair", 4, lam=(3,), m=1, nu=(2,))
    with pytest.raises(HypothesisViolated):
        verify_recurrence("shift2", 4, lam=())    # no moved part given
    with pytest.raises(ValueError):
        verify_recurrence("no-such-identity", 3)


def test_pinned_row_needs_a_full_first_part():
    with pytest.raises(HypothesisViolated):
        verify_recurrence("pinned-row", 3, lam=(1,))
    with pytest.raises(HypothesisViolated):
        verify_recurrence("free-row", 3, lam=(2,))


def test_recurrence_suite_holds_up_to_four():
    reports = list(recurrence_suite(4))
    assert reports and all(r.ok for r in reports)
    assert {r.identity for r in reports} == {
        "pinned-row", "free-row", "qtriple", "append-one", "shift1",
        "shift2", "split-pair", "six-term"}


def test_six_term_instance():
    r = verify_recurrence("six-term", 4, lam=(2,), nu=(1,))
    assert r.ok


def test_recurrence_spot_checks_at_six():
    spots = [("pinned-row", 6, {"lam": (5, 4, 3, 2, 1)}),
             ("free-row", 6, {"lam": (4, 3, 2, 1)}),
             ("qtriple", 6, {"lam": (3, 2)}),
             ("append-one", 6, {"lam": (5, 4, 3, 2, 1)}),
             ("shift1", 6, {"lam": (5, 4), "m": 3, "nu": ()}),
             ("shift2", 6, {"lam": (5, 4), "m": 3, "nu": (2, 1)}),
             ("split-pair", 6, {"lam": (5,), "m": 2, "nu": (1,)}),
             ("six-term", 6, {"lam": (4, 3), "nu": (2, 1)})]
    for name, n, args in spots:
        assert verify_recurrence(name, n, **args).ok, (name, args)


# ---------------------------------------------------------------------------
# Rational expansion instances
# ---------------------------------------------------------------------------

def test_small_expansion_instances():
    assert q_partition_function_dp(4, (3, 1)).at_one() == 63
    assert verify_expansion_instance((4, (3, 1)), [(3, 3, (1,)), (1, 3, ())])
    assert verify_expansion_instance(
        (2, ()), [(Fraction(1, 3), 3, (2, 1)), (Fraction(1, 3), 2, (1,))])


def test_degree_five_expansion():
    assert verify_expansion_instance(
        (5, (1,)),
        [(Fraction(1, 30), 7, (6, 5, 4, 3, 1)),
         (Fraction(1, 6), 6, (5, 4, 3, 1)),
         (Fraction(7, 30), 5, (4, 3, 1)),
         (Fraction(1, 10), 4, (3, 1))])


def test_expansion_instances_can_fail():
    assert not verify_expansion_instance((4, (3, 1)), [(1, 3, ())])
