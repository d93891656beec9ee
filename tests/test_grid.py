"""Tests for the grid module.

The enumeration oracle here is deliberately dumb: take every combination of
window rows per column, glue columns together, and keep only the grids whose
row counts work out.  The production enumerator must agree with it exactly.
"""

import itertools
from collections import Counter

import pytest

from dellac.grid import (
    Config,
    ColumnCountViolation,
    Params,
    RowCountViolation,
    SwitchStep,
    WindowViolation,
    count_configs,
    dot_inversions,
    elementary_switch,
    enumerate_configs,
    fillings,
    highest,
    inv_highest,
    inv_lowest,
    inversions,
    labelling,
    lowest,
    replay_switches,
    switch_decomposition,
    tau_of,
    window_poly,
    word_of,
)
from dellac.qpoly import ONE, ZERO, QPoly

SMALL_PARAMS = [
    (1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 2, 4),
    (2, 2, 1), (2, 2, 2), (3, 2, 1),
    (1, 3, 1), (1, 3, 2), (2, 3, 1), (2, 3, 2),
    (1, 4, 1), (1, 4, 2), (2, 4, 1),
]

# Every parameter set with l*m*n <= 64 (516 of them): the label rule is
# cheap to check everywhere.
LABEL_PARAMS = [(l, m, n) for l in range(1, 33) for m in range(2, 64 // l + 1)
                for n in range(1, 64 // (l * m) + 1)]

# The worked 6x4 example used across several modules.
EXAMPLE_232 = Config(Params(2, 3, 2), ((1, 2, 5), (1, 4, 5), (3, 4, 6), (2, 3, 6)))


def brute_force_columns(p: Params):
    """Generate-and-filter oracle, independent of the production enumerator."""
    per_column = []
    for j in range(1, p.cols + 1):
        lo, hi = p.window(j)
        rows = range(lo, min(hi, p.rows) + 1)
        per_column.append(list(itertools.combinations(rows, p.m)))
    for cols in itertools.product(*per_column):
        counts = [0] * (p.rows + 1)
        for col in cols:
            for i in col:
                counts[i] += 1
        if all(c == p.l for c in counts[1:]):
            yield cols


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, 2, 1)
    with pytest.raises(ValueError):
        Params(1, 1, 1)
    with pytest.raises(ValueError):
        Params(1, 2, 0)


def test_window():
    p = Params(2, 3, 2)
    assert p.window(1) == (1, 5)
    assert p.window(2) == (1, 5)
    assert p.window(3) == (2, 6)
    assert p.window(4) == (2, 6)


def test_labels_even():
    assert [Params(2, 3, 2).label_of_row(i) for i in range(1, 7)] == [6, 8, 10, 1, 3, 5]
    assert [Params(2, 2, 3).label_of_row(i) for i in range(1, 7)] == [4, 6, 8, 1, 3, 5]
    assert [Params(1, 2, 2).label_of_row(i) for i in range(1, 5)] == [4, 6, 1, 3]


def test_labels_odd():
    assert [Params(1, 3, 1).label_of_row(i) for i in range(1, 4)] == [4, 1, 3]
    assert [Params(1, 3, 3).label_of_row(i) for i in range(1, 10)] == \
        [6, 8, 10, 12, 1, 3, 5, 7, 9]


@pytest.mark.parametrize("lmn", LABEL_PARAMS)
def test_label_bijection(lmn):
    p = Params(*lmn)
    labels = [p.label_of_row(i) for i in range(1, p.rows + 1)]
    assert len(set(labels)) == p.rows
    rows_by_label = p.rows_by_label()
    assert len(rows_by_label) == p.num_values + 1
    for i, e in enumerate(labels, start=1):
        assert 1 <= e <= p.num_values
        assert rows_by_label[e] == i
    for e in (0, *p.prefix_word(), *p.suffix_word()):
        assert rows_by_label[e] == 0
    for i in (0, p.rows + 1):
        with pytest.raises(ValueError):
            p.label_of_row(i)


def test_affix_words():
    p = Params(2, 3, 2)
    assert p.prefix_word() == (2, 2, 4, 4)
    assert p.suffix_word() == (7, 7, 9, 9)
    assert p.num_values == 10 and p.word_len == 20
    q = Params(1, 3, 1)
    assert q.prefix_word() == (2,)
    assert q.suffix_word() == ()
    assert q.num_values == 4 and q.word_len == 4


def test_labelling_needs_letters_of_both_parities_for_the_rows():
    assert labelling(3, 2) == ((2,), (4, 1, 3), ())   # Params(1, 3, 1)
    assert labelling(0, 1) == ((2,), (), (1,))
    with pytest.raises(ValueError):
        labelling(6, 2)


@pytest.mark.parametrize("lmn", LABEL_PARAMS)
def test_affixes_complete_the_alphabet(lmn):
    p = Params(*lmn)
    assert p.prefix_len + p.dots + p.suffix_len == p.word_len
    row_labels = [p.label_of_row(i) for i in range(1, p.rows + 1)]
    alphabet = sorted(p.prefix_word() + tuple(row_labels) * p.l + p.suffix_word())
    assert alphabet == sorted(
        v for v in range(1, p.num_values + 1) for _ in range(p.l))


def test_validation_errors():
    p = Params(1, 2, 2)
    with pytest.raises(ColumnCountViolation):
        Config(p, ((1, 2),))
    with pytest.raises(ColumnCountViolation):
        Config(p, ((2, 1), (2, 3)))
    with pytest.raises(WindowViolation):
        Config(p, ((1, 4), (2, 3)))
    with pytest.raises(RowCountViolation):
        Config(p, ((1, 2), (2, 3)))


def test_a_wrong_column_count_is_rejected_before_the_mask_is_built():
    before = Params.windows.cache_info()
    with pytest.raises(ColumnCountViolation):
        Config.from_json_dict({"l": 100_000, "m": 2, "n": 1, "columns": []})
    after = Params.windows.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_json_roundtrip():
    d = EXAMPLE_232.to_json_dict()
    assert d == {"l": 2, "m": 3, "n": 2,
                 "columns": [[1, 2, 5], [1, 4, 5], [3, 4, 6], [2, 3, 6]]}
    assert Config.from_json_dict(d) == EXAMPLE_232


def test_lowest_highest_232():
    p = Params(2, 3, 2)
    assert lowest(p).columns == ((1, 2, 3), (1, 2, 3), (4, 5, 6), (4, 5, 6))
    assert highest(p).columns == ((1, 4, 5), (1, 4, 5), (2, 3, 6), (2, 3, 6))
    assert inversions(lowest(p)) == inv_lowest(p) == 6
    assert inversions(highest(p)) == inv_highest(p) == 22


def test_example_223_inversions():
    # 9-inversion example on the 6x6 grid
    c = Config(Params(2, 2, 3),
               ((1, 3), (1, 3), (2, 4), (2, 5), (5, 6), (4, 6)))
    assert inversions(c) == 9


@pytest.mark.parametrize("lmn", SMALL_PARAMS)
def test_extremal_closed_forms(lmn):
    p = Params(*lmn)
    assert inversions(lowest(p)) == inv_lowest(p)
    assert inversions(highest(p)) == inv_highest(p)


@pytest.mark.parametrize("lmn,columns", [
    ((2, 3, 3), ((1, 2, 3), (1, 2, 4), (3, 4, 5),
                 (5, 6, 7), (6, 8, 9), (7, 8, 9))),
    ((3, 2, 3), ((1, 2), (1, 2), (1, 3), (2, 3), (3, 4),
                 (4, 5), (4, 6), (5, 6), (5, 6))),
])
def test_block_stack_is_not_always_the_minimum(lmn, columns):
    # Two staggered configurations sit one inversion below the block stack.
    # The transfer's lowest degree also undercuts it at (2,3,4), (3,2,4),
    # (2,4,3) and (4,2,3); the maximum side held everywhere.
    p = Params(*lmn)
    witness = Config(p, columns)
    assert inversions(witness) == inv_lowest(p) - 1 == 8
    if lmn == (3, 2, 3):  # small enough to confirm 8 is the global minimum
        assert min(inversions(c) for c in enumerate_configs(p)) == 8


@pytest.mark.parametrize("lmn", SMALL_PARAMS)
def test_enumeration_matches_bruteforce(lmn):
    p = Params(*lmn)
    mine = [c.columns for c in enumerate_configs(p)]
    oracle = sorted(brute_force_columns(p))
    assert mine == oracle
    assert mine == sorted(mine) and len(set(mine)) == len(mine)


def test_genocchi_counts():
    assert [count_configs(Params(1, 2, n)) for n in range(1, 6)] == \
        [1, 2, 7, 38, 295]


def tally(invs):
    """The polynomial with a q^k for each listed inversion count k."""
    counts = Counter(invs)
    return QPoly(counts[k] for k in range(max(counts, default=-1) + 1))


def test_transfer_matches_the_listed_fillings_on_every_small_grid():
    sets = [(l, m, n) for l in range(1, 13) for m in range(2, 13)
            for n in range(1, 13) if l * m * n <= 12]
    assert len(sets) == 39
    for lmn in sets:
        p = Params(*lmn)
        listed = tally(map(inversions, enumerate_configs(p)))
        assert window_poly(p.windows(), p.l, p.m) == listed, lmn
        assert count_configs(p) == listed.at_one(), lmn


def test_transfer_counts_grids_beyond_enumeration():
    # both agree with an independent transfer whose state holds every row
    assert count_configs(Params(2, 3, 4)) == 1_105_449_600
    assert count_configs(Params(3, 3, 3)) == 293_774_420


def test_transfer_rejects_masks_that_are_not_monotone():
    for windows in (((1, 4), (1, 3)),    # the upper end falls
                    ((2, 4), (1, 4)),    # the lower end falls
                    ((0, 4), (1, 4)),    # a window below row 1
                    ((1, 5), (1, 5))):   # a window above the last row
        with pytest.raises(ValueError):
            window_poly(windows, 1, 2)


def test_transfer_of_masks_without_fillings():
    assert window_poly((), 1, 2) == ONE
    for windows in (((1, 2), (1, 2)),    # rows 3 and 4 lie in no window
                    ((1, 1), (2, 4)),    # a window narrower than m
                    ((1, 2), (1, 2), (4, 6))):  # row 3 lies in no window
        assert window_poly(windows, 1, 2) == ZERO
        assert list(fillings(windows, 1, 2)) == []


def test_word_of_example():
    assert word_of(EXAMPLE_232) == (6, 8, 3, 6, 1, 3, 10, 1, 5, 8, 10, 5)


def test_tau_example():
    tau = tau_of(EXAMPLE_232)
    assert tau == (1, 4, 2, 10, 7, 11, 5, 8, 3, 6, 9, 12)
    inv_tau = sum(1 for a in range(len(tau)) for b in range(a + 1, len(tau))
                  if tau[a] > tau[b])
    assert inv_tau == inversions(EXAMPLE_232) == 19


@pytest.mark.parametrize("lmn", [(1, 2, 3), (2, 2, 2), (1, 3, 2)])
def test_tau_identities_exhaustive(lmn):
    p = Params(*lmn)
    for c in enumerate_configs(p):
        tau = tau_of(c)
        inv_tau = sum(1 for a in range(len(tau)) for b in range(a + 1, len(tau))
                      if tau[a] > tau[b])
        assert inv_tau == inversions(c)
        for i, dot in enumerate(c.dots_row_major(), start=1):
            above_left, below_right = dot_inversions(c, dot)
            assert tau[i - 1] == i + above_left - below_right


def test_elementary_switch_both_directions():
    p = Params(1, 2, 2)
    low = Config(p, ((1, 2), (3, 4)))
    high = Config(p, ((1, 3), (2, 4)))
    step = SwitchStep(2, 3, 1, 2)
    assert elementary_switch(high, step) == low
    assert elementary_switch(low, step) == high
    assert inversions(high) == inversions(low) + 1


def test_elementary_switch_rejects_blocked():
    p = Params(2, 2, 2)
    c = Config(p, ((1, 3), (1, 3), (2, 4), (2, 4)))
    # corners occupied
    assert elementary_switch(c, SwitchStep(1, 3, 1, 2)) is None
    # dot (3, 2) sits on the rectangle border: not a unit move
    assert elementary_switch(c, SwitchStep(2, 3, 1, 3)) is None
    # a genuine unit move
    flipped = elementary_switch(c, SwitchStep(2, 3, 2, 3))
    assert flipped is not None
    assert inversions(flipped) == inversions(c) - 1


@pytest.mark.parametrize("lmn", [(1, 2, 3), (2, 2, 2), (1, 3, 2), (2, 2, 1)])
def test_switch_decomposition_exhaustive(lmn):
    # at these parameters every configuration descends monotonically
    p = Params(*lmn)
    for c in enumerate_configs(p):
        steps = switch_decomposition(c)
        assert len(steps) == inversions(c) - inv_lowest(p)
        assert replay_switches(p, steps) == c


def test_switch_decomposition_232_needs_detours():
    # this configuration admits no falling unit switch at all, so its
    # staircase is strictly longer than the inversion difference
    p = EXAMPLE_232.params
    diff = inversions(EXAMPLE_232) - inv_lowest(p)
    steps = switch_decomposition(EXAMPLE_232)
    assert len(steps) > diff and (len(steps) - diff) % 2 == 0
    assert replay_switches(p, steps) == EXAMPLE_232


def switch_distances(p: Params) -> dict:
    """Breadth-first distance from ``lowest(p)`` to every configuration of
    ``p``, over every unit switch (each is its own inverse)."""
    steps = [SwitchStep(i1, i2, j1, j2)
             for i1, i2 in itertools.combinations(range(1, p.rows + 1), 2)
             for j1, j2 in itertools.combinations(range(1, p.cols + 1), 2)]
    frontier = [lowest(p)]
    dist = {frontier[0]: 0}
    while frontier:
        reached = []
        for c in frontier:
            for step in steps:
                nxt = elementary_switch(c, step)
                if nxt is not None and nxt not in dist:
                    dist[nxt] = dist[c] + 1
                    reached.append(nxt)
        frontier = reached
    return dist


@pytest.mark.parametrize("lmn", [(2, 3, 2), (2, 2, 3)])
def test_switch_decomposition_is_a_shortest_staircase(lmn):
    p = Params(*lmn)
    dist = switch_distances(p)
    configs = list(enumerate_configs(p))
    assert len(dist) == len(configs)
    for c in configs:
        assert len(switch_decomposition(c)) == dist[c]


def test_switch_decomposition_finds_the_monotone_staircase():
    # six falling switches reach the lowest configuration, but the first
    # falling switch in lexicographic order leads to a dead end
    c = Config(Params(2, 3, 2), ((1, 2, 3), (1, 4, 5), (2, 5, 6), (3, 4, 6)))
    assert inversions(c) - inv_lowest(c.params) == 6
    assert len(switch_decomposition(c)) == 6


@pytest.mark.parametrize("lmn", [(2, 3, 2), (2, 2, 3)])
def test_switch_decomposition_unit_steps_only(lmn):
    p = Params(*lmn)
    for c in list(enumerate_configs(p))[::7]:
        cur = c
        for step in switch_decomposition(c):
            nxt = elementary_switch(cur, step)
            assert nxt is not None
            assert abs(inversions(nxt) - inversions(cur)) == 1
            cur = nxt
        assert cur == lowest(p)
