"""Grid model for generalized Dellac configurations.

Conventions used throughout the package:

* The grid for parameters (l, m, n) has l*n columns and m*n rows.
* Rows are numbered 1..m*n from bottom to top, columns 1..l*n from left to
  right; a cell is written (row, col).
* A configuration places exactly l dots in every row and m dots in every
  column, and a dot in column j must satisfy
  ceil(j/l) <= row <= ceil(j/l) + (m-1)*n (the staircase window).
* Column-major dot order: columns left to right, inside a column bottom to
  top.  Row-major dot order: rows bottom to top, inside a row left to right.

Window masks.  Grids and the boards of ``boundary`` are one object: a mask
of one inclusive (lo, hi) row window per column, a row capacity l and a
column size m.  A filling of the mask puts m dots in every column, inside
its window, and l dots in every row.  ``Params.windows()`` builds the
staircase mask of a grid and ``boundary.Board.windows()`` the mask of a
board with trimmed corners (l = 1, m = 2).  Both are ``Shape``s, and a
``Config`` is a filling of either: ``check_columns`` validates it, and
``inversions`` counts its inversions with ``inv_word``, the package's one
inversion counter.

Labels.  One rule, ``labelling(rows, half)``, gives every shape its row
labels and affix letters over [2 * half]: the even letters fill the prefix,
then rows 1 .. rows // 2; the odd letters fill the other rows from the
bottom, then the suffix.  A grid's half is ``num_values / 2`` (the one place
where the parity of m*n matters), a board's the height of its widest window.

Listing and counting.  ``fillings`` lists the fillings of any mask, for
``inversions`` to count one by one; it serves only where a listing is the
output (``enumerate_configs``, ``boundary.enumerate_boundary``).  Every
count and q-count goes through ``window_poly``, the transfer-matrix method
(Stanley, EC1 4.7): it scans the columns once, keeping per state the
capacity left in each row of the current window, and returns the sum of
q^inv over all fillings without listing them.  Its domain is the monotone
masks, whose window ends never fall from one column to the next; grid and
board masks all are, and any other mask raises ValueError.
``count_configs`` is its value at q = 1.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod
from typing import Iterator, Optional, Sequence

from .qpoly import ONE, ZERO, QPoly

Columns = tuple[tuple[int, ...], ...]
Windows = tuple[tuple[int, int], ...]


class ConfigError(ValueError):
    """Base class for configuration validation failures."""


class RowCountViolation(ConfigError):
    """Some row does not contain exactly l dots."""


class ColumnCountViolation(ConfigError):
    """Wrong number of columns, or a column is not m strictly increasing rows."""


class WindowViolation(ConfigError):
    """A dot lies outside the staircase window of its column."""


@lru_cache(maxsize=None)
def labelling(rows: int, half: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                             tuple[int, ...]]:
    """The label convention: (prefix letters, labels of rows 1 .. rows,
    suffix letters), which together use each letter of [2 * half] once.

    The even letters go in increasing order first to the prefix, then to
    rows 1 .. rows // 2; the odd letters go to the remaining rows from the
    bottom, then to the suffix.  Raises ValueError when the alphabet has too
    few letters of either parity for the rows.
    """
    low = rows // 2  # the rows that take even letters
    if rows - low > half:
        raise ValueError(f"{2 * half} letters cannot label {rows} rows")
    evens = range(2, 2 * half + 1, 2)
    odds = range(1, 2 * half, 2)
    cut = half - low
    return (tuple(evens[:cut]), (*evens[cut:], *odds[:rows - low]),
            tuple(odds[rows - low:]))


class Shape:
    """Row labels and the affixes that turn the label word of a filled mask
    into a generalized permutation (``bijection.phi1``).

    A subclass gives ``rows``, the row capacity ``l`` and the alphabet size
    ``num_values``; ``labelling`` fixes the rest.  Every letter of
    [1 .. num_values] occurs exactly l times in prefix * word * suffix.
    """

    def labelling(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return labelling(self.rows, self.num_values // 2)

    @property
    def word_len(self) -> int:
        """Length L of the full generalized permutation."""
        return self.l * self.num_values

    def rows_by_label(self) -> list[int]:
        """Entry e is the row labelled e, or 0 when e is an affix letter."""
        table = [0] * (self.num_values + 1)
        for i, e in enumerate(self.labelling()[1], start=1):
            table[e] = i
        return table

    def label_of_row(self, i: int) -> int:
        """Label attached to every dot in row i."""
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} out of range 1..{self.rows}")
        return self.labelling()[1][i - 1]

    def prefix_word(self) -> tuple[int, ...]:
        """Fixed word w1 prepended to the configuration word."""
        return tuple(v for v in self.labelling()[0] for _ in range(self.l))

    def suffix_word(self) -> tuple[int, ...]:
        """Fixed word w2 appended to the configuration word."""
        return tuple(v for v in self.labelling()[2] for _ in range(self.l))

    @property
    def prefix_len(self) -> int:
        return self.l * len(self.labelling()[0])

    @property
    def suffix_len(self) -> int:
        return self.l * len(self.labelling()[2])


@dataclass(frozen=True, order=True)
class Params(Shape):
    """Size and type of a configuration grid: l dots per row, m per column,
    size parameter n."""

    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.l < 1 or self.m < 2 or self.n < 1:
            raise ValueError(f"need l >= 1, m >= 2, n >= 1, got {self}")

    @property
    def cols(self) -> int:
        return self.l * self.n

    @property
    def rows(self) -> int:
        return self.m * self.n

    @property
    def dots(self) -> int:
        return self.l * self.m * self.n

    def window(self, j: int) -> tuple[int, int]:
        """Inclusive row range allowed for dots in column j."""
        lo = (j + self.l - 1) // self.l
        return lo, lo + (self.m - 1) * self.n

    # Every Config validates against this mask.  Params is an immutable
    # value, so equal instances share one entry: one mask per (l, m, n).
    @lru_cache(maxsize=None)
    def windows(self) -> Windows:
        """The grid's window mask: ``window(j)`` for every column j."""
        return tuple(self.window(j) for j in range(1, self.cols + 1))

    @property
    def num_values(self) -> int:
        """Number of distinct letters in the label alphabet (= L / l)."""
        if (self.m * self.n) % 2 == 0:
            return 2 * (self.n * (self.m - 1) + 1)
        return 2 * self.n * (self.m - 1)


@dataclass(frozen=True)
class Config:
    """A dot configuration, stored as one row tuple per column.

    ``columns[j-1]`` lists the rows of the m dots in column j, strictly
    increasing (bottom to top).  ``params`` is the labelled mask it fills: a
    grid's ``Params`` or a ``boundary.Board``.
    """

    params: Shape
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cols = tuple(tuple(c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        p = self.params
        check_columns(cols, p.windows(), p.l, p.m)

    # -- dot orders ----------------------------------------------------

    def dots_column_major(self) -> list[tuple[int, int]]:
        """(row, col) pairs, columns left to right, bottom to top inside."""
        return [(i, j) for j, col in enumerate(self.columns, start=1) for i in col]

    def dots_row_major(self) -> list[tuple[int, int]]:
        """(row, col) pairs, rows bottom to top, left to right inside."""
        out = [(i, j) for j, col in enumerate(self.columns, start=1) for i in col]
        out.sort()
        return out

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """The columns and their shape: l, m and n for a grid, n, top and
        bottom for a board."""
        p = self.params
        shape = ({"l": p.l, "m": p.m, "n": p.n} if isinstance(p, Params)
                 else {"n": p.n, "top": list(p.top), "bottom": list(p.bottom)})
        return {**shape, "columns": [list(c) for c in self.columns]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Config":
        """Inverse of ``to_json_dict``: a document with ``top`` is a board."""
        if "top" in d:
            from .boundary import Board  # boundary imports this module
            p: Shape = Board(int(d["n"]), tuple(int(t) for t in d["top"]),
                             tuple(int(b) for b in d["bottom"]))
        else:
            p = Params(int(d["l"]), int(d["m"]), int(d["n"]))
        return cls(p, tuple(tuple(int(i) for i in c) for c in d["columns"]))


def check_columns(columns: Sequence[Sequence[int]], windows: Windows,
                  l: int, m: int) -> None:
    """Raise a ConfigError unless ``columns`` fills the window mask: one
    column per window, m strictly increasing rows inside each window, and l
    dots in each of the len(windows) * m / l rows."""
    if len(columns) != len(windows):
        raise ColumnCountViolation(
            f"expected {len(windows)} columns, got {len(columns)}")
    rows = len(windows) * m // l
    row_count = [0] * (rows + 1)
    for j, (col, (lo, hi)) in enumerate(zip(columns, windows), start=1):
        if len(col) != m or any(a >= b for a, b in zip(col, col[1:])):
            raise ColumnCountViolation(
                f"column {j} must be {m} strictly increasing rows, got {col}")
        for i in col:
            if not lo <= i <= hi:
                raise WindowViolation(
                    f"dot ({i},{j}) outside window {lo}..{hi}")
            row_count[i] += 1
    for i in range(1, rows + 1):
        if row_count[i] != l:
            raise RowCountViolation(
                f"row {i} holds {row_count[i]} dots, expected {l}")


def inv_word(word) -> int:
    """Number of inversions of a word: position pairs a < b with
    word[a] > word[b]."""
    seen: list[int] = []  # the letters before the current one, sorted
    total = 0
    for k, v in enumerate(word):
        total += k - bisect_right(seen, v)
        insort(seen, v)
    return total


def inversions(c) -> int:
    """Number of dot pairs with one dot strictly higher and strictly to the
    left of the other.

    The inversions of the rows read column by column, bottom to top: rows
    increase inside a column, so no pair from one column counts.  Reads
    only ``c.columns``, so it counts grid configurations and boards alike.
    """
    return inv_word([i for col in c.columns for i in col])


def dot_inversions(c: Config, dot: tuple[int, int]) -> tuple[int, int]:
    """Inversions of one dot split by direction.

    Returns (above_left, below_right): the number of dots strictly above and
    strictly left of ``dot``, and strictly below and strictly right of it.
    """
    i0, j0 = dot
    above_left = below_right = 0
    for i, j in c.dots_column_major():
        if i > i0 and j < j0:
            above_left += 1
        elif i < i0 and j > j0:
            below_right += 1
    return above_left, below_right


# ---------------------------------------------------------------------------
# Extremal configurations
# ---------------------------------------------------------------------------

def lowest(params: Params) -> Config:
    """The block-stacked configuration: column p*l+q fills the contiguous
    row block p*m+1 .. (p+1)*m.

    Its inversion count is the ``inv_lowest`` closed form.  It attains the
    minimum uniquely on every enumerable parameter set except (2,3,3) and
    (3,2,3), where one staggered configuration undercuts it by a single
    inversion; see the extremal tests for the witnesses.
    """
    cols = []
    for j in range(1, params.cols + 1):
        p = (j - 1) // params.l
        cols.append(tuple(range(p * params.m + 1, (p + 1) * params.m + 1)))
    return Config(params, tuple(cols))


def highest(params: Params) -> Config:
    """The three-band configuration: a bottom and a top diagonal band plus
    stacked middle blocks in reverse column order.

    Its inversion count is the ``inv_highest`` closed form; it is the
    unique inversion maximum on every parameter set small enough to
    enumerate.
    """
    l, m, n = params.l, params.m, params.n
    cols: list[list[int]] = [[] for _ in range(params.cols)]
    for j in range(1, params.cols + 1):
        block = (j + l - 1) // l  # ceil(j/l)
        cols[j - 1].append(block)
        cols[j - 1].append((m - 1) * n + block)
    for k in range(n):
        for i in range(n + k * (m - 2) + 1, n + (k + 1) * (m - 2) + 1):
            for j in range(1, params.cols + 1):
                if (j + l - 1) // l == n - k:
                    cols[j - 1].append(i)
    return Config(params, tuple(tuple(sorted(c)) for c in cols))


def inv_lowest(params: Params) -> int:
    """Closed form for the inversion count of ``lowest(params)``."""
    return params.n * comb(params.m, 2) * comb(params.l, 2)


def inv_highest(params: Params) -> int:
    """Closed form for the inversion count of ``highest(params)``."""
    l, m, n = params.l, params.m, params.n
    return (comb(n * l, 2) * (m - 1)
            + l * l * comb(n, 2) * (m - 1) * (m - 2)
            + n * comb(l, 2) * comb(m - 1, 2))


# ---------------------------------------------------------------------------
# Words and the dot permutation
# ---------------------------------------------------------------------------

def word_of(c: Config) -> tuple[int, ...]:
    """Row labels of the dots read in column-major order."""
    labels = c.params.labelling()[1]
    return tuple(labels[i - 1] for col in c.columns for i in col)


def tau_of(c: Config) -> tuple[int, ...]:
    """Dot permutation: column-major dot numbers read in row-major order."""
    index = {dot: k for k, dot in enumerate(c.dots_column_major(), start=1)}
    return tuple(index[dot] for dot in c.dots_row_major())


# ---------------------------------------------------------------------------
# Elementary switches
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class SwitchStep:
    """A unit two-dot exchange on the rectangle (low_row, high_row) x
    (low_col, high_col)."""

    low_row: int
    high_row: int
    low_col: int
    high_col: int


def elementary_switch(c: Config, step: SwitchStep) -> Optional[Config]:
    """Apply a unit switch; return the new configuration or None.

    The rectangle corners must hold exactly two dots, either on the falling
    diagonal (dots at (low_row, high_col) and (high_row, low_col); the switch
    removes one inversion) or on the rising diagonal (adds one).  The border
    and interior of the rectangle must be free of dots so the inversion count
    changes by exactly one, and the moved dots must stay inside their column
    windows.
    """
    i1, i2, j1, j2 = step.low_row, step.high_row, step.low_col, step.high_col
    if not (i1 < i2 and j1 < j2):
        return None
    p = c.params
    if not (1 <= j1 and j2 <= p.cols and 1 <= i1 and i2 <= p.rows):
        return None
    col1, col2 = set(c.columns[j1 - 1]), set(c.columns[j2 - 1])
    falling = i2 in col1 and i1 in col2 and i1 not in col1 and i2 not in col2
    rising = i1 in col1 and i2 in col2 and i2 not in col1 and i1 not in col2
    if not (falling or rising):
        return None
    # unit condition: nothing strictly inside the rectangle or on the open
    # borders between the corners
    for i, j in c.dots_column_major():
        strictly_between_rows = i1 < i < i2
        strictly_between_cols = j1 < j < j2
        if (strictly_between_rows and j1 <= j <= j2) or \
           (strictly_between_cols and i in (i1, i2)):
            return None
    lo1, hi1 = p.window(j1)
    lo2, hi2 = p.window(j2)
    if falling:
        new1, new2 = i1, i2   # column j1 gains i1, column j2 gains i2
    else:
        new1, new2 = i2, i1
    if not (lo1 <= new1 <= hi1 and lo2 <= new2 <= hi2):
        return None
    cols = list(c.columns)
    if falling:
        cols[j1 - 1] = tuple(sorted(col1 - {i2} | {i1}))
        cols[j2 - 1] = tuple(sorted(col2 - {i1} | {i2}))
    else:
        cols[j1 - 1] = tuple(sorted(col1 - {i1} | {i2}))
        cols[j2 - 1] = tuple(sorted(col2 - {i2} | {i1}))
    return Config(p, tuple(cols))


def _candidate_steps(c: Config) -> list[SwitchStep]:
    """All step rectangles spanned by two dots in different rows and columns,
    sorted.  Whether a step actually applies is decided by
    ``elementary_switch``."""
    dots = c.dots_column_major()
    steps = set()
    for r1, c1 in dots:
        for r2, c2 in dots:
            if r1 < r2 and c1 != c2:
                steps.add(SwitchStep(r1, r2, min(c1, c2), max(c1, c2)))
    return sorted(steps)


def _falling_switches(c: Config) -> Iterator[SwitchStep]:
    """All unit switches that lower the inversion count by one, sorted."""
    dots = c.dots_column_major()
    steps = []
    for i2, j1 in dots:
        for i1, j2 in dots:
            if i1 < i2 and j1 < j2:
                steps.append(SwitchStep(i1, i2, j1, j2))
    for step in sorted(steps):
        yield step


def switch_decomposition(c: Config) -> list[SwitchStep]:
    """A staircase of unit switches from ``c`` down to the lowest
    configuration.

    Applying the returned steps to ``c`` in order ends at ``lowest(params)``;
    replaying them reversed from the lowest configuration rebuilds ``c``.
    Every step changes the inversion count by exactly one, so the length is
    at least inversions(c) - inv_lowest(params), with equality whenever a
    monotone descent exists.  Most configurations descend monotonically
    (greedy, lexicographically smallest falling switch first), but for l >= 2
    there are configurations with no falling unit switch at all; those take a
    shortest non-monotone detour found by breadth-first search.
    """
    p = c.params
    bottom = lowest(p)
    steps: list[SwitchStep] = []
    cur = c
    while cur != bottom:
        for step in _falling_switches(cur):
            nxt = elementary_switch(cur, step)
            if nxt is not None:
                steps.append(step)
                cur = nxt
                break
        else:
            steps.extend(_bfs_to_lowest(cur))
            return steps
    return steps


def _bfs_to_lowest(c: Config) -> list[SwitchStep]:
    """Shortest unit-switch path from ``c`` to the lowest configuration."""
    p = c.params
    target = lowest(p).columns
    start = c.columns
    parent: dict = {start: None}
    frontier = [start]
    while frontier:
        nxt_frontier = []
        for cols in frontier:
            cur = Config(p, cols)
            for step in _candidate_steps(cur):
                nxt = elementary_switch(cur, step)
                if nxt is None or nxt.columns in parent:
                    continue
                parent[nxt.columns] = (cols, step)
                if nxt.columns == target:
                    path: list[SwitchStep] = []
                    node = nxt.columns
                    while parent[node] is not None:
                        prev, st = parent[node]
                        path.append(st)
                        node = prev
                    path.reverse()
                    return path
                nxt_frontier.append(nxt.columns)
        frontier = nxt_frontier
    raise RuntimeError(f"lowest configuration unreachable from {c}")


def replay_switches(params: Params, steps: Sequence[SwitchStep]) -> Config:
    """Rebuild a configuration by running ``steps`` backwards from the lowest
    configuration (each step applied as the rising switch)."""
    cur = lowest(params)
    for step in reversed(list(steps)):
        nxt = elementary_switch(cur, step)
        if nxt is None:
            raise ValueError(f"step {step} not applicable during replay")
        cur = nxt
    return cur


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def fillings(windows: Windows, l: int, m: int) -> Iterator[Columns]:
    """Yield the columns of every filling of a window mask,
    lexicographically by column row-tuples.

    The mask has len(windows) columns and len(windows) * m / l rows.  A row
    that no window covers can hold no dot, so such a mask has no filling.
    A branch is cut as soon as a row passes its last window without holding
    l dots.
    """
    cols = len(windows)
    rows = cols * m // l
    last = [0] * (rows + 1)  # last column whose window holds the row
    for j, (lo, hi) in enumerate(windows, start=1):
        for i in range(lo, hi + 1):
            last[i] = j
    if 0 in last[1:]:
        return
    closing: list[list[int]] = [[] for _ in range(cols + 1)]
    for i in range(1, rows + 1):
        closing[last[i]].append(i)
    cap = [l] * (rows + 1)  # dots row i still needs
    chosen: list[tuple[int, ...]] = []

    def rec(j: int) -> Iterator[Columns]:
        # rows whose last window this is must take their last dot here
        forced = []
        for i in closing[j]:
            if cap[i] > 1:
                return
            if cap[i]:
                forced.append(i)
        if len(forced) > m:
            return
        lo, hi = windows[j - 1]
        free = [i for i in range(lo, hi + 1) if cap[i] and last[i] > j]
        for rest in combinations(free, m - len(forced)):
            pick = tuple(sorted([*rest, *forced])) if forced else rest
            chosen.append(pick)
            if j == cols:
                yield tuple(chosen)
            else:
                for i in pick:
                    cap[i] -= 1
                yield from rec(j + 1)
                for i in pick:
                    cap[i] += 1
            chosen.pop()

    if cols:
        yield from rec(1)
    else:
        yield ()


def enumerate_configs(params: Shape) -> Iterator[Config]:
    """Yield every configuration, lexicographically by column row-tuples."""
    for columns in fillings(params.windows(), params.l, params.m):
        yield Config(params, columns)


# ---------------------------------------------------------------------------
# Counting: the transfer over a monotone mask
# ---------------------------------------------------------------------------

def _check_monotone(windows: Windows, rows: int) -> None:
    """Raise ValueError unless every window lies in rows 1..rows and no
    window end falls from one column to the next."""
    for j, (lo, hi) in enumerate(windows, start=1):
        if lo < 1 or hi > rows:
            raise ValueError(f"window {lo}..{hi} of column {j} leaves rows 1..{rows}")
    for j, ((lo, hi), (lo2, hi2)) in enumerate(zip(windows, windows[1:]), start=1):
        if lo2 < lo or hi2 < hi:
            raise ValueError(f"window ends fall from column {j} to {j + 1}: "
                             f"{lo}..{hi} then {lo2}..{hi2}")


@lru_cache(maxsize=None)
def window_poly(windows: Windows, l: int, m: int) -> QPoly:
    """Sum of q^inversions over every filling of a window mask, without
    listing the fillings: the transfer-matrix method over the columns.

    Both window ends must be nondecreasing from column to column (every grid
    and board mask is); any other mask raises ValueError.  Then the rows a
    column can reach are exactly its window: the rows below it have closed
    and must be full, the rows above it have not opened and hold nothing.
    The state after a column is the capacity left in each row of the next
    window, and a dot placed in row a gains one inversion for every dot of
    an earlier column in a row above a.  A row whose window closes at this
    column must be full after it, so it takes its last dot here or the state
    dies; a row that no window covers leaves the mask with no filling.
    """
    cols = len(windows)
    rows = cols * m // l
    _check_monotone(windows, rows)
    if not cols:
        return ONE
    if (any(hi - lo + 1 < m for lo, hi in windows)
            or windows[0][0] > 1 or windows[-1][1] < rows
            or any(lo2 > hi + 1 for (_, hi), (lo2, _) in zip(windows, windows[1:]))):
        return ZERO
    # A state is one integer: the capacity left in row lo + k of the current
    # window is its digit k, `bits` bits wide.  A polynomial is one integer
    # too (Kronecker substitution): the coefficient of q^e is its digit e,
    # `slot` bits wide, and no coefficient can reach 2^slot, because none
    # exceeds the product of the number of choices in each column.  So
    # adding two polynomials is one addition and q^e times one is a shift.
    bits = l.bit_length()
    digit = (1 << bits) - 1
    slot = prod(comb(hi - lo + 1, m) for lo, hi in windows).bit_length()

    def fresh(count: int) -> int:
        """``count`` unopened rows: every digit l."""
        return sum(l << bits * k for k in range(count))

    lo, hi = windows[0]
    layer = {fresh(hi - lo + 1): 1}
    for j, (lo, hi) in enumerate(windows):
        lo2, hi2 = windows[j + 1] if j + 1 < cols else (hi + 1, hi)
        width, shut = hi - lo + 1, lo2 - lo  # rows lo .. lo2 - 1 close here
        opened = fresh(hi2 - hi) << bits * (width - shut)
        # A free row's choice is coded as (earlier dots above it) << high
        # plus a unit in its digit, so the sum of one combination of codes
        # holds both the inversions gained (above bit `high`) and the
        # capacity taken (below it).
        high = bits * width
        low = (1 << high) - 1
        nxt: dict[int, int] = {}
        for caps, value in layer.items():
            forced = gained = above = 0
            codes = []
            for k in range(width - 1, -1, -1):
                cap = caps >> bits * k & digit
                if k >= shut:
                    if cap:
                        codes.append(above << high | 1 << bits * k)
                elif cap > 1:
                    break  # a closing row cannot be filled in time
                elif cap:
                    forced += 1
                    gained += above
                above += l - cap
            else:
                if forced > m:
                    continue
                for choice in combinations(codes, m - forced):
                    code = sum(choice)
                    # closing rows sit in the lowest digits and end empty
                    key = (caps - (code & low)) >> bits * shut | opened
                    weight = value << slot * (gained + (code >> high))
                    nxt[key] = nxt.get(key, 0) + weight
        layer = nxt
    packed = layer.get(0, 0)
    coeffs = []
    while packed:
        coeffs.append(packed & (1 << slot) - 1)
        packed >>= slot
    return QPoly(coeffs)


def count_configs(params: Params) -> int:
    return window_poly(params.windows(), params.l, params.m).at_one()
