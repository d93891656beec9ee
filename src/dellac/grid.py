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

Unit switches.  A ``SwitchStep`` names a rectangle of two rows and two
columns, and ``elementary_switch`` exchanges the two rows between the two
columns.  That is a unit switch when each column holds exactly one of the
rows, not the same one, the moved dots stay inside their windows, and the
inversion count changes by exactly one.  A dot strictly inside the rectangle
adds 2 to that change and a dot on its open border adds 1, both with the
sign of the corner pair, while the dots outside it cancel; so a unit switch
is one whose rectangle holds no dot but its two corners.
``switch_decomposition`` finds a shortest staircase of unit switches from a
grid configuration down to ``lowest``, and ``replay_switches`` climbs it
back.

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
from heapq import heappop, heappush
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
        if len(cols) != p.cols:  # before the mask, whose size p sets
            raise ColumnCountViolation(
                f"expected {p.cols} columns, got {len(cols)}")
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
            p: Shape = Board(json_int(d["n"]), tuple(map(json_int, d["top"])),
                             tuple(map(json_int, d["bottom"])))
        else:
            p = Params(json_int(d["l"]), json_int(d["m"]), json_int(d["n"]))
        return cls(p, tuple(tuple(map(json_int, c)) for c in d["columns"]))


def json_int(value) -> int:
    """``value`` if it is an integer of a JSON document; TypeError for any
    other type, booleans included."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


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

    Its inversion count is the ``inv_lowest`` closed form, but it is not
    always the minimum.  By the transfer's lowest degree on every set with
    l*m*n <= 24 except (1,6,4), (1,7,3) and (1,8,3), the minimum is
    attained once, and it undercuts ``inv_lowest`` at exactly six sets:

    ======================  ============  ==============
    sets                    true minimum  ``inv_lowest``
    ======================  ============  ==============
    (2,3,3), (3,2,3)        8             9
    (2,3,4), (3,2,4)        9             12
    (2,4,3), (4,2,3)        15            18
    ======================  ============  ==============

    On every other set among them, this configuration is the unique
    minimum.  The grid tests pin the (2,3,3) and (3,2,3) minimizers.
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

@dataclass(frozen=True)
class SwitchStep:
    """A unit two-dot exchange on the rectangle (low_row, high_row) x
    (low_col, high_col)."""

    low_row: int
    high_row: int
    low_col: int
    high_col: int


def _switch(cols: Columns, windows: Windows, i1: int, i2: int, j1: int,
            j2: int) -> Optional[Columns]:
    """``cols`` with rows i1 and i2 exchanged between columns j1 and j2 if
    that is a unit switch (each column holds one of the two rows, not the
    same one; the closed rectangle holds no dot but those two corners, so
    the inversion count changes by one; the moved dots stay inside their
    windows), else None."""
    if not (i1 < i2 and 1 <= j1 < j2 <= len(cols)):
        return None
    pair = {i1: i2, i2: i1}
    held = [pair.keys() & cols[j - 1] for j in (j1, j2)]
    if len(held[0]) != 1 or len(held[1]) != 1 or held[0] == held[1]:
        return None
    if sum(i1 <= i <= i2 for col in cols[j1 - 1:j2] for i in col) != 2:
        return None
    out = list(cols)
    for j, (moved,) in zip((j1, j2), held):
        lo, hi = windows[j - 1]
        if not lo <= pair[moved] <= hi:
            return None
        out[j - 1] = tuple(sorted(pair.get(i, i) for i in cols[j - 1]))
    return tuple(out)


def elementary_switch(c: Config, step: SwitchStep) -> Optional[Config]:
    """The configuration after ``step`` if it is a unit switch (see
    ``_switch``), else None."""
    cols = _switch(c.columns, c.params.windows(), step.low_row,
                   step.high_row, step.low_col, step.high_col)
    return None if cols is None else Config(c.params, cols)


def switch_decomposition(c: Config) -> list[SwitchStep]:
    """A shortest staircase of unit switches from ``c`` to the lowest
    configuration.

    Applying the returned steps to ``c`` in order ends at ``lowest(params)``;
    replaying them reversed from the lowest configuration rebuilds ``c``.
    Every step changes the inversion count by exactly one, so the length is
    at least |inversions(c) - inv_lowest(params)|, with equality exactly
    when a monotone staircase exists.

    The search is A* (Hart, Nilsson and Raphael, 1968) under the estimate
    |inversions(x) - inv_lowest(params)|, which is consistent because every
    step moves it by exactly one; it takes the absolute value because at
    (2,3,3), (3,2,3), (2,3,4), (3,2,4), (2,4,3) and (4,2,3) some
    configurations lie below the lowest one (see ``lowest``).  Ties
    go to fewer inversions, then to the smaller columns, so the staircase is
    deterministic.  A step adds one inversion when the left column holds
    the lower row, and takes one away otherwise.
    """
    p = c.params
    windows = p.windows()
    target, goal = lowest(p).columns, inv_lowest(p)
    # columns -> (steps from c, previous columns, the step from them)
    best: dict[Columns, tuple[int, Optional[Columns], Optional[SwitchStep]]] = {
        c.columns: (0, None, None)}
    inv = inversions(c)
    heap = [(abs(inv - goal), inv, c.columns)]
    while heap:
        f, inv, cols = heappop(heap)
        g = f - abs(inv - goal)
        if cols == target:
            path = []
            while best[cols][1] is not None:
                _, cols, step = best[cols]
                path.append(step)
            return path[::-1]
        if g > best[cols][0]:
            continue  # reached again by a shorter staircase
        for j1, left in enumerate(cols, start=1):
            for j2 in range(j1 + 1, len(cols) + 1):
                for a in left:
                    for b in cols[j2 - 1]:
                        i1, i2 = min(a, b), max(a, b)
                        nxt = _switch(cols, windows, i1, i2, j1, j2)
                        if nxt is None or nxt in best and best[nxt][0] <= g + 1:
                            continue
                        best[nxt] = (g + 1, cols, SwitchStep(i1, i2, j1, j2))
                        nxt_inv = inv + (1 if a < b else -1)
                        heappush(heap, (g + 1 + abs(nxt_inv - goal), nxt_inv, nxt))
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
