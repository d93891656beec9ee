"""Independent reference answers for the benchmark's output checks.

Nothing here imports ``dellac``: the models are rebuilt from their
definitions, so a fault in the package cannot hide by agreeing with itself.

* Grid of type (l, m, n): l*n columns, m*n rows, l dots per row, m per
  column, and a dot of column j lies in rows ceil(j/l) .. ceil(j/l) + (m-1)n.
* Board of size n: n columns, 2n rows, two dots per column, one per row.
  ``top`` forbids, in the i-th highest row, the leftmost top_i columns;
  ``bottom`` forbids, in the r-th lowest row (r < n), the rightmost
  bottom_r columns.  ``bottom=None`` is the staircase (n-1, ..., 1).
* An inversion is a pair of dots, one strictly higher and strictly left of
  the other.

Polynomials in q are coefficient tuples from degree zero with no trailing
zeros; the empty tuple is zero.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

# OEIS A000366, the median Genocchi numbers: the counts of (1, 2, n) grids
# and of staircase boards, n = 1 .. 9.
A000366 = (1, 2, 7, 38, 295, 3098, 42271, 726734, 15366679)

Poly = tuple[int, ...]


def _trim(coeffs) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _add_shifted(acc: list[int], poly, shift: int) -> None:
    """acc += q^shift * poly, growing acc as needed."""
    need = shift + len(poly)
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for k, c in enumerate(poly):
        acc[shift + k] += c


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


# ---------------------------------------------------------------------------
# Packed polynomials
#
# The transfers below carry one polynomial per state.  A polynomial sum_k c_k
# q^k is packed into the integer sum_k c_k 2^(SLOT k), so multiplying by q^g
# is a shift and adding two polynomials is one integer addition.  This is
# exact while every coefficient stays below 2^SLOT; each transfer checks an
# upper bound on its total count before it starts.
# ---------------------------------------------------------------------------

SLOT = 128


def _unpack(value: int) -> Poly:
    mask = (1 << SLOT) - 1
    out = []
    while value:
        out.append(value & mask)
        value >>= SLOT
    return tuple(out)


def _require_slot_room(bound: int) -> None:
    if bound >= 1 << SLOT:
        raise ValueError(f"counts up to {bound} overflow {SLOT}-bit slots")


# ---------------------------------------------------------------------------
# (l, m, n) grids: transfer over (column, remaining row capacities)
# ---------------------------------------------------------------------------

def grid_window(l: int, m: int, n: int, j: int) -> tuple[int, int]:
    """Inclusive rows allowed in column j, clipped to the grid."""
    lo = (j + l - 1) // l
    return lo, min(lo + (m - 1) * n, m * n)


def grid_poly(l: int, m: int, n: int) -> Poly:
    """Sum of q^inv over all configurations of the (l, m, n) grid.

    The state after column j is the tuple of dots each row still needs.  A
    new dot in row a gains one inversion for every dot already placed in a
    row above a, because every placed dot lies in an earlier column.  A row
    i can take dots only up to column l*i, so it must be full by then.
    """
    rows = m * n
    bound = 1
    for j in range(1, l * n + 1):
        lo, hi = grid_window(l, m, n, j)
        bound *= comb(hi - lo + 1, m)
    _require_slot_room(bound)
    layer: dict[tuple[int, ...], int] = {(l,) * rows: 1}  # caps of rows 1..mn
    for j in range(1, l * n + 1):
        lo, hi = grid_window(l, m, n, j)
        closing = [i for i in range(1, rows + 1) if l * i == j]
        nxt: dict[tuple[int, ...], int] = {}
        for caps, weight in layer.items():
            avail = [i for i in range(lo, hi + 1) if caps[i - 1] > 0]
            for chosen in combinations(avail, m):
                new = list(caps)
                gain = 0
                for a in chosen:
                    gain += sum(l - caps[r - 1] for r in range(a + 1, rows + 1))
                    new[a - 1] -= 1
                if any(new[i - 1] for i in closing):
                    continue
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + (weight << SLOT * gain)
        layer = nxt
    return _unpack(layer.get((0,) * rows, 0))


def grid_count(l: int, m: int, n: int) -> int:
    return sum(grid_poly(l, m, n))


def config_inversions(columns) -> int:
    """Inversions of a configuration given as row tuples per column."""
    dots = [(i, j) for j, col in enumerate(columns) for i in col]
    return sum(1 for a, (ia, ja) in enumerate(dots) for ib, jb in dots[a + 1:]
               if jb > ja and ib < ia)


# ---------------------------------------------------------------------------
# Boards: DP over (column, set of filled rows)
# ---------------------------------------------------------------------------

def staircase(k: int) -> tuple[int, ...]:
    return tuple(range(k, 0, -1))


def board_allowed(n: int, top=(), bottom=None) -> list[list[int]]:
    """Allowed rows (bottom-based) of every column, left to right."""
    top = tuple(p for p in top if p)
    bottom = staircase(n - 1) if bottom is None else tuple(p for p in bottom if p)
    cols = []
    for j in range(1, n + 1):
        rows = []
        for r in range(1, 2 * n + 1):
            i = 2 * n + 1 - r
            if i <= len(top) and j <= top[i - 1]:
                continue
            if r <= len(bottom) and r <= n - 1 and j >= n + 1 - bottom[r - 1]:
                continue
            rows.append(r)
        cols.append(rows)
    return cols


def board_poly(n: int, top=(), bottom=None) -> Poly:
    """Sum of q^inv over all boards with the given boundaries.

    Row r is bit r-1 of the state.  A new dot in row a gains one inversion
    for every filled row above a, since each row holds one dot and every
    filled row was filled in an earlier column.
    """
    if n == 0:
        return (1,)
    allowed = board_allowed(n, top, bottom)
    last_col = [0] * (2 * n + 1)
    bound = 1
    for j, rows in enumerate(allowed, start=1):
        bound *= comb(len(rows), 2)
        for r in rows:
            last_col[r] = j
    if any(last_col[r] == 0 for r in range(1, 2 * n + 1)):
        return ()
    _require_slot_room(bound)
    layer: dict[int, int] = {0: 1}
    for j, rows in enumerate(allowed, start=1):
        due = 0
        for r in range(1, 2 * n + 1):
            if last_col[r] == j:
                due |= 1 << (r - 1)
        nxt: dict[int, int] = {}
        for mask, weight in layer.items():
            free = [r for r in rows if not mask >> (r - 1) & 1]
            above = {r: (mask >> r).bit_count() for r in free}
            for a, b in combinations(free, 2):
                new = mask | 1 << (a - 1) | 1 << (b - 1)
                if new & due == due:
                    nxt[new] = nxt.get(new, 0) + (weight << SLOT * (above[a] + above[b]))
        layer = nxt
    return _unpack(layer.get((1 << 2 * n) - 1, 0))


# ---------------------------------------------------------------------------
# Closed form for empty-top, staircase-bottom boards
# ---------------------------------------------------------------------------

def q_binomial(n: int, k: int) -> Poly:
    """Gaussian binomial by Pascal's rule [n,k] = [n-1,k-1] + q^k [n-1,k]."""
    rows = [[(1,)]]
    for a in range(1, n + 1):
        prev = rows[-1]
        row = []
        for b in range(a + 1):
            acc: list[int] = []
            if b >= 1:
                _add_shifted(acc, prev[b - 1], 0)
            if b < a:
                _add_shifted(acc, prev[b], b)
            row.append(_trim(acc))
        rows.append(row)
    return rows[n][k] if 0 <= k <= n else ()


def empty_top_closed_form(n: int) -> Poly:
    """prod_{k=2..n} [k+1 choose 2]_q."""
    out: Poly = (1,)
    for k in range(2, n + 1):
        out = poly_mul(out, q_binomial(k + 1, 2))
    return out
