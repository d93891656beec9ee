"""Dellac boards with trimmed corners and their q-counting polynomials.

A board of size n has n columns and 2n rows, two dots per column and one per
row.  Two partitions cut admissible boxes away: ``top`` removes leading boxes
from the highest rows, ``bottom`` removes trailing boxes from the lowest
rows.  Every column keeps one interval of rows, so a ``Board(n, top,
bottom)`` is a window mask and a labelled shape in the sense of ``grid``,
with row capacity 1 and column size 2, and a filled board is a
``grid.Config``: ``grid.fillings`` lists the boards, ``grid.window_poly``
counts them by the transfer and ``grid.inversions`` counts inversions,
exactly as for grid configurations.  When both partitions are the staircase
(n-1, ..., 1) the mask is exactly the window of the square-grid family at
(1, 2, n), so these boards interpolate between that family and the free
two-dots-per-column boards.

The board word (the paper's sigma word) is ``bijection.phi1`` of the
board, labelled by ``grid.labelling`` like a grid's, and ``boundary_st``
reads ``words.st_from_pi`` off its lift ``bijection.phi``.

Which functions list and which count: ``enumerate_boundary`` lists the
boards; ``count_boundary`` and the q-partition function
``q_partition_function`` (the sum of q^inv over all boards) run the
transfer on the board's mask for every boundary; ``q_partition_function_dp``
is a second, independent engine for staircase bottoms, a memoized dynamic
program over the top partition.

The q-partition function satisfies a family of exact recurrences
(expansion by the top row, part shifts, splitting a doubled part).
``IDENTITIES`` is their one table: for each name, its argument names, its
check (which evaluates both sides with the transfer) and the generator of
its admissible arguments; ``verify_recurrence``, ``recurrence_arguments``
and ``recurrence_suite`` all read it.  The expansion by the top row,
``_expand_top_row``, is written once: the dynamic program recurses through
it, and the pinned-row and free-row checks apply it to the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bijection import phi
from .grid import Config, Shape, Windows, enumerate_configs, inversions, window_poly
from .qpoly import ONE, ZERO, QPoly, q_binomial, q_int, shifted_sum
from .words import st_from_pi

Partition = tuple[int, ...]


class PartitionOutOfStaircase(ValueError):
    """A boundary partition does not fit on the board."""


class HypothesisViolated(ValueError):
    """Recurrence arguments break the hypothesis of the named identity."""


# ---------------------------------------------------------------------------
# Partition helpers
# ---------------------------------------------------------------------------

def normalize(parts: Iterable[int]) -> Partition:
    """Drop zero parts and check the result is weakly decreasing."""
    out = tuple(int(p) for p in parts if p != 0)
    for a, b in zip(out, out[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing, got {out}")
    if out and out[-1] < 0:
        raise ValueError("parts must be nonnegative")
    return out


def oplus(*pieces: Iterable[int] | int) -> Partition:
    """Concatenate parts; the result must still be a partition."""
    flat: list[int] = []
    for piece in pieces:
        if isinstance(piece, int):
            flat.append(piece)
        else:
            flat.extend(int(x) for x in piece)
    return normalize(flat)


def minus_one(lam: Sequence[int]) -> Partition:
    """Subtract 1 from every part, dropping parts that reach zero."""
    return normalize(p - 1 for p in lam)


def staircase(k: int) -> Partition:
    """(k, k-1, ..., 1); empty for k <= 0."""
    return tuple(range(k, 0, -1))


def staircase_gap(k: int, i: int) -> Partition:
    """The staircase with part i removed; i = 0 keeps all parts."""
    if i == 0:
        return staircase(k)
    if not 1 <= i <= k:
        raise ValueError(f"no part {i} in the staircase of size {k}")
    return tuple(p for p in range(k, 0, -1) if p != i)


def partitions_in_staircase(k: int) -> Iterator[Partition]:
    """All partitions fitting inside staircase(k), largest parts first."""
    def rec(prefix: list[int], i: int) -> Iterator[Partition]:
        yield tuple(prefix)
        if i > k:
            return
        cap = min(k + 1 - i, prefix[-1] if prefix else k)
        for p in range(cap, 0, -1):
            prefix.append(p)
            yield from rec(prefix, i + 1)
            prefix.pop()

    return rec([], 1)


def _drop(parts: Sequence[int], *positions: int) -> Partition:
    """Remove the given one-based positions and the zero parts, which come
    last.  What is left of a partition is a partition: nothing is checked."""
    out = list(parts)
    for k in sorted(positions, reverse=True):
        del out[k - 1]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# Boards
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Board(Shape):
    """A board of size n with trimmed corners: a window mask of n columns
    and 2n rows, row capacity 1 and column size 2, labelled as a ``Shape``.
    Its fillings are ``grid.Config``s.

    ``top`` forbids, in the i-th highest row, the leftmost top_i columns, so
    column j loses the highest #{i : top_i >= j} rows; ``bottom`` forbids,
    in the r-th lowest row (r < n), the rightmost bottom_r columns, so
    column j loses the lowest #{r : bottom_r > n - j} rows.  ``bottom=None``
    means the staircase.  Both partitions are normalized once, here.
    """

    n: int
    top: Partition = ()
    bottom: Partition | None = None

    l = 1
    m = 2

    def __post_init__(self) -> None:
        n = self.n
        top = normalize(self.top)
        bottom = staircase(n - 1) if self.bottom is None else normalize(self.bottom)
        if n < 0:
            raise ValueError("board size must be nonnegative")
        if top and (top[0] > n or len(top) > 2 * n):
            raise PartitionOutOfStaircase(
                f"top partition {top} does not fit on a board of size {n}")
        if bottom and (bottom[0] > n or len(bottom) > max(n - 1, 0)):
            raise PartitionOutOfStaircase(
                f"bottom partition {bottom} does not fit on a board of size {n}")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)

    @property
    def cols(self) -> int:
        return self.n

    @property
    def rows(self) -> int:
        return 2 * self.n

    # Every board Config validates against this mask: one per board.
    @lru_cache(maxsize=None)
    def windows(self) -> Windows:
        """The (lo, hi) admissible rows (bottom-based) of every column, left
        to right.  Both window ends are nondecreasing in j, as
        ``grid.window_poly`` requires."""
        n = self.n
        return tuple((1 + sum(1 for b in self.bottom if b > n - j),
                      2 * n - sum(1 for t in self.top if t >= j))
                     for j in range(1, n + 1))

    # every label lookup reads it, so it is worked out once per board
    @cached_property
    def num_values(self) -> int:
        """Twice the height of the widest window (n + 1 on the empty board),
        so that the affixes pad every board word to a permutation."""
        return 2 * max((hi - lo + 1 for lo, hi in self.windows()),
                       default=self.n + 1)


def enumerate_boundary(n: int, top: Iterable[int] = (),
                       bottom: Iterable[int] | None = None,
                       ) -> Iterator[Config]:
    """All boards with the given boundaries, in lexicographic column order.

    ``bottom=None`` means the staircase (n-1, ..., 1).
    """
    return enumerate_configs(Board(n, top, bottom))


def count_boundary(n: int, top: Iterable[int] = (),
                   bottom: Iterable[int] | None = None) -> int:
    return q_partition_function(n, top, bottom).at_one()


# ---------------------------------------------------------------------------
# The q-partition function
# ---------------------------------------------------------------------------

def q_partition_function(n: int, top: Iterable[int] = (),
                         bottom: Iterable[int] | None = None) -> QPoly:
    """Sum of q^inversions over all boards, by the transfer over the
    board's mask (``grid.window_poly``); no board is listed."""
    return window_poly(Board(n, top, bottom).windows(), 1, 2)


def max_inv(n: int, top: Iterable[int] = ()) -> int:
    """Largest inversion count over staircase-bottom boards:
    n(n-1) - |top|."""
    return n * (n - 1) - sum(normalize(top))


def _expand_top_row(n: int, lam: Partition,
                    f: Callable[[int, Partition], QPoly]) -> QPoly:
    """Expansion of a staircase-bottom board of size n by its top row, with
    ``f`` evaluating the boards of size n - 1.

    The last column's two dots sit among the n + 1 highest rows.  The sum
    runs over their positions i < j counted from the top, each weighted by
    q^(i + j - 3) (the dots above them and to the left) and taking parts i
    and j out of ``lam`` (padded with zeros).  When the first part is n - 1
    the highest row's dot must be in the last column (i = 1), so the sum is
    linear in the removed part; otherwise it runs over every pair.  Parts
    past the (n + 1)-th cut rows that the last column cannot reach, so they
    pass to the smaller board unchanged.
    """
    padded = lam + (0,) * (n + 1 - len(lam))
    pairs = (((1, j) for j in range(2, n + 2)) if lam and lam[0] == n - 1
             else combinations(range(1, n + 2), 2))
    return shifted_sum((f(n - 1, _drop(padded, i, j)), i + j - 3)
                       for i, j in pairs)


@lru_cache(maxsize=None)
def _qpf_dp(n: int, lam: Partition) -> QPoly:
    if lam and lam[0] >= n:
        return ZERO
    if n <= 1:
        return ONE
    return _expand_top_row(n, lam, _qpf_dp)


def q_partition_function_dp(n: int, top: Iterable[int] = ()) -> QPoly:
    """Enumeration-free evaluation for staircase-bottom boards, by
    ``_expand_top_row``, for every top that fits.  It is independent of
    the transfer in ``q_partition_function``.  From empty memo tables at
    n = 12 the two take about the same time on the staircase top (0.04 s
    each), while on the empty top the DP takes under 0.01 s and the
    transfer about 2 s (Python 3.11, one core).
    """
    return _qpf_dp(n, Board(n, top).top)


def genocchi_numbers(max_n: int) -> list[int]:
    """Counts of staircase boards for n = 1 .. max_n (1, 2, 7, 38, 295...)."""
    return [q_partition_function_dp(n, staircase(n - 1)).at_one()
            for n in range(1, max_n + 1)]


# ---------------------------------------------------------------------------
# The boundary word and its statistic
# ---------------------------------------------------------------------------

def boundary_st(c: Config) -> int:
    """The statistic ``words.st_from_pi`` of the board's lift ``phi(c)``,
    read with blocks of length 1."""
    return st_from_pi(phi(c), 1)


def boundary_st_check(c: Config) -> bool:
    """st of the board's lift equals C(L/2, 2) minus the inversions."""
    return boundary_st(c) == comb(c.params.word_len // 2, 2) - inversions(c)


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceReport:
    identity: str
    n: int
    arguments: tuple[tuple[str, object], ...]
    lhs: QPoly
    rhs: QPoly

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisViolated(message)


def _check_pinned_row(n: int, lam: Partition) -> tuple[QPoly, QPoly]:
    _require(bool(lam) and lam[0] == n - 1,
             "first part must equal n - 1")
    return (q_partition_function(n, lam),
            _expand_top_row(n, lam, q_partition_function))


def _check_free_row(n: int, lam: Partition) -> tuple[QPoly, QPoly]:
    _require(not lam or lam[0] <= n - 2,
             "first part must be at most n - 2")
    return (q_partition_function(n, lam),
            _expand_top_row(n, lam, q_partition_function))


def _check_qtriple(n: int, lam: Partition) -> tuple[QPoly, QPoly]:
    _require(n >= 2, "needs n >= 2")
    _require(not lam or lam[0] <= n - 3,
             "first part must be at most n - 3")
    lhs = (q_partition_function(n, oplus((n - 1, n - 2), lam))
           + q_partition_function(n - 1, oplus((n - 2,), lam)).shifted(n))
    rhs = q_int(3) * q_partition_function(n - 1, lam)
    return lhs, rhs


def _check_append_one(n: int, lam: Partition) -> tuple[QPoly, QPoly]:
    _require(lam[-2:] != (1, 1), "partition already ends in two unit parts")
    alpha1 = 2 * n - 2 - len(lam)
    _require(alpha1 >= 0, "partition has too many parts")
    lhs = q_partition_function(n, lam)
    rhs = (q_partition_function(n, oplus(lam, (1,)))
           + q_partition_function(n - 1, minus_one(lam)).shifted(alpha1))
    return lhs, rhs


def _require_around(lam: Partition, m: int, nu: Partition) -> None:
    """The hypothesis of the shift and split identities: lam > m > nu > 0."""
    _require(m >= 1, "the part m must be positive")
    _require(not lam or lam[-1] > m, "left parts must exceed m")
    _require(not nu or nu[0] < m, "right parts must stay below m")


def _shift_parts(n: int, lam: Partition, m: int, nu: Partition,
                 ) -> tuple[QPoly, QPoly, QPoly, QPoly]:
    _require_around(lam, m, nu)
    mid = q_partition_function(n, oplus(lam, (m,), nu))
    down = q_partition_function(n, oplus(lam, (m - 1,), nu))
    up = q_partition_function(n, oplus(lam, (m + 1,), nu))
    rest = q_partition_function(n - 1, oplus(minus_one(lam), nu))
    return mid, down, up, rest


def _check_shift1(n: int, lam: Partition, m: int, nu: Partition,
                  ) -> tuple[QPoly, QPoly]:
    # The 1+q weighting only balances without a right tail; with one, the
    # difference of the three n-level terms is not a monomial multiple of
    # any (n-1)-level partition function (it picks up negative
    # coefficients), so nu is pinned to the empty partition here.
    _require(not nu, "the linear shift needs an empty right tail")
    alpha0 = 2 * n - 2 * m - 1 - len(lam)
    _require(alpha0 >= 0, "exponent 2n - 2m - 1 - l(lam) is negative")
    mid, down, up, rest = _shift_parts(n, lam, m, nu)
    lhs = q_int(2) * mid
    rhs = down + up.shifted(1) + rest.shifted(alpha0)
    return lhs, rhs


def _check_shift2(n: int, lam: Partition, m: int, nu: Partition,
                  ) -> tuple[QPoly, QPoly]:
    alpha = 2 * n - len(lam) - m
    _require(alpha >= 0, "exponent 2n - l(lam) - m is negative")
    mid, down, up, rest = _shift_parts(n, lam, m, nu)
    lhs = (ONE + QPoly.monomial(2)) * mid
    rhs = down + up.shifted(2) + rest.shifted(alpha)
    return lhs, rhs


def _check_split_pair(n: int, lam: Partition, m: int, nu: Partition,
                      ) -> tuple[QPoly, QPoly]:
    _require_around(lam, m, nu)
    beta = 2 * (n - m - 1) - len(lam)
    _require(beta >= 0, "exponent 2(n - m - 1) - l(lam) is negative")
    lhs = q_partition_function(n, oplus(lam, (m, m), nu))
    rhs = (q_partition_function(n, oplus(lam, (m + 1, m - 1), nu))
           + q_partition_function(n - 1, oplus(minus_one(lam), nu)).shifted(beta))
    return lhs, rhs


def _check_six_term(n: int, lam: Partition, nu: Partition,
                    ) -> tuple[QPoly, QPoly]:
    _require(n >= 2, "needs n >= 2")
    _require(not lam or lam[0] <= n - 2,
             "first part must be at most n - 2")
    _require(not (lam and nu) or lam[-1] >= nu[0],
             "left and right parts must concatenate to a partition")
    la, ln_ = len(lam), len(nu)
    c1 = n - 1 - la - ln_
    _require(c1 >= 0, "n - 1 - l(lam) - l(nu) is negative")

    def f(top: Partition) -> QPoly:
        return q_partition_function(n - 2, top)

    def terms() -> Iterator[tuple[QPoly, int]]:
        for i, j in combinations(range(1, la + 1), 2):
            yield f(oplus(_drop(lam, i, j), nu)), i + j - 3
        for i in range(1, la + 1):
            for j in range(1, ln_ + 1):
                yield f(oplus(_drop(lam, i), _drop(nu, j))), i + j + la - 3
        for i in range(1, la + 1):
            yield q_int(c1) * f(oplus(_drop(lam, i), nu)), i + la + ln_ - 2
        for i in range(1, ln_ + 1):
            yield q_int(c1) * f(oplus(lam, _drop(nu, i))), i + 2 * la + ln_ - 2
        for i, j in combinations(range(1, ln_ + 1), 2):
            yield f(oplus(lam, _drop(nu, i, j))), i + j + 2 * la - 3
        yield q_binomial(c1, 2) * f(oplus(lam, nu)), 2 * (la + ln_)

    lhs = shifted_sum(terms())
    rhs = (q_partition_function(n - 1, oplus(lam, nu))
           - q_partition_function(n - 1, oplus((n - 2,), lam, nu)).shifted(n - 2))
    return lhs, rhs


def _tops(k: int, keep: Callable[[Partition], bool],
          ) -> Iterator[dict[str, object]]:
    """{"lam": lam} for every partition inside staircase(k) that ``keep``
    accepts."""
    return ({"lam": lam} for lam in partitions_in_staircase(k) if keep(lam))


def _moves(n: int, times: int) -> Iterator[dict[str, object]]:
    """{"lam", "m", "nu"} with lam > m > nu around every part m that appears
    exactly ``times`` times in a partition inside staircase(n - 1).

    Every exponent the shift and split identities require is positive on
    these arguments, so none is tested here.
    """
    for parts in partitions_in_staircase(n - 1):
        for i, m in enumerate(parts):
            if parts.index(m) == i and parts.count(m) == times:
                yield {"lam": parts[:i], "m": m, "nu": parts[i + times:]}


def _cuts(n: int) -> Iterator[dict[str, object]]:
    """{"lam", "nu"} for every cut of every partition inside
    staircase(n - 1) whose parts are at most n - 2; none below n = 2."""
    for parts in partitions_in_staircase(n - 1) if n >= 2 else ():
        if not parts or parts[0] <= n - 2:
            for cut in range(len(parts) + 1):
                yield {"lam": parts[:cut], "nu": parts[cut:]}


class Identity(NamedTuple):
    """A recurrence: its argument names in report order, the check that
    evaluates both sides with the transfer (raising HypothesisViolated when the arguments
    break its hypothesis), and the admissible arguments at board size n."""

    names: tuple[str, ...]
    check: Callable[..., tuple[QPoly, QPoly]]
    arguments: Callable[[int], Iterator[dict[str, object]]]


IDENTITIES: dict[str, Identity] = {
    "pinned-row": Identity(("lam",), _check_pinned_row, lambda n: _tops(
        n - 1, lambda lam: bool(lam) and lam[0] == n - 1)),
    "free-row": Identity(("lam",), _check_free_row, lambda n: _tops(
        n - 1, lambda lam: not lam or lam[0] <= n - 2)),
    "qtriple": Identity(("lam",), _check_qtriple, lambda n: _tops(
        n - 3, lambda lam: n >= 2)),
    "append-one": Identity(("lam",), _check_append_one, lambda n: _tops(
        n - 1, lambda lam: lam[-2:] != (1, 1))),
    "shift1": Identity(("lam", "m", "nu"), _check_shift1, lambda n: (
        args for args in _moves(n, 1) if not args["nu"])),
    "shift2": Identity(("lam", "m", "nu"), _check_shift2,
                       lambda n: _moves(n, 1)),
    "split-pair": Identity(("lam", "m", "nu"), _check_split_pair,
                           lambda n: _moves(n, 2)),
    "six-term": Identity(("lam", "nu"), _check_six_term, _cuts),
}


def _identity(name: str) -> Identity:
    try:
        return IDENTITIES[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}") from None


def verify_recurrence(identity: str, n: int, lam: Iterable[int] = (),
                      nu: Iterable[int] = (), m: int | None = None,
                      ) -> RecurrenceReport:
    """Evaluate both sides of a named identity and report them.

    Raises HypothesisViolated when the arguments break the identity's
    hypothesis, and ValueError for unknown identity names.
    """
    names, check, _ = _identity(identity)
    given = {"lam": normalize(lam), "m": m, "nu": normalize(nu)}
    if "m" in names and m is None:
        raise HypothesisViolated("a moved part m is required")
    args = tuple((name, given[name]) for name in names)
    lhs, rhs = check(n, **dict(args))
    return RecurrenceReport(identity, n, args, lhs, rhs)


def recurrence_arguments(identity: str, n: int,
                         ) -> Iterator[dict[str, object]]:
    """Every admissible argument set with partitions inside staircases."""
    return _identity(identity).arguments(n)


def recurrence_suite(max_n: int, identities: Sequence[str] = (),
                     ) -> Iterator[RecurrenceReport]:
    """Reports for every identity at every admissible argument, n <= max_n."""
    names = tuple(identities) or tuple(IDENTITIES)
    for n in range(1, max_n + 1):
        for name in names:
            for args in recurrence_arguments(name, n):
                yield verify_recurrence(name, n, **args)


# ---------------------------------------------------------------------------
# Rational expansion instances
# ---------------------------------------------------------------------------

def verify_expansion_instance(lhs: tuple[int, Iterable[int]],
                              terms: Iterable[tuple[Fraction | int, int, Iterable[int]]],
                              ) -> bool:
    """Check a rational linear expansion of counts at q = 1.

    ``lhs`` is (n, partition); ``terms`` are (coefficient, n, partition).
    Counts come from the dynamic program, which the test suite pins to direct
    enumeration and to the transfer.
    """
    n0, lam0 = lhs
    want = Fraction(q_partition_function_dp(n0, normalize(lam0)).at_one())
    total = Fraction(0)
    for coeff, n, lam in terms:
        total += Fraction(coeff) * q_partition_function_dp(n, normalize(lam)).at_one()
    return want == total
