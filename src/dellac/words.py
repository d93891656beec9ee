"""Generalized permutations, Dumont permutations, and the st statistic.

A generalized permutation of order L = n*l is a word over [n] in which every
letter appears exactly l times.  Standardization replaces the l copies of
each letter i by (i-1)l+1 .. il left to right; destandardization divides
values by l (rounding up).

A normalized Dumont permutation sigma (relative to grid parameters) pins a
batch of small values on the odd blocks and a batch of large values on the
trailing even blocks, and requires a unique lift pi with dStd(pi) = sigma
whose position blocks increase and whose column words (read through pi^{-1})
all satisfy the parity property.  The lift is recovered here by constraint
propagation plus a tiny backtracking search over the per-letter choices the
block condition leaves open; a second lift raises AmbiguousLift.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import Iterator, Optional

# inv_word is re-exported: the package has one inversion counter, in grid
from dellac.grid import Params, inv_word


class WordError(ValueError):
    """Base class for word-shape failures."""


class LengthNotDivisible(WordError):
    """Word length is not a multiple of l."""


class OddShape(WordError):
    """Word length is not an even multiple of l (no Dumont shape)."""


class PinViolation(WordError):
    """A pinned position holds the wrong value."""


class NoValidPi(WordError):
    """No lift satisfies the increasing-block condition."""


class ParityViolation(WordError):
    """Lifts exist but every one violates the parity property."""


class AmbiguousLift(WordError):
    """More than one lift passes every condition, so the word is not a
    normalized Dumont permutation (varphi collides on such words)."""


Word = tuple[int, ...]


def invert(perm) -> Word:
    """Inverse of a permutation of [n] given one-based."""
    out = [0] * len(perm)
    for pos, v in enumerate(perm, start=1):
        out[v - 1] = pos
    return tuple(out)


def standardize(word) -> Word:
    """Std: make a word into a permutation, relabeling duplicates left to
    right.  The letters must all have the same multiplicity."""
    w = tuple(word)
    values = sorted(set(w))
    counts = {v: w.count(v) for v in values}
    l = counts[values[0]]
    if any(c != l for c in counts.values()) or values != list(range(1, len(values) + 1)):
        raise WordError(f"not a generalized permutation: {w}")
    next_slot = {v: (i for i in range((v - 1) * l + 1, v * l + 1)) for v in values}
    return tuple(next(next_slot[v]) for v in w)


def destandardize(perm, l: int) -> Word:
    """dStd^l: divide all values by l, rounding up."""
    p = tuple(perm)
    if len(p) % l:
        raise LengthNotDivisible(f"length {len(p)} not divisible by {l}")
    return tuple((v + l - 1) // l for v in p)


def is_gen_perm(word, l: int) -> bool:
    """True when every letter of [len(word)/l] appears exactly l times."""
    w = tuple(word)
    if len(w) % l:
        return False
    return sorted(w) == [v for v in range(1, len(w) // l + 1) for _ in range(l)]


def is_gen_dumont(word, l: int) -> bool:
    """Generalized Dumont test: on block p (zero-based, length l), values
    exceed p+1 for even p and stay below p+1 for odd p.

    This is the published blockwise generalization of the classical
    sigma(2i-1) > 2i-1, sigma(2i) < 2i condition.  Beware that for m >= 3 the
    images of the configuration bijection can violate it (see
    ``label_entry_bounds`` for the sharp blockwise ranges), so normalized-
    Dumont acceptance does not route through this predicate.
    """
    w = tuple(word)
    if len(w) % (2 * l):
        raise OddShape(f"length {len(w)} is not an even multiple of {l}")
    if not is_gen_perm(w, l):
        return False
    for pos, v in enumerate(w):
        p = pos // l
        if p % 2 == 0:
            if v <= p + 1:
                return False
        elif v >= p + 1:
            return False
    return True


def parity_property(word, l: int, m: int) -> bool:
    """Parity property of type (l, m) for an m-letter word.

    The letter parities (of ceil(value/l)) must be sorted; an all-equal
    parity word must increase outright, otherwise the word must increase
    cyclically starting right after the last even-parity letter.
    """
    s = tuple(word)
    if len(s) != m:
        raise WordError(f"expected {m} letters, got {len(s)}")
    rho = [((v + l - 1) // l) % 2 for v in s]
    if any(a > b for a, b in zip(rho, rho[1:])):
        return False
    k = rho.count(0)
    if k in (0, m):
        return all(a < b for a, b in zip(s, s[1:]))
    cyc = s[k:] + s[:k]
    return all(a < b for a, b in zip(cyc, cyc[1:]))


# ---------------------------------------------------------------------------
# Normalized Dumont permutations
# ---------------------------------------------------------------------------

def pinned_blocks(params: Params) -> dict[int, int]:
    """Zero-based block index -> pinned value, per the normalization rules."""
    n, m = params.n, params.m
    half = params.num_values  # L / l
    pins: dict[int, int] = {}
    for p in range(1, n * (m - 2) + 2, 2):
        pins[p] = (p + 1) // 2
    if (m * n) % 2 == 0:
        lo = half - n * (m - 2) - 2
    else:
        lo = half - n * (m - 2) + 1
    start = lo if lo % 2 == 0 else lo + 1
    for p in range(max(start, 0), half - 1, 2):
        pins[p] = (half + p) // 2 + 1
    return pins


def check_pins(sigma: Word, params: Params) -> None:
    l = params.l
    for p, v in pinned_blocks(params).items():
        for q in range(1, l + 1):
            if sigma[p * l + q - 1] != v:
                raise PinViolation(
                    f"position {p * l + q} must hold {v}, found {sigma[p * l + q - 1]}")


def label_entry_bounds(params: Params) -> dict[int, tuple[int, int]]:
    """Inclusive value range per non-pinned block index.

    Block p of a word image describes where the dots of one grid row sit,
    read through ceil(position / l).  The window condition limits that row's
    columns, which pins each block's entries to an interval.  Pinned blocks
    are excluded; together the two cover every block index.
    """
    l, m, n = params.l, params.m, params.n
    r_l = params.prefix_len // l
    pins = pinned_blocks(params)
    bounds: dict[int, tuple[int, int]] = {}
    for p in range(params.num_values):
        if p in pins:
            continue
        i = params.row_of_label(p + 1)
        lo = r_l + m * max(0, i - (m - 1) * n - 1) + 1
        hi = r_l + m * min(i, n)
        bounds[p] = (lo, hi)
    return bounds


def column_words(pi: Word, params: Params) -> list[Word]:
    """The ln column words pi'_p read through the inverse of pi."""
    inv = invert(pi)
    r, m = params.prefix_len, params.m
    return [tuple(inv[r + p * m + k - 1] for k in range(1, m + 1))
            for p in range(params.l * params.n)]


def recover_pi(sigma, params: Params) -> Word:
    """Find the unique increasing-block, parity-respecting lift of sigma.

    Raises PinViolation / NoValidPi / ParityViolation / AmbiguousLift when
    sigma is not a normalized Dumont permutation.
    """
    sigma = tuple(sigma)
    l, m = params.l, params.m
    L = params.word_len
    if len(sigma) != L or not is_gen_perm(sigma, l):
        raise NoValidPi(f"not a generalized permutation of order {L}")
    check_pins(sigma, params)
    # blocks of sigma must already be weakly increasing
    for p in range(0, L, l):
        blk = sigma[p:p + l]
        if any(a > b for a, b in zip(blk, blk[1:])):
            raise NoValidPi(f"block {blk} at position {p + 1} not increasing")

    half = params.num_values
    positions = {k: [i for i, v in enumerate(sigma) if v == k]
                 for k in range(1, half + 1)}
    r = params.prefix_len
    # column p needs every value class up to its top value assigned
    cols_ready_at = {k: [] for k in range(1, half + 1)}
    for p in range(l * params.n):
        top_class = (r + (p + 1) * m + l - 1) // l
        cols_ready_at[top_class].append(p)

    pi = [0] * L
    inv = [0] * (L + 1)  # inv[v] = position of value v (1-based), 0 = unset
    solutions: list[Word] = []
    saw_parity_failure = [False]

    def class_assignments(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        """All ways to give the l positions of letter k the values of its
        class, respecting increase inside a position block."""
        pos = positions[k]
        vals = range((k - 1) * l + 1, k * l + 1)
        for perm in permutations(vals):
            ok = True
            for a in range(len(pos)):
                for b in range(a + 1, len(pos)):
                    if pos[a] // l == pos[b] // l and perm[a] > perm[b]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                yield tuple(zip(pos, perm))

    def columns_ok(k: int) -> bool:
        for p in cols_ready_at[k]:
            word = tuple(inv[r + p * m + j] for j in range(1, m + 1))
            # each letter of a column word names one value class, and the
            # classes beyond the pinned ones are in bijection with grid
            # rows: a genuine column has m distinct rows, all inside the
            # column's window (for l = 1, m = 2 this is the classical
            # Dumont inequality)
            rows = {params.row_of_label((s + l - 1) // l) for s in word}
            w_lo, w_hi = params.window(p + 1)
            if (len(rows) < m
                    or not all(w_lo <= i <= w_hi for i in rows)
                    or not parity_property(word, l, m)):
                saw_parity_failure[0] = True
                return False
        return True

    def search(k: int) -> None:
        if k > half:
            solutions.append(tuple(pi))
            return
        for assignment in class_assignments(k):
            for pos, v in assignment:
                pi[pos] = v
                inv[v] = pos + 1
            if columns_ok(k):
                search(k + 1)
            for pos, v in assignment:
                pi[pos] = 0
                inv[v] = 0
            if len(solutions) > 1:
                return

    search(1)
    if not solutions:
        if saw_parity_failure[0]:
            raise ParityViolation(
                "every increasing-block lift fails the parity or column-window property")
        raise NoValidPi("no increasing-block lift exists")
    if len(solutions) > 1:
        raise AmbiguousLift(f"lift of {sigma} is not unique: {solutions[:2]}")
    return solutions[0]


def is_normalized_dumont(sigma, params: Params) -> Optional[Word]:
    """The recovered lift pi when sigma is a normalized Dumont permutation
    for these parameters, else None."""
    try:
        return recover_pi(sigma, params)
    except WordError:
        return None


def is_normalized_dumont_12(sigma) -> bool:
    """Classical single-condition form, only for (l, m) = (1, 2):
    sigma^{-1}(2j) and sigma^{-1}(2j+1) share parity iff the former is
    smaller."""
    sigma = tuple(sigma)
    L = len(sigma)
    if not is_gen_dumont(sigma, 1):
        return False
    pos = invert(sigma)
    for j in range(1, (L - 1) // 2 + 1):
        a, b = pos[2 * j - 1], pos[2 * j]
        if ((a - b) % 2 == 0) != (a < b):
            return False
    return True


# ---------------------------------------------------------------------------
# The st statistic
# ---------------------------------------------------------------------------

def split_blocks(word, l: int) -> tuple[Word, Word]:
    """(even-block part, odd-block part) of a word, blocks of length l
    indexed from zero."""
    w = tuple(word)
    even = tuple(v for i, v in enumerate(w) if (i // l) % 2 == 0)
    odd = tuple(v for i, v in enumerate(w) if (i // l) % 2 == 1)
    return even, odd


def st_from_pi(pi, l: int) -> int:
    """st = L^2/4 - (sum over odd blocks of pi) - inv of either half-word."""
    pi = tuple(pi)
    L = len(pi)
    even, odd = split_blocks(pi, l)
    return L * L // 4 - sum(odd) - inv_word(even) - inv_word(odd)


def st_statistic(sigma, params: Params) -> int:
    """st of a normalized Dumont permutation, via its recovered lift."""
    return st_from_pi(recover_pi(sigma, params), params.l)


# ---------------------------------------------------------------------------
# Direct enumeration (used to certify the bijection image)
# ---------------------------------------------------------------------------

def enumerate_normalized_dumont(params: Params, use_entry_bounds: bool = True
                                ) -> Iterator[Word]:
    """Generate all normalized Dumont permutations for these parameters by
    constraint propagation over blocks, independent of any configuration
    bijection.

    With use_entry_bounds the per-block candidate values are restricted to
    the window-derived intervals of label_entry_bounds; without it every
    block-monotone pinned word is tried, which is slower but serves as a
    completeness cross-check at small parameters.
    """
    l = params.l
    half = params.num_values
    pins = pinned_blocks(params)
    bounds = label_entry_bounds(params) if use_entry_bounds else {}
    remaining = [l] * (half + 1)  # remaining[v] = copies of v still to place
    remaining[0] = 0
    for v in pins.values():
        remaining[v] -= l
        if remaining[v] < 0:
            raise AssertionError("pin multiset broken")
    blocks: list[tuple[int, ...]] = []

    def rec(p: int) -> Iterator[Word]:
        if p == half:
            sigma = tuple(v for blk in blocks for v in blk)
            if is_normalized_dumont(sigma, params) is not None:
                yield sigma
            return
        if p in pins:
            blocks.append((pins[p],) * l)
            yield from rec(p + 1)
            blocks.pop()
            return
        lo, hi = bounds.get(p, (1, half))
        allowed = [v for v in range(lo, hi + 1) if remaining[v]]
        for blk in combinations_with_replacement(allowed, l):
            ok = True
            for v in blk:
                remaining[v] -= 1
                if remaining[v] < 0:
                    ok = False
            if ok:
                blocks.append(blk)
                yield from rec(p + 1)
                blocks.pop()
            for v in blk:
                remaining[v] += 1

    yield from rec(0)
