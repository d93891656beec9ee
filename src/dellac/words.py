"""Generalized permutations, Dumont permutations, and the st statistic.

A generalized permutation of order L = n*l is a word over [n] in which every
letter appears exactly l times.  Destandardization dStd^l divides the
values of a permutation by l (rounding up).

A normalized Dumont permutation sigma (relative to grid parameters) pins a
batch of small values on the odd blocks and a batch of large values on the
trailing even blocks, and requires a unique lift pi with dStd(pi) = sigma
whose position blocks increase and whose column words (read through pi^{-1})
all satisfy the parity property.  The pinned blocks are those of the affix
letters of ``grid.labelling``, which never move.

One backtracking search, ``lifts``, finds such lifts.  It places the value
classes in order, deals each class over the blocks in ascending parts, and
tests each value it places as the next letter of its column word, so a
branch is cut at the first letter that fails.  It has two modes:

* given sigma, the blocks of each class are fixed by sigma, and
  ``recover_pi`` takes lifts until it has two (a second raises
  AmbiguousLift);
* given no word, it lists the lifts of every pinned word, and
  ``enumerate_normalized_dumont`` keeps the words that have exactly one.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby, islice
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
    images of the configuration bijection can violate it (their entries are
    bounded by the column windows instead, which the lift search checks), so
    normalized-Dumont acceptance does not route through this predicate.
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
    """Zero-based block index -> pinned value, per the normalization rules.

    An affix letter v of ``bijection.phi1`` never moves, and its l copies
    fill one block of phi1, so block v - 1 of every image is pinned to
    ceil(pos / l), pos being any position of v in phi1.
    """
    prefix, _, suffix = params.labelling()
    before = len(prefix) + params.rows  # blocks of phi1 before the suffix
    pins = {v - 1: k for k, v in enumerate(prefix, start=1)}
    pins.update((v - 1, before + k) for k, v in enumerate(suffix, start=1))
    return pins


def check_pins(sigma: Word, params: Params) -> None:
    l = params.l
    for p, v in pinned_blocks(params).items():
        for q in range(1, l + 1):
            if sigma[p * l + q - 1] != v:
                raise PinViolation(
                    f"position {p * l + q} must hold {v}, found {sigma[p * l + q - 1]}")


def column_words(pi: Word, params: Params) -> list[Word]:
    """The ln column words pi'_p read through the inverse of pi."""
    inv = invert(pi)
    r, m = params.prefix_len, params.m
    return [tuple(inv[r + p * m + k - 1] for k in range(1, m + 1))
            for p in range(params.l * params.n)]


def letter_follows(letter, prev, first) -> bool:
    """Whether a column-word letter may follow the letters before it under
    the parity property.  A letter is a pair (parity of its block, its
    position); prev is the letter just before it, first the word's first.

    The parities must be sorted and equal parities must increase, which is
    prev < letter; once a word has started with an even letter, every odd
    letter must also come before that first one.  Folded over a word from
    its second letter, this holds exactly when ``parity_property`` does.
    """
    return prev < letter and (letter[0] <= first[0] or letter[1] < first[1])


@lru_cache(maxsize=None)
def _letter_tests(params: Params) -> tuple[tuple, tuple]:
    """The constants of the letter test.  For each position s: the grid row
    that its block names (0, outside every window, for a pinned block) and
    its letter (parity of its block, s).  For each value: the column word it
    belongs to, as (its first value, window lo, window hi), or None for a
    value outside every column."""
    l, m, r = params.l, params.m, params.prefix_len
    rows_by_label = params.rows_by_label()
    at = [None] * (params.word_len + 1)
    for s in range(1, params.word_len + 1):
        b = (s + l - 1) // l
        at[s] = (rows_by_label[b], (b % 2, s))
    # column p reads the values r + pm + 1 .. r + (p+1)m
    column_of = [None] * (params.word_len + 1)
    for p in range(params.cols):
        first = r + p * m + 1
        column_of[first:first + m] = [(first, *params.window(p + 1))] * m
    return tuple(at), tuple(column_of)


def lifts(params: Params, sigma=None) -> Iterator[Word]:
    """Every block-increasing lift pi whose column words pass the letter
    test, found by one backtracking search over the value classes.

    Class k holds the values (k-1)l+1 .. kl.  For k = 1 .. L/l in turn the
    search chooses how many of the class's values each block takes (its
    share), deals the values out over those blocks (each block's part
    ascending, filling the block left to right) and tests each value it
    placed, in order, as the next letter of its column word: its row must
    lie in the column's window and differ from the rows of the earlier
    letters, and ``letter_follows`` must hold.  A branch is cut at the first
    letter that fails.

    With sigma, letter k of sigma fixes the share, and the lifts of sigma
    come out in lexicographic order.  Sigma must be a generalized
    permutation of order L (else NoValidPi), hold the pinned values (else
    PinViolation) and have weakly increasing blocks (else NoValidPi); these
    are checked when ``lifts`` is called.  Without sigma a pinned class
    fills its pinned block and any other class goes to unpinned blocks
    with room, which yields every lift of every pinned word with weakly
    increasing blocks.
    """
    l = params.l
    half = params.num_values
    at, column_of = _letter_tests(params)
    # the classes whose share is fixed: all of them when sigma is given
    if sigma is None:
        pins = pinned_blocks(params)
        fixed = {v: [(p, l)] for p, v in pins.items()}
        free = [p for p in range(half) if p not in pins]
    else:
        sigma = tuple(sigma)
        L = params.word_len
        if len(sigma) != L or not is_gen_perm(sigma, l):
            raise NoValidPi(f"not a generalized permutation of order {L}")
        check_pins(sigma, params)
        fixed = {}
        for p in range(half):
            blk = sigma[p * l:(p + 1) * l]
            if any(a > b for a, b in zip(blk, blk[1:])):
                raise NoValidPi(f"block {blk} at position {p * l + 1} not increasing")
            for k, group in groupby(blk):
                fixed.setdefault(k, []).append((p, len(tuple(group))))
    pi = [0] * params.word_len
    inv = [0] * (params.word_len + 1)  # inv[v] = position of value v (1-based)
    room = [l] * half  # free slots left in each block

    def shares(k: int) -> Iterator[list[tuple[int, int]]]:
        if k in fixed:
            yield fixed[k]
        else:
            for combo in combinations_with_replacement([p for p in free if room[p]], l):
                share = [(p, len(tuple(group))) for p, group in groupby(combo)]
                if all(c <= room[p] for p, c in share):
                    yield share

    def deal(values: tuple[int, ...], share) -> list[list[tuple[int, tuple[int, ...]]]]:
        """Every split of the ascending values into the share's parts, in
        lexicographic order of the values read block by block."""
        (p, c), rest = share[0], share[1:]
        if not rest:
            return [[(p, values)]]
        return [[(p, part)] + tail
                for part in combinations(values, c)
                for tail in deal(tuple(v for v in values if v not in part), rest)]

    def letters_ok(values: tuple[int, ...]) -> bool:
        for v in values:
            column = column_of[v]
            if column is None:
                continue
            first, w_lo, w_hi = column
            # each letter of a column word names one value class, and the
            # classes beyond the pinned ones are in bijection with grid
            # rows: a genuine column has m distinct rows, all inside the
            # column's window (for l = 1, m = 2 this is the classical
            # Dumont inequality)
            row, letter = at[inv[v]]
            if not w_lo <= row <= w_hi:
                return False
            if v > first and (any(at[inv[u]][0] == row for u in range(first, v))
                              or not letter_follows(letter, at[inv[v - 1]][1],
                                                    at[inv[first]][1])):
                return False
        return True

    def search(k: int) -> Iterator[Word]:
        if k > half:
            yield tuple(pi)
            return
        values = tuple(range((k - 1) * l + 1, k * l + 1))
        for share in shares(k):
            for split in deal(values, share):
                for p, part in split:
                    slot = p * l + l - room[p]
                    for v in part:
                        pi[slot] = v
                        inv[v] = slot + 1
                        slot += 1
                    room[p] -= len(part)
                if letters_ok(values):
                    yield from search(k + 1)
                for p, part in split:
                    room[p] += len(part)

    return search(1)


def recover_pi(sigma, params: Params) -> Word:
    """Find the unique increasing-block, parity-respecting lift of sigma.

    Raises the word-shape errors of ``lifts`` (NoValidPi, PinViolation),
    then ParityViolation when no lift passes and AmbiguousLift when two do:
    sigma is then not a normalized Dumont permutation.
    """
    sigma = tuple(sigma)
    # every weakly increasing block word has a block-increasing lift, so an
    # empty search means each one failed a letter test
    found = list(islice(lifts(params, sigma), 2))
    if not found:
        raise ParityViolation(
            "every increasing-block lift fails the parity or column-window property")
    if len(found) > 1:
        raise AmbiguousLift(f"lift of {sigma} is not unique: {found}")
    return found[0]


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

def enumerate_normalized_dumont(params: Params) -> Iterator[Word]:
    """All normalized Dumont permutations for these parameters, in sorted
    order, independent of any configuration bijection: the destandardized
    lifts of the search that have exactly one lift."""
    tally = Counter(destandardize(pi, params.l) for pi in lifts(params))
    yield from sorted(sigma for sigma, count in tally.items() if count == 1)
