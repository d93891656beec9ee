"""Inversion-preserving embeddings between configuration families.

``xi1`` spreads the l dots of each row over l fresh rows: the i-th dot in
row-major order keeps its column and moves to row i of a (1, m, ln) grid.
Its image is cut out by a per-block ordering of the dot columns, which makes
the inverse a membership test.

``xi2`` rewrites the dot permutation tau of a single-dot-per-row
configuration into that of a two-dots-per-column one.  Every value a that is
neither 0 nor 1 modulo m is split into a1 a2, and the letters a inverts with
are shifted cyclically around the pair: two rotations, one chain of slots on
each side.  A rotation keeps its slot set, so the counts v_a = (#InvL, #InvR)
recorded per value locate both chains in the image, and running the
rotations backwards undoes the pass.
"""

from __future__ import annotations

from collections.abc import Sequence

from .grid import Config, Params, tau_of

# (value, tag): tag 0 for a plain letter, 1 and 2 for the two copies of a
# duplicated value.  Tuple order is the letter order (a1 < a2).
Letter = tuple[int, int]
VAData = tuple[tuple[int, int, int], ...]


class ImageNotDellac(RuntimeError):
    """The rewritten word is not the dot permutation of any configuration.

    Raised by :func:`xi2` only; it signals a bug, not bad input.
    """


def xi1(c: Config) -> Config:
    """Embed an (l, m, n) configuration into the (1, m, ln) grid."""
    p = c.params
    target = Params(1, p.m, p.l * p.n)
    cols: list[list[int]] = [[] for _ in range(target.cols)]
    for i, (_, j) in enumerate(c.dots_row_major(), start=1):
        cols[j - 1].append(i)
    return Config(target, tuple(tuple(col) for col in cols))


def xi1_inverse(d: Config, l: int) -> Config | None:
    """Preimage of d under xi1 with row-group size l, or None.

    d lives on a (1, m, N) grid with l dividing N.  It is an xi1 image
    exactly when the dot columns x_1, ..., x_mN read bottom to top increase
    strictly inside every block of l consecutive rows; collapsing each block
    back to one row then recovers the source.
    """
    p = d.params
    if p.l != 1:
        raise ValueError("xi1_inverse expects a single-dot-per-row configuration")
    if l < 1 or p.n % l:
        raise ValueError(f"row-group size {l} does not divide {p.n}")
    x = [j for _, j in d.dots_row_major()]
    for start in range(0, len(x), l):
        block = x[start:start + l]
        if any(a >= b for a, b in zip(block, block[1:])):
            return None
    source = Params(l, p.m, p.n // l)
    cols: list[list[int]] = [[] for _ in range(source.cols)]
    for i, j in enumerate(x, start=1):
        cols[j - 1].append((i + l - 1) // l)
    return Config(source, tuple(tuple(col) for col in cols))


def duplicated_values(m: int, n: int) -> tuple[int, ...]:
    """The values of [mn] that xi2 duplicates, in increasing order."""
    return tuple(a for a in range(1, m * n + 1) if a % m not in (0, 1))


def _rotate(word: list[Letter], chain: Sequence[int], k: int) -> None:
    """Move the letter in each slot of ``chain`` k slots along it,
    cyclically, in place."""
    letters = [word[s] for s in chain]
    for i, letter in enumerate(letters):
        word[chain[(i + k) % len(chain)]] = letter


def _step(word: list[Letter], a: int) -> tuple[list[Letter], tuple[int, int]]:
    """One rewriting pass: split a into a1 a2 at slots r, r + 1, then turn
    the left chain (the slots left of r holding letters above a, then r + 1)
    by +1 and the right chain (r, then the slots right of r + 1 holding
    letters below a) by -1.  v_a counts the offenders in each chain."""
    r = word.index((a, 0))
    word = word[:r] + [(a, 1), (a, 2)] + word[r + 1:]
    left = [s for s in range(r) if word[s][0] > a] + [r + 1]
    right = [r] + [s for s in range(r + 2, len(word)) if word[s][0] < a]
    _rotate(word, left, 1)
    _rotate(word, right, -1)
    return word, (len(left) - 1, len(right) - 1)


def _standardize(word: Sequence[Letter]) -> tuple[int, ...]:
    rank = {letter: k for k, letter in enumerate(sorted(word), start=1)}
    return tuple(rank[letter] for letter in word)


def _config_from_tau(tau: Sequence[int], params: Params) -> Config:
    """Rebuild the single-dot-per-row configuration with dot permutation
    tau.  ValueError when tau is not one."""
    m = params.m
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(params.cols)]
    for i, v in enumerate(tau, start=1):
        if not 1 <= v <= len(tau):
            raise ValueError(f"letter {v} out of range")
        buckets[(v - 1) // m].append((i, v))
    columns = []
    for j, bucket in enumerate(buckets, start=1):
        bucket.sort()
        values = [v for _, v in bucket]
        if values != sorted(values):
            raise ValueError(f"column {j} numbers its dots out of order")
        columns.append(tuple(i for i, _ in bucket))
    return Config(params, tuple(columns))


def xi2(c: Config) -> tuple[Config, VAData]:
    """Embed a (1, m, n) configuration into the (1, 2, (m-1)n) grid.

    Returns the image together with the bookkeeping triples (a, #InvL,
    #InvR), one per duplicated value in increasing order.  For m = 2 no
    value is duplicated and the map is the identity.
    """
    p = c.params
    if p.l != 1:
        raise ValueError("xi2 expects a single-dot-per-row configuration")
    word: list[Letter] = [(v, 0) for v in tau_of(c)]
    va = []
    for a in duplicated_values(p.m, p.n):
        word, (t, u) = _step(word, a)
        va.append((a, t, u))
    target = Params(1, 2, (p.m - 1) * p.n)
    try:
        image = _config_from_tau(_standardize(word), target)
    except ValueError as exc:
        raise ImageNotDellac(str(exc)) from exc
    return image, tuple(va)


def undo_step(
    word: Sequence[Letter], a: int, t: int, u: int
) -> list[Letter] | None:
    """Reverse one rewriting pass, given v_a = (t, u), or None.

    The left chain is a2's slot and the first t slots after it holding
    letters above a; it ends at r + 1.  The right chain is r, the slots
    between r + 1 and a1's slot holding letters below a, and a1's slot (r
    itself when u = 0).  Both turn back and the pair merges into a; the
    result counts only if :func:`_step` replays it to ``word`` and (t, u).
    """
    word = list(word)
    if (a, 1) not in word or (a, 2) not in word:
        return None
    p1, p2 = word.index((a, 1)), word.index((a, 2))
    left = [p2] + [s for s in range(p2 + 1, len(word)) if word[s][0] > a][:t]
    r = left[-1] - 1
    if r < 0:
        return None
    right = [r] + [s for s in range(r + 2, p1) if word[s][0] < a] + [p1]
    pre = list(word)
    _rotate(pre, left, -1)
    _rotate(pre, right, 1)
    base = pre[:r] + [(a, 0)] + pre[r + 2:]
    return base if _step(base, a) == (word, (t, u)) else None


def xi2_inverse(
    d: Config, va: Sequence[tuple[int, int, int]]
) -> Config | None:
    """Reverse xi2, or None when (d, va) is not an admissible pair.

    The source shape is recovered from the grid of d and the number of
    bookkeeping triples; anything inconsistent (wrong triple count, wrong
    duplicated values, an undo step without a pre-image, or a final word
    that is no dot permutation) yields None.
    """
    p = d.params
    if p.l != 1 or p.m != 2:
        raise ValueError("xi2_inverse expects a two-dots-per-column configuration")
    n = p.n - len(va)
    if n <= 0 or p.n % n:
        return None
    m = p.n // n + 1
    dup = duplicated_values(m, n)
    if tuple(entry[0] for entry in va) != dup:
        return None
    alphabet: list[Letter] = []
    for v in range(1, m * n + 1):
        alphabet.extend([(v, 1), (v, 2)] if v in set(dup) else [(v, 0)])
    word = [alphabet[v - 1] for v in tau_of(d)]
    for a, t, u in reversed(va):
        undone = undo_step(word, a, t, u)
        if undone is None:
            return None
        word = undone
    try:
        return _config_from_tau([v for v, _ in word], Params(1, m, n))
    except ValueError:
        return None
