"""Dyck paths, the Area statistic, and the shape of position words.

A Dyck path of length 2N is encoded as a string over {U, D}.  Rise
sequences (strictly increasing xi with xi_i <= 2i-1) are the standard
bijective encoding: i is an up step iff i appears in xi.

The position word phi(C) of a configuration splits into half-words phi^e
and phi^o; Area of the sorted even half plus the inversions of both halves
recovers inv(C).  The six shape conditions (reference staircase, block
order, row groups, block-entry congruence) characterize the even half, and
the same conditions hold for the mirrored odd half because rotating a
configuration by 180 degrees gives another configuration.
"""

from __future__ import annotations

from .grid import Config, Params, inversions
from .words import Word, inv_word, split_blocks
from .bijection import phi


class DyckError(ValueError):
    pass


class RiseBoundViolation(DyckError):
    """xi is not strictly increasing positive with xi_i <= 2i-1."""


class WrongParams(DyckError):
    """Operation only defined for (l, m) = (1, 2)."""


def _check_rises(xi) -> tuple:
    xi = tuple(xi)
    prev = 0
    for i, x in enumerate(xi, start=1):
        if x <= prev:
            raise RiseBoundViolation(f"xi must be strictly increasing, got {xi}")
        if x > 2 * i - 1:
            raise RiseBoundViolation(f"xi_{i} = {x} exceeds {2 * i - 1}")
        prev = x
    return xi


def dyck_from_rises(xi) -> str:
    """The path whose up steps sit exactly at the entries of xi."""
    xi = _check_rises(xi)
    n = len(xi)
    ups = set(xi)
    return "".join("U" if i in ups else "D" for i in range(1, 2 * n + 1))


def rises_from_dyck(path: str) -> tuple:
    """Inverse of dyck_from_rises; validates the path on the way."""
    if len(path) % 2 or set(path) - {"U", "D"}:
        raise DyckError(f"not a Dyck path: {path!r}")
    height = 0
    xi = []
    for i, step in enumerate(path, start=1):
        height += 1 if step == "U" else -1
        if height < 0:
            raise DyckError(f"path dips below the axis at step {i}")
        if step == "U":
            xi.append(i)
    if height != 0:
        raise DyckError("path does not return to the axis")
    return tuple(xi)


def area(xi) -> int:
    """Boxes between D(xi) and the highest path: sum of xi_i - i."""
    xi = _check_rises(xi)
    return sum(x - i for i, x in enumerate(xi, start=1))


def split_phi(phi_word, l: int) -> tuple[Word, Word, Word]:
    """(phi^e, phi^o, sorted phi^e).

    With i = pl + q (1 <= q <= l), phi^o_i is the entry at position 2lp+q
    and phi^e_i the entry at position l(2p+1)+q: phi^o is the even-block
    part of ``split_blocks`` and phi^e the odd-block part.
    """
    w = tuple(phi_word)
    if len(w) % (2 * l):
        raise DyckError(f"length {len(w)} is not an even multiple of {l}")
    phi_o, phi_e = split_blocks(w, l)
    return phi_e, phi_o, tuple(sorted(phi_e))


def check_inv_decomposition(c: Config) -> bool:
    """inv(C) = Area(sorted phi^e) + inv(phi^e) + inv(phi^o)."""
    phi_e, phi_o, phi_e_sorted = split_phi(phi(c), c.params.l)
    return inversions(c) == area(phi_e_sorted) + inv_word(phi_e) + inv_word(phi_o)


# ---------------------------------------------------------------------------
# Shape of phi(C): the six conditions and the mirrored companion
# ---------------------------------------------------------------------------

def phi_ref(r: int, m: int, L: int) -> Word:
    """Reference staircase: identity up to r, then steps of m."""
    return tuple(i if i <= r else r + m * (i - r - 1) + 1
                 for i in range(1, L // 2 + 1))


def _shape_violations(word: Word, r: int, params: Params) -> list[int]:
    """Condition indices (1-6) violated by one half-word against the
    staircase with offset r."""
    l, m = params.l, params.m
    L = params.word_len
    ref = phi_ref(r, m, L)
    bad = set()

    for i, (v, w) in enumerate(zip(word, ref), start=1):
        if i <= r + l and v != w:
            bad.add(1)
        if i > r + l and v > w:
            bad.add(2)

    # block of a value: the m values r+mp+1 .. r+(p+1)m share block p
    def block(v):
        if v <= r or v > r + m * (l * params.n + 1):
            return None
        return (v - r - 1) // m

    by_block: dict[int, list[int]] = {}
    for v in word:
        b = block(v)
        if b is not None:
            by_block.setdefault(b, []).append(v)
    if any(vals != sorted(vals) for vals in by_block.values()):
        bad.add(3)

    groups: dict[int, list[int]] = {}
    for i, v in enumerate(word, start=1):
        groups.setdefault(-(-(i - r) // l), []).append(v)
    for vals in groups.values():
        blocks = [block(v) for v in vals if block(v) is not None]
        if len(set(blocks)) != len(blocks):
            bad.add(4)
        if vals != sorted(vals):
            bad.add(5)

    present = set(word)
    for v in present:
        if v >= 2 and v - 1 not in present and (v - r - 1) % m:
            bad.add(6)

    return sorted(bad)


def validate_phi_shape(phi_word, params: Params) -> list[int]:
    """Violated condition indices for phi(C)'s even half against the
    staircase with r = |w1|, unioned with the same check on the mirrored
    odd half (complement read right to left) with r' = |w2|."""
    L = params.word_len
    phi_e, phi_o, _ = split_phi(phi_word, params.l)
    mirrored = tuple(L + 1 - v for v in reversed(phi_o))
    bad = set(_shape_violations(phi_e, params.prefix_len, params))
    bad |= set(_shape_violations(mirrored, params.suffix_len, params))
    return sorted(bad)


# ---------------------------------------------------------------------------
# The classical-path construction for (1, 2, n)
# ---------------------------------------------------------------------------

def _require_12(c: Config) -> Params:
    p = c.params
    if (p.l, p.m) != (1, 2):
        raise WrongParams(f"defined only for (1,2,n), got ({p.l},{p.m},{p.n})")
    return p


def _column_step(c: Config, j: int) -> tuple[str, int | None]:
    """(step pair, label joining the upper set) for column j."""
    p = c.params
    n = p.n
    i1, i2 = c.columns[j - 1]
    if i2 <= n:
        return "UU", None
    if i1 > n:
        return "DD", None
    le = sum(1 for col in c.columns[:j - 1] for i in col if i1 < i <= n)
    ro = sum(1 for col in c.columns[j:] for i in col if n < i < i2)
    if le > ro:
        return "DU", p.label_of_row(i2)
    return "UD", p.label_of_row(i1)


def big14_path(c: Config) -> str:
    """The two-steps-per-column Dyck path of a (1,2,n) configuration."""
    _require_12(c)
    return "".join(_column_step(c, j)[0] for j in range(1, c.params.n + 1))


def upper_set(c: Config) -> set[int]:
    """The n+1 values marking up steps: 2 plus one or two labels per
    column, mirroring the step rule."""
    p = _require_12(c)
    n = p.n
    out = {2}
    for j, (i1, i2) in enumerate(c.columns, start=1):
        if i2 <= n:
            out.add(p.label_of_row(i1))
            out.add(p.label_of_row(i2))
        elif i1 <= n:
            out.add(_column_step(c, j)[1])
    return out


def upper_set_and_coincidence(c: Config) -> bool:
    """Strip the outer steps of the path built from the upper set's
    positions in phi(C); the result must be the column-rule path."""
    p = _require_12(c)
    u = upper_set(c)
    if len(u) != p.n + 1:
        return False
    pi = phi(c)
    pi_less = tuple(sorted(pi[i - 1] for i in u))
    path = dyck_from_rises(pi_less)
    return path[1:-1] == big14_path(c)
