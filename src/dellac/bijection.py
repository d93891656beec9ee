"""Bijection between grid configurations and normalized Dumont permutations.

The forward direction affixes the padding words to the label word of a
configuration (phi1), then lists positions of each value (phi2) and reduces
modulo blocks (phi3 = dStd^l o phi2).  The composite varphi = phi3 o phi1
lands on normalized Dumont permutations, and psi inverts it via the unique
lift.  The statistic identity st(varphi(c)) = C(L/2, 2) - inv(c) ties the
two sides together.

What holds is narrower than a bijection on all configurations: varphi is a
bijection from the configurations whose image has one preimage onto the
normalized Dumont words (pinned on every set with l*m*n <= 12).  For
l = 1 that is every configuration.  The counts at l >= 2:

=============================  =====================  =========  ==========
set                            configurations         images     one
                                                                 preimage
=============================  =====================  =========  ==========
(2,2,2), (2,2,3), (2,2,4),     6; 147; 10,486;        all        all
(2,2,5)                        1,685,883              distinct
(2,3,2), (2,4,2), (2,5,2),     90; 1,860; 44,730;     all        all
(2,6,2)                        1,172,556              distinct
(3,3,2)                        1,860                  1,860      1,860
(3,2,2)                        20                     10         4
(4,2,2)                        70                     19         6
(5,2,2)                        252                    28         4
(3,2,3)                        4,273                  917        91
(2,3,3)                        128,850                127,050    125,250
(3,4,2)                        297,200                293,500    289,840
(4,3,2)                        44,730                 14,402     4,671
=============================  =====================  =========  ==========
"""

from __future__ import annotations

from .grid import Config, Params, word_of
from .words import Word, column_words, destandardize, recover_pi


def phi1(c: Config) -> Word:
    """w1 * word(C) * w2, a generalized permutation over [L/l]."""
    p = c.params
    return p.prefix_word() + word_of(c) + p.suffix_word()


def phi2(g, l: int) -> Word:
    """Position-listing map: the l positions of value k, in increasing
    order, become entries l(k-1)+1 .. lk of the result.  For l = 1 this is
    the inverse permutation."""
    g = tuple(g)
    beta = [0] * len(g)
    seen: dict[int, int] = {}
    for pos, v in enumerate(g, start=1):
        q = seen.get(v, 0)
        slot = (v - 1) * l + q
        if not 1 <= v or slot >= len(g) or q >= l:
            raise ValueError("input is not a generalized permutation of full support")
        beta[slot] = pos
        seen[v] = q + 1
    if any(b == 0 for b in beta):
        raise ValueError("input is not a generalized permutation of full support")
    return tuple(beta)


def phi3(g, l: int) -> Word:
    return destandardize(phi2(g, l), l)


def phi(c: Config) -> Word:
    """phi2 o phi1: the permutation lift of varphi(c)."""
    return phi2(phi1(c), c.params.l)


def varphi(c: Config) -> Word:
    """phi3 o phi1: the normalized Dumont permutation of c."""
    return phi3(phi1(c), c.params.l)


def psi(sigma, params: Params) -> Config:
    """Inverse of varphi: recover the unique lift, then read each column's
    dot rows off its column word.  Rejections from the lift search
    propagate."""
    l = params.l
    rows_by_label = params.rows_by_label()
    return Config(params, tuple(
        tuple(sorted(rows_by_label[(s + l - 1) // l] for s in word))
        for word in column_words(recover_pi(sigma, params), params)))
