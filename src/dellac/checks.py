"""The verification checks that ``dellac verify`` runs and the tests sweep.

A registry row is (suite, identity, parameter sets, check).  Checks look up
the layer functions they call in this module's globals at call time, so a
caller that rebinds those globals (a tracer, say) sees every call.
"""

from __future__ import annotations

from functools import partial
from math import comb

from dellac.bijection import phi, psi, varphi
from dellac.boundary import (
    IDENTITIES,
    count_boundary,
    genocchi_numbers,
    recurrence_suite,
    staircase,
)
from dellac.dyck import (
    check_inv_decomposition,
    upper_set_and_coincidence,
    validate_phi_shape,
)
from dellac.embed import xi1, xi1_inverse, xi2, xi2_inverse
from dellac.grid import Params, dot_inversions, enumerate_configs, inversions, tau_of
from dellac.tuples import (
    config_to_i,
    config_to_k,
    count_i,
    count_k,
    i_to_config,
    k_to_config,
)
from dellac.words import enumerate_normalized_dumont, inv_word, st_statistic

# Parameter sets the grid suites sweep, capped by max_params on l*m*n.
# BIJECTION_PARAMS leaves out (3,2,2), where varphi is not injective;
# tests/test_bijection.py records that limit.
BIJECTION_PARAMS = [(1, 2, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2), (1, 3, 2), (2, 3, 2)]
EMBEDDING_PARAMS = [(2, 2, 2), (2, 3, 2), (1, 3, 2), (1, 3, 3)]
TUPLE_PARAMS = [(1, 2, 3), (2, 2, 2), (1, 3, 2)]

GENOCCHI_PREFIX = (1, 2, 7, 38, 295, 3098, 42271, 726734)

def each_config(problem, detail, lmn):
    """(False, "<problem> at <columns>") at the first configuration of the
    (l, m, n) grid that ``problem`` names a fault of, else (True, detail)."""
    for c in enumerate_configs(Params(*lmn)):
        found = problem(c)
        if found:
            return False, f"{found} at {c.columns}"
    return True, detail


# Per-configuration predicates for each_config: a message, or None.

def _st_fault(c):
    target = comb(c.params.word_len // 2, 2)
    got = st_statistic(varphi(c), c.params) + inversions(c)
    if got != target:
        return f"st+inv = {got} != {target}"


def _tau_inversions_fault(c):
    if inv_word(tau_of(c)) != inversions(c):
        return "inv(tau) mismatch"


def _tau_offsets_fault(c):
    tau = tau_of(c)
    for i, dot in enumerate(c.dots_row_major(), start=1):
        above_left, below_right = dot_inversions(c, dot)
        if tau[i - 1] != i + above_left - below_right:
            return f"offset rule fails for dot {dot}"


def _inv_decomposition_fault(c):
    if not check_inv_decomposition(c):
        return "inv != Area + inv + inv"


def _split_validator_fault(c):
    bad = validate_phi_shape(phi(c), c.params)
    if bad:
        return f"conditions {bad} rejected"


def _path_up_set_fault(c):
    if not upper_set_and_coincidence(c):
        return "path/up-set mismatch"


def _xi1_fault(c):
    image = xi1(c)
    if inversions(image) != inversions(c):
        return "inv changed under xi1"
    if xi1_inverse(image, c.params.l) != c:
        return "xi1 round trip failed"


def _xi2_fault(c):
    image, va = xi2(c)
    if inversions(image) != inversions(c):
        return "inv changed under xi2"
    if xi2_inverse(image, va) != c:
        return "xi2 round trip failed"


def st_identity(lmn):
    target = comb(Params(*lmn).word_len // 2, 2)
    return each_config(_st_fault, f"st + inv = {target}", lmn)


def varphi_bijective(lmn):
    params = Params(*lmn)
    seen = {}
    for c in enumerate_configs(params):
        sigma = varphi(c)
        if sigma in seen:
            return False, f"collision: {c.columns} and {seen[sigma]} share {sigma}"
        seen[sigma] = c.columns
        if psi(sigma, params) != c:
            return False, f"psi(varphi(c)) != c at {c.columns}"
    accepted = set(enumerate_normalized_dumont(params))
    if set(seen) != accepted:
        extra = sorted(accepted - set(seen)) + sorted(set(seen) - accepted)
        return False, f"image mismatch, first difference {extra[0]}"
    return True, f"{len(seen)} configurations"


def tuple_model(name, lmn):
    """Round trip through the I or K model, and the model's own count."""
    to_model, to_config, count = ((config_to_i, i_to_config, count_i) if name == "I"
                                  else (config_to_k, k_to_config, count_k))
    params = Params(*lmn)
    total = 0
    for c in enumerate_configs(params):
        if to_config(to_model(c), params) != c:
            return False, f"{name} round trip failed at {c.columns}"
        total += 1
    independent = count(params)
    if independent != total:
        return False, f"#{name} = {independent}, |DC| = {total}"
    return True, f"#{name} = |DC| = {total}"


def recurrence(identity, max_n):
    checked = 0
    for r in recurrence_suite(max_n, (identity,)):
        if not r.ok:
            return False, (f"n={r.n} args={dict(r.arguments)} "
                           f"lhs={r.lhs} rhs={r.rhs}")
        checked += 1
    return True, f"{checked} instances"


def genocchi_sequence(max_n):
    via_dp = genocchi_numbers(max_n)
    for i, value in enumerate(via_dp, start=1):
        via_transfer = count_boundary(i, staircase(i - 1))
        if via_transfer != value:
            return False, f"n={i}: transfer {via_transfer} != dp {value}"
        if i <= len(GENOCCHI_PREFIX) and value != GENOCCHI_PREFIX[i - 1]:
            return False, f"n={i}: {value} != {GENOCCHI_PREFIX[i - 1]}"
    return True, ", ".join(map(str, via_dp))


# (suite, identity, parameter sets, check): the check takes one (l, m, n)
# of its sets, or max_n where the sets are None.
REGISTRY = [
    ("bijection", "varphi-bijective", BIJECTION_PARAMS, varphi_bijective),
    ("bijection", "st-identity", BIJECTION_PARAMS, st_identity),
    ("bijection", "tau-inversions", BIJECTION_PARAMS,
     partial(each_config, _tau_inversions_fault, "inv(tau) = inv")),
    ("bijection", "tau-offsets", BIJECTION_PARAMS,
     partial(each_config, _tau_offsets_fault, "tau(i) = i + left - right")),
    ("dyck", "inv-decomposition", BIJECTION_PARAMS,
     partial(each_config, _inv_decomposition_fault, "inv = Area + inv(even) + inv(odd)")),
    ("dyck", "split-validator", BIJECTION_PARAMS,
     partial(each_config, _split_validator_fault, "validator accepts every image")),
    ("dyck", "path-up-set", [t for t in BIJECTION_PARAMS if t[:2] == (1, 2)],
     partial(each_config, _path_up_set_fault, "path area bookkeeping agrees")),
    ("embeddings", "xi1", EMBEDDING_PARAMS,
     partial(each_config, _xi1_fault, "inv preserved, round trips")),
    ("embeddings", "xi2", [t for t in EMBEDDING_PARAMS if t[0] == 1],
     partial(each_config, _xi2_fault, "inv preserved, round trips")),
    ("tuples", "i-collections", TUPLE_PARAMS, partial(tuple_model, "I")),
    ("tuples", "k-collections", TUPLE_PARAMS, partial(tuple_model, "K")),
    *[("recurrences", name, None, partial(recurrence, name)) for name in IDENTITIES],
    ("genocchi", "sequence", None, genocchi_sequence),
]


def verify_items(suite, max_n, max_params):
    """(suite, identity, params tag, check) rows of one suite, or of every
    suite under "all"; each check takes no arguments and returns (ok, detail)."""
    items = []
    for row_suite, identity, sets, check in REGISTRY:
        if suite not in (row_suite, "all"):
            continue
        if sets is None:
            items.append((row_suite, identity, f"n<={max_n}", partial(check, max_n)))
        else:
            items += [(row_suite, identity, "l={},m={},n={}".format(*lmn),
                       partial(check, lmn))
                      for lmn in sets if lmn[0] * lmn[1] * lmn[2] <= max_params]
    return items
