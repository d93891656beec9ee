"""Command-line front end.

Subcommands: enumerate, count, convert, poincare, verify, genocchi.

Output conventions: streams (enumerate, genocchi) are JSON Lines with a
trailing count line, or a CSV table under --format csv; single objects
(count, convert, poincare) are one JSON document; verify prints one
pass/fail row per identity.  All output is byte-deterministic for fixed
flags.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 input
validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from math import comb

from dellac.bijection import phi, psi, varphi
from dellac.boundary import (
    PartitionOutOfStaircase,
    count_boundary,
    genocchi_numbers,
    q_partition_function,
    q_partition_function_dp,
    recurrence_suite,
    staircase,
)
from dellac.dyck import (
    area,
    big14_path,
    check_inv_decomposition,
    rises_from_dyck,
    validate_phi_shape,
    upper_set_and_coincidence,
)
from dellac.embed import xi1, xi1_inverse, xi2, xi2_inverse
from dellac.grid import (
    Config,
    ConfigError,
    Params,
    count_configs,
    dot_inversions,
    enumerate_configs,
    inversions,
    tau_of,
)
from dellac.tuples import (
    config_to_i,
    config_to_k,
    count_i,
    count_k,
    i_from_json,
    i_to_config,
    i_to_json,
    k_from_json,
    k_to_config,
    k_to_json,
    validate_i,
    validate_k,
)
from dellac.words import (
    WordError,
    enumerate_normalized_dumont,
    inv_word,
    recover_pi,
    st_from_pi,
    st_statistic,
)

OK = 0
VERIFY_FAILED = 1
USAGE_ERROR = 2
VALIDATION_ERROR = 3

# Parameter sets the verification suites sweep, filtered by --max-params
# (a cap on l*m*n so the sweeps stay cheap on demand).
BIJECTION_PARAMS = [(1, 2, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2), (1, 3, 2), (2, 3, 2)]
EMBEDDING_PARAMS = [(2, 2, 2), (2, 3, 2), (1, 3, 2), (1, 3, 3)]
TUPLE_PARAMS = [(1, 2, 3), (2, 2, 2), (1, 3, 2)]

GENOCCHI_PREFIX = (1, 2, 7, 38, 295, 3098, 42271, 726734)


def render_word(word) -> str:
    """One-line notation; entries with two or more digits get parentheses."""
    return "".join(str(v) if v < 10 else f"({v})" for v in word)


def parse_partition(text: str):
    """Comma-separated weakly decreasing positive parts; '' is empty."""
    if text == "":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    if any(p <= 0 for p in parts):
        raise argparse.ArgumentTypeError(f"parts must be positive: {text!r}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise argparse.ArgumentTypeError(f"parts must be decreasing: {text!r}")
    return parts


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@contextmanager
def open_output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def fail_validation(message: str) -> int:
    print(f"invalid input: {message}", file=sys.stderr)
    return VALIDATION_ERROR


def fail_usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return USAGE_ERROR


# ---------------------------------------------------------------------------
# enumerate / count
# ---------------------------------------------------------------------------

def cmd_enumerate(args, out) -> int:
    try:
        params = Params(args.l, args.m, args.n)
    except ValueError as exc:
        return fail_usage(str(exc))
    count = 0
    if args.format == "csv":
        out.write(",".join(f"col{j}" for j in range(1, params.cols + 1)) + "\n")
    for c in enumerate_configs(params):
        if args.limit is not None and count >= args.limit:
            break
        if args.format == "csv":
            out.write(",".join(" ".join(map(str, col)) for col in c.columns) + "\n")
        else:
            out.write(dumps(c.to_json_dict()) + "\n")
        count += 1
    if args.format == "csv":
        out.write(f"count,{count}\n")
    else:
        out.write(dumps({"count": count}) + "\n")
    return OK


def cmd_count(args, out) -> int:
    try:
        params = Params(args.l, args.m, args.n)
    except ValueError as exc:
        return fail_usage(str(exc))
    total = count_configs(params)
    if args.format == "csv":
        out.write("l,m,n,count\n")
        out.write(f"{params.l},{params.m},{params.n},{total}\n")
    else:
        out.write(dumps({"l": params.l, "m": params.m, "n": params.n,
                         "count": total}) + "\n")
    return OK


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def _need_params(args):
    if args.l is None or args.m is None or args.n is None:
        return None
    return Params(args.l, args.m, args.n)


def _read_source(args, doc):
    """Turn the parsed input document into a Config, or (None, exit code)."""
    if args.source == "config":
        try:
            return Config.from_json_dict(doc), OK
        except (ConfigError, ValueError, KeyError, TypeError) as exc:
            return None, fail_validation(f"config: {exc}")
    if args.source == "dumont":
        params = _need_params(args)
        if params is None:
            return None, fail_usage("--from dumont needs --l, --m and --n")
        try:
            sigma = tuple(int(v) for v in doc["sigma"])
            return psi(sigma, params), OK
        except (WordError, ValueError, KeyError, TypeError) as exc:
            return None, fail_validation(f"dumont: {exc}")
    if args.source == "tuples-i":
        params = _need_params(args)
        if params is None:
            return None, fail_usage("--from tuples-i needs --l, --m and --n")
        try:
            entries = i_from_json(doc)
        except (ValueError, KeyError, TypeError) as exc:
            return None, fail_validation(f"tuples-i: {exc}")
        problems = validate_i(entries, params)
        if problems:
            return None, fail_validation("tuples-i: " + "; ".join(problems))
        return i_to_config(entries, params), OK
    if args.source == "tuples-k":
        params = _need_params(args)
        if params is None:
            return None, fail_usage("--from tuples-k needs --l, --m and --n")
        try:
            entries = k_from_json(doc)
        except (ValueError, TypeError) as exc:
            return None, fail_validation(f"tuples-k: {exc}")
        problems = validate_k(entries, params)
        if problems:
            return None, fail_validation("tuples-k: " + "; ".join(problems))
        return k_to_config(entries, params), OK
    if args.source == "xi1":
        if args.l is None:
            return None, fail_usage("--from xi1 needs --l (the row multiplicity undone)")
        try:
            image = Config.from_json_dict(doc)
        except (ConfigError, ValueError, KeyError, TypeError) as exc:
            return None, fail_validation(f"xi1: {exc}")
        source = xi1_inverse(image, args.l)
        if source is None:
            return None, fail_validation("xi1: document is not in the embedding image")
        return source, OK
    if args.source == "xi2":
        try:
            image = Config.from_json_dict(doc["config"])
            va = [tuple(int(x) for x in triple) for triple in doc["va"]]
        except (ConfigError, ValueError, KeyError, TypeError) as exc:
            return None, fail_validation(f"xi2: {exc}")
        source = xi2_inverse(image, va)
        if source is None:
            return None, fail_validation("xi2: (image, va) pair is not admissible")
        return source, OK
    return None, fail_usage(f"unknown source representation {args.source!r}")


def _write_target(args, c: Config, out) -> int:
    params = c.params
    if args.target == "config":
        out.write(dumps(c.to_json_dict()) + "\n")
        return OK
    if args.target == "dumont":
        sigma = varphi(c)
        pi = recover_pi(sigma, params)
        out.write(dumps({
            "sigma": list(sigma),
            "pi": list(pi),
            "st": st_from_pi(pi, params.l),
            "sigma_text": render_word(sigma),
            "pi_text": render_word(pi),
        }) + "\n")
        return OK
    if args.target == "dyck":
        if params.l != 1 or params.m != 2:
            return fail_validation("dyck paths only describe the l=1, m=2 family")
        path = big14_path(c)
        out.write(dumps({"path": path, "area": area(rises_from_dyck(path))}) + "\n")
        return OK
    if args.target == "tuples-i":
        out.write(dumps(i_to_json(config_to_i(c))) + "\n")
        return OK
    if args.target == "tuples-k":
        out.write(dumps(k_to_json(config_to_k(c))) + "\n")
        return OK
    if args.target == "xi1":
        out.write(dumps(xi1(c).to_json_dict()) + "\n")
        return OK
    if args.target == "xi2":
        if params.l != 1:
            return fail_validation("xi2 expects a single-dot-per-row configuration")
        image, va = xi2(c)
        out.write(dumps({"config": image.to_json_dict(),
                         "va": [list(t) for t in va]}) + "\n")
        return OK
    return fail_usage(f"unknown target representation {args.target!r}")


def cmd_convert(args, out) -> int:
    if args.input is None:
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return fail_usage(str(exc))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return fail_usage(f"malformed JSON: {exc}")
    c, status = _read_source(args, doc)
    if c is None:
        return status
    return _write_target(args, c, out)


# ---------------------------------------------------------------------------
# poincare / genocchi
# ---------------------------------------------------------------------------

def cmd_poincare(args, out) -> int:
    bottom = staircase(args.n - 1) if args.bottom is None else args.bottom
    try:
        if args.bottom is None and not args.no_dp:
            poly = q_partition_function_dp(args.n, args.top)
        else:
            poly = q_partition_function(args.n, args.top, bottom)
    except PartitionOutOfStaircase as exc:
        return fail_validation(str(exc))
    coeffs = list(poly.coeffs)
    if args.format == "csv":
        out.write("power,coefficient\n")
        for k, a in enumerate(coeffs):
            out.write(f"{k},{a}\n")
        if args.at_q1:
            out.write(f"sum,{poly.at_one()}\n")
    else:
        doc = {"n": args.n, "top": list(args.top), "bottom": list(bottom),
               "coefficients": coeffs}
        if args.at_q1:
            doc["at_q1"] = poly.at_one()
        out.write(dumps(doc) + "\n")
    return OK


def cmd_genocchi(args, out) -> int:
    if args.max_n < 1:
        return fail_usage("--max-n must be at least 1")
    values = genocchi_numbers(args.max_n)
    if args.format == "csv":
        out.write("n,count\n")
        for i, v in enumerate(values, start=1):
            out.write(f"{i},{v}\n")
    else:
        for i, v in enumerate(values, start=1):
            out.write(dumps({"n": i, "count": v}) + "\n")
        out.write(dumps({"count": len(values)}) + "\n")
    return OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _chk_varphi_bijective(lmn):
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


def _chk_st_identity(lmn):
    params = Params(*lmn)
    target = comb(params.word_len // 2, 2)
    for c in enumerate_configs(params):
        got = st_statistic(varphi(c), params) + inversions(c)
        if got != target:
            return False, f"st+inv = {got} != {target} at {c.columns}"
    return True, f"st + inv = {target}"


def _chk_tau_inversions(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        if inv_word(tau_of(c)) != inversions(c):
            return False, f"inv(tau) mismatch at {c.columns}"
    return True, "inv(tau) = inv"


def _chk_tau_offsets(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        tau = tau_of(c)
        for i, dot in enumerate(c.dots_row_major(), start=1):
            above_left, below_right = dot_inversions(c, dot)
            if tau[i - 1] != i + above_left - below_right:
                return False, f"offset rule fails for dot {dot} at {c.columns}"
    return True, "tau(i) = i + left - right"


def _chk_inv_decomposition(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        if not check_inv_decomposition(c):
            return False, f"inv != Area + inv + inv at {c.columns}"
    return True, "inv = Area + inv(even) + inv(odd)"


def _chk_phi_shape(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        bad = validate_phi_shape(phi(c), params)
        if bad:
            return False, f"conditions {bad} rejected at {c.columns}"
    return True, "validator accepts every image"


def _chk_big14(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        if not upper_set_and_coincidence(c):
            return False, f"path/up-set mismatch at {c.columns}"
    return True, "path area bookkeeping agrees"


def _chk_xi1(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        image = xi1(c)
        if inversions(image) != inversions(c):
            return False, f"inv changed under xi1 at {c.columns}"
        if xi1_inverse(image, params.l) != c:
            return False, f"xi1 round trip failed at {c.columns}"
    return True, "inv preserved, round trips"


def _chk_xi2(lmn):
    params = Params(*lmn)
    for c in enumerate_configs(params):
        image, va = xi2(c)
        if inversions(image) != inversions(c):
            return False, f"inv changed under xi2 at {c.columns}"
        if xi2_inverse(image, va) != c:
            return False, f"xi2 round trip failed at {c.columns}"
    return True, "inv preserved, round trips"


def _chk_tuples_i(lmn):
    params = Params(*lmn)
    total = 0
    for c in enumerate_configs(params):
        if i_to_config(config_to_i(c), params) != c:
            return False, f"I round trip failed at {c.columns}"
        total += 1
    independent = count_i(params)
    if independent != total:
        return False, f"#I = {independent}, |DC| = {total}"
    return True, f"#I = |DC| = {total}"


def _chk_tuples_k(lmn):
    params = Params(*lmn)
    total = 0
    for c in enumerate_configs(params):
        if k_to_config(config_to_k(c), params) != c:
            return False, f"K round trip failed at {c.columns}"
        total += 1
    independent = count_k(params)
    if independent != total:
        return False, f"#K = {independent}, |DC| = {total}"
    return True, f"#K = |DC| = {total}"


def _chk_recurrence(identity, max_n):
    checked = 0
    for r in recurrence_suite(max_n, (identity,)):
        if not r.ok:
            return False, (f"n={r.n} args={dict(r.arguments)} "
                           f"lhs={r.lhs} rhs={r.rhs}")
        checked += 1
    return True, f"{checked} instances"


def _chk_genocchi_sequence(max_n):
    via_dp = genocchi_numbers(max_n)
    for i, value in enumerate(via_dp, start=1):
        direct = count_boundary(i, staircase(i - 1))
        if direct != value:
            return False, f"n={i}: enumeration {direct} != dp {value}"
        if i <= len(GENOCCHI_PREFIX) and value != GENOCCHI_PREFIX[i - 1]:
            return False, f"n={i}: {value} != {GENOCCHI_PREFIX[i - 1]}"
    return True, ", ".join(map(str, via_dp))


def _verify_items(suite, max_n, max_params):
    """(suite, identity, params string, callable) tuples for one suite."""
    items = []

    def bij_sets():
        return [t for t in BIJECTION_PARAMS if t[0] * t[1] * t[2] <= max_params]

    if suite in ("bijection", "all"):
        for lmn in bij_sets():
            tag = "l={},m={},n={}".format(*lmn)
            items.append(("bijection", "varphi-bijective", tag,
                          lambda t=lmn: _chk_varphi_bijective(t)))
            items.append(("bijection", "st-identity", tag,
                          lambda t=lmn: _chk_st_identity(t)))
            items.append(("bijection", "tau-inversions", tag,
                          lambda t=lmn: _chk_tau_inversions(t)))
            items.append(("bijection", "tau-offsets", tag,
                          lambda t=lmn: _chk_tau_offsets(t)))
    if suite in ("dyck", "all"):
        for lmn in bij_sets():
            tag = "l={},m={},n={}".format(*lmn)
            items.append(("dyck", "inv-decomposition", tag,
                          lambda t=lmn: _chk_inv_decomposition(t)))
            items.append(("dyck", "split-validator", tag,
                          lambda t=lmn: _chk_phi_shape(t)))
            if lmn[0] == 1 and lmn[1] == 2:
                items.append(("dyck", "path-up-set", tag,
                              lambda t=lmn: _chk_big14(t)))
    if suite in ("embeddings", "all"):
        for lmn in EMBEDDING_PARAMS:
            if lmn[0] * lmn[1] * lmn[2] > max_params:
                continue
            tag = "l={},m={},n={}".format(*lmn)
            items.append(("embeddings", "xi1", tag, lambda t=lmn: _chk_xi1(t)))
            if lmn[0] == 1:
                items.append(("embeddings", "xi2", tag, lambda t=lmn: _chk_xi2(t)))
    if suite in ("tuples", "all"):
        for lmn in TUPLE_PARAMS:
            if lmn[0] * lmn[1] * lmn[2] > max_params:
                continue
            tag = "l={},m={},n={}".format(*lmn)
            items.append(("tuples", "i-collections", tag,
                          lambda t=lmn: _chk_tuples_i(t)))
            items.append(("tuples", "k-collections", tag,
                          lambda t=lmn: _chk_tuples_k(t)))
    if suite in ("recurrences", "all"):
        for identity in ("pinned-row", "free-row", "qtriple", "append-one",
                         "shift1", "shift2", "split-pair", "six-term"):
            items.append(("recurrences", identity, f"n<={max_n}",
                          lambda name=identity: _chk_recurrence(name, max_n)))
    if suite in ("genocchi", "all"):
        items.append(("genocchi", "sequence", f"n<={max_n}",
                      lambda: _chk_genocchi_sequence(max_n)))
    return items


def cmd_verify(args, out) -> int:
    items = _verify_items(args.suite, args.max_n, args.max_params)
    if not items:
        return fail_usage("no checks selected (is --max-params too small?)")

    def run(item):
        suite, identity, tag, fn = item
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return suite, identity, tag, ok, detail

    results = [run(item) for item in items]
    results.sort(key=lambda r: (r[0], r[1], r[2]))

    failed = 0
    for suite, identity, tag, ok, detail in results:
        status = "pass" if ok else "FAIL"
        if not ok:
            failed += 1
        if args.format == "csv":
            safe = detail.replace(",", ";")
            out.write(f"{suite},{identity},{tag},{status},{safe}\n")
        else:
            out.write(dumps({"suite": suite, "identity": identity,
                             "params": tag, "status": status,
                             "detail": detail}) + "\n")
    summary = {"passed": len(results) - failed, "failed": failed}
    if args.format == "csv":
        out.write(f"summary,,,{summary['passed']} passed,{failed} failed\n")
    else:
        out.write(dumps(summary) + "\n")
    return VERIFY_FAILED if failed else OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dellac",
        description="Generalized Dellac configurations: enumeration, "
                    "conversions, polynomials and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", metavar="PATH", default=None)

    p = sub.add_parser("enumerate", help="stream every configuration of a grid")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("count", help="count the configurations of a grid")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--from", dest="source", required=True,
                   choices=("config", "dumont", "tuples-i", "tuples-k",
                            "xi1", "xi2"))
    p.add_argument("--to", dest="target", required=True,
                   choices=("config", "dumont", "dyck", "tuples-i",
                            "tuples-k", "xi1", "xi2"))
    p.add_argument("--input", metavar="PATH", default=None,
                   help="JSON document (default: stdin)")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("poincare",
                       help="inversion generating polynomial of a boundary board")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--top", type=parse_partition, default=())
    p.add_argument("--bottom", type=parse_partition, default=None)
    p.add_argument("--at-q1", action="store_true", dest="at_q1")
    p.add_argument("--no-dp", action="store_true", dest="no_dp",
                   help="force direct enumeration")
    common(p)
    p.set_defaults(fn=cmd_poincare)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("bijection", "dyck", "embeddings",
                                     "tuples", "recurrences", "genocchi",
                                     "all"))
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--max-params", type=int, default=12,
                   help="largest l*m*n swept by the grid suites")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("genocchi", help="emit the staircase-boundary counts")
    p.add_argument("--max-n", type=int, default=8)
    common(p)
    p.set_defaults(fn=cmd_genocchi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with open_output(args.output) as out:
        return args.fn(args, out)


if __name__ == "__main__":
    sys.exit(main())
