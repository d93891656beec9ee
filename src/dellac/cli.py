"""Command-line front end.

Subcommands: enumerate, count, convert, poincare, verify, genocchi.

Output conventions: streams (enumerate, genocchi) are JSON Lines with a
trailing count line, or a CSV table under --format csv; single objects
(count, convert, poincare) are one JSON document; verify runs the rows of
the ``dellac.checks`` registry (the same rows the test suite sweeps) and
prints one pass/fail row per identity and parameter set.  All output is
byte-deterministic for fixed flags.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 input
validation error.  convert exits 2 for a fault in its flags or JSON text and
3 for any fault in the document or the conversion; a traceback is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from dellac.bijection import psi, varphi
from dellac.boundary import (
    PartitionOutOfStaircase,
    genocchi_numbers,
    q_partition_function,
    q_partition_function_dp,
    staircase,
)
from dellac.checks import verify_items as _verify_items
from dellac.dyck import (
    area,
    big14_path,
    rises_from_dyck,
)
from dellac.embed import xi1, xi1_inverse, xi2, xi2_inverse
from dellac.grid import (
    Config,
    Params,
    count_configs,
    enumerate_configs,
    json_int,
)
from dellac.tuples import (
    config_to_i,
    config_to_k,
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
    recover_pi,
    st_from_pi,
)

OK = 0
VERIFY_FAILED = 1
USAGE_ERROR = 2
VALIDATION_ERROR = 3


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
    if args.limit is not None and args.limit < 0:
        return fail_usage("--limit must be nonnegative")
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

# The readers and writers below look up the library functions they call in
# this module's globals at call time, so a tracer that rebinds them sees each.

LMN = ("l", "m", "n")


def _read_config(doc, _params=None) -> Config:
    """The grid configuration a document holds; boards are not converted."""
    c = Config.from_json_dict(doc)
    if not isinstance(c.params, Params):
        raise ValueError("a board document is not a grid configuration")
    return c


def _read_tuples_i(doc, params: Params) -> Config:
    entries = i_from_json(doc)
    problems = validate_i(entries, params)
    if problems:
        raise ValueError("; ".join(problems))
    return i_to_config(entries, params)  # validate_i accepts a few non-images


def _read_tuples_k(doc, params: Params) -> Config:
    entries = k_from_json(doc)
    problems = validate_k(entries, params)
    if problems:
        raise ValueError("; ".join(problems))
    return k_to_config(entries, params)


def _read_xi1(doc, l: int) -> Config:
    source = xi1_inverse(_read_config(doc), l)
    if source is None:
        raise ValueError("document is not in the embedding image")
    return source


def _read_xi2(doc, _params) -> Config:
    image = _read_config(doc["config"])
    va = [(json_int(a), json_int(t), json_int(u)) for a, t, u in doc["va"]]
    source = xi2_inverse(image, va)
    if source is None:
        raise ValueError("(image, va) pair is not admissible")
    return source


def _write_dumont(c: Config) -> dict:
    sigma = varphi(c)
    pi = recover_pi(sigma, c.params)
    return {"sigma": list(sigma), "pi": list(pi), "st": st_from_pi(pi, c.params.l),
            "sigma_text": render_word(sigma), "pi_text": render_word(pi)}


def _write_dyck(c: Config) -> dict:
    path = big14_path(c)
    return {"path": path, "area": area(rises_from_dyck(path))}


def _write_xi2(c: Config) -> dict:
    image, va = xi2(c)
    return {"config": image.to_json_dict(), "va": [list(t) for t in va]}


# --from name -> (flags it needs, reader from (document, params) to Config)
SOURCES = {
    "config": ((), _read_config),
    "dumont": (LMN, lambda doc, p: psi(tuple(map(json_int, doc["sigma"])), p)),
    "tuples-i": (LMN, _read_tuples_i),
    "tuples-k": (LMN, _read_tuples_k),
    "xi1": (("l",), _read_xi1),
    "xi2": ((), _read_xi2),
}

# --to name -> writer from Config to a JSON document
TARGETS = {
    "config": Config.to_json_dict,
    "dumont": _write_dumont,
    "dyck": _write_dyck,
    "tuples-i": lambda c: i_to_json(config_to_i(c)),
    "tuples-k": lambda c: k_to_json(config_to_k(c)),
    "xi1": lambda c: xi1(c).to_json_dict(),
    "xi2": _write_xi2,
}


def cmd_convert(args, out) -> int:
    flags, read = SOURCES[args.source]
    if any(getattr(args, flag) is None for flag in flags):
        return fail_usage(f"--from {args.source} needs --" + ", --".join(flags))
    try:
        params = Params(args.l, args.m, args.n) if flags == LMN else args.l
    except ValueError as exc:
        return fail_usage(str(exc))
    try:
        if args.input is None:
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except OSError as exc:
        return fail_usage(str(exc))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, too deep, too long
        return fail_usage(f"malformed JSON: {exc}")
    try:
        c = read(doc, params)
    except (ValueError, KeyError, TypeError) as exc:
        return fail_validation(f"{args.source}: {exc}")
    try:
        result = TARGETS[args.target](c)
    except ValueError as exc:
        return fail_validation(f"{args.target}: {exc}")
    out.write(dumps(result) + "\n")
    return OK


# ---------------------------------------------------------------------------
# poincare / genocchi
# ---------------------------------------------------------------------------

def cmd_poincare(args, out) -> int:
    if args.n < 0:
        return fail_usage("--n must be nonnegative")
    bottom = staircase(args.n - 1) if args.bottom is None else args.bottom
    try:
        # the DP covers staircase bottoms; the transfer covers every bottom
        if bottom == staircase(args.n - 1):
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

def cmd_verify(args, out) -> int:
    if args.max_n < 1:
        return fail_usage("--max-n must be at least 1")
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
    p.add_argument("--from", dest="source", required=True, choices=SOURCES)
    p.add_argument("--to", dest="target", required=True, choices=TARGETS)
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
