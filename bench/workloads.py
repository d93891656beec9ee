"""The benchmark's workloads: their inputs, operations and output checks.

A workload builds a fixed list of operations from the seed.  ``run.py``
times every operation and keeps the outputs of the first pass; ``check``
then compares them with the oracle or with properties the method must
have, and returns a message for every operation whose output is wrong.
Operations that raise are counted as failed by ``run.py``.

Every call into ``dellac`` goes through a module attribute at call time
(``grid.enumerate_configs``, not a name imported once), so the traced run
sees it.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from contextlib import redirect_stdout
from math import comb

import oracle
from dellac import bijection, boundary, cli, grid, words


Op = namedtuple("Op", "key fn")  # fn() runs one timed operation


class Sink:
    """Stands in for stdout: keeps what is written for the checks."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_cli(argv):
    """``dellac <argv>`` in this process; returns (exit status, output)."""
    sink = Sink()
    with redirect_stdout(sink):
        status = cli.main(argv)
    return status, tuple(sink.parts)


def grid_argv(command, lmn, *extra):
    l, m, n = lmn
    return [command, "--l", str(l), "--m", str(m), "--n", str(n), *extra]


def valid_config(lmn, columns) -> bool:
    """The grid rules, read from the definition, not from ``dellac``."""
    l, m, n = lmn
    if len(columns) != l * n:
        return False
    per_row = [0] * (m * n + 1)
    for j, col in enumerate(columns, start=1):
        lo, hi = oracle.grid_window(l, m, n, j)
        if len(col) != m or any(a >= b for a, b in zip(col, col[1:])):
            return False
        for i in col:
            if not lo <= i <= hi:
                return False
            per_row[i] += 1
    return all(c == l for c in per_row[1:])


def partitions_inside_staircase(k: int):
    """Every weakly decreasing positive tuple whose i-th part is at most
    k + 1 - i."""
    out = []

    def rec(prefix, cap):
        out.append(tuple(prefix))
        i = len(prefix) + 1
        for p in range(min(cap, k + 1 - i), 0, -1):
            prefix.append(p)
            rec(prefix, p)
            prefix.pop()

    rec([], k)
    return out


def sample_configs(lmn, count: int, rng: random.Random):
    """``count`` distinct configurations of the (l, m, n) grid, each built
    column by column with random row choices and backtracking.  Not
    uniform; reproducible from the generator's state."""
    l, m, n = lmn
    rows = m * n
    found: dict = {}
    tries = 0
    while len(found) < count:
        tries += 1
        if tries > 50 * count:
            raise RuntimeError(f"could not draw {count} configurations of {lmn}")
        caps = [l] * (rows + 1)
        chosen: list[tuple[int, ...]] = []

        def fill(j: int) -> bool:
            if j > l * n:
                return True
            lo, hi = oracle.grid_window(l, m, n, j)
            avail = [i for i in range(lo, hi + 1) if caps[i]]
            options = []
            for _ in range(12):
                if len(avail) < m:
                    break
                options.append(tuple(sorted(rng.sample(avail, m))))
            for pick in dict.fromkeys(options):
                for i in pick:
                    caps[i] -= 1
                if all(caps[i] == 0 for i in range(1, rows + 1) if l * i == j):
                    chosen.append(pick)
                    if fill(j + 1):
                        return True
                    chosen.pop()
                for i in pick:
                    caps[i] += 1
            return False

        if fill(1):
            found.setdefault(tuple(chosen), None)
    return list(found)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class Census:
    """Counting, streaming and inversion polynomials of whole grids."""

    clear_each_op = False
    COUNTS = ((2, 3, 3), (1, 2, 7), (1, 3, 4), (2, 2, 4))
    STREAMS = ((2, 2, 4), (1, 2, 6))
    POLYS = ((2, 2, 4), (1, 4, 3))

    def __init__(self, seed: int) -> None:
        # The grids are fixed; the seed only orders each pass.
        self.ops = [Op(("count", lmn), lambda t=lmn: run_cli(grid_argv("count", t)))
                    for lmn in self.COUNTS]
        for lmn in self.STREAMS:
            for fmt in ("json", "csv"):
                self.ops.append(Op(("enumerate", fmt, lmn),
                                   lambda t=lmn, f=fmt: run_cli(
                                       grid_argv("enumerate", t, "--format", f))))
        for lmn in self.POLYS:
            self.ops.append(Op(("inv_poly", lmn), lambda t=lmn: self.inv_poly(t)))

    @staticmethod
    def inv_poly(lmn):
        counts: dict[int, int] = {}
        for c in grid.enumerate_configs(grid.Params(*lmn)):
            k = grid.inversions(c)
            counts[k] = counts.get(k, 0) + 1
        return tuple(counts.get(k, 0) for k in range(max(counts) + 1))

    def check(self, outputs):
        bad = {}
        for key, out in outputs.items():
            kind, lmn = key[0], key[-1]
            want = oracle.grid_count(*lmn)
            if kind == "inv_poly":
                if out != oracle.grid_poly(*lmn):
                    bad[key] = "inversion polynomial differs from the oracle"
                continue
            status, parts = out
            if status != 0:
                bad[key] = f"exit status {status}"
                continue
            if kind == "count":
                doc = json.loads("".join(parts))
                got = doc.get("count")
                if (doc.get("l"), doc.get("m"), doc.get("n")) != lmn:
                    bad[key] = f"wrong parameters in {doc}"
                elif got != want:
                    bad[key] = f"count {got}, oracle {want}"
                elif lmn[:2] == (1, 2) and got != oracle.A000366[lmn[2] - 1]:
                    bad[key] = f"count {got} is not A000366({lmn[2]})"
            else:
                message = self.check_stream(key[1], lmn, "".join(parts), want)
                if message:
                    bad[key] = message
        return bad

    @staticmethod
    def check_stream(fmt, lmn, text, want):
        lines = text.split("\n")
        if lines[-1] != "":
            return "stream does not end in a newline"
        lines.pop()
        if fmt == "csv":
            header = ",".join(f"col{j}" for j in range(1, lmn[0] * lmn[2] + 1))
            if not lines or lines[0] != header:
                return "missing CSV header"
            body, last = lines[1:-1], lines[-1]
            if not last.startswith("count,"):
                return "missing count row"
            reported = int(last.split(",", 1)[1])
            configs = [tuple(tuple(int(i) for i in cell.split(" "))
                             for cell in line.split(",")) for line in body]
        else:
            body, last = lines[:-1], lines[-1]
            reported = json.loads(last).get("count")
            configs = []
            for line in body:
                doc = json.loads(line)
                if (doc["l"], doc["m"], doc["n"]) != lmn:
                    return f"wrong parameters in {line}"
                configs.append(tuple(tuple(c) for c in doc["columns"]))
        if reported != len(configs) or reported != want:
            return f"count line {reported}, {len(configs)} lines, oracle {want}"
        if any(a >= b for a, b in zip(configs, configs[1:])):
            return "lines are not distinct in lexicographic column order"
        if not all(valid_config(lmn, c) for c in configs):
            return "a line is not a configuration of the grid"
        return None


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

class Roundtrip:
    """varphi, st and psi on one configuration per operation."""

    clear_each_op = False
    # varphi is not injective on these sets and psi raises there.  Their
    # samples are drawn with a fixed generator so that the number of failed
    # operations does not depend on the seed.
    FIXED_SAMPLES = ((3, 2, 3), (2, 3, 3))
    # Sets where every configuration converts; the seed draws these samples.
    SEEDED_SAMPLES = ((2, 2, 4), (1, 5, 3), (1, 2, 7))
    SAMPLE = 200

    def __init__(self, seed: int) -> None:
        configs = []
        for lmn in self.small_grids() + [(4, 2, 2)]:
            configs.extend(grid.enumerate_configs(grid.Params(*lmn)))
        fixed = random.Random(20210406)
        for lmn in self.FIXED_SAMPLES:
            configs.extend(grid.Config(grid.Params(*lmn), cols)
                           for cols in sample_configs(lmn, self.SAMPLE, fixed))
        seeded = random.Random(seed)
        for lmn in self.SEEDED_SAMPLES:
            configs.extend(grid.Config(grid.Params(*lmn), cols)
                           for cols in sample_configs(lmn, self.SAMPLE, seeded))
        self.ops = [Op((idx, (c.params.l, c.params.m, c.params.n), c.columns),
                       lambda c=c: self.convert(c))
                    for idx, c in enumerate(configs)]

    @staticmethod
    def small_grids():
        return [(l, m, n) for l in range(1, 13) for m in range(2, 13)
                for n in range(1, 13) if l * m * n <= 12]

    @staticmethod
    def convert(c):
        sigma = bijection.varphi(c)
        st = words.st_statistic(sigma, c.params)
        back = bijection.psi(sigma, c.params)
        return sigma, st, back.columns

    def check(self, outputs):
        bad = {}
        owners: dict = {}
        for key, (sigma, st, back) in outputs.items():
            _, lmn, columns = key
            owners.setdefault((lmn, sigma), []).append(key)
            if back != columns:
                bad[key] = "psi(varphi(c)) != c"
            elif st + oracle.config_inversions(columns) != comb(len(sigma) // 2, 2):
                bad[key] = "st + inv != C(L/2, 2)"
        for keys in owners.values():
            if len(keys) > 1:
                for key in keys:
                    bad[key] = f"sigma shared by {len(keys)} configurations"
        return bad


# ---------------------------------------------------------------------------
# boards
# ---------------------------------------------------------------------------

class Boards:
    """Poincare polynomials of boards with boundaries, one query each."""

    clear_each_op = True
    ENUM_N = 5
    NON_STAIRCASE_BOTTOMS = ((2, 2), (3, 1))
    # Seeded tops are drawn only where one query is cheap enough that the
    # draw barely moves the pass time; n = 11 and 12 use fixed tops.
    SEEDED_TOPS = {9: 24, 10: 12}
    FIXED_TOPS = {11: ((10, 8, 5, 5, 5, 4, 2, 2, 1, 1), (8, 8, 6, 4, 3, 2, 2)),
                  12: ((11, 8, 8, 7, 7, 5, 4, 3, 3, 1), (9, 7, 7, 5, 3, 3, 3, 3, 2, 1, 1))}

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        n5 = self.ENUM_N
        queries = []
        for top in partitions_inside_staircase(n5 - 1):
            queries.append(("enum", n5, top, None))
            queries.append(("dp", n5, top, None))
        for bottom in self.NON_STAIRCASE_BOTTOMS:
            queries.append(("enum", n5, (), bottom))
        for n in range(9, 13):
            tops = [(), oracle.staircase(n - 1)]
            if n in self.SEEDED_TOPS:
                tops += rng.sample(partitions_inside_staircase(n - 1),
                                   self.SEEDED_TOPS[n])
            tops += self.FIXED_TOPS.get(n, ())
            queries.extend(("dp", n, top, None) for top in tops)
        self.ops = [Op((idx, *q), lambda q=q: self.query(*q))
                    for idx, q in enumerate(queries)]

    @staticmethod
    def query(kind, n, top, bottom):
        if kind == "dp":
            return boundary.q_partition_function_dp(n, top).coeffs
        return boundary.q_partition_function(n, top, bottom).coeffs

    @staticmethod
    def reference(n, top, bottom):
        """The oracle's polynomial and where it comes from.  Staircase
        boards are the (1, 2, n) grid and empty tops have a closed form;
        both are cheaper than the board DP at n = 12."""
        if bottom is None and not top:
            return oracle.empty_top_closed_form(n), "the closed form"
        if bottom is None and top == oracle.staircase(n - 1):
            return oracle.grid_poly(1, 2, n), "the (1, 2, n) grid polynomial"
        return oracle.board_poly(n, top, bottom), "the oracle's board DP"

    def check(self, outputs):
        bad = {}
        expected: dict = {}
        by_query: dict = {}
        for key, coeffs in outputs.items():
            _, kind, n, top, bottom = key
            query = (n, top, bottom)
            if query not in expected:
                expected[query] = self.reference(*query)
            by_query.setdefault(query, []).append((key, coeffs))
            want, source = expected[query]
            if coeffs != want:
                bad[key] = f"polynomial differs from {source}"
        for pairs in by_query.values():
            if len({coeffs for _, coeffs in pairs}) > 1:
                for key, _ in pairs:
                    bad.setdefault(key, "DP and enumeration disagree")
        return bad


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify:
    """``dellac verify all`` with default flags, once per pass."""

    clear_each_op = True

    def __init__(self, seed: int) -> None:
        # Fixed input; the seed has nothing to draw.
        self.ops = [Op(("verify", "all"), lambda: run_cli(["verify", "all"]))]

    def check(self, outputs):
        bad = {}
        for key, (status, parts) in outputs.items():
            message = self.check_report(status, "".join(parts))
            if message:
                bad[key] = message
        return bad

    @staticmethod
    def check_report(status, text):
        if status != 0:
            return f"exit status {status}"
        lines = text.splitlines()
        rows = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])
        if summary != {"passed": len(rows), "failed": 0}:
            return f"summary {summary} for {len(rows)} rows"
        failing = [r for r in rows if r["status"] != "pass"]
        if failing:
            return f"failing row {failing[0]}"
        genocchi = [r for r in rows if r["suite"] == "genocchi"]
        if len(genocchi) != 1:
            return "no genocchi row"
        values = [int(v) for v in genocchi[0]["detail"].split(", ")]
        if values != list(oracle.A000366[:len(values)]):
            return f"genocchi row {values} is not a prefix of A000366"
        counted = 0
        for r in rows:
            if r["suite"] == "bijection" and r["identity"] == "varphi-bijective":
                lmn = tuple(int(part.split("=")[1]) for part in r["params"].split(","))
                got = int(r["detail"].split()[0])
                if got != oracle.grid_count(*lmn):
                    return f"{r['params']}: {got} configurations, oracle {oracle.grid_count(*lmn)}"
                counted += 1
        if not counted:
            return "no bijection rows with configuration counts"
        return None


WORKLOADS = {"census": Census, "roundtrip": Roundtrip, "boards": Boards,
             "verify": Verify}
