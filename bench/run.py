"""Run one benchmark workload against the ``dellac`` in this checkout's src/.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each operation starts when the
previous one returns.  Passes over the workload's operation list repeat
until ``--seconds`` have gone by; a pass that has started is finished, so
every run attempts whole passes.  Memo tables are emptied before every pass
and, where the workload asks, before every operation.

Times are reported at a reference speed: between operations the run times a
fixed piece of pure-Python work (the gauge), and every time is scaled by the
gauge's nominal time over its median time in the same pass (or in the same
set-up probe).  The shared machine's speed moves by a factor of up to two
within minutes, and the gauge moves with it; raw times are on the line
before the result.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every public function
of each layer is wrapped and the metrics are the per-layer ones, and the
spans are written under .bench_out/.  The line before the result gives the
raw times and the operation latency percentiles that have at least ten
samples beyond them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import random
import resource
import statistics
import subprocess
import sys
from itertools import permutations
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES_BEFORE = 1  # fresh-process set-ups timed before the first pass
SETUP_PROBES_AFTER_PASS = 2  # and after every pass, to sample the whole run
GAUGE_NOMINAL_S = 1e-3  # times are scaled to a machine where gauge() takes this
GAUGE_SHARE = 0.04  # gauge time owed per second of operations
GAUGE_AT_PASS_START = 20  # gauge samples at the start of every pass
GAUGE_IN_PROBE = 40  # gauge samples a set-up probe takes once its inputs are built


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_dellac():
    """Import dellac from ROOT/src and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dellac
    except ImportError as exc:
        fail(f"cannot import dellac from {src}: {exc}")
    if not Path(dellac.__file__).resolve().is_relative_to(src):
        fail(f"dellac was imported from {dellac.__file__}, not from {src}")
    for info in pkgutil.iter_modules(dellac.__path__):
        if info.name != "__main__":
            importlib.import_module(f"dellac.{info.name}")
    return dellac


def find_caches(package) -> list:
    """Every ``functools`` memo table in the package, found by attribute."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name != package.__name__ and not name.startswith(package.__name__ + "."):
            continue
        spaces = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                if isinstance(v, type) and v.__module__ == name]
        for space in spaces:
            for value in space.values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def gauge() -> None:
    """Fixed pure-Python work of about a millisecond: tuples, a dict, a
    generator and a sort, the mix the package's own code is made of."""
    seen: dict = {}
    for word in permutations(range(7), 4):
        key = tuple(sorted(word[:2])) + (sum(word) % 5,)
        seen[key] = seen.get(key, 0) + sum(1 for a, b in zip(word, word[1:]) if a > b)
    sorted(seen.items())


class Gauge:
    """Samples of ``gauge()``'s time, taken between timed work.

    The cyclic garbage collector is off while a sample runs, so that a
    collection the operations have made due still falls to them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.owed = 0.0

    def sample(self, count: int = 1) -> None:
        gc.disable()
        try:
            for _ in range(count):
                t0 = perf_counter()
                gauge()
                self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()

    def owe(self, busy_s: float) -> None:
        """Sample for a share of ``busy_s`` seconds of timed work."""
        self.owed += busy_s * GAUGE_SHARE
        while self.owed > 0:
            self.sample()
            self.owed -= self.samples[-1]

    def take(self) -> float:
        """The scale for the work timed since the last take: nominal over
        the median sample.  Starts a new set of samples."""
        scale = GAUGE_NOMINAL_S / statistics.median(self.samples)
        self.samples = []
        return scale


def probe_setup(args, count: int) -> list[tuple[float, float]]:
    """Time ``count`` fresh processes from process start to inputs built
    (interpreter start, import dellac, workload inputs).  Returns (raw
    time, gauge scale) pairs.  Each probe samples the gauge itself once it
    has said it is ready: the two cores of a shared machine need not run at
    the same speed, and the probe may not run on this process's core."""
    times = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 args.workload, "--seed", str(args.seed), "--probe"],
                stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            rest = child.stdout.read().split()
        if child.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
            fail(f"set-up probe exited with {child.returncode}")
        times.append((elapsed, float(rest[0])))
    return times


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, ceil(p / 100 * len(sorted_values)) - 1)]


def typical_pass(latencies) -> float:
    """The time of one pass made of each operation's median latency over
    the run's passes.  A pause of the machine slows the operations that run
    during it, in one pass; the median drops those samples, where the
    median of a few whole-pass times would keep them."""
    return sum(statistics.median(times) for times in latencies)


def scaled(latencies, scales):
    """Every latency times the gauge scale of its pass."""
    return [[dt * scale for dt, scale in zip(times, scales)] for times in latencies]


def run_passes(workload, seconds, rng, clear_caches, tracer, after_pass):
    """Repeat passes over the workload's operations for ``seconds``.

    ``after_pass()`` runs after every pass; its time does not count towards
    ``seconds``.  Returns the first pass's outputs, the operations that
    raised in it, the (pass, key) pairs whose later answer differed, every
    operation's raw latencies (one list per operation, in the workload's
    order, one entry per pass), every raw pass time, every pass's gauge
    scale and, when traced, each pass's per-layer metrics."""
    ops = list(enumerate(workload.ops))
    first, raised, diverged = {}, {}, set()
    latencies = [[] for _ in ops]
    pass_times, scales, layer_passes = [], [], []
    meter = Gauge()
    op_nid = tracer.name_id("bench.operation") if tracer else None
    op_id = 0
    loop_start = perf_counter()
    while not pass_times or perf_counter() - loop_start < seconds:
        rng.shuffle(ops)
        clear_caches()
        if tracer:
            tracer.reset_pass()
        pass_time = 0.0
        meter.sample(GAUGE_AT_PASS_START)
        for index, op in ops:
            if workload.clear_each_op:
                clear_caches()
            op_id += 1
            if tracer:
                tracer.op = op_id
                tracer.enter(op_nid)
            error = None
            t0 = perf_counter()
            try:
                out = op.fn()
            except (Exception, SystemExit) as exc:
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer:
                tracer.exit()
                tracer.op = 0
            latencies[index].append(dt)
            pass_time += dt
            meter.owe(dt)
            if not pass_times:
                if error is None:
                    first[op.key] = out
                else:
                    raised[op.key] = error
            elif (error is None) != (op.key in first) or \
                    (error is None and out != first[op.key]):
                diverged.add((len(pass_times), op.key))
        pass_times.append(pass_time)
        scales.append(meter.take())
        if tracer:
            layer_passes.append(tracer.pass_metrics())
        t0 = perf_counter()
        after_pass()
        loop_start += perf_counter() - t0
    return first, raised, diverged, latencies, pass_times, scales, layer_passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    dellac = import_dellac()
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    caches = find_caches(dellac)

    tracer = None
    if args.trace and not args.probe:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, caches)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.probe:
        print("ready", flush=True)
        meter = Gauge()
        meter.sample(GAUGE_IN_PROBE)
        print(meter.take())
        return 0
    # Set-up probes run while this process waits, spread over the run so
    # that their median is not taken from one moment of a shared machine.
    setup_times = [] if tracer else probe_setup(args, SETUP_PROBES_BEFORE)

    def after_pass():
        if not tracer:
            setup_times.extend(probe_setup(args, SETUP_PROBES_AFTER_PASS))

    def clear_caches():
        for cached in caches:
            cached.cache_clear()

    first, raised, diverged, latencies, pass_times, scales, layer_passes = run_passes(
        workload, args.seconds, random.Random(args.seed), clear_caches, tracer,
        after_pass)
    passes = len(pass_times)
    # Read before the checks, which build the oracle's tables.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wrong = workload.check(first)
    failed = (len(raised) + len(wrong)) * passes + sum(
        1 for _, key in diverged if key not in raised and key not in wrong)
    for key, message in list(wrong.items())[:5]:
        print(f"bench: wrong output for {key}: {message}", file=sys.stderr)
    for p, key in sorted(diverged, key=repr)[:5]:
        print(f"bench: pass {p} gave another answer for {key}", file=sys.stderr)
    kinds: dict = {}
    for error in raised.values():
        kind = error.split(":")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    if kinds:
        print(f"bench: operations that raised, per pass: {kinds}", file=sys.stderr)

    # Raw figures first; the metrics and percentiles are at the gauge's speed.
    detail = {"passes": passes, "raw_pass_s": [round(t, 4) for t in pass_times],
              "raw_wall_s": round(typical_pass(latencies), 4),
              "gauge_ms": [round(GAUGE_NOMINAL_S / s * 1e3, 4) for s in scales]}
    if setup_times:
        detail["raw_setup_s"] = round(statistics.median(t for t, _ in setup_times), 4)
    latencies = scaled(latencies, scales)
    wall_s = typical_pass(latencies)
    latencies = sorted(dt for times in latencies for dt in times)
    detail.update(operations_per_pass=len(workload.ops), op_samples=len(latencies))
    for p in (50, 90, 99):
        if len(latencies) * (100 - p) / 100 >= 10:
            detail[f"op_p{p}_ms"] = round(percentile(latencies, p) * 1e3, 6)
    print(json.dumps(detail))

    if tracer:
        metrics = {name: {"value": statistics.median(lp[name] for lp in layer_passes),
                          "unit": unit}
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"trace-{args.workload}"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t * scale for t, scale in setup_times),
                        "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong and not diverged,
                      "attempted": len(workload.ops) * passes,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
