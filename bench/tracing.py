"""Per-layer tracing of ``dellac`` from outside the package.

``install`` replaces each traced function wherever callers look it up: in
the globals of every ``dellac`` module that holds it (``cli`` imports most
of them by name) and, for methods, on the class.  Each call then records a
span: name, start, end, parent span and operation id.  Spans are kept in
compact arrays and written out by ``Tracer.dump`` when the run ends.

Self time is a span's duration minus the time its child spans cover; it is
accumulated as spans close, together with call, yield and failure counts,
so the per-layer metrics of a pass need no second walk over the spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = 0  # operation id given to new spans; 0 outside operations
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self.reset_pass()

    def reset_pass(self) -> None:
        """Start the per-pass tallies."""
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.failures: Counter = Counter()
        self.extra: Counter = Counter()
        self.pass_first_span = len(self.span_name)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer values of the pass since ``reset_pass``."""
        return {name: float(read(self)) for name, (_, read) in LAYER_METRICS.items()}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        now = perf_counter()
        self.span_start.append(now)
        self.span_end.append(now)
        self._stack.append([idx, nid, now, 0.0])

    def exit(self) -> None:
        now = perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.span_end[idx] = now
        dur = now - start
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def inside(self, nid: int) -> bool:
        """Whether a span with this name is open."""
        return any(frame[1] == nid for frame in self._stack)

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        """A traced stand-in for ``fn``.  ``before()`` runs at entry and its
        result goes to ``after(token)`` at exit, inside the span.  When
        ``fn`` returns a generator, each step of it gets a span too."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            self.enter(nid)
            token = before() if before else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failures[nid] += 1
                raise
            finally:
                if after:
                    after(token)
                self.exit()
            if inspect.isgenerator(result):
                return self._iterate(nid, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, nid: int, it):
        """Re-yield a generator's items, with a span around each step."""
        while True:
            self.enter(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            except BaseException:
                self.failures[nid] += 1
                raise
            finally:
                self.exit()
            self.yields[nid] += 1
            yield item

    # -- output ----------------------------------------------------------

    def dump(self, stem: str) -> None:
        """Write ``stem.json`` (names and layout) and ``stem.spans`` (the
        span arrays back to back, in the order the layout lists them)."""
        arrays = [("name", self.span_name), ("parent", self.span_parent),
                  ("op", self.span_op), ("start", self.span_start),
                  ("end", self.span_end)]
        with open(stem + ".spans", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "names": self.names,
            "byteorder": sys.byteorder,
            "arrays": [{"field": f, "typecode": a.typecode,
                        "itemsize": a.itemsize} for f, a in arrays],
            "clock": "time.perf_counter, seconds",
            "parent": "index of the enclosing span, -1 for none",
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def _replace_everywhere(modules, original, replacement) -> None:
    """Swap ``original`` for ``replacement`` in every module namespace."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _public_functions(mod):
    for attr, value in vars(mod).items():
        if (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == mod.__name__):
            yield attr, value


def _cache_totals(caches) -> tuple[int, int, int]:
    """(hits, misses, entries) summed over ``functools`` memo tables."""
    hits = misses = size = 0
    for cached in caches:
        info = cached.cache_info()
        hits += info.hits
        misses += info.misses
        size += info.currsize
    return hits, misses, size


def install(tracer: Tracer, caches: list) -> None:
    """Wrap the public functions of every ``dellac`` layer.

    ``caches`` are the package's memo tables; the ``boundary`` ones are read
    for the DP state and hit counts.  Names absent from the package (after a
    refactor, say) are skipped; the metrics that read them then show zero.
    """
    from dellac import bijection, boundary, cli, dyck, embed, grid, qpoly, tuples, words

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "dellac" or name.startswith("dellac.")]
    boundary_caches = [c for c in caches
                       if getattr(c, "__module__", None) == boundary.__name__]

    def cache_snapshot():
        return _cache_totals(boundary_caches)

    def count_dp_states(token):
        tracer.extra["boundary.dp_states"] += cache_snapshot()[2] - token[2]

    def count_qpf_lookups(token):
        hits, misses, _ = cache_snapshot()
        tracer.extra["boundary.qpf_hits"] += hits - token[0]
        tracer.extra["boundary.qpf_lookups"] += hits - token[0] + misses - token[1]

    dumont_nid = tracer.name_id("words.enumerate_normalized_dumont")

    def count_lift_outside_enum():
        if not tracer.inside(dumont_nid):
            tracer.extra["words.conversion_lifts"] += 1

    functions = [
        (grid, "enumerate_configs", {}),
        (grid, "count_configs", {}),
        (grid, "enumerate_with_inversions", {}),
        (grid, "inversions", {}),
        (bijection, "varphi", {}),
        (bijection, "psi", {}),
        (words, "recover_pi", {"before": count_lift_outside_enum}),
        (words, "st_statistic", {}),
        (words, "enumerate_normalized_dumont", {}),
        (words, "is_normalized_dumont", {}),
        (boundary, "q_partition_function_dp",
         {"before": cache_snapshot, "after": count_dp_states}),
        (boundary, "q_partition_function",
         {"before": cache_snapshot, "after": count_qpf_lookups}),
        (boundary, "enumerate_boundary", {}),
        (boundary, "count_boundary", {}),
        (boundary, "inversions", {}),
        (boundary, "verify_recurrence", {}),
        (boundary, "recurrence_suite", {}),
        (qpoly, "q_int", {}),
        (qpoly, "q_binomial", {}),
        (cli, "main", {}),
        (cli, "build_parser", {}),
        (cli, "dumps", {}),
        (cli, "render_word", {}),
    ]
    functions += [(cli, attr, {}) for attr, _ in _public_functions(cli)
                  if attr.startswith("cmd_")]
    for mod in (dyck, embed, tuples):
        functions += [(mod, attr, {}) for attr, _ in _public_functions(mod)]

    for mod, attr, hooks in functions:
        original = getattr(mod, attr, None)
        if original is None:
            continue
        short = mod.__name__.split(".", 1)[1]
        _replace_everywhere(modules, original,
                            tracer.wrap(original, f"{short}.{attr}", **hooks))

    methods = [
        (getattr(grid, "Config", None), "__post_init__", "grid.Config.__post_init__"),
        (getattr(qpoly, "QPoly", None), "__add__", "qpoly.QPoly.__add__"),
        (getattr(qpoly, "QPoly", None), "__sub__", "qpoly.QPoly.__sub__"),
        (getattr(qpoly, "QPoly", None), "__neg__", "qpoly.QPoly.__neg__"),
        (getattr(qpoly, "QPoly", None), "__mul__", "qpoly.QPoly.__mul__"),
        (getattr(qpoly, "QPoly", None), "__rmul__", "qpoly.QPoly.__mul__"),
        (getattr(qpoly, "QPoly", None), "shifted", "qpoly.QPoly.shifted"),
    ]
    for cls, attr, name in methods:
        original = getattr(cls, attr, None) if cls is not None else None
        if original is not None:
            setattr(cls, attr, tracer.wrap(original, name))

    # Each verify row runs under a span named after its suite.
    items_fn = getattr(cli, "_verify_items", None)
    if items_fn is not None:
        def traced_items(*args, **kwargs):
            items = items_fn(*args, **kwargs)
            return [(suite, identity, tag,
                     tracer.wrap(fn, f"cli.verify.{suite}"), *rest)
                    for suite, identity, tag, fn, *rest in items]
        cli._verify_items = traced_items


# Per-layer metrics: name -> (unit, how to read it from a pass).
def _self(*names):
    return lambda t: sum(t.self_s[t.name_id(n)] for n in names)


def _total(*names):
    return lambda t: sum(t.total_s[t.name_id(n)] for n in names)


def _calls(*names):
    return lambda t: sum(t.calls[t.name_id(n)] for n in names)


def _yields(*names):
    return lambda t: sum(t.yields[t.name_id(n)] for n in names)


def _failures(*names):
    return lambda t: sum(t.failures[t.name_id(n)] for n in names)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _extra(key):
    return lambda t: t.extra[key]


def _prefixed_self(prefix):
    return lambda t: sum(t.self_s[nid] for nid, name in enumerate(t.names)
                         if name.startswith(prefix))


_GRID_ENUM = ("grid.enumerate_configs", "grid.count_configs",
              "grid.enumerate_with_inversions")
_DUMONT = ("words.enumerate_normalized_dumont", "words.is_normalized_dumont")
_BOUNDARY_ENUM = ("boundary.enumerate_boundary", "boundary.q_partition_function",
                  "boundary.count_boundary")
_QPOLY = ("qpoly.QPoly.__add__", "qpoly.QPoly.__sub__", "qpoly.QPoly.__neg__",
          "qpoly.QPoly.__mul__", "qpoly.QPoly.shifted", "qpoly.q_int",
          "qpoly.q_binomial")
_CLI_OUTPUT = ("cli.dumps", "cli.render_word", "cli.cmd_enumerate",
               "cli.cmd_count", "cli.cmd_convert", "cli.cmd_poincare",
               "cli.cmd_verify", "cli.cmd_genocchi")

LAYER_METRICS = {
    "grid.enumerate_s": ("s", _self(*_GRID_ENUM)),
    "grid.configs": ("count",
                     _yields("grid.enumerate_configs", "grid.enumerate_with_inversions")),
    "grid.config_init_s": ("s", _self("grid.Config.__post_init__")),
    "grid.config_inits": ("count", _calls("grid.Config.__post_init__")),
    "grid.inversions_s": ("s", _self("grid.inversions")),
    "grid.inversions_calls": ("count", _calls("grid.inversions")),
    "bijection.varphi_s": ("s", _self("bijection.varphi")),
    "bijection.varphi_calls": ("count", _calls("bijection.varphi")),
    "bijection.psi_s": ("s", _self("bijection.psi")),
    "bijection.psi_calls": ("count", _calls("bijection.psi")),
    "words.recover_pi_s": ("s", _self("words.recover_pi")),
    "words.recover_pi_calls": ("count", _calls("words.recover_pi")),
    "words.recover_pi_failed": ("count", _failures("words.recover_pi")),
    "words.st_statistic_s": ("s", _self("words.st_statistic")),
    "words.lifts_per_conversion": ("ratio",
                                   _ratio(_extra("words.conversion_lifts"),
                                          _calls("bijection.varphi"))),
    "words.dumont_enum_s": ("s", _self(*_DUMONT)),
    "words.dumont_candidates": ("count", _calls("words.is_normalized_dumont")),
    "words.dumont_accepted": ("count",
                              _yields("words.enumerate_normalized_dumont")),
    "words.dumont_accept_ratio": ("ratio",
                                  _ratio(_yields("words.enumerate_normalized_dumont"),
                                         _calls("words.is_normalized_dumont"))),
    "boundary.dp_s": ("s", _self("boundary.q_partition_function_dp")),
    "boundary.dp_calls": ("count", _calls("boundary.q_partition_function_dp")),
    "boundary.dp_states": ("count", _extra("boundary.dp_states")),
    "boundary.enum_s": ("s", _self(*_BOUNDARY_ENUM)),
    "boundary.boards": ("count", _yields("boundary.enumerate_boundary")),
    "boundary.inversions_s": ("s", _self("boundary.inversions")),
    "boundary.inversions_calls": ("count", _calls("boundary.inversions")),
    "boundary.qpf_hit_ratio": ("ratio",
                               _ratio(_extra("boundary.qpf_hits"),
                                      _extra("boundary.qpf_lookups"))),
    "boundary.recurrence_s": ("s",
                              _self("boundary.verify_recurrence",
                                    "boundary.recurrence_suite")),
    "boundary.recurrence_instances": ("count",
                                      _calls("boundary.verify_recurrence")),
    "qpoly.s": ("s", _self(*_QPOLY)),
    "qpoly.add_calls": ("count", _calls("qpoly.QPoly.__add__")),
    "qpoly.mul_calls": ("count", _calls("qpoly.QPoly.__mul__")),
    "qpoly.shift_calls": ("count", _calls("qpoly.QPoly.shifted")),
    "dyck.s": ("s", _prefixed_self("dyck.")),
    "embed.s": ("s", _prefixed_self("embed.")),
    "tuples.s": ("s", _prefixed_self("tuples.")),
    "cli.parse_s": ("s", _self("cli.main", "cli.build_parser")),
    "cli.output_s": ("s", _self(*_CLI_OUTPUT)),
    "cli.verify.bijection_s": ("s", _total("cli.verify.bijection")),
    "cli.verify.dyck_s": ("s", _total("cli.verify.dyck")),
    "cli.verify.embeddings_s": ("s", _total("cli.verify.embeddings")),
    "cli.verify.tuples_s": ("s", _total("cli.verify.tuples")),
    "cli.verify.recurrences_s": ("s", _total("cli.verify.recurrences")),
    "cli.verify.genocchi_s": ("s", _total("cli.verify.genocchi")),
    "trace.spans": ("count", lambda t: len(t.span_name) - t.pass_first_span),
}
