"""Two set-theoretic models of configurations.

Both models record a configuration column by column through the wrapped row
labels of its dots.  The I-model keeps, after each of the first ln - 1
columns, a multiset of labels in [1, (m-1)n] (dots sitting above the
current diagonal, bottom-of-window and top-of-window dots folded together)
plus per-row dot counters J.  The K-model does the same without repeated
elements for the spread-out single-dot-per-row form, so it lives in
[1, l(m-1)n] and is reached through the row-spreading embedding.  In both
models the last column is forced, which is why it is not recorded.

Each model's defining conditions are stated once, as step rules that yield
the messages of the conditions a step breaks: ``_i_step`` for the I-model,
``_k_step`` and ``_k_last`` (the last set) for the K-model.  The validators
collect their messages, and the enumerators build candidate next entries
and keep the ones that the step rules accept.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import combinations

from .embed import xi1, xi1_inverse
from .grid import Config, Params, json_int

IPair = tuple[tuple[int, ...], tuple[int, ...]]
ICollection = tuple[IPair, ...]
KCollection = tuple[tuple[int, ...], ...]
CountedPair = tuple[Counter, tuple[int, ...]]


# ---------------------------------------------------------------------------
# I-collections: multisets with row counters
# ---------------------------------------------------------------------------

def _row_of_label(j: int, p: int, params: Params) -> int:
    """Row of the dot recorded as label j in a column of block p."""
    n, wrap = params.n, (params.m - 1) * params.n
    if p == n - 1:
        # the diagonal row n keeps its own label; smaller labels wrap up
        if j == n:
            return n
        return j + wrap if j < n else j
    return j if j > p + 1 else j + wrap


def _label_of_row(r: int, p: int, params: Params) -> int:
    n, wrap = params.n, (params.m - 1) * params.n
    if p == n - 1 and r == n:
        return n
    return r - wrap if r > wrap else r


def _bumped(labels, p: int, diagonal: bool, params: Params) -> set[int]:
    """Rows of [1, n] that gain a dot: the diagonal row when hit, plus
    un-wrapped label additions.  Wrapped additions live in other rows."""
    n = params.n
    if p == n - 1:
        return {n} if n in labels else set()
    out = {r for r in labels if p + 1 < r <= n}
    if diagonal:
        out.add(p + 1)
    return out


def config_to_i(c: Config) -> ICollection:
    """The I-collection of a configuration: ln pairs (multiset, counters)."""
    params = c.params
    l, m, n = params.l, params.m, params.n
    wrap = (m - 1) * n
    held: Counter = Counter()
    counts = [0] * wrap
    out: list[IPair] = [((), tuple(counts))]
    for i in range(1, l * n):
        p = (i - 1) // l
        rows = set(c.columns[i - 1])
        if p == n - 1:
            if m * n not in rows:
                raise ValueError(f"column {i} misses the forced top dot")
            labels = [_label_of_row(r, p, params) for r in rows - {m * n}]
            diagonal = False
        else:
            diag, top = p + 1, p + 1 + wrap
            diagonal = diag in rows
            if diagonal:
                labels = [_label_of_row(r, p, params) for r in rows - {diag}]
            elif top in rows:
                labels = [_label_of_row(r, p, params) for r in rows - {top}]
            else:
                labels = [_label_of_row(r, p, params) for r in rows]
                if not held[diag]:
                    raise ValueError(f"column {i} retires an unrecorded dot")
                held[diag] -= 1
        held.update(labels)
        for r in _bumped(labels, p, diagonal, params):
            counts[r - 1] += 1
        out.append((tuple(sorted(held.elements())), tuple(counts)))
    return tuple(out)


def i_to_config(entries: Sequence[IPair], params: Params) -> Config:
    """Rebuild the configuration whose I-collection is ``entries``."""
    l, m, n = params.l, params.m, params.n
    wrap = (m - 1) * n
    columns: list[tuple[int, ...]] = []
    placed = Counter()
    for i in range(1, l * n):
        p = (i - 1) // l
        prev = Counter(entries[i - 1][0])
        cur = Counter(entries[i][0])
        gained = cur - prev
        if p == n - 1:
            rows = {m * n}
        elif entries[i][1][p] > entries[i - 1][1][p]:
            rows = {p + 1}
        elif cur[p + 1] < prev[p + 1]:
            # one recorded copy of the diagonal label retires (a dot of an
            # earlier column stops being tracked); no special dot this time
            gained = cur - (prev - Counter({p + 1: 1}))
            rows = set()
        else:
            rows = {p + 1 + wrap}
        rows.update(_row_of_label(j, p, params) for j in gained)
        if len(rows) != m:
            raise ValueError(f"pair {i} does not describe {m} distinct rows")
        placed.update(rows)
        columns.append(tuple(sorted(rows)))
    last = [r for r in range(1, m * n + 1) for _ in range(l - placed[r])]
    columns.append(tuple(last))
    return Config(params, tuple(columns))


def _i_step(prev: CountedPair, cur: CountedPair, i: int,
            params: Params) -> Iterator[str]:
    """Messages for the conditions (1), (2) and (4)-(9) that the step from
    pair i - 1 to pair i breaks, each pair a (label Counter, counters)."""
    l, m, n = params.l, params.m, params.n
    wrap = (m - 1) * n
    p, q = divmod(i - 1, l)
    q += 1
    old, prev_j = prev
    new, cur_j = cur
    if (sum(new.values()) != (m - 1) * i
            or any(not 1 <= v <= wrap for v in new)
            or any(k > l for k in new.values())):
        yield (f"(1) at i={i}: need {(m - 1) * i} labels from"
               f" [1,{wrap}], each at most {l} times")
        return
    if (len(cur_j) != wrap or len(prev_j) < wrap
            or any(not 0 <= x <= l for x in cur_j)
            or any(cur_j[r] - prev_j[r] not in (0, 1) for r in range(wrap))):
        yield (f"(2) at i={i}: counters must stay in [0,{l}] and"
               " move by at most one")
        return
    if not q <= cur_j[p] <= l:
        yield f"(2) at i={i}: counter {p + 1} must be in [{q},{l}]"
    keep = old
    if p <= n - 2 and old[p + 1]:
        keep = old.copy()
        keep[p + 1] -= 1
    if any(new[v] < k for v, k in keep.items()):
        yield f"(4) at i={i}: earlier labels may not disappear"
        return
    base, want, diagonal = old, m - 1, False
    if p == n - 1:
        tag = "(4)"
    else:
        c_prev, c_cur = old[p + 1], new[p + 1]
        held_j = prev_j[p]
        diagonal = cur_j[p] - held_j == 1
        if c_prev == 0 and held_j >= q:
            tag = "(5)"
            if not diagonal and c_cur:
                yield (f"(5a) at i={i}: the diagonal label must stay"
                       " absent when its counter holds")
        elif c_prev == 0:
            tag = "(6)"
            if not diagonal:
                yield f"(6) at i={i}: counter {p + 1} must reach {q}"
        elif held_j >= q:
            tag = "(7)"
            if not diagonal and c_cur == c_prev - 1:
                base, want = keep, m
            elif not diagonal and c_cur != c_prev:
                yield (f"(7) at i={i}: without a counter step the"
                       " diagonal label may only keep or lose a copy")
        else:
            tag = "(8)"
            if not diagonal:
                yield f"(8) at i={i}: counter {p + 1} must reach {q}"
    fresh = [v for v, k in new.items() if k > base[v]]
    if len(fresh) != want or any(new[v] != base[v] + 1 for v in fresh):
        yield f"{tag} at i={i}: expected {want} distinct new labels"
        return
    bump = _bumped(fresh, p, diagonal, params)
    for r in range(1, wrap + 1):
        expect = prev_j[r - 1] + (1 if r in bump else 0)
        if cur_j[r - 1] != expect:
            yield f"(9) at i={i}: counter {r} should be {expect}"
            return


def validate_i(entries: Sequence, params: Params) -> list[str]:
    """Check the defining conditions; returns violation messages ([] = ok)."""
    l, m, n = params.l, params.m, params.n
    wrap = (m - 1) * n
    if len(entries) != l * n:
        return [f"collection must have {l * n} pairs, got {len(entries)}"]
    pairs: list[CountedPair] = []
    for entry in entries:
        if len(entry) != 2:
            return ["each entry must be a (multiset, counters) pair"]
        pairs.append((Counter(entry[0]), tuple(entry[1])))
    bad: list[str] = []
    if +pairs[0][0]:
        bad.append("(3) at i=0: the multiset must start empty")
    if pairs[0][1] != (0,) * wrap:
        bad.append("(3) at i=0: the counters must start at zero")
    if bad:
        return bad
    return [msg for i in range(1, l * n)
            for msg in _i_step(pairs[i - 1], pairs[i], i, params)]


def enumerate_i(params: Params) -> Iterator[ICollection]:
    """All valid I-collections, generated from the defining conditions
    alone (no configurations involved): every next pair that ``_i_step``
    accepts after the last one."""
    l, m, n = params.l, params.m, params.n
    wrap = (m - 1) * n
    # the pairs so far, each multiset sorted once when its pair joins
    chain: list[IPair] = [((), (0,) * wrap)]

    def candidates(last: CountedPair, i: int) -> Iterator[CountedPair]:
        # add m - 1 labels, or retire one copy of label p + 1 and add m others
        held, counts = last
        p = (i - 1) // l
        room = [v for v in range(1, wrap + 1) if held[v] < l]
        moves = [(held, combinations(room, m - 1))]
        if held[p + 1]:
            moves.append((held - Counter((p + 1,)),
                          combinations([v for v in room if v != p + 1], m)))
        for rest, picks in moves:
            for added in picks:
                new = rest + Counter(added)
                # with and without a diagonal dot, which the last block
                # ignores
                for bump in {frozenset(_bumped(added, p, diagonal, params))
                             for diagonal in (False, True)}:
                    yield new, tuple(c + (r in bump)
                                     for r, c in enumerate(counts, 1))

    def rec(i: int, last: CountedPair) -> Iterator[ICollection]:
        if i == l * n:
            yield tuple(chain)
            return
        for nxt in candidates(last, i):
            if next(_i_step(last, nxt, i, params), None) is None:
                chain.append((tuple(sorted(nxt[0].elements())), nxt[1]))
                yield from rec(i + 1, nxt)
                chain.pop()

    yield from rec(1, (Counter(), (0,) * wrap))


def count_i(params: Params) -> int:
    return sum(1 for _ in enumerate_i(params))


def i_to_json(entries: Sequence[IPair]) -> list[dict]:
    return [{"I": list(held), "J": list(j)} for held, j in entries]


def i_from_json(data: Sequence[dict]) -> ICollection:
    return tuple((tuple(map(json_int, d["I"])), tuple(map(json_int, d["J"])))
                 for d in data)


# ---------------------------------------------------------------------------
# K-collections: repetition-free sets for the spread-out form
# ---------------------------------------------------------------------------

def config_to_k(c: Config) -> KCollection:
    """The K-collection of a configuration, read off its spread-out form."""
    params = c.params
    l, m, n = params.l, params.m, params.n
    size = l * (m - 1) * n
    spread = xi1(c)
    held: set[int] = set()
    out: list[tuple[int, ...]] = []
    for i in range(1, l * n):
        rows = set(spread.columns[i - 1])
        wrapped = {j if j <= size else j - size for j in rows - {i}}
        if i in rows:
            held = held | wrapped
        else:
            if i not in held:
                raise ValueError(f"row {i} of the spread-out form is empty")
            held = (held - {i}) | wrapped
        out.append(tuple(sorted(held)))
    return tuple(out)


def k_to_config(entries: Sequence[Sequence[int]], params: Params) -> Config:
    """Rebuild the configuration whose K-collection is ``entries``."""
    l, m, n = params.l, params.m, params.n
    size = l * (m - 1) * n
    prev: set[int] = set()
    columns: list[tuple[int, ...]] = []
    for i in range(1, l * n):
        cur = set(entries[i - 1])
        fresh = cur - (prev - {i})
        if i not in prev:
            rows = {i}
        elif i in cur:
            rows = {i + size}
            fresh = cur - prev
        else:
            rows = set()
        rows.update(j if j > i else j + size for j in fresh)
        if len(rows) != m:
            raise ValueError(f"set {i} does not describe {m} distinct rows")
        columns.append(tuple(sorted(rows)))
        prev = cur
    seen = {r for col in columns for r in col}
    columns.append(tuple(r for r in range(1, m * l * n + 1) if r not in seen))
    source = xi1_inverse(Config(Params(1, m, l * n), tuple(columns)), l)
    if source is None:
        raise ValueError("collection does not satisfy the block ordering")
    return source


def _k_step(prev: set[int], entry: Sequence[int], i: int,
            params: Params) -> Iterator[str]:
    """Messages for the conditions (1), (2) and (3a) that set i breaks
    after set i - 1, which is ``prev``."""
    l, m, n = params.l, params.m, params.n
    size = l * (m - 1) * n
    raw = tuple(entry)
    cur = set(raw)
    if (len(cur) != len(raw) or len(cur) != (m - 1) * i
            or any(not 1 <= v <= size for v in cur)):
        yield (f"(1) at i={i}: need {(m - 1) * i} distinct elements"
               f" of [1,{size}]")
        return
    if (prev - {i}) - cur:
        yield f"(2) at i={i}: earlier elements may not disappear"
    for v in sorted(cur - (prev - {i})):
        if (v - 1) % l and v - 1 not in prev:
            yield (f"(3a) at i={i}: element {v} enters before"
                   f" {v - 1} of its block")
            return


def _k_last(final: set[int], params: Params) -> Iterator[str]:
    """Messages for condition (3b) on the last set: the rows still waiting
    for the forced last column, plain rows (never entered) and wrapped rows
    (never re-entered), may not hold two rows of one block."""
    l, size = params.l, params.l * (params.m - 1) * params.n
    ln = params.l * params.n
    plain = [v for v in range(ln, size + 1) if v not in final]
    wrapped = [v for v in range(1, ln) if v not in final] + [ln]
    for kind, group in (("plain", plain), ("wrapped", wrapped)):
        blocks = [(v - 1) // l for v in group]
        if len(blocks) != len(set(blocks)):
            yield (f"(3b): two {kind} rows of one block are left for"
                   " the last column")


def validate_k(entries: Sequence, params: Params) -> list[str]:
    """Check the defining conditions; returns violation messages ([] = ok)."""
    l, n = params.l, params.n
    if len(entries) != l * n - 1:
        return [f"collection must have {l * n - 1} sets, got {len(entries)}"]
    bad: list[str] = []
    prev: set[int] = set()
    for i, entry in enumerate(entries, start=1):
        bad.extend(_k_step(prev, entry, i, params))
        prev = set(entry)
    return bad or list(_k_last(prev, params))


def enumerate_k(params: Params) -> Iterator[KCollection]:
    """All valid K-collections, generated from the defining conditions:
    every next set that ``_k_step`` accepts after the last one, and every
    last set that ``_k_last`` accepts."""
    l, m, n = params.l, params.m, params.n
    size = l * (m - 1) * n
    out: list[tuple[int, ...]] = []

    def rec(i: int, prev: set[int]) -> Iterator[KCollection]:
        if i == l * n:
            if next(_k_last(prev, params), None) is None:
                yield tuple(out)
            return
        base = prev - {i}
        pool = [v for v in range(1, size + 1) if v not in base]
        for fresh in combinations(pool, (m - 1) * i - len(base)):
            cur = base.union(fresh)
            entry = tuple(sorted(cur))
            if next(_k_step(prev, entry, i, params), None) is None:
                out.append(entry)
                yield from rec(i + 1, cur)
                out.pop()

    yield from rec(1, set())


def count_k(params: Params) -> int:
    return sum(1 for _ in enumerate_k(params))


def k_to_json(entries: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(k) for k in entries]


def k_from_json(data: Sequence[Sequence[int]]) -> KCollection:
    return tuple(tuple(map(json_int, k)) for k in data)
