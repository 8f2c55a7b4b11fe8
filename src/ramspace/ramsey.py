"""Witness computation and certification for finite Ramsey-type theorems.

All searches share one shape.  A *level* m names a finite instance: the
canonical full stem of the space truncated at m, the domain of
length-k approximations sitting at depth exactly m, the witness objects
of length n at the same depth, and for each witness the configuration
of domain items below it.  A level is a *witness level* when every
s-coloring of the domain leaves some witness's configuration
monochromatic; searches walk m upward from the smallest structurally
possible value and certify the first witness level found.

Concrete instances:

  * classical finite Ramsey numbers: level M colors the k-subsets of
    {0..M-1}, and its witnesses are the n-subsets;
  * finite vector Ramsey numbers over GF(q) (Graham-Leeb-Rothschild):
    domains are the rank-k echelon matrices with m columns, witnesses
    the rank-n ones, configurations the subspace order;
  * partition Ramsey numbers (Graham-Rothschild parameter sets):
    domains are the k-block partitions of the level, configurations the
    coarsenings of an m-block witness.

One searcher decides a level: a backtracking search over one coloring
per color permutation class, on int masks over the level's items (each
configuration is one mask, each color keeps the mask of the items it
has colored, and a configuration is monochromatic iff it lies inside
one color's mask; an empty configuration is never monochromatic, in the
searcher as in verify_witness).  Exhaustive mode refuses a level whose
s^N colorings exceed its ceiling and otherwise reports what a scan of
all s^N colorings would: the search's first bad coloring is the least
one in the scan's order.  Backtracking mode reports the search's nodes
and may stop at a node budget.

Lower bounds are explicit bad colorings.  Every certificate replays
through verify_witness, an independent checker that re-derives the
instance and never reuses the searcher's tables; a witness claim
replays in a node-bounded depth-first search whose cost is the
searcher's node count rather than s^N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Approximation, Space, Stem
from .errors import CeilingExceededError
from .forcing import ALT1, ALT2, INCONCLUSIVE, MAX_REDUCTS, FrontFamily, galvin_search
from .spaces import ell_space, parse_params_str, space_from_params

FOUND = "found"
LOWER_BOUND = "lower_bound"
EXHAUSTED = "exhausted"

EXHAUSTIVE_CEILING = 1 << 25


@dataclass(frozen=True)
class Coloring:
    """A total coloring of a declared family of approximations."""

    space: Space
    k: int
    s: int
    mapping: dict

    def of(self, a: Approximation) -> int:
        key = self.space.serialize(a)
        if key not in self.mapping:
            raise ValueError(f"coloring is not total: missing {key}")
        c = self.mapping[key]
        if not 0 <= c < self.s:
            raise ValueError(f"color {c} out of range for s={self.s}")
        return c


@dataclass
class LevelInstance:
    kind: str
    level: int
    k: int
    n: int
    q: int | None
    space: Space
    items: list[Approximation]
    witnesses: list[Approximation]
    configs: list[list[int]]

    def instance_str(self) -> str:
        parts = [f"instance={self.kind}", f"k={self.k}", f"n={self.n}"]
        if self.q is not None:
            parts.append(f"q={self.q}")
        return ";".join(parts)


def _level_space(kind: str, m: int, q: int) -> tuple[Space, Stem]:
    """The space truncated at m (whatever its size field is called) and
    its full stem; the length-0 stem at level 0."""
    size = max(m, 1)
    sp = space_from_params(
        dict(space=kind, q=q, ground=size, max_cols=size, max_domain=size)
    )
    return sp, sp.full_stem() if m else Stem(sp, sp.empty())


def _classical_level(M: int, k: int, n: int) -> LevelInstance:
    """The classical instance: the k-subsets of {0..M-1} as items and
    the n-subsets as witnesses.  Items come in the order of their pinned
    (k+1)-subsets (the subset plus M): the order of the depth-(M+1)
    ellentuck level, so a search visits as many nodes here as on that
    level one dimension up."""
    space = ell_space(max(M, 1))
    pinned = ell_space(M + 1)
    combos = sorted(
        itertools.combinations(range(M), k),
        key=lambda c: pinned.sort_key(pinned.make(c + (M,))),
    )
    items = [space.make(c) for c in combos]
    witnesses = [space.make(c) for c in itertools.combinations(range(M), n)]
    index = {a.payload: i for i, a in enumerate(items)}
    configs = [
        [index[c] for c in itertools.combinations(b.payload, k)] for b in witnesses
    ]
    return LevelInstance("classical", M, k, n, None, space, items, witnesses, configs)


def build_level(kind: str, m: int, k: int, n: int, q: int | None = None) -> LevelInstance:
    """The depth-m instance: domain, witnesses, and configurations.

    `kind` is a space tag, or `classical` for `_classical_level`."""
    if kind == "classical":
        return _classical_level(m, k, n)
    space, stem = _level_space(kind, m, q or 2)
    top = stem.top
    prev = space.restrict(top, m - 1) if m >= 1 else None

    def at_depth(a: Approximation) -> bool:
        if not space.fin_leq(a, top):
            return False
        return m == 0 or not space.fin_leq(a, prev)

    below = space.fin_below(top)
    items = [a for a in below if a.length == k and at_depth(a)]
    witnesses = [b for b in below if b.length == n and at_depth(b)]
    configs = [
        [i for i, a in enumerate(items) if space.fin_leq(a, b)] for b in witnesses
    ]
    return LevelInstance(kind, m, k, n, q, space, items, witnesses, configs)


@dataclass
class WitnessResult:
    outcome: str  # found | lower_bound | exhausted | inconclusive
    value: int | None
    found_certificate: str | None = None
    lower_bound_certificate: str | None = None
    stats: dict = field(default_factory=dict)


def _level_exhaustive(inst: LevelInstance, s: int, ceiling: int):
    """(is_witness, first bad coloring or None, colorings checked).

    Refuses a level whose s^N colorings exceed `ceiling` before any
    search, then answers as a scan of all s^N colorings in index order
    (item 0 the most significant base-s digit) would.  The
    restricted-growth search gives that answer: relabelling a
    coloring's colors in order of first use never raises its index, so
    the least bad coloring is restricted-growth, and the search meets
    those in index order.  The scan would have checked every coloring
    up to the bad one, or all s^N on a witness level.
    """
    size = len(inst.items)
    total = s**size
    if total > ceiling:
        raise CeilingExceededError(
            f"exhaustive mode needs {s}^{size} colorings; use backtracking",
            total,
            ceiling,
        )
    is_witness, bad, _ = _level_backtracking(inst, s, None)
    if is_witness:
        return True, None, total
    index = 0
    for c in bad:
        index = index * s + c
    return False, bad, index + 1


def _level_backtracking(inst: LevelInstance, s: int, node_budget: int | None):
    """Search for a bad coloring, pruning color-permutation copies.

    Colors are assigned in canonical item order under the
    restricted-growth rule (a new color may only follow all smaller
    ones), which enumerates exactly one representative per color
    permutation class.  Each color keeps the mask of the items it has
    colored, item i at bit i.  A configuration is fully colored once
    its last item is, so item i keeps the masks of the configurations
    it closes, less its own bit: giving i color c prunes the branch iff
    one of them lies inside c's mask.  An empty configuration is never
    monochromatic, as in verify_witness.  Exhausting the tree therefore
    proves the level is a witness.  Returns (is_witness | None,
    bad_coloring | None, nodes); None means the budget ran out.
    """
    size = len(inst.items)
    closes: list[list[int]] = [[] for _ in range(size)]
    for cfg in inst.configs:
        if cfg:
            last = max(cfg)
            closes[last].append(sum(1 << j for j in cfg if j != last))
    colmask = [0] * s
    nodes = 0

    def rec(i: int, used: int):
        nonlocal nodes
        if i == size:
            return [
                next(c for c in range(s) if colmask[c] >> j & 1) for j in range(size)
            ]
        bit = 1 << i
        for c in range(min(used + 1, s)):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _BudgetExhausted()
            mask = colmask[c]
            for rest in closes[i]:
                if rest & mask == rest:
                    break
            else:
                colmask[c] = mask | bit
                hit = rec(i + 1, max(used, c + 1))
                if hit is not None:
                    return hit
                colmask[c] = mask
        return None

    try:
        bad = rec(0, 0)
    except _BudgetExhausted:
        return None, None, nodes
    if bad is None:
        return True, None, nodes
    return False, bad, nodes


class _BudgetExhausted(Exception):
    pass


def _witness_certificate(inst: LevelInstance, s: int, mode: str, stats: dict) -> str:
    lines = [
        "ramsey-certificate v1",
        inst.instance_str(),
        f"s={s}",
        "claim=witness",
        f"level={inst.level}",
        f"domain={len(inst.items)}",
        f"witnesses={len(inst.witnesses)}",
        f"mode={mode}",
    ]
    for key in sorted(stats):
        lines.append(f"{key}={stats[key]}")
    return "\n".join(lines) + "\n"


def _bad_certificate(inst: LevelInstance, s: int, coloring: list[int]) -> str:
    lines = [
        "ramsey-certificate v1",
        inst.instance_str(),
        f"s={s}",
        "claim=bad-coloring",
        f"level={inst.level}",
        f"domain={len(inst.items)}",
        f"witnesses={len(inst.witnesses)}",
    ]
    for a, c in zip(inst.items, coloring):
        lines.append(f"item={inst.space.serialize(a)};color={c}")
    return "\n".join(lines) + "\n"


def finite_ramsey_witness(
    kind: str,
    k: int,
    n: int,
    s: int,
    bound: int,
    mode: str = "exhaustive",
    q: int | None = None,
    exhaustive_ceiling: int = EXHAUSTIVE_CEILING,
    node_budget: int | None = None,
) -> WitnessResult:
    """Least level m <= bound at which every s-coloring of the depth-m
    domain admits a witness with a monochromatic configuration.

    `kind` is `classical` (k-subsets of {0..m-1}, k >= 0), `matrix`
    (GF(q) vector Ramsey numbers), `partition` (parameter sets, n the
    witness's block count) or `ellentuck`.  Both modes run the same
    restricted-growth search; exhaustive mode refuses a level whose s^N
    colorings exceed `exhaustive_ceiling` (CeilingExceededError) and
    reports `colorings_checked`, backtracking mode reports `nodes` and
    alone takes a `node_budget`.

    Found results carry a witness-level certificate and, when a lower
    level was examined, the bad coloring refuting it; when every level
    up to the bound is refuted the outcome is `exhausted` with the last
    refutation.  A level the node budget cannot decide stops the search
    with `undecided_level` in the stats and outcome `lower_bound`: only
    the refuted levels below it are then known.  When no level below it
    was refuted there is no bound to report, and the outcome is
    `inconclusive`.
    """
    least_k = 0 if kind == "classical" else 1
    if not least_k <= k <= n:
        raise ValueError(f"need {least_k} <= k <= n")
    if s < 1:
        raise ValueError("need s >= 1")
    if mode not in ("exhaustive", "backtracking"):
        raise ValueError(f"unknown mode {mode!r}")
    if node_budget is not None and node_budget < 0:
        raise ValueError("need node_budget >= 0")
    if node_budget is not None and mode == "exhaustive":
        raise ValueError("a node budget needs backtracking mode")
    last_bad: str | None = None
    last_bad_level: int | None = None
    stats: dict = {"levels_examined": 0}
    for m in range(n, bound + 1):
        inst = build_level(kind, m, k, n, q)
        stats["levels_examined"] += 1
        if mode == "exhaustive":
            is_witness, bad, checked = _level_exhaustive(inst, s, exhaustive_ceiling)
            stats["colorings_checked"] = checked
            level_stats = {"colorings_checked": checked}
        else:
            is_witness, bad, nodes = _level_backtracking(inst, s, node_budget)
            stats["nodes"] = nodes
            level_stats = {"nodes": nodes}
            if is_witness is None:
                return WitnessResult(
                    INCONCLUSIVE if last_bad is None else LOWER_BOUND,
                    last_bad_level,
                    lower_bound_certificate=last_bad,
                    stats=dict(stats, undecided_level=m),
                )
        if is_witness:
            return WitnessResult(
                FOUND,
                m,
                found_certificate=_witness_certificate(inst, s, mode, level_stats),
                lower_bound_certificate=last_bad,
                stats=stats,
            )
        last_bad = _bad_certificate(inst, s, bad)
        last_bad_level = m
    return WitnessResult(
        EXHAUSTED, None, lower_bound_certificate=last_bad, stats=stats
    )


# ----- the abstract reduction -----


@dataclass
class ReduceResult:
    outcome: str  # "mono" | "inconclusive"
    stem: Stem | None
    color: int | None
    certificates: list[str]
    diagnostics: str = ""
    stats: dict = field(default_factory=dict)


def abs_ramsey_reduce(
    coloring: Coloring, A: Stem, max_reducts: int = MAX_REDUCTS
) -> ReduceResult:
    """A reduct on which the coloring of length-k approximations is
    constant, obtained by peeling color classes off with the dichotomy
    search (color 0 against the rest, recursing into the rest).  Its
    stats sum the work counters of those searches; a search whose
    reducts pass `max_reducts` refuses as `galvin_search` does."""
    space = coloring.space
    k, s = coloring.k, coloring.s
    if s < 1 or k < 1:
        raise ValueError("need s >= 1 and k >= 1")
    certificates: list[str] = []
    stats = {"walk_nodes": 0, "reducts_scanned": 0}
    current = A
    for color in range(s - 1):
        members = [
            a
            for a in space.fin_below(current.top)
            if a.length == k and coloring.of(a) == color
        ]
        family = FrontFamily(space, tuple(members), k)
        res = galvin_search(current, family, max_reducts)
        certificates.append(res.certificate)
        for key in stats:
            stats[key] += res.stats.get(key, 0)
        if res.outcome == ALT2:
            _assert_monochromatic(space, res.stem, k, coloring, color)
            return ReduceResult("mono", res.stem, color, certificates, stats=stats)
        if res.outcome == ALT1:
            current = res.stem
            continue
        return ReduceResult(
            "inconclusive", None, None, certificates,
            diagnostics=res.diagnostics, stats=stats,
        )
    _assert_monochromatic(space, current, k, coloring, s - 1)
    return ReduceResult("mono", current, s - 1, certificates, stats=stats)


def _assert_monochromatic(space, stem, k, coloring, color):
    for a in space.fin_below(stem.top):
        if a.length == k and coloring.of(a) != color:
            raise AssertionError(
                f"reduction returned a non-monochromatic stem: "
                f"{space.serialize(a)} has color {coloring.of(a)} != {color}"
            )


# ----- dual-to-classical encoding -----


def dual_to_classical_encoding(t: Approximation) -> Approximation:
    """The set of block minima of a partition, with 0 removed.

    Pulls colorings of k-subsets back to (k+1)-block partitions: a
    partition with k+1 blocks whose first block contains 0 encodes the
    k-subset of its positive block minima.
    """
    if t.space_tag != "partition":
        raise TypeError("expected a partition approximation")
    minima = tuple(sorted(b[0] for b in t.payload if b[0] != 0))
    return Approximation("ellentuck", minima, len(minima))


# ----- independent certificate verification -----


def _rebuild_level_from_fields(fields: dict) -> LevelInstance:
    inst = parse_params_str(fields["instance_line"])
    kind = inst["instance"]
    k, n = int(inst["k"]), int(inst["n"])
    q = int(inst["q"]) if "q" in inst else None
    return build_level(kind, int(fields["level"]), k, n, q)


# The certificate line that states each mode's work.
_WORK_COUNTER = {"backtracking": "nodes", "exhaustive": "colorings_checked"}


def _replay_witness_claim(keys: list[str], witness_sets: list[set], s: int, ceiling: int):
    """The node count of the replay verify_witness describes; None when
    it reaches a coloring with no monochromatic witness set, or passes
    `ceiling` nodes."""
    place = {key: i for i, key in enumerate(keys)}
    closing: list[list[set]] = [[] for _ in keys]
    for ws in witness_sets:
        if ws:
            last = max(ws, key=place.__getitem__)
            closing[place[last]].append(ws - {last})
    # keys holding each color; a replay never uses more colors than keys
    holders: list[set] = [set() for _ in range(min(s, len(keys)))]
    path: list[int] = []  # the colors of keys[:len(path)]
    used = nodes = color = 0
    while True:
        i = len(path)
        if i == len(keys):
            return None  # a full coloring with no monochromatic witness set
        if color <= used and color < s:
            nodes += 1
            if nodes > ceiling:
                return None
            held = holders[color]
            for rest in closing[i]:
                if rest <= held:
                    color += 1
                    break
            else:
                held.add(keys[i])
                path.append(color)
                used = max(used, color + 1)
                color = 0
            continue
        if not path:
            return nodes
        color = path.pop()
        holders[color].discard(keys[len(path)])
        if not holders[color]:
            used = color
        color += 1


def verify_witness(certificate: str, exhaustive_ceiling: int = EXHAUSTIVE_CEILING) -> bool:
    """Replay a search certificate without the search engine.

    The instance is rebuilt from the certificate header alone by
    `build_level`, classical levels included, and every check works on
    serialized item keys in dictionaries and sets, sharing no index
    table, mask or search helper with the searcher.

    A witness claim is re-established by a restricted-growth depth-first
    replay over the rebuilt items in order: an item may take a color
    already used or the least unused one, and a branch is cut at the
    item that closes a witness configuration (its last item) when that
    configuration is monochromatic.  The replay is complete for two
    reasons.  Permuting the colors maps monochromatic configurations to
    monochromatic ones, and every coloring is such a permutation of
    exactly one restricted-growth coloring, so checking those checks
    all s^N.  A closed configuration that is monochromatic stays so
    under every extension of the branch, so each cut branch holds no
    coloring without a monochromatic configuration.  The claim holds iff
    the replay reaches no full coloring.  `exhaustive_ceiling` bounds
    the replay's nodes (one node per item and color tried); a larger
    replay is refused.  For s >= 2 the node count is below s^N, so every
    claim exhaustive mode can make under the same ceiling replays.
    The certificate's work counter is checked too: a backtracking claim
    must state the replay's node count as `nodes`, an exhaustive one s^N
    as `colorings_checked`.

    A bad-coloring claim is checked by confirming totality and that
    every witness configuration is non-monochromatic.  Malformed,
    tampered or refused certificates give False.
    """
    try:
        lines = [ln for ln in certificate.splitlines() if ln.strip()]
        if lines[0] != "ramsey-certificate v1":
            return False
        fields = {"instance_line": lines[1]}
        items_colors: list[tuple[str, int]] = []
        for ln in lines[2:]:
            if ln.startswith("item="):
                body, _, color = ln[5:].partition(";color=")
                items_colors.append((body, int(color)))
            else:
                key, _, value = ln.partition("=")
                fields[key] = value
        s = int(fields["s"])
        inst = _rebuild_level_from_fields(fields)
        if int(fields["domain"]) != len(inst.items):
            return False
        if int(fields["witnesses"]) != len(inst.witnesses):
            return False
        claim = fields["claim"]
        if claim == "witness":
            mode = fields["mode"]
            counter = int(fields[_WORK_COUNTER[mode]])
    except Exception:
        return False

    space = inst.space
    witness_sets = [
        {space.serialize(inst.items[i]) for i in cfg} for cfg in inst.configs
    ]

    if claim == "bad-coloring":
        colors = dict(items_colors)
        if len(colors) != len(inst.items):
            return False
        if {space.serialize(a) for a in inst.items} != set(colors):
            return False
        if any(not 0 <= c < s for c in colors.values()):
            return False
        return not any(
            len({colors[key] for key in ws}) == 1 for ws in witness_sets if ws
        )

    if claim == "witness":
        keys = [space.serialize(a) for a in inst.items]
        if s < 1 or (mode == "exhaustive" and counter != s ** len(keys)):
            return False
        nodes = _replay_witness_claim(keys, witness_sets, s, exhaustive_ceiling)
        return nodes is not None and (mode == "exhaustive" or counter == nodes)

    return False
