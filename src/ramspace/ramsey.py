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
    the rank-n ones, and a witness's configuration its k-dimensional
    subspaces, built as X·B from its basis B;
  * partition Ramsey numbers (Graham-Rothschild parameter sets):
    domains are the k-block partitions of the level, configurations the
    coarsenings of an m-block witness.

One searcher decides a level: a backtracking search over one coloring
per color permutation class, on int masks over the level's
configurations (each item keeps the mask of the configurations holding
it, each color the mask of the configurations an item of another color
has blocked, and an item prunes a color iff a configuration it closes
is not blocked for that color; an empty configuration is never
monochromatic, in the searcher as in verify_witness).  So the prune
test costs one mask operation however many configurations an item
closes.  Exhaustive mode refuses a level whose s^N colorings exceed its
ceiling and otherwise reports what a scan of all s^N colorings would:
the search's first bad coloring is the least one in the scan's order.
Backtracking mode reports the search's nodes and may stop at a node
budget.

Lower bounds are explicit bad colorings.  Certificates are written and
read in the one grammar of `certificate`.  Every certificate replays
through verify_witness, an independent checker that re-derives the
instance and never reuses the searcher's tables; a witness claim
replays in a node-bounded depth-first search whose cost is the
searcher's node count rather than s^N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import certificate
from .core import Approximation, Space, Stem
from .errors import CeilingExceededError
from .forcing import ALT2, MAX_REDUCTS, FrontFamily, galvin_search
from .gflinalg import enumerate_rre, gaussian_binomial, times_basis
from .spaces import SPACES, EllentuckSpace, MatrixSpace

FOUND = "found"
LOWER_BOUND = "lower_bound"
EXHAUSTED = "exhausted"
INCONCLUSIVE = "inconclusive"

# The most colorings an exhaustive level may have (s^N for N items), and
# the most nodes a witness replay may take: the one witness ceiling.
EXHAUSTIVE_CEILING = 1 << 25

# The largest level `build_level` builds: its items plus witnesses, or
# for an ellentuck or partition level its level space's stems.
LEVEL_CEILING = 1 << 20

# The stats key and certificate line that state each mode's work.
_WORK_COUNTER = {"backtracking": "nodes", "exhaustive": "colorings_checked"}


@dataclass(frozen=True)
class Coloring:
    """A coloring of length-k approximations, keyed by value, with
    colors 0..s-1; `of` refuses an approximation it does not color."""

    space: Space
    k: int
    s: int
    mapping: dict

    def __post_init__(self):
        if self.s < 1 or self.k < 1:
            raise ValueError("need s >= 1 and k >= 1")
        for c in self.mapping.values():
            if not 0 <= c < self.s:
                raise ValueError(f"color {c} out of range for s={self.s}")

    def of(self, a: Approximation) -> int:
        color = self.mapping.get(a)
        if color is None:
            raise ValueError(f"coloring is not total: missing {self.space.serialize(a)}")
        return color


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
        q = "" if self.q is None else f";q={self.q}"
        return f"instance={self.kind};k={self.k};n={self.n}{q}"


def _level_space(kind: str, m: int) -> tuple[Space, Stem]:
    """The ellentuck or partition space truncated at m and its full
    stem; the length-0 stem at level 0."""
    sp = SPACES[kind](max(m, 1))
    return sp, sp.full_stem() if m else Stem(sp, sp.empty())


def _refuse_above_ceiling(kind: str, m: int, size: int) -> None:
    if size > LEVEL_CEILING:
        raise CeilingExceededError(f"level {m} of {kind} too large", size, LEVEL_CEILING)


def _classical_level(M: int, k: int, n: int) -> LevelInstance:
    """The classical instance: the k-subsets of {0..M-1} as items and
    the n-subsets as witnesses, in canonical order, which is that of the
    pinned (k+1)-subsets (the subset plus M) of the depth-(M+1) ellentuck
    level: a search visits as many nodes here as one dimension up."""
    _refuse_above_ceiling("classical", M, math.comb(M, k) + math.comb(M, n))
    space = EllentuckSpace(max(M, 1))

    def subsets(d: int) -> list[Approximation]:
        return [Approximation(space.tag, c, d) for c in itertools.combinations(range(M), d)]

    items, witnesses = subsets(k), subsets(n)
    index = {a.payload: i for i, a in enumerate(items)}
    configs = [
        [index[c] for c in itertools.combinations(b.payload, k)] for b in witnesses
    ]
    return LevelInstance("classical", M, k, n, None, space, items, witnesses, configs)


def _matrix_level(m: int, k: int, n: int, q: int) -> LevelInstance:
    """The GLR instance: the k- and n-dimensional subspaces of F_q^m as
    items and witnesses, in canonical order (RREF matrices with m
    columns, the full stem's depth-m approximations).  Witness B's
    configuration is X·B for X over `enumerate_rre(k, n, q)`.  The
    space is built first, so it checks `q` before anything counts."""
    space = MatrixSpace(q, max(m, 1))
    size = sum(gaussian_binomial(m, d, q) for d in (k, n) if 1 <= d <= m)
    _refuse_above_ceiling("matrix", m, size)

    def subspaces(d: int) -> list[Approximation]:
        found = enumerate_rre(d, m, q) if 1 <= d <= m else []
        return [Approximation(space.tag, rows, d) for rows in sorted(found)]

    items, witnesses = subspaces(k), subspaces(n)
    index = {a.payload: i for i, a in enumerate(items)}
    xs = enumerate_rre(k, n, q)
    configs = [
        sorted(index[times_basis(x, b.payload, q)] for x in xs) for b in witnesses
    ]
    return LevelInstance("matrix", m, k, n, q, space, items, witnesses, configs)


def build_level(kind: str, m: int, k: int, n: int, q: int | None = None) -> LevelInstance:
    """The depth-m instance: domain, witnesses, and configurations.

    `kind` is `classical` or `matrix`, built by `_classical_level` and
    `_matrix_level` (the only kind that reads `q`, default 2), or
    `ellentuck` or `partition`: the full stem's length-k and -n `fin_below`
    members at depth m, each witness's configuration the items its row
    `below_test` holds below it.
    Each refuses a level whose size estimate exceeds LEVEL_CEILING
    before it builds anything."""
    if kind == "classical":
        return _classical_level(m, k, n)
    if kind == "matrix":
        return _matrix_level(m, k, n, 2 if q is None else q)
    space, stem = _level_space(kind, m)
    _refuse_above_ceiling(kind, m, space.count_below(stem.top))
    top = stem.top
    in_top = space.below_test(top)
    in_prev = space.below_test(space.restrict(top, m - 1)) if m >= 1 else None

    def at_depth(a: Approximation) -> bool:
        return in_top(a.payload) and (m == 0 or not in_prev(a.payload))

    items = [a for a in space.fin_below(top, k) if at_depth(a)]
    witnesses = [b for b in space.fin_below(top, n) if at_depth(b)]
    payloads = [a.payload for a in items]
    configs = [
        [i for i, below in enumerate(map(space.below_test(b), payloads)) if below]
        for b in witnesses
    ]
    return LevelInstance(kind, m, k, n, None, space, items, witnesses, configs)


@dataclass
class WitnessResult:
    outcome: str  # found | lower_bound | exhausted | inconclusive
    value: int | None
    found_certificate: str | None = None
    lower_bound_certificate: str | None = None
    stats: dict = field(default_factory=dict)


def _level_exhaustive(inst: LevelInstance, s: int):
    """(is_witness, first bad coloring or None, colorings checked).

    Refuses a level whose s^N colorings exceed `EXHAUSTIVE_CEILING`
    before any search, then answers as a scan of all s^N colorings in
    index order (item 0 the most significant base-s digit) would.  The
    restricted-growth search gives that answer: relabelling a
    coloring's colors in order of first use never raises its index, so
    the least bad coloring is restricted-growth, and the search meets
    those in index order.  The scan would have checked every coloring
    up to the bad one, or all s^N on a witness level.
    """
    size = len(inst.items)
    total = s**size
    if total > EXHAUSTIVE_CEILING:
        raise CeilingExceededError(
            f"exhaustive mode needs {s}^{size} colorings; use backtracking",
            total,
            EXHAUSTIVE_CEILING,
        )
    is_witness, bad, _ = _level_backtracking(inst, s)
    if is_witness:
        return True, None, total
    index = 0
    for c in bad:
        index = index * s + c
    return False, bad, index + 1


def _level_backtracking(inst: LevelInstance, s: int, node_budget: int | None = None):
    """Search for a bad coloring, pruning color-permutation copies.

    One depth-first loop, without recursion, colors the items in
    canonical order under the restricted-growth rule (a new color may
    only follow all smaller ones): one coloring per color permutation
    class.  Masks are over the configurations, configuration j at bit
    j: `contains[i]` holds the configurations holding item i and
    `closing[i]` those whose last item is i.  `blocked[c]` holds the
    configurations with an item of a color other than c, which can
    never be monochromatic in c.  So giving item i color c prunes iff
    some configuration of `closing[i]` is outside `blocked[c]`, one
    test whatever the number of configurations i closes.  Coloring i
    with c saves `blocked` for i and ORs `contains[i]` into every other
    color's mask; backtracking to i restores the saved list.  An empty
    configuration is never monochromatic, as in verify_witness, so
    exhausting the tree proves the level is a witness.  The path is the
    color given at each item and the colors in use on entering it; one
    node is counted per color tried.  Only prunes and backtracks lie
    between two colorings, so the budget is checked when an item is
    colored and when the tree is exhausted.  Returns (is_witness | None,
    bad_coloring | None, nodes); None means the node budget ran out, at
    node budget + 1.
    """
    size = len(inst.items)
    if not size:
        return False, [], 0
    contains = [0] * size
    closing = [0] * size
    for j, cfg in enumerate(inst.configs):
        if cfg:
            bit = 1 << j
            for i in cfg:
                contains[i] |= bit
            closing[max(cfg)] |= bit
    budget = float("inf") if node_budget is None else node_budget
    others = [[d for d in range(s) if d != c] for c in range(s)]
    blocked = [0] * s
    saved = [blocked] * size  # blocked on entering item i
    given = [0] * size
    used_on = [0] * size
    limits = [min(used + 1, s) for used in range(s + 1)]  # colors open to item i
    i = c = used = nodes = 0
    limit = limits[0]
    while True:
        if c < limit:
            nodes += 1
            need = closing[i]
            if need & blocked[c] != need:
                c += 1
                continue
            if nodes > budget:
                return None, None, budget + 1
            saved[i] = blocked
            blocked = blocked.copy()
            held = contains[i]
            for d in others[c]:
                blocked[d] |= held
            given[i] = c
            used_on[i] = used
            if c == used:
                used += 1
            i += 1
            if i == size:
                return False, given, nodes
            c = 0
            limit = limits[used]
        elif i:  # every color tried at item i: back to item i - 1
            i -= 1
            blocked = saved[i]
            used = used_on[i]
            c = given[i] + 1
            limit = limits[used]
        elif nodes > budget:
            return None, None, budget + 1
        else:
            return True, None, nodes


def _certificate(inst: LevelInstance, s: int, claim: str, body: dict, coloring=()) -> str:
    fields = dict(s=s, claim=claim, level=inst.level, domain=len(inst.items),
                  witnesses=len(inst.witnesses), **body)
    items = zip(map(inst.space.serialize, inst.items), coloring)
    return certificate.write(
        "ramsey-certificate", inst.instance_str(), fields, "item", "color", items
    )


def finite_ramsey_witness(
    kind: str,
    k: int,
    n: int,
    s: int,
    bound: int,
    mode: str = "exhaustive",
    q: int | None = None,
    node_budget: int | None = None,
) -> WitnessResult:
    """Least level m <= bound at which every s-coloring of the depth-m
    domain admits a witness with a monochromatic configuration.

    `kind` is `classical` (k-subsets of {0..m-1}, k >= 0), `matrix`
    (GF(q) vector Ramsey numbers; q defaults to 2 and no other kind
    takes one), `partition` (parameter sets, n the witness's block
    count) or `ellentuck`; levels run from n to `bound >= n`.  Both
    modes run the same restricted-growth search; exhaustive mode
    refuses a level whose s^N colorings exceed `EXHAUSTIVE_CEILING`
    (CeilingExceededError; backtracking mode still answers it) and
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
    if bound < n:
        raise ValueError(f"need bound >= n: the first level is {n}")
    if q is not None and kind != "matrix":
        raise ValueError(f"only matrix levels take a field order q, not {kind}")
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
            is_witness, bad, work = _level_exhaustive(inst, s)
        else:
            is_witness, bad, work = _level_backtracking(inst, s, node_budget)
        stats[_WORK_COUNTER[mode]] = work
        if is_witness is None:
            return WitnessResult(
                INCONCLUSIVE if last_bad is None else LOWER_BOUND,
                last_bad_level,
                lower_bound_certificate=last_bad,
                stats=dict(stats, undecided_level=m),
            )
        if is_witness:
            body = {"mode": mode, _WORK_COUNTER[mode]: work}
            return WitnessResult(
                FOUND,
                m,
                found_certificate=_certificate(inst, s, "witness", body),
                lower_bound_certificate=last_bad,
                stats=stats,
            )
        last_bad = _certificate(inst, s, "bad-coloring", {}, bad)
        last_bad_level = m
    return WitnessResult(
        EXHAUSTED, None, lower_bound_certificate=last_bad, stats=stats
    )


# ----- the abstract reduction -----


@dataclass
class ReduceResult:
    outcome: str  # "mono"
    stem: Stem  # every length-k approximation below it has `color`
    color: int
    certificates: list[str]  # one galvin certificate per peeling stage
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
    certificates: list[str] = []
    stats = {"walk_nodes": 0, "reducts_scanned": 0}
    current = A
    for color in range(s - 1):
        members = [
            a for a in space.fin_below(current.top, k) if coloring.of(a) == color
        ]
        family = FrontFamily(space, members, k)
        res = galvin_search(current, family, max_reducts)
        certificates.append(res.certificate)
        for key in stats:
            stats[key] += res.stats.get(key, 0)
        if res.outcome == ALT2:
            _assert_monochromatic(space, res.stem, k, coloring, color)
            return ReduceResult("mono", res.stem, color, certificates, stats=stats)
        current = res.stem
    _assert_monochromatic(space, current, k, coloring, s - 1)
    return ReduceResult("mono", current, s - 1, certificates, stats=stats)


def _assert_monochromatic(space, stem, k, coloring, color):
    for a in space.fin_below(stem.top, k):
        if coloring.of(a) != color:
            raise AssertionError(
                f"reduction returned a non-monochromatic stem: "
                f"{space.serialize(a)} has color {coloring.of(a)} != {color}"
            )


# ----- independent certificate verification -----


def _replay_witness_claim(keys: list[str], witness_sets: list[set], s: int):
    """The node count of the replay verify_witness describes; None when
    it reaches a coloring with no monochromatic witness set, or passes
    `EXHAUSTIVE_CEILING` nodes."""
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
            if nodes > EXHAUSTIVE_CEILING:
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


def verify_witness(text: str) -> bool:
    """Replay a search certificate without the search engine.

    The certificate is read through `certificate.read`, and the
    instance is rebuilt from its header alone by `build_level`, whose
    classical and matrix levels come from `_classical_level` and
    `_matrix_level` as the searcher's do.  Every check works on
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
    the replay reaches no full coloring.  `EXHAUSTIVE_CEILING` bounds
    the replay's nodes (one node per item and color tried); a larger
    replay is refused.  For s >= 2 the node count is below s^N, so every
    claim exhaustive mode can make under the same ceiling replays.
    The certificate's work counter is checked too: a backtracking claim
    must state the replay's node count as `nodes`, an exhaustive one s^N
    as `colorings_checked`.

    A bad-coloring claim is checked by confirming totality and that
    every witness configuration is non-monochromatic.  Malformed,
    tampered or refused certificates give False, and so does one that
    `certificate.read` refuses.
    """
    try:
        params, fields, items_colors = certificate.read(
            text, "ramsey-certificate", "item", "color"
        )
        s = int(fields["s"])
        q = int(params["q"]) if "q" in params else None
        inst = build_level(
            params["instance"], int(fields["level"]), int(params["k"]), int(params["n"]), q
        )
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
        nodes = _replay_witness_claim(keys, witness_sets, s)
        return nodes is not None and (mode == "exhaustive" or counter == nodes)

    return False
