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

  * classical finite Ramsey numbers, through the one-point shift that
    identifies k-subsets of an initial segment with (k+1)-subsets
    pinned at the segment's top element;
  * finite vector Ramsey numbers over GF(q) (Graham-Leeb-Rothschild):
    domains are the rank-k echelon matrices with m columns, witnesses
    the rank-n ones, configurations the subspace order;
  * partition Ramsey numbers (Graham-Rothschild parameter sets):
    domains are the k-block partitions of the level, configurations the
    coarsenings of an m-block witness.

Lower bounds are explicit bad colorings, exhaustively verified; found
values come from either a full scan of all s^N colorings or an
exhausted backtracking search over color-canonical assignments.  Every
certificate replays through verify_witness, an independent checker
that re-derives the instance and never reuses the searcher's tables; a
witness claim replays in a node-bounded depth-first search over one
coloring per color permutation class, whose cost is the backtracking
searcher's node count rather than s^N.

Both searchers work on int masks over the level's items: each
configuration is one mask, each color keeps the mask of the items it
has colored, and a configuration is monochromatic iff it lies inside
one color's mask.  An empty configuration is never monochromatic, in
the searchers as in verify_witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Approximation, Space, Stem
from .errors import CeilingExceededError
from .forcing import (
    ALT1,
    ALT2,
    FrontFamily,
    GalvinParams,
    galvin_search,
)
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

    @classmethod
    def from_function(cls, space: Space, k: int, s: int, domain, fn) -> "Coloring":
        return cls(space, k, s, {space.serialize(a): fn(a) for a in domain})


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


def build_level(kind: str, m: int, k: int, n: int, q: int | None = None) -> LevelInstance:
    """The depth-m instance: domain, witnesses, and configurations."""
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
    outcome: str  # found | lower_bound | exhausted
    value: int | None
    found_certificate: str | None = None
    lower_bound_certificate: str | None = None
    stats: dict = field(default_factory=dict)

    def csv_row(self, instance: str, seconds: str = "") -> str:
        value = "" if self.value is None else str(self.value)
        checked = self.stats.get("colorings_checked", self.stats.get("nodes", 0))
        return f"{instance},{self.outcome},{value},{checked},{seconds}"


def _coloring_from_index(idx: int, s: int, size: int) -> list[int]:
    out = [0] * size
    for j in range(size - 1, -1, -1):
        out[j] = idx % s
        idx //= s
    return out


def _scan_range(configs: list[int], s: int, size: int, lo: int, hi: int) -> int:
    """First bad coloring index in [lo, hi), or -1.

    `configs` are the nonempty configuration masks, item j at bit
    size-1-j, so the last item is the least significant digit of the
    coloring index.  With two colors the index is itself the mask of
    the items colored 1, and a configuration is monochromatic iff it
    meets that mask in nothing or in everything.  Otherwise each color
    keeps the mask of its items, updated as the index counts up, and a
    configuration is monochromatic iff it lies inside the mask of the
    color of its lowest bit.
    """
    if s == 2:
        for idx in range(lo, hi):
            for cfg in configs:
                hit = idx & cfg
                if hit == cfg or not hit:
                    break
            else:
                return idx
        return -1
    leads = [((cfg & -cfg).bit_length() - 1, cfg) for cfg in configs]
    digits = _coloring_from_index(lo, s, size)[::-1]  # digit p: the item at bit p
    colmask = [0] * s
    for p, c in enumerate(digits):
        colmask[c] |= 1 << p
    for idx in range(lo, hi):
        if idx > lo:
            p = 0
            while True:
                c, bit = digits[p], 1 << p
                colmask[c] ^= bit
                c = (c + 1) % s
                digits[p] = c
                colmask[c] |= bit
                if c:
                    break
                p += 1
        for p, cfg in leads:
            if cfg & colmask[digits[p]] == cfg:
                break
        else:
            return idx
    return -1


def _level_exhaustive(inst: LevelInstance, s: int, ceiling: int, jobs: int = 1):
    """(is_witness, first bad coloring or None, colorings checked).

    Colorings are scanned in index order (item 0 the most significant
    base-s digit) with configurations as item masks; an empty
    configuration is never monochromatic, as in verify_witness.  With
    jobs > 1 the index range is split across processes; the reported
    bad coloring is the index-minimal one either way, so the result
    does not depend on scheduling.
    """
    size = len(inst.items)
    total = s**size
    if total > ceiling:
        raise CeilingExceededError(
            f"exhaustive mode needs {s}^{size} colorings; use backtracking",
            total,
            ceiling,
        )
    configs = [sum(1 << (size - 1 - j) for j in cfg) for cfg in inst.configs if cfg]
    if jobs > 1 and total >= 4 * jobs:
        import multiprocessing

        bounds = [total * i // (jobs * 4) for i in range(jobs * 4)] + [total]
        spans = [
            (configs, s, size, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
            if lo < hi
        ]
        with multiprocessing.Pool(jobs) as pool:
            first = min(
                (idx for idx in pool.starmap(_scan_range, spans) if idx >= 0),
                default=-1,
            )
    else:
        first = _scan_range(configs, s, size, 0, total)
    if first < 0:
        return True, None, total
    return False, _coloring_from_index(first, s, size), first + 1


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
    jobs: int = 1,
) -> WitnessResult:
    """Least level m <= bound at which every s-coloring of the depth-m
    domain admits a witness with a monochromatic configuration.

    Found results carry a witness-level certificate and, when a lower
    level was examined, the bad coloring refuting it; when every level
    up to the bound is refuted the outcome is `exhausted` with the last
    refutation.  A level the chosen mode cannot decide (ceiling or
    budget) stops the search with outcome `lower_bound`: only the
    refuted levels below it are then known.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if s < 1:
        raise ValueError("need s >= 1")
    if mode not in ("exhaustive", "backtracking"):
        raise ValueError(f"unknown mode {mode!r}")
    if jobs < 1:
        raise ValueError("need jobs >= 1")
    if node_budget is not None and node_budget < 0:
        raise ValueError("need node_budget >= 0")
    last_bad: str | None = None
    last_bad_level: int | None = None
    stats: dict = {"levels_examined": 0}
    for m in range(n, bound + 1):
        inst = build_level(kind, m, k, n, q)
        stats["levels_examined"] += 1
        if mode == "exhaustive":
            is_witness, bad, checked = _level_exhaustive(
                inst, s, exhaustive_ceiling, jobs=jobs
            )
            stats["colorings_checked"] = checked
            level_stats = {"colorings_checked": checked}
        else:
            is_witness, bad, nodes = _level_backtracking(inst, s, node_budget)
            stats["nodes"] = nodes
            level_stats = {"nodes": nodes}
            if is_witness is None:
                return WitnessResult(
                    LOWER_BOUND,
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


def glr_witness(
    q: int, k: int, n: int, s: int, bound: int, mode: str = "exhaustive", **kw
) -> WitnessResult:
    """Least m such that s-colorings of the k-dimensional subspaces of
    F_q^m always leave the k-subspaces of some n-dimensional subspace
    monochromatic."""
    return finite_ramsey_witness(
        "matrix", k, n, s, bound, mode=mode, q=q, **kw
    )


def gr_paramset_witness(
    k: int, m: int, s: int, bound: int, mode: str = "exhaustive", **kw
) -> WitnessResult:
    """Least n such that s-colorings of the k-block partitions of n
    always leave the k-block coarsenings of some m-block partition
    monochromatic."""
    return finite_ramsey_witness("partition", k, m, s, bound, mode=mode, **kw)


# ----- classical numbers through the shift -----


def _classical_cert_from_inner(inner_cert: str, k: int, n: int, s: int) -> str:
    """Translate an inner pinned-subset certificate into classical terms.

    Inner items are (k+1)-subsets of {0..m-1} containing m-1; dropping
    the pinned point turns a level-m statement about them into the
    classical statement about k-subsets of {0..m-2}.
    """
    out = []
    for ln in inner_cert.splitlines():
        if ln.startswith("instance="):
            out.append(f"instance=classical;k={k};n={n}")
        elif ln.startswith("level="):
            m = int(ln.split("=")[1])
            out.append(f"level={m - 1}")
        elif ln.startswith("item="):
            body, _, color = ln[5:].partition(";color=")
            elems = [int(x) for x in body.strip("{}").split(",")]
            kept = sorted(elems)[:-1]
            out.append(
                "item={" + ",".join(str(x) for x in kept) + "};color=" + color
            )
        else:
            out.append(ln)
    return "\n".join(out) + "\n"


def classical_ramsey_number(
    k: int, n: int, s: int, bound: int, mode: str = "exhaustive", **kw
) -> WitnessResult:
    """Least M such that every s-coloring of the k-subsets of {0..M-1}
    has a monochromatic n-subset.

    Runs the pinned-subset search one dimension up (k+1, n+1) and
    shifts the level down by one; the certificates are expressed in
    classical terms and verified directly against the classical
    statement by verify_witness.
    """
    inner = finite_ramsey_witness("ellentuck", k + 1, n + 1, s, bound + 1, mode=mode, **kw)
    value = None if inner.value is None else inner.value - 1
    found = (
        _classical_cert_from_inner(inner.found_certificate, k, n, s)
        if inner.found_certificate
        else None
    )
    lower = (
        _classical_cert_from_inner(inner.lower_bound_certificate, k, n, s)
        if inner.lower_bound_certificate
        else None
    )
    return WitnessResult(
        inner.outcome,
        value,
        found_certificate=found,
        lower_bound_certificate=lower,
        stats=inner.stats,
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
    coloring: Coloring, A: Stem, params: GalvinParams | None = None
) -> ReduceResult:
    """A reduct on which the coloring of length-k approximations is
    constant, obtained by peeling color classes off with the dichotomy
    search (color 0 against the rest, recursing into the rest).  Its
    stats sum the work counters of those searches."""
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
        res = galvin_search(current, family, params)
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
    m = int(fields["level"])
    if kind == "classical":
        return _classical_level(m, k, n)
    return build_level(kind, m, k, n, q)


def _classical_level(M: int, k: int, n: int) -> LevelInstance:
    """The classical instance, its items in the order of their pinned
    (k+1)-subsets: the order the shifted search colors them in, so a
    replay visits as many nodes as that search."""
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

    The instance is rebuilt from the certificate header alone, and
    every check works on serialized item keys in dictionaries and sets,
    sharing no index table, mask or helper with the searchers.

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
    claim the exhaustive scan can make under the same ceiling replays.
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
