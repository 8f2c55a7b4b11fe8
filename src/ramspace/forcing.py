"""Depth-bounded combinatorial forcing and the Galvin dichotomy.

Everything here is relative to a *front family*: an explicit finite set
of approximations with a declared length bound L.  A chain below a stem
either hits the family (some node of length <= L belongs to it), avoids
it for certain (it passes length L clean, or it ends inside the
truncation at a node no family member extends), or runs out of
truncated universe with the question open.

On top of the chain walk sits one forcing question,
`ForcingEngine(family, max_reducts).verdict`, whose verdict is one of
the classical relations or neither:

  accepts   -- every chain through `a` below the stem hits the family;
  rejects   -- the stem's own walk avoids for certain AND no stem in the
               preserved-depth neighborhood accepts;
  undecided -- neither can be certified within the truncation.

Verdicts are honest: `undecided` carries diagnostics naming either the
truncation boundary or the reduct that destroys a definitive answer.
Verdicts are relative to the truncated universe by construction.

The dichotomy search mirrors the classical proof shape: settle the
empty approximation on a deciding stem, then either certify acceptance
of the empty approximation (every maximal chain hits: alternative 2)
or grow a rejecting sequence level by level until the whole down-set
of the final stem misses the family (alternative 1).  Certificates
replay through `verify_dichotomy`, which never consults engine state.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .core import Approximation, Index, Space, Stem
from .errors import CeilingExceededError, EmptyNeighborhoodError, MixedSpaceError
from .spaces import parse_params_str, space_from_params

ACCEPTS = "accepts"
REJECTS = "rejects"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FrontFamily:
    """A finite set of approximations with a declared length bound."""

    space: Space
    members: tuple[Approximation, ...]
    length_bound: int

    def __post_init__(self):
        if self.length_bound < 0:
            raise ValueError(f"need length_bound >= 0, got {self.length_bound}")
        for m in self.members:
            self.space.check_tag(m)
            if m.length > self.length_bound:
                raise ValueError(
                    f"member {self.space.serialize(m)} exceeds length bound "
                    f"{self.length_bound}"
                )
        ordered = tuple(sorted(set(self.members), key=self.space.sort_key))
        object.__setattr__(self, "members", ordered)

    def serialize_members(self) -> str:
        return "|".join(self.space.serialize(m) for m in self.members)


def front_family(
    space: Space, members: Iterable[Approximation], length_bound: int | None = None
) -> FrontFamily:
    members = tuple(members)
    if length_bound is None:
        length_bound = max((m.length for m in members), default=0)
    return FrontFamily(space, members, length_bound)


# The one setting of the forcing layer: the most reducts a sweep reads
# before it refuses with an estimate.
MAX_REDUCTS = 1 << 16


@dataclass(frozen=True)
class ForcingVerdict:
    kind: str  # accepts | rejects | undecided
    nodes: int
    diagnostics: str = ""


class ChainStatus(enum.IntEnum):
    """Worst first, so the status of a node is the `min` over its
    children."""

    AVOID = 0       # some chain certifiably avoids the family
    EXHAUSTED = 1   # some chain ends at the truncation with the question open
    ALL_HIT = 2     # every maximal chain hits the family


class ForcingEngine:
    """Memoized chain walks and forcing verdicts for one family, on ids.

    The engine owns one lazy `core.Index` of the approximations it
    meets: the family's members, the stems and bases it is asked about,
    the reducts its sweeps yield and the children its walks visit.
    Walks run on these ids, with a memo keyed by one int per
    (node, top) pair and the members held as a set of ids.  The index
    gives ids only to values the engine meets, so it sweeps nothing up
    front, and it holds no child lists: a walk asks the space's
    `extensions_below` once per node it visits.

    Beside the walk memo the engine owns one table, `_accepting`: for
    each (a, prefix) pair, keyed by one int, the (top, f) facts where a
    sweep of [prefix, top] stopped at f, its first reduct below which
    `a` is accepted, each with the diagnostics naming f.  An undecided
    verdict that such a fact covers is read from the table instead of a
    new sweep (see `verdict`); every other verdict sweeps through the
    space's `iter_neighborhood`.

    A fresh engine is a pure function of (family, max_reducts),
    single-threaded.  Engines share no state, and both tables are
    released with the engine.
    """

    def __init__(self, family: FrontFamily, max_reducts: int = MAX_REDUCTS):
        if max_reducts < 1:
            raise ValueError(f"need max_reducts >= 1, got {max_reducts}")
        self.family = family
        self.space = family.space
        self.bound = family.length_bound
        self.max_reducts = max_reducts
        self.index = Index(self.space)
        self._members = frozenset(self.index.ids(family.members))
        self._prefixes = frozenset(
            self.space.restrict(f, i) for f in family.members for i in range(f.length)
        )
        self._walk_memo: dict[int, ChainStatus] = {}
        self._accepting: dict[int, list[tuple[Approximation, Approximation, str]]] = {}
        self.nodes = 0

    # ----- chain walk -----

    def hit_index(self, a: Approximation) -> int | None:
        """First i <= |a| with the length-i restriction in the family."""
        id_of = self.index.index
        for i in range(a.length + 1):
            if id_of.get(self.space.restrict(a, i)) in self._members:
                return i
        return None

    def _can_still_hit(self, c: Approximation, top: Approximation) -> bool:
        """Whether an exhausted chain at `c` below `top` could still meet
        the family: some member must extend `c`, and `c` must sit at the
        stem's materialization frontier, where continuations are free."""
        return self.space.open_beyond(c, top) and c in self._prefixes

    def walk(self, c: int, top: int) -> ChainStatus:
        """Status of the chains through the clean node with id `c` below
        the stem top with id `top`."""
        key = c << 32 | top  # ids stay far below 2**32
        cached = self._walk_memo.get(key)
        if cached is not None:
            return cached
        self.nodes += 1
        if self.index.lengths[c] >= self.bound:
            status = ChainStatus.AVOID
        else:
            items = self.index.items
            children = self.space.extensions_below(items[c], items[top])
            if not children:
                status = (
                    ChainStatus.EXHAUSTED
                    if self._can_still_hit(items[c], items[top])
                    else ChainStatus.AVOID
                )
            else:
                status = ChainStatus.ALL_HIT
                for d in map(self.index.id, children):
                    if d in self._members:
                        continue
                    status = min(status, self.walk(d, top))
                    if status is ChainStatus.AVOID:
                        break
        self._walk_memo[key] = status
        return status

    def chain_status(self, top: Approximation, a: Approximation) -> ChainStatus:
        if self.hit_index(a) is not None:
            return ChainStatus.ALL_HIT
        return self.walk(self.index.id(a), self.index.id(top))

    # ----- neighborhood sweep -----

    def _neighborhood(self, base: Approximation, top: Approximation):
        """Tops of [base, stem(top)] in canonical order, read lazily;
        refused once the sweep passes `max_reducts`."""
        for count, (t, _) in enumerate(self.space.iter_neighborhood(base, top), 1):
            if count > self.max_reducts:
                raise CeilingExceededError(
                    "reduct sweep too large", count, self.max_reducts
                )
            yield t

    def verdict(self, stem: Stem, a: Approximation) -> ForcingVerdict:
        """The accepts/rejects/undecided verdict for (stem, a).

        accepts: the stem's own chains all hit.  rejects: the stem's own
        chains certifiably avoid and no stem in the preserved-depth
        neighborhood certifiably accepts.  Everything else is undecided,
        with diagnostics naming the reason: the verdicts are relative to
        the truncated universe, and reduct proxies whose own chains end
        at the truncation carry no evidence either way (they are noted
        but do not block a rejection).

        The hit test of `a` runs once, for the stem's own status; the
        sweep then walks `a` below the id of each reduct it yields.  The
        preserved-depth neighborhood is read lazily and the sweep
        stops at the first accepting reduct.  Raises CeilingExceededError
        when it passes `max_reducts` reducts before that reduct, so a
        rejection is only ever certified over a fully swept neighborhood.

        Before it sweeps, the verdict looks for a fact (top', f) of the
        same (a, prefix) with top <= top' and f <= top, and if it finds
        one answers undecided naming f.  That is the answer the sweep
        would give, exactly:
          - [prefix, top] lies inside [prefix, top'], and its sweep
            order is the order of [prefix, top'] cut down to it (each
            child list is the parent's children below the top, in
            `sort_key` order), so f, first to accept in [prefix, top'],
            is first in [prefix, top] too;
          - every reduct that sweep would walk comes before f in
            [prefix, top'], and the sweep that found f walked them all,
            so each walk would be a memo hit and `nodes` is unchanged;
          - it would yield no more reducts before f than that sweep did,
            so it would not have passed `max_reducts` either.
        Rejections always sweep: their open-proxy count is per top.
        """
        if stem.space is not self.space and stem.space != self.space:
            raise MixedSpaceError("stem does not belong to the family's space")
        top = stem.top
        if not self.space.fin_leq(a, top):
            raise EmptyNeighborhoodError(
                f"[{self.space.serialize(a)}, {stem.serialize()}] is empty"
            )
        own = self.chain_status(top, a)
        if own is ChainStatus.ALL_HIT:
            return ForcingVerdict(ACCEPTS, self.nodes)
        if own is ChainStatus.EXHAUSTED:
            return ForcingVerdict(
                UNDECIDED,
                self.nodes,
                diagnostics=(
                    "truncation boundary: a chain below "
                    f"{stem.serialize()} ends with the question open"
                ),
            )
        n = stem.depth(a)
        prefix = self.space.restrict(top, n)
        # `a` is clean, so below each reduct its status is its walk.
        base = self.index.id(a)
        key = base << 32 | self.index.id(prefix)
        leq = self.space.fin_leq
        for u, f, why in self._accepting.get(key, ()):
            if leq(top, u) and leq(f, top):
                return ForcingVerdict(UNDECIDED, self.nodes, diagnostics=why)
        open_proxies = 0
        for t in self._neighborhood(prefix, top):
            st = self.walk(base, self.index.id(t))
            if st is ChainStatus.ALL_HIT:
                why = (
                    "not decided at this stem: "
                    f"{self.space.serialize(t)} accepts {self.space.serialize(a)}"
                )
                # A fact with the same reduct below a smaller top covers
                # nothing this one does not.
                facts = self._accepting.setdefault(key, [])
                facts[:] = [(u, f, w) for u, f, w in facts if f != t or not leq(u, top)]
                facts.append((top, t, why))
                return ForcingVerdict(UNDECIDED, self.nodes, diagnostics=why)
            if st is ChainStatus.EXHAUSTED:
                open_proxies += 1
        notes = f"open-proxies={open_proxies}" if open_proxies else ""
        return ForcingVerdict(REJECTS, self.nodes, diagnostics=notes)


# ----- the dichotomy search -----

ALT1 = "alt1"
ALT2 = "alt2"
INCONCLUSIVE = "inconclusive"


@dataclass
class DichotomyResult:
    outcome: str  # alt1 | alt2 | inconclusive
    stem: Stem | None
    certificate: str
    diagnostics: str = ""
    stats: dict = field(default_factory=dict)


def _frontier(engine: ForcingEngine, top: Approximation) -> list[tuple[Approximation, int]]:
    """Hit frontier below an accepting stem: one entry per pruned chain,
    carrying the index at which the chain meets the family."""
    space = engine.space
    out = []

    def rec(c: Approximation):
        idx = engine.hit_index(c)
        if idx is not None:
            out.append((c, idx))
            return
        children = space.extensions_below(c, top)
        assert children, "acceptance certificate with an exhausted chain"
        for d in children:
            rec(d)

    rec(space.empty())
    return out


def _certificate_alt1(family: FrontFamily, A: Stem, B: Stem, checked: int) -> str:
    lines = [
        "galvin-certificate v1",
        family.space.params_str(),
        f"family={family.serialize_members()}",
        f"length_bound={family.length_bound}",
        f"ambient={A.serialize()}",
        "outcome=ALT1",
        f"stem={B.serialize()}",
        f"checked={checked}",
    ]
    return "\n".join(lines) + "\n"


def _certificate_alt2(
    family: FrontFamily, A: Stem, B: Stem, frontier: list[tuple[Approximation, int]]
) -> str:
    space = family.space
    lines = [
        "galvin-certificate v1",
        space.params_str(),
        f"family={family.serialize_members()}",
        f"length_bound={family.length_bound}",
        f"ambient={A.serialize()}",
        "outcome=ALT2",
        f"stem={B.serialize()}",
        f"chains={len(frontier)}",
    ]
    for node, idx in sorted(frontier, key=lambda p: space.sort_key(p[0])):
        lines.append(f"chain={space.serialize(node)};hit={idx}")
    return "\n".join(lines) + "\n"


def galvin_search(
    A: Stem, family: FrontFamily, max_reducts: int = MAX_REDUCTS
) -> DichotomyResult:
    """Search for a dichotomy witness below A.

    Either some reduct's whole down-set misses the family (alternative
    1, reached through a stem rejecting every short approximation), or
    some reduct accepts the empty approximation (alternative 2: every
    maximal chain below it meets the family).  Inconclusive outcomes
    name the blocking approximation.  Searches are deterministic:
    candidates are scanned longest-first in serialization order.

    At level n a candidate is asked about its approximations of the new
    length n+1 first, then about the shorter ones, each group in
    canonical order (`_stage2_asks`).  The current stem is not asked the
    shorter ones again: stage 1 or the previous level saw each of them
    rejected.  A verdict's kind does not depend on the engine's walk
    memo or its table of accepting reducts, and no stage-2 sweep can
    pass the ceiling, so the stem chosen, the certificate and
    `reducts_scanned` do not depend on that order; only `walk_nodes`
    does.

    Every scan reads [base, top] longest first, one length group of
    `fin_below(top)` at a time (each in serialization order), keeping
    the values whose chain passes through base.  In stage 2 the current
    stem comes first, and the rest is read only once it is refused.

    Stage 1 counts the reducts of A (`count_below`) before it builds
    them.  Past `max_reducts`, a space with `exclude_member`
    (ellentuck) shrinks A greedily instead; any other space refuses
    with a CeilingExceededError whose estimate is that count.
    """
    space = family.space
    if A.space != space:
        raise MixedSpaceError("stem does not belong to the family's space")
    engine = ForcingEngine(family, max_reducts)
    L = family.length_bound
    stats = {"reducts_scanned": 0}

    def longest_first(base: Approximation, top: Approximation):
        for k in range(top.length, base.length - 1, -1):
            for t in space.fin_below(top, k):
                if space.restrict(t, base.length) == base:
                    yield t

    def finish_alt1(B: Stem) -> DichotomyResult:
        bad = [f for f in family.members if space.fin_leq(f, B.top)]
        assert not bad, "alternative-1 stem still meets the family"
        cert = _certificate_alt1(family, A, B, checked=len(family.members))
        stats["walk_nodes"] = engine.nodes
        return DichotomyResult(ALT1, B, cert, stats=stats)

    def direct_alt1_scan() -> Stem | None:
        # Fallback when the rejecting sequence strands on boundary
        # noise: the alternative-1 claim is a directly checkable
        # statement about the truncated down-set, so scan for the
        # longest reduct no family member sits below.
        for t in longest_first(empty, A.top):
            if not any(space.fin_leq(f, t) for f in family.members):
                stats["direct_scan"] = 1
                return Stem(space, t)
        return None

    def finish_alt2(B: Stem) -> DichotomyResult:
        frontier = _frontier(engine, B.top)
        cert = _certificate_alt2(family, A, B, frontier)
        stats["walk_nodes"] = engine.nodes
        return DichotomyResult(ALT2, B, cert, stats=stats)

    # Stage 1: settle the empty approximation on a deciding stem.  If
    # the ambient stem accepts it, every maximal chain below A already
    # meets the family.  Otherwise look for a rejecting stem to seed the
    # rejecting sequence (the main line of the argument); only when no
    # reduct rejects fall back to a smaller accepting reduct.  The
    # reducts of A, [empty, A] = fin_below(A.top), are counted before
    # any is built: every later read lies inside them, so only they can
    # pass the ceiling (a greedy alternative 1 is verified directly).
    empty = space.empty()
    if engine.chain_status(A.top, empty) is ChainStatus.ALL_HIT:
        return finish_alt2(A)
    count = space.count_below(A.top)
    if count > max_reducts:
        greedy = _greedy_avoiding_stem(space, A, family)
        if greedy is None:
            raise CeilingExceededError("reduct sweep too large", count, max_reducts)
        return finish_alt1(greedy)
    seed: Stem | None = None
    first_accepting: Stem | None = None
    for t in longest_first(empty, A.top):
        stats["reducts_scanned"] += 1
        v = engine.verdict(Stem(space, t), empty)
        if v.kind == REJECTS:
            seed = Stem(space, t)
            break
        if v.kind == ACCEPTS and first_accepting is None:
            first_accepting = Stem(space, t)
    if seed is None:
        if first_accepting is not None:
            return finish_alt2(first_accepting)
        direct = direct_alt1_scan()
        if direct is not None:
            return finish_alt1(direct)
        return DichotomyResult(
            INCONCLUSIVE,
            None,
            "",
            diagnostics="no reduct decides the empty approximation "
            "within the truncation",
            stats=stats,
        )

    # Stage 2: grow the rejecting sequence level by level.  After level
    # L every member of the family would be trivially accepted, so a
    # stem rejecting all lengths <= L has a family-free down-set.  A
    # new-length approximation is what usually blocks a candidate, so
    # it is asked first (see the docstring for why the order is free).
    current = seed
    for level in range(L):
        chosen = None
        blocker = None
        # Preserve the chain up to the level, or all of it when the
        # truncated stem is shorter than the level index.
        prefix = current.approx(min(level, current.length))
        # `current` first; the rest only once it is refused.
        rest = (t for t in longest_first(prefix, current.top) if t != current.top)
        for t in itertools.chain([current.top], rest):
            stats["reducts_scanned"] += 1
            cand = Stem(space, t)
            ok = True
            for b in _stage2_asks(space, t, level, settled=t == current.top):
                v = engine.verdict(cand, b)
                if v.kind != REJECTS:
                    ok = False
                    blocker = (t, b, v)
                    break
            if ok:
                chosen = cand
                break
        if chosen is None:
            direct = direct_alt1_scan()
            if direct is not None:
                return finish_alt1(direct)
            t, b, v = blocker
            return DichotomyResult(
                INCONCLUSIVE,
                None,
                "",
                diagnostics=(
                    f"rejecting sequence stuck at level {level}: "
                    f"{space.serialize(b)} is {v.kind} below "
                    f"{space.serialize(t)} ({v.diagnostics})"
                ),
                stats=stats,
            )
        current = chosen
    return finish_alt1(current)


def _stage2_asks(space: Space, t: Approximation, level: int, settled: bool):
    """The approximations stage 2 asks candidate `t` at `level`: those
    of the new length level+1, then, unless `settled`, the shorter
    ones, each group in canonical order.

    The new length is a merge of its parents' `extensions_below` lists,
    each already in `sort_key` order.  The merge takes a child's sort
    key only when it reads the child, so a candidate refused on its
    first ask costs one key per parent, not a sort of its new level.
    The shorter ones are `closure_below(t, level)`, read only after
    every new-length ask rejected.
    """
    below = space.closure_below(t, level)
    new = heapq.merge(
        *(space.extensions_below(b, t) for b in below if b.length == level),
        key=space.sort_key,
    )
    return new if settled else itertools.chain(new, below)


def _greedy_avoiding_stem(space: Space, A: Stem, family: FrontFamily) -> Stem | None:
    """Shrink A until no family member sits below it (large-universe path).

    Only spaces that support one-element exclusion provide this; the
    resulting alternative-1 claim is verified directly, so the shortcut
    never weakens the certificate.
    """
    exclude = getattr(space, "exclude_member", None)
    if exclude is None:
        return None
    top = A.top
    while True:
        offender = next(
            (f for f in family.members if space.fin_leq(f, top)), None
        )
        if offender is None:
            return Stem(space, top)
        top = exclude(top, offender)
        if top is None:
            return None


def verify_dichotomy(certificate: str) -> bool:
    """Replay a dichotomy certificate without the search engine.

    Rebuilds the space from the header, re-checks that the named stem is
    a reduct of the ambient stem, and then verifies the claim directly:
    for alternative 1 that no family member lies below the stem, for
    alternative 2 that a fresh walk of every maximal chain meets the
    family exactly at the recorded frontier.
    """
    try:
        lines = [ln for ln in certificate.splitlines() if ln.strip()]
        if lines[0] != "galvin-certificate v1":
            return False
        fields = {}
        chain_lines = []
        for ln in lines[1:]:
            key, _, value = ln.partition("=")
            if key == "chain":
                chain_lines.append(value)
            else:
                fields[key] = value
        space = space_from_params(parse_params_str(lines[1]))
        members = tuple(
            space.parse(m) for m in fields["family"].split("|") if m
        )
        bound = int(fields["length_bound"])
        family = FrontFamily(space, members, bound)
        ambient = space.parse(fields["ambient"])
        top = space.parse(fields["stem"])
        if not space.fin_leq(top, ambient):
            return False
        outcome = fields["outcome"]
        member_set = set(family.members)
    except Exception:
        return False

    if outcome == "ALT1":
        return not any(space.fin_leq(f, top) for f in family.members)

    if outcome == "ALT2":
        try:
            frontier = {}
            for cl in chain_lines:
                node_text, _, hit_text = cl.partition(";hit=")
                frontier[space.parse(node_text)] = int(hit_text)
            if int(fields["chains"]) != len(frontier):
                return False
        except Exception:
            return False

        seen = set()

        def walk(c) -> bool:
            if c in frontier:
                i = frontier[c]
                if not 0 <= i <= c.length or space.restrict(c, i) not in member_set:
                    return False
                seen.add(c)
                return True
            if c.length >= bound:
                return False  # a clean chain slipped past every member
            children = space.extensions_below(c, top)
            if not children:
                return False  # a maximal chain that never hits
            return all(walk(d) for d in children)

        return walk(space.empty()) and seen == set(frontier)

    return False
