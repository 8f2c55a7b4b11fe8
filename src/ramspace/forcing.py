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

A verdict is its kind and names no reason.  Verdicts are relative to
the truncated universe by construction, and each is a pure function of
(family, stem, a): the engine's walk memo changes what a verdict costs,
never what it answers.

The dichotomy search mirrors the classical proof shape: settle the
empty approximation on a deciding stem, asking the reducts of the
ambient stem shortest first, then either certify acceptance
of the empty approximation (every maximal chain hits: alternative 2)
or name the longest reduct whose whole down-set misses the family
(alternative 1).  It always answers one of the two, or refuses at
`max_reducts`.  Certificates are written and read in the one grammar of
`certificate`, and replay through `verify_dichotomy`, which never
consults engine state.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from . import certificate
from .core import Approximation, Index, Space, Stem
from .errors import CeilingExceededError, EmptyNeighborhoodError, MixedSpaceError
from .spaces import space_from_params

ACCEPTS = "accepts"
REJECTS = "rejects"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FrontFamily:
    """A finite set of approximations with a declared length bound.

    `members` may be any iterable, kept as a canonical-order tuple without
    repeats; a None `length_bound` is the longest member's (0 if none)."""

    space: Space
    members: Iterable[Approximation]
    length_bound: int | None = None

    def __post_init__(self):
        members = tuple(self.members)
        if self.length_bound is None:
            bound = max((m.length for m in members), default=0)
            object.__setattr__(self, "length_bound", bound)
        if self.length_bound < 0:
            raise ValueError(f"need length_bound >= 0, got {self.length_bound}")
        for m in members:
            self.space.check_tag(m)
            if m.length > self.length_bound:
                raise ValueError(
                    f"member {self.space.serialize(m)} exceeds length bound "
                    f"{self.length_bound}"
                )
        ordered = tuple(sorted(set(members), key=self.space.sort_key))
        object.__setattr__(self, "members", ordered)

    def serialize_members(self) -> str:
        return "|".join(self.space.serialize(m) for m in self.members)


# The one setting of the forcing layer: the most reducts a sweep reads
# before it refuses with an estimate.
MAX_REDUCTS = 1 << 16


class ChainStatus(enum.IntEnum):
    """Worst first, so the status of a node is the `min` over its
    children."""

    AVOID = 0       # some chain certifiably avoids the family
    EXHAUSTED = 1   # some chain ends at the truncation with the question open
    ALL_HIT = 2     # every maximal chain hits the family


# The walk's statuses as module names: reading a member off the enum
# class costs about 0.1 us a time, once per walked node.
_AVOID, _EXHAUSTED, _ALL_HIT = ChainStatus


class ForcingEngine:
    """Memoized chain walks and forcing verdicts for one family, on ids.
    A verdict is its kind: ACCEPTS, REJECTS or UNDECIDED.

    The engine owns one lazy `core.Index` of the approximations it
    meets: the family's members, the stems and bases it is asked about,
    the reducts its sweeps yield and the children its walks visit.
    Walks run on these ids, with a memo keyed by one int per
    (node, top) pair and the members held as a set of ids.  The index
    gives ids only to values the engine meets, so it sweeps nothing up
    front, and it holds no child lists: on every space a walk reads a
    node's children lazily from `extensions_below`, one flat loop that
    builds each child only when it reads it and stops at the first that
    avoids.  Every verdict that gets past the stem's own walk sweeps
    its neighborhood through the space's `iter_neighborhood`.

    A fresh engine is a pure function of (family, max_reducts),
    single-threaded.  Engines share no state, and the index and the
    walk memo are released with the engine.
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
        the stem top with id `top`: the worst status of its non-member
        children, read lazily up to the first that avoids."""
        memo = self._walk_memo
        key = c << 32 | top  # ids stay far below 2**32
        cached = memo.get(key)
        if cached is not None:
            return cached
        self.nodes += 1
        index = self.index
        if index.lengths[c] >= self.bound:
            memo[key] = _AVOID
            return _AVOID
        items, ids, members = index.items, index.index, self._members
        status = _ALL_HIT
        d = None
        for d in self.space.extensions_below(items[c], items[top]):
            i = ids.get(d)
            if i is None:
                # Members are indexed up front, so a new value is none.
                i = index._add(d)
            elif i in members:
                continue
            s = self.walk(i, top)
            if s is _AVOID:
                status = _AVOID
                break
            if s is _EXHAUSTED:
                status = _EXHAUSTED
        if d is None:
            still = self._can_still_hit(items[c], items[top])
            status = _EXHAUSTED if still else _AVOID
        memo[key] = status
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

    def verdict(self, stem: Stem, a: Approximation) -> str:
        """The verdict for (stem, a): ACCEPTS, REJECTS or UNDECIDED.

        accepts: the stem's own chains all hit.  rejects: the stem's own
        chains certifiably avoid and no stem in the preserved-depth
        neighborhood certifiably accepts.  Everything else is undecided.
        A verdict is its kind and names no reason.  Verdicts are
        relative to the truncated universe, and a reduct whose own
        chains end at the truncation carries no evidence either way, so
        it does not block a rejection.  Nothing but the walk memo
        carries over from earlier verdicts, so the answer does not
        depend on what the engine was asked before.

        The hit test of `a` runs once, for the stem's own status; the
        sweep then walks `a` below the id of each reduct it yields.  The
        preserved-depth neighborhood is read lazily and the sweep
        stops at the first accepting reduct.  Raises CeilingExceededError
        when it passes `max_reducts` reducts before that reduct, so a
        rejection is only ever certified over a fully swept neighborhood.
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
            return ACCEPTS
        if own is ChainStatus.EXHAUSTED:
            return UNDECIDED
        n = stem.depth(a)
        prefix = self.space.restrict(top, n)
        # `a` is clean, so below each reduct its status is its walk.
        base = self.index.id(a)
        for t in self._neighborhood(prefix, top):
            if self.walk(base, self.index.id(t)) is ChainStatus.ALL_HIT:
                return UNDECIDED
        return REJECTS


# ----- the dichotomy search -----

ALT1 = "alt1"
ALT2 = "alt2"


@dataclass
class DichotomyResult:
    outcome: str  # alt1 | alt2
    stem: Stem  # the reduct the certificate names
    certificate: str
    stats: dict = field(default_factory=dict)


def _frontier(engine: ForcingEngine, top: Approximation) -> list[tuple[Approximation, int]]:
    """Hit frontier below a stem that accepts the empty approximation
    (the caller checks it): the family members below `top` none of
    whose proper restrictions is a member, each with the index at which
    its chain meets the family (its length), in the family's canonical
    order.  A walk of every chain from the empty approximation stops at
    exactly these nodes, one per pruned chain."""
    below = engine.space.below_test(top)
    return [
        (m, m.length)
        for m in engine.family.members
        if below(m.payload) and engine.hit_index(m) == m.length
    ]


def galvin_search(
    A: Stem, family: FrontFamily, max_reducts: int = MAX_REDUCTS
) -> DichotomyResult:
    """Search for a dichotomy witness below A.

    Either some reduct's whole down-set misses the family (alternative
    1), or some reduct accepts the empty approximation (alternative 2:
    every maximal chain below it meets the family).  Stage 1 asks the
    reducts of A, shortest first, about the empty approximation, and
    that decides.  A rejecting reduct, or a sweep with neither a
    rejecting nor an accepting one, gives alternative 1, whose stem is
    the longest family-free reduct: the first reduct, longest first,
    that no member sits below.  That scan reads only reducts stage 1
    has counted, and the empty reduct is family-free: were the empty
    approximation a member, stage 1 would have answered alternative 2,
    and nothing else lies below it (the audit's A4(ii)).  Otherwise the
    alternative-2 stem is the first accepting reduct of the longest
    length group that has one.

    Every scan reads the reducts of A, [empty, A] = fin_below(A.top),
    one length group `fin_below(A.top, k)` at a time, each in canonical
    order: stage 1 with k rising from 0, the alternative-1 scan with k
    falling from |A|.  Each verdict is a pure function of (family,
    reduct, empty) and neither stem depends on the order stage 1 asks
    in, so the outcome, stem and certificate do not either; shortest
    first reaches a rejecting reduct, which is short, before it walks
    below the long ones.  An alternative-2 certificate lists the family
    members where the chains below its stem first hit, read from the
    family (`_frontier`).

    Stage 1 counts the reducts of A (`count_below`) before it builds
    them.  Past `max_reducts`, A is shrunk greedily through
    `Space.exclude_member` instead.  An A above no member needs no edit
    and is the alternative-1 stem on every space; otherwise, when that
    hook gives None (every space but ellentuck), the search refuses
    with a CeilingExceededError whose estimate is that count.
    """
    space = family.space
    if A.space != space:
        raise MixedSpaceError("stem does not belong to the family's space")
    engine = ForcingEngine(family, max_reducts)
    stats = {"reducts_scanned": 0}
    members = [f.payload for f in family.members]

    def reducts(lengths: Iterable[int]):
        for k in lengths:
            yield from space.fin_below(A.top, k)

    def meets(t: Approximation) -> bool:
        return any(map(space.below_test(t), members))

    def finish(outcome: str, B: Stem | None = None) -> DichotomyResult:
        frontier = []
        if outcome == ALT2:
            # The stem accepted, so this is a walk memo lookup.
            accepts = engine.chain_status(B.top, space.empty()) is ChainStatus.ALL_HIT
            assert accepts, "alternative-2 stem with a chain that avoids the family"
            frontier = _frontier(engine, B.top)
            last = {"chains": len(frontier)}
        else:
            if B is None:
                longest_first = reducts(range(A.length, -1, -1))
                t = next((t for t in longest_first if not meets(t)), None)
                assert t is not None, "no reduct is family-free: the space breaks A4(ii)"
                B = Stem(space, t)
            assert not meets(B.top), "alternative-1 stem still meets the family"
            last = {"checked": len(family.members)}
        fields = {"family": family.serialize_members(), "length_bound": family.length_bound,
                  "ambient": A.serialize(), "outcome": outcome.upper(), "stem": B.serialize()}
        chains = [(space.serialize(m), i) for m, i in frontier]
        cert = certificate.write(
            "galvin-certificate", space.params_str(), fields | last, "chain", "hit", chains
        )
        stats["walk_nodes"] = engine.nodes
        return DichotomyResult(outcome, B, cert, stats=stats)

    # Stage 1: settle the empty approximation on a deciding stem.  If
    # the ambient stem accepts it, every maximal chain below A already
    # meets the family.  Otherwise the reducts are asked shortest
    # first: a rejecting reduct decides alternative 1, and only when no
    # reduct rejects does the longest group with an accepting reduct
    # give alternative 2.  The reducts of A are counted before any is
    # built: every later read lies inside them, so only they can pass
    # the ceiling (a greedy alternative 1 is verified directly).
    empty = space.empty()
    if engine.chain_status(A.top, empty) is ChainStatus.ALL_HIT:
        return finish(ALT2, A)
    count = space.count_below(A.top)
    if count > max_reducts:
        greedy = _greedy_avoiding_stem(space, A, family)
        if greedy is None:
            raise CeilingExceededError("reduct sweep too large", count, max_reducts)
        return finish(ALT1, greedy)
    accepting: Approximation | None = None
    for t in reducts(range(A.length + 1)):
        stats["reducts_scanned"] += 1
        v = engine.verdict(Stem(space, t), empty)
        if v == REJECTS:
            # Alternative 1.  Leaving the loop frees its length group
            # before the scan builds the groups again.
            break
        if v == ACCEPTS and (accepting is None or accepting.length < t.length):
            accepting = t
    else:
        if accepting is not None:
            return finish(ALT2, Stem(space, accepting))
    return finish(ALT1)


def _greedy_avoiding_stem(space: Space, A: Stem, family: FrontFamily) -> Stem | None:
    """Shrink A until no family member sits below it (large-universe path).

    Each step asks `space.exclude_member` to take the first member below
    the top out of its down-set; None when that hook gives None (a space
    with no greedy edit), and then the search refuses.  A top with no
    member below it is returned as it is, on every space.  The resulting
    alternative-1 claim is verified directly, so the shortcut never
    weakens the certificate.
    """
    top = A.top
    while True:
        below = space.below_test(top)
        offender = next((f for f in family.members if below(f.payload)), None)
        if offender is None:
            return Stem(space, top)
        top = space.exclude_member(top, offender)
        if top is None:
            return None


def verify_dichotomy(text: str) -> bool:
    """Replay a dichotomy certificate without the search engine.

    Reads the certificate through `certificate.read`, rebuilds the space
    from its params, re-checks that the named stem is a reduct of the
    ambient stem, and then verifies the claim directly: for alternative
    1 that no family member lies below the stem, that `checked=` counts
    the members listed and that no chain line is given; for alternative
    2 that a fresh walk of every maximal chain meets the family exactly
    at the recorded frontier.  A certificate `read` refuses gives False.
    """
    try:
        params, fields, chains = certificate.read(text, "galvin-certificate", "chain", "hit")
        space = space_from_params(params)
        members = [space.parse(m) for m in fields["family"].split("|") if m]
        bound = int(fields["length_bound"])
        family = FrontFamily(space, members, bound)
        ambient = space.parse(fields["ambient"])
        top = space.parse(fields["stem"])
        if not space.fin_leq(top, ambient):
            return False
        outcome = fields["outcome"]
        member_set = set(family.members)
        frontier = {space.parse(node): i for node, i in chains}
        if outcome == "ALT2" and not int(fields["chains"]) == len(frontier) == len(chains):
            return False
        if outcome == "ALT1" and (chains or int(fields["checked"]) != len(members)):
            return False
    except Exception:
        return False

    if outcome == "ALT1":
        below = space.below_test(top)
        return not any(below(f.payload) for f in family.members)

    if outcome == "ALT2":
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
            children = iter(space.extensions_below(c, top))
            first = next(children, None)
            if first is None:
                return False  # a maximal chain that never hits
            return all(walk(d) for d in itertools.chain((first,), children))

        return walk(space.empty()) and seen == set(frontier)

    return False
