"""The id-indexed forcing engine against the primitive-driven engine,
the dichotomy search against a brute-force oracle, and the forcing
workload's pinned outputs.

`_PrimitiveEngine` is `ForcingEngine` as it was written over
approximation values, before it moved onto an engine-owned index of
ids; it is kept here as the oracle every verdict is compared with.
`_oracle_galvin_search` runs stage 1 of the search on it, over a whole
`iter_neighborhood` sweep sorted longest first (`_longest_first`),
where `galvin_search` reads the length groups of `fin_below(top, k)`.
Its alternative-1 stem is found by brute force
(`forcing_oracle.longest_family_free`), and its alternative-2
certificates list the frontier a walk of every chain finds
(`forcing_oracle.frontier_walk`).  It is the oracle for every search's
outcome, stem, certificate and stats.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import random

import pytest

from forcing_oracle import frontier_walk, longest_family_free, rejection_witness
from ramspace import Stem, cli, ell_space, matrix_space, partition_space, ramsey
from ramspace.core import Approximation
from ramspace.errors import (
    CeilingExceededError,
    EmptyNeighborhoodError,
    MixedSpaceError,
)
from ramspace.forcing import (
    ACCEPTS,
    ALT1,
    ALT2,
    MAX_REDUCTS,
    REJECTS,
    UNDECIDED,
    ChainStatus,
    DichotomyResult,
    ForcingEngine,
    FrontFamily,
    _certificate,
    _frontier,
    _greedy_avoiding_stem,
    galvin_search,
    verify_dichotomy,
)
from ramspace.spaces.ellentuck import TAG, EllentuckSpace

DATA = pathlib.Path(__file__).parent / "data" / "forcing_results.json"


# ----- the oracle: the engine over approximation values -----


def _canonical(a):
    """The canonical order, written here rather than read from the
    package: shorter first, then by payload."""
    return (a.length, a.payload)


def _longest_first(space, tops):
    """`tops` longest first, ties in canonical order: the scan order of
    every candidate search, as a whole sweep sorted once."""
    return sorted(tops, key=lambda t: (-t.length, t.payload))


class _PrimitiveEngine:
    """The forcing engine over approximation values: every walk, hit
    test and sweep asks the space's primitives directly, and the walk
    memo is keyed by (node, top) value pairs."""

    def __init__(self, family: FrontFamily, max_reducts: int = 1 << 16):
        self.family = family
        self.space = family.space
        self.bound = family.length_bound
        self.max_reducts = max_reducts
        self._members = set(family.members)
        self._walk_memo: dict[tuple[Approximation, Approximation], ChainStatus] = {}
        self.nodes = 0

    # ----- chain walk -----

    def hit_index(self, a: Approximation) -> int | None:
        """First i <= |a| with the length-i restriction in the family."""
        for i in range(a.length + 1):
            if self.space.restrict(a, i) in self._members:
                return i
        return None

    def _can_still_hit(self, c: Approximation, top: Approximation) -> bool:
        """Whether an exhausted chain at `c` below `top` could still meet
        the family: some member must extend `c`, and `c` must sit at the
        stem's materialization frontier, where continuations are free."""
        if not self.space.open_beyond(c, top):
            return False
        for f in self.family.members:
            if f.length > c.length and self.space.restrict(f, c.length) == c:
                return True
        return False

    def walk(self, c: Approximation, top: Approximation) -> ChainStatus:
        """Status of the chains through the clean node `c` below `top`."""
        key = (c, top)
        cached = self._walk_memo.get(key)
        if cached is not None:
            return cached
        self.nodes += 1
        if c.length >= self.bound:
            status = ChainStatus.AVOID
        else:
            children = list(self.space.extensions_below(c, top))
            if not children:
                status = (
                    ChainStatus.EXHAUSTED
                    if self._can_still_hit(c, top)
                    else ChainStatus.AVOID
                )
            else:
                status = ChainStatus.ALL_HIT
                for d in children:
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
        return self.walk(a, top)

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
        neighborhood certifiably accepts.  Everything else is undecided:
        the verdicts are relative to the truncated universe, and a
        reduct whose own chains end at the truncation carries no
        evidence either way, so it does not block a rejection.

        The preserved-depth neighborhood is read lazily and the sweep
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
        for t in self._neighborhood(prefix, top):
            if self.chain_status(t, a) is ChainStatus.ALL_HIT:
                return UNDECIDED
        return REJECTS

    def rejection_witness(self, stem: Stem, a: Approximation) -> Stem | None:
        """A preserved-depth reduct below which no one-step extension of
        `a` is accepted by `stem`.  Mirrors the pigeonhole step of the
        classical argument; tried longest-first so witnesses with
        nonempty extension sets are preferred."""
        top = stem.top
        n = stem.depth(a)
        prefix = self.space.restrict(top, n)
        for t in _longest_first(self.space, self._neighborhood(prefix, top)):
            if not self.space.fin_leq(a, t):
                continue
            exts = self.space.extensions_below(a, t)
            if all(self.chain_status(top, b) is not ChainStatus.ALL_HIT for b in exts):
                return Stem(self.space, t)
        return None


# ----- the engine against the oracle -----


def _pool(space, size):
    """The empty approximation and the first `size` others of length
    1-2 below the full stem, in canonical order."""
    below = space.fin_below(space.full_stem().top)
    return below[:1] + [a for a in below if 1 <= a.length <= 2][:size]


CASES = [
    # criterion 6's pool, on a smaller ground: the empty set, every
    # singleton and every pair over {0..3}
    pytest.param(
        ell_space(6),
        [ell_space(6).empty()]
        + [ell_space(6).make((x,)) for x in range(4)]
        + [ell_space(6).make(p) for p in itertools.combinations(range(4), 2)],
        id="ellentuck-6",
    ),
    pytest.param(matrix_space(2, 3), _pool(matrix_space(2, 3), 8), id="matrix-2-3"),
    pytest.param(matrix_space(3, 2), _pool(matrix_space(3, 2), 6), id="matrix-3-2"),
    pytest.param(partition_space(4), _pool(partition_space(4), 8), id="partition-4"),
]


def _ask(call, *args):
    """A call's answer, or the class and text of the error it raised."""
    try:
        return call(*args)
    except (CeilingExceededError, EmptyNeighborhoodError, ValueError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("space, pool", CASES)
def test_every_verdict_matches_the_primitive_engine(space, pool):
    stems = [Stem(space, t) for t in space.stems()]
    families = [fam for r in range(3) for fam in itertools.combinations(pool, r)]
    compared = 0
    for fam in families:
        family = FrontFamily(space, fam, length_bound=2)
        new = ForcingEngine(family)
        old = _PrimitiveEngine(family)
        for B in stems:
            for a in space.fin_below(B.top):
                if a.length > 2:
                    continue
                got = _ask(new.verdict, B, a)
                assert got == _ask(old.verdict, B, a), (fam, B, a)
                compared += 1
                if got == REJECTS:
                    w_new = rejection_witness(new, B, a)
                    w_old = old.rejection_witness(B, a)
                    assert w_new == w_old, (fam, B, a)
                assert new.nodes == old.nodes
    # One engine per family: the smallest grid, matrix-3-2, compares 609.
    assert compared > 500


@pytest.mark.parametrize("space, pool", CASES)
@pytest.mark.parametrize("max_reducts", [1, 2, 3, 5, 8, 13])
def test_the_ceiling_estimate_matches_the_primitive_engine(space, pool, max_reducts):
    # Every family of one or two pool members, on the full stem and on
    # the empty base: an accepting reduct before the ceiling settles
    # the verdict, a rejection refuses with the count it reached.
    A = space.full_stem()
    refused = 0
    families = [()] + [fam for r in (1, 2) for fam in itertools.combinations(pool, r)]
    for fam in families:
        family = FrontFamily(space, fam, length_bound=2)
        base = space.empty()
        new = ForcingEngine(family, max_reducts)
        old = _PrimitiveEngine(family, max_reducts)
        got = _ask(new.verdict, A, base)
        want = _ask(old.verdict, A, base)
        assert got == want, fam
        assert new.nodes == old.nodes, fam
        if isinstance(got, tuple):
            refused += 1
    # The empty family rejects, so it sweeps every reduct of A.
    assert refused or max_reducts >= space.count_below(A.top)


def test_the_ceiling_error_carries_the_primitive_engine_estimate():
    e = ell_space(9)
    family = FrontFamily(e, [], length_bound=0)
    for ceiling in (1, 2, 7, 40):
        errors = []
        for engine in (ForcingEngine(family, max_reducts=ceiling),
                       _PrimitiveEngine(family, max_reducts=ceiling)):
            with pytest.raises(CeilingExceededError) as exc:
                engine.verdict(e.full_stem(), e.empty())
            errors.append((exc.value.estimate, exc.value.ceiling))
        assert errors[0] == errors[1] == (ceiling + 1, ceiling)


def test_walks_run_on_engine_owned_ids():
    e = ell_space(6)
    family = FrontFamily(e, [e.make((0, 1)), e.make((2,))])
    engine = ForcingEngine(family)
    members = [engine.index.items[i] for i in sorted(engine._members)]
    assert members == list(family.members)
    v = engine.verdict(e.full_stem(), e.make((1,)))
    old = _PrimitiveEngine(family)
    assert v == old.verdict(e.full_stem(), e.make((1,)))
    assert engine.nodes == old.nodes
    # Every walked pair is keyed by one int, and each id names one value.
    assert all(isinstance(key, int) for key in engine._walk_memo)
    assert len(set(engine.index.items)) == len(engine.index.items)
    assert all(
        engine.index.lengths[i] == a.length for i, a in enumerate(engine.index.items)
    )


# ----- the ellentuck child order -----


def _numeric_children(a, top):
    last = a.payload[-1] if a.payload else -1
    kids = sorted(x for x in top.payload if x > last)
    return [Approximation(TAG, a.payload + (x,), a.length + 1) for x in kids]


def test_ellentuck_children_follow_the_numeric_order():
    # Payloads over [-12, 24], sorted or not: children come in the
    # numeric order of the element each one adds, as the canonical
    # order ranks siblings, also for values a well-formed space never
    # holds; two-digit and negative elements sort as numbers, not text.
    e = ell_space(8)
    rng = random.Random(20261018)
    values = range(-12, 25)
    cases = [((), tuple(range(-12, 25))), ((), tuple(range(24, -13, -1)))]
    for _ in range(3000):
        top = tuple(rng.sample(values, rng.randint(0, 12)))
        if rng.random() < 0.7:
            top = tuple(sorted(top))
        base = tuple(rng.sample(top, rng.randint(0, min(3, len(top)))))
        if rng.random() < 0.7:
            base = tuple(sorted(base))
        cases.append((base, top))
    for base, top in cases:
        a = Approximation(TAG, base, len(base))
        t = Approximation(TAG, top, len(top))
        assert e.extensions_below(a, t) == _numeric_children(a, t), (base, top)
    with pytest.raises(EmptyNeighborhoodError):
        e.extensions_below(e.make((1,)), e.make((2, 3)))
    with pytest.raises(MixedSpaceError):
        e.extensions_below(e.empty(), Approximation("matrix", (), 0))


class _AskedChildren(EllentuckSpace):
    """The ellentuck space, keeping each child list it gives."""

    def __init__(self, ground):
        super().__init__(ground)
        object.__setattr__(self, "asked", {})

    def extensions_below(self, a, top):
        kids = self.asked[a] = super().extensions_below(a, top)
        return kids


def test_ellentuck_children_of_every_ground_12_pair():
    # Ground 12 holds the two-digit elements 10 and 11.  Its stems
    # include every ground-11 stem, and the children do not read
    # `ground`, so this covers ground 11 as well.  The walk of
    # [{}, top] asks the children of every base below top once: each
    # list must be the filter sorted in canonical order, and the walk
    # must be the depth-first order those lists gave before the child
    # list became a slice.  [base, top] is the subtree of base in that
    # walk.
    e = _AskedChildren(12)
    tops = e.stems()
    assert set(ell_space(11).stems()) <= set(tops)
    for top in tops:
        e.asked.clear()
        walk = [t for t, _ in e.iter_neighborhood(e.empty(), top)]
        order = []
        stack = [e.empty()]
        while stack:
            base = stack.pop()
            order.append(base)
            last = base.payload[-1] if base.payload else -1
            want = sorted(
                (
                    Approximation(TAG, base.payload + (x,), base.length + 1)
                    for x in top.payload
                    if x > last
                ),
                key=_canonical,
            )
            assert e.asked[base] == want, (base, top)
            stack.extend(reversed(want))
        assert walk == order, top
        for x in sorted(set(range(12)) - set(top.payload)):
            for base in (e.make((x,)), e.make(sorted(top.payload + (x,)))):
                with pytest.raises(EmptyNeighborhoodError):
                    e.extensions_below(base, top)


# ----- the dichotomy search against a brute-force oracle -----


def _oracle_galvin_search(A, family, max_reducts=MAX_REDUCTS):
    """`galvin_search` from its definition: stage 1 on the primitive
    engine, over a whole sweep of the reducts of A sorted longest first,
    and, for alternative 1, the brute-force longest family-free reduct.
    An alternative-2 certificate lists the frontier a walk of every
    chain finds."""
    space = family.space
    engine = _PrimitiveEngine(family, max_reducts)
    stats = {"reducts_scanned": 0}

    def finish_alt1(B=None):
        if B is None:
            B = Stem(space, longest_family_free(space, A.top, family.members))
        cert = _certificate(family, A, "ALT1", B, [f"checked={len(family.members)}"])
        stats["walk_nodes"] = engine.nodes
        return DichotomyResult(ALT1, B, cert, stats=stats)

    def finish_alt2(B):
        frontier = sorted(frontier_walk(engine, B.top), key=lambda p: _canonical(p[0]))
        body = [f"chains={len(frontier)}"]
        body += [f"chain={space.serialize(c)};hit={i}" for c, i in frontier]
        cert = _certificate(family, A, "ALT2", B, body)
        stats["walk_nodes"] = engine.nodes
        return DichotomyResult(ALT2, B, cert, stats=stats)

    empty = space.empty()
    if engine.chain_status(A.top, empty) is ChainStatus.ALL_HIT:
        return finish_alt2(A)
    try:
        reducts = _longest_first(space, engine._neighborhood(empty, A.top))
    except CeilingExceededError:
        greedy = _greedy_avoiding_stem(space, A, family)
        if greedy is None:
            raise
        return finish_alt1(greedy)
    first_accepting = None
    for t in reducts:
        stats["reducts_scanned"] += 1
        v = engine.verdict(Stem(space, t), empty)
        if v == REJECTS:
            return finish_alt1()
        if v == ACCEPTS and first_accepting is None:
            first_accepting = Stem(space, t)
    if first_accepting is not None:
        return finish_alt2(first_accepting)
    return finish_alt1()


def _same_search(A, family, max_reducts=MAX_REDUCTS):
    """The search's result, asserted equal to the oracle's, stats
    included; a refusal must be the oracle's too."""
    try:
        want = _oracle_galvin_search(A, family, max_reducts)
    except CeilingExceededError as e:
        with pytest.raises(CeilingExceededError) as exc:
            galvin_search(A, family, max_reducts)
        assert str(exc.value) == str(e)
        raise
    got = galvin_search(A, family, max_reducts)
    assert (got.outcome, got.stem, got.certificate, got.stats) == (
        want.outcome, want.stem, want.certificate, want.stats
    ), (family, A)
    return got


def test_stage_2_order_keeps_the_dichotomy_fixtures():
    from test_acceptance import _fixture_families

    outcomes = []
    for space, members, bound in _fixture_families():
        family = FrontFamily(space, members, length_bound=bound)
        outcomes.append(_same_search(space.full_stem(), family).outcome)
    assert len(outcomes) == 100 and set(outcomes) == {ALT1, ALT2}


@pytest.mark.parametrize(
    "space",
    [ell_space(7), matrix_space(2, 3), matrix_space(3, 2), partition_space(5)],
    ids=lambda sp: sp.params_str(),
)
def test_stage_2_order_keeps_seeded_random_searches(space):
    # Seeded color classes, as `reduce` searches them: a random half of
    # the length-k approximations, below the full stem or a random stem
    # of length >= 3.
    rng = random.Random(20261018)
    below = space.fin_below(space.full_stem().top)
    ambients = [space.full_stem()] + [
        Stem(space, t) for t in space.stems() if t.length >= 3
    ]
    outcomes = {ALT1: 0, ALT2: 0}
    for i in range(50):
        k = rng.choice((1, 2)) if i < 40 else 3
        members = [a for a in below if a.length == k and rng.random() < 0.5]
        family = FrontFamily(space, members, length_bound=k)
        A = rng.choice(ambients)
        outcomes[_same_search(A, family).outcome] += 1
    assert outcomes[ALT1] and outcomes[ALT2], outcomes


@pytest.mark.parametrize("space, pool", CASES)
def test_verdicts_do_not_depend_on_the_memo(space, pool):
    # A verdict is the same on a fresh engine and on one warmed by any
    # other verdicts, so a search's answers do not depend on what its
    # engine was asked before.
    rng = random.Random(318)
    questions = [
        (Stem(space, t), a)
        for t in space.stems()
        for a in space.fin_below(t)
        if a.length <= 2
    ]
    families = [fam for r in (1, 2) for fam in itertools.combinations(pool, r)]
    kinds = set()
    for fam in rng.sample(families, 6):
        family = FrontFamily(space, fam, length_bound=2)
        warm = ForcingEngine(family)
        for B, a in rng.sample(questions, len(questions)):
            got = warm.verdict(B, a)
            if rng.random() < 0.2:
                fresh = ForcingEngine(family).verdict(B, a)
                assert got == fresh
                kinds.add(got)
    assert {ACCEPTS, REJECTS} <= kinds


# One case per space.
REUSE_CASES = [case for case in CASES if case.id != "matrix-3-2"]


def _warm_questions(space, pool, seed):
    """Each family of one or two pool members, paired with every
    (stem, a) question with |a| <= 2 in a shuffled order of its own,
    drawn from `seed`."""
    rng = random.Random(seed)
    questions = [
        (Stem(space, t), a)
        for t in space.stems()
        for a in space.fin_below(t)
        if a.length <= 2
    ]
    return [
        (fam, rng.sample(questions, len(questions)))
        for r in (1, 2)
        for fam in itertools.combinations(pool, r)
    ]


def _count_sweeps(monkeypatch):
    """Neighborhood sweeps started per engine class, from now on."""
    sweeps = {ForcingEngine: 0, _PrimitiveEngine: 0}
    for cls in sweeps:

        def counted(self, base, top, cls=cls, sweep=cls._neighborhood):
            sweeps[cls] += 1
            return sweep(self, base, top)

        monkeypatch.setattr(cls, "_neighborhood", counted)
    return sweeps


@pytest.mark.parametrize("space, pool", REUSE_CASES)
def test_warm_verdicts_reuse_accepting_reducts_exactly(space, pool, monkeypatch):
    # One warm engine per family answers a shuffled question list in
    # the primitive engine's order: every verdict and node count must
    # be the primitive engine's, with fewer sweeps, because an
    # undecided verdict covered by an earlier accepting reduct is
    # answered from the engine's table.
    sweeps = _count_sweeps(monkeypatch)
    kinds = set()
    for fam, questions in _warm_questions(space, pool, seed=2028):
        family = FrontFamily(space, fam, length_bound=2)
        new, old = ForcingEngine(family), _PrimitiveEngine(family)
        for B, a in questions:
            got, want = new.verdict(B, a), old.verdict(B, a)
            assert got == want, (fam, B, a)
            assert new.nodes == old.nodes
            kinds.add(got)
    assert kinds == {ACCEPTS, REJECTS, UNDECIDED}
    assert sweeps[ForcingEngine] < sweeps[_PrimitiveEngine], sweeps


@pytest.mark.parametrize("space, pool", REUSE_CASES)
def test_warm_ceilings_match_the_primitive_engine(space, pool, monkeypatch):
    # Six of those families and their question orders, under small
    # ceilings: a verdict read from the table is one whose sweep would
    # have reached its accepting reduct within the ceiling, so every
    # answer, refusal estimate and node count is the primitive engine's.
    sweeps = _count_sweeps(monkeypatch)
    asked = random.Random(2028).sample(_warm_questions(space, pool, seed=2028), 6)
    refused = 0
    for max_reducts in (1, 2, 3, 5, 8, 13):
        for fam, questions in asked:
            family = FrontFamily(space, fam, length_bound=2)
            new = ForcingEngine(family, max_reducts)
            old = _PrimitiveEngine(family, max_reducts)
            for B, a in questions:
                answers = []
                for engine in (new, old):
                    try:
                        answers.append(engine.verdict(B, a))
                    except CeilingExceededError as e:
                        answers.append((str(e), e.estimate, e.ceiling))
                assert answers[0] == answers[1], (max_reducts, fam, B, a)
                assert new.nodes == old.nodes
                refused += isinstance(answers[0], tuple)
    assert refused
    assert sweeps[ForcingEngine] < sweeps[_PrimitiveEngine], sweeps


@pytest.mark.parametrize("space, pool", CASES)
def test_can_still_hit_matches_the_member_loop(space, pool):
    # The engine's set of proper member prefixes against the oracle's
    # scan of the members, on every approximation below every stem.
    rng = random.Random(7)
    below = space.fin_below(space.full_stem().top)
    seen = set()
    for _ in range(8):
        members = rng.sample(below, 3)
        family = FrontFamily(space, members)
        new, old = ForcingEngine(family), _PrimitiveEngine(family)
        for t in space.stems():
            for c in space.fin_below(t):
                got = new._can_still_hit(c, t)
                assert got == old._can_still_hit(c, t), (members, t, c)
                seen.add(got)
    assert seen == {True, False}


# ----- the alternative-2 frontier against the chain walk -----


@pytest.mark.parametrize("space, pool", CASES)
def test_frontier_matches_the_chain_walk(space, pool):
    # Every stem that accepts the empty approximation is a stem an
    # alternative-2 certificate can name.  Below each, the frontier read
    # from the family must be the walk's, in canonical order.  Families
    # of one to three pool values include the empty member, and members
    # that are restrictions of other members, so that the walk stops
    # above a member below the stem.  Every search's certificate, from
    # the full stem and from three seeded ambient stems, must verify.
    rng = random.Random(2009)
    stems = space.stems()
    families = [fam for r in (1, 2, 3) for fam in itertools.combinations(pool, r)]
    compared = with_empty = shadowed = searched_alt2 = 0
    for fam in families:
        family = FrontFamily(space, fam)
        engine = ForcingEngine(family)
        for t in stems:
            if engine.chain_status(t, space.empty()) is not ChainStatus.ALL_HIT:
                continue
            want = sorted(frontier_walk(engine, t), key=lambda p: _canonical(p[0]))
            got = _frontier(engine, t)
            assert got == want, (family.serialize_members(), space.serialize(t))
            compared += 1
            with_empty += space.empty() in family.members
            shadowed += len(got) < sum(space.fin_leq(m, t) for m in family.members)
        for A in [space.full_stem()] + [Stem(space, t) for t in rng.sample(stems, 3)]:
            res = galvin_search(A, family)
            assert verify_dichotomy(res.certificate)
            if res.outcome == ALT2:
                searched_alt2 += 1
                got = _frontier(ForcingEngine(family), res.stem.top)
                lines = [ln for ln in res.certificate.splitlines() if ln.startswith("chain=")]
                assert lines == [
                    f"chain={space.serialize(m)};hit={i}" for m, i in got
                ]
    assert compared and with_empty and shadowed and searched_alt2


# ----- the pinned forcing grid -----


def _run_grid_job(tmp_path, i, job):
    """The job's argv, exit code and stdout, run through the CLI."""
    path = tmp_path / f"input-{i:03d}.txt"
    path.write_text("\n".join(job["file"]) + "\n")
    flag = "--family" if job["command"] == "galvin" else "--coloring"
    argv = [job["command"], flag, str(path), *job["argv"], "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return argv, code, out.getvalue()


def test_forcing_grid_matches_the_pinned_results(tmp_path, monkeypatch):
    # One pass of the benchmark's forcing workload, taken with the
    # primitive-driven engine: galvin output is byte-identical, reduce
    # output is identical apart from the stats it now reports, and
    # those are the sums of its galvin_search stages' stats.
    stages = []
    search = ramsey.galvin_search

    def recording(*args, **kwargs):
        res = search(*args, **kwargs)
        stages.append(res.stats)
        return res

    monkeypatch.setattr(ramsey, "galvin_search", recording)
    jobs = json.loads(DATA.read_text())["jobs"]
    for i, job in enumerate(jobs):
        stages.clear()
        argv, code, stdout = _run_grid_job(tmp_path, i, job)
        assert code == job["exit"], argv
        want = dict(job["output"])
        if job["command"] == "galvin":
            assert stdout == json.dumps(want, indent=2, sort_keys=True) + "\n"
            continue
        got = json.loads(stdout)
        stats = got.pop("stats")
        assert want.pop("stats") == {}
        assert got == want, argv
        assert stages == job["stage_stats"], argv
        assert stats == {
            key: sum(s.get(key, 0) for s in stages)
            for key in ("walk_nodes", "reducts_scanned")
        }
    assert len(jobs) == 100
    assert sum(job["command"] == "reduce" for job in jobs) == 61


# Two certificates as they were issued while the canonical order was
# the text order: the family and the chain lines are in text order.
TEXT_ORDER_CERTIFICATES = [
    "galvin-certificate v1\nspace=ellentuck;ground=12\n"
    "family={0}|{10}|{2}|{4}|{6}|{8}\nlength_bound=1\n"
    "ambient={0,1,2,3,4,5,6,7,8,9,10,11}\noutcome=ALT1\n"
    "stem={1,3,5,7,9,11}\nchecked=6\n",
    "galvin-certificate v1\nspace=partition;max_domain=3\n"
    "family=({0,1,2})|({0,1})|({0})|({0,1},{2})|({0},{1,2})|({0},{1})\n"
    "length_bound=2\nambient=({0},{1},{2})\noutcome=ALT2\n"
    "stem=({0},{1},{2})\nchains=3\nchain=({0,1,2});hit=1\n"
    "chain=({0,1});hit=1\nchain=({0});hit=1\n",
]


def test_verify_dichotomy_accepts_any_family_order():
    # The verifier reads the family as a set: a certificate issued in
    # the text order, and every pinned certificate with its family
    # members permuted, verifies.
    rng = random.Random(31)
    certificates = list(TEXT_ORDER_CERTIFICATES)
    for job in json.loads(DATA.read_text())["jobs"]:
        certificates += job["output"]["certificates"].values()
    permuted = 0
    for cert in certificates:
        assert verify_dichotomy(cert), cert
        lines = cert.splitlines(keepends=True)
        i = next(i for i, ln in enumerate(lines) if ln.startswith("family="))
        members = lines[i][len("family="):-1].split("|")
        for order in (members[::-1], rng.sample(members, len(members))):
            lines[i] = "family=" + "|".join(order) + "\n"
            assert verify_dichotomy("".join(lines)), (cert, order)
            permuted += order != members
    assert permuted > 50


def test_stage_2_order_keeps_the_forcing_grid(tmp_path, monkeypatch):
    # Every search of the pinned grid, galvin and reduce stages alike,
    # against the oracle.
    outcomes = []

    def checked(A, family, max_reducts=MAX_REDUCTS):
        res = _same_search(A, family, max_reducts)
        outcomes.append(res.outcome)
        return res

    monkeypatch.setattr(cli, "galvin_search", checked)
    monkeypatch.setattr(ramsey, "galvin_search", checked)
    jobs = json.loads(DATA.read_text())["jobs"]
    for i, job in enumerate(jobs):
        argv, code, _ = _run_grid_job(tmp_path, i, job)
        assert code == job["exit"], argv
    assert len(outcomes) > len(jobs)
