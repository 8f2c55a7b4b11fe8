"""The id-indexed forcing engine against the primitive-driven engine,
the dichotomy search against its canonical-order stage 2, and the
forcing workload's pinned outputs.

`_PrimitiveEngine` is `ForcingEngine` as it was written over
approximation values, before it moved onto an engine-owned index of
ids; it is kept here as the oracle every verdict is compared with.
`_canonical_galvin_search` is `galvin_search` as it was before stage 2
asked each candidate its new-length approximations first; it is kept
as the oracle for every search's stem and certificate.  Both read each
neighborhood as a whole `iter_neighborhood` sweep sorted longest first
(`_longest_first`), where `galvin_search` reads the length groups of
`fin_below(top, k)`.
`_reordered_closure` is stage 2's ask sequence as it was built before
the new length became a merge of child lists: `closure_below` one
level further, new length first; it is kept as the oracle of
`_stage2_asks`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import random

import pytest

from forcing_oracle import rejection_witness
from ramspace import Stem, cli, ell_space, forcing, matrix_space, partition_space, ramsey
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
    INCONCLUSIVE,
    MAX_REDUCTS,
    REJECTS,
    UNDECIDED,
    ChainStatus,
    DichotomyResult,
    ForcingEngine,
    ForcingVerdict,
    FrontFamily,
    _certificate_alt1,
    _certificate_alt2,
    _frontier,
    _greedy_avoiding_stem,
    _stage2_asks,
    front_family,
    galvin_search,
)
from ramspace.spaces.ellentuck import TAG, EllentuckSpace

DATA = pathlib.Path(__file__).parent / "data" / "forcing_results.json"


# ----- the oracle: the engine over approximation values -----


def _longest_first(space, tops):
    """`tops` longest first, ties in serialization order: the scan order
    of every candidate search, as a whole sweep sorted once."""
    return sorted(tops, key=lambda t: (-t.length, space.serialize(t)))


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
            children = self.space.extensions_below(c, top)
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

    def verdict(self, stem: Stem, a: Approximation) -> ForcingVerdict:
        """The accepts/rejects/undecided verdict for (stem, a).

        accepts: the stem's own chains all hit.  rejects: the stem's own
        chains certifiably avoid and no stem in the preserved-depth
        neighborhood certifiably accepts.  Everything else is undecided,
        with diagnostics naming the reason: the verdicts are relative to
        the truncated universe, and reduct proxies whose own chains end
        at the truncation carry no evidence either way (they are noted
        but do not block a rejection).

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
        open_proxies = 0
        for t in self._neighborhood(prefix, top):
            st = self.chain_status(t, a)
            if st is ChainStatus.ALL_HIT:
                return ForcingVerdict(
                    UNDECIDED,
                    self.nodes,
                    diagnostics=(
                        "not decided at this stem: "
                        f"{self.space.serialize(t)} accepts "
                        f"{self.space.serialize(a)}"
                    ),
                )
            if st is ChainStatus.EXHAUSTED:
                open_proxies += 1
        notes = f"open-proxies={open_proxies}" if open_proxies else ""
        return ForcingVerdict(REJECTS, self.nodes, diagnostics=notes)

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
        family = front_family(space, fam, length_bound=2)
        new = ForcingEngine(family)
        old = _PrimitiveEngine(family)
        for B in stems:
            for a in space.fin_below(B.top):
                if a.length > 2:
                    continue
                got = _ask(new.verdict, B, a)
                assert got == _ask(old.verdict, B, a), (fam, B, a)
                compared += 1
                if got.kind == REJECTS:
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
        family = front_family(space, fam, length_bound=2)
        base = space.empty()
        got = _ask(ForcingEngine(family, max_reducts).verdict, A, base)
        want = _ask(_PrimitiveEngine(family, max_reducts).verdict, A, base)
        assert got == want, fam
        if isinstance(got, tuple):
            refused += 1
    # The empty family rejects, so it sweeps every reduct of A.
    assert refused or max_reducts >= space.count_below(A.top)


def test_the_ceiling_error_carries_the_primitive_engine_estimate():
    e = ell_space(9)
    family = front_family(e, [], length_bound=0)
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
    family = front_family(e, [e.make((0, 1)), e.make((2,))])
    engine = ForcingEngine(family)
    members = [engine.index.items[i] for i in sorted(engine._members)]
    assert members == list(family.members)
    v = engine.verdict(e.full_stem(), e.make((1,)))
    assert v == _PrimitiveEngine(family).verdict(e.full_stem(), e.make((1,)))
    # Every walked pair is keyed by one int, and each id names one value.
    assert all(isinstance(key, int) for key in engine._walk_memo)
    assert len(set(engine.index.items)) == len(engine.index.items)
    assert all(
        engine.index.lengths[i] == a.length for i, a in enumerate(engine.index.items)
    )


# ----- the ellentuck child order -----


def _text_sorted_children(a, top):
    last = a.payload[-1] if a.payload else -1
    kids = sorted((x for x in top.payload if x > last), key=lambda x: f"{x}}}")
    return [Approximation(TAG, a.payload + (x,), a.length + 1) for x in kids]


def test_ellentuck_children_follow_the_text_order():
    # Payloads over [-12, 24], sorted or not: children come in the
    # order of the text "x}" that ends each one, as `sort_key` orders
    # siblings, also for values a well-formed space never holds.
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
        assert e.extensions_below(a, t) == _text_sorted_children(a, t), (base, top)
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
    # Ground 12 holds 10 and 11, whose text order is not their numeric
    # order.  Its stems include every ground-11 stem, and the children
    # do not read `ground`, so this covers ground 11 as well.  The walk
    # of [{}, top] asks the children of every base below top once: each
    # list must be the `sort_key`-sorted filter, and the walk must be
    # the depth-first order those lists gave before the child list
    # became a slice.  [base, top] is the subtree of base in that walk.
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
                key=e.sort_key,
            )
            assert e.asked[base] == want, (base, top)
            stack.extend(reversed(want))
        assert walk == order, top
        for x in sorted(set(range(12)) - set(top.payload)):
            for base in (e.make((x,)), e.make(sorted(top.payload + (x,)))):
                with pytest.raises(EmptyNeighborhoodError):
                    e.extensions_below(base, top)


# ----- stage 2's asks against the reordered closure -----


def _reordered_closure(space, t, level, settled):
    """Stage 2's asks as they were built before the new length was
    merged lazily: closure_below(t, level+1), new length first, and the
    shorter ones after unless settled."""
    below = space.closure_below(t, max_length=level + 1)
    shorter = sum(b.length <= level for b in below)
    return below[shorter:] + ([] if settled else below[:shorter])


@pytest.mark.parametrize(
    "space, reordered",
    [(ell_space(6), False), (ell_space(12), True), (matrix_space(2, 3), True),
     (matrix_space(3, 2), False), (partition_space(5), True)],
    ids=lambda v: v.params_str() if hasattr(v, "params_str") else "",
)
def test_stage_2_asks_match_the_reordered_closure(space, reordered):
    # `reordered`: whether some (top, level) has parents whose child
    # lists, laid end to end, are out of canonical order, so that the
    # merge is what puts them in it.
    rng = random.Random(20261018)
    stems = space.stems()
    tops = [space.full_stem().top, space.empty()] + rng.sample(stems, min(12, len(stems)))
    merged = 0
    for t in tops:
        for level in (0, 1, 2):
            for settled in (True, False):
                want = _reordered_closure(space, t, level, settled)
                assert list(_stage2_asks(space, t, level, settled)) == want, (t, level)
            parents = [b for b in space.closure_below(t, level) if b.length == level]
            joined = [c for b in parents for c in space.extensions_below(b, t)]
            merged += joined != _reordered_closure(space, t, level, True)
    assert bool(merged) == reordered


# ----- stage 2's check order against the canonical order -----


def _canonical_galvin_search(A, family, max_reducts=MAX_REDUCTS):
    """`galvin_search` with stage 2 asking each candidate at level n
    every approximation of length <= n+1 below it, in canonical order,
    the current stem included."""
    space = family.space
    engine = ForcingEngine(family, max_reducts)
    L = family.length_bound
    stats = {"reducts_scanned": 0}

    def finish_alt1(B):
        cert = _certificate_alt1(family, A, B, checked=len(family.members))
        stats["walk_nodes"] = engine.nodes
        return DichotomyResult(ALT1, B, cert, stats=stats)

    def finish_alt2(B):
        cert = _certificate_alt2(family, A, B, _frontier(engine, B.top))
        stats["walk_nodes"] = engine.nodes
        return DichotomyResult(ALT2, B, cert, stats=stats)

    def direct_alt1_scan(reducts):
        for t in reducts:
            if not any(space.fin_leq(f, t) for f in family.members):
                stats["direct_scan"] = 1
                return Stem(space, t)
        return None

    empty = space.empty()
    seed = None
    try:
        if engine.chain_status(A.top, empty) is ChainStatus.ALL_HIT:
            return finish_alt2(A)
        reducts = _longest_first(space, engine._neighborhood(empty, A.top))
        first_accepting = None
        for t in reducts:
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
            direct = direct_alt1_scan(reducts)
            if direct is not None:
                return finish_alt1(direct)
            return DichotomyResult(INCONCLUSIVE, None, "", stats=stats)
    except CeilingExceededError:
        greedy = _greedy_avoiding_stem(space, A, family)
        if greedy is None:
            raise
        return finish_alt1(greedy)

    current = seed
    for level in range(L):
        target_len = level + 1
        chosen = None
        prefix = current.approx(min(level, current.length))
        cands = [current.top] + [
            t
            for t in _longest_first(space, engine._neighborhood(prefix, current.top))
            if t != current.top
        ]
        for t in cands:
            stats["reducts_scanned"] += 1
            cand = Stem(space, t)
            if all(
                engine.verdict(cand, b).kind == REJECTS
                for b in space.closure_below(t, max_length=target_len)
            ):
                chosen = cand
                break
        if chosen is None:
            direct = direct_alt1_scan(reducts)
            if direct is not None:
                return finish_alt1(direct)
            return DichotomyResult(INCONCLUSIVE, None, "", stats=stats)
        current = chosen
    return finish_alt1(current)


def _comparable(res):
    """Everything a search reports but its walk_nodes count (and the
    text naming an inconclusive search's blocker)."""
    stats = {key: v for key, v in res.stats.items() if key != "walk_nodes"}
    return res.outcome, res.stem, res.certificate, stats


def _same_search(A, family, max_reducts=MAX_REDUCTS):
    """The search's result, asserted equal to the oracle's but for
    walk_nodes; a refusal must be the oracle's too."""
    try:
        want = _canonical_galvin_search(A, family, max_reducts)
    except CeilingExceededError as e:
        with pytest.raises(CeilingExceededError) as exc:
            galvin_search(A, family, max_reducts)
        assert str(exc.value) == str(e)
        raise
    got = galvin_search(A, family, max_reducts)
    assert _comparable(got) == _comparable(want), (family, A)
    return got


def test_stage_2_order_keeps_the_dichotomy_fixtures():
    from test_acceptance import _fixture_families

    outcomes = []
    for space, members, bound in _fixture_families():
        family = front_family(space, members, length_bound=bound)
        outcomes.append(_same_search(space.full_stem(), family).outcome)
    assert len(outcomes) == 100 and set(outcomes) == {ALT1, ALT2}


@pytest.mark.parametrize(
    "space",
    [ell_space(7), matrix_space(2, 3), matrix_space(3, 2), partition_space(5)],
    ids=lambda sp: sp.params_str(),
)
def test_stage_2_order_keeps_seeded_random_searches(space, monkeypatch):
    # Seeded color classes, as `reduce` searches them: a random half of
    # the length-k approximations, below the full stem or a random stem
    # of length >= 3.  Both orders choose the same stems; the new one
    # asks fewer verdicts.  Some levels must read candidates past the
    # current stem under a non-empty prefix, where the search keeps
    # only part of each length group of fin_below(current).
    asked = [0]
    verdict = ForcingEngine.verdict
    asks = forcing._stage2_asks
    search = [0]
    past_current: set[tuple[int, int]] = set()

    def counting(self, stem, a):
        asked[0] += 1
        return verdict(self, stem, a)

    def recording(space, t, level, settled):
        # A candidate other than the current stem lies in [prefix,
        # current] with a prefix shorter than the current stem, so the
        # prefix has length `level`: non-empty from level 1 on.
        if not settled and level >= 1:
            past_current.add((search[0], level))
        return asks(space, t, level, settled)

    monkeypatch.setattr(ForcingEngine, "verdict", counting)
    monkeypatch.setattr(forcing, "_stage2_asks", recording)
    rng = random.Random(20261018)
    below = space.fin_below(space.full_stem().top)
    ambients = [space.full_stem()] + [
        Stem(space, t) for t in space.stems() if t.length >= 3
    ]
    outcomes = {ALT1: 0, ALT2: 0, INCONCLUSIVE: 0}
    verdicts = {"canonical": 0, "new-length first": 0}
    for i in range(50):
        # Ten more classes of length 3, whose searches on ellentuck
        # read past the current stem at level 1 and on.
        k = rng.choice((1, 2)) if i < 40 else 3
        members = [a for a in below if a.length == k and rng.random() < 0.5]
        family = front_family(space, members, length_bound=k)
        A = rng.choice(ambients)
        start = asked[0]
        want = _canonical_galvin_search(A, family)
        verdicts["canonical"] += asked[0] - start
        start = asked[0]
        search[0] += 1
        got = galvin_search(A, family)
        verdicts["new-length first"] += asked[0] - start
        assert _comparable(got) == _comparable(want), (members, A)
        outcomes[got.outcome] += 1
    assert outcomes[ALT1] and outcomes[ALT2], outcomes
    assert verdicts["new-length first"] < verdicts["canonical"], verdicts
    # Matrix (3, 2) has one such neighborhood, [1, the identity], and
    # no family reaches it: an identity refused at level 1 (it meets
    # the family) is refused at level 0 already.
    if space != matrix_space(3, 2):
        assert past_current, outcomes


@pytest.mark.parametrize("space, pool", CASES)
def test_verdicts_do_not_depend_on_the_memo(space, pool):
    # Stage 2 may ask a candidate's approximations in any order because
    # a verdict's kind and diagnostics are the same on a fresh engine
    # and on one warmed by any other verdicts.
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
        family = front_family(space, fam, length_bound=2)
        warm = ForcingEngine(family)
        for B, a in rng.sample(questions, len(questions)):
            got = warm.verdict(B, a)
            if rng.random() < 0.2:
                fresh = ForcingEngine(family).verdict(B, a)
                assert (got.kind, got.diagnostics) == (fresh.kind, fresh.diagnostics)
                kinds.add(got.kind)
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
    # the primitive engine's order: every kind, diagnostic and node
    # count must be the primitive engine's, with fewer sweeps, because
    # an undecided verdict covered by an earlier accepting reduct is
    # answered from the engine's table.
    sweeps = _count_sweeps(monkeypatch)
    kinds = set()
    for fam, questions in _warm_questions(space, pool, seed=2028):
        family = front_family(space, fam, length_bound=2)
        new, old = ForcingEngine(family), _PrimitiveEngine(family)
        for B, a in questions:
            got, want = new.verdict(B, a), old.verdict(B, a)
            assert got == want, (fam, B, a)
            kinds.add(got.kind)
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
            family = front_family(space, fam, length_bound=2)
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
        family = front_family(space, members)
        new, old = ForcingEngine(family), _PrimitiveEngine(family)
        for t in space.stems():
            for c in space.fin_below(t):
                got = new._can_still_hit(c, t)
                assert got == old._can_still_hit(c, t), (members, t, c)
                seen.add(got)
    assert seen == {True, False}


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
    # those are the sums of its galvin_search stages' stats.  The
    # walk_nodes counts were re-pinned when stage 2 began asking
    # new-length approximations first.
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
