import gc
import itertools
import tracemalloc

import pytest

from ramspace import Stem, ell_space, matrix_space, partition_space
from forcing_oracle import FusionExhaustedError, fusion, rejection_witness
from ramspace.errors import CeilingExceededError, EmptyNeighborhoodError
from ramspace.forcing import (
    ACCEPTS,
    ALT1,
    ALT2,
    REJECTS,
    UNDECIDED,
    ChainStatus,
    ForcingEngine,
    FrontFamily,
    galvin_search,
    verify_dichotomy,
)


@pytest.fixture(scope="module")
def even_pairs_family():
    e = ell_space(12)
    evens = [x for x in range(12) if x % 2 == 0]
    members = [e.make(p) for p in itertools.combinations(evens, 2)]
    return e, FrontFamily(e, members)


def test_family_sorts_and_validates(e8):
    fam = FrontFamily(e8, [e8.make((3,)), e8.make((1,))])
    assert [m.payload for m in fam.members] == [(1,), (3,)]
    assert fam.length_bound == 1
    # Members may come from any iterable; the default bound is the
    # longest member's length, 0 for no members.
    assert FrontFamily(e8, iter([e8.make((1, 2))])).length_bound == 2
    assert FrontFamily(e8, ()).length_bound == 0
    with pytest.raises(ValueError):
        FrontFamily(e8, (e8.make((1, 2)),), 1)
    with pytest.raises(ValueError):
        FrontFamily(e8, (), -1)


def test_accepts_when_base_is_a_member(e12):
    A = e12.full_stem()
    fam = FrontFamily(e12, [e12.make((x,)) for x in range(12)])
    v = ForcingEngine(fam).verdict(A, e12.make((3,)))
    assert v == ACCEPTS


def test_empty_family_is_rejected_everywhere(e12):
    A = e12.full_stem()
    fam = FrontFamily(e12, [], length_bound=0)
    assert ForcingEngine(fam).verdict(A, e12.make((1,))) == REJECTS
    assert ForcingEngine(fam).verdict(A, e12.empty()) == REJECTS


def test_rejects_odd_base_against_even_pairs(even_pairs_family):
    e, fam = even_pairs_family
    A = e.full_stem()
    v = ForcingEngine(fam).verdict(A, e.make((1,)))
    assert v == REJECTS
    # a second engine gives the same verdict: not accepts
    assert ForcingEngine(fam).verdict(A, e.make((1,))) == REJECTS


def test_odds_stem_does_not_accept_odd_base(even_pairs_family):
    e, fam = even_pairs_family
    odds = Stem(e, e.make(tuple(range(1, 12, 2))))
    assert ForcingEngine(fam).verdict(odds, e.make((1,))) != ACCEPTS


def test_member_is_never_rejected(e12):
    A = e12.full_stem()
    fam = FrontFamily(e12, [e12.make((2, 5))])
    assert ForcingEngine(fam).verdict(A, e12.make((2, 5))) == ACCEPTS


def test_decide_empty_base(e12):
    A = e12.full_stem()
    all_singletons = FrontFamily(e12, [e12.make((x,)) for x in range(12)])
    assert ForcingEngine(all_singletons).verdict(A, e12.empty()) == ACCEPTS
    empty_family = FrontFamily(e12, [], length_bound=0)
    assert ForcingEngine(empty_family).verdict(A, e12.empty()) == REJECTS


def test_verdict_requires_nonempty_neighborhood(e8):
    stem = Stem(e8, e8.make((0, 2)))
    fam = FrontFamily(e8, [e8.make((0,))])
    with pytest.raises(EmptyNeighborhoodError):
        ForcingEngine(fam).verdict(stem, e8.make((1,)))


def test_accepts_and_rejects_mutually_exclusive(e8):
    full = e8.full_stem()
    pool = [e8.empty()] + [e8.make((x,)) for x in range(4)]
    fams = [FrontFamily(e8, c, length_bound=2) for c in itertools.combinations(pool, 2)]
    for fam in fams:
        eng = ForcingEngine(fam)
        for top in e8.fin_below(full.top)[:40]:
            stem = Stem(e8, top)
            for a in e8.fin_below(top):
                if a.length > 2:
                    continue
                v = eng.verdict(stem, a)
                assert v in (ACCEPTS, REJECTS, UNDECIDED)


def test_undecided_at_the_truncation_boundary():
    e = ell_space(4)
    # The chain stuck at {3} can still meet {3, x}-shaped members only
    # beyond the truncated stem, so small stems stay undecided.
    fam = FrontFamily(e, [e.make((1, 2))])
    stem, a = Stem(e, e.make((1,))), e.make((1,))
    engine = ForcingEngine(fam)
    assert engine.chain_status(stem.top, a) is ChainStatus.EXHAUSTED
    assert engine.verdict(stem, a) == UNDECIDED


def test_rejecting_verdict_past_the_ceiling_refuses(e12):
    # A rejection needs the whole neighborhood: 4,096 reducts here.
    engine = ForcingEngine(FrontFamily(e12, [], length_bound=0), max_reducts=64)
    with pytest.raises(CeilingExceededError) as exc:
        engine.verdict(e12.full_stem(), e12.empty())
    assert (exc.value.estimate, exc.value.ceiling) == (65, 64)


def test_accepting_reduct_before_the_ceiling_is_undecided(e12):
    # {0} accepts the empty approximation and is the second reduct swept,
    # so the verdict is settled long before the ceiling is reached.
    fam = FrontFamily(e12, [e12.make((x,)) for x in range(0, 12, 2)])
    v = ForcingEngine(fam, max_reducts=64).verdict(e12.full_stem(), e12.empty())
    assert v == UNDECIDED
    # {0} is what stops the sweep: a ceiling of two reducts reaches it,
    # a ceiling of one refuses at the second.
    v = ForcingEngine(fam, max_reducts=2).verdict(e12.full_stem(), e12.empty())
    assert v == UNDECIDED
    with pytest.raises(CeilingExceededError) as exc:
        ForcingEngine(fam, max_reducts=1).verdict(e12.full_stem(), e12.empty())
    assert (exc.value.estimate, exc.value.ceiling) == (2, 1)


def test_walk_to_the_family_bound_rejects_a_clean_base(e8):
    # Every chain through {3} passes length 2 clean, so it avoids {1,2}.
    fam = FrontFamily(e8, [e8.make((1, 2))])
    assert ForcingEngine(fam).verdict(e8.full_stem(), e8.make((3,))) == REJECTS


def test_rejection_witness_exists_when_rejecting(even_pairs_family):
    e, fam = even_pairs_family
    A = e.full_stem()
    eng = ForcingEngine(fam)
    a = e.make((1,))
    assert eng.verdict(A, a) == REJECTS
    w = rejection_witness(eng, A, a)
    assert w is not None
    for b in w.space.extensions_below(a, w.top):
        assert eng.chain_status(A.top, b).name != "ALL_HIT"


# ----- fusion -----


def test_fusion_identity_step(e12):
    A = e12.full_stem()
    assert fusion(A, lambda n, cur: cur, 5).top == A.top


def test_fusion_parity_steps(e12):
    A = e12.full_stem()

    def step(n, cur):
        pay = cur.top.payload
        if len(pay) < n:
            return cur
        head, tail = pay[:n], pay[n:]
        kept = head + tuple(x for x in tail if x % 2 != n % 2)
        return Stem(e12, e12.make(kept))

    levels = []
    cur = A
    for n in range(1, 5):
        cur = step(n, cur)
        levels.append(cur)
    diagonal = fusion(A, step, 4)
    for n, stem in enumerate(levels, start=1):
        if diagonal.length >= n and stem.length >= n:
            assert diagonal.approx(n) == stem.approx(n)


def test_fusion_exhaustion_reports_level(e12):
    A = e12.full_stem()
    with pytest.raises(FusionExhaustedError) as exc:
        fusion(A, lambda n, cur: None if n == 2 else cur, 5)
    assert exc.value.level == 2


def test_fusion_rejects_non_reducts(e12):
    A = Stem(e12, e12.make((0, 1, 2)))

    def bad(n, cur):
        return Stem(e12, e12.make((0, 1, 2, 3)))

    with pytest.raises(FusionExhaustedError):
        fusion(A, bad, 2)


def test_fusion_rejects_prefix_breakers(e12):
    A = e12.full_stem()

    def bad(n, cur):
        pay = cur.top.payload
        return Stem(e12, e12.make(pay[1:]))  # drops the preserved head

    with pytest.raises(FusionExhaustedError):
        fusion(A, bad, 3)


# ----- the dichotomy -----


def test_galvin_empty_family_gives_alt1_ambient(e12):
    A = e12.full_stem()
    res = galvin_search(A, FrontFamily(e12, [], length_bound=0))
    assert res.outcome == ALT1
    assert res.stem.top == A.top
    assert verify_dichotomy(res.certificate)


def test_galvin_all_singletons_gives_alt2_ambient(e12):
    A = e12.full_stem()
    fam = FrontFamily(e12, [e12.make((x,)) for x in range(12)])
    res = galvin_search(A, fam)
    assert res.outcome == ALT2
    assert res.stem.top == A.top
    assert verify_dichotomy(res.certificate)


def test_galvin_even_singletons_small_ground():
    e = ell_space(8)
    fam = FrontFamily(e, [e.make((x,)) for x in range(0, 8, 2)])
    res = galvin_search(e.full_stem(), fam)
    assert res.outcome == ALT1
    assert res.stem.top.payload == (1, 3, 5, 7)
    assert verify_dichotomy(res.certificate)


def test_galvin_even_singletons_large_ground_greedy_path():
    e = ell_space(20)
    fam = FrontFamily(e, [e.make((x,)) for x in range(0, 20, 2)])
    res = galvin_search(e.full_stem(), fam)
    assert res.outcome == ALT1
    assert res.stem.top.payload == tuple(range(1, 20, 2))
    assert verify_dichotomy(res.certificate)


def test_galvin_search_keeps_nothing_after_returning():
    e = ell_space(10)
    fam = FrontFamily(e, [e.make((x,)) for x in range(0, 10, 2)])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = galvin_search(e.full_stem(), fam)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.outcome == ALT1
    assert kept < 1 << 20


def test_galvin_certificates_are_deterministic(e12):
    fam = FrontFamily(e12, [e12.make((x,)) for x in range(0, 12, 3)])
    A = e12.full_stem()
    first = galvin_search(A, fam).certificate
    second = galvin_search(A, fam).certificate
    assert first == second


def test_galvin_alternatives_never_both_verify(even_pairs_family):
    e, fam = even_pairs_family
    res = galvin_search(e.full_stem(), fam)
    assert res.outcome in (ALT1, ALT2)
    assert verify_dichotomy(res.certificate)
    flipped = res.certificate.replace(
        "outcome=ALT1", "outcome=ALT2"
    ) if res.outcome == ALT1 else res.certificate.replace(
        "outcome=ALT2", "outcome=ALT1"
    )
    assert not verify_dichotomy(flipped)


def test_galvin_matrix_space():
    m = matrix_space(2, 3)
    fam = FrontFamily(m, [m.make([(1,)])])
    res = galvin_search(m.full_stem(), fam)
    assert res.outcome == ALT1
    assert verify_dichotomy(res.certificate)
    assert not m.fin_leq(fam.members[0], res.stem.top)


def test_galvin_partition_space():
    p = partition_space(4)
    fam = FrontFamily(p, [p.make([(0,), (1,)])])
    res = galvin_search(p.full_stem(), fam)
    assert res.outcome == ALT1
    assert verify_dichotomy(res.certificate)


def test_galvin_short_seed_family():
    # The only rejecting seed is a one-element stem shorter than the
    # family bound; the level loop must clamp its preserved prefix.
    e = ell_space(4)
    fam = FrontFamily(
        e, [e.make((0,)), e.make((1,)), e.make((2,))], length_bound=3
    )
    res = galvin_search(e.full_stem(), fam)
    assert res.outcome == ALT1
    assert res.stem.top.payload == (3,)
    assert verify_dichotomy(res.certificate)


def test_galvin_boundary_lurking_family_falls_back_to_direct_scan():
    # Every candidate preserving a 0-prefix has members lurking just
    # beyond its frontier, so the rejecting sequence strands; the
    # down-set claim for {0,1,2} is still directly certifiable.
    e = ell_space(4)
    members = [e.make(x) for x in [(3,), (0, 3), (0, 2, 3), (0, 1, 3)]]
    res = galvin_search(e.full_stem(), FrontFamily(e, members, length_bound=3))
    assert res.outcome == ALT1
    assert res.stem.top.payload == (0, 1, 2)
    assert res.stats.get("direct_scan") == 1
    assert verify_dichotomy(res.certificate)


SMALL_SPACES = [ell_space(4), matrix_space(2, 2), matrix_space(3, 2), partition_space(3)]


@pytest.mark.parametrize("space", SMALL_SPACES, ids=lambda sp: sp.params_str())
def test_nothing_but_the_empty_value_lies_below_it(space):
    # A4(ii) at the empty approximation, which the search's totality
    # rests on: its direct alternative-1 scan ends at the empty reduct.
    empty = space.empty()
    for a in space.fin_below(space.full_stem().top):
        assert space.fin_leq(a, empty) == (a == empty), a


@pytest.mark.parametrize("space", SMALL_SPACES, ids=lambda sp: sp.params_str())
def test_galvin_search_always_decides(space):
    # Below every stem, every family of one or two values, the empty
    # value included, gets one of the two alternatives with a
    # certificate that verifies.  Some searches reach the direct scan.
    values = space.fin_below(space.full_stem().top)
    families = [
        FrontFamily(space, fam)
        for r in (1, 2)
        for fam in itertools.combinations(values, r)
    ]
    outcomes = {ALT1: 0, ALT2: 0}
    scanned = 0
    for t in space.stems():
        for family in families:
            res = galvin_search(Stem(space, t), family)
            outcomes[res.outcome] += 1
            scanned += res.stats.get("direct_scan", 0)
            assert verify_dichotomy(res.certificate), (t, family.members)
    assert outcomes[ALT1] and outcomes[ALT2] and scanned, outcomes


def test_galvin_refuses_when_greedy_disabled():
    # Matrix and partition have no greedy exclusion: the search refuses
    # before it sweeps, with the exact count of the ambient stem's
    # reducts, |fin_below(A.top)|, as its estimate.
    p = partition_space(5)
    fam = FrontFamily(p, [p.make([(0,), (1,)])])
    with pytest.raises(CeilingExceededError) as exc:
        galvin_search(p.full_stem(), fam, max_reducts=3)
    assert (exc.value.estimate, exc.value.ceiling) == (76, 3)
    assert len(p.fin_below(p.full_stem().top)) == 76
    m = matrix_space(2, 3)
    fam = FrontFamily(m, [m.make([(1, 0)])])
    with pytest.raises(CeilingExceededError) as exc:
        galvin_search(m.full_stem(), fam, max_reducts=2)
    assert (exc.value.estimate, exc.value.ceiling) == (21, 2)
    assert len(m.fin_below(m.full_stem().top)) == 21


def test_galvin_ellentuck_excludes_greedily_over_the_ceiling():
    e = ell_space(20)
    fam = FrontFamily(e, [e.make((0,))])
    res = galvin_search(e.full_stem(), fam, max_reducts=64)
    assert res.outcome == ALT1
    assert res.stem.top.payload == tuple(range(1, 20))
    assert verify_dichotomy(res.certificate)


@pytest.mark.parametrize("max_reducts", [0, -1])
def test_max_reducts_below_one_is_an_input_error(max_reducts):
    # Checked once, by the engine every search and verdict builds, so
    # neither the ellentuck greedy fallback nor the matrix refusal with
    # an estimate is reached.
    for space in (ell_space(20), matrix_space(2, 3)):
        fam = FrontFamily(space, [space.full_stem().approx(1)])
        with pytest.raises(ValueError, match="max_reducts >= 1"):
            galvin_search(space.full_stem(), fam, max_reducts)
        with pytest.raises(ValueError, match="max_reducts >= 1"):
            ForcingEngine(fam, max_reducts)


def test_verify_dichotomy_rejects_malformed():
    assert not verify_dichotomy("")
    assert not verify_dichotomy("galvin-certificate v1\nnonsense")


def test_verify_dichotomy_rejects_tampered_stem(e12):
    fam = FrontFamily(e12, [e12.make((x,)) for x in range(0, 12, 2)])
    res = galvin_search(e12.full_stem(), fam)
    assert res.outcome == ALT1
    tampered = res.certificate.replace(
        "stem=" + res.stem.serialize(), "stem={0,1,3,5,7,9,11}"
    )
    assert not verify_dichotomy(tampered)


def test_verify_dichotomy_rejects_non_reduct_stem(e12):
    fam = FrontFamily(e12, [], length_bound=0)
    res = galvin_search(Stem(e12, e12.make((0, 1, 2))), fam)
    tampered = res.certificate.replace("stem={0,1,2}", "stem={0,1,2,3}")
    assert not verify_dichotomy(tampered)


def test_alt2_certificate_lists_chain_hits(e12):
    fam = FrontFamily(e12, [e12.make((x,)) for x in range(12)])
    res = galvin_search(e12.full_stem(), fam)
    lines = res.certificate.splitlines()
    chain_lines = [ln for ln in lines if ln.startswith("chain=")]
    assert len(chain_lines) == 12
    assert all(";hit=1" in ln for ln in chain_lines)
