import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_oracle import closure_below
from ramspace import (
    Approximation,
    Stem,
    ell_space,
    matrix_space,
    partition_space,
)
from ramspace.audit import AuditBounds, audit_axioms
from ramspace.core import Universe, iter_bits
from ramspace.spaces import EllentuckSpace, MatrixSpace, PartitionSpace
from ramspace.errors import (
    EmptyNeighborhoodError,
    MixedSpaceError,
    NotInSpaceError,
    OutOfRangeError,
)


@pytest.fixture(scope="module")
def spaces():
    return [ell_space(6), matrix_space(2, 3), partition_space(4)]


def test_zeroth_approximation_is_empty(spaces):
    for sp in spaces:
        for top in sp.stems():
            assert Stem(sp, top).approx(0) == sp.empty()


def test_length_examples(e8):
    assert e8.empty().length == 0
    assert e8.make((0, 5, 7)).length == 3


def test_partition_length_is_block_count():
    p = partition_space(6)
    assert p.make([(0, 3), (1, 4), (2, 5)]).length == 3


def test_approx_restriction_of_evens():
    e = ell_space(10)
    evens = Stem(e, e.make((0, 2, 4, 6, 8)))
    assert evens.approx(3).payload == (0, 2, 4)
    assert evens.approx(0) == e.empty()


def test_approx_out_of_range(e8):
    stem = Stem(e8, e8.make((1, 3)))
    with pytest.raises(OutOfRangeError):
        stem.approx(3)


def test_chain_lengths(spaces):
    for sp in spaces:
        for top in sp.stems():
            chain = sp.chain(top)
            assert [a.length for a in chain] == list(range(top.length + 1))


def test_fin_leq_examples(e8):
    assert e8.fin_leq(e8.make((2, 6)), e8.make((0, 2, 4, 6)))
    a = e8.make((1, 5))
    assert e8.fin_leq(a, a)


def test_fin_leq_mixed_space_rejected(e8, m24):
    with pytest.raises(MixedSpaceError):
        e8.fin_leq(e8.make((1,)), m24.empty())


def test_fin_below_contains_self_and_empty(spaces):
    for sp in spaces:
        for top in sp.stems():
            below = sp.fin_below(top)
            assert top in below
            assert sp.empty() in below


def test_fin_below_ellentuck_is_all_subsets(e8):
    a = e8.make((1, 2))
    got = {b.payload for b in e8.fin_below(a)}
    assert got == {(), (1,), (2,), (1, 2)}
    assert [b.payload for b in e8.fin_below(e8.empty())] == [()]


def test_fin_below_matches_direct_filter(spaces):
    # Dual route: the per-space enumeration against a filter of the universe.
    for sp in spaces:
        universe = sp.stems()
        for a in universe[:40]:
            direct = {b for b in universe if sp.fin_leq(b, a)}
            assert set(sp.fin_below(a)) == direct


def test_depth_examples():
    e = ell_space(10)
    evens = Stem(e, e.make((0, 2, 4, 6, 8)))
    assert evens.depth(e.make((2, 6))) == 4
    assert evens.depth(e.empty()) == 0
    for n in range(evens.length + 1):
        assert evens.depth(evens.approx(n)) == n


def test_depth_not_in_space(e8):
    stem = Stem(e8, e8.make((0, 2)))
    with pytest.raises(NotInSpaceError):
        stem.depth(e8.make((1,)))


def test_depth_minimality(spaces):
    for sp in spaces:
        for top in sp.stems()[:60]:
            stem = Stem(sp, top)
            for a in sp.fin_below(top):
                d = stem.depth(a)
                assert a.length <= d
                assert sp.fin_leq(a, stem.approx(d))
                if d > 0:
                    assert not sp.fin_leq(a, stem.approx(d - 1))


def test_extensions_examples():
    e = ell_space(6)
    full = e.full_stem()
    got = {b.payload for b in e.extensions_below(e.make((1,)), full.top)}
    assert got == {(1, 2), (1, 3), (1, 4), (1, 5)}

    e10 = ell_space(10)
    evens = Stem(e10, e10.make((0, 2, 4, 6, 8)))
    got = {b.payload for b in e10.extensions_below(e10.empty(), evens.top)}
    assert got == {(0,), (2,), (4,), (6,), (8,)}


def test_extensions_empty_neighborhood_error(e8):
    stem = Stem(e8, e8.make((0, 2)))
    with pytest.raises(EmptyNeighborhoodError):
        e8.extensions_below(e8.make((1,)), stem.top)


def test_extension_members_extend_base(spaces):
    for sp in spaces:
        for top in sp.stems()[:50]:
            for a in sp.fin_below(top):
                for b in sp.extensions_below(a, top):
                    assert b.length == a.length + 1
                    assert sp.restrict(b, a.length) == a
                    assert sp.fin_leq(b, top)


def test_neighborhood_nonempty_iff_fin_leq(spaces):
    for sp in spaces:
        tops = sp.stems()
        for top in tops[:30]:
            for a in tops[:30]:
                is_empty = next(sp.iter_neighborhood(a, top), None) is None
                assert is_empty == (not sp.fin_leq(a, top))
                if is_empty:
                    with pytest.raises(EmptyNeighborhoodError):
                        sp.extensions_below(a, top)


def test_neighborhood_stems_pass_through_base(e8):
    full = e8.full_stem()
    a = e8.make((0, 1))
    walk = list(e8.iter_neighborhood(a, full.top))
    members = [Stem(e8, t) for t, _ in walk]
    assert all(s.approx(2) == a for s in members)
    # each value comes with its number of extension steps from the base
    assert all(depth == t.length - a.length for t, depth in walk)
    # every subset of {2..7} can extend the base
    assert len(members) == 2**6


def test_closure_matches_fin_below(spaces):
    # The breadth-first extension closure reaches exactly `fin_below`.
    for sp in spaces:
        for top in sp.stems()[:40]:
            assert closure_below(sp, top) == sp.fin_below(top)


def test_closure_below_reads_the_length_groups(spaces):
    # Up to every length, past |top| too, the breadth-first extension
    # closure is the length groups of `fin_below`, shortest first; the
    # closure is all of them, which is `fin_below`.  The groups start at
    # k = -1, so every group outside 0..|top| must be empty.
    for sp in spaces:
        for top in sp.stems():
            for n in range(top.length + 3):
                want = [x for k in range(-1, n + 1) for x in sp.fin_below(top, k)]
                assert closure_below(sp, top, n) == want, (top, n)
            assert sp.closure_below(top) == want == sp.fin_below(top)
            for k in (-2, -1, top.length + 1, top.length + 2):
                assert sp.fin_below(top, k) == [], (top, k)


@given(st.sets(st.integers(min_value=0, max_value=7), max_size=8))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fin_leq_quasi_order_sampled(xs):
    e = ell_space(8)
    a = e.make(sorted(xs))
    assert e.fin_leq(a, a)
    for b in e.fin_below(a):
        for c in e.fin_below(b):
            assert e.fin_leq(c, a)


def _is_maximal(space, top):
    """No stem of the truncated universe properly extends the chain of
    `top`."""
    return not any(
        s.length > top.length and space.restrict(s, top.length) == top
        for s in space.stems()
    )


def test_is_maximal(e8):
    assert _is_maximal(e8, e8.make((0, 7)))
    assert not _is_maximal(e8, e8.make((0, 3)))
    m = matrix_space(2, 2)
    assert _is_maximal(m, m.make([(1, 0), (0, 1)]))
    assert not _is_maximal(m, m.make([(1,)]))


def test_reducts_are_exactly_fin_below(e8):
    stem = Stem(e8, e8.make((1, 4, 6)))
    reduct_tops = {t for t, _ in e8.iter_neighborhood(e8.empty(), stem.top)}
    assert reduct_tops == set(e8.fin_below(stem.top))


def test_universe_matches_the_primitives(spaces):
    # Differential test of the audit's index against the primitives it
    # is built from: order bits, fin_below lists, depth, each top's depth
    # list and neighborhoods.
    for sp in spaces:
        uni = Universe(sp)
        items = uni.items
        assert items == sorted(
            {b for t in sp.stems() for b in sp.fin_below(t)}, key=sp.sort_key
        )
        for i, a in enumerate(items):
            assert set(iter_bits(uni.down[i])) == {
                j for j, b in enumerate(items) if sp.fin_leq(b, a)
            }
            assert set(iter_bits(uni.up[i])) == {
                j for j, b in enumerate(items) if sp.fin_leq(a, b)
            }
        for t in uni.tops[:: max(1, len(uni.tops) // 12)]:
            stem = Stem(sp, items[t])
            assert [items[c] for c in uni.chains[t]] == sp.chain(items[t])
            assert [items[a] for a in uni.below(t)] == sp.fin_below(items[t])
            assert uni.depths(t) == [stem.depth(items[a]) for a in uni.below(t)]
            for a in uni.below(t):
                assert uni.depth(a, t) == stem.depth(items[a])
                order = [v for v, _ in sp.iter_neighborhood(items[a], items[t])]
                assert [items[i] for i in uni.walk(a, t)] == order
                mask, walked = uni.neighborhood(a, t)
                assert {items[i] for i in iter_bits(mask)} == set(order)
                assert walked == len(order)


def test_universe_indexes_values_outside_it():
    # A value no stem reaches gets the next id, with its order bits
    # asked of fin_leq against every indexed value.
    sp = ell_space(4)
    uni = Universe(sp)
    stray = Approximation(sp.tag, (0, 5), 2)
    i = uni.id(stray)
    assert i == uni.size and uni.items[i] == stray and uni.id(stray) == i
    assert set(iter_bits(uni.down[i])) == {
        j for j, b in enumerate(uni.items) if sp.fin_leq(b, stray)
    }
    assert set(iter_bits(uni.up[i])) == {
        j for j, b in enumerate(uni.items) if sp.fin_leq(stray, b)
    }
    zero = uni.id(sp.make((0,)))
    assert uni.down[i] >> zero & 1 and not uni.up[i] >> zero & 1
    assert uni.up[zero] >> i & 1



@pytest.mark.parametrize(
    "cls, args",
    [(EllentuckSpace, (5,)), (MatrixSpace, (2, 3)), (PartitionSpace, (4,))],
)
def test_an_audit_asks_fin_below_once_per_stem_top(cls, args):
    # The universe keeps the down-sets it is built from, each read as
    # its length groups through `closure_below`, and A4(ii) reads them
    # back instead of asking again.
    calls = []
    groups = []

    class Counting(cls):
        def fin_below(self, a, length=None):
            groups.append((a, length))
            return super().fin_below(a, length)

        def closure_below(self, a):
            calls.append(a)
            return super().closure_below(a)

    sp = Counting(*args)
    report = audit_axioms(sp, AuditBounds(max_len=2, max_depth=3, include_a6=True))
    assert report.passed
    assert sorted(calls, key=sp.sort_key) == sp.stems()
    # Every group of every stem top, and nothing else, is asked once.
    want = {(t, k) for t in sp.stems() for k in range(t.length + 1)}
    assert len(groups) == len(want) and set(groups) == want


@pytest.mark.parametrize(
    "space, text, shown",
    [
        (ell_space(6), "{0,2,5}", "<ellentuck:(0, 2, 5)>"),
        (
            matrix_space(3, 3), "q=3;120;001",
            "<matrix:((1, 2, 0), (0, 0, 1))>",
        ),
        (partition_space(4), "({0,2},{1},{3})", "<partition:(0, 1, 0, 2)>"),
    ],
    ids=["ellentuck", "matrix", "partition"],
)
def test_an_approximation_is_its_field_tuple(space, text, shown):
    # The hash is the one a frozen dataclass of the three fields had,
    # so set and dict order do not change.  The repr shows the payload:
    # a partition's is its label tuple, entry e the block holding e, and
    # a matrix's is its tuple of RREF rows.
    a = space.parse(text)
    fields = (a.space_tag, a.payload, a.length)
    assert hash(a) == hash(fields)
    assert a == fields and a == Approximation(*fields)
    assert repr(a) == shown
    for name in ("space_tag", "payload", "length"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert (a.space_tag, a.payload, a.length) == fields
