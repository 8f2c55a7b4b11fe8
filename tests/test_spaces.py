import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_oracle import blocks
from ramspace import (
    Approximation,
    Stem,
    ell_space,
    matrix_space,
    partition_space,
)
from matrix_oracle import rref_of_rows, span_vectors
from ramspace.gflinalg import enumerate_rre, spans
from ramspace.spaces.matrix import _pivoting_before
from ramspace.spaces import parse_params_str, space_from_params
from ramspace.errors import (
    EmptyNeighborhoodError,
    InvalidApproximationError,
    MixedSpaceError,
    OutOfRangeError,
    ParseError,
)


# ----- the pinned-subset space -----


def test_ell_space_restriction_rule():
    e = ell_space(8)
    stem = Stem(e, e.make((1, 3, 5, 7)))
    assert stem.approx(2).payload == (1, 3)


def test_ell_space_order_is_inclusion():
    e = ell_space(8)
    assert e.fin_leq(e.make((1, 3)), e.make((0, 1, 2, 3)))


def test_ell_space_rejects_bad_payloads():
    e = ell_space(4)
    with pytest.raises(InvalidApproximationError):
        e.make((2, 1))
    with pytest.raises(InvalidApproximationError):
        e.make((0, 9))
    with pytest.raises(ValueError):
        ell_space(0)


def test_ell_depth_level_sets():
    # Length-2 approximations at depth 4 of the full stem on {0..3}:
    # exactly the pairs whose maximum is 3.
    e = ell_space(4)
    full = e.full_stem()
    level = [
        a
        for a in e.fin_below(full.top)
        if a.length == 2 and full.depth(a) == 4
    ]
    assert {a.payload for a in level} == {(0, 3), (1, 3), (2, 3)}


# ----- the matrix space -----
# A matrix payload is its tuple of RREF rows, and the pivot column p_n of
# row n of a stem is `stem.top.payload[n].index(1)`.


def _pivots(a):
    return tuple(r.index(1) for r in a.payload)


def _cut_basis(rows, cols):
    """The row space of the RREF `rows` cut to its first `cols` columns,
    as the package's primitives take it: the rows that pivot before
    `cols`, cut there."""
    return tuple(r[:cols] for r, _ in _pivoting_before(rows, cols))


def test_mat_pn_identity(m24):
    ident = m24.full_stem()
    assert _pivots(ident.top)[3] == 3


def test_mat_pn_spread_pivots():
    m = matrix_space(2, 5)
    rows = [
        (1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1),
    ]
    stem = Stem(m, m.make(rows))
    assert _pivots(stem.top)[1] == 2
    pivots = list(_pivots(stem.top))
    assert pivots == sorted(pivots) and len(set(pivots)) == 3


def test_mat_pn_out_of_range(m24):
    # A stem materializes one pivot per row and no approximation past
    # its last row.
    stem = Stem(m24, m24.make([(1, 0), (0, 1)]))
    assert len(_pivots(stem.top)) == 2
    with pytest.raises(OutOfRangeError):
        stem.approx(3)


def test_matrix_stem_approx_identity(m24):
    ident = m24.full_stem()
    r2 = ident.approx(2)
    assert r2.payload == ((1, 0), (0, 1))
    assert ident.approx(0) == m24.empty()


def test_matrix_stem_approx_cuts_before_next_pivot():
    # Rows (1,1,0) and (0,0,1): the second pivot sits at column 2, so the
    # length-1 approximation keeps row 0 on two columns.
    m = matrix_space(2, 3)
    stem = Stem(m, m.make([(1, 1, 0), (0, 0, 1)]))
    r1 = stem.approx(1)
    assert r1.payload == ((1, 1),)
    assert r1.length == 1


def test_matrix_stem_approx_lengths(m24):
    for top in m24.stems():
        stem = Stem(m24, top)
        for n in range(top.length + 1):
            a = stem.approx(n)
            assert a.length == n
            if n > 0:
                assert _pivots(a) == _pivots(top)[:n]


def test_matrix_fin_leq_example(m24):
    a = m24.make([(1, 1)])
    i2 = m24.make([(1, 0), (0, 1)])
    assert m24.fin_leq(a, i2)
    assert not m24.fin_leq(i2, a)


def test_matrix_fin_below_of_identity(m24):
    i2 = m24.make([(1, 0), (0, 1)])
    got = {m24.serialize(b) for b in m24.fin_below(i2)}
    assert got == {"q=2", "q=2;1", "q=2;10", "q=2;01", "q=2;11", "q=2;10;01"}


def test_matrix_space_rejects_bad_payloads():
    m = matrix_space(2, 3)
    with pytest.raises(InvalidApproximationError):
        m.make([(1, 0, 0, 0)])  # too many columns
    with pytest.raises(ValueError):
        m.make([(0, 0)])  # zero row
    with pytest.raises(ValueError):
        matrix_space(4, 3)  # composite field order
    with pytest.raises(ValueError):
        matrix_space(11, 3)  # beyond digit serialization


def _subspace(basis) -> Approximation:
    """The subspace an RREF basis names, as an approximation with the
    basis's column count (built directly, so it may be wider than a
    space)."""
    return Approximation("matrix", basis, len(basis))


def test_subspace_initial_segment_three_values():
    # A subspace is an approximation of a reduct of a stem iff its basis
    # sits below the stem's top: `fin_leq`.
    m = matrix_space(2, 3)
    b = Stem(m, m.make([(1, 1, 0), (0, 0, 1)]))
    # the length-1 approximation itself names an initial-segment subspace
    assert m.fin_leq(_subspace(((1, 1),)), b.top)
    # the zero-dimensional subspace always is one
    assert m.fin_leq(_subspace(()), b.top)
    # a line outside the stem's row space never is
    assert not m.fin_leq(_subspace(((1, 0),)), b.top)
    # nor is one wider than the stem's columns
    assert not m.fin_leq(_subspace(((1, 0, 0, 0),)), b.top)


def test_subspace_initial_segment_matches_reduct_search():
    # Dual route: compare `fin_leq` against exhaustive enumeration of
    # reduct approximations at a small truncation, candidates wider than
    # the stem included.
    m = matrix_space(2, 3)
    for top in m.stems():
        approxes = set()
        for reduct, _ in m.iter_neighborhood(m.empty(), top):
            approxes.update(m.chain(reduct))
        for cols in range(5):
            for cand in _all_echelon(2, cols):
                expected = any(a.payload == cand for a in approxes)
                assert m.fin_leq(_subspace(cand), top) == expected


def _all_echelon(q, cols):
    out = [()] if cols == 0 else []
    for k in range(1, cols + 1):
        out.extend(enumerate_rre(k, cols, q))
    return out


# ----- the partition space -----


def test_partition_stem_approx_singleton_stem():
    p = partition_space(6)
    stem = p.full_stem()
    assert blocks(stem.approx(2)) == ((0,), (1,))
    assert stem.approx(0) == p.empty()


def test_partition_stem_approx_cuts_at_next_block_minimum():
    p = partition_space(8)
    stem = Stem(p, p.make([(0, 3), (1, 4), (2, 5), (6,), (7,)]))
    r3 = stem.approx(3)
    assert blocks(r3) == ((0, 3), (1, 4), (2, 5))
    assert r3.length == 3


def test_partition_stem_approx_block_count_and_domain():
    p = partition_space(6)
    for top in p.stems():
        stem = Stem(p, top)
        for n in range(top.length + 1):
            a = stem.approx(n)
            assert a.length == n
            if n < top.length:
                assert sum(len(b) for b in blocks(a)) == blocks(top)[n][0]


# Coarsening is the finitization order `fin_leq`; on partitions of one
# domain it says that every block of the second lies in a block of the
# first.


def test_part_coarser_examples():
    p = partition_space(4)
    x = p.make([(0, 1), (2,)])
    y = p.make([(0,), (1,), (2,)])
    assert p.fin_leq(x, y)
    assert p.fin_leq(x, x)
    assert not p.fin_leq(p.make([(0, 2), (1,)]), p.make([(0, 1), (2,)]))


def test_part_coarser_on_stems_allows_domain_gap():
    p = partition_space(4)
    small = Stem(p, p.make([(0, 1)]))
    big = Stem(p, p.make([(0,), (1,), (2,)]))
    assert p.fin_leq(small.top, big.top)
    assert not p.fin_leq(big.top, small.top)


def test_part_coarser_partial_order_fixed_domain():
    p = partition_space(5)
    parts = [a for a in p.stems() if sum(len(b) for b in blocks(a)) == 4]
    for x in parts:
        for y in parts:
            if p.fin_leq(x, y) and p.fin_leq(y, x):
                assert x == y


def test_enumerate_partitions_counts(partitions_by_shape):
    # The counts by shape are the Stirling numbers of the second kind:
    # S(0, 0) = 1, S(n, 0) = 0 for n > 0, and the standard recurrence.
    count = {shape: len(parts) for shape, parts in partitions_by_shape.items()}
    assert count[4, 2] == 7
    assert count[5, 1] == 1
    assert [blocks(a) for a in partitions_by_shape[3, 3]] == [((0,), (1,), (2,))]
    assert count[0, 0] == 1
    for n in range(1, 9):
        assert count[n, 0] == 0
        for k in range(1, n + 1):
            assert count[n, k] == k * count.get((n - 1, k), 0) + count[n - 1, k - 1]


def _coarsenings(space, t, k):
    """The k-block partitions coarser than `t` on its whole domain: the
    length-k, full-domain slice of `fin_below(t)`."""
    domain = sum(len(b) for b in blocks(t))
    return [
        c
        for c in space.fin_below(t)
        if c.length == k and sum(len(b) for b in blocks(c)) == domain
    ]


def test_coarsenings_of_discrete_three():
    p = partition_space(3)
    t = p.make([(0,), (1,), (2,)])
    got = {blocks(c) for c in _coarsenings(p, t, 2)}
    assert got == {((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2))}
    assert _coarsenings(p, t, 3) == [t]


def test_partition_extensions_of_singleton_block():
    # Below the four-point singleton stem, the one-block partition of
    # {0} extends to exactly the two-block partitions whose second
    # block starts at 1.
    p = partition_space(4)
    sing = p.full_stem()
    one = p.make([(0,)])
    got = {p.serialize(b) for b in p.extensions_below(one, sing.top)}
    assert got == {
        "({0},{1})",
        "({0,2},{1})",
        "({0},{1,2})",
        "({0,2,3},{1})",
        "({0,2},{1,3})",
        "({0,3},{1,2})",
        "({0},{1,2,3})",
    }


def test_partition_extensions_respect_block_granularity():
    # Extensions below a coarse stem only move whole stem blocks.
    p = partition_space(4)
    coarse = p.make([(0, 1), (2, 3)])
    one = p.make([(0, 1)])
    got = {blocks(b) for b in p.extensions_below(one, coarse)}
    assert got == {((0, 1), (2,)), ((0, 1), (2, 3))}


def test_coarsenings_count_matches_stirling():
    p = partition_space(4)
    t = p.make([(0,), (1,), (2,), (3,)])
    assert len(_coarsenings(p, t, 2)) == 7


def test_partition_rejects_bad_payloads():
    p = partition_space(4)
    with pytest.raises(InvalidApproximationError):
        p.make([(0,), (2,)])  # not an initial segment
    with pytest.raises(InvalidApproximationError):
        p.make([(1,), (0, 2)])  # not ordered by minima
    with pytest.raises(InvalidApproximationError):
        p.make([(0, 1, 2, 3, 4)])  # beyond the truncation


def _bell(n):
    """The Bell number B(n), from a Bell triangle of its own."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_partition_full_count_is_a_sum_of_bell_numbers():
    # One pass over the Bell triangle gives every size's count; the
    # reference builds a triangle per size.
    assert [_bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    for d in range(1, 31):
        space = partition_space(d)
        assert space.count_below(space.full_stem().top) == 1 + sum(
            _bell(t) for t in range(1, d + 1)
        )
    space = partition_space(5)
    assert space.count_below(space.full_stem().top) == len(space.stems())


# Every space the benchmark audits or searches, plus matrix (2,5), (3,4),
# (5,2), (7,2) and partition 7.
COUNTED_SPACES = (
    [ell_space(g) for g in range(1, 10)]
    + [matrix_space(2, c) for c in range(1, 6)]
    + [matrix_space(3, c) for c in range(1, 5)]
    + [matrix_space(q, 2) for q in (5, 7)]
    + [partition_space(d) for d in range(1, 8)]
)


@pytest.mark.parametrize("space", COUNTED_SPACES, ids=lambda s: s.params_str())
def test_count_below_is_the_size_of_fin_below(space):
    # The galvin search refuses on this count before it builds the
    # reducts, so it must be exact on every stem, the full one too.
    # It then reads them one length group at a time: each group is the
    # whole down-set's members of that length, in the same order, and
    # a length outside 0..|t| has none.
    for t in space.stems():
        below = space.fin_below(t)
        assert space.count_below(t) == len(below), space.serialize(t)
        groups = [space.fin_below(t, k) for k in range(-1, t.length + 2)]
        for k, group in zip(range(-1, t.length + 2), groups):
            assert group == [b for b in below if b.length == k], (space.serialize(t), k)
        assert sum(map(len, groups)) == space.count_below(t)
    assert space.count_below(space.full_stem().top) == len(space.stems())


@pytest.mark.parametrize(
    "space, payload",
    [
        (ell_space(3), [0.7]),
        (ell_space(3), [1.0]),
        (ell_space(3), [True]),
        (ell_space(3), ["1"]),
        (ell_space(3), 5),
        (partition_space(3), [[0], [1.5]]),
        (partition_space(3), [[0], [1.0]]),
        (partition_space(3), [[0, True]]),
        (partition_space(3), [[0], ["1"]]),
        (partition_space(3), "01"),
        (partition_space(3), (0, 1)),
        (partition_space(3), 5),
        (matrix_space(2, 3), [[1.0, 0, 1]]),
        (matrix_space(2, 3), [[True, 0, 1]]),
    ],
)
def test_make_coerces_nothing(space, payload):
    # Only ints are elements: a float, bool or string is refused, not
    # rounded or converted, and so is a payload of the wrong shape.
    with pytest.raises(InvalidApproximationError):
        space.make(payload)


def test_extensions_characterization_all_spaces():
    # extensions_below(a, top) is exactly the next-length slice of the
    # down-set of `top` whose restriction is `a`.
    spaces = [ell_space(5), matrix_space(2, 3), matrix_space(3, 2), partition_space(4)]
    for sp in spaces:
        for top in sp.stems():
            below = sp.fin_below(top)
            for a in below:
                got = set(sp.extensions_below(a, top))
                want = {
                    b
                    for b in below
                    if b.length == a.length + 1 and sp.restrict(b, a.length) == a
                }
                assert got == want, (
                    sp.params_str(),
                    sp.serialize(a),
                    sp.serialize(top),
                )


def _canonical(a):
    """The canonical order, written here rather than read from the
    package: shorter first, then by payload, compared as tuples."""
    return (a.length, a.payload)


@pytest.mark.parametrize(
    "space",
    [
        ell_space(12),
        matrix_space(2, 3),
        matrix_space(3, 2),
        matrix_space(2, 4),
        matrix_space(3, 3),
        partition_space(5),
        partition_space(6),
    ],
    ids=repr,
)
def test_extensions_come_in_sort_key_order(space):
    # The canonical order compares payloads as tuples: at ground 12,
    # {0,2} comes before {0,10}, numerically and not as text.  The
    # stems, every length group of `fin_below` and the child list of
    # every pair (a below top) must come in it, each against a sort by
    # the literal (length, payload) key.
    stems = space.stems()
    assert stems == sorted(stems, key=_canonical)
    for top in stems:
        below = space.fin_below(top)
        assert below == sorted(below, key=_canonical), space.serialize(top)
        for k in range(top.length + 1):
            group = space.fin_below(top, k)
            assert group == [b for b in below if b.length == k], (space.serialize(top), k)
        for a in below:
            exts = list(space.extensions_below(a, top))
            assert exts == sorted(exts, key=space.sort_key), space.serialize(a)
            assert exts == sorted(exts, key=_canonical), space.serialize(a)


@pytest.mark.parametrize(
    "space, base, first, outside",
    [
        # Below the discrete top of domain 40, ({0}) has 2^38 children.
        (partition_space(40), "({0})",
         ["({0},{1})", "({0,2},{1})", "({0,2,3},{1})", "({0,2,3,4},{1})"],
         ("({0},{1})", "({0,1})")),
        # Below the identity top, the children of the empty matrix come
        # one top row at a time, latest pivot first, each row's in
        # preorder: a row comes before its one-column-wider extensions.
        (matrix_space(2, 4), "q=2",
         ["q=2;0001", "q=2;001", "q=2;0010", "q=2;0011",
          "q=2;01", "q=2;010", "q=2;0100", "q=2;0101"],
         ("q=2;1", "q=2;01")),
        # At 200 columns the empty matrix has about 2^200 children; the
        # first are those of the 4-column top with 196 leading zeros.
        (matrix_space(2, 200), "q=2",
         [f"q=2;{'0' * 196}{row}" for row in
          ["0001", "001", "0010", "0011", "01", "010", "0100", "0101"]],
         ("q=2;1", "q=2;01")),
    ],
    ids=["partition-40", "matrix-2-4", "matrix-2-200"],
)
def test_children_are_read_lazily(space, base, first, outside):
    # The first children come in canonical order without the rest being
    # built, and a base outside the top raises at the call, not at the
    # first read.
    top = space.full_stem().top
    kids = space.extensions_below(space.parse(base), top)
    got = [space.serialize(c) for c in itertools.islice(kids, len(first))]
    assert got == first
    a, b = map(space.parse, outside)
    with pytest.raises(EmptyNeighborhoodError):
        space.extensions_below(a, b)


@pytest.mark.parametrize("ground", [6, 11, 13])
def test_ellentuck_children_match_a_sort_by_sort_key(ground):
    # Differential test of the numeric child order against a full
    # `sort_key` sort and a literal (length, payload) sort, on random
    # (a, top) pairs with a inside top.
    rng = random.Random(ground)
    space = ell_space(ground)
    for _ in range(200):
        top = space.make(sorted(rng.sample(range(ground), rng.randint(0, ground))))
        a = space.make(sorted(rng.sample(top.payload, rng.randint(0, top.length))))
        children = list(space.extensions_below(a, top))
        last = a.payload[-1] if a.payload else -1
        want = [space.make(a.payload + (x,)) for x in top.payload if x > last]
        assert children == sorted(want, key=space.sort_key)
        assert children == sorted(want, key=_canonical)


@pytest.mark.parametrize(
    "space", [ell_space(7), matrix_space(2, 3), partition_space(5)], ids=repr
)
def test_canonical_order_reads_no_text(space, monkeypatch):
    # Building length groups and child lists, sorting them, and one
    # verdict that sweeps a whole neighborhood serialize nothing.
    from ramspace.forcing import REJECTS, ForcingEngine, FrontFamily

    calls = []
    serialize = type(space).serialize

    def counting(self, a):
        calls.append(a)
        return serialize(self, a)

    monkeypatch.setattr(type(space), "serialize", counting)
    top = space.full_stem().top
    below = space.fin_below(top)
    groups = [space.fin_below(top, k) for k in range(top.length + 1)]
    children = [list(space.extensions_below(a, top)) for a in below]
    engine = ForcingEngine(FrontFamily(space, [], length_bound=2))
    verdict = engine.verdict(space.full_stem(), space.empty())
    assert verdict == REJECTS and engine.nodes > 1
    assert sum(map(len, groups)) == len(below) > 1 and any(children)
    assert calls == []
    # The counter counts.
    space.serialize(top)
    assert calls == [top]


def _reference_fin_leq(space, a, b):
    space.check_tag(a)
    space.check_tag(b)
    return set(a.payload) <= set(b.payload)


def test_ellentuck_fin_leq_matches_the_set_inclusion_reference():
    space = ell_space(6)
    universe = space.stems()
    assert len(universe) == 64
    for a in universe:
        for b in universe:
            assert space.fin_leq(a, b) == _reference_fin_leq(space, a, b)
    # Two-digit elements, whose serialization order is not numeric.
    space = ell_space(12)
    rng = random.Random(12)
    sample = [
        space.make(sorted(rng.sample(range(12), rng.randint(0, 12))))
        for _ in range(60)
    ]
    assert any(x >= 10 for a in sample for x in a.payload)
    for a in sample:
        for b in sample:
            assert space.fin_leq(a, b) == _reference_fin_leq(space, a, b)


def test_ellentuck_fin_leq_refuses_a_foreign_approximation():
    space = ell_space(4)
    ours = space.make((0, 1))
    for foreign in (
        partition_space(4).make([[0], [1]]),
        Approximation("matrix", ours.payload, ours.length),
    ):
        for a, b in ((foreign, ours), (ours, foreign), (foreign, foreign)):
            with pytest.raises(MixedSpaceError):
                space.fin_leq(a, b)


def test_gf3_matrix_space_operations():
    m = matrix_space(3, 3)
    stem = Stem(m, m.make([(1, 2, 0), (0, 0, 1)]))
    assert _pivots(stem.top)[1] == 2
    assert stem.approx(1).payload == ((1, 2),)
    doubled = m.make([(1, 2)])
    assert m.fin_leq(doubled, stem.approx(1))
    assert m.serialize(stem.top) == "q=3;120;001"
    assert m.parse("q=3;120;001") == stem.top


@pytest.mark.parametrize("q, max_cols", [(2, 5), (3, 4), (5, 3), (7, 3)])
def test_cut_basis_matches_row_reduction(q, max_cols):
    # Slicing an RREF basis to its first columns gives the matrix that
    # row-reducing the cut rows gives, for every stem and every cut.
    space = matrix_space(q, max_cols)
    for top in space.stems():
        m = top.payload
        for cols in range((len(m[0]) if m else 0) + 1):
            cut = (r[:cols] for r in m)
            assert _cut_basis(m, cols) == rref_of_rows(cut, cols, q).rows


@pytest.mark.parametrize("q, max_cols", [(2, 4), (3, 3), (5, 3), (7, 3)])
def test_matrix_fin_leq_matches_in_span_over_the_cut_basis(q, max_cols):
    space = matrix_space(q, max_cols)
    stems = space.stems()
    for a in stems:
        leads = tuple(r.index(next(filter(None, r))) for r in a.payload)
        assert _pivots(a) == leads
        for b in stems:
            ma, mb = a.payload, b.payload
            cols = len(ma[0]) if ma else 0
            if cols > (len(mb[0]) if mb else 0):
                assert not space.fin_leq(a, b)
                continue
            cut = _cut_basis(mb, cols)
            want = spans(tuple((r, r.index(1)) for r in cut), ma, q)
            assert space.fin_leq(a, b) == want
            # `spans` serves both sides; enumerating the cut span does
            # not.
            span = set(span_vectors(cut, cols, q))
            assert want == all(r in span for r in ma)


# ----- serialization -----


def test_serialization_examples(e8, m24, p6):
    assert e8.serialize(e8.make((0, 2, 4))) == "{0,2,4}"
    assert e8.serialize(e8.empty()) == "{}"
    assert m24.serialize(m24.make([(1, 0), (0, 1)])) == "q=2;10;01"
    assert m24.serialize(m24.empty()) == "q=2"
    assert p6.serialize(p6.make([(0, 3), (1, 4), (2, 5)])) == "({0,3},{1,4},{2,5})"
    assert p6.serialize(p6.empty()) == "()"


@pytest.mark.parametrize(
    "space",
    [ell_space(5), matrix_space(2, 3), matrix_space(3, 2), partition_space(4)],
    ids=repr,
)
def test_params_round_trip_and_full_stem_is_ambient(space):
    assert space_from_params(parse_params_str(space.params_str())) == space
    full = space.full_stem().top
    assert all(space.fin_leq(t, full) for t in space.stems())


@pytest.mark.parametrize(
    "text, key",
    [("space=matrix;q=2", "max_cols"), ("space=ellentuck;ground=x", "ground")],
)
def test_space_from_params_names_the_bad_key(text, key):
    with pytest.raises(ParseError, match=repr(key)):
        space_from_params(parse_params_str(text))


def test_parse_rejects_garbage(e8, m24, p6):
    for sp, bad in [
        (e8, "0,2"),
        (e8, "{0,x}"),
        (m24, "10;01"),
        (m24, "q=3;10"),
        (m24, "q=2;00"),
        (m24, "q=2;12"),
        (matrix_space(3, 3), "q=3;140"),
        (matrix_space(5, 2), "q=5;17"),
        (p6, "{0},{1}"),
        (p6, "({1},{0})"),
        # non-canonical text of a valid approximation
        (m24, "q=2;;10"),
        (m24, "q=2;10;"),
        (m24, "q=02;10"),
        (m24, "q=+2;10"),
        (e8, "{01}"),
        (e8, "{+1}"),
        (e8, "{0, 2}"),
        (p6, "({0}, {1})"),
        (p6, "({00},{1})"),
    ]:
        with pytest.raises(ParseError):
            sp.parse(bad)


def test_round_trip_everything(e8, m24, p6):
    for sp in (e8, m24, p6):
        for a in sp.stems():
            text = sp.serialize(a)
            assert sp.parse(text) == a
            assert " " not in text


@given(st.sets(st.integers(min_value=0, max_value=11), max_size=12))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_round_trip_ellentuck_random(xs):
    e = ell_space(12)
    a = e.make(sorted(xs))
    assert e.parse(e.serialize(a)) == a


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_round_trip_partition_random(n, data):
    p = partition_space(7)
    if n == 0:
        a = p.empty()
    else:
        labels = [0] + [
            data.draw(st.integers(min_value=0, max_value=i + 1)) for i in range(n - 1)
        ]
        rgs = []
        used = 0
        for lab in labels:
            lab = min(lab, used)
            rgs.append(lab)
            used = max(used, lab + 1)
        blocks = [[] for _ in range(used)]
        for i, lab in enumerate(rgs):
            blocks[lab].append(i)
        a = p.make(blocks)
    assert p.parse(p.serialize(a)) == a
