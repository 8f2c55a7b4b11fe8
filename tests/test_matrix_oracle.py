"""Differential tests of the matrix space against the oracles in
`matrix_oracle`.

`MatrixSpace` holds each approximation as its tuple of RREF rows;
`EchelonMatrixSpace` is the `EchelonMatrix` representation it replaced.
Each primitive must give the same answer in both, compared through
serialization, or raise the same error type.  `MatrixSpace.fin_below`,
`MatrixSpace.extensions_below` and `build_level("matrix", ...)` build
each subspace as X·B from a basis B; the span-tested `fin_below`, the
span-filtering `extensions_below` and the generic level route they
replaced must give the same approximations in the same order.
"""

from collections.abc import Iterator

import pytest

from matrix_oracle import EchelonMatrixSpace, SpanMatrixSpace, echelon
from matrix_oracle import build_level as oracle_level
from ramspace.core import Approximation, Stem
from ramspace.ramsey import build_level
from ramspace.spaces import matrix_space

SIZES = [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)]

# Rows each rejected by the echelon checks in some field: a zero row,
# unordered pivots, a pivot entry other than 1, a dirty pivot column,
# entries out of range (not reduced mod q), negative or not an int, and
# ragged rows.  A case valid in a larger field is compared there too.
REJECTED_ROWS = [
    ((0, 0),),
    ((0, 1), (1, 0)),
    ((2, 0),),
    ((1, 1, 0), (0, 1, 0)),
    ((4, 0),),
    ((1, 3),),
    ((1, 9),),
    ((1, -1),),
    ((True, 0),),
    ((1, 0, 0), (0, 1)),
    ((1, 0), (0, 0, 1)),
]


def _outcome(space, fn, *args):
    """What `fn(*args)` gives, serialized, or the type of its error.  A
    lazy child list is read out after the call, so an error it raises
    only when read is not taken for the answer."""
    try:
        r = fn(*args)
    except Exception as e:  # the error type is part of the answer
        return type(e)
    if isinstance(r, Stem):
        r = r.top
    if isinstance(r, Approximation):
        return space.serialize(r)
    if isinstance(r, (list, Iterator)):
        return [space.serialize(x) for x in r]
    return r


@pytest.fixture(scope="module", params=SIZES, ids=str)
def pair(request):
    """The package space, the oracle space, the package's stems and
    each stem's counterpart in the oracle."""
    q, cols = request.param
    new, old = matrix_space(q, cols), EchelonMatrixSpace(q, cols)
    stems = new.stems()
    return new, old, stems, {a: old.make(echelon(a, q)) for a in stems}


def _check(pair, name, *args):
    """Ask `name` of both spaces; the approximations in `args` are the
    package's, and the oracle gets their counterparts."""
    new, old, _, old_of = pair
    old_args = [old_of[x] if isinstance(x, Approximation) else x for x in args]
    got = _outcome(new, getattr(new, name), *args)
    want = _outcome(old, getattr(old, name), *old_args)
    assert got == want, (name, [new.serialize(x) for x in args if x in old_of])


def test_stems_and_full_stem_match_the_oracle(pair):
    new, old, stems, _ = pair
    assert [new.serialize(a) for a in stems] == [old.serialize(a) for a in old.stems()]
    assert new.count_below(new.full_stem().top) == len(stems)
    assert old.count_below(old.full_stem().top) == len(stems)
    _check(pair, "full_stem")


def test_restriction_and_down_sets_match_the_oracle(pair):
    for a in pair[2]:
        for n in range(-1, a.length + 2):
            _check(pair, "restrict", a, n)
        _check(pair, "fin_below", a)
        _check(pair, "count_below", a)


def test_order_and_extensions_match_the_oracle(pair):
    # Every ordered pair: extensions of a pair whose neighborhood is
    # empty raise in both.
    stems = pair[2]
    for a in stems:
        for b in stems:
            _check(pair, "fin_leq", a, b)
            _check(pair, "extensions_below", a, b)
            _check(pair, "open_beyond", a, b)


@pytest.mark.parametrize("q, cols", [(2, 5), (3, 4)])
def test_extensions_below_wider_tops_match_the_oracle(q, cols):
    # Every pair whose neighborhood is nonempty: `a` below `top`.
    new, old = matrix_space(q, cols), EchelonMatrixSpace(q, cols)
    stems = new.stems()
    pair = new, old, stems, {a: old.make(echelon(a, q)) for a in stems}
    for top in stems:
        for a in new.fin_below(top):
            _check(pair, "extensions_below", a, top)


def test_make_and_parse_match_the_oracle(pair):
    new, old, stems, _ = pair
    q, max_cols = new.q, new.max_cols
    for a in stems:
        text = new.serialize(a)
        assert new.make(a.payload) == a
        assert new.parse(text) == a
        assert old.serialize(old.parse(text)) == text
    too_wide = (tuple(1 if j == 0 else 0 for j in range(max_cols + 1)),)
    for rows in REJECTED_ROWS + [too_wide]:
        cols = len(rows[0])
        got = _outcome(new, new.make, rows)
        assert got == _outcome(old, old.make_rows, rows, cols), rows
        text = ";".join([f"q={q}"] + ["".join(map(str, r)) for r in rows])
        assert _outcome(new, new.parse, text) == _outcome(old, old.parse, text), text


@pytest.mark.parametrize(
    "q, cols", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
)
def test_fin_below_matches_the_span_oracle(q, cols):
    new, old = matrix_space(q, cols), SpanMatrixSpace(q, cols)
    for top in new.stems():
        got = [new.serialize(a) for a in new.fin_below(top)]
        want = [old.serialize(a) for a in old.fin_below(old.make(echelon(top, q)))]
        assert got == want, new.serialize(top)


def _serialized(inst):
    space = inst.space
    return (
        inst.instance_str(),
        inst.level,
        space.params_str(),
        [space.serialize(a) for a in inst.items],
        [space.serialize(b) for b in inst.witnesses],
        inst.configs,
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_levels_match_the_generic_route(q):
    # Every level up to m = 5 whose generic pair loop stays small (q^m at
    # most 125), the empty levels m = 0 and m < k included.
    for m in range(6):
        if q**m > 125:
            break
        for n in range(1, m + 2):
            for k in range(1, n + 1):
                got, want = build_level("matrix", m, k, n, q), oracle_level(m, k, n, q)
                assert _serialized(got) == _serialized(want), (q, m, k, n)
