"""The order is read through one seam: `Space.below_test(b)`.

Every space implements the finitization order once, as the row
`below_test(b)`, a predicate on payloads, and `Space.fin_leq` reads it
one pair at a time.  The pairwise formulas each space's `fin_leq` used
before the rows are kept here as oracles; every row must agree with
them, and with `fin_leq`, on every ordered pair of the small spaces,
in whatever order its payloads are asked.
"""

import ast
import pathlib

import pytest

from ramspace import Approximation, ell_space, matrix_space, partition_space
from ramspace.errors import MixedSpaceError
from ramspace.gflinalg import spans
from ramspace.spaces import matrix as matrix_module
from ramspace.spaces.matrix import _pivoting_before

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "ramspace"


def _ellentuck_leq(space, a, b):
    return set(b.payload).issuperset(a.payload)


def _matrix_leq(space, a, b):
    ra, rb = a.payload, b.payload
    cols = len(ra[0]) if ra else 0
    if cols > (len(rb[0]) if rb else 0):
        return False
    return spans(_pivoting_before(rb, cols), ra, space.q)


def _partition_leq(space, a, b):
    la, lb = a.payload, b.payload
    if len(la) > len(lb):
        return False
    return len(set(zip(lb, la))) == len(set(lb[: len(la)]))


SPACES = (
    [(ell_space(g), _ellentuck_leq) for g in range(1, 8)]
    + [(matrix_space(q, c), _matrix_leq) for q, c in [(2, 4), (3, 3), (5, 2), (7, 2)]]
    + [(partition_space(d), _partition_leq) for d in range(1, 7)]
)


@pytest.mark.parametrize(
    "space, oracle", SPACES, ids=[s.params_str() for s, _ in SPACES]
)
def test_rows_match_the_pairwise_formulas_on_every_pair(space, oracle):
    stems = space.stems()
    payloads = [a.payload for a in stems]
    for b in stems:
        want = [oracle(space, a, b) for a in stems]
        row = space.below_test(b)
        assert [row(p) for p in payloads] == want, space.serialize(b)
        # A row builds what it needs as it is asked: asked again, in the
        # other order, it gives the same answers.
        assert [row(p) for p in reversed(payloads)] == want[::-1], space.serialize(b)
        assert [space.fin_leq(a, b) for a in stems] == want, space.serialize(b)


def test_wide_matrix_rows_answer_single_pairs(monkeypatch):
    # A row on a 200-column top builds its cut basis for each column
    # count asked, once, and no other.
    space = matrix_space(2, 200)
    top = space.full_stem().top
    wide = space.make([(1,) + (0, 1) * 99 + (1,)])
    narrow = space.make([(1, 0, 1), (0, 1, 1)])
    lower = space.make([(1, 1, 0, 0) + (0,) * 196, (0, 0, 1, 1) + (0,) * 196])
    cut = space.restrict(lower, 1)
    built = []

    def counting(rows, cols):
        built.append(cols)
        return _pivoting_before(rows, cols)

    monkeypatch.setattr(matrix_module, "_pivoting_before", counting)
    row = space.below_test(top)
    assert row(wide.payload) and row(narrow.payload) and row(wide.payload)
    assert built == [200, 3]
    for a, b in [(wide, top), (narrow, top), (top, top), (wide, lower), (lower, wide),
                 (cut, lower), (cut, narrow), (narrow, cut), (lower, lower)]:
        assert space.fin_leq(a, b) == _matrix_leq(space, a, b), (a, b)
    assert space.fin_leq(cut, lower) and not space.fin_leq(wide, lower)
    assert not space.fin_leq(top, lower) and not space.fin_leq(lower, cut)


@pytest.mark.parametrize("space", [ell_space(4), matrix_space(2, 3), partition_space(4)],
                         ids=lambda s: s.tag)
def test_fin_leq_checks_both_tags_before_the_row(space):
    ours = space.full_stem().top
    foreign = Approximation("other", ours.payload, ours.length)
    for a, b in [(foreign, ours), (ours, foreign)]:
        with pytest.raises(MixedSpaceError):
            space.fin_leq(a, b)


def _class_attributes(cls: ast.ClassDef):
    """The names a class body defines or assigns."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (t.id for t in item.targets if isinstance(t, ast.Name))


def test_only_the_space_contract_defines_fin_leq():
    # Each space implements the order as its row; a second `fin_leq`
    # would be a second implementation, one the audit's sweep never reads.
    where = [
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef) and "fin_leq" in _class_attributes(node)
    ]
    assert where == ["core.py:Space"]
