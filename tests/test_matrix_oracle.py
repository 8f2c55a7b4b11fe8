"""Differential test of the matrix space's X·B paths against the span oracle.

`MatrixSpace.fin_below` and `build_level("matrix", ...)` build each
subspace as X·B from a basis B; `matrix_oracle` keeps the span-tested
`fin_below` and the generic level route they replaced.  Both must give
the same approximations in the same order.
"""

import pytest

from matrix_oracle import SpanMatrixSpace
from matrix_oracle import build_level as oracle_level
from ramspace.ramsey import build_level
from ramspace.spaces import matrix_space


@pytest.mark.parametrize(
    "q, cols", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
)
def test_fin_below_matches_the_span_oracle(q, cols):
    new, old = matrix_space(q, cols), SpanMatrixSpace(q, cols)
    for top in new.stems():
        assert new.fin_below(top) == old.fin_below(top), new.serialize(top)


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
