"""The reference matrix `fin_below`, matrix `build_level` and row
reduction.

`SpanMatrixSpace.fin_below` is the span-tested enumeration the package's
`MatrixSpace.fin_below` used before it built each subspace as X·B: every
RRE matrix of each column count, kept when the stem's cut rows span it.
`build_level` is the generic level route matrix levels took before
`_matrix_level`: the members of the full stem's `fin_below` at depth
exactly m, and for each witness the items `fin_leq` below it.  Both are
kept unchanged as the oracle that `test_matrix_oracle.py` checks the
package against.  `rref_of_rows` is Gaussian elimination of raw rows,
which the package never needs: the tests reduce rows with it to check
`enumerate_rre`, `times_basis` and the cut bases against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ramspace.core import Approximation, Stem
from ramspace.gflinalg import EchelonMatrix, _check_rows, enumerate_rre, spans
from ramspace.ramsey import LevelInstance
from ramspace.spaces.matrix import TAG, MatrixSpace, _pivoting_before


class SpanMatrixSpace(MatrixSpace):
    """`MatrixSpace` with the span-tested `fin_below`."""

    def fin_below(self, a: Approximation) -> list[Approximation]:
        self.check_tag(a)
        m: EchelonMatrix = a.payload
        out = [self.empty()]
        for cols in range(1, m.cols + 1):
            basis = _pivoting_before(m, cols)
            for k in range(1, len(basis) + 1):
                for cand in enumerate_rre(k, cols, self.q):
                    if spans(basis, cand.rows, self.q):
                        out.append(Approximation(TAG, cand, k))
        return sorted(out, key=self.sort_key)


def build_level(m: int, k: int, n: int, q: int = 2) -> LevelInstance:
    """The depth-m GLR instance by the generic route."""
    space = SpanMatrixSpace(q, max(m, 1))
    stem = space.full_stem() if m else Stem(space, space.empty())
    top = stem.top
    prev = space.restrict(top, m - 1) if m >= 1 else None

    def at_depth(a: Approximation) -> bool:
        if not space.fin_leq(a, top):
            return False
        return m == 0 or not space.fin_leq(a, prev)

    below = space.fin_below(top)
    items = [a for a in below if a.length == k and at_depth(a)]
    witnesses = [b for b in below if b.length == n and at_depth(b)]
    configs = [
        [i for i, a in enumerate(items) if space.fin_leq(a, b)] for b in witnesses
    ]
    return LevelInstance("matrix", m, k, n, q, space, items, witnesses, configs)


def rref_of_rows(rows: Iterable[Sequence[int]], cols: int, q: int) -> EchelonMatrix:
    """Reduced row-echelon form of raw int rows, zero rows deleted.

    Each row must have width `cols` and entries in 0..q-1.  The result is
    the unique canonical matrix with the same row space.
    """
    rows = [list(r) for r in rows]
    _check_rows(rows, cols, q)
    nr = len(rows)
    r = 0
    for c in range(cols):
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
        r += 1
    return EchelonMatrix(q, cols, rows[:r])
