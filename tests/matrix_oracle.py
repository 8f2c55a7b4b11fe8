"""The reference matrix space, matrix `fin_below`, matrix `build_level`,
span enumeration and row reduction.

`EchelonMatrixSpace` is the matrix space as it was when each payload
was an `EchelonMatrix` (the field, the column count, the rows and their
cached pivots, checked on every construction), before the package's
`MatrixSpace` held the bare tuple of RREF rows; both are kept unchanged
here.  `SpanMatrixSpace.fin_below` is the span-tested enumeration that
`fin_below` used before it built each subspace as X·B: every RRE matrix
of each column count, kept when the stem's cut rows span it.
`build_level` is the generic level route matrix levels took before
`_matrix_level`: the members of the full stem's `fin_below` at depth
exactly m, and for each witness the items `fin_leq` below it.  All of
them are the oracle that `test_matrix_oracle.py` checks the package
against.  `rref_of_rows` is Gaussian elimination of raw rows, which the
package never needs: the tests reduce rows with it to check
`enumerate_rre`, `times_basis` and the cut bases against.
`span_vectors` lists every vector of a span; `extensions_below` used
it before it built each child's rows as X·B, and
`EchelonMatrixSpace.extensions_below` still filters it.
`echelon(a, q)` reads a package approximation as an `EchelonMatrix`.
Every list the oracle builds is sorted by its own `canonical` key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ramspace import gflinalg
from ramspace.core import Approximation, Space, Stem
from ramspace.errors import EmptyNeighborhoodError, InvalidApproximationError, ParseError
from ramspace.gflinalg import _check_prime, pivot, spans, times_basis
from ramspace.ramsey import LevelInstance
from ramspace.spaces.matrix import SUPPORTED_Q, TAG


def _check_rows(rows: Sequence[Sequence[int]], cols: int, q: int) -> None:
    """Raise ValueError unless every row holds `cols` ints in 0..q-1."""
    digits = range(q)
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"row width {len(row)} does not match cols {cols}")
        for x in row:
            if type(x) is not int or x not in digits:
                raise ValueError(f"entry {x!r} is not an int in 0..{q - 1}")


@dataclass(frozen=True)
class EchelonMatrix:
    """A reduced row-echelon matrix over GF(q) with no zero rows.

    Invariants: entries are ints in 0..q-1, each row leads with a 1,
    pivot columns are strictly increasing and contain zeros in every
    other row, so the row count equals the rank and the matrix
    canonically names its row space inside F_q^cols.
    """

    q: int
    cols: int
    rows: tuple[tuple[int, ...], ...]
    # The pivot column of each row, found while the invariants are checked.
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_prime(self.q)
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        _check_rows(rows, self.cols, self.q)
        pivots: list[int] = []
        for i, row in enumerate(rows):
            p = pivot(row)
            if p < 0:
                raise ValueError("zero row in echelon matrix")
            if pivots and p <= pivots[-1]:
                raise ValueError("pivots not strictly increasing")
            if row[p] != 1:
                raise ValueError("pivot entry is not 1")
            for k, other in enumerate(rows):
                if k != i and other[p] != 0:
                    raise ValueError("pivot column is not clean")
            pivots.append(p)
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def nrows(self) -> int:
        return len(self.rows)


def enumerate_rre(k: int, m: int, q: int) -> list[EchelonMatrix]:
    """The package's enumeration, each matrix checked as an `EchelonMatrix`."""
    return [EchelonMatrix(q, m, rows) for rows in gflinalg.enumerate_rre(k, m, q)]


def span_vectors(
    rows: Sequence[Sequence[int]], cols: int, q: int
) -> list[tuple[int, ...]]:
    """All q^len(rows) vectors in the span of linearly independent
    `rows` of width `cols` (deterministic order)."""
    vecs = []
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = [0] * cols
        for c, row in zip(coeffs, rows):
            if c:
                v = [(a + c * b) % q for a, b in zip(v, row)]
        vecs.append(tuple(v))
    return vecs


def canonical(a: Approximation):
    """The canonical order, written here rather than read from the
    package: shorter first, then by the tuple of rows."""
    return (a.length, a.payload.rows)


def echelon(a: Approximation, q: int) -> EchelonMatrix:
    """The rows of a package matrix approximation over GF(q) as an
    `EchelonMatrix`."""
    rows = a.payload
    return EchelonMatrix(q, len(rows[0]) if rows else 0, rows)


@dataclass(frozen=True)
class EchelonMatrixSpace(Space):
    q: int
    max_cols: int

    tag = TAG

    def __post_init__(self):
        if self.q not in SUPPORTED_Q:
            raise ValueError(f"q must be one of {SUPPORTED_Q}, got {self.q}")
        if self.max_cols < 1:
            raise ValueError("max_cols must be >= 1")

    def empty(self) -> Approximation:
        return Approximation(TAG, EchelonMatrix(self.q, 0, ()), 0)

    def make(self, payload) -> Approximation:
        if not isinstance(payload, EchelonMatrix):
            raise InvalidApproximationError("payload must be an EchelonMatrix")
        if payload.q != self.q:
            raise InvalidApproximationError(
                f"field mismatch: GF({payload.q}) vs GF({self.q})"
            )
        if payload.cols > self.max_cols:
            raise InvalidApproximationError(
                f"{payload.cols} columns exceed truncation {self.max_cols}"
            )
        if payload.nrows == 0 and payload.cols != 0:
            raise InvalidApproximationError("empty approximation must have 0 columns")
        return Approximation(TAG, payload, payload.nrows)

    def make_rows(self, rows, cols: int) -> Approximation:
        try:
            m = EchelonMatrix(self.q, cols, rows)
        except ValueError as e:
            raise InvalidApproximationError(str(e)) from e
        return self.make(m)

    def restrict(self, a: Approximation, n: int) -> Approximation:
        self.check_tag(a)
        if n < 0 or n > a.length:
            raise InvalidApproximationError(f"restrict index {n} out of range")
        if n == 0:
            return self.empty()
        if n == a.length:
            return a
        m: EchelonMatrix = a.payload
        cut = m.pivots[n]
        rows = tuple(r[:cut] for r in m.rows[:n])
        return Approximation(TAG, EchelonMatrix(self.q, cut, rows), n)

    def _cut_basis(self, m: EchelonMatrix, cols: int) -> EchelonMatrix:
        """The row space of `m` cut to its first `cols` columns, in RREF."""
        rows = tuple(r[:cols] for r, _ in _pivoting_before(m, cols))
        return EchelonMatrix(self.q, cols, rows)

    def below_test(self, b: Approximation):
        mb: EchelonMatrix = b.payload

        def below(ma: EchelonMatrix) -> bool:
            if ma.cols > mb.cols:
                return False
            return spans(_pivoting_before(mb, ma.cols), ma.rows, self.q)

        return below

    def fin_below(self, a: Approximation) -> list[Approximation]:
        """For each column count c, X·B for X over `enumerate_rre(k, d, q)`,
        where B is the d rows of `a` that pivot before c, cut to c (the
        identity when d == c, so X as it is); in canonical order."""
        self.check_tag(a)
        m: EchelonMatrix = a.payload
        out = [self.empty()]
        for cols in range(1, m.cols + 1):
            basis = [r[:cols] for r, _ in _pivoting_before(m, cols)]
            d = len(basis)
            for k in range(1, d + 1):
                for x in enumerate_rre(k, d, self.q):
                    if d < cols:
                        rows = times_basis(x.rows, basis, self.q)
                        x = EchelonMatrix(self.q, cols, rows)
                    out.append(Approximation(TAG, x, k))
        return sorted(out, key=canonical)

    def extensions_below(self, a, top) -> list[Approximation]:
        self.check_tag(a)
        self.check_tag(top)
        if not self.fin_leq(a, top):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        ma: EchelonMatrix = a.payload
        mt: EchelonMatrix = top.payload
        out = []
        for w2 in range(ma.cols + 1, mt.cols + 1):
            basis = self._cut_basis(mt, w2)
            span = span_vectors(basis.rows, w2, self.q)
            if ma.nrows == 0:
                # First row of a reduct: any leading-1 vector in the span.
                new_rows = [v for v in span if any(v) and v[pivot(v)] == 1]
                old_choices: list[list[tuple[int, ...]]] = []
            else:
                # Next pivot sits exactly at a's column count.
                p = ma.cols
                new_rows = [v for v in span if pivot(v) == p and v[p] == 1]
                old_choices = [
                    [u for u in span if u[: ma.cols] == r and u[ma.cols] == 0]
                    for r in ma.rows
                ]
            new_rows.sort()
            for choices in itertools.product(*[sorted(c) for c in old_choices]):
                for v in new_rows:
                    rows = tuple(choices) + (v,)
                    out.append(
                        Approximation(TAG, EchelonMatrix(self.q, w2, rows), ma.nrows + 1)
                    )
        return sorted(out, key=canonical)

    def stems(self) -> list[Approximation]:
        out = [self.empty()]
        for cols in range(1, self.max_cols + 1):
            for k in range(1, cols + 1):
                for m in enumerate_rre(k, cols, self.q):
                    out.append(Approximation(TAG, m, k))
        return sorted(out, key=canonical)

    def count_below(self, a: Approximation) -> int:
        return len(self.fin_below(a))

    def serialize(self, a: Approximation) -> str:
        self.check_tag(a)
        m: EchelonMatrix = a.payload
        parts = [f"q={self.q}"]
        parts.extend("".join(str(x) for x in row) for row in m.rows)
        return ";".join(parts)

    def _parse(self, text: str) -> Approximation:
        parts = text.split(";")
        if not parts or not parts[0].startswith("q="):
            raise ParseError(f"bad matrix literal: {text!r}")
        try:
            q = int(parts[0][2:])
        except ValueError as e:
            raise ParseError(f"bad matrix literal: {text!r}") from e
        if q != self.q:
            raise ParseError(f"field mismatch: literal GF({q}) vs space GF({self.q})")
        row_texts = [p for p in parts[1:] if p != ""]
        if not row_texts:
            return self.empty()
        try:
            rows = tuple(tuple(int(ch) for ch in rt) for rt in row_texts)
        except ValueError as e:
            raise ParseError(f"bad matrix literal: {text!r}") from e
        try:
            return self.make_rows(rows, len(rows[0]))
        except ValueError as e:
            raise ParseError(f"not a valid echelon approximation: {text!r}") from e

    def params_str(self) -> str:
        return f"space={TAG};q={self.q};max_cols={self.max_cols}"

    def full_stem(self) -> Stem:
        """The stem whose rows are the max_cols standard basis vectors."""
        n = self.max_cols
        rows = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        return Stem(self, self.make(EchelonMatrix(self.q, n, rows)))

    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        return e.payload.cols == top.payload.cols


def _pivoting_before(m: EchelonMatrix, cols: int) -> list[tuple[tuple[int, ...], int]]:
    """The (row, pivot) pairs of `m` whose pivot lies before `cols`.

    Cutting an RREF matrix to its first `cols` columns leaves these rows
    in RREF and turns the others into zero rows, so, cut there, they are
    the RREF basis of the cut row space without any elimination.
    """
    return [(r, p) for r, p in zip(m.rows, m.pivots) if p < cols]


class SpanMatrixSpace(EchelonMatrixSpace):
    """`EchelonMatrixSpace` with the span-tested `fin_below`."""

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
        return sorted(out, key=canonical)


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
