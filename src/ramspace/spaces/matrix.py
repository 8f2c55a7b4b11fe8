"""The space of row-reduced echelon matrices over GF(q), truncated in columns.

An approximation of length n is an n-row echelon matrix together with
an explicit column count: the columns record everything of the first n
rows up to the position where the next row's pivot sits.  A stem is
such a matrix viewed as a truncated infinite echelon matrix whose
unmaterialized rows have pivots at or beyond its column count.

The finitization: a is below b when a has at most as many columns and
every row of a lies in the span of b's rows truncated to a's columns.
The span order between stems coincides with the finitization on tops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import Approximation, Space, Stem
from ..errors import EmptyNeighborhoodError, InvalidApproximationError, ParseError
from ..gflinalg import (
    EchelonMatrix,
    enumerate_rre,
    gaussian_binomial,
    pivot,
    span_vectors,
    spans,
    times_basis,
)

TAG = "matrix"

# Digit-string serialization limits entries to one character.
SUPPORTED_Q = (2, 3, 5, 7)


@dataclass(frozen=True)
class MatrixSpace(Space):
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

    def fin_leq(self, a: Approximation, b: Approximation) -> bool:
        self.check_tag(a)
        self.check_tag(b)
        ma: EchelonMatrix = a.payload
        mb: EchelonMatrix = b.payload
        if ma.cols > mb.cols:
            return False
        return spans(_pivoting_before(mb, ma.cols), ma.rows, self.q)

    def fin_below(self, a: Approximation) -> list[Approximation]:
        """For each column count c, X·B for X over `enumerate_rre(k, d, q)`,
        where B is the d rows of `a` that pivot before c, cut to c (the
        identity when d == c, so X as it is); in `sort_key` order."""
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
        return sorted(out, key=self.sort_key)

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
            span = span_vectors(basis)
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
        return sorted(out, key=self.sort_key)

    def stems(self) -> list[Approximation]:
        out = [self.empty()]
        for cols in range(1, self.max_cols + 1):
            for k in range(1, cols + 1):
                for m in enumerate_rre(k, cols, self.q):
                    out.append(Approximation(TAG, m, k))
        return sorted(out, key=self.sort_key)

    def stem_count(self) -> int:
        total = 1
        for cols in range(1, self.max_cols + 1):
            for k in range(1, cols + 1):
                total += gaussian_binomial(cols, k, self.q)
        return total

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

    # Kept only because perfbench/workloads.py calls it.
    identity_stem = full_stem

    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        return e.payload.cols == top.payload.cols


def _pivoting_before(m: EchelonMatrix, cols: int) -> list[tuple[tuple[int, ...], int]]:
    """The (row, pivot) pairs of `m` whose pivot lies before `cols`.

    Cutting an RREF matrix to its first `cols` columns leaves these rows
    in RREF and turns the others into zero rows, so, cut there, they are
    the RREF basis of the cut row space without any elimination.
    """
    return [(r, p) for r, p in zip(m.rows, m.pivots) if p < cols]


def matrix_space(q: int, max_cols: int) -> MatrixSpace:
    return MatrixSpace(q, max_cols)

