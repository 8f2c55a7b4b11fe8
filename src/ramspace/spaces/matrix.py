"""The space of row-reduced echelon matrices over GF(q), truncated in columns.

An approximation of length n is an n-row echelon matrix whose width
records everything of the first n rows up to the position where the
next row's pivot sits.  A stem is such a matrix viewed as a truncated
infinite echelon matrix whose unmaterialized rows have pivots at or
beyond its column count.

The payload is the matrix's tuple of RREF row tuples: the column count
is the row width (0 for the empty approximation), the field is the
space's, and a row's pivot is `row.index(1)`, since every row leads
with a 1.  `make` takes the rows and is the one constructor that checks
them; the primitives build rows that are RREF by construction.
`fin_below` and `extensions_below` build every row as X·B over an RREF
basis B, the upper matrix's rows cut to a column count; no span is
listed, and `extensions_below` generates its children lazily, in order.

The finitization: a is below b when a has at most as many columns and
every row of a lies in the span of b's rows truncated to a's columns.
The span order between stems coincides with the finitization on tops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import Approximation, Space, Stem, int_tuple
from ..errors import EmptyNeighborhoodError, InvalidApproximationError, ParseError
from ..gflinalg import (
    check_rref,
    enumerate_rre,
    galois_numbers,
    spans,
    times_basis,
)

TAG = "matrix"

# Digit-string serialization limits entries to one character.
SUPPORTED_Q = (2, 3, 5, 7)


def _approx(rows: tuple) -> Approximation:
    return Approximation(TAG, rows, len(rows))


def _cols(rows: tuple) -> int:
    return len(rows[0]) if rows else 0


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

    def make(self, payload) -> Approximation:
        """The approximation whose rows are `payload`: the rows of a
        reduced row-echelon matrix over GF(q) with no zero rows and at
        most `max_cols` columns."""
        try:
            rows = tuple(map(int_tuple, payload))
            check_rref(rows, self.q)
        except TypeError:
            raise InvalidApproximationError(f"not a sequence of rows: {payload!r}") from None
        except ValueError as e:
            raise InvalidApproximationError(str(e)) from e
        if _cols(rows) > self.max_cols:
            raise InvalidApproximationError(
                f"{_cols(rows)} columns exceed truncation {self.max_cols}"
            )
        return _approx(rows)

    def restrict(self, a: Approximation, n: int) -> Approximation:
        self.check_tag(a)
        if n < 0 or n > a.length:
            raise InvalidApproximationError(f"restrict index {n} out of range")
        if n == a.length:
            return a
        rows = a.payload
        cut = rows[n].index(1)
        return _approx(tuple(r[:cut] for r in rows[:n]))

    def below_test(self, b: Approximation):
        # b's basis cut to a column count is built on the first payload
        # of that width, so one call on a wide top stays cheap.
        rb, q = b.payload, self.q
        width = _cols(rb)
        bases: dict[int, list] = {}

        def below(ra) -> bool:
            cols = _cols(ra)
            if cols > width:
                return False
            basis = bases.get(cols)
            if basis is None:
                basis = bases[cols] = _pivoting_before(rb, cols)
            return spans(basis, ra, q)

        return below

    def fin_below(self, a, length=None) -> list[Approximation]:
        """For each column count c, X·B for X over `enumerate_rre(k, d, q)`,
        where B is the d rows of `a` that pivot before c, cut to c (the
        identity when d == c, so X as it is); in canonical order.  With
        a `length`, X runs over the k = length rows only."""
        self.check_tag(a)
        rows = a.payload
        out = [self.empty()] if length in (None, 0) else []
        for cols in range(1, _cols(rows) + 1):
            basis = [r[:cols] for r, _ in _pivoting_before(rows, cols)]
            d = len(basis)
            for k in range(1, d + 1):
                if length not in (None, k):
                    continue
                for x in enumerate_rre(k, d, self.q):
                    if d < cols:
                        x = times_basis(x, basis, self.q)
                    out.append(_approx(x))
        return sorted(out, key=self.sort_key)

    def extensions_below(self, a, top):
        """The children in canonical order, from `_children`: below the
        empty approximation, those of one top row at a time, latest pivot
        first.  Else the new row is `top`'s row pivoting at `a`'s column
        count p (none: no children), each row of `a` lifted through the
        rows pivoting before p."""
        self.check_tag(a)
        self.check_tag(top)
        ra, rt, q = a.payload, top.payload, self.q
        p = _cols(ra)
        before = _pivoting_before(rt, p)
        if p > _cols(rt) or not spans(before, ra, q):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        if not ra:
            return itertools.chain.from_iterable(
                _children((rt[i],), rt[i + 1:], _cols(rt), q) for i in reversed(range(len(rt)))
            )
        rest = rt[len(before):]
        if not rest or rest[0].index(1) != p:
            return iter(())
        coords = [[r[j] for _, j in before] for r in ra]
        heads = (*times_basis(coords, [b for b, _ in before], q), rest[0])
        return _children(heads, rest[1:], _cols(rt), q)

    def stems(self) -> list[Approximation]:
        out = [self.empty()]
        for cols in range(1, self.max_cols + 1):
            for k in range(1, cols + 1):
                out.extend(map(_approx, enumerate_rre(k, cols, self.q)))
        return sorted(out, key=self.sort_key)

    def count_below(self, a: Approximation) -> int:
        self.check_tag(a)
        ds = [len(_pivoting_before(a.payload, c)) for c in range(1, _cols(a.payload) + 1)]
        galois = galois_numbers(max(ds, default=0), self.q)
        return 1 + sum(galois[d] - 1 for d in ds)

    def serialize(self, a: Approximation) -> str:
        self.check_tag(a)
        parts = [f"q={self.q}"]
        parts.extend("".join(map(str, row)) for row in a.payload)
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
        try:
            rows = tuple(tuple(int(ch) for ch in rt) for rt in parts[1:] if rt)
        except ValueError as e:
            raise ParseError(f"bad matrix literal: {text!r}") from e
        try:
            return self.make(rows)
        except ValueError as e:
            raise ParseError(f"not a valid echelon approximation: {text!r}") from e

    def full_stem(self) -> Stem:
        """The stem whose rows are the max_cols standard basis vectors."""
        n = self.max_cols
        rows = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        return Stem(self, _approx(rows))

    # Kept only because perfbench/workloads.py calls it.
    identity_stem = full_stem

    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        return _cols(e.payload) == _cols(top.payload)


def _pivoting_before(rows: tuple, cols: int) -> list[tuple[tuple[int, ...], int]]:
    """The (row, pivot) pairs of the RREF `rows` whose pivot lies before
    `cols`.

    Cutting an RREF matrix to its first `cols` columns leaves these rows
    in RREF and turns the others into zero rows, so, cut there, they are
    the RREF basis of the cut row space without any elimination.
    """
    return [(r, p) for r in rows if (p := r.index(1)) < cols]


def _children(heads: tuple, tail: tuple, cols: int, q: int):
    """Rows `heads` cut to each width w from past the last head's pivot
    to `cols`, each plus any combination of the `tail` rows pivoting
    before w (X·B), in canonical order: a preorder over row 0's digit
    trie, whose digit at a tail row's pivot is that row's coefficient,
    and at each node the later rows' combinations in coefficient order,
    which is lexicographic; those are built once per width and shared."""
    pivots = {t.index(1): t for t in tail}
    later = {}
    stack = [(heads[-1].index(1) + 1, heads[0])]  # (width, row 0 uncut)
    while stack:
        w, v = stack.pop()
        rows = later.get(w) if heads[1:] else ()
        if rows is None:
            basis = [t[:w] for t in tail if t.index(1) < w]
            x = [(1, *c) for c in itertools.product(range(q), repeat=len(basis))]
            rows = later[w] = [times_basis(x, [h[:w], *basis], q) for h in heads[1:]]
        row = v[:w]
        for rest in itertools.product(*rows):
            yield _approx((row, *rest))
        if w < cols:
            t = pivots.get(w)
            for c in reversed(range(q) if t else range(1)):
                stack.append((w + 1, tuple((x + c * y) % q for x, y in zip(v, t)) if c else v))
