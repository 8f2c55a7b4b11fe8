"""Exact linear algebra over prime fields GF(q).

Vectors and matrix rows are tuples of ints whose entries are already in
0..q-1; nothing here reduces an entry mod q.  `EchelonMatrix` is the one
matrix type, and its constructor is the one that checks a matrix: a
prime q, row widths, int entries in range (an entry outside 0..q-1 is
rejected, not reduced) and the echelon invariants.  Raw rows reach it
through `rref_of_rows`, which runs the same row check before it
eliminates.  The canonical representative of a row space is its reduced
row-echelon form with zero rows removed; subspaces of F_q^m are
identified with their unique such representative throughout the
package.

Only prime moduli are supported; extension fields are out of scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CeilingExceededError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"modulus must be prime, got {q}")


def _check_rows(rows: Sequence[Sequence[int]], cols: int, q: int) -> None:
    """Raise ValueError unless every row holds `cols` ints in 0..q-1."""
    digits = range(q)
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"row width {len(row)} does not match cols {cols}")
        for x in row:
            if type(x) is not int or x not in digits:
                raise ValueError(f"entry {x!r} is not an int in 0..{q - 1}")


def pivot(row: Sequence[int]) -> int:
    """Index of the first nonzero entry, or -1 for a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return -1


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


def spans(
    basis: Sequence[tuple[Sequence[int], int]], vectors: Iterable[Sequence[int]], q: int
) -> bool:
    """True iff every vector is a linear combination of the basis rows.

    `basis` holds the (row, pivot) pairs of rows of an RREF matrix that
    pivot before the vectors' width.  A row may be longer than the
    vectors: cut to their width, such rows are the RREF basis of the cut
    row space, and zip does the cut.  Clearing a vector at each basis
    pivot leaves zero iff it lies in the span.
    """
    for w in vectors:
        for r, p in basis:
            f = w[p]
            if f:
                w = [(x - f * y) % q for x, y in zip(w, r)]
        if any(w):
            return False
    return True


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^m.

    Evaluates prod_{i<k} (q^(m-i) - 1) / (q^(k-i) - 1) exactly.
    """
    if k < 0 or k > m:
        raise ValueError("need 0 <= k <= m")
    _check_prime(q)
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def enumerate_rre(
    k: int, m: int, q: int, ceiling: int = 1 << 22
) -> list[EchelonMatrix]:
    """All rank-k reduced row-echelon k x m matrices over GF(q).

    These are the canonical representatives of the k-dimensional
    subspaces of F_q^m; the count equals gaussian_binomial(m, k, q).
    Enumeration order is deterministic: pivot sets in lexicographic
    order, free entries in lexicographic order.
    """
    if k < 0 or k > m:
        raise ValueError("need 0 <= k <= m")
    total = gaussian_binomial(m, k, q)
    if total > ceiling:
        raise CeilingExceededError(
            f"enumerate_rre({k},{m},{q}) too large", total, ceiling
        )
    out: list[EchelonMatrix] = []
    for pivots in itertools.combinations(range(m), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, m)
            if j not in pivot_set
        ]
        for assignment in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * m for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), val in zip(free, assignment):
                rows[i][j] = val
            out.append(EchelonMatrix(q, m, rows))
    assert len(out) == total
    return out


def span_vectors(m: EchelonMatrix) -> list[tuple[int, ...]]:
    """All q^rank vectors in the row space of `m` (deterministic order)."""
    vecs = []
    for coeffs in itertools.product(range(m.q), repeat=m.nrows):
        v = [0] * m.cols
        for c, row in zip(coeffs, m.rows):
            if c:
                v = [(a + c * b) % m.q for a, b in zip(v, row)]
        vecs.append(tuple(v))
    return vecs
