"""Exact linear algebra over prime fields GF(q).

Vectors and matrix rows are tuples of ints whose entries are already in
0..q-1; nothing here reduces an entry mod q.  A matrix is its tuple of
rows, and its column count is their width.  The canonical
representative of a row space is its reduced row-echelon form (RREF)
with zero rows removed; subspaces of F_q^m are identified with their
unique such representative throughout the package.  Every row of one
leads with a 1, so `row.index(1)` is its pivot.  Nothing here
eliminates raw rows: every matrix the package builds is in RREF by
construction, and `check_rref` checks a matrix that comes from outside
(a prime q, row widths, int entries in range, rejected and not reduced
when outside 0..q-1, and the echelon invariants).

Only prime moduli are supported; extension fields are out of scope.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import CeilingExceededError

# The most matrices `enumerate_rre` builds in one call.
RRE_CEILING = 1 << 22


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


def pivot(row: Sequence[int]) -> int:
    """Index of the first nonzero entry, or -1 for a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def check_rref(rows: Sequence[Sequence[int]], q: int) -> None:
    """Raise ValueError unless `rows` is a reduced row-echelon matrix
    over GF(q) with no zero rows: a prime q, rows of one width holding
    ints in 0..q-1 (an entry outside is rejected, not reduced), each
    row leading with a 1, pivots strictly increasing, and each pivot
    column zero in every other row.  Such a matrix canonically names its
    row space."""
    _check_prime(q)
    cols = len(rows[0]) if rows else 0
    digits = range(q)
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"row width {len(row)} does not match cols {cols}")
        for x in row:
            if type(x) is not int or x not in digits:
                raise ValueError(f"entry {x!r} is not an int in 0..{q - 1}")
    last = -1
    for i, row in enumerate(rows):
        p = pivot(row)
        if p < 0:
            raise ValueError("zero row in echelon matrix")
        if p <= last:
            raise ValueError("pivots not strictly increasing")
        if row[p] != 1:
            raise ValueError("pivot entry is not 1")
        if any(other[p] for k, other in enumerate(rows) if k != i):
            raise ValueError("pivot column is not clean")
        last = p


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


def times_basis(
    x: Sequence[Sequence[int]], basis: Sequence[Sequence[int]], q: int
) -> tuple[tuple[int, ...], ...]:
    """The rows of X·B over GF(q), for an X with as many columns as B has
    rows, each row leading with a 1 (its product starts as that basis
    row).  For RREF X and B, X·B is in RREF (B's pivot columns hold X),
    so distinct X name distinct subspaces of B's row space."""
    out = []
    for row in x:
        v = None
        for c, b in zip(row, basis):
            if c:
                v = b if v is None else [(s + c * t) % q for s, t in zip(v, b)]
        out.append(tuple(v))
    return tuple(out)


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


def galois_numbers(m: int, q: int) -> list[int]:
    """G_0, ..., G_m, where G_d counts every subspace of F_q^d (the sum
    over k of gaussian_binomial(d, k, q)).

    One pass of the Goldman-Rota recurrence
    G_(d+1) = 2 G_d + (q^d - 1) G_(d-1), from G_0 = 1 and G_1 = 2.
    """
    _check_prime(q)
    out = [1, 2]
    for d in range(1, m):
        out.append(2 * out[d] + (q**d - 1) * out[d - 1])
    return out[: m + 1]


def enumerate_rre(k: int, m: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every rank-k reduced row-echelon k x m matrix over GF(q).

    These are the canonical representatives of the k-dimensional
    subspaces of F_q^m; the count equals gaussian_binomial(m, k, q).
    Enumeration order is deterministic: pivot sets in lexicographic
    order, free entries in lexicographic order.  A count above
    RRE_CEILING is refused before any matrix is built.
    """
    if k < 0 or k > m:
        raise ValueError("need 0 <= k <= m")
    total = gaussian_binomial(m, k, q)
    if total > RRE_CEILING:
        raise CeilingExceededError(
            f"enumerate_rre({k},{m},{q}) too large", total, RRE_CEILING
        )
    out = []
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
            out.append(tuple(map(tuple, rows)))
    assert len(out) == total
    return out

