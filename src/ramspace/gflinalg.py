"""Exact linear algebra over prime fields GF(q).

Matrices are immutable tuples of int rows with entries reduced mod q.
The canonical representative of a row space is its reduced row-echelon
form with zero rows removed; subspaces of F_q^m are identified with
their unique such representative throughout the package.

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


@dataclass(frozen=True)
class FieldElement:
    """A residue mod a prime q, with exact field arithmetic."""

    value: int
    modulus: int

    def __post_init__(self):
        _check_prime(self.modulus)
        object.__setattr__(self, "value", self.value % self.modulus)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        return FieldElement(int(other), self.modulus)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.value + o.value, self.modulus)

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.value - o.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.value * o.value, self.modulus)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse")
        return FieldElement(pow(self.value, -1, self.modulus), self.modulus)

    def __int__(self) -> int:
        return self.value


def _as_int_vector(v: Sequence, q: int) -> tuple[int, ...]:
    out = []
    for x in v:
        if isinstance(x, FieldElement):
            if x.modulus != q:
                raise ValueError("mixed moduli")
            out.append(x.value)
        else:
            out.append(int(x) % q)
    return tuple(out)


@dataclass(frozen=True)
class FqMatrix:
    """A raw (not necessarily echelon) matrix over GF(q)."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_prime(self.q)
        norm = tuple(_as_int_vector(r, self.q) for r in self.rows)
        widths = {len(r) for r in norm}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", norm)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def _pivot(row: Sequence[int]) -> int:
    """Index of the first nonzero entry, or -1 for a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return -1


@dataclass(frozen=True)
class EchelonMatrix:
    """A reduced row-echelon matrix over GF(q) with no zero rows.

    Invariants: each row leads with a 1, pivot columns are strictly
    increasing and contain zeros in every other row, so the row count
    equals the rank and the matrix canonically names its row space
    inside F_q^cols.
    """

    q: int
    cols: int
    rows: tuple[tuple[int, ...], ...]
    # The pivot column of each row, found while the invariants are checked.
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_prime(self.q)
        norm = tuple(_as_int_vector(r, self.q) for r in self.rows)
        object.__setattr__(self, "rows", norm)
        pivots: list[int] = []
        for i, row in enumerate(norm):
            if len(row) != self.cols:
                raise ValueError("row width does not match cols")
            p = _pivot(row)
            if p < 0:
                raise ValueError("zero row in echelon matrix")
            if pivots and p <= pivots[-1]:
                raise ValueError("pivots not strictly increasing")
            if row[p] != 1:
                raise ValueError("pivot entry is not 1")
            for k, other in enumerate(norm):
                if k != i and other[p] != 0:
                    raise ValueError("pivot column is not clean")
            pivots.append(p)
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref(m: FqMatrix) -> EchelonMatrix:
    """Reduced row-echelon form of `m`, zero rows deleted.

    The result is the unique canonical matrix with the same row space.
    """
    q = m.q
    rows = [list(r) for r in m.rows]
    nr, nc = len(rows), m.cols
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if rows[i][c]:
                pivot_row = i
                break
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
        if r == nr:
            break
    kept = tuple(tuple(row) for row in rows[:r])
    return EchelonMatrix(q, nc, kept)


def rref_of_rows(rows: Iterable[Sequence[int]], cols: int, q: int) -> EchelonMatrix:
    """RREF of raw integer rows (each of width `cols`)."""
    rows = tuple(tuple(int(x) % q for x in r) for r in rows)
    for r in rows:
        if len(r) != cols:
            raise ValueError("row width mismatch")
    if not rows:
        return EchelonMatrix(q, cols, ())
    return rref(FqMatrix(q, rows))


def in_span(v: Sequence, m: EchelonMatrix) -> bool:
    """True iff vector `v` is a linear combination of the rows of `m`."""
    w = list(_as_int_vector(v, m.q))
    if len(w) != m.cols:
        raise ValueError(f"dimension mismatch: vector {len(w)} vs cols {m.cols}")
    for row, p in zip(m.rows, m.pivots):
        if w[p]:
            f = w[p]
            w = [(a - f * b) % m.q for a, b in zip(w, row)]
    return not any(w)


def subspace_leq(a: EchelonMatrix, b: EchelonMatrix) -> bool:
    """True iff the row space of `a` is contained in the row space of `b`."""
    if a.q != b.q:
        raise ValueError("mixed moduli")
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return all(in_span(r, b) for r in a.rows)


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
            out.append(EchelonMatrix(q, m, tuple(tuple(r) for r in rows)))
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
