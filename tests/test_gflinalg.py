import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramspace.errors import CeilingExceededError
from ramspace.gflinalg import (
    EchelonMatrix,
    enumerate_rre,
    gaussian_binomial,
    rref_of_rows,
    span_vectors,
    spans,
)


# Span membership and subspace inclusion are both `spans` over the
# (row, pivot) pairs of an echelon basis.


def _in_span(v, m: EchelonMatrix) -> bool:
    return spans(tuple(zip(m.rows, m.pivots)), (v,), m.q)


def _subspace_leq(a: EchelonMatrix, b: EchelonMatrix) -> bool:
    return spans(tuple(zip(b.rows, b.pivots)), a.rows, b.q)


def test_composite_modulus_is_rejected():
    with pytest.raises(ValueError):
        EchelonMatrix(4, 1, ((1,),))
    with pytest.raises(ValueError):
        rref_of_rows([(1,)], 1, 4)


def test_rref_invertible_2x2_gf2():
    m = rref_of_rows(((1, 1), (0, 1)), 2, 2)
    assert m.rows == ((1, 0), (0, 1))


def test_rref_zero_matrix_is_empty():
    m = rref_of_rows(((0, 0), (0, 0)), 2, 2)
    assert m.nrows == 0 and m.cols == 2


def test_rref_gf3_rank_one():
    # det(2,1;1,2) = 3 = 0 mod 3, so rank 1; canonical basis row is (1,2).
    m = rref_of_rows(((2, 1), (1, 2)), 2, 3)
    assert m.rows == ((1, 2),)


def test_rref_idempotent_exhaustive_gf2():
    for rows in itertools.product(itertools.product(range(2), repeat=3), repeat=2):
        first = rref_of_rows(rows, 3, 2)
        again = rref_of_rows(first.rows, 3, 2) if first.rows else first
        assert first == again


@pytest.mark.parametrize(
    "rows, cols, q",
    [(((3, 0),), 2, 3), (((1, -1),), 2, 2), (((1, 0),), 3, 2), (((1.0, 0),), 2, 2)],
)
def test_rref_of_rows_rejects_bad_raw_rows(rows, cols, q):
    with pytest.raises(ValueError):
        rref_of_rows(rows, cols, q)


def _span_by_brute_force(rows, q, cols):
    vecs = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(cols)
        )
        vecs.add(v)
    return vecs


@given(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rref_preserves_row_space(qi, raw_rows):
    q = (2, 3, 5)[qi - 1]
    rows = tuple(tuple(x % q for x in r) for r in raw_rows)
    m = rref_of_rows(rows, 3, q)
    brute = _span_by_brute_force(rows, q, 3)
    for v in itertools.product(range(q), repeat=3):
        assert _in_span(v, m) == (v in brute)


def test_in_span_examples():
    m = EchelonMatrix(2, 3, ((1, 0, 1), (0, 1, 1)))
    assert _in_span((1, 1, 0), m)  # sum of the two rows
    assert _in_span((0, 0, 0), m)
    assert not _in_span((1, 0, 0), m)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 3) == 1


def test_enumerate_rre_1_2_2():
    out = enumerate_rre(1, 2, 2)
    assert {m.rows for m in out} == {((1, 0),), ((1, 1),), ((0, 1),)}


def test_enumerate_rre_full_rank_is_identity():
    for k, q in ((2, 2), (3, 3)):
        out = enumerate_rre(k, k, q)
        assert len(out) == 1
        assert out[0].pivots == tuple(range(k))


def test_enumerate_rre_counts_match_gaussian_binomial():
    for q in (2, 3):
        for m in range(6):
            for k in range(m + 1):
                assert len(enumerate_rre(k, m, q)) == gaussian_binomial(m, k, q)


def test_enumerate_rre_refuses_over_ceiling():
    with pytest.raises(CeilingExceededError) as exc:
        enumerate_rre(2, 4, 2, ceiling=10)
    assert exc.value.estimate == 35


def test_subspace_leq_examples():
    i2 = EchelonMatrix(2, 2, ((1, 0), (0, 1)))
    a = EchelonMatrix(2, 2, ((1, 1),))
    assert _subspace_leq(a, a)
    assert _subspace_leq(a, i2)
    assert not _subspace_leq(i2, a)


def test_subspace_leq_antisymmetry_on_canonical_forms():
    mats = enumerate_rre(1, 3, 2) + enumerate_rre(2, 3, 2)
    for a in mats:
        for b in mats:
            if _subspace_leq(a, b) and _subspace_leq(b, a):
                assert a == b


def test_echelon_validation():
    with pytest.raises(ValueError):
        EchelonMatrix(2, 2, ((0, 0),))  # zero row
    with pytest.raises(ValueError):
        EchelonMatrix(2, 2, ((0, 1), (1, 0)))  # pivots not increasing
    with pytest.raises(ValueError):
        EchelonMatrix(3, 2, ((2, 0),))  # pivot entry not 1
    with pytest.raises(ValueError):
        EchelonMatrix(2, 3, ((1, 1, 0), (0, 1, 0)))  # dirty pivot column
    with pytest.raises(ValueError):
        EchelonMatrix(3, 2, ((4, 0),))  # entry out of range, not reduced mod q
    with pytest.raises(ValueError):
        EchelonMatrix(3, 2, ((1, 3),))  # free entry out of range
    with pytest.raises(ValueError):
        EchelonMatrix(2, 2, ((1, -1),))  # negative entry
    with pytest.raises(ValueError):
        EchelonMatrix(2, 2, ((True, 0),))  # not an int
    with pytest.raises(ValueError):
        EchelonMatrix(2, 3, ((1, 0),))  # row narrower than cols


def test_span_vectors_counts():
    m = EchelonMatrix(2, 3, ((1, 0, 1), (0, 1, 1)))
    assert len(set(span_vectors(m))) == 4
    m3 = EchelonMatrix(3, 2, ((1, 2),))
    assert set(span_vectors(m3)) == {(0, 0), (1, 2), (2, 1)}
