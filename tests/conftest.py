import itertools

import pytest

from ramspace import ell_space, matrix_space, partition_space


@pytest.fixture(scope="session")
def e8():
    return ell_space(8)


@pytest.fixture(scope="session")
def e12():
    return ell_space(12)


@pytest.fixture(scope="session")
def m24():
    return matrix_space(2, 4)


@pytest.fixture(scope="session")
def p6():
    return partition_space(6)


@pytest.fixture(scope="session")
def partitions_by_shape():
    """The package's own enumeration of partitions, `partition_space(8)
    .stems()`, grouped by (domain, block count) in canonical order.
    Every shape of domain at most 8 is a key, so an empty shape is []."""
    shapes = {(n, k): [] for n in range(9) for k in range(n + 1)}
    for a in partition_space(8).stems():
        shapes[len(a.payload), a.length].append(a)
    return shapes


def pairs_of(elems, k=2):
    return list(itertools.combinations(elems, k))
