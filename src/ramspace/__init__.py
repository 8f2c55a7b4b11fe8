"""Finite-truncation laboratory for Ramsey-type combinatorics.

The package provides:

  * an abstract approximation-space contract with an executable audit
    of its six structural laws on finite truncations (core, audit);
  * three concrete spaces: finite subsets of an initial segment of N,
    echelon matrices over GF(q), and ordered set partitions (spaces);
  * a depth-bounded combinatorial-forcing engine realizing the Galvin
    dichotomy for length-bounded front families (forcing);
  * searchers that compute and certify small Ramsey-type witnesses:
    classical, vector-space, and partition versions (ramsey);
  * one plain-text grammar that every certificate is written and read
    in (certificate);
  * a batch CLI with reproducible, machine-readable output (cli).
"""

from .core import Approximation, Space, Stem
from .errors import (
    CeilingExceededError,
    EmptyNeighborhoodError,
    InvalidApproximationError,
    MixedSpaceError,
    NotInSpaceError,
    OutOfRangeError,
    ParseError,
    RamspaceError,
)
from .gflinalg import enumerate_rre, gaussian_binomial
from .spaces import (
    EllentuckSpace,
    MatrixSpace,
    PartitionSpace,
    ell_space,
    matrix_space,
    partition_space,
)

__version__ = "0.1.0"
