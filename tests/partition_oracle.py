"""The reference partition space: each approximation held as its tuple
of blocks, listed by increasing minimum.

This is the blocks representation the package's `PartitionSpace` held
before it switched to restricted-growth label tuples, kept unchanged as
the oracle that `test_partition_oracle.py` checks every primitive
against; it sorts by its own `canonical` key.  `blocks(a)` reads the
blocks of a package approximation, and `dual_to_classical_encoding(t)`
reads a partition's positive block minima as an ellentuck approximation
(criterion 8's pull-back).  `fin_below_by_cuts(a, length)` is the label
route `PartitionSpace.fin_below` took before it built each length group
in one pass: every cut of a's labels coarsened by every restricted-growth
string of its blocks, then sorted.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from ramspace.core import Approximation, Space, Stem
from ramspace.errors import (
    EmptyNeighborhoodError,
    InvalidApproximationError,
    ParseError,
)

TAG = "partition"

Blocks = tuple[tuple[int, ...], ...]


def blocks(a: Approximation) -> Blocks:
    """The blocks of a label-tuple partition approximation, by
    increasing minimum."""
    out = [[] for _ in range(a.length)]
    for e, label in enumerate(a.payload):
        out[label].append(e)
    return tuple(tuple(b) for b in out)


def dual_to_classical_encoding(t: Approximation) -> Approximation:
    """The set of block minima of a partition, with 0 removed.

    Pulls colorings of k-subsets back to (k+1)-block partitions: a
    partition with k+1 blocks whose first block contains 0 encodes the
    k-subset of its positive block minima.
    """
    if t.space_tag != "partition":
        raise TypeError("expected a partition approximation")
    minima = tuple(t.payload.index(j) for j in range(1, t.length))
    return Approximation("ellentuck", minima, len(minima))


def _domain(blocks: Blocks) -> int:
    return sum(len(b) for b in blocks)


def canonical(a: Approximation):
    """The canonical order, written here rather than read from the
    package: shorter first, then by the label tuple the blocks name
    (entry e is the index of the block holding e)."""
    labels = [0] * _domain(a.payload)
    for j, b in enumerate(a.payload):
        for e in b:
            labels[e] = j
    return (a.length, tuple(labels))


@dataclass(frozen=True)
class BlocksPartitionSpace(Space):
    max_domain: int

    tag = TAG

    def empty(self) -> Approximation:
        return Approximation(TAG, (), 0)

    def make(self, payload) -> Approximation:
        blocks = tuple(tuple(sorted(int(x) for x in b)) for b in payload)
        if any(not b for b in blocks):
            raise InvalidApproximationError("empty block")
        mins = [b[0] for b in blocks]
        if any(n <= m for m, n in zip(mins, mins[1:])):
            raise InvalidApproximationError("blocks not ordered by minimum")
        covered = sorted(x for b in blocks for x in b)
        t = len(covered)
        if covered != list(range(t)):
            raise InvalidApproximationError(
                f"blocks do not partition an initial segment: {blocks}"
            )
        if t > self.max_domain:
            raise InvalidApproximationError(
                f"domain {t} exceeds truncation {self.max_domain}"
            )
        return Approximation(TAG, blocks, len(blocks))

    def restrict(self, a: Approximation, n: int) -> Approximation:
        self.check_tag(a)
        if n < 0 or n > a.length:
            raise InvalidApproximationError(f"restrict index {n} out of range")
        if n == a.length:
            return a
        cut = a.payload[n][0]
        blocks = tuple(tuple(x for x in b if x < cut) for b in a.payload[:n])
        return Approximation(TAG, blocks, n)

    @staticmethod
    def _restriction(blocks: Blocks, u: int) -> Blocks:
        out = []
        for b in blocks:
            cut = tuple(x for x in b if x < u)
            if cut:
                out.append(cut)
        return tuple(out)

    @staticmethod
    def _coarser(x: Blocks, y: Blocks) -> bool:
        """True iff every block of y is contained in some block of x."""
        owner = {}
        for i, b in enumerate(x):
            for e in b:
                owner[e] = i
        for b in y:
            if any(e not in owner for e in b):
                return False
            if len({owner[e] for e in b}) > 1:
                return False
        return True

    def below_test(self, b: Approximation):
        tb = _domain(b.payload)

        def below(pa: Blocks) -> bool:
            ta = _domain(pa)
            if ta > tb:
                return False
            return self._coarser(pa, self._restriction(b.payload, ta))

        return below

    def fin_below(self, a: Approximation) -> list[Approximation]:
        self.check_tag(a)
        t = _domain(a.payload)
        out = []
        for u in range(t + 1):
            base = self._restriction(a.payload, u)
            for grouping in _set_partitions(len(base)):
                merged = _merge_blocks(base, grouping)
                out.append(Approximation(TAG, merged, len(merged)))
        return sorted(set(out), key=canonical)

    def extensions_below(self, a, top) -> list[Approximation]:
        self.check_tag(a)
        self.check_tag(top)
        if not self.fin_leq(a, top):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        ta = _domain(a.payload)
        tt = _domain(top.payload)
        n = a.length
        if ta >= tt:
            return []
        # Block n of any extension starts at ta, so ta must begin a block
        # of the stem's partition.
        top_block_of = {}
        for i, b in enumerate(top.payload):
            for e in b:
                top_block_of[e] = i
        if top.payload[top_block_of[ta]][0] != ta:
            return []
        a_block_of = {}
        for i, b in enumerate(a.payload):
            for e in b:
                a_block_of[e] = i
        out = []
        for t2 in range(ta + 1, tt + 1):
            segment = self._restriction(top.payload, t2)
            forced: list[tuple[tuple[int, ...], int]] = []
            free: list[tuple[int, ...]] = []
            for b in segment:
                if b[0] < ta:
                    forced.append((b, a_block_of[b[0]]))
                elif b[0] == ta:
                    forced.append((b, n))
                else:
                    free.append(b)
            for assignment in itertools.product(range(n + 1), repeat=len(free)):
                blocks = [list() for _ in range(n + 1)]
                for b, i in forced:
                    blocks[i].extend(b)
                for b, i in zip(free, assignment):
                    blocks[i].extend(b)
                payload = tuple(tuple(sorted(b)) for b in blocks)
                out.append(Approximation(TAG, payload, n + 1))
        return sorted(out, key=canonical)

    def stems(self) -> list[Approximation]:
        out = [self.empty()]
        for t in range(1, self.max_domain + 1):
            for blocks in _set_partitions(t):
                out.append(Approximation(TAG, blocks, len(blocks)))
        return sorted(out, key=canonical)

    def count_below(self, a: Approximation) -> int:
        return len(self.fin_below(a))

    def serialize(self, a: Approximation) -> str:
        self.check_tag(a)
        inner = ",".join(
            "{" + ",".join(str(x) for x in b) + "}" for b in a.payload
        )
        return f"({inner})"

    def _parse(self, text: str) -> Approximation:
        if not (text.startswith("(") and text.endswith(")")):
            raise ParseError(f"bad partition literal: {text!r}")
        body = text[1:-1]
        if not body:
            return self.empty()
        blocks = []
        depth = 0
        cur = ""
        for ch in body + ",":
            if ch == "," and depth == 0:
                cur = cur.strip()
                if not (cur.startswith("{") and cur.endswith("}")):
                    raise ParseError(f"bad partition literal: {text!r}")
                try:
                    blocks.append(tuple(int(x) for x in cur[1:-1].split(",")))
                except ValueError as e:
                    raise ParseError(f"bad partition literal: {text!r}") from e
                cur = ""
            else:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                cur += ch
        try:
            return self.make(blocks)
        except ValueError as e:
            raise ParseError(f"not a valid partition approximation: {text!r}") from e

    def params_str(self) -> str:
        return f"space={TAG};max_domain={self.max_domain}"

    def full_stem(self) -> Stem:
        return self.discrete_stem()

    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        return _domain(e.payload) == _domain(top.payload)

    def discrete_stem(self, n: int | None = None) -> Stem:
        """The stem of singleton blocks {0},...,{n-1}."""
        n = self.max_domain if n is None else n
        if n > self.max_domain:
            raise ValueError("domain exceeds truncation")
        return Stem(self, self.make(tuple((i,) for i in range(n))))


@functools.cache
def _set_partitions(n: int) -> tuple[Blocks, ...]:
    """Every partition of {0..n-1} as blocks by increasing minimum:
    n-1 joins a block of a partition of {0..n-2} or opens the last."""
    if n == 0:
        return ((),)
    out = []
    for p in _set_partitions(n - 1):
        for i in range(len(p)):
            out.append(p[:i] + (p[i] + (n - 1,),) + p[i + 1 :])
        out.append(p + ((n - 1,),))
    return tuple(out)


def _merge_blocks(base: Blocks, grouping: Blocks) -> Blocks:
    merged = []
    for group in grouping:
        blk = sorted(x for i in group for x in base[i])
        merged.append(tuple(blk))
    merged.sort(key=lambda b: b[0])
    return tuple(merged)


def _rgs_iter(n: int, labels: int | None = None):
    """Restricted-growth strings of length n; with `labels`, only those
    that use exactly that many labels."""

    def rec(prefix: list[int], used: int):
        left = n - len(prefix)
        if not left:
            if labels in (None, used):
                yield tuple(prefix)
            return
        # Once every entry left must open a label, entry `used` is the
        # only choice; once all `labels` are open, no entry opens one.
        must_open = labels is not None and labels - used >= left
        may_open = labels is None or used < labels
        for label in range(used if must_open else 0, used + may_open):
            prefix.append(label)
            yield from rec(prefix, used + (label == used))
            prefix.pop()

    yield from rec([], 0)


def fin_below_by_cuts(a: Approximation, length: int | None = None) -> list[Approximation]:
    """The down-set of a label-tuple partition approximation, or its
    length group: each cut of a's labels coarsened by a restricted-growth
    string g of its blocks (with `length` labels only, given one), in the
    package's canonical order."""
    out = []
    for u in range(len(a.payload) + 1):
        cut = a.payload[:u]
        for g in _rgs_iter(max(cut, default=-1) + 1, length):
            labels = tuple(g[x] for x in cut)
            out.append(Approximation(TAG, labels, max(labels, default=-1) + 1))
    return sorted(out, key=lambda b: (b.length, b.payload))
