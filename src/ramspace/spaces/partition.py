"""The dual space: infinite partitions of N ordered by coarsening,
truncated to partitions of a finite initial segment.

An approximation of length n is an ordered partition of {0,...,t-1}
into n blocks listed by increasing minimum; t records where block n of
the represented infinite partition begins.  The length-n member of a
stem's chain cuts the first n blocks at the minimum of block n.

Finitization: s is below t when s partitions a smaller initial segment
and is coarser than t restricted to that segment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import Approximation, Space, Stem
from ..errors import (
    CeilingExceededError,
    EmptyNeighborhoodError,
    InvalidApproximationError,
    ParseError,
)

TAG = "partition"

Blocks = tuple[tuple[int, ...], ...]


def _domain(blocks: Blocks) -> int:
    return sum(len(b) for b in blocks)


@dataclass(frozen=True)
class PartitionSpace(Space):
    max_domain: int

    tag = TAG

    def __post_init__(self):
        if self.max_domain < 1:
            raise ValueError("max_domain must be >= 1")

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

    def fin_leq(self, a: Approximation, b: Approximation) -> bool:
        self.check_tag(a)
        self.check_tag(b)
        ta, tb = _domain(a.payload), _domain(b.payload)
        if ta > tb:
            return False
        return self._coarser(a.payload, self._restriction(b.payload, ta))

    def fin_below(self, a: Approximation) -> list[Approximation]:
        self.check_tag(a)
        t = _domain(a.payload)
        out = []
        for u in range(t + 1):
            base = self._restriction(a.payload, u)
            for grouping in _set_partitions(len(base)):
                merged = _merge_blocks(base, grouping)
                out.append(Approximation(TAG, merged, len(merged)))
        return sorted(set(out), key=self.sort_key)

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
        return sorted(out, key=self.sort_key)

    def stems(self) -> list[Approximation]:
        out = [self.empty()]
        for t in range(1, self.max_domain + 1):
            for blocks in _set_partitions(t):
                out.append(Approximation(TAG, blocks, len(blocks)))
        return sorted(out, key=self.sort_key)

    def stem_count(self) -> int:
        return 1 + sum(_bell(t) for t in range(1, self.max_domain + 1))

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


def partition_space(max_domain: int) -> PartitionSpace:
    return PartitionSpace(max_domain)


def part_coarser(x, y) -> bool:
    """Whether x is coarser than y.

    For two approximations the domains must agree and every block of y
    must sit inside a block of x; for two stems this is the reduct
    order (smaller-or-equal domain, coarser on the restriction).
    """
    if isinstance(x, Stem) and isinstance(y, Stem):
        return x.space.fin_leq(x.top, y.top)
    if isinstance(x, Approximation) and isinstance(y, Approximation):
        if _domain(x.payload) != _domain(y.payload):
            raise ValueError("domain mismatch between partition approximations")
        return PartitionSpace._coarser(x.payload, y.payload)
    raise TypeError("arguments must be two approximations or two stems")


def _rgs_iter(n: int, k: int | None = None):
    """Restricted-growth strings of length n (exactly k classes if given)."""
    if n == 0:
        if k in (None, 0):
            yield ()
        return

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            if k is None or used == k:
                yield tuple(prefix)
            return
        remaining = n - len(prefix)
        for label in range(used + 1):
            new_used = used + (1 if label == used else 0)
            if k is not None:
                if new_used > k:
                    continue
                # Opening a class at every later position still cannot reach k.
                if new_used + (remaining - 1) < k:
                    continue
            prefix.append(label)
            yield from rec(prefix, new_used)
            prefix.pop()

    yield from rec([], 0)


def _blocks_from_rgs(rgs: tuple[int, ...]) -> Blocks:
    nb = max(rgs) + 1 if rgs else 0
    blocks = [[] for _ in range(nb)]
    for e, label in enumerate(rgs):
        blocks[label].append(e)
    return tuple(tuple(b) for b in blocks)


def _set_partitions(n: int, k: int | None = None):
    for rgs in _rgs_iter(n, k):
        yield _blocks_from_rgs(rgs)


def _merge_blocks(base: Blocks, grouping: Blocks) -> Blocks:
    merged = []
    for group in grouping:
        blk = sorted(x for i in group for x in base[i])
        merged.append(tuple(blk))
    merged.sort(key=lambda b: b[0])
    return tuple(merged)


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the standard recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def enumerate_partitions(
    n: int, k: int, ceiling: int = 1 << 22, space: PartitionSpace | None = None
) -> list[Approximation]:
    """All k-block partitions of {0..n-1}, ordered by block minima.

    Count equals the Stirling number S(n, k).
    """
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    total = stirling2(n, k)
    if total > ceiling:
        raise CeilingExceededError(
            f"enumerate_partitions({n},{k}) too large", total, ceiling
        )
    space = space or PartitionSpace(max(n, 1))
    out = [
        Approximation(TAG, blocks, len(blocks)) for blocks in _set_partitions(n, k)
    ]
    assert len(out) == total
    return sorted(out, key=space.sort_key)


def coarsenings(t: Approximation, k: int) -> list[Approximation]:
    """All k-block partitions coarser than `t` (unions of t's blocks)."""
    if t.space_tag != TAG:
        raise TypeError("expected a partition approximation")
    if k < 0 or k > t.length:
        raise ValueError("need 0 <= k <= block count")
    space = PartitionSpace(max(_domain(t.payload), 1))
    out = []
    for grouping in _set_partitions(t.length, k):
        merged = _merge_blocks(t.payload, grouping)
        out.append(Approximation(TAG, merged, k))
    return sorted(out, key=space.sort_key)
