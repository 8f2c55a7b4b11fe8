"""The dual space: infinite partitions of N ordered by coarsening,
truncated to partitions of a finite initial segment.

An approximation of length n is an ordered partition of {0,...,t-1}
into n blocks listed by increasing minimum; t records where block n of
the represented infinite partition begins.  The length-n member of a
stem's chain cuts the first n blocks at the minimum of block n.

The payload is the partition's label tuple: entry e is the index of
the block holding e.  Blocks are listed by increasing minimum, so the
tuple is a restricted-growth string (each entry at most one more than
every entry before it), and each partition has exactly one.  The
domain t is the tuple's length and the block count is its largest
label plus one.  `make` takes blocks, the layout of the text form.

Finitization: s is below t when s partitions a smaller initial segment
and is coarser than t restricted to that segment: on s's domain, t's
label of an element determines s's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import Approximation, Space, Stem, int_tuple
from ..errors import EmptyNeighborhoodError, InvalidApproximationError, ParseError

TAG = "partition"


def _approx(labels: tuple[int, ...]) -> Approximation:
    return Approximation(TAG, labels, max(labels, default=-1) + 1)


def _blocks(labels: tuple[int, ...]) -> list[list[int]]:
    """The blocks a label tuple names, by increasing minimum."""
    blocks = [[] for _ in range(max(labels, default=-1) + 1)]
    for e, j in enumerate(labels):
        blocks[j].append(e)
    return blocks


@dataclass(frozen=True)
class PartitionSpace(Space):
    """Ordered partitions of {0..t-1} for t <= max_domain, each held as
    its restricted-growth label tuple; `make` takes blocks."""

    max_domain: int

    tag = TAG

    def __post_init__(self):
        if self.max_domain < 1:
            raise ValueError("max_domain must be >= 1")

    def empty(self) -> Approximation:
        return Approximation(TAG, (), 0)

    def make(self, payload) -> Approximation:
        """The approximation whose blocks are `payload`: blocks of ints
        listed by increasing minimum that partition {0..t-1}."""
        try:
            blocks = [sorted(int_tuple(b)) for b in payload]
        except TypeError:
            raise InvalidApproximationError(
                f"not a sequence of blocks: {payload!r}"
            ) from None
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
        labels = [0] * t
        for j, b in enumerate(blocks):
            for x in b:
                labels[x] = j
        return Approximation(TAG, tuple(labels), len(blocks))

    def restrict(self, a: Approximation, n: int) -> Approximation:
        self.check_tag(a)
        if n < 0 or n > a.length:
            raise InvalidApproximationError(f"restrict index {n} out of range")
        if n == a.length:
            return a
        return Approximation(TAG, a.payload[: a.payload.index(n)], n)

    def fin_leq(self, a: Approximation, b: Approximation) -> bool:
        self.check_tag(a)
        self.check_tag(b)
        la, lb = a.payload, b.payload
        if len(la) > len(lb):
            return False
        return len(set(zip(lb, la))) == len(set(lb[: len(la)]))

    def fin_below(self, a: Approximation) -> list[Approximation]:
        self.check_tag(a)
        out = []
        for u in range(len(a.payload) + 1):
            cut = a.payload[:u]
            for g in _rgs_iter(max(cut, default=-1) + 1):
                out.append(_approx(tuple(g[x] for x in cut)))
        return sorted(out, key=self.sort_key)

    def extensions_below(self, a, top) -> list[Approximation]:
        self.check_tag(a)
        self.check_tag(top)
        if not self.fin_leq(a, top):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        stem = top.payload
        ta, n = len(a.payload), a.length
        # Block n of any extension starts at ta, so ta must begin a
        # block of the stem's partition: its label k is new there.
        if ta >= len(stem) or stem[ta] in stem[:ta]:
            return []
        k = stem[ta]
        # The stem blocks that began before ta keep a's labels and the
        # one at ta gets label n; each later one takes any label 0..n.
        forced = [label for _, label in sorted(set(zip(stem, a.payload)))] + [n]
        out = []
        for t2 in range(ta + 1, len(stem) + 1):
            cut = stem[:t2]
            free = max(cut) - k
            for assignment in itertools.product(range(n + 1), repeat=free):
                label_of = forced + list(assignment)
                out.append(Approximation(TAG, tuple(label_of[x] for x in cut), n + 1))
        return sorted(out, key=self.sort_key)

    def stems(self) -> list[Approximation]:
        out = [
            _approx(g) for t in range(self.max_domain + 1) for g in _rgs_iter(t)
        ]
        return sorted(out, key=self.sort_key)

    def stem_count(self) -> int:
        # The partitions of each domain size t are counted by the Bell
        # number B(t), the first entry of row t of the Bell triangle.
        total, row = 1, [1]
        for _ in range(self.max_domain):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
            total += row[0]
        return total

    def serialize(self, a: Approximation) -> str:
        self.check_tag(a)
        inner = ",".join(
            "{" + ",".join(map(str, b)) + "}" for b in _blocks(a.payload)
        )
        return f"({inner})"

    def _parse(self, text: str) -> Approximation:
        # Only the canonical layout "({0,2},{1})" splits into blocks;
        # `parse` rejects any other text naming a valid partition.
        if text == "()":
            return self.empty()
        if not (text.startswith("({") and text.endswith("})")):
            raise ParseError(f"bad partition literal: {text!r}")
        try:
            blocks = [
                [int(x) for x in b.split(",")] for b in text[2:-2].split("},{")
            ]
        except ValueError as e:
            raise ParseError(f"bad partition literal: {text!r}") from e
        try:
            return self.make(blocks)
        except ValueError as e:
            raise ParseError(f"not a valid partition approximation: {text!r}") from e

    def params_str(self) -> str:
        return f"space={TAG};max_domain={self.max_domain}"

    def full_stem(self) -> Stem:
        """The stem of singleton blocks {0},...,{max_domain-1}."""
        return Stem(self, _approx(tuple(range(self.max_domain))))

    # Kept only because perfbench/workloads.py calls it.
    discrete_stem = full_stem

    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        return len(e.payload) == len(top.payload)


def partition_space(max_domain: int) -> PartitionSpace:
    return PartitionSpace(max_domain)


def _rgs_iter(n: int):
    """Restricted-growth strings of length n."""

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for label in range(used + 1):
            prefix.append(label)
            yield from rec(prefix, used + (label == used))
            prefix.pop()

    yield from rec([], 0)
