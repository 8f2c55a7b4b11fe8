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

    def below_test(self, b: Approximation):
        # A domain-u payload is below b when b's labels on 0..u-1 pair
        # with its own as a function: as many pairs as b has blocks
        # there.  b's block count on a prefix is counted on the first
        # payload of that domain, so one call costs one pair's work.
        lb = b.payload
        blocks: dict[int, int] = {}

        def below(la) -> bool:
            u = len(la)
            if u > len(lb):
                return False
            count = blocks.get(u)
            if count is None:
                count = blocks[u] = len(set(lb[:u]))
            return len(set(zip(lb, la))) == count

        return below

    def fin_below(self, a, length=None) -> list[Approximation]:
        self.check_tag(a)
        if length is not None:
            return _coarsenings(a.payload, length)
        return [b for k in range(a.length + 1) for b in _coarsenings(a.payload, k)]

    def extensions_below(self, a, top):
        if not self.fin_leq(a, top):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        return _children(a.payload, top.payload, a.length)

    def stems(self) -> list[Approximation]:
        out = [_approx(g) for t in range(self.max_domain + 1) for g in _rgs_iter(t)]
        return sorted(out, key=self.sort_key)

    def count_below(self, a: Approximation) -> int:
        # Each cut of a's domain with b blocks is coarsened in B(b) ways:
        # the Bell number B(b) is the first entry of row b of the Bell
        # triangle.  A cut's block count is its largest label plus one.
        self.check_tag(a)
        bell, row = [1], [1]
        for _ in range(a.length):
            row = list(itertools.accumulate(row, initial=row[-1]))
            bell.append(row[0])
        return sum(bell[m + 1] for m in itertools.accumulate(a.payload, max, initial=-1))

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

    def full_stem(self) -> Stem:
        """The stem of singleton blocks {0},...,{max_domain-1}."""
        return Stem(self, _approx(tuple(range(self.max_domain))))

    # Kept only because perfbench/workloads.py calls it.
    discrete_stem = full_stem

    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        return len(e.payload) == len(top.payload)


def _children(labels_a: tuple[int, ...], stem: tuple[int, ...], n: int):
    """The (n+1)-block coarsenings of cuts of `stem` that extend the
    n-block partition `labels_a`, in canonical order: a cut's labels are
    a prefix of every longer cut's, so each comes before those that also
    label the next stem block, by that label (a preorder, no recursion)."""
    ta = len(labels_a)
    # Block n of any extension starts at ta, so ta must begin a
    # block of the stem's partition: its label k is new there.
    if ta >= len(stem) or stem[ta] in stem[:ta]:
        return
    # The stem blocks that began before ta keep a's labels and the
    # one at ta gets label n; each later one takes any label 0..n.
    labels = [label for _, label in sorted(set(zip(stem, labels_a)))] + [n]
    first = [stem.index(j) for j in range(max(stem) + 1)] + [len(stem)]
    k = b = len(labels) - 1
    while True:
        row = tuple(labels[x] for x in stem[: first[b + 1]])
        for t in range(first[b] + 1, first[b + 1] + 1):
            yield Approximation(TAG, row[:t], n + 1)
        if b + 2 < len(first):
            labels.append(0)
            b += 1
            continue
        while b > k and labels[-1] == n:
            labels.pop()
            b -= 1
        if b == k:
            return
        labels[-1] += 1


def _coarsenings(stem: tuple[int, ...], k: int) -> list[Approximation]:
    """The k-block coarsenings of the cuts of `stem`, in canonical order:
    `fin_below` of its partition, length group k.

    One depth-first pass over the stem's labels builds each coarsening's
    labels entry by entry.  An entry whose stem block was met before
    takes that block's label; one that opens a stem block takes any
    label in use, or a new one while fewer than k are.  A prefix with k
    labels is emitted before its extensions, and labels are tried in
    increasing order, so the group comes out sorted.  A branch stops
    once the stem blocks it has not met are too few to open k labels."""
    t, blocks = len(stem), max(stem, default=-1) + 1
    out = []

    def grow(labels: tuple[int, ...], image: tuple[int, ...], used: int) -> None:
        # image[j] is the label of stem block j; `used` labels are open.
        if used + blocks - len(image) < k:
            return
        while True:
            if used == k:
                out.append(Approximation(TAG, labels, k))
            if len(labels) == t:
                return
            j = stem[len(labels)]
            if j == len(image):
                break
            labels += (image[j],)
        for label in range(used + (used < k)):
            grow(labels + (label,), image + (label,), used + (label == used))

    grow((), (), 0)
    return out


def _rgs_iter(n: int):
    """Restricted-growth strings of length n, in lexicographic order."""

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for label in range(used + 1):
            prefix.append(label)
            yield from rec(prefix, used + (label == used))
            prefix.pop()

    yield from rec([], 0)
