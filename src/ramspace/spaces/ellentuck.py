"""The space of infinite subsets of N, truncated to a finite ground set.

Stems are finite strictly increasing subsets of {0, ..., ground-1};
the length-n approximation of a stem is its first n elements, and the
finitization is plain set inclusion.  Children are given lazily, as on
every space, so a walk that stops early below a large top builds only
the children it reads.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

from ..core import Approximation, Space, Stem, int_tuple
from ..errors import (
    EmptyNeighborhoodError,
    InvalidApproximationError,
    ParseError,
)

TAG = "ellentuck"

# Builds an `Approximation` from its field tuple in C, without the
# NamedTuple's Python-level `__new__`.
_new = tuple.__new__


@dataclass(frozen=True)
class EllentuckSpace(Space):
    ground: int

    tag = TAG

    def __post_init__(self):
        if self.ground < 1:
            raise ValueError("ground bound must be >= 1")

    def make(self, payload) -> Approximation:
        elems = int_tuple(payload)
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise InvalidApproximationError(f"not strictly increasing: {elems}")
        if elems and (elems[0] < 0 or elems[-1] >= self.ground):
            raise InvalidApproximationError(
                f"elements outside ground [0, {self.ground}): {elems}"
            )
        return Approximation(TAG, elems, len(elems))

    def restrict(self, a: Approximation, n: int) -> Approximation:
        self.check_tag(a)
        if n < 0 or n > a.length:
            raise InvalidApproximationError(f"restrict index {n} out of range")
        return _new(Approximation, (TAG, a.payload[:n], n))

    def below_test(self, b: Approximation):
        return set(b.payload).issuperset

    def fin_below(self, a, length=None) -> list[Approximation]:
        # Combinations of an ascending payload come in canonical order.
        # Only the group asked for is built, each value as `restrict`
        # builds it; a length outside 0..|a| has none.
        self.check_tag(a)
        if length is None:
            lengths = range(a.length + 1)
        else:
            lengths = (length,) if 0 <= length <= a.length else ()
        return [
            _new(Approximation, (TAG, sub, k))
            for k in lengths
            for sub in itertools.combinations(a.payload, k)
        ]

    def extensions_below(self, a, top):
        if a.space_tag != TAG or top.space_tag != TAG:
            self.check_tag(a)
            self.check_tag(top)
        payload = a.payload
        if payload and not set(top.payload).issuperset(payload):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        # The children add the elements of `top` past the last one of `a`,
        # in numeric order; `sorted` is one pass over an ascending payload.
        kids = sorted(top.payload)
        kids = kids[bisect_right(kids, payload[-1] if payload else -1):]
        n = a.length + 1
        return map(lambda x: _new(Approximation, (TAG, payload + (x,), n)), kids)

    def stems(self) -> list[Approximation]:
        return [
            Approximation(TAG, sub, k)
            for k in range(self.ground + 1)
            for sub in itertools.combinations(range(self.ground), k)
        ]

    def count_below(self, a: Approximation) -> int:
        self.check_tag(a)
        return 2**a.length

    def serialize(self, a: Approximation) -> str:
        self.check_tag(a)
        return "{" + ",".join(str(x) for x in a.payload) + "}"

    def _parse(self, text: str) -> Approximation:
        if not (text.startswith("{") and text.endswith("}")):
            raise ParseError(f"bad set literal: {text!r}")
        body = text[1:-1]
        if not body:
            return self.empty()
        try:
            elems = tuple(int(x) for x in body.split(","))
        except ValueError as e:
            raise ParseError(f"bad set literal: {text!r}") from e
        return self.make(elems)

    def full_stem(self) -> Stem:
        """The stem on the whole ground set."""
        return Stem(self, self.make(range(self.ground)))

    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        if not top.payload:
            return True
        return top.payload[-1] in e.payload

    def exclude_member(self, top: Approximation, member: Approximation):
        """Smallest edit of `top` taking `member` out of its down-set.

        Used by large-universe searches that cannot sweep all reducts:
        dropping the largest element of a nonempty subset removes it
        from the down-set while keeping the stem as long as possible.
        """
        if not member.payload:
            return None
        remove = member.payload[-1]
        rest = tuple(x for x in top.payload if x != remove)
        return Approximation(TAG, rest, len(rest))
