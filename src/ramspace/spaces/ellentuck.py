"""The space of infinite subsets of N, truncated to a finite ground set.

Stems are finite strictly increasing subsets of {0, ..., ground-1};
the length-n approximation of a stem is its first n elements, and the
finitization is plain set inclusion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import Approximation, Space, Stem
from ..errors import (
    EmptyNeighborhoodError,
    InvalidApproximationError,
    ParseError,
)

TAG = "ellentuck"


def _closing_text(x: int) -> str:
    """The text "x}" that ends the serialization of a child adding x."""
    return f"{x}}}"


@dataclass(frozen=True)
class EllentuckSpace(Space):
    ground: int

    tag = TAG

    def __post_init__(self):
        if self.ground < 1:
            raise ValueError("ground bound must be >= 1")

    def empty(self) -> Approximation:
        return Approximation(TAG, (), 0)

    def make(self, payload) -> Approximation:
        elems = tuple(int(x) for x in payload)
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
        return Approximation(TAG, a.payload[:n], n)

    def fin_leq(self, a: Approximation, b: Approximation) -> bool:
        self.check_tag(a)
        self.check_tag(b)
        return set(a.payload) <= set(b.payload)

    def fin_below(self, a: Approximation) -> list[Approximation]:
        self.check_tag(a)
        out = []
        for k in range(a.length + 1):
            for sub in itertools.combinations(a.payload, k):
                out.append(Approximation(TAG, sub, k))
        return sorted(out, key=self.sort_key)

    def extensions_below(self, a, top) -> list[Approximation]:
        if a.space_tag != self.tag or top.space_tag != self.tag:
            self.check_tag(a)
            self.check_tag(top)
        payload = a.payload
        if payload and not set(payload).issubset(top.payload):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        last = payload[-1] if payload else -1
        kids = [x for x in top.payload if x > last]
        # Siblings share their serialized prefix, so `sort_key` order is
        # the order of the text "x}" that ends each child.  That is
        # numeric order only while every child is a digit: "10}" < "1}"
        # < "2}", and "-12}" < "-1}" < "0}".
        if kids and (min(kids) < 0 or max(kids) > 9):
            kids.sort(key=_closing_text)
        else:
            kids.sort()
        n = a.length + 1
        return [Approximation(TAG, payload + (x,), n) for x in kids]

    def stems(self) -> list[Approximation]:
        out = []
        universe = range(self.ground)
        for k in range(self.ground + 1):
            for sub in itertools.combinations(universe, k):
                out.append(Approximation(TAG, sub, k))
        return sorted(out, key=self.sort_key)

    def stem_count(self) -> int:
        return 2**self.ground

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

    def params_str(self) -> str:
        return f"space={TAG};ground={self.ground}"

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


def ell_space(ground_bound: int) -> EllentuckSpace:
    """Construct the truncated Ellentuck-style space on {0..ground_bound-1}."""
    return EllentuckSpace(ground_bound)
