"""The space of infinite subsets of N, truncated to a finite ground set.

Stems are finite strictly increasing subsets of {0, ..., ground-1};
the length-n approximation of a stem is its first n elements, and the
finitization is plain set inclusion.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

from ..core import Approximation, Space, Stem
from ..errors import (
    EmptyNeighborhoodError,
    InvalidApproximationError,
    ParseError,
)

TAG = "ellentuck"

# Builds an `Approximation` from its field tuple in C, without the
# NamedTuple's Python-level `__new__`.
_new = tuple.__new__


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
        return _new(Approximation, (TAG, a.payload[:n], n))

    def fin_leq(self, a: Approximation, b: Approximation) -> bool:
        if a.space_tag != TAG or b.space_tag != TAG:
            self.check_tag(a)
            self.check_tag(b)
        return set(b.payload).issuperset(a.payload)

    def fin_below(self, a: Approximation) -> list[Approximation]:
        self.check_tag(a)
        out = []
        for k in range(a.length + 1):
            for sub in itertools.combinations(a.payload, k):
                out.append(Approximation(TAG, sub, k))
        return sorted(out, key=self.sort_key)

    def extensions_below(self, a, top) -> list[Approximation]:
        if a.space_tag != TAG or top.space_tag != TAG:
            self.check_tag(a)
            self.check_tag(top)
        payload = a.payload
        if payload and not set(top.payload).issuperset(payload):
            raise EmptyNeighborhoodError(
                f"[{self.serialize(a)}, {self.serialize(top)}] is empty"
            )
        # The children add the elements of `top` past the last one of
        # `a`: a slice of `top`'s payload, which `sorted` gives back in
        # one linear pass when it is ascending, as every payload `make`
        # accepts is.
        kids = sorted(top.payload)
        kids = kids[bisect_right(kids, payload[-1] if payload else -1):]
        # Siblings share their serialized prefix, so `sort_key` order is
        # the order of the text "x}" that ends each child.  That is
        # numeric order only while every child is a digit: "10}" < "1}"
        # < "2}", and "-12}" < "-1}" < "0}".
        if kids and (kids[0] < 0 or kids[-1] > 9):
            kids.sort(key=_closing_text)
        n = a.length + 1
        return [_new(Approximation, (TAG, payload + (x,), n)) for x in kids]

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
