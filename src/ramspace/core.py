"""The abstract contract shared by all spaces.

A *space* is a truncated universe of stems together with an
approximation structure.  Every infinite object of interest is
represented at finite scale by a Stem: a coherent chain of
approximations determined by its top member plus the truncation
parameters carried by the space instance.

The uniform facts this package relies on (and audits rather than
assumes, see audit.py):

  * the chain of a stem is recovered from its top by `restrict`;
  * the neighborhood [a, B] is nonempty exactly when fin_leq(a, top(B));
  * the order never puts a value below a shorter one: fin_leq(x, y)
    implies |x| <= |y|;
  * the stems of [a, B] are the extension-closure of `a` below top(B);
  * [empty, B] is fin_below(top(B)); count_below counts it, and of the
    full stem's top counts the whole truncated universe.

All values are immutable; every operation is a pure function, so
instances can be shared freely across threads.

`Space` derives from a space's tag and dataclass fields its empty
approximation and `params_str`, and its greedy hook `exclude_member`
declines by default, so an over-ceiling search refuses.

Each space implements its order once, as the row `below_test(b)`: a
predicate on payloads that says which values lie below b.  `Space`
derives `fin_leq(a, b)` from it, so every reader of the order, pairwise
or by rows, reads the same code, and the audit checks the order that
every search reads.

Two integer-id views sit on top of the contract.  `Index` gives ids
lazily, on first sight, and holds the values, their ids and lengths: a
forcing engine owns one and walks on its ids.  `Universe` is an `Index`
of a whole truncated universe with its order held as bitsets, built by
one eager sweep of the order's rows: the audit's.  It reads every
neighborhood [a, t] as a run of one walk of [empty, t] per stem top.
Each belongs to the engine or sweep that builds it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import (
    InvalidApproximationError,
    MixedSpaceError,
    NotInSpaceError,
    OutOfRangeError,
    ParseError,
)


class Approximation(NamedTuple):
    """A finite approximation of length `length` in the space `space_tag`.

    `payload` is the space-specific immutable datum; construct these
    through the owning space so the invariants are checked.

    A value is the tuple (space_tag, payload, length): it is immutable,
    and it is built, hashed and compared as a tuple, so its hash is
    hash((space_tag, payload, length)) and it equals the bare 3-tuple
    with the same fields.
    """

    space_tag: str
    payload: Any
    length: int

    def __repr__(self):
        return f"<{self.space_tag}:{self.payload!r}>"


def int_tuple(items) -> tuple[int, ...]:
    """`items` as a tuple of ints, for a space's `make`.  Anything else
    raises InvalidApproximationError: no float, bool or string is
    coerced."""
    try:
        out = tuple(items)
    except TypeError:
        out = None
    if out is None or any(type(x) is not int for x in out):
        raise InvalidApproximationError(f"not a sequence of integers: {items!r}")
    return out


class Space(ABC):
    """Contract every concrete space implements.

    Subclasses are frozen dataclasses carrying the truncation
    parameters (ground bound, field and column bound, domain bound);
    two instances with equal parameters are interchangeable.  A space
    implements its order once, as the row `below_test(b)`; `fin_leq` is
    derived from it and no space overrides it.
    """

    tag: str = "abstract"

    # ----- primitives every space provides -----

    @abstractmethod
    def make(self, payload) -> Approximation:
        """Validate a payload and wrap it; raises InvalidApproximationError."""

    @abstractmethod
    def restrict(self, a: Approximation, n: int) -> Approximation:
        """The length-n member of the chain of any stem topped by `a`.

        Defined for 0 <= n <= a.length, with restrict(a, a.length) == a.
        """

    @abstractmethod
    def below_test(self, b: Approximation) -> Callable[[Any], bool]:
        """The row of the finitization order at `b`: a predicate p on
        payloads of this space with p(a.payload) == fin_leq(a, b).

        The one implementation of the order: `fin_leq` reads it one pair
        at a time, and a caller that asks many values against one `b`
        (the audit's `Universe`, the family tests of the forcing layer,
        `build_level`) reads one row.  A row builds what it needs of `b`
        once, or on the first payload that needs it, so one read costs
        about what a pair costs.  Tags are not checked: `b` and every
        payload asked belong to this space.

        The length law: a row holds no value longer than `b`, so
        fin_leq(x, y) implies |x| <= |y|.  `closure_below` reads the
        length groups up to |b| only, the forcing verdict compares
        lengths before it reads the order, and the audit's A4(ii)
        checks the law on every down-set.
        """

    @abstractmethod
    def fin_below(self, a: Approximation, length: int | None = None) -> list[Approximation]:
        """The finite set {b : fin_leq(b, a)}, canonically ordered; with a
        `length`, only its members of that length ([] outside 0..|a|).

        Each space builds only the group asked for; the audit's A4(ii)
        checks the groups, read through `closure_below`, against the
        `fin_leq` filter of the universe.
        """

    @abstractmethod
    def extensions_below(self, a: Approximation, top: Approximation) -> Iterator[Approximation]:
        """All length-(|a|+1) approximations extending `a` below `top`,
        in canonical (`sort_key`) order: the child order of every sweep.

        The one child primitive.  Every space gives its children lazily,
        as an iterator that builds each child when it is read, so a walk
        that stops early builds only the children it read; a caller that
        needs `len`, positions or a truth test lists it.  Raises
        EmptyNeighborhoodError at the call, not at the first read, when
        `a` is not below `top` at all; yields nothing when the
        neighborhood is nonempty but the truncation admits no extension.
        """

    @abstractmethod
    def stems(self) -> list[Approximation]:
        """Every stem top in the truncated universe, canonical order."""

    @abstractmethod
    def count_below(self, a: Approximation) -> int:
        """len(fin_below(a)) in closed form, without building it."""

    @abstractmethod
    def serialize(self, a: Approximation) -> str:
        """Canonical, whitespace-free text form; round-trips via parse."""

    def parse(self, text: str) -> Approximation:
        """Inverse of serialize.  Only canonical text parses (surrounding
        whitespace aside), so every literal round-trips bit for bit."""
        t = text.strip()
        a = self._parse(t)
        canonical = self.serialize(a)
        if canonical != t:
            raise ParseError(f"non-canonical literal {text!r}; write {canonical!r}")
        return a

    @abstractmethod
    def _parse(self, text: str) -> Approximation:
        """The approximation a stripped literal names; ParseError if none."""

    @abstractmethod
    def full_stem(self) -> Stem:
        """The canonical ambient stem: every stem top lies below its top."""

    @abstractmethod
    def open_beyond(self, e: Approximation, top: Approximation) -> bool:
        """Whether chains stuck at `e` below `top` continue past the
        stem's materialized data (so their future is genuinely open).

        When `e` ends strictly inside the materialization, the stem's
        own data already determines every continuation and an exhausted
        chain is definitively accounted for.  Each space reads it off
        the two payloads.
        """

    # ----- derived operations -----

    def empty(self) -> Approximation:
        """The unique length-0 approximation."""
        return Approximation(self.tag, (), 0)

    def params_str(self) -> str:
        """`space=<tag>` and each truncation field as `name=value`, in
        field order: the mapping `spaces.space_from_params` reads."""
        pairs = (f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return ";".join([f"space={self.tag}", *pairs])

    def exclude_member(self, top: Approximation, member: Approximation):
        """A top below `top` whose down-set misses `member`, for a search
        too large to sweep its reducts; None when the space has no such
        greedy edit, and then the search refuses with its estimate."""
        return None

    def fin_leq(self, a: Approximation, b: Approximation) -> bool:
        """The finitization quasi-order on approximations: the row
        `below_test(b)` read at `a`, after both tags are checked."""
        if a.space_tag != self.tag or b.space_tag != self.tag:
            self.check_tag(a)
            self.check_tag(b)
        return self.below_test(b)(a.payload)

    def check_tag(self, a: Approximation) -> None:
        if a.space_tag != self.tag:
            raise MixedSpaceError(
                f"approximation from space {a.space_tag!r} used in {self.tag!r}"
            )

    def sort_key(self, a: Approximation):
        """The canonical order of every sweep: shorter first, then by payload
        as a tuple (ascending ints, RREF rows or restricted-growth labels)."""
        return (a.length, a.payload)

    def chain(self, top: Approximation) -> list[Approximation]:
        return [self.restrict(top, i) for i in range(top.length + 1)]

    def closure_below(self, a: Approximation) -> list[Approximation]:
        """`fin_below(a)` read as its length groups `fin_below(a, k)` for
        k from 0 to |a|, shortest first: the groups every search reads.
        `Universe` reads each down-set through it, so the audit's A4(ii)
        checks the groups against the `fin_leq` filter."""
        return [b for k in range(a.length + 1) for b in self.fin_below(a, k)]

    def iter_neighborhood(
        self, a: Approximation, top: Approximation
    ) -> Iterator[tuple[Approximation, int]]:
        """Tops of all stems in [a, stem(top)], canonical depth-first
        order, each paired with its depth: its number of extension steps
        from `a`.

        These are exactly the approximations reachable from `a` by
        repeated extension below `top` (each one, viewed as a stem, has
        `a` in its chain and lies below `top`).  Being a preorder, the
        walk puts each value's own neighborhood [c, stem(top)] in one
        run: c and the values after it, up to the next one no deeper
        than c.
        """
        self.check_tag(a)
        self.check_tag(top)
        if not self.fin_leq(a, top):
            return
        # One child iterator per level: the depth is the stack height.
        stack = [iter((a,))]
        while stack:
            for cur in stack[-1]:
                yield cur, len(stack) - 1
                stack.append(iter(self.extensions_below(cur, top)))
                break
            else:
                stack.pop()


@dataclass(frozen=True)
class Stem:
    """A truncated space element: the coherent chain r_0, ..., r_N.

    The chain is determined by its top approximation; the truncation
    parameters live on the space instance.
    """

    space: Space
    top: Approximation

    def __post_init__(self):
        self.space.check_tag(self.top)

    @property
    def length(self) -> int:
        return self.top.length

    def approx(self, n: int) -> Approximation:
        """The length-n approximation r_n of this stem."""
        if n < 0 or n > self.length:
            raise OutOfRangeError(
                f"approximation index {n} beyond truncation (chain length {self.length})"
            )
        return self.space.restrict(self.top, n)

    def depth(self, a: Approximation) -> int:
        """Least n with fin_leq(a, r_n); raises NotInSpaceError if none."""
        self.space.check_tag(a)
        for n in range(self.length + 1):
            if self.space.fin_leq(a, self.approx(n)):
                return n
        raise NotInSpaceError(
            f"{self.space.serialize(a)} is not below any approximation of the stem"
        )

    def serialize(self) -> str:
        return self.space.serialize(self.top)

    def __repr__(self):
        return f"Stem({self.space.params_str()}, {self.serialize()})"


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Index:
    """Lazy integer ids for the approximations of one space.

    A value gets the next free id the first time it is indexed:
    `items[i]` is the value with id i, `index` maps each value to its
    id and `lengths[i]` is its length.  Nothing is swept up front, so an
    index costs only the values its owner meets.  The engine or sweep
    that builds an index owns it; nothing is shared between them.
    """

    def __init__(self, space: Space):
        self.space = space
        self.items: list[Approximation] = []
        self.index: dict[Approximation, int] = {}
        self.lengths: list[int] = []

    def id(self, a: Approximation) -> int:
        i = self.index.get(a)
        return self._add(a) if i is None else i

    def ids(self, values: Iterable[Approximation]) -> list[int]:
        return [self.id(a) for a in values]

    def _add(self, a: Approximation) -> int:
        i = len(self.items)
        self.items.append(a)
        self.index[a] = i
        self.lengths.append(a.length)
        return i


class Universe(Index):
    """An `Index` of one whole truncated universe, its order held as
    bitsets.

    The universe is the union of the down-sets of `space.stems()`; id i
    is its i-th member in `sort_key` order.  Each down-set is read as
    its length groups (`closure_below`), once per stem top, and kept as
    its `below` answer.  Construction reads the order's row
    `below_test(items[j])` once per value, at every payload of the
    universe: bit i of `down[j]` is set iff fin_leq(items[i], items[j]),
    and `up` is the transpose.  `tops` holds the ids of `space.stems()`
    and `chains` maps each of them to the ids of its chain.

    A value outside the universe (only a space that breaks its own
    contract produces one) gets the next free id when first indexed,
    with its order bits asked of its row and of `fin_leq` against every
    indexed value, so each bit is always a primitive answer.  `below`
    keeps each `closure_below` answer and `neighborhood` each
    [base, top] mask, as asked, for the life of the index.

    Neighborhoods are read from one walk per stem top.  The first time
    a top is asked for, [empty, top] is walked through `iter_neighborhood`
    and kept with, for each position, where its run ends: the run is the
    position and the positions after it up to the next one that is no
    deeper.  Depth is read from the walk, not from lengths, which a
    space that breaks its own contract need not keep in step with it.
    In a preorder that run is the walk of [value, top], so
    [base, top] is base's run from its first position.  A base that
    `down` puts outside top has the empty walk, as `iter_neighborhood`'s
    guard gives; a base the walk never reached (only a space that breaks
    its own contract has one) is walked directly and its run appended.
    """

    def __init__(self, space: Space):
        super().__init__(space)
        stems = space.stems()
        # Held answers share one object per value until they get ids,
        # so keeping every answer costs a reference per entry.
        seen: dict[Approximation, Approximation] = {}
        answers = [[seen.setdefault(b, b) for b in space.closure_below(t)] for t in stems]
        for a in sorted(seen, key=space.sort_key):
            super()._add(a)
        self.size = len(self.items)
        payloads = [a.payload for a in self.items]
        self.down: list[int] = []
        self.up = up = [0] * self.size
        for j, b in enumerate(self.items):
            bit = 1 << j
            mask = 0
            for i, below in enumerate(map(space.below_test(b), payloads)):
                if below:
                    mask |= 1 << i
                    up[i] |= bit
            self.down.append(mask)
        self.tops = self.ids(stems)
        self.chains = {t: self.ids(space.chain(self.items[t])) for t in self.tops}
        self._below = {t: self.ids(below) for t, below in zip(self.tops, answers)}
        self._nbhd: dict[tuple[int, int], tuple[int, int]] = {}
        # top -> (ids in walk order, run end of each position,
        # first position of each id)
        self._walks: dict[int, tuple[list[int], list[int], dict[int, int]]] = {}

    def _add(self, a: Approximation) -> int:
        leq, below = self.space.fin_leq, self.space.below_test(a)
        i = super()._add(a)
        bit = 1 << i
        self.down.append(0)
        self.up.append(0)
        for j, b in enumerate(self.items):
            if below(b.payload):
                self.down[i] |= 1 << j
                self.up[j] |= bit
            if j != i and leq(a, b):
                self.up[i] |= 1 << j
                self.down[j] |= bit
        return i

    def below(self, a: int) -> list[int]:
        """Ids of the down-set of `items[a]`, its length groups shortest
        first (`space.closure_below`), in the order they give them."""
        out = self._below.get(a)
        if out is None:
            out = self._below[a] = self.ids(self.space.closure_below(self.items[a]))
        return out

    def depth(self, a: int, top: int) -> int:
        """Least n with `a` below the length-n member of the chain of `top`."""
        for n, c in enumerate(self.chains[top]):
            if self.down[c] >> a & 1:
                return n
        raise NotInSpaceError(
            f"{self.space.serialize(self.items[a])} is not below any "
            f"approximation of the stem"
        )

    def walk(self, base: int, top: int) -> list[int]:
        """Ids of [base, top] in `iter_neighborhood` order: base's run in
        the walk of top."""
        if not self.down[top] >> base & 1:
            return []
        walked = self._walks.get(top)
        if walked is None:
            walked = self._walks[top] = ([], [], {})
            self._extend(walked, self.space.empty(), top)
        order, ends, first = walked
        start = first.get(base)
        if start is None:
            start = len(order)
            self._extend(walked, self.items[base], top)
        return order[start:ends[start]]

    def neighborhood(self, base: int, top: int) -> tuple[int, int]:
        """[base, top] as an id bitmask, with the number of values its
        walk yields."""
        got = self._nbhd.get((base, top))
        if got is None:
            walk = self.walk(base, top)
            mask = 0
            for i in walk:
                mask |= 1 << i
            got = self._nbhd[base, top] = (mask, len(walk))
        return got

    def _extend(self, walked, a: Approximation, top: int) -> None:
        """Append the walk of [a, top] to `walked`, with its run ends."""
        order, ends, first = walked
        index = self.index
        path: list[int] = []  # positions on the walk's current branch
        for value, depth in self.space.iter_neighborhood(a, self.items[top]):
            p = len(order)
            if depth < len(path):
                for q in path[depth:]:
                    ends[q] = p
                del path[depth:]
            path.append(p)
            i = index.get(value)
            if i is None:
                i = self._add(value)
            order.append(i)
            ends.append(p)
            first.setdefault(i, p)
        for q in path:
            ends[q] = len(order)
