"""The paper's fusion and pigeonhole steps, as test oracles.

`fusion` iterates a per-level refinement rule and returns the diagonal
stem; `rejection_witness` is the pigeonhole step below a rejecting
pair.  Both lived in the package's forcing module, where no search
called them; `galvin_search` grows its rejecting sequence by asking
verdicts instead.  `test_forcing.py` checks `fusion`, and criterion 6
checks the witness law on the package engine's verdicts through
`rejection_witness`, which reads its neighborhood from the length
groups of `fin_below` and sweeps nothing; `test_forcing_engine.py`
checks that it returns the witness of the full longest-first scan.

`closure_below` and `frontier_walk` are the package's breadth-first
extension closure and recursive hit-frontier walk as they were before
both read their sets from `fin_below` and the family; the tests
compare the package against them.  `longest_family_free` is the
alternative-1 stem of the dichotomy search, found by brute force.
"""

from __future__ import annotations

from typing import Callable

from ramspace.core import Approximation, Stem
from ramspace.errors import RamspaceError
from ramspace.forcing import ChainStatus, ForcingEngine


class FusionExhaustedError(RamspaceError):
    """Raised when a fusion step cannot produce a refinement at some level."""

    def __init__(self, level: int, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"fusion exhausted at level {level}{detail}")
        self.level = level


def rejection_witness(
    engine: ForcingEngine, stem: Stem, a: Approximation
) -> Stem | None:
    """A preserved-depth reduct below which no one-step extension of
    `a` is accepted by `stem`.  Mirrors the pigeonhole step of the
    classical argument; tried longest-first so witnesses with
    nonempty extension sets are preferred.

    [prefix, top] is read one length group of `fin_below(top, k)` at a
    time, longest first, keeping the values whose chain passes through
    the prefix: the longest-first order, with nothing swept ahead of
    the reduct that is tested."""
    space = engine.space
    top = stem.top
    prefix = space.restrict(top, stem.depth(a))
    for k in range(top.length, prefix.length - 1, -1):
        for t in space.fin_below(top, k):
            if space.restrict(t, prefix.length) != prefix or not space.fin_leq(a, t):
                continue
            exts = space.extensions_below(a, t)
            if all(
                engine.chain_status(top, b) is not ChainStatus.ALL_HIT for b in exts
            ):
                return Stem(space, t)
    return None


def closure_below(space, a: Approximation, max_length: int | None = None):
    """Extension-closure of the empty approximation below `a`, in
    canonical order: levels of increasing length, each sorted by payload
    here rather than by the package's key, up to `max_length` when it
    is given.  This is `Space.closure_below` as it was built before it
    read the length groups of `fin_below`."""
    out = []
    frontier = [space.empty()]
    while frontier:
        out.extend(frontier)
        if max_length is not None and frontier[0].length >= max_length:
            break
        nxt = []
        for c in frontier:
            nxt.extend(space.extensions_below(c, a))
        frontier = sorted(nxt, key=lambda b: b.payload)
    return out


def longest_family_free(space, top: Approximation, members) -> Approximation:
    """The longest value of `fin_below(top)` that no member lies below,
    ties broken by payload: the first of the `fin_leq` filter sorted by
    (-length, payload).  The empty value qualifies unless it is a
    member."""
    free = [t for t in space.fin_below(top) if not any(space.fin_leq(f, t) for f in members)]
    return min(free, key=lambda t: (-t.length, t.payload))


def frontier_walk(
    engine: ForcingEngine, top: Approximation
) -> list[tuple[Approximation, int]]:
    """Hit frontier below an accepting stem: one entry per pruned chain,
    carrying the index at which the chain meets the family.  This is
    the package's `_frontier` as it was built before it read the
    frontier from the family: a walk of every chain below `top`."""
    space = engine.space
    out = []

    def rec(c: Approximation):
        idx = engine.hit_index(c)
        if idx is not None:
            out.append((c, idx))
            return
        children = list(space.extensions_below(c, top))
        assert children, "acceptance certificate with an exhausted chain"
        for d in children:
            rec(d)

    rec(space.empty())
    return out


def fusion(
    B0: Stem,
    step: Callable[[int, Stem], Stem | None],
    levels: int,
) -> Stem:
    """Iterate a per-level refinement rule and return the diagonal stem.

    At level n (1-based) the rule must produce a reduct of the previous
    stem whose chain agrees with it up to index n-1; the final stem then
    agrees with the level-n stem at every index n <= levels, which is
    asserted.  A failing step raises FusionExhaustedError at its level.
    """
    space = B0.space
    current = B0
    level_approx: list[Approximation] = [B0.approx(0)]
    for n in range(1, levels + 1):
        try:
            nxt = step(n, current)
        except FusionExhaustedError:
            raise
        except Exception as e:  # a step signalling failure by raising
            raise FusionExhaustedError(n, str(e)) from e
        if nxt is None:
            raise FusionExhaustedError(n, "step produced no refinement")
        if nxt.space != space:
            raise FusionExhaustedError(n, "step changed the space")
        if not space.fin_leq(nxt.top, current.top):
            raise FusionExhaustedError(n, "step output is not a reduct")
        # Preserve the chain up to n-1 (or as far as the truncation goes).
        p = min(n - 1, current.length)
        if nxt.length < p or nxt.approx(p) != current.approx(p):
            raise FusionExhaustedError(n, "step output breaks the preserved prefix")
        current = nxt
        if current.length >= n:
            level_approx.append(current.approx(n))
    for i, a in enumerate(level_approx):
        assert current.approx(i) == a, "diagonal property violated"
    return current
