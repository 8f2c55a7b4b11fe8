"""The audit's pair loops as they were before its laws read rows, as
test oracles.

Each function reads a `core.Universe` one (top, value) pair or one
(b, c) pair at a time, with the depth of each pair found by scanning
the top's chain (`depth`, the scan `Universe.depth` makes).  The
package's laws read per-top depth lists (`Universe.depths`), count a
transitivity row that holds at once and read each A5(ii) candidate's
mask once per (top, value); `test_audit.py` checks that they give the
same counts, first counterexamples and errors as these loops.
"""

from __future__ import annotations

from ramspace.core import iter_bits
from ramspace.errors import NotInSpaceError


def depth(uni, a, top):
    """Least n with `a` below the length-n member of the chain of `top`,
    found by scanning the chain."""
    for n, c in enumerate(uni.chains[top]):
        if uni.down[c] >> a & 1:
            return n
    raise NotInSpaceError(
        f"{uni.space.serialize(uni.items[a])} is not below any "
        f"approximation of the stem"
    )


def transitivity(uni, cap):
    """Check triples a <= b <= c, with a over fin_below(b), until `cap`
    are counted; returns the count and the first failure's text."""
    down, universe = uni.down, (1 << uni.size) - 1
    checked = 0
    for b in range(uni.size):
        lefts = uni.below(b)
        for c in iter_bits(uni.up[b] & universe):
            take = min(len(lefts), max(cap - checked, 1))
            if down[b] & universe & ~down[c]:
                for k, a in enumerate(lefts[:take]):
                    if not down[c] >> a & 1:
                        ser = uni.space.serialize
                        items = uni.items
                        return checked + k + 1, (
                            f"transitivity fails: {ser(items[a])} <= "
                            f"{ser(items[b])} <= {ser(items[c])}"
                        )
            checked += take
            if take and checked >= cap:
                return checked, None
    return checked, None


def depth_law(uni):
    """The length <= depth law over every (top, value) pair: the pairs
    checked, the violations and the first violation's text."""
    space, items = uni.space, uni.items
    checked = 0
    violations = 0
    witness = None
    for t in uni.tops:
        for a in uni.below(t):
            checked += 1
            d = depth(uni, a, t)
            if items[a].length > d:
                violations += 1
                witness = witness or (
                    f"stem {space.serialize(items[t])}, "
                    f"a={space.serialize(items[a])}, depth={d}"
                )
    return checked, violations, witness


def _witness(uni, t, a, b_top):
    ser, items = uni.space.serialize, uni.items
    return f"stem {ser(items[t])}, a={ser(items[a])}, B={ser(items[b_top])}"


def amalgamation_i(uni, bounds):
    """A5(i): the instances counted and the first failure's text."""
    items, up = uni.items, uni.up
    instances = 0
    for t in uni.tops:
        for a in uni.below(t):
            if items[a].length > bounds.max_len:
                continue
            n = depth(uni, a, t)
            if n > bounds.max_depth:
                continue
            prefix = uni.chains[t][n]
            reach, walked = uni.neighborhood(prefix, t)
            if reach & ~up[a]:
                for k, b_top in enumerate(uni.walk(prefix, t)):
                    if not up[a] >> b_top & 1:
                        return instances + k + 1, _witness(uni, t, a, b_top)
            instances += walked
    return instances, None


def amalgamation_ii(uni, bounds):
    """A5(ii), the capped sweep that tries every candidate's mask for
    each B: the instances counted and the first failure's text."""
    items, down, up = uni.items, uni.down, uni.up
    cap = bounds.amalgamation_cap
    instances = 0
    for t in uni.tops:
        for a in uni.below(t):
            if items[a].length > bounds.max_len or instances >= cap:
                break
            n = depth(uni, a, t)
            if n > bounds.max_depth:
                continue
            reach, _ = uni.neighborhood(uni.chains[t][n], t)
            candidates = sorted(
                iter_bits(reach & up[a]), key=lambda c: -items[c].length
            )
            for b_top in uni.walk(a, t):
                if instances >= cap:
                    break
                instances += 1
                if not any(
                    not uni.neighborhood(a, c)[0] & ~down[b_top] for c in candidates
                ):
                    return instances, _witness(uni, t, a, b_top)
    return instances, None
