"""Executable audit of the six structural laws on a truncated space.

Axioms are universally quantified statements over infinite objects, so
the audit can only ever report *bounded-pass*: every instance inside
the declared bounds was checked and none failed.  A counterexample
verdict carries a replayable witness (serialized inputs).

The six laws, stated for the truncated universe:

  A1  every stem's length-0 approximation is the designated empty one;
  A2  distinct stems differ at some common chain index (pairs where one
      chain is a strict prefix of the other are consistent with A2 and
      counted separately: the difference lies beyond the truncation);
  A3  approximation values determine their length and their whole
      initial chain (restriction is self-coherent);
  A4  the finitization: (i) the stem order coincides with chainwise
      domination, (ii) every down-set is finite, holds no longer value
      and matches a direct filter, a stem top's also count_below and
      [empty, top]; quasi-order laws;
  A5  amalgamation: (i) below a stem that preserves the depth-many
      prefix, the base approximation stays reachable; (ii) stronger
      stems can be found inside the preserved-prefix neighborhood;
  A6  the pigeonhole: every two-sided split of the one-step extension
      set is decided by some preserved-prefix stem.

The sweep also records every (stem, approximation) depth computation
so callers can assert that length never exceeds depth and that depth
is minimal.

The laws read the primitives' answers from an indexed universe
(core.Universe), built per call and dropped on return.  The A4(ii)
sweep is the one primitive sweep of the order: it reads each value's
row `below_test(b)`, the code that `fin_leq` and every search read, at
every approximation once, and each down-set it yields is checked
against the length groups of `fin_below` (`closure_below`), which every
search reads.  The other laws read the bitsets built from it:
transitivity tests down-set inclusion, depth is the first chain member
whose down-set holds the approximation, and A5/A6 test neighborhood
bitmasks against up-sets and down-sets.  Each neighborhood [a, t] is a
run of the walk of [empty, t], which `iter_neighborhood` gives once per
stem top.  A2 and A4(i), laws on pairs of stems, are row sweeps: A2
groups the stems by chain, and A4(i) transposes the down-sets once into
masks over stem positions, so each stem's row of pairs is one AND of its
chain's masks and one comparison.  Instances are counted, and failures
searched for, in the order the laws have always used (pairs in row
order), so counts and first counterexamples are those of a sweep that
asks the primitives directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Space, Universe, iter_bits
from .errors import CeilingExceededError

BOUNDED_PASS = "bounded-pass"
COUNTEREXAMPLE = "counterexample"

# The most stem tops an audit sweeps, and the most splits A6 decides
# (the sum of 2^|extensions| over its pairs); larger ones are refused.
STEM_CEILING = 1 << 14
A6_INSTANCE_CEILING = 1 << 20


@dataclass(frozen=True)
class AuditBounds:
    """Caps for the audit sweeps; all checks are exhaustive within them.

    `max_len` bounds the length of the approximations A5 and A6 take,
    and `max_depth` their depth in A5; A6, when `include_a6` is set,
    takes them below the longest stem top only.  The two caps stop the
    transitivity and A5(ii) sweeps after that many instances.  An audit
    too large to run is refused at STEM_CEILING or A6_INSTANCE_CEILING.
    """

    max_len: int = 2
    max_depth: int = 4
    include_a6: bool = False
    transitivity_cap: int = 100_000
    amalgamation_cap: int = 800

    def __post_init__(self):
        for key in ("max_len", "max_depth"):
            if getattr(self, key) < 0:
                raise ValueError(f"need {key} >= 0, got {getattr(self, key)}")


@dataclass
class AxiomCheck:
    axiom: str
    name: str
    status: str
    instances: int
    notes: str = ""
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == BOUNDED_PASS


@dataclass
class AxiomReport:
    space_params: str
    checks: list[AxiomCheck] = field(default_factory=list)
    depth_pairs_checked: int = 0
    depth_violations: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and self.depth_violations == 0

    def summary_lines(self) -> list[str]:
        lines = [f"audit {self.space_params}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  {c.axiom:3} {c.name:<22} {c.status:<15} "
                f"instances={c.instances} {c.notes}".rstrip()
            )
            if c.witness:
                lines.append(f"      witness: {c.witness}")
        lines.append(
            f"  length<=depth pairs={self.depth_pairs_checked} "
            f"violations={self.depth_violations}"
        )
        return lines


def _fail(report, axiom, name, instances, witness):
    report.checks.append(
        AxiomCheck(axiom, name, COUNTEREXAMPLE, instances, witness=witness)
    )


def _ok(report, axiom, name, instances, notes=""):
    report.checks.append(AxiomCheck(axiom, name, BOUNDED_PASS, instances, notes=notes))


def audit_axioms(space: Space, bounds: AuditBounds | None = None) -> AxiomReport:
    """Exhaustively check the structural laws within the given bounds.

    Raises CeilingExceededError when the truncated universe is too
    large to sweep (refuse-with-estimate rather than sample silently).
    """
    bounds = bounds or AuditBounds()
    count = space.count_below(space.full_stem().top)
    if count > STEM_CEILING:
        raise CeilingExceededError(
            f"audit universe for {space.params_str()} too large", count, STEM_CEILING
        )
    report = AxiomReport(space.params_str())
    uni = Universe(space)

    _audit_a1(uni, report)
    _audit_a2(uni, report)
    _audit_a3(uni, report)
    # The depth law, A5 and A6 read depths, which A4 (i) and (ii)
    # define; after a failure there they are not asked.
    if _audit_a4(uni, report, bounds):
        _audit_depth(uni, report)
        _audit_a5(uni, report, bounds)
        if bounds.include_a6:
            _audit_a6(uni, report, bounds)
    return report


def _audit_a1(uni, report):
    space, tops = uni.space, uni.tops
    empty = space.empty()
    if empty.length != 0:
        _fail(report, "A1", "empty-base", 1, space.serialize(empty))
        return
    for t in tops:
        r0 = uni.items[uni.chains[t][0]]
        if r0 != empty:
            _fail(
                report, "A1", "empty-base", len(tops),
                f"stem {space.serialize(uni.items[t])} has r_0 = "
                f"{space.serialize(r0)}",
            )
            return
    _ok(report, "A1", "empty-base", len(tops))


def _audit_a2(uni, report):
    """Pairs (i, j), i < j, of stem positions are counted in row order;
    the first pair with identical chains fails.  Chains are grouped by
    value, so the first twin pair is the first two positions of the
    group that starts first, and it is pair number
    i(T-1) - i(i-1)/2 + (j - i) of T(T-1)/2."""
    tops, chains = uni.tops, uni.chains
    total = len(tops)
    groups: dict[tuple[int, ...], list[int]] = {}
    for p, t in enumerate(tops):
        groups.setdefault(tuple(chains[t]), []).append(p)
    twins = [g[:2] for g in groups.values() if len(g) > 1]
    if twins:
        i, j = min(twins)
        _fail(
            report, "A2", "separation", i * (total - 1) - i * (i - 1) // 2 + j - i,
            f"distinct stems with identical chains: "
            f"{uni.space.serialize(uni.items[tops[i]])} vs "
            f"{uni.space.serialize(uni.items[tops[j]])}",
        )
        return
    # A chain that strictly extends another is indistinguishable from it
    # within the truncation, consistent with A2; count those pairs.
    prefix_pairs = sum(
        tuple(chain[:k]) in groups for chain in groups for k in range(1, len(chain))
    )
    _ok(
        report, "A2", "separation", total * (total - 1) // 2,
        notes=f"prefix-pairs={prefix_pairs}",
    )


def _audit_a3(uni, report):
    space, items = uni.space, uni.items
    instances = 0
    seen: dict[int, int] = {}
    for t in uni.tops:
        chain = uni.chains[t]
        for n, i in enumerate(chain):
            a = items[i]
            instances += 1
            if a.length != n:
                _fail(
                    report, "A3", "length-coherence", instances,
                    f"r_{n} of {space.serialize(items[t])} has length {a.length}",
                )
                return
            prev = seen.setdefault(i, n)
            if prev != n:
                _fail(
                    report, "A3", "length-coherence", instances,
                    f"{space.serialize(a)} occurs at lengths {prev} and {n}",
                )
                return
            # Restriction must factor through intermediate approximations.
            for k in range(n):
                if space.restrict(a, k) != items[chain[k]]:
                    _fail(
                        report, "A3", "length-coherence", instances,
                        f"restrict({space.serialize(a)}, {k}) != r_{k} of "
                        f"{space.serialize(items[t])}",
                    )
                    return
    _ok(report, "A3", "length-coherence", instances)


def _audit_a4(uni, report, bounds) -> bool:
    """A4 (i), (ii) and the quasi-order laws; returns whether (i) and
    (ii) passed, which the depth law, A5 and A6 need."""
    space, items, down = uni.space, uni.items, uni.down

    def ser(i):
        return space.serialize(items[i])

    # (i) stem order == chainwise domination: every member of a's chain
    # lies in the union of the down-sets of b's chain.  Pairs (a, b) of
    # stems are counted in row order.  Row a is swept at once over the
    # stem positions p: `below_of[a]` holds the p with a below tops[p],
    # and `dom_of[c]` the p whose chain's down-sets hold c.
    tops = uni.tops
    below_of = [0] * len(down)
    dom_of = [0] * len(down)
    for p, t in enumerate(tops):
        bit = 1 << p
        dominated = 0
        for c in uni.chains[t]:
            dominated |= down[c]
        for c in iter_bits(dominated):
            dom_of[c] |= bit
        for c in iter_bits(down[t]):
            below_of[c] |= bit
    everywhere = (1 << len(tops)) - 1
    for ia, a in enumerate(tops):
        chainwise = everywhere
        for c in uni.chains[a]:
            chainwise &= dom_of[c]
        diff = below_of[a] ^ chainwise
        if diff:
            p = (diff & -diff).bit_length() - 1
            lhs = bool(below_of[a] >> p & 1)
            _fail(
                report, "A4", "finitization-link", ia * len(tops) + p + 1,
                f"{ser(a)} vs {ser(tops[p])}: order={lhs} chainwise={not lhs}",
            )
            return False
    _ok(report, "A4", "finitization-link", len(tops) ** 2)

    # (ii) down-sets are finite and match a direct filter of the universe;
    # a stem top's also its `count_below` and [empty, top], which galvin
    # counts.  Each down-set holds no longer value (the length law that
    # `closure_below` and the forcing verdict read): `longer[n]` holds
    # the ids of the values longer than n.
    universe = (1 << uni.size) - 1
    empty = uni.index.get(space.empty())
    longer: dict[int, int] = {}
    for i, n in enumerate(uni.lengths[: uni.size]):
        longer[n] = longer.get(n, 0) | 1 << i
    above = 0
    for n in sorted(longer, reverse=True):
        longer[n], above = above, above | longer[n]
    instances = 0
    for a in range(uni.size):
        instances += 1
        enumerated = uni.below(a)
        filtered = down[a] & universe
        got = 0
        for i in enumerated:
            got |= 1 << i
        if got != filtered or len(enumerated) != filtered.bit_count():
            got_s = {ser(i) for i in enumerated}
            want_s = {ser(i) for i in iter_bits(filtered)}
            _fail(
                report, "A4", "down-set", instances,
                f"fin_below({ser(a)}) mismatch: "
                f"extra={sorted(got_s - want_s)} missing={sorted(want_s - got_s)}",
            )
            return False
        if not filtered >> a & 1 or empty is None or not filtered >> empty & 1:
            _fail(
                report, "A4", "down-set", instances,
                f"fin_below({ser(a)}) misses a or the empty approximation",
            )
            return False
        if a in uni.chains:
            counted = space.count_below(items[a])
            walked = uni.neighborhood(empty, a)[0] == got
            if counted != len(enumerated) or not walked:
                _fail(
                    report, "A4", "down-set", instances,
                    f"fin_below({ser(a)}) has {len(enumerated)} members: "
                    f"count_below={counted}, [{ser(empty)}, {ser(a)}] equal={walked}",
                )
                return False
        too_long = filtered & longer[uni.lengths[a]]
        if too_long:
            b = (too_long & -too_long).bit_length() - 1
            _fail(
                report, "A4", "down-set", instances,
                f"fin_below({ser(a)}) holds the longer {ser(b)}",
            )
            return False
    _ok(report, "A4", "down-set", instances)

    # Quasi-order laws on the universe.  Reflexivity is checked above:
    # each a lies in fin_below(a), which equals its row's filter.
    checked, witness = _transitivity(uni, bounds.transitivity_cap)
    if witness:
        _fail(report, "A4", "quasi-order", checked, witness)
    else:
        _ok(
            report, "A4", "quasi-order", checked,
            notes=f"cap={bounds.transitivity_cap}",
        )
    return True


def _transitivity(uni, cap):
    """Check triples a <= b <= c, with a over fin_below(b), until `cap`
    are counted; returns the count and the first failure's text."""
    down, universe = uni.down, (1 << uni.size) - 1
    checked = 0
    for b in range(uni.size):
        lefts = uni.below(b)
        for c in iter_bits(uni.up[b] & universe):
            # Each triple is checked before it is counted against the
            # cap, so even a cap of 0 checks one.
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


def _audit_depth(uni, report):
    """Depth exists for everything in AR(A), is minimal, dominates length.

    The index depth is the first chain member whose down-set holds the
    approximation, so it exists and is minimal by construction; what is
    left to check is that it dominates the length.
    """
    space, items = uni.space, uni.items
    checked = 0
    violations = 0
    witness = None
    for t in uni.tops:
        for a in uni.below(t):
            checked += 1
            d = uni.depth(a, t)
            if items[a].length > d:
                violations += 1
                witness = witness or (
                    f"stem {space.serialize(items[t])}, "
                    f"a={space.serialize(items[a])}, depth={d}"
                )
    report.depth_pairs_checked = checked
    report.depth_violations = violations
    if violations:
        _fail(report, "L1", "length-below-depth", checked, witness)
    else:
        _ok(report, "L1", "length-below-depth", checked)


def _audit_a5(uni, report, bounds):
    space, items, down, up = uni.space, uni.items, uni.down, uni.up

    def witness(t, a, b_top):
        return (
            f"stem {space.serialize(items[t])}, a={space.serialize(items[a])}, "
            f"B={space.serialize(items[b_top])}"
        )

    # (i) preserved-prefix stems keep the base reachable.
    instances = 0
    for t in uni.tops:
        for a in uni.below(t):
            if items[a].length > bounds.max_len:
                continue
            n = uni.depth(a, t)
            if n > bounds.max_depth:
                continue
            prefix = uni.chains[t][n]
            reach, walked = uni.neighborhood(prefix, t)
            if reach & ~up[a]:
                for k, b_top in enumerate(uni.walk(prefix, t)):
                    if not up[a] >> b_top & 1:
                        _fail(
                            report, "A5", "amalgamation-i", instances + k + 1,
                            witness(t, a, b_top),
                        )
                        return
            instances += walked
    _ok(report, "A5", "amalgamation-i", instances)

    # (ii) capped canonical sweep: some candidate B' through the prefix
    # has [a, B'] inside the down-set of each B in [a, t], for a of
    # length <= max_len and depth <= max_depth below each stem top t,
    # until `amalgamation_cap` instances are checked.  Candidates are
    # tried longest first.
    cap = bounds.amalgamation_cap
    instances = 0
    for t in uni.tops:
        for a in uni.below(t):
            if items[a].length > bounds.max_len or instances >= cap:
                break
            n = uni.depth(a, t)
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
                    _fail(
                        report, "A5", "amalgamation-ii", instances,
                        witness(t, a, b_top),
                    )
                    return
    _ok(report, "A5", "amalgamation-ii", instances, notes=f"cap={cap}")


def _audit_a6(uni, report, bounds):
    space, items = uni.space, uni.items
    # The one anchor: the longest stem top, first in canonical order.
    t = min(uni.tops, key=lambda s: (-uni.lengths[s], s))

    # Refuse before sweeping if the split count is out of reach.
    work = [
        (a, list(space.extensions_below(items[a], items[t])))
        for a in uni.below(t)
        if items[a].length <= bounds.max_len
    ]
    estimate = sum(1 << len(ext) for _, ext in work)
    if estimate > A6_INSTANCE_CEILING:
        raise CeilingExceededError(
            f"pigeonhole audit for {space.params_str()} too large",
            estimate,
            A6_INSTANCE_CEILING,
        )

    instances = 0
    vacuous = 0
    for a, ext in work:
        reach, _ = uni.neighborhood(uni.chains[t][uni.depth(a, t)], t)
        # A split of ext is a bitmask over its positions, and a set of
        # splits is a bitmask over split numbers.  A reduct decides the
        # splits its extension set lies inside or misses; an empty
        # extension set decides every split vacuously.
        position = {e: 1 << i for i, e in enumerate(ext)}
        full = (1 << len(ext)) - 1
        decided = 0
        has_empty = False
        for b_top in iter_bits(reach & uni.up[a]):
            es = set(space.extensions_below(items[a], items[b_top]))
            if not es:
                has_empty = True
                continue
            held = 0
            for e in es:
                held |= position.get(e, 0)
            decided |= _splits_between(0, full & ~held)
            if es <= position.keys():
                decided |= _splits_between(held, full)
        undecided = ((1 << (full + 1)) - 1) & ~decided
        if undecided and not has_empty:
            side = (undecided & -undecided).bit_length() - 1
            chosen = [e for i, e in enumerate(ext) if side >> i & 1]
            _fail(
                report, "A6", "pigeonhole", instances + side + 1,
                f"stem {space.serialize(items[t])}, "
                f"a={space.serialize(items[a])}, "
                f"side={[space.serialize(x) for x in chosen]}",
            )
            return
        instances += full + 1
        vacuous += undecided.bit_count()
    _ok(
        report, "A6", "pigeonhole", instances,
        notes=f"anchors=1 vacuous-witnesses={vacuous}",
    )


def _splits_between(low: int, high: int) -> int:
    """The splits s with low <= s <= high (as sets), as a bitmask over
    split numbers."""
    out = 1 << low
    for i in iter_bits(high & ~low):
        out |= out << (1 << i)
    return out
