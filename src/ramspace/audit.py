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
      domination, (ii) the down-set of every approximation is finite
      and exactly matches a direct filter; plus quasi-order laws;
  A5  amalgamation: (i) below a stem that preserves the depth-many
      prefix, the base approximation stays reachable; (ii) stronger
      stems can be found inside the preserved-prefix neighborhood;
  A6  the pigeonhole: every two-sided split of the one-step extension
      set is decided by some preserved-prefix stem.

The sweep also records every (stem, approximation) depth computation
so callers can assert that length never exceeds depth and that depth
is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Approximation, Space, Stem
from .errors import CeilingExceededError

BOUNDED_PASS = "bounded-pass"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class AuditBounds:
    """Caps for the audit sweeps; all checks are exhaustive within them."""

    max_len: int = 2
    max_depth: int = 4
    include_a6: bool = False
    a6_max_len: int = 2
    a6_anchor_count: int = 1
    a6_instance_ceiling: int = 1 << 20
    stem_ceiling: int = 1 << 14
    transitivity_cap: int = 100_000
    amalgamation_cap: int = 800


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
    bounds: AuditBounds
    checks: list[AxiomCheck] = field(default_factory=list)
    depth_pairs_checked: int = 0
    depth_violations: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and self.depth_violations == 0

    def check_for(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

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
    count = space.stem_count()
    if count > bounds.stem_ceiling:
        raise CeilingExceededError(
            f"audit universe for {space.params_str()} too large",
            count,
            bounds.stem_ceiling,
        )
    report = AxiomReport(space.params_str(), bounds)
    tops = space.stems()
    chains = {t: space.chain(t) for t in tops}
    empty = space.empty()

    _audit_a1(space, report, tops, chains, empty)
    _audit_a2(space, report, tops, chains)
    _audit_a3(space, report, tops, chains)
    below = _audit_a4(space, report, tops, chains, bounds)
    _audit_depth(space, report, tops, chains, below)
    _audit_a5(space, report, tops, chains, bounds)
    if bounds.include_a6:
        _audit_a6(space, report, tops, bounds)
    return report


def _audit_a1(space, report, tops, chains, empty):
    if empty.length != 0:
        _fail(report, "A1", "empty-base", 1, space.serialize(empty))
        return
    for t in tops:
        if chains[t][0] != empty:
            _fail(
                report, "A1", "empty-base", len(tops),
                f"stem {space.serialize(t)} has r_0 = {space.serialize(chains[t][0])}",
            )
            return
    _ok(report, "A1", "empty-base", len(tops))


def _audit_a2(space, report, tops, chains):
    pairs = 0
    prefix_pairs = 0
    for i, a in enumerate(tops):
        for b in tops[i + 1 :]:
            pairs += 1
            ca, cb = chains[a], chains[b]
            common = min(len(ca), len(cb))
            if any(ca[n] != cb[n] for n in range(common)):
                continue
            if len(ca) == len(cb):
                _fail(
                    report, "A2", "separation", pairs,
                    f"distinct stems with identical chains: "
                    f"{space.serialize(a)} vs {space.serialize(b)}",
                )
                return
            # One chain strictly extends the other: indistinguishable
            # within the truncation, consistent with A2.
            prefix_pairs += 1
    _ok(report, "A2", "separation", pairs, notes=f"prefix-pairs={prefix_pairs}")


def _audit_a3(space, report, tops, chains):
    instances = 0
    seen: dict[Approximation, int] = {}
    for t in tops:
        chain = chains[t]
        for n, a in enumerate(chain):
            instances += 1
            if a.length != n:
                _fail(
                    report, "A3", "length-coherence", instances,
                    f"r_{n} of {space.serialize(t)} has length {a.length}",
                )
                return
            prev = seen.setdefault(a, n)
            if prev != n:
                _fail(
                    report, "A3", "length-coherence", instances,
                    f"{space.serialize(a)} occurs at lengths {prev} and {n}",
                )
                return
            # Restriction must factor through intermediate approximations.
            for i in range(n):
                if space.restrict(a, i) != chain[i]:
                    _fail(
                        report, "A3", "length-coherence", instances,
                        f"restrict({space.serialize(a)}, {i}) != r_{i} of "
                        f"{space.serialize(t)}",
                    )
                    return
    _ok(report, "A3", "length-coherence", instances)


def _audit_a4(space, report, tops, chains, bounds):
    # (i) stem order == chainwise domination.
    instances = 0
    for a in tops:
        ca = chains[a]
        for b in tops:
            instances += 1
            lhs = space.fin_leq(a, b)
            cb = chains[b]
            rhs = True
            for ra in reversed(ca):
                if not any(space.fin_leq(ra, rb) for rb in reversed(cb)):
                    rhs = False
                    break
            if lhs != rhs:
                _fail(
                    report, "A4", "finitization-link", instances,
                    f"{space.serialize(a)} vs {space.serialize(b)}: "
                    f"order={lhs} chainwise={rhs}",
                )
                return None
    _ok(report, "A4", "finitization-link", instances)

    # (ii) down-sets are finite and match a direct filter of the universe.
    universe = space.approximations()
    below: dict[Approximation, list[Approximation]] = {}
    instances = 0
    for a in universe:
        instances += 1
        enumerated = space.fin_below(a)
        below[a] = enumerated
        filtered = [b for b in universe if space.fin_leq(b, a)]
        if sorted(enumerated, key=space.sort_key) != filtered:
            got = {space.serialize(x) for x in enumerated}
            want = {space.serialize(x) for x in filtered}
            _fail(
                report, "A4", "down-set", instances,
                f"fin_below({space.serialize(a)}) mismatch: "
                f"extra={sorted(got - want)} missing={sorted(want - got)}",
            )
            return None
        if a not in enumerated or space.empty() not in enumerated:
            _fail(
                report, "A4", "down-set", instances,
                f"fin_below({space.serialize(a)}) misses a or the empty approximation",
            )
            return None
    _ok(report, "A4", "down-set", instances)

    # Quasi-order laws on the universe (transitivity capped).
    instances = 0
    for a in universe:
        if not space.fin_leq(a, a):
            _fail(report, "A4", "quasi-order", instances, space.serialize(a))
            return below
    checked = 0
    done = False
    for b in universe:
        if done:
            break
        lefts = below[b]
        for c in universe:
            if space.fin_leq(b, c):
                for a in lefts:
                    checked += 1
                    if not space.fin_leq(a, c):
                        _fail(
                            report, "A4", "quasi-order", checked,
                            f"transitivity fails: {space.serialize(a)} <= "
                            f"{space.serialize(b)} <= {space.serialize(c)}",
                        )
                        return below
                    if checked >= bounds.transitivity_cap:
                        done = True
                        break
                if done:
                    break
    _ok(report, "A4", "quasi-order", checked, notes=f"cap={bounds.transitivity_cap}")
    return below


def _audit_depth(space, report, tops, chains, below):
    """Depth exists for everything in AR(A), is minimal, dominates length."""
    if below is None:
        return
    checked = 0
    violations = 0
    witness = None
    for t in tops:
        stem = Stem(space, t)
        for a in below[t]:
            checked += 1
            d = stem.depth(a)
            ok = (
                a.length <= d
                and space.fin_leq(a, chains[t][d])
                and (d == 0 or not space.fin_leq(a, chains[t][d - 1]))
            )
            if not ok:
                violations += 1
                witness = witness or (
                    f"stem {space.serialize(t)}, a={space.serialize(a)}, depth={d}"
                )
    report.depth_pairs_checked = checked
    report.depth_violations = violations
    if violations:
        _fail(report, "L1", "length-below-depth", checked, witness)
    else:
        _ok(report, "L1", "length-below-depth", checked)


def _audit_a5(space, report, tops, chains, bounds):
    # (i) preserved-prefix stems keep the base reachable.
    instances = 0
    for t in tops:
        stem = Stem(space, t)
        for a in space.fin_below(t):
            if a.length > bounds.max_len:
                continue
            n = stem.depth(a)
            if n > bounds.max_depth:
                continue
            for b_top in space.iter_neighborhood(chains[t][n], t):
                instances += 1
                if not space.fin_leq(a, b_top):
                    _fail(
                        report, "A5", "amalgamation-i", instances,
                        f"stem {space.serialize(t)}, a={space.serialize(a)}, "
                        f"B={space.serialize(b_top)}",
                    )
                    return
    _ok(report, "A5", "amalgamation-i", instances)

    # (ii) capped canonical sweep, candidates tried longest-first.
    instances = 0
    for t in tops:
        if instances >= bounds.amalgamation_cap:
            break
        stem = Stem(space, t)
        for a in space.fin_below(t):
            if a.length > bounds.max_len or instances >= bounds.amalgamation_cap:
                break
            n = stem.depth(a)
            if n > bounds.max_depth:
                continue
            prefix = chains[t][n]
            candidates = space.longest_first(space.iter_neighborhood(prefix, t))
            for b_top in space.iter_neighborhood(a, t):
                if instances >= bounds.amalgamation_cap:
                    break
                instances += 1
                found = False
                for cand in candidates:
                    if not space.fin_leq(a, cand):
                        continue
                    if all(
                        space.fin_leq(c, b_top)
                        for c in space.iter_neighborhood(a, cand)
                    ):
                        found = True
                        break
                if not found:
                    _fail(
                        report, "A5", "amalgamation-ii", instances,
                        f"stem {space.serialize(t)}, a={space.serialize(a)}, "
                        f"B={space.serialize(b_top)}",
                    )
                    return
    _ok(
        report, "A5", "amalgamation-ii", instances,
        notes=f"cap={bounds.amalgamation_cap}",
    )


def _audit_a6(space, report, tops, bounds):
    anchors = space.longest_first(tops)[: bounds.a6_anchor_count]

    # Refuse before sweeping if the split count is out of reach.
    estimate = 0
    work = []
    for t in anchors:
        stem = Stem(space, t)
        for a in space.fin_below(t):
            if a.length > bounds.a6_max_len:
                continue
            ext = stem.extensions(a)
            estimate += 1 << len(ext)
            work.append((t, a, ext))
    if estimate > bounds.a6_instance_ceiling:
        raise CeilingExceededError(
            f"pigeonhole audit for {space.params_str()} too large",
            estimate,
            bounds.a6_instance_ceiling,
        )

    instances = 0
    vacuous = 0
    for t, a, ext in work:
        stem = Stem(space, t)
        n = stem.depth(a)
        prefix = space.restrict(t, n)
        # Extension sets of every preserved-prefix reduct, longest first
        # so witnesses with nonempty extension sets are preferred.
        cache = []
        for b_top in space.iter_neighborhood(prefix, t):
            if space.fin_leq(a, b_top):
                cache.append(frozenset(space.extensions_below(a, b_top)))
        cache.sort(key=len, reverse=True)
        for bits in range(1 << len(ext)):
            side = frozenset(e for i, e in enumerate(ext) if bits >> i & 1)
            instances += 1
            hit = None
            for es in cache:
                if es <= side or es.isdisjoint(side):
                    hit = es
                    break
            if hit is None:
                _fail(
                    report, "A6", "pigeonhole", instances,
                    f"stem {space.serialize(t)}, a={space.serialize(a)}, "
                    f"side={sorted(space.serialize(x) for x in side)}",
                )
                return
            if not hit:
                vacuous += 1
    _ok(
        report, "A6", "pigeonhole", instances,
        notes=f"anchors={len(anchors)} vacuous-witnesses={vacuous}",
    )
