import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from ramspace import Approximation, cli, ell_space, matrix_space, partition_space
from ramspace.audit import (
    BOUNDED_PASS,
    COUNTEREXAMPLE,
    AuditBounds,
    AxiomCheck,
    AxiomReport,
    audit_axioms,
)
from ramspace.core import Universe
from ramspace.errors import CeilingExceededError, NotInSpaceError
from ramspace.spaces import parse_params_str, space_from_params
from ramspace.spaces.ellentuck import TAG, EllentuckSpace

FAST = AuditBounds(max_len=2, max_depth=3, transitivity_cap=20_000, amalgamation_cap=200)


def _statuses(report: AxiomReport) -> dict:
    return {(c.axiom, c.name): c.status for c in report.checks}


def _check_for(report: AxiomReport, axiom: str) -> AxiomCheck:
    """The report's row for `axiom`; KeyError when it has none."""
    for c in report.checks:
        if c.axiom == axiom:
            return c
    raise KeyError(axiom)


def test_ellentuck_bounded_pass_with_pigeonhole():
    bounds = AuditBounds(
        max_len=2, max_depth=3, include_a6=True,
        transitivity_cap=20_000, amalgamation_cap=200,
    )
    report = audit_axioms(ell_space(6), bounds)
    assert report.passed
    assert all(s == BOUNDED_PASS for s in _statuses(report).values())
    assert report.depth_pairs_checked > 0
    assert report.depth_violations == 0


def test_matrix_bounded_pass():
    report = audit_axioms(matrix_space(2, 3), FAST)
    assert report.passed


def test_matrix_gf3_bounded_pass():
    report = audit_axioms(matrix_space(3, 3), FAST)
    assert report.passed


def test_partition_bounded_pass():
    report = audit_axioms(partition_space(5), FAST)
    assert report.passed


def test_reports_never_claim_unconditional_pass():
    report = audit_axioms(ell_space(5), FAST)
    for check in report.checks:
        assert check.status in (BOUNDED_PASS, COUNTEREXAMPLE)


def test_refuses_oversized_universe():
    with pytest.raises(CeilingExceededError) as exc:
        audit_axioms(ell_space(20), FAST)
    assert exc.value.estimate == 2**20


@dataclass(frozen=True)
class BrokenEmptySpace(EllentuckSpace):
    """Negative control: the length-0 approximation is not empty."""

    def restrict(self, a, n):
        if n == 0 and a.payload:
            return Approximation(TAG, a.payload[:1], 0)
        return super().restrict(a, n)


def test_broken_empty_base_detected():
    report = audit_axioms(BrokenEmptySpace(4), FAST)
    assert not report.passed
    failing = [c for c in report.checks if c.status == COUNTEREXAMPLE]
    assert failing
    assert failing[0].axiom == "A1"
    assert failing[0].witness


@dataclass(frozen=True)
class BrokenDownSetSpace(EllentuckSpace):
    """Negative control: the enumerated down-set drops an element, its
    last in canonical order, from the whole set and from its group."""

    def fin_below(self, a, length=None):
        full = super().fin_below(a)
        kept = full[:-1] if len(full) > 1 else full
        return [b for b in kept if length is None or b.length == length]


def test_broken_down_set_detected():
    report = audit_axioms(BrokenDownSetSpace(4), FAST)
    assert not report.passed
    assert any(
        c.axiom == "A4" and c.status == COUNTEREXAMPLE for c in report.checks
    )


@dataclass(frozen=True)
class BrokenGroupSpace(EllentuckSpace):
    """Negative control: the length-1 group of {0,1,2} drops {1}, while
    the whole down-set of {0,1,2} stays right."""

    def fin_below(self, a, length=None):
        got = super().fin_below(a, length)
        if length == 1 and a.payload == (0, 1, 2):
            return [b for b in got if b.payload != (1,)]
        return got


def test_broken_length_group_detected():
    # Every search reads the length groups, so A4(ii) checks them and
    # not only the whole set.
    sp = BrokenGroupSpace(4)
    top = sp.make((0, 1, 2))
    assert sp.fin_below(top) == EllentuckSpace(4).fin_below(top)
    report = audit_axioms(sp, FAST)
    failing = [c for c in report.checks if c.status == COUNTEREXAMPLE]
    assert [(c.axiom, c.name) for c in failing] == [("A4", "down-set")]
    assert failing[0].witness == (
        "fin_below({0,1,2}) mismatch: extra=[] missing=['{1}']"
    )


@dataclass(frozen=True)
class LongerBelowSpace(EllentuckSpace):
    """Negative control for the length law alone, on ground 2: {1} lies
    above every value, {0,1} among them, so {1} and {0,1} are equivalent.
    The order is still a quasi-order that matches chainwise domination,
    and the down-set of {1}, its length groups (which read 0..1 only, so
    group 1 holds {0,1} as well), its count and its walk (the children
    below {0,1}) all agree with its row."""

    def below_test(self, b):
        if b.payload == (1,):
            return lambda pa: True
        return super().below_test(b)

    def fin_below(self, a, length=None):
        if a.payload != (1,):
            return super().fin_below(a, length)
        groups = {0: [self.empty()], 1: [self.make((0,)), a, self.make((0, 1))]}
        if length is None:
            return groups[0] + groups[1]
        return groups.get(length, [])

    def count_below(self, a):
        return 4 if a.payload == (1,) else super().count_below(a)

    def extensions_below(self, a, top):
        if top.payload == (1,):
            top = self.make((0, 1))
        return super().extensions_below(a, top)


def test_longer_value_below_a_shorter_one_detected():
    # The length law, fin_leq(x, y) implies |x| <= |y|, is checked with
    # the down-sets: it fails at {1}, the third value, and nothing after
    # A4 is asked (the depth law, which it implies, would fail next).
    sp = LongerBelowSpace(2)
    assert sp.fin_leq(sp.make((0, 1)), sp.make((1,)))
    report = audit_axioms(sp, FAST)
    failing = [c for c in report.checks if c.status == COUNTEREXAMPLE]
    assert [(c.axiom, c.name) for c in failing] == [("A4", "down-set")]
    assert failing[0].instances == 3
    assert failing[0].witness == "fin_below({1}) holds the longer {0,1}"
    assert [c.name for c in report.checks[:4]] == [
        "empty-base", "separation", "length-coherence", "finitization-link",
    ]
    assert all(c.passed for c in report.checks[:4])
    assert report.depth_pairs_checked == 0


@dataclass(frozen=True)
class BrokenRestrictionSpace(EllentuckSpace):
    """Negative control: restriction keeps the tail instead of the head."""

    def restrict(self, a, n):
        if n == 0 or n == a.length:
            return super().restrict(a, n)
        return Approximation(TAG, a.payload[-n:], n)


def test_broken_restriction_detected():
    report = audit_axioms(BrokenRestrictionSpace(4), FAST)
    assert not report.passed


def test_pigeonhole_audit_against_independent_sweep():
    # Re-derive the pigeonhole conclusion from scratch on a tiny ground
    # and compare with the audit's verdict: for every base below the
    # full stem and every split of its one-step extensions, some
    # depth-prefix-preserving reduct has a one-sided extension set.
    e = ell_space(5)
    from ramspace import Stem

    full = max(e.stems(), key=lambda t: t.length)
    stem = Stem(e, full)
    for a in e.fin_below(full):
        if a.length > 2:
            continue
        ext = list(e.extensions_below(a, full))
        n = stem.depth(a)
        prefix = e.restrict(full, n)
        reducts = [
            t for t in e.fin_below(full)
            if e.fin_leq(prefix, t)
            and e.restrict(t, n) == prefix
            and e.fin_leq(a, t)
        ]
        for bits in range(1 << len(ext)):
            side = {x for i, x in enumerate(ext) if bits >> i & 1}
            assert any(
                set(e.extensions_below(a, t)) <= side
                or set(e.extensions_below(a, t)).isdisjoint(side)
                for t in reducts
            )
    report = audit_axioms(
        e,
        AuditBounds(
            max_len=2, max_depth=4, include_a6=True,
            transitivity_cap=20_000, amalgamation_cap=200,
        ),
    )
    assert _check_for(report, "A6").passed


def test_summary_lines_shape():
    report = audit_axioms(ell_space(5), FAST)
    lines = report.summary_lines()
    assert lines[0].startswith("audit space=ellentuck")
    assert any("A4" in ln for ln in lines)
    assert lines[-1].startswith("  length<=depth")


# ----- whole reports pinned against the primitive-only audit -----
#
# data/audit_reports.json holds full reports (every check's axiom, name,
# status, instances, notes and witness, plus the depth counters) made by
# the audit before it read the indexed universe, when every law asked
# the primitives directly.  The grid covers each audit class of the
# benchmark; the controls below are broken spaces, one per law, so the
# indexed sweeps must also find the same first failure.  The reach,
# transitivity, leaky and miscount controls are pinned from the indexed
# audit, whose A4(ii) also holds each stem top's `count_below` and walk
# of [empty, top] to its down-set.

REPORTS = json.loads((Path(__file__).parent / "data" / "audit_reports.json").read_text())

A6_FAST = AuditBounds(
    max_len=2, max_depth=3, include_a6=True,
    transitivity_cap=20_000, amalgamation_cap=200,
)


@dataclass(frozen=True)
class BrokenSeparationSpace(EllentuckSpace):
    """A2: the stems {0,1} and {0,2} share the chain {}, {0}, X, where X
    holds {0,1,2} at length 2."""

    def restrict(self, a, n):
        if a.payload in ((0, 1), (0, 2)) and n == 2:
            return Approximation(TAG, (0, 1, 2), 2)
        return super().restrict(a, n)


@dataclass(frozen=True)
class BrokenLinkSpace(EllentuckSpace):
    """A4(i): {1} is not below {1,2}, though it is below a member of
    the chain of {1,2}."""

    def below_test(self, b):
        row = super().below_test(b)
        if b.payload == (1, 2):
            return lambda pa: pa != (1,) and row(pa)
        return row

    def extensions_below(self, a, top):
        return EllentuckSpace(self.ground).extensions_below(a, top)


@dataclass(frozen=True)
class BrokenTransitivitySpace(EllentuckSpace):
    """Quasi-order: {2} <= {0,2} <= {0,1,2} but not {2} <= {0,1,2}.
    The down-set of {0,1,2}, its count and the children agree with the
    broken order, so A4(i) and A4(ii) still pass."""

    def _dropped(self, a, b):
        return a.payload == (2,) and b.payload == (0, 1, 2)

    def below_test(self, b):
        row = super().below_test(b)
        if b.payload == (0, 1, 2):
            return lambda pa: pa != (2,) and row(pa)
        return row

    def fin_below(self, a, length=None):
        return [b for b in super().fin_below(a, length) if not self._dropped(b, a)]

    def count_below(self, a):
        return len(self.fin_below(a))

    def extensions_below(self, a, top):
        kids = EllentuckSpace(self.ground).extensions_below(a, top)
        return [k for k in kids if not self._dropped(k, top)]


@dataclass(frozen=True)
class BrokenReachSpace(EllentuckSpace):
    """A5(i): the children of {0} also come without the 0, so walks
    below a stem through {0} leave the base {0} behind.  Each walk of
    [{}, t] still reaches exactly the down-set of t, as A4(ii) checks."""

    def extensions_below(self, a, top):
        kids = list(super().extensions_below(a, top))
        if a.payload == (0,):
            return kids + [self.make(k.payload[1:]) for k in kids]
        return kids


@dataclass(frozen=True)
class LeakyExtensionSpace(EllentuckSpace):
    """A4(ii): every nonempty base also gets a child outside the ground
    set, so the walk of [{}, {0}] reaches {0,4}, which the down-set of
    {0} does not hold."""

    def extensions_below(self, a, top):
        if self.ground in a.payload:
            return []
        kids = list(super().extensions_below(a, top))
        if a.payload:
            kids.append(Approximation(TAG, a.payload + (self.ground,), a.length + 1))
        return kids


@dataclass(frozen=True)
class MiscountedSpace(EllentuckSpace):
    """A4(ii): `count_below` of {1,2} is one short of its down-set, so
    a dichotomy would count one reduct fewer than it sweeps."""

    def count_below(self, a):
        return super().count_below(a) - (a.payload == (1, 2))


@dataclass(frozen=True)
class BrokenPigeonholeSpace(EllentuckSpace):
    """A6: the one-step extensions of the empty base always hold {0}
    and {1}, so the split {{0}} is decided by no reduct; neighborhoods
    are still walked with the intact children."""

    def extensions_below(self, a, top):
        kids = super().extensions_below(a, top)
        if a.payload:
            return kids
        return sorted(set(kids) | {self.make((0,)), self.make((1,))}, key=self.sort_key)

    def iter_neighborhood(self, a, top):
        return EllentuckSpace(self.ground).iter_neighborhood(a, top)


@dataclass(frozen=True)
class IrreflexiveSpace(EllentuckSpace):
    """Reflexivity: {1} is not below itself.  Its down-set then misses
    it, which A4(ii) reports with the number of elements checked: 3,
    as {1} comes third in canonical order ({}, {0}, {1})."""

    def below_test(self, b):
        row = super().below_test(b)
        if b.payload == (1,):
            return lambda pa: pa != (1,) and row(pa)
        return row

    def fin_below(self, a, length=None):
        return [b for b in super().fin_below(a, length) if self.fin_leq(b, a)]

    def extensions_below(self, a, top):
        return EllentuckSpace(self.ground).extensions_below(a, top)


CONTROLS = [
    ("empty-base", BrokenEmptySpace(4), FAST),
    ("down-set", BrokenDownSetSpace(4), FAST),
    ("restriction", BrokenRestrictionSpace(4), FAST),
    ("separation", BrokenSeparationSpace(4), FAST),
    ("link", BrokenLinkSpace(4), FAST),
    ("transitivity", BrokenTransitivitySpace(4), FAST),
    ("reach", BrokenReachSpace(4), FAST),
    ("leaky", LeakyExtensionSpace(4), FAST),
    ("miscount", MiscountedSpace(4), FAST),
    ("pigeonhole", BrokenPigeonholeSpace(4), A6_FAST),
    ("irreflexive", IrreflexiveSpace(4), FAST),
]


def _as_rows(report: AxiomReport) -> dict:
    return {
        "checks": [
            [c.axiom, c.name, c.status, c.instances, c.notes, c.witness]
            for c in report.checks
        ],
        "depth_pairs_checked": report.depth_pairs_checked,
        "depth_violations": report.depth_violations,
    }


@pytest.mark.parametrize(
    "name, space, bounds, law",
    [
        ("empty-base", BrokenEmptySpace(4), FAST, ("A1", "empty-base")),
        ("down-set", BrokenDownSetSpace(4), FAST, ("A4", "down-set")),
        ("restriction", BrokenRestrictionSpace(4), FAST, ("A5", "amalgamation-ii")),
        ("separation", BrokenSeparationSpace(4), FAST, ("A2", "separation")),
        ("link", BrokenLinkSpace(4), FAST, ("A4", "finitization-link")),
        ("transitivity", BrokenTransitivitySpace(4), FAST, ("A4", "quasi-order")),
        ("reach", BrokenReachSpace(4), FAST, ("A5", "amalgamation-i")),
        ("leaky", LeakyExtensionSpace(4), FAST, ("A4", "down-set")),
        ("miscount", MiscountedSpace(4), FAST, ("A4", "down-set")),
        ("pigeonhole", BrokenPigeonholeSpace(4), A6_FAST, ("A6", "pigeonhole")),
        ("irreflexive", IrreflexiveSpace(4), FAST, ("A4", "down-set")),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_negative_control_report(name, space, bounds, law):
    report = audit_axioms(space, bounds)
    assert not report.passed
    assert any(
        (c.axiom, c.name) == law and c.status == COUNTEREXAMPLE for c in report.checks
    )
    assert _as_rows(report) == REPORTS["controls"][name]


@pytest.mark.parametrize("cap, status", [(100, BOUNDED_PASS), (101, COUNTEREXAMPLE)])
def test_transitivity_cap_edge(cap, status):
    # The failing triple is the 101st checked: a cap of 100 stops short
    # of it, a cap of 101 reaches it.
    bounds = AuditBounds(max_len=2, max_depth=3, transitivity_cap=cap, amalgamation_cap=200)
    report = audit_axioms(BrokenTransitivitySpace(4), bounds)
    assert report.checks[5].name == "quasi-order"
    assert report.checks[5].status == status
    assert _as_rows(report) == REPORTS["controls"][f"transitivity-cap{cap}"]


def test_reports_match_the_primitive_audit_on_the_benchmark_grid():
    # Every audit class of the benchmark at depth 2-4, length cap 1-3,
    # with and without A6 (CLI bounds), plus cases at small sweep caps.
    # Cases pinned with an A6 length cap of their own set it to max_len,
    # which A6 now reads; the cases without one run no A6.
    mismatched = []
    for case in REPORTS["grid"]:
        space = space_from_params(parse_params_str(case["space"]))
        bounds = dict(case["bounds"])
        assert bounds.pop("a6_max_len", bounds["max_len"]) == bounds["max_len"]
        report = audit_axioms(space, AuditBounds(**bounds))
        if _as_rows(report) != case["report"]:
            mismatched.append((case["space"], case["bounds"]))
    assert len(REPORTS["grid"]) == 209
    assert not mismatched


def _a2_oracle(uni):
    """A2 as the pair loop over stems the audit used before its row
    sweep: the reference for the pair count and the first twin pair."""
    tops, chains = uni.tops, uni.chains
    ser = uni.space.serialize
    pairs = 0
    prefix_pairs = 0
    for i, a in enumerate(tops):
        ca = chains[a]
        for b in tops[i + 1 :]:
            pairs += 1
            cb = chains[b]
            common = min(len(ca), len(cb))
            if ca[:common] != cb[:common]:
                continue
            if len(ca) == len(cb):
                return [
                    "A2", "separation", COUNTEREXAMPLE, pairs, "",
                    f"distinct stems with identical chains: "
                    f"{ser(uni.items[a])} vs {ser(uni.items[b])}",
                ]
            prefix_pairs += 1
    return ["A2", "separation", BOUNDED_PASS, pairs, f"prefix-pairs={prefix_pairs}", None]


def _a4_link_oracle(uni):
    """A4(i) as the pair loop over stems the audit used before its row
    sweep."""
    down = uni.down
    ser = uni.space.serialize
    chain_mask = {}
    dominated = {}
    for t in uni.tops:
        chain_mask[t] = dominated[t] = 0
        for c in uni.chains[t]:
            chain_mask[t] |= 1 << c
            dominated[t] |= down[c]
    instances = 0
    for a in uni.tops:
        for b in uni.tops:
            instances += 1
            lhs = bool(down[b] >> a & 1)
            rhs = not chain_mask[a] & ~dominated[b]
            if lhs != rhs:
                return [
                    "A4", "finitization-link", COUNTEREXAMPLE, instances, "",
                    f"{ser(uni.items[a])} vs {ser(uni.items[b])}: "
                    f"order={lhs} chainwise={rhs}",
                ]
    return ["A4", "finitization-link", BOUNDED_PASS, instances, "", None]


@dataclass(frozen=True)
class LateSeparationSpace(EllentuckSpace):
    """A2: {0,2,3,4} and {1,2,3,4}, the last two stems of length 4 on
    ground 5 (positions 29 and 30 of 32), share the chain {}, {0},
    {0,1}, {0,1,2}, X, where X holds {0,1,2,3,4} at length 4."""

    def restrict(self, a, n):
        if a.payload in ((0, 2, 3, 4), (1, 2, 3, 4)):
            if n == 4:
                return Approximation(TAG, (0, 1, 2, 3, 4), 4)
            return super().restrict(self.make((0, 1, 2, 3)), n)
        return super().restrict(a, n)


@dataclass(frozen=True)
class LateLinkSpace(EllentuckSpace):
    """A4(i): {1,2,3} (position 22 of 32 on ground 5) is not below
    {1,2,3,4} (position 30), though it is that stem's length-3 member."""

    def below_test(self, b):
        row = super().below_test(b)
        if b.payload == (1, 2, 3, 4):
            return lambda pa: pa != (1, 2, 3) and row(pa)
        return row


@dataclass(frozen=True)
class ReversedLateLinkSpace(LateLinkSpace):
    """LateLinkSpace with its stems listed longest first, so that a
    stem's position among the stems is not its universe id."""

    def stems(self):
        return super().stems()[::-1]


ROW_SWEEP_SPACES = [space for _, space, _ in CONTROLS] + [
    LateSeparationSpace(5),
    LateLinkSpace(5),
    ReversedLateLinkSpace(5),
    ell_space(6),
    matrix_space(2, 3),
    matrix_space(3, 2),
    partition_space(5),
]


@pytest.mark.parametrize("space", ROW_SWEEP_SPACES, ids=lambda s: type(s).__name__)
def test_row_sweeps_match_the_pair_loops(space):
    # A2 and A4(i) count the pairs of the loops they replace and stop
    # at the same first counterexample, with the same text.
    rows = _as_rows(audit_axioms(space, FAST))["checks"]
    uni = Universe(space)
    assert rows[1] == _a2_oracle(uni)
    assert rows[3] == _a4_link_oracle(uni)


def test_the_first_failure_can_sit_on_the_last_stems():
    # Pair (29, 30) of 32 stems: 29*31 - 29*28/2 + (30 - 29) = 494 of 496.
    a2 = _check_for(audit_axioms(LateSeparationSpace(5), FAST), "A2")
    assert (a2.status, a2.instances) == (COUNTEREXAMPLE, 494)
    assert a2.witness == "distinct stems with identical chains: {0,2,3,4} vs {1,2,3,4}"
    # Row 22, column 30: instance 22*32 + 30 + 1 = 735 of 1024.
    link = audit_axioms(LateLinkSpace(5), FAST).checks[3]
    assert (link.name, link.status, link.instances) == (
        "finitization-link", COUNTEREXAMPLE, 735,
    )
    assert link.witness == "{1,2,3} vs {1,2,3,4}: order=False chainwise=True"


@pytest.mark.parametrize(
    "space, bounds, tops",
    [
        (partition_space(6), AuditBounds(max_depth=3), 279),
        (ell_space(8), AuditBounds(max_depth=4, include_a6=True), 256),
        (matrix_space(2, 4), AuditBounds(max_depth=3), 87),
    ],
    ids=["partition-6", "ellentuck-8-a6", "matrix-2-4"],
)
def test_an_audit_walks_each_neighborhood_once(space, bounds, tops, monkeypatch):
    # The README audits: A5(ii) reads its pairs in walk order, A5(i)
    # and A6 read masks, and each [a, t] is a run of the walk of
    # [empty, t].  So every walk starts at the empty approximation, no
    # pair is walked twice, and there is one walk per stem top.
    walks = []
    sweep = type(space).iter_neighborhood

    def counting(self, a, top):
        walks.append((a, top))
        return sweep(self, a, top)

    monkeypatch.setattr(type(space), "iter_neighborhood", counting)
    report = audit_axioms(space, bounds)
    assert report.passed
    assert len(walks) == len(set(walks)) == tops == space.count_below(space.full_stem().top)
    assert {a for a, _ in walks} == {space.empty()}


@pytest.mark.parametrize("key", ["max_len", "max_depth"])
def test_negative_length_and_depth_bounds_are_input_errors(key):
    with pytest.raises(ValueError, match=f"need {key} >= 0, got -1"):
        AuditBounds(**{key: -1})
    # zero is a bound (length-0 approximations only, or depth 0), and
    # the caps are not checked: transitivity_cap=0 is a tested edge case
    report = audit_axioms(ell_space(3), AuditBounds(**{key: 0}, transitivity_cap=0))
    assert report.passed


@dataclass(frozen=True)
class StrayChainSpace(EllentuckSpace):
    """A4(i): the chain of {0,2,3,4} is the chain of {1,2,3,4}, so {0},
    which `fin_below` puts below {0,2,3,4}, lies below no member of
    that stem's chain and has no depth there."""

    def restrict(self, a, n):
        if a.payload == (0, 2, 3, 4):
            return super().restrict(self.make((1, 2, 3, 4)), n)
        return super().restrict(a, n)


STRAY_CHAIN_ROWS = [
    ["A1", "empty-base", BOUNDED_PASS, 32, "", None],
    ["A2", "separation", COUNTEREXAMPLE, 494, "",
     "distinct stems with identical chains: {0,2,3,4} vs {1,2,3,4}"],
    ["A3", "length-coherence", BOUNDED_PASS, 112, "", None],
    ["A4", "finitization-link", COUNTEREXAMPLE, 62, "",
     "{0} vs {0,2,3,4}: order=True chainwise=False"],
]


@pytest.mark.parametrize("bounds", [FAST, A6_FAST], ids=["a5", "a5-a6"])
def test_a_failed_finitization_skips_the_laws_that_read_depth(bounds):
    # The depth law, A5 and A6 read depths, which A4 (i) and (ii)
    # define.  After A4(i) fails they are not asked, so the report
    # carries A4's counterexample instead of raising NotInSpaceError.
    space = StrayChainSpace(5)
    uni = Universe(space)
    with pytest.raises(NotInSpaceError):
        uni.depth(uni.index[space.make((0,))], uni.index[space.make((0, 2, 3, 4))])
    report = audit_axioms(space, bounds)
    assert _as_rows(report) == {
        "checks": STRAY_CHAIN_ROWS, "depth_pairs_checked": 0, "depth_violations": 0,
    }
    assert not report.passed


def test_a_failed_finitization_exits_1_on_the_cli(monkeypatch):
    monkeypatch.setattr(cli, "_space", lambda args: StrayChainSpace(5))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["audit", "--space", "ellentuck", "--ground", "5",
                         "--depth", "3", "--a6", "--format", "json"])
    assert code == 1
    got = json.loads(out.getvalue())
    assert got["outcome"] == COUNTEREXAMPLE
    assert [[r["axiom"], r["name"], r["status"], r["instances"], r["notes"], r["witness"]]
            for r in got["report"]] == STRAY_CHAIN_ROWS


@pytest.mark.parametrize(
    "space", ROW_SWEEP_SPACES + [StrayChainSpace(5)], ids=lambda s: type(s).__name__
)
def test_universe_runs_match_direct_walks(space):
    # Every [base, top] read as a run of the walk of [empty, top] is
    # the walk `iter_neighborhood` gives for the pair itself: its ids in
    # order, and its mask and count.  The controls include bases that
    # the walk of a top never reaches (BrokenReachSpace) and values
    # outside the universe (LeakyExtensionSpace).
    uni = Universe(space)
    for top in uni.tops:
        for base in range(uni.size):
            direct = uni.ids(
                v for v, _ in space.iter_neighborhood(uni.items[base], uni.items[top])
            )
            assert uni.walk(base, top) == direct, (base, top)
            mask = 0
            for i in direct:
                mask |= 1 << i
            assert uni.neighborhood(base, top) == (mask, len(direct)), (base, top)
