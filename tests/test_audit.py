import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from ramspace import Approximation, ell_space, matrix_space, partition_space
from ramspace.audit import (
    BOUNDED_PASS,
    COUNTEREXAMPLE,
    AuditBounds,
    AxiomReport,
    audit_axioms,
)
from ramspace.errors import CeilingExceededError
from ramspace.spaces import parse_params_str, space_from_params
from ramspace.spaces.ellentuck import TAG, EllentuckSpace

FAST = AuditBounds(max_len=2, max_depth=3, transitivity_cap=20_000, amalgamation_cap=200)


def _statuses(report: AxiomReport) -> dict:
    return {(c.axiom, c.name): c.status for c in report.checks}


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
    """Negative control: the enumerated down-set drops an element."""

    def fin_below(self, a):
        full = super().fin_below(a)
        return full[:-1] if len(full) > 1 else full


def test_broken_down_set_detected():
    report = audit_axioms(BrokenDownSetSpace(4), FAST)
    assert not report.passed
    assert any(
        c.axiom == "A4" and c.status == COUNTEREXAMPLE for c in report.checks
    )


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
        ext = e.extensions_below(a, full)
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
    assert report.check_for("A6").passed


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
# indexed sweeps must also find the same first failure.

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

    def fin_leq(self, a, b):
        if a.payload == (1,) and b.payload == (1, 2):
            return False
        return super().fin_leq(a, b)

    def extensions_below(self, a, top):
        return EllentuckSpace(self.ground).extensions_below(a, top)


@dataclass(frozen=True)
class BrokenTransitivitySpace(EllentuckSpace):
    """Quasi-order: {2} <= {0,2} <= {0,1,2} but not {2} <= {0,1,2}.
    The down-set of {0,1,2} and the children agree with the broken
    order, so A4(i) and A4(ii) still pass."""

    def _dropped(self, a, b):
        return a.payload == (2,) and b.payload == (0, 1, 2)

    def fin_leq(self, a, b):
        return not self._dropped(a, b) and super().fin_leq(a, b)

    def fin_below(self, a):
        return [b for b in super().fin_below(a) if not self._dropped(b, a)]

    def extensions_below(self, a, top):
        return EllentuckSpace(self.ground).extensions_below(a, top)


@dataclass(frozen=True)
class BrokenReachSpace(EllentuckSpace):
    """A5(i): the children of {0} lose the 0, so walks below a stem
    through {0} leave the base {0} behind."""

    def extensions_below(self, a, top):
        kids = super().extensions_below(a, top)
        if a.payload == (0,):
            return [self.make(k.payload[1:]) for k in kids]
        return kids


@dataclass(frozen=True)
class LeakyExtensionSpace(EllentuckSpace):
    """A5(ii): every nonempty base also gets a child outside the ground
    set, so no candidate neighborhood fits below the base itself."""

    def extensions_below(self, a, top):
        if self.ground in a.payload:
            return []
        kids = super().extensions_below(a, top)
        if a.payload:
            kids.append(Approximation(TAG, a.payload + (self.ground,), a.length + 1))
        return kids


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

    def fin_leq(self, a, b):
        if a.payload == b.payload == (1,):
            return False
        return super().fin_leq(a, b)

    def fin_below(self, a):
        return [b for b in super().fin_below(a) if self.fin_leq(b, a)]

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
        ("leaky", LeakyExtensionSpace(4), FAST, ("A5", "amalgamation-ii")),
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
    mismatched = []
    for case in REPORTS["grid"]:
        space = space_from_params(parse_params_str(case["space"]))
        report = audit_axioms(space, AuditBounds(**case["bounds"]))
        if _as_rows(report) != case["report"]:
            mismatched.append((case["space"], case["bounds"]))
    assert len(REPORTS["grid"]) == 209
    assert not mismatched


@pytest.mark.parametrize(
    "space, bounds",
    [
        (partition_space(6), AuditBounds(max_depth=3)),
        (ell_space(8), AuditBounds(max_depth=4, include_a6=True)),
        (matrix_space(2, 4), AuditBounds(max_depth=3)),
    ],
    ids=["partition-6", "ellentuck-8-a6", "matrix-2-4"],
)
def test_an_audit_walks_each_neighborhood_once(space, bounds, monkeypatch):
    # The README audits: A5(ii) reads its pairs in walk order, A5(i)
    # and A6 read masks, and no pair is walked twice.
    walks = []
    sweep = type(space).iter_neighborhood

    def counting(self, a, top):
        walks.append((a, top))
        return sweep(self, a, top)

    monkeypatch.setattr(type(space), "iter_neighborhood", counting)
    report = audit_axioms(space, bounds)
    assert report.passed
    assert len(walks) == len(set(walks)) > 500
