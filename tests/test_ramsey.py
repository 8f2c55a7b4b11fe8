import itertools
import random

import pytest

from ramspace import ell_space, forcing, partition_space, ramsey
from ramspace.errors import CeilingExceededError
from ramspace.ramsey import (
    EXHAUSTED,
    FOUND,
    LOWER_BOUND,
    Coloring,
    abs_ramsey_reduce,
    build_level,
    dual_to_classical_encoding,
    finite_ramsey_witness,
    verify_witness,
    _level_backtracking,
    _level_exhaustive,
)


# ----- level instances -----


def test_classical_inner_level_counts():
    # Pinned 3-subsets at level 7: pairs from the six lower points.
    inst = build_level("ellentuck", 7, 3, 4)
    assert len(inst.items) == 15
    assert len(inst.witnesses) == 20
    assert all(len(cfg) == 3 for cfg in inst.configs)


def test_matrix_level_is_fano_at_three():
    inst = build_level("matrix", 3, 1, 2, q=2)
    assert len(inst.items) == 7      # lines of F_2^3
    assert len(inst.witnesses) == 7  # planes of F_2^3
    assert all(len(cfg) == 3 for cfg in inst.configs)


def test_partition_level_counts():
    inst = build_level("partition", 4, 2, 3)
    assert len(inst.items) == 7   # S(4,2)
    assert len(inst.witnesses) == 6  # S(4,3)
    assert all(len(cfg) == 3 for cfg in inst.configs)


# ----- witness values (frozen from the exhaustive oracle) -----


def test_classical_2_3_2_is_six():
    res = finite_ramsey_witness("classical", 2, 3, 2, bound=8)
    assert res.outcome == FOUND
    assert res.value == 6
    assert verify_witness(res.found_certificate)
    assert verify_witness(res.lower_bound_certificate)
    assert "level=5" in res.lower_bound_certificate


def test_classical_1_3_2_is_five():
    res = finite_ramsey_witness("classical", 1, 3, 2, bound=8)
    assert res.value == 5  # pigeonhole: 2*(3-1)+1


def test_classical_k_equals_n():
    assert finite_ramsey_witness("classical", 2, 2, 2, bound=5).value == 2
    assert finite_ramsey_witness("classical", 3, 3, 4, bound=5).value == 3


def test_classical_exhausted_below_true_value():
    res = finite_ramsey_witness("classical", 2, 3, 2, bound=4)
    assert res.outcome == EXHAUSTED
    assert res.value is None
    assert verify_witness(res.lower_bound_certificate)


def test_glr_2_1_2_2_is_three():
    res = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, q=2)
    assert res.outcome == FOUND
    assert res.value == 3
    assert verify_witness(res.found_certificate)
    assert verify_witness(res.lower_bound_certificate)


def test_glr_trivial_cases():
    # one color
    assert finite_ramsey_witness("matrix", 1, 2, 1, bound=3, q=2).value == 2
    assert finite_ramsey_witness("matrix", 2, 2, 2, bound=3, q=2).value == 2  # k = n
    assert finite_ramsey_witness("matrix", 1, 1, 3, bound=3, q=3).value == 1


def test_glr_gf3_lines_exceed_three():
    # The 13 lines of F_3^3 admit a two-coloring with no monochromatic
    # plane (both classes can be made blocking sets containing no full
    # plane pencil), so the GF(3) witness exceeds 3.
    res = finite_ramsey_witness("matrix", 1, 2, 2, bound=3, q=3)
    assert res.outcome == EXHAUSTED
    assert "level=3" in res.lower_bound_certificate
    assert verify_witness(res.lower_bound_certificate)


def test_paramset_trivial_cases():
    assert finite_ramsey_witness("partition", 1, 3, 2, bound=5).value == 3
    assert finite_ramsey_witness("partition", 2, 2, 3, bound=4).value == 2


def test_paramset_2_3_2_exceeds_four():
    res = finite_ramsey_witness("partition", 2, 3, 2, bound=4)
    assert res.outcome == EXHAUSTED
    assert verify_witness(res.lower_bound_certificate)


def test_paramset_two_two_split_coloring_is_bad_at_four():
    # Independent refutation of level 4: coloring 2-block partitions of
    # {0..3} by block-size shape (2+2 against 3+1) leaves no 3-block
    # partition with monochromatic coarsenings.
    inst = build_level("partition", 4, 2, 3)
    shape = []
    for a in inst.items:
        sizes = sorted(len(b) for b in a.payload)
        shape.append(1 if sizes == [2, 2] else 0)
    ok = all(
        len({shape[i] for i in cfg}) > 1 for cfg in inst.configs
    )
    assert ok


def test_abstract_witness_values():
    assert finite_ramsey_witness("ellentuck", 1, 3, 2, bound=6).value == 3
    assert finite_ramsey_witness("ellentuck", 2, 3, 2, bound=6).value == 4


def test_shift_consistency():
    classical = finite_ramsey_witness("classical", 2, 3, 2, bound=8)
    inner = finite_ramsey_witness("ellentuck", 3, 4, 2, bound=9)
    assert classical.value == inner.value - 1
    classical = finite_ramsey_witness("classical", 1, 2, 2, bound=6)
    inner = finite_ramsey_witness("ellentuck", 2, 3, 2, bound=7)
    assert classical.value == inner.value - 1


def test_witness_levels_are_monotone():
    # once a level is a witness, later levels within reach stay witnesses
    for m in (3, 4):
        inst = build_level("matrix", m, 1, 2, q=2)
        ok, bad, _ = _level_exhaustive(inst, 2, ceiling=1 << 20)
        assert ok and bad is None
    inst = build_level("ellentuck", 7, 3, 4)
    ok, _, _ = _level_exhaustive(inst, 2, ceiling=1 << 20)
    assert ok
    inst = build_level("ellentuck", 8, 3, 4)
    ok, bad, _ = _level_backtracking(inst, 2, node_budget=None)
    assert ok and bad is None


def test_backtracking_agrees_with_exhaustive():
    ex = finite_ramsey_witness("classical", 2, 3, 2, bound=8)
    bt = finite_ramsey_witness("classical", 2, 3, 2, bound=8, mode="backtracking")
    assert (ex.outcome, ex.value) == (bt.outcome, bt.value)
    exg = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, q=2)
    btg = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, mode="backtracking", q=2)
    assert (exg.outcome, exg.value) == (btg.outcome, btg.value)


def test_backtracking_bad_coloring_verifies():
    res = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, mode="backtracking", q=2)
    assert verify_witness(res.lower_bound_certificate)


def test_backtracking_budget_gives_lower_bound_only():
    res = finite_ramsey_witness(
        "classical", 2, 3, 2, bound=8, mode="backtracking", node_budget=5
    )
    assert res.outcome == LOWER_BOUND


def test_budget_before_any_refuted_level_is_inconclusive():
    # GLR_2(1,2;3): the budget runs out on level 2, the first one, so
    # there is no bound to report.
    res = finite_ramsey_witness(
        "matrix", 1, 2, 3, bound=5, mode="backtracking", q=2, node_budget=3
    )
    assert res.outcome == forcing.INCONCLUSIVE
    assert res.value is None
    assert res.found_certificate is None and res.lower_bound_certificate is None
    assert res.stats == {"levels_examined": 1, "nodes": 4, "undecided_level": 2}


def test_node_budget_needs_backtracking_mode():
    with pytest.raises(ValueError, match="backtracking"):
        finite_ramsey_witness("classical", 2, 3, 2, bound=8, node_budget=1)


def test_exhaustive_ceiling_refusal():
    with pytest.raises(CeilingExceededError) as exc:
        finite_ramsey_witness("classical", 2, 3, 2, bound=8, exhaustive_ceiling=16)
    assert "backtracking" in str(exc.value)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        finite_ramsey_witness("ellentuck", 0, 2, 2, bound=4)
    with pytest.raises(ValueError):
        finite_ramsey_witness("classical", -1, 2, 2, bound=4)
    with pytest.raises(ValueError):
        finite_ramsey_witness("ellentuck", 3, 2, 2, bound=4)
    with pytest.raises(ValueError):
        finite_ramsey_witness("ellentuck", 1, 2, 0, bound=4)
    with pytest.raises(ValueError):
        finite_ramsey_witness("ellentuck", 1, 2, 2, bound=4, mode="guess")


# ----- certificates -----


def test_verify_rejects_malformed_certificates():
    assert not verify_witness("")
    assert not verify_witness("ramsey-certificate v1\ninstance=classical;k=2;n=3")


def test_verify_rejects_monochromatic_tamper():
    res = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, q=2)
    cert = res.lower_bound_certificate
    mono = "\n".join(
        ln.rsplit(";color=", 1)[0] + ";color=0" if ln.startswith("item=") else ln
        for ln in cert.splitlines()
    ) + "\n"
    assert not verify_witness(mono)


def test_verify_rejects_wrong_level_claim():
    res = finite_ramsey_witness("classical", 2, 3, 2, bound=8)
    tampered = res.found_certificate.replace("level=6", "level=5")
    assert not verify_witness(tampered)


@pytest.mark.parametrize("kind", ["ellentuck", "matrix", "partition"])
def test_level_zero_has_an_empty_domain(kind):
    inst = build_level(kind, 0, 1, 1)
    assert inst.items == [] and inst.witnesses == []


def test_verify_rejects_level_zero_witness_claim():
    cert = (
        "ramsey-certificate v1\n"
        "instance=ellentuck;k=1;n=1\n"
        "s=1\n"
        "claim=witness\n"
        "level=0\n"
        "domain=1\n"
        "witnesses=1\n"
        "mode=exhaustive\n"
        "colorings_checked=1\n"
    )
    assert not verify_witness(cert)


def test_verify_rejects_partial_coloring():
    res = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, q=2)
    lines = [
        ln for ln in res.lower_bound_certificate.splitlines()
        if not ln.startswith("item=q=2;01")
    ]
    assert not verify_witness("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "search",
    [
        lambda: finite_ramsey_witness("classical", 2, 3, 2, 8, mode="backtracking"),
        lambda: finite_ramsey_witness("classical", 1, 6, 2, 12, mode="backtracking"),
        lambda: finite_ramsey_witness("ellentuck", 3, 4, 2, 8, mode="backtracking"),
        lambda: finite_ramsey_witness("matrix", 1, 2, 2, 4, mode="backtracking", q=2),
        lambda: finite_ramsey_witness("partition", 1, 3, 3, 4, mode="backtracking"),
        lambda: finite_ramsey_witness("partition", 2, 3, 2, 7, mode="backtracking"),
    ],
)
def test_replay_visits_the_search_nodes(search):
    res = search()
    assert res.outcome == FOUND
    assert f"nodes={res.stats['nodes']}" in res.found_certificate.splitlines()
    certificates = (res.found_certificate, res.lower_bound_certificate)
    assert all(verify_witness(c) for c in certificates if c)


def _configurations(inst, drop_pin):
    """witness payload -> item payloads of its configuration, the pinned
    top element dropped from the shifted level's payloads."""
    cut = slice(None, -1) if drop_pin else slice(None)
    out = {
        w.payload[cut]: sorted(inst.items[i].payload[cut] for i in cfg)
        for w, cfg in zip(inst.witnesses, inst.configs)
    }
    assert len(out) == len(inst.witnesses)
    return out


def test_classical_items_follow_the_shifted_search():
    # The classical level M is the ellentuck level M + 1 one dimension
    # up, with the pinned point M dropped.  From 11 points on, a numeric
    # order of the k-subsets is not the serialization order of their
    # pinned (k+1)-subsets; node counts and the first bad coloring
    # depend on the order, so the classical level takes the shifted one.
    for k in range(4):
        for M, n in [(k, k), (6, k + 1), (12, k + 1), (7, k + 2)]:
            inner = build_level("ellentuck", M + 1, k + 1, n + 1)
            classical = build_level("classical", M, k, n)
            assert [a.payload for a in classical.items] == [
                a.payload[:-1] for a in inner.items
            ]
            assert sorted(a.payload for a in classical.witnesses) == sorted(
                a.payload[:-1] for a in inner.witnesses
            )
            assert _configurations(classical, False) == _configurations(inner, True)


def test_found_certificates_deterministic():
    a = finite_ramsey_witness("classical", 2, 3, 2, bound=8)
    b = finite_ramsey_witness("classical", 2, 3, 2, bound=8)
    assert a.found_certificate == b.found_certificate
    assert a.lower_bound_certificate == b.lower_bound_certificate


# ----- dual-to-classical encoding -----


def test_encoding_examples():
    p = partition_space(7)
    assert dual_to_classical_encoding(p.make([(0, 3), (1, 4), (2, 5)])).payload == (1, 2)
    assert dual_to_classical_encoding(p.make([(0, 1, 2)])).payload == ()
    assert dual_to_classical_encoding(p.make([(0,), (1,), (2,)])).payload == (1, 2)


def test_encoding_size_for_k_plus_one_blocks():
    from ramspace.spaces.partition import enumerate_partitions

    for n in range(3, 8):
        for t in enumerate_partitions(n, 3):
            enc = dual_to_classical_encoding(t)
            assert enc.length == 2
            assert all(1 <= x <= n - 1 for x in enc.payload)


def test_encoding_pulls_back_colorings():
    # d(t) = c(minima of t without 0) for a seeded sample of colorings
    from ramspace.spaces.partition import enumerate_partitions

    rng = random.Random(20240811)
    pairs = list(itertools.combinations(range(1, 7), 2))
    partitions = [t for n in range(3, 8) for t in enumerate_partitions(n, 3)]
    for _ in range(50):
        c = {p: rng.randint(0, 1) for p in pairs}
        for t in partitions:
            enc = dual_to_classical_encoding(t)
            d_value = c[enc.payload]
            assert d_value == c[tuple(sorted(b[0] for b in t.payload if b[0] != 0))]


# ----- the abstract reduction -----


def test_reduce_parity_coloring():
    e = ell_space(12)
    A = e.full_stem()
    dom = [a for a in e.fin_below(A.top) if a.length == 1]
    col = Coloring(e, 1, 2, {e.serialize(a): a.payload[0] % 2 for a in dom})
    res = abs_ramsey_reduce(col, A)
    assert res.outcome == "mono"
    assert res.stem.top.payload == tuple(range(1, 12, 2))
    assert res.color == 1


def test_reduce_three_colors():
    e = ell_space(9)
    A = e.full_stem()
    dom = [a for a in e.fin_below(A.top) if a.length == 1]
    col = Coloring(e, 1, 3, {e.serialize(a): a.payload[0] % 3 for a in dom})
    res = abs_ramsey_reduce(col, A)
    assert res.outcome == "mono"
    assert res.color == 2
    assert res.stem.top.payload == (2, 5, 8)
    assert len(res.certificates) == 2


def test_reduce_constant_coloring_keeps_ambient():
    e = ell_space(6)
    A = e.full_stem()
    dom = [a for a in e.fin_below(A.top) if a.length == 1]
    col = Coloring(e, 1, 2, {e.serialize(a): 1 for a in dom})
    res = abs_ramsey_reduce(col, A)
    assert res.outcome == "mono"
    assert res.stem.top == A.top
    assert res.color == 1


def test_reduce_single_color():
    e = ell_space(5)
    A = e.full_stem()
    dom = [a for a in e.fin_below(A.top) if a.length == 1]
    col = Coloring(e, 1, 1, {e.serialize(a): 0 for a in dom})
    res = abs_ramsey_reduce(col, A)
    assert res.stem.top == A.top and res.color == 0


def test_reduce_requires_total_coloring():
    e = ell_space(6)
    A = e.full_stem()
    col = Coloring(e, 1, 2, {"{0}": 0})
    with pytest.raises(ValueError):
        abs_ramsey_reduce(col, A)


def test_reduce_refuses_over_the_ceiling():
    p = partition_space(4)
    A = p.discrete_stem()
    dom = [a for a in p.fin_below(A.top) if a.length == 1]
    col = Coloring(p, 1, 2, {p.serialize(a): len(a.payload[0]) % 2 for a in dom})
    with pytest.raises(CeilingExceededError) as exc:
        abs_ramsey_reduce(col, A, max_reducts=2)
    assert (exc.value.estimate, exc.value.ceiling) == (3, 2)


def test_reduce_propagates_inconclusive(monkeypatch):
    # No small family is known to leave galvin_search inconclusive, so
    # a substitute search stands in for one.
    def inconclusive(A, family, max_reducts):
        return forcing.DichotomyResult(
            forcing.INCONCLUSIVE, None, "", diagnostics="stuck",
            stats={"walk_nodes": 3, "reducts_scanned": 1},
        )

    monkeypatch.setattr(ramsey, "galvin_search", inconclusive)
    e = ell_space(6)
    dom = [e.make((x,)) for x in range(6)]
    col = Coloring(e, 1, 2, {e.serialize(a): a.payload[0] % 2 for a in dom})
    res = abs_ramsey_reduce(col, e.full_stem())
    assert res.outcome == "inconclusive"
    assert (res.stem, res.color, res.certificates) == (None, None, [""])
    assert res.diagnostics == "stuck"
    assert res.stats == {"walk_nodes": 3, "reducts_scanned": 1}


def test_reduce_pair_coloring_monochromatic():
    e = ell_space(8)
    A = e.full_stem()
    dom = [a for a in e.fin_below(A.top) if a.length == 2]
    col = Coloring(
        e, 2, 2, {e.serialize(a): (a.payload[0] + a.payload[1]) % 2 for a in dom}
    )
    res = abs_ramsey_reduce(col, A)
    assert res.outcome == "mono"
    mono = [a for a in e.fin_below(res.stem.top) if a.length == 2]
    assert len({col.of(a) for a in mono}) <= 1
