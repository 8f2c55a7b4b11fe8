"""The mask witness engine against list-based references and the pinned grid.

`_reference_exhaustive` and `_reference_backtracking` are the searchers
as they were written over lists of item indices, kept here as oracles.
The backtracking oracle skips an empty configuration, as the s^N
oracle and verify_witness do.  Exhaustive mode takes its answer from
the backtracking search, so the s^N oracle checks that answer too.
`_recursive_backtracking` is the mask searcher as a recursive closure,
before it became one loop; it is fast enough to compare with the loop
at the benchmark's node budgets.
"""

import contextlib
import io
import itertools
import json
import pathlib
import random

import pytest

from ramspace import cli
from ramspace.ramsey import (
    LevelInstance,
    _certificate,
    _level_backtracking,
    _level_exhaustive,
    build_level,
    verify_witness,
)

DATA = pathlib.Path(__file__).parent / "data" / "witness_results.json"


# ----- reference searchers over lists of item indices -----


def _mono_witness_exists(coloring, configs) -> bool:
    for cfg in configs:
        if not cfg:
            continue
        first = coloring[cfg[0]]
        if all(coloring[i] == first for i in cfg[1:]):
            return True
    return False


def _reference_exhaustive(inst, s):
    checked = 0
    for coloring in itertools.product(range(s), repeat=len(inst.items)):
        checked += 1
        if not _mono_witness_exists(coloring, inst.configs):
            return False, list(coloring), checked
    return True, None, checked


class _Budget(Exception):
    pass


def _reference_backtracking(inst, s, node_budget):
    size = len(inst.items)
    configs = [cfg for cfg in inst.configs if cfg]
    per_item = [[] for _ in range(size)]
    for gi, cfg in enumerate(configs):
        for i in cfg:
            per_item[i].append(gi)
    colors = [-1] * size
    nodes = 0

    def prunes(i):
        for gi in per_item[i]:
            cfg = configs[gi]
            c0 = colors[cfg[0]]
            if c0 < 0:
                continue
            if all(colors[j] == c0 for j in cfg):
                return True
        return False

    def rec(i, used):
        nonlocal nodes
        if i == size:
            return list(colors)
        for c in range(min(used + 1, s)):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _Budget()
            colors[i] = c
            if not prunes(i):
                hit = rec(i + 1, max(used, c + 1))
                if hit is not None:
                    return hit
            colors[i] = -1
        return None

    try:
        bad = rec(0, 0)
    except _Budget:
        return None, None, nodes
    return (True, None, nodes) if bad is None else (False, bad, nodes)


def _recursive_backtracking(inst, s, node_budget):
    size = len(inst.items)
    closes = [[] for _ in range(size)]
    for cfg in inst.configs:
        if cfg:
            last = max(cfg)
            closes[last].append(sum(1 << j for j in cfg if j != last))
    colmask = [0] * s
    nodes = 0

    def rec(i, used):
        nonlocal nodes
        if i == size:
            return [
                next(c for c in range(s) if colmask[c] >> j & 1) for j in range(size)
            ]
        bit = 1 << i
        for c in range(min(used + 1, s)):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _Budget()
            mask = colmask[c]
            for rest in closes[i]:
                if rest & mask == rest:
                    break
            else:
                colmask[c] = mask | bit
                hit = rec(i + 1, max(used, c + 1))
                if hit is not None:
                    return hit
                colmask[c] = mask
        return None

    try:
        bad = rec(0, 0)
    except _Budget:
        return None, None, nodes
    return (True, None, nodes) if bad is None else (False, bad, nodes)


# ----- instances -----


def _instance(size, configs):
    return LevelInstance("ellentuck", 0, 1, 1, None, None, [None] * size, [], configs)


def _random_instances(rng, count):
    """Random configuration families over 0-7 items, empty ones included."""
    for _ in range(count):
        size = rng.randint(0, 7)
        configs = []
        for _ in range(rng.randint(0, 9)):
            width = rng.randint(0, min(size, 4))
            configs.append(sorted(rng.sample(range(size), width)))
        yield _instance(size, configs)


LEVELS = [
    ("ellentuck", 6, 3, 4, None),
    ("ellentuck", 5, 2, 4, None),
    ("matrix", 3, 1, 2, 2),
    ("partition", 4, 2, 3, None),
    ("partition", 4, 1, 2, None),
]


def _level_subsets(rng, per_level):
    """Random subsets of the configurations of real levels, the empty
    subset and an added empty configuration included."""
    for kind, m, k, n, q in LEVELS:
        inst = build_level(kind, m, k, n, q)
        yield _instance(len(inst.items), [])
        yield _instance(len(inst.items), inst.configs + [[]])
        for _ in range(per_level):
            picked = [cfg for cfg in inst.configs if rng.random() < 0.5]
            yield _instance(len(inst.items), picked)


def _cases():
    rng = random.Random(20261018)
    return list(_random_instances(rng, 120)) + list(_level_subsets(rng, 6))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_exhaustive_scan_matches_the_list_reference(s):
    for inst in _cases():
        if s ** len(inst.items) > 1 << 12:
            continue
        assert _level_exhaustive(inst, s) == _reference_exhaustive(inst, s)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("budget", [None, 0, 1, 4, 25])
def test_backtracking_matches_the_list_reference(s, budget):
    for inst in _cases():
        got = _level_backtracking(inst, s, budget)
        assert got == _reference_backtracking(inst, s, budget)
        assert got == _recursive_backtracking(inst, s, budget)


# The witness workload's heaviest levels with their rows' node budgets:
# (kind, level, k, n, q), s, budgets.  None of these budgets decides its
# level.
BENCHMARK_LEVELS = [
    (("classical", 9, 2, 3, None), 3, [60_000, 100_000]),
    (("classical", 10, 2, 4, None), 2, [15_000]),
    (("matrix", 5, 1, 2, 2), 3, [15_000]),
    (("matrix", 4, 1, 2, 3), 2, [15_000]),
]

# Levels those rows decide or straddle, with the exact node count of
# their search: R(3,3,3) > 8, R(4,4) > 9, GLR_2(1,2;3) = 5 and
# GLR_3(1,2;2) > 3.  (The levels above need 5.5M, over 20M and 6.2M
# nodes, too many for the test suite.)
DECIDED_LEVELS = [
    (("classical", 8, 2, 3, None), 3, False, 87_726),
    (("classical", 9, 2, 4, None), 2, False, 12_474),
    (("matrix", 5, 1, 2, 2), 3, True, 545_795),
    (("matrix", 3, 1, 2, 3), 2, False, 19),
]


@pytest.mark.parametrize("level, s, budgets", BENCHMARK_LEVELS)
def test_loop_matches_the_recursive_search_at_benchmark_budgets(level, s, budgets):
    inst = build_level(*level)
    for budget in budgets:
        got = _level_backtracking(inst, s, budget)
        assert got == _recursive_backtracking(inst, s, budget)
        assert got == (None, None, budget + 1)


@pytest.mark.parametrize("level, s, is_witness, nodes", DECIDED_LEVELS)
def test_loop_matches_the_recursive_search_at_the_exact_budget(level, s, is_witness, nodes):
    # A budget of exactly the search's node count decides the level; one
    # node less stops it on its last node.
    inst = build_level(*level)
    exact = _level_backtracking(inst, s, nodes)
    assert exact == _recursive_backtracking(inst, s, nodes)
    assert exact == _level_backtracking(inst, s, None)
    assert exact[0] is is_witness and exact[2] == nodes
    short = _level_backtracking(inst, s, nodes - 1)
    assert short == _recursive_backtracking(inst, s, nodes - 1)
    assert short == (None, None, nodes)


def test_a_deep_level_needs_no_recursion():
    # 1,500 items and no configurations: the first coloring tried is
    # bad, one node per item, at a depth past the interpreter's
    # default recursion limit.
    inst = _instance(1500, [])
    assert _level_backtracking(inst, 2, None) == (False, [0] * 1500, 1500)
    assert _level_backtracking(inst, 2, 1499) == (None, None, 1500)


def test_empty_configuration_is_never_monochromatic():
    # Both modes and the verifier skip an empty configuration, so the
    # level keeps its bad coloring and the certificate replays.
    inst = build_level("ellentuck", 3, 2, 3)
    inst.configs.append([])
    ex = _level_exhaustive(inst, 2)
    bt = _level_backtracking(inst, 2, None)
    assert ex == (False, [0, 1], 2)
    assert bt[:2] == (False, [0, 1])
    assert verify_witness(_certificate(inst, 2, "bad-coloring", {}, bt[1]))


@pytest.mark.parametrize(
    "level, s, is_witness",
    [
        (("ellentuck", 7, 3, 4), 2, True),   # R(3,3) = 6, shifted up by one
        (("ellentuck", 6, 3, 4), 2, False),
        (("ellentuck", 8, 2, 4), 3, True),   # pigeonhole 3 * 2 + 1 = 7, shifted
        (("ellentuck", 7, 2, 4), 3, False),
    ],
)
def test_two_jobs_match_one(level, s, is_witness):
    inst = build_level(*level)
    one = _level_exhaustive(inst, s)
    assert one[0] is is_witness


def test_witness_grid_matches_the_pinned_results():
    for job in json.loads(DATA.read_text())["jobs"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job["argv"] + ["--format", "json"])
        got = json.loads(out.getvalue())
        assert code == job["exit"], job["argv"]
        for key in ("outcome", "value", "stats", "certificates"):
            assert got[key] == job[key], (job["argv"], key)
        if got["outcome"] == "lower_bound":
            assert got["stats"]["undecided_level"] == got["value"] + 1, job["argv"]
