"""Spans and hot-primitive counters taken from outside the package.

`Tracer.install` wraps the package's public entry points at runtime,
without editing any file under `src/`.  It is only ever installed in a
forked job worker, which exits after one job, so nothing is unpatched.

  * Span functions (`SPANS`) record one span per call: span id, parent
    span, name, start and end.  Every module binding that points at the
    function is replaced, so calls through `from .x import f` copies are
    caught as well as the defining module's own calls.
  * Hot primitives (`HOT`) run millions of times; they record only an
    aggregated call count and busy time.  Busy time is the inclusive
    time of the outermost call, so recursion is not counted twice.
  * `Space.iter_neighborhood` is a generator; it records yields.

`layer_metrics` turns the records of a traced run into the per-layer
metrics listed in `LAYER_METRICS`, each of which names the end-to-end
metric and workload it is expected to move.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from ramspace import core, forcing, gflinalg, ramsey
from ramspace.spaces import EllentuckSpace, MatrixSpace, PartitionSpace

SPACE_CLASSES = {"ellentuck": EllentuckSpace, "matrix": MatrixSpace,
                 "partition": PartitionSpace}
SPACE_PRIMITIVES = ("fin_leq", "restrict", "extensions_below", "fin_below")

# (owner, attribute, span name); the owner is a module or a class.
SPANS = (
    ("ramspace.cli", "main", "cli.main"),
    ("ramspace.audit", "audit_axioms", "audit.audit_axioms"),
    ("ramspace.forcing", "galvin_search", "forcing.galvin_search"),
    ("ramspace.ramsey", "abs_ramsey_reduce", "ramsey.abs_ramsey_reduce"),
    ("ramspace.ramsey", "finite_ramsey_witness", "ramsey.finite_ramsey_witness"),
    ("ramspace.ramsey", "build_level", "ramsey.build_level"),
    ("ramspace.ramsey", "verify_witness", "ramsey.verify_witness"),
    ("ramspace.forcing", "verify_dichotomy", "forcing.verify_dichotomy"),
    (forcing.ForcingEngine, "verdict", "forcing.verdict"),
)

HOT = tuple(
    (cls, prim, f"spaces.{tag}.{prim}")
    for tag, cls in SPACE_CLASSES.items()
    for prim in SPACE_PRIMITIVES
) + (
    (core.Stem, "depth", "core.stem_depth"),
    (core.Space, "closure_below", "core.closure_below"),
)

# (unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", "job_s.p50 on witness (predicted flat everywhere)"),
    "audit.audit_axioms.self_s": ("s", "lower", "job_s.p90 on audit"),
    "audit.instances": ("count", "lower", "job_s.p90 on audit"),
    "audit.depth_pairs_checked": ("count", "lower", "job_s.p90 on audit"),
}
for _tag in SPACE_CLASSES:
    for _prim in SPACE_PRIMITIVES:
        _moves = {
            "fin_leq": "job_s.p50 and job_s.p90 on audit",
            "fin_below": "job_s.p50 and job_s.p90 on audit"
            + ("; job_s.p50 on witness" if _tag == "ellentuck" else ""),
            "restrict": "job_s.p90 on forcing",
            "extensions_below": "job_s.p90 on forcing",
        }[_prim]
        LAYER_METRICS[f"spaces.{_tag}.{_prim}.calls"] = ("count", "lower", _moves)
        LAYER_METRICS[f"spaces.{_tag}.{_prim}.busy_s"] = ("s", "lower", _moves)
LAYER_METRICS.update({
    "gflinalg.calls": ("count", "lower", "job_s.p50 on audit (matrix audits)"),
    "gflinalg.busy_s": ("s", "lower", "job_s.p50 on audit (matrix audits)"),
    "core.iter_neighborhood.yields": (
        "count", "lower", "job_s.p90 and peak_rss_mb on forcing; A5 time on audit"),
    "core.stem_depth.calls": ("count", "lower", "job_s.p90 on audit"),
    "core.stem_depth.busy_s": ("s", "lower", "job_s.p90 on audit"),
    "core.closure_below.calls": ("count", "lower", "job_s.p90 on forcing"),
    "forcing.galvin_search.self_s": ("s", "lower", "job_s.p90 on forcing"),
    "forcing.verdict.calls": ("count", "lower", "job_s.p90 on forcing"),
    "forcing.verdict.busy_s": ("s", "lower", "job_s.p90 on forcing"),
    "forcing.walk_nodes": ("count", "lower", "job_s.p90 on forcing"),
    "forcing.reducts_scanned": ("count", "lower", "job_s.p90 on forcing"),
    "forcing.walk_nodes_per_s": ("1/s", "higher", "job_s.p90 on forcing"),
    "forcing.verify_dichotomy.busy_s": ("s", "lower", "job_s.p50 on forcing"),
    "ramsey.abs_ramsey_reduce.self_s": ("s", "lower", "job_s.p90 on forcing"),
    "ramsey.build_level.calls": ("count", "lower", "job_s.p50 on witness"),
    "ramsey.build_level.busy_s": ("s", "lower", "job_s.p50 on witness"),
    "ramsey.search.self_s": ("s", "lower", "job_s.p50 on witness"),
    "ramsey.colorings_checked": ("count", "lower", "job_s.p50 on witness"),
    "ramsey.colorings_per_s": ("1/s", "higher", "job_s.p50 on witness"),
    "ramsey.levels_examined": ("count", "lower", "job_s.p50 on witness"),
    "ramsey.nodes": ("count", "lower", "job_s.p90 on witness"),
    "ramsey.nodes_per_s": ("1/s", "higher", "job_s.p90 on witness"),
    "ramsey.verify_witness.busy_s": ("s", "lower", "job_s.p50 on witness"),
    "trace.overhead_frac": ("ratio", "lower", "none: the cost of tracing itself"),
})

# CLI `stats` keys summed per workload, and the layer metric each feeds.
WORK_COUNTERS = {
    "walk_nodes": "forcing.walk_nodes",
    "reducts_scanned": "forcing.reducts_scanned",
    "nodes": "ramsey.nodes",
    "colorings_checked": "ramsey.colorings_checked",
    "levels_examined": "ramsey.levels_examined",
    "depth_pairs_checked": "audit.depth_pairs_checked",
    "instances": "audit.instances",
}


class Tracer:
    """Records spans and hot counters for the one job of a worker."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}
        self.missing: list[str] = []

    def install(self) -> None:
        for owner, attr, name in SPANS:
            if isinstance(owner, str):
                self._rebind(sys.modules[owner], attr, self._span_wrapper(name))
            else:
                self._patch(owner, attr, self._span_wrapper(name), name)
        for cls, attr, name in HOT:
            self._patch(cls, attr, self._hot_wrapper(name), name)
        self._patch(core.Space, "iter_neighborhood",
                    self._yield_counter("core.iter_neighborhood"),
                    "core.iter_neighborhood")
        # The GF(q) routines the matrix space calls, through its own bindings.
        matrix_module = sys.modules[MatrixSpace.__module__]
        wrap = self._hot_wrapper("gflinalg")
        for attr, value in list(vars(matrix_module).items()):
            if callable(value) and not isinstance(value, type) and \
                    getattr(value, "__module__", None) == gflinalg.__name__:
                setattr(matrix_module, attr, wrap(value))

    def collect(self) -> tuple[list, dict]:
        hot = {name: {"calls": s[0], "busy_s": s[1]} for name, s in self.hot.items()}
        for name in self.missing:
            hot[name] = {"missing": True}
        return [list(s) for s in self.spans], hot

    # ----- patching -----

    def _rebind(self, module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "ramspace" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _patch(self, cls, attr, make, name):
        original = getattr(cls, attr, None)
        if original is None:
            self.missing.append(name)
            return
        setattr(cls, attr, make(original))

    # ----- wrappers -----

    def _span_wrapper(self, name):
        spans, stack = self.spans, self.stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = [len(spans), stack[-1] if stack else None, name,
                          perf_counter(), None]
                spans.append(record)
                stack.append(record[0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    record[4] = perf_counter()
            return wrapper
        return make

    def _hot_wrapper(self, name):
        stat = self.hot.setdefault(name, [0, 0.0, 0])  # calls, busy, active

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat[0] += 1
                if stat[2]:
                    return fn(*args, **kwargs)
                stat[2] = 1
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[1] += perf_counter() - start
                    stat[2] = 0
            return wrapper
        return make

    def _yield_counter(self, name):
        stat = self.hot.setdefault(name, [0, 0.0, 0])

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    stat[0] += 1
                    yield item
            return wrapper
        return make


def _self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its direct child spans cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(results: list[dict], passes: int) -> tuple[dict, list[str]]:
    """Per-pass layer metrics from the traced job results of a run.

    Times and counts are totals over one pass of the job list (the mean
    over `passes` traced passes).  Returns (metrics, names of wrapped
    targets the package no longer has).
    """
    total: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    missing: set[str] = set()
    busy = {"forcing.galvin_search": 0.0}
    search_self = {"exhaustive": 0.0, "backtracking": 0.0}
    for r in results:
        spans = r["spans"]
        own = _self_times(spans)
        job_search_self = 0.0
        for span_id, _, name, start, end in spans:
            if name == "cli.main":
                total["cli.self_s"] += own[span_id]
            elif name == "audit.audit_axioms":
                total["audit.audit_axioms.self_s"] += own[span_id]
            elif name == "forcing.galvin_search":
                total["forcing.galvin_search.self_s"] += own[span_id]
                busy["forcing.galvin_search"] += end - start
            elif name == "forcing.verdict":
                total["forcing.verdict.calls"] += 1
                total["forcing.verdict.busy_s"] += end - start
            elif name == "forcing.verify_dichotomy":
                total["forcing.verify_dichotomy.busy_s"] += end - start
            elif name == "ramsey.abs_ramsey_reduce":
                total["ramsey.abs_ramsey_reduce.self_s"] += own[span_id]
            elif name == "ramsey.build_level":
                total["ramsey.build_level.calls"] += 1
                total["ramsey.build_level.busy_s"] += end - start
            elif name == "ramsey.finite_ramsey_witness":
                job_search_self += own[span_id]
            elif name == "ramsey.verify_witness":
                total["ramsey.verify_witness.busy_s"] += end - start
        total["ramsey.search.self_s"] += job_search_self
        stats = r["stats"]
        if "nodes" in stats:
            search_self["backtracking"] += job_search_self
        elif "colorings_checked" in stats:
            search_self["exhaustive"] += job_search_self
        for key, metric in WORK_COUNTERS.items():
            total[metric] += stats.get(key, 0)
        for name, stat in r["hot"].items():
            if stat.get("missing"):
                missing.add(name)
            elif name == "core.iter_neighborhood":
                total["core.iter_neighborhood.yields"] += stat["calls"]
            elif name == "core.closure_below":
                total["core.closure_below.calls"] += stat["calls"]
            else:
                total[f"{name}.calls"] += stat["calls"]
                total[f"{name}.busy_s"] += stat["busy_s"]
    metrics = {name: value / passes for name, value in total.items()}
    metrics["forcing.walk_nodes_per_s"] = _rate(
        total["forcing.walk_nodes"], busy["forcing.galvin_search"])
    metrics["ramsey.colorings_per_s"] = _rate(
        total["ramsey.colorings_checked"], search_self["exhaustive"])
    metrics["ramsey.nodes_per_s"] = _rate(
        total["ramsey.nodes"], search_self["backtracking"])
    return metrics, sorted(missing)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
