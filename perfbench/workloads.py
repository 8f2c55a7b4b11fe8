"""Seeded job lists for the three benchmark workloads.

A job is a `ramspace` CLI argv with JSON output plus the reference its
answer is checked against.  `generate(workload, seed, workdir)` builds
one pass of jobs; family and coloring files are written to `workdir`.
The same seed gives the same argv lists and byte-identical files.

Each workload is a fixed mix of 100 jobs in classes.  The class counts
are the same for every seed; the seed draws each job's parameters,
families and colorings within its class and shuffles the order.  Classes
are sized so that the median and the 90th percentile of job time fall
inside a class rather than on the edge between two classes of different
cost, which keeps the percentiles comparable from seed to seed.

Run as a script, this module times set-up alone (importing the package
and generating one workload's files) and prints the seconds as JSON.
"""

from __future__ import annotations

import os
import random
import sys
import time

AUDIT_README = (
    ["audit", "--space", "ellentuck", "--ground", "8", "--depth", "4", "--a6"],
    ["audit", "--space", "matrix", "--q", "2", "--max-cols", "4", "--depth", "3"],
    ["audit", "--space", "partition", "--domain", "6", "--depth", "3"],
)

# The dichotomy example of the README: alternative 1 on the odd numbers.
GALVIN_README = (("ellentuck", 12), ["{0}", "{2}", "{4}", "{6}", "{8}", "{10}"],
                 "alt1", "{1,3,5,7,9,11}")


def _ramsey(text, code, outcome, value, bound=None):
    """A grid entry: argv text, exit code, outcome, value, fixed --bound.

    Entries without a fixed bound stop at their value; the seed draws a
    bound up to three levels above it, which does not change the work.
    """
    return text.split(), code, outcome, value, bound


# Reference answers.  Literature values: R(3,3)=6 (Radziszowski, Small
# Ramsey Numbers, EJC DS1); the k=1 rows are pigeonhole numbers
# s(n-1)+1; GLR_2(1,2;2)=3 (Graham-Leeb-Rothschild).  Node-budget rows
# stop below R(3,3,3)=17, R(4,4)=18 and GLR_2(1,2;3)=5; their value is
# the last level refuted by a replayed bad coloring.  The remaining
# values are the ones the searches certify, replayed by verify_witness.
RAMSEY_TINY = (
    _ramsey("classical --k 1 --n 2 --s 2", 0, "found", 3),
    _ramsey("classical --k 1 --n 3 --s 2", 0, "found", 5),
    _ramsey("classical --k 1 --n 2 --s 3", 0, "found", 4),
    _ramsey("classical --k 1 --n 4 --s 2", 0, "found", 7),
    _ramsey("classical --k 2 --n 3 --s 2 --mode backtracking", 0, "found", 6),
    _ramsey("glr --q 2 --k 1 --n 2 --s 2", 0, "found", 3),
    _ramsey("glr --q 2 --k 1 --n 2 --s 2 --mode backtracking", 0, "found", 3),
    _ramsey("paramset --k 1 --m 2 --s 2", 0, "found", 2),
    _ramsey("paramset --k 1 --m 3 --s 2", 0, "found", 3),
    _ramsey("paramset --k 1 --m 2 --s 3", 0, "found", 2),
    _ramsey("paramset --k 1 --m 3 --s 3", 0, "found", 3),
    _ramsey("paramset --k 1 --m 4 --s 2", 0, "found", 4),
    _ramsey("witness --space ellentuck --k 2 --n 3 --s 2", 0, "found", 4),
    _ramsey("witness --space ellentuck --k 1 --n 2 --s 2", 0, "found", 2),
    _ramsey("witness --space ellentuck --k 2 --n 4 --s 2 --mode backtracking", 0, "found", 6),
    _ramsey("witness --space matrix --k 1 --n 2 --s 2", 0, "found", 3),
    _ramsey("witness --space matrix --k 1 --n 2 --s 2 --mode backtracking", 0, "found", 3),
    _ramsey("witness --space partition --k 1 --n 2 --s 2", 0, "found", 2),
)
RAMSEY_SMALL = (
    _ramsey("classical --k 2 --n 3 --s 3 --mode backtracking --node-budget 5000",
            1, "lower_bound", 7, bound=17),
    _ramsey("classical --k 1 --n 3 --s 3", 0, "found", 7),
    _ramsey("classical --k 1 --n 5 --s 2", 0, "found", 9),
    _ramsey("classical --k 2 --n 3 --s 3 --mode backtracking --node-budget 10000",
            1, "lower_bound", 7, bound=17),
    _ramsey("classical --k 2 --n 3 --s 3 --mode backtracking --node-budget 20000",
            1, "lower_bound", 7, bound=17),
    _ramsey("witness --space ellentuck --k 3 --n 4 --s 2 --mode backtracking", 0, "found", 7),
)
RAMSEY_MEDIUM = (
    _ramsey("classical --k 2 --n 3 --s 2", 0, "found", 6),
    _ramsey("classical --k 2 --n 3 --s 3 --mode backtracking --node-budget 60000",
            1, "lower_bound", 7, bound=17),
    _ramsey("glr --q 3 --k 1 --n 2 --s 2 --mode backtracking --node-budget 15000",
            1, "lower_bound", 3, bound=4),
    _ramsey("classical --k 2 --n 4 --s 2 --mode backtracking --node-budget 50000",
            3, "exhausted", None, bound=9),
    _ramsey("classical --k 2 --n 4 --s 2 --mode backtracking --node-budget 10000",
            1, "lower_bound", 8, bound=17),
    _ramsey("glr --q 2 --k 1 --n 2 --s 3 --mode backtracking --node-budget 3000",
            1, "lower_bound", 4, bound=5),
    _ramsey("witness --space matrix --k 1 --n 2 --s 3 --mode backtracking --node-budget 3000",
            1, "lower_bound", 4, bound=6),
)
RAMSEY_LARGE = (
    _ramsey("glr --q 2 --k 1 --n 2 --s 3 --mode backtracking --node-budget 15000",
            1, "lower_bound", 4, bound=5),
    _ramsey("classical --k 2 --n 4 --s 2 --mode backtracking --node-budget 15000",
            1, "lower_bound", 9, bound=17),
    _ramsey("classical --k 2 --n 3 --s 3 --mode backtracking --node-budget 100000",
            1, "lower_bound", 8, bound=17),
)

WORKLOADS = ("audit", "forcing", "witness")

# Nominal seconds per pass on a 2-vCPU cloud host; a run makes
# max(2, seconds // PASS_SECONDS) passes.
PASS_SECONDS = {"audit": 15.0, "forcing": 10.0, "witness": 9.0}


def _audit(rng, files, space_args):
    """An audit with seeded depth, length cap and pigeonhole flag."""
    argv = ["audit", *space_args, "--depth", str(rng.randint(2, 4)),
            "--max-len", str(rng.randint(1, 3))]
    if rng.random() < 0.5:
        argv.append("--a6")
    return argv, {"exit": 0, "outcome": ["bounded-pass"]}


def _readme_audit(rng, files, argv):
    return list(argv), {"exit": 0, "outcome": ["bounded-pass"]}


def _space(kind, size):
    from ramspace.spaces import ell_space, matrix_space, partition_space

    if kind == "ellentuck":
        space = ell_space(size)
        return space, space.full_stem()
    if kind == "matrix":
        space = matrix_space(*size)
        return space, space.identity_stem()
    space = partition_space(size)
    return space, space.discrete_stem()


def _galvin(rng, files, spec):
    """A random front family of 1-6 members of length 1-2."""
    space, stem = _space(*spec)
    pool = [a for a in space.fin_below(stem.top) if 1 <= a.length <= 2]
    members = rng.sample(pool, rng.randint(1, min(6, len(pool))))
    path = files.write("family", [space.params_str()]
                       + [space.serialize(a) for a in members])
    return (["galvin", "--family", path],
            {"exit": 0, "outcome": ["alt1", "alt2"], "certificates": ["dichotomy"]})


def _readme_galvin(rng, files, example):
    spec, members, outcome, stem = example
    space, _ = _space(*spec)
    path = files.write("family", [space.params_str(), *members])
    return (["galvin", "--family", path],
            {"exit": 0, "outcome": [outcome], "stem": stem, "certificates": ["dichotomy"]})


def _reduce(rng, files, spec):
    """A seeded s-coloring of the length-k approximations below the stem."""
    kind, size, k, s = spec
    space, stem = _space(kind, size)
    path = files.write("coloring", [space.params_str(), f"k={k};s={s}"] + [
        f"{space.serialize(a)}:{rng.randrange(s)}"
        for a in space.fin_below(stem.top) if a.length == k
    ])
    argv = ["reduce", "--coloring", path]
    if kind != "ellentuck":
        # The CLI's default ambient stem exists only for the ellentuck
        # space; the other spaces are given their canonical stem.
        argv += ["--stem", stem.serialize()]
    return argv, {"exit": 0, "outcome": ["mono"]}


def _witness(rng, files, entry):
    argv, code, outcome, value, bound = entry
    if bound is None:
        bound = value + rng.randint(0, 3)
    expect = {"exit": code, "outcome": [outcome], "value": value}
    return ["ramsey", *argv, "--bound", str(bound)], expect


E, M, P = "ellentuck", "matrix", "partition"

# workload -> [(jobs per pass, builder, choices)].  The i-th job of a
# class uses choices[i % len(choices)], so every seed runs the same mix;
# the seed draws the rest (parameters, families, colorings, bounds) and
# the order.  Class sizes put the median and the 90th percentile of job
# time inside one class each (see the module docstring).
TEMPLATES = {
    "audit": [
        (45, _audit, [["--space", E, "--ground", "4"],
                      ["--space", M, "--q", "2", "--max-cols", "2"],
                      ["--space", M, "--q", "3", "--max-cols", "2"],
                      ["--space", P, "--domain", "3"],
                      ["--space", M, "--q", "2", "--max-cols", "1"],
                      ["--space", M, "--q", "3", "--max-cols", "1"],
                      ["--space", E, "--ground", "5"]]),
        (24, _audit, [["--space", E, "--ground", "6"]]),
        (16, _audit, [["--space", P, "--domain", "4"],
                      ["--space", M, "--q", "2", "--max-cols", "3"]]),
        (12, _audit, [["--space", E, "--ground", "7"]]),
        (3, _readme_audit, list(AUDIT_README)),
    ],
    "forcing": [
        (19, _galvin, [(M, (2, 2)), (M, (3, 2)), (P, 3)]),
        (18, _reduce, [(M, (3, 2), 1, 2), (M, (2, 2), 1, 2), (P, 3, 1, 2)]),
        (10, _galvin, [(E, 6), (P, 4)]),
        (16, _reduce, [(E, 6, 1, 2), (P, 4, 1, 2), (P, 4, 2, 2), (E, 6, 2, 2)]),
        (9, _galvin, [(E, 7), (M, (2, 3)), (M, (3, 3)), (E, 8), (P, 5), (E, 9), (M, (2, 4))]),
        (8, _reduce, [(E, 7, 1, 2), (E, 7, 2, 2), (E, 8, 1, 2), (P, 5, 1, 2),
                      (P, 5, 2, 3), (M, (3, 3), 1, 2), (M, (3, 3), 2, 2)]),
        (19, _reduce, [(E, 8, 2, 2)]),
        (1, _readme_galvin, [GALVIN_README]),
    ],
    "witness": [
        (73, _witness, RAMSEY_TINY),
        (10, _witness, RAMSEY_SMALL),
        (12, _witness, RAMSEY_MEDIUM),
        (5, _witness, RAMSEY_LARGE),
    ],
}


class _Files:
    """Numbered input files under one directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, stem, lines):
        path = os.path.join(self.workdir, f"{stem}-{self.count:03d}.txt")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """One pass of jobs for `workload`, drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    files = _Files(workdir)
    jobs = []
    for count, build, choices in TEMPLATES[workload]:
        for i in range(count):
            argv, expect = build(rng, files, choices[i % len(choices)])
            jobs.append({"argv": argv + ["--format", "json"], "expect": expect})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:03d}"
    return jobs


if __name__ == "__main__":
    import json

    start = time.perf_counter()
    import ramspace.cli  # noqa: F401  (importing the package is part of set-up)

    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
