"""ramspace benchmark: seeded CLI workloads timed to a verified result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload audit|forcing|witness \\
        --seed N --seconds S --trace 0|1

A single client runs a closed loop: each job starts when the previous
one has been verified.  Every job runs in a fresh worker forked from
this process (see worker.py).  The job list is one *pass*.  A run makes
as many whole passes as fit `--seconds` at the workload's nominal pass
time (`workloads.PASS_SECONDS`), at least two, so every job runs the
same number of times and a run's work does not depend on the host's
speed at the time.  The first pass is the reference: a later run of a job
whose output bytes differ from its first-pass output counts as failed.

A job's time is its best time over the passes, and +inf if any of its
runs failed.  On a shared 2-vCPU cloud host the CPU speed was seen to
switch between a fast and a slow state from second to second (a fixed
loop took either about 29 or about 42 ms), and at times to stay slow
for minutes.  The best of several runs spaced a pass apart is close to
the fast-state time, where a percentile over single runs moves with the
share of slow time.  To cancel the minutes-long shifts as well, a fixed
integer loop that does not touch `ramspace` is timed before every job,
and all reported times are multiplied by REFERENCE_CALIBRATION_S over
the 10th percentile of the loop's times in the run: they are seconds on
a host where the loop takes REFERENCE_CALIBRATION_S.  The raw figures
and the scale are printed beside them.

With `--trace 0` the last line is a JSON object holding the end-to-end
metrics; with `--trace 1` the run is split into untraced passes followed
by traced passes, and the JSON holds the per-layer metrics (see
tracing.py), including `trace.overhead_frac`.  Spans are written to
`.perfbench/spans-<workload>-seed<N>.jsonl` when a traced run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

SETUP_SAMPLES_PER_PASS = 2
MIN_PASSES = 2
OUT_DIR = ".perfbench"
REFERENCE_CALIBRATION_S = 0.005
CALIBRATION_ROUNDS = 50_000


def _calibrate() -> float:
    """Seconds taken by a fixed integer loop (the run's speed probe)."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ROUNDS):
        total += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ramspace", "cli.py")):
        print(f"error: no ramspace sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: str, src: str, workdir: str) -> int:
    setup, setup_samples = _setup_sampler(args, src, workdir)
    setup()
    import tracing  # these import ramspace, so only once src is on the path
    import worker

    jobs = workloads.generate(args.workload, args.seed, os.path.join(workdir, "jobs"))

    if args.trace:
        # Half the time untraced, then as many traced passes, so that the
        # best-of times compare.
        passes = _pass_count(args.workload, args.seconds / 2)
        plain = _passes(jobs, worker, False, passes, setup)
        traced = _passes(jobs, worker, True, passes, setup, reference=plain["reference"])
    else:
        plain = _passes(jobs, worker, False, _pass_count(args.workload, args.seconds), setup)
        traced = None

    e2e = _end_to_end(plain, setup_samples)
    _print_environment(args, root, jobs, plain, traced)
    n = len(jobs)
    runs_note = f"best of {plain['passes']} runs each"
    scale = plain["scale"]
    _print_metrics("end-to-end (untraced; times scaled, see below)", e2e, _E2E_UNITS, notes={
        "job_s.p50": f"n={n} jobs, {runs_note}; raw {e2e['job_s.p50'] / scale:.6g} s",
        "job_s.p90": f"n={n} jobs, {n - math.ceil(0.9 * n)} beyond, {runs_note}; "
                     f"raw {e2e['job_s.p90'] / scale:.6g} s",
        "peak_rss_mb": f"max over {plain['attempted']} workers",
        "setup_s": f"median of {len(setup_samples)} set-ups; raw {e2e['setup_s'] / scale:.6g} s",
    })
    print(f"  time scale: {scale:.6g} (= {REFERENCE_CALIBRATION_S} s / calibration loop "
          f"{REFERENCE_CALIBRATION_S / scale:.6g} s, 10th percentile)")
    _print_counters(plain)
    _print_failures(jobs, plain, traced)

    if traced:
        layers, missing = tracing.layer_metrics(traced["results"], traced["passes"])
        units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        for name, unit in units.items():  # scale like the job times
            if unit == "s":
                layers[name] *= traced["scale"]
            elif unit == "1/s":
                layers[name] /= traced["scale"]
        layers["trace.overhead_frac"] = (
            _percentile(_best_times(traced), 0.5) * traced["scale"] / e2e["job_s.p50"] - 1.0)
        _print_metrics(f"per-layer (traced, per pass of {len(jobs)} jobs; times scaled by "
                       f"{traced['scale']:.6g})", layers, units,
                       notes={n: "moves " + s[2] for n, s in tracing.LAYER_METRICS.items()})
        if missing:
            print(f"  not traced (missing in the package): {', '.join(missing)}")
        path = _write_spans(root, args, traced["results"])
        print(f"  spans: {path}")
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name in tracing.LAYER_METRICS}
        runs = [plain, traced]
    else:
        metrics = {name: {"value": value, "unit": _E2E_UNITS[name]}
                   for name, value in e2e.items() if name in _E2E_REPORTED}
        runs = [plain]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(m["value"]), "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


# ----- set-up -----


def _setup_sampler(args, src: str, workdir: str):
    """(sample, samples): `sample()` times a few more set-ups (import plus
    input generation), each in a fresh interpreter, into `samples`.

    Samples are taken before the first pass and after every pass, so
    they see the same machine conditions as the jobs.
    """
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")
    env = dict(os.environ, PYTHONPATH=src)
    samples: list[float] = []

    def sample() -> None:
        for _ in range(SETUP_SAMPLES_PER_PASS):
            target = os.path.join(workdir, f"setup-{len(samples)}")
            done = subprocess.run(
                [sys.executable, script, args.workload, str(args.seed), target],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
            shutil.rmtree(target, ignore_errors=True)
    return sample, samples


# ----- passes -----


def _pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds // workloads.PASS_SECONDS[workload]))


def _passes(jobs, worker, traced: bool, passes: int, after_pass,
            reference: dict | None = None) -> dict:
    """Run `passes` whole passes over `jobs`, calling `after_pass()` after each."""
    results, rss, calibration = [], [], []
    times: dict[str, list[float]] = {}
    per_pass_counters = []
    failures: dict[str, list[str]] = {}
    reference = dict(reference or {})
    start = time.perf_counter()
    for index in range(passes):
        counters: dict[str, int] = {}
        for job in jobs:
            calibration.append(_calibrate())
            r = worker.run_forked(job, traced)
            error = r["error"]
            first = reference.setdefault(job["id"], r["digest"])
            if error is None and r["digest"] != first:
                error = "DigestMismatch: output differs from the first pass"
            if error is not None:
                failures.setdefault(job["id"], []).append(error)
            times.setdefault(job["id"], []).append(
                r["seconds"] if error is None else math.inf)
            rss.append(r["rss_mb"])
            for key, value in r["stats"].items():
                counters[key] = counters.get(key, 0) + value
            if traced:
                r["pass"] = index
                results.append(r)
        per_pass_counters.append(counters)
        after_pass()
    return {
        "passes": passes, "times": times, "rss": rss, "results": results,
        "scale": REFERENCE_CALIBRATION_S / statistics.quantiles(calibration, n=10)[0],
        "counters": per_pass_counters, "failures": failures, "reference": reference,
        "attempted": len(rss), "failed": sum(len(v) for v in failures.values()),
        "seconds": time.perf_counter() - start,
    }


# ----- metrics -----

_E2E_UNITS = {"setup_s": "s", "job_s.p50": "s", "job_s.p90": "s",
              "peak_rss_mb": "MB", "failed_frac": "ratio"}
# failed_frac is printed but left out of the JSON: it is 0 on a healthy
# run, and the JSON's own `failed` and `attempted` carry it.
_E2E_REPORTED = ("setup_s", "job_s.p50", "job_s.p90", "peak_rss_mb")


def _best_times(run: dict) -> list[float]:
    """Each job's best time over the passes; +inf if any run failed."""
    return [math.inf if math.inf in ts else min(ts) for ts in run["times"].values()]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed jobs enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _end_to_end(run: dict, setup_samples: list[float]) -> dict:
    """End-to-end metrics; times scaled by the run's calibration."""
    return {
        "setup_s": statistics.median(setup_samples) * run["scale"],
        "job_s.p50": _percentile(_best_times(run), 0.5) * run["scale"],
        "job_s.p90": _percentile(_best_times(run), 0.9) * run["scale"],
        "peak_rss_mb": max(run["rss"]),
        "failed_frac": run["failed"] / run["attempted"],
    }


def _finite(value: float):
    return value if math.isfinite(value) else None


# ----- reporting -----


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _print_environment(args, root, jobs, plain, traced) -> None:
    print("environment")
    print(f"  python: {platform.python_version()} ({platform.python_implementation()})")
    print(f"  nproc: {os.cpu_count()}")
    print(f"  platform: {platform.platform()}")
    print(f"  git commit: {_git_commit(root)}")
    print(f"  workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    print(f"  jobs per pass: {len(jobs)}  untraced passes: {plain['passes']} "
          f"({plain['seconds']:.1f} s)" + (
              f"  traced passes: {traced['passes']} ({traced['seconds']:.1f} s)"
              if traced else ""))
    digest = hashlib.sha256("".join(
        f"{job['id']}:{plain['reference'][job['id']]}\n" for job in jobs
    ).encode()).hexdigest()
    print(f"  run digest (sha256 over per-job output digests): {digest}")


def _print_metrics(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in metrics.items():
        note = f"    [{notes[name]}]" if name in notes else ""
        print(f"  {name}: {value:.6g} {units[name]}{note}")


def _print_counters(run: dict) -> None:
    first = run["counters"][0]
    repeat = all(c == first for c in run["counters"])
    print("work counters (sum of CLI stats over one pass)")
    for key in sorted(first):
        print(f"  {key}: {first[key]} count")
    print(f"  identical in every pass: {'yes' if repeat else 'NO'}")


def _print_failures(jobs, plain, traced) -> None:
    by_id = {job["id"]: job for job in jobs}
    failures = dict(plain["failures"])
    for job_id, errors in (traced["failures"] if traced else {}).items():
        failures.setdefault(job_id, []).extend(errors)
    print(f"failed jobs: {sum(len(v) for v in failures.values())}")
    for job_id in sorted(failures):
        classes = sorted({e.split(":", 1)[0] for e in failures[job_id]})
        print(f"  {job_id} [{', '.join(classes)}] x{len(failures[job_id])}: "
              f"ramspace {' '.join(by_id[job_id]['argv'])}")
        print(f"    {failures[job_id][0]}")


def _write_spans(root: str, args, results: list[dict]) -> str:
    path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            for span_id, parent, name, start, end in r["spans"]:
                fh.write(json.dumps({"job": r["id"], "pass": r["pass"], "span": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    return os.path.relpath(path, root)


if __name__ == "__main__":
    sys.exit(main())
