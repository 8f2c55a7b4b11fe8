"""One benchmark job, run to a verified result in a forked worker.

`run_forked` forks a child from the parent (which has imported
`ramspace` but never runs a job itself), and the child:

  1. calls `ramspace.cli.main(argv)` with stdout and stderr captured;
  2. replays every certificate in the JSON output through the unchanged
     verifiers (`verify_dichotomy`, `verify_witness`);
  3. checks the answer against the job's reference;
  4. reports elapsed time for steps 1-2 (the time to a verified result),
     the SHA-256 of the output bytes, the work counters from the CLI
     `stats` (and the audit report's instance total), and, when traced,
     its spans and hot-primitive counters.

The result travels back as JSON over a pipe; the parent reads it to EOF
and then reaps the child with `os.wait4`, which also yields the child's
peak RSS.  One job per process matches the CLI and keeps process-global
state (such as the forcing engine's neighbourhood cache) from carrying
over between jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

from ramspace import cli, forcing, ramsey
from ramspace.spaces import parse_params_str, space_from_params

import tracing


class CheckFailed(Exception):
    """The job ran but its output is wrong or incomplete."""


def run_forked(job: dict, traced: bool) -> dict:
    """Run `job` in a fresh child process and return its result record."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            payload = json.dumps(_child(job, traced)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        except BaseException:  # the child must never return into the parent's loop
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        raw = fh.read()
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not raw:
        result = _failure(job, f"WorkerExit: worker exited with code {code}")
    else:
        result = json.loads(raw)
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def _failure(job: dict, error: str) -> dict:
    return {"id": job["id"], "error": error, "seconds": None,
            "digest": None, "stats": {}, "spans": [], "hot": {}}


def _child(job: dict, traced: bool) -> dict:
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    payload, replays, code, seconds, error = None, {}, None, None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job["argv"])
        if out.getvalue():
            payload = json.loads(out.getvalue())
            replays = _replay(payload)
        seconds = time.perf_counter() - start
    except Exception as e:  # the job boundary: record it, keep the run going
        tb = traceback.extract_tb(e.__traceback__)[-1]
        error = f"{type(e).__name__}: {e} (at {os.path.basename(tb.filename)}:{tb.lineno})"
    spans, hot = tracer.collect() if tracer else ([], {})
    if error is None:
        try:
            _check(job, code, err.getvalue(), payload, replays)
        except Exception as e:  # a malformed payload fails the job the same way
            error = f"{type(e).__name__}: {e}"
    return {
        "id": job["id"],
        "error": error,
        "seconds": seconds if error is None else None,
        "digest": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stats": _work_counters(payload or {}),
        "spans": spans,
        "hot": hot,
    }


def _work_counters(payload: dict) -> dict:
    """The CLI's deterministic work counters for one job."""
    stats = payload.get("stats") or {}
    counters = {key: stats[key] for key in tracing.WORK_COUNTERS if key in stats}
    if payload.get("command") == "audit":
        counters["instances"] = sum(row["instances"] for row in payload["report"])
    return counters


def _replay(payload: dict) -> dict:
    """Replay every certificate in a CLI payload; name -> accepted."""
    verify = (ramsey.verify_witness if payload["command"] == "ramsey"
              else forcing.verify_dichotomy)
    certs = payload.get("certificates") or {}
    return {name: verify(certs[name]) for name in sorted(certs)}


def _check(job: dict, code, stderr: str, payload, replays: dict) -> None:
    """Compare one job's output with its reference; raise CheckFailed."""
    expect = job["expect"]
    if code != expect["exit"]:
        raise CheckFailed(
            f"exit code {code}, expected {expect['exit']}: {stderr.strip()[:200]}"
        )
    if payload is None:
        raise CheckFailed("no JSON output")
    outcome = payload["outcome"]
    if outcome not in expect["outcome"]:
        raise CheckFailed(f"outcome {outcome!r}, expected one of {expect['outcome']}")
    for key in ("value", "stem"):
        if key in expect and payload.get(key) != expect[key]:
            raise CheckFailed(f"{key} {payload.get(key)!r}, expected {expect[key]!r}")
    rejected = [name for name, ok in replays.items() if not ok]
    if rejected:
        raise CheckFailed(f"certificates rejected by the verifier: {rejected}")
    if "certificates" in expect and sorted(replays) != expect["certificates"]:
        raise CheckFailed(
            f"certificates {sorted(replays)}, expected {expect['certificates']}"
        )
    if payload["command"] == "audit":
        bad = [c["axiom"] + ":" + c["name"] for c in payload["report"]
               if c["status"] != "bounded-pass"]
        if bad:
            raise CheckFailed(f"audit checks not bounded-pass: {bad}")
    if payload["command"] == "reduce":
        argv = job["argv"]
        _check_monochromatic(argv[argv.index("--coloring") + 1], payload)


def _check_monochromatic(path: str, payload: dict) -> None:
    """Replay a reduce answer from the coloring file alone: every length-k
    approximation below the returned stem has the returned color."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    space = space_from_params(parse_params_str(lines[0]))
    k = int(parse_params_str(lines[1])["k"])
    colors = dict(ln.rsplit(":", 1) for ln in lines[2:])
    top = space.parse(payload["stem"])
    for a in space.fin_below(top):
        if a.length == k and int(colors[space.serialize(a)]) != payload["color"]:
            raise CheckFailed(
                f"reduct {payload['stem']} is not monochromatic: "
                f"{space.serialize(a)} has color {colors[space.serialize(a)]}"
            )
