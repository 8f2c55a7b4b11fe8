"""The CLI's argv reading against argparse and the pinned parser output.

`main` reads a spelled-out argv from the option table with
`cli.read_argv` and builds argparse (`cli.build_parser`) only for what
that read declines: help, version, abbreviations, `--flag=value` and
usage errors.  `tests/data/cli_parser.json` holds, for a grid of argv,
the exit code, stdout and stderr of `main` on help, version and
usage-error argv, and the parsed namespace of valid argv, all taken
with every subcommand's options built and COLUMNS=100.  A differential
test checks the table read against argparse on drawn and perturbed
argv, and a fresh interpreter checks that a job never imports argparse.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramspace import cli

DATA = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_parser.json").read_text()
)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


def _named(namespace):
    ns = vars(namespace)
    return dict(ns, fn=ns["fn"].__name__)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "case", DATA["messages"], ids=lambda c: " ".join(c["argv"]) or "no-args"
)
def test_help_version_and_usage_errors_match_the_pinned_text(case):
    assert cli.read_argv(case["argv"]) is None
    assert _main(case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


# The pinned parses that only argparse reads: an abbreviation and
# `--flag=value`.
ARGPARSE_ONLY = ("--dep", "--space=matrix")


@pytest.mark.parametrize("case", DATA["parses"], ids=lambda c: " ".join(c["argv"]))
def test_parsed_namespaces_match_the_pinned_ones(case):
    argv = case["argv"]
    read = cli.read_argv(argv)
    if any(token in argv for token in ARGPARSE_ONLY):
        assert read is None
    else:
        assert _named(read) == case["namespace"]
    assert _named(cli.build_parser().parse_args(argv)) == case["namespace"]


# ----- the table read against argparse on drawn argv -----

def _probe(args):
    print(sorted((k, repr(v)) for k, v in vars(args).items() if k != "fn"))
    return 0


# The table with every command replaced by a probe that prints its
# namespace, so `main` runs no search and writes no --output file.
PROBES = {key: (_probe, options) for key, (_, options) in cli._COMMANDS.items()}

INT_VALUES = (st.integers(0, 20).map(str), st.sampled_from(["-1", "-0", "x", "1.5", ""]))
TEXT_VALUES = (
    st.sampled_from(["f.txt", "{0}", "q=2;1", "", "a b", "audit", "x=y"]),
    st.sampled_from(["-f", "--", "--timing", "-1"]),
)


@st.composite
def argvs(draw):
    """(argv, spelled): argv drawn from one command's table, perturbed or
    not; spelled is true when no perturbation or bad value went in."""
    key = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[key][1]
    # a required flag is left out one time in eight, another flag kept
    # one time in four; then up to three more, repeats included
    picked = [
        (flag, kw) for flag, kw in options
        if draw(st.integers(0, 7)) > (0 if kw.get("required") else 5)
    ]
    picked = draw(st.permutations(picked + draw(st.lists(st.sampled_from(options), max_size=3))))
    spelled = {f for f, kw in options if kw.get("required")} <= {f for f, _ in picked}
    tokens = []
    for flag, kw in picked:
        if kw.get("action") == "store_true":
            tokens.append([flag])
            continue
        good = draw(st.integers(0, 7)) > 0
        if "choices" in kw:
            bad = st.sampled_from(["nope", "", "-x"])
            value = draw(st.sampled_from(kw["choices"]) if good else bad)
        else:
            value = draw((INT_VALUES if "type" in kw else TEXT_VALUES)[not good])
        spelled = spelled and good
        tokens.append([flag, value])
    perturb = draw(st.sets(st.sampled_from(
        ["abbreviate", "join", "--", "help", "unknown", "missing value"]), max_size=2)
        if draw(st.booleans()) else st.just(set()))
    if tokens and "abbreviate" in perturb:
        i = draw(st.integers(0, len(tokens) - 1))
        flag = tokens[i][0]
        tokens[i][0] = flag[: draw(st.integers(3, len(flag) - 1))] if len(flag) > 3 else flag
    if tokens and "join" in perturb and len(tokens[-1]) == 2:
        tokens[-1] = ["=".join(tokens[-1])]
    if tokens and "missing value" in perturb and len(tokens[-1]) == 2:
        tokens[-1] = tokens[-1][:1]
    flat = [t for group in tokens for t in group]
    for extra, inserted in (("--", "--"), ("help", "-h"), ("unknown", None)):
        if extra in perturb:
            token = inserted or draw(st.sampled_from(["--bogus", "extra", "-x", "--ver"]))
            flat.insert(draw(st.integers(0, len(flat))), token)
    argv = [*key, *flat]
    return argv, spelled and not perturb


@settings(max_examples=300, deadline=None)
@given(drawn=argvs())
def test_the_table_read_declines_or_matches_argparse(drawn):
    argv, spelled = drawn
    with mock.patch.object(cli, "_COMMANDS", PROBES):
        read = cli.read_argv(argv)
        if spelled:
            assert read is not None, argv
        if read is not None:
            assert vars(read) == vars(cli.build_parser().parse_args(argv))
        fast = _main(argv)
        with mock.patch.object(cli, "read_argv", lambda argv: None):
            assert fast == _main(argv)


# ----- a job never imports argparse -----

_IN_FRESH_INTERPRETER = """
import contextlib, io, json, sys
from ramspace import cli
rows = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    rows.append([code, out.getvalue(), err.getvalue(), "argparse" in sys.modules])
print(json.dumps(rows))
"""


def _fresh(*argvs):
    proc = subprocess.run(
        [sys.executable, "-c", _IN_FRESH_INTERPRETER, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="100"),
    )
    return json.loads(proc.stdout)


def test_spelled_out_jobs_never_import_argparse(tmp_path):
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("space=ellentuck;ground=4\nk=1;s=2\n{0}:0\n{1}:1\n{2}:0\n{3}:1\n")
    jobs = [
        ["audit", "--space", "ellentuck", "--ground", "4", "--depth", "2"],
        ["galvin", "--space", "ellentuck", "--ground", "4", "--member", "{0}"],
        ["reduce", "--coloring", str(coloring), "--format", "json"],
        ["ramsey", "classical", "--k", "1", "--n", "3", "--s", "2", "--bound", "6"],
        ["ramsey", "glr", "--k", "1", "--n", "2", "--s", "2", "--bound", "4"],
        ["ramsey", "paramset", "--k", "1", "--m", "3", "--s", "2", "--bound", "3"],
        ["ramsey", "witness", "--space", "partition", "--k", "1", "--n", "2",
         "--s", "2", "--bound", "3"],
    ]
    rows = _fresh(*jobs)
    assert [(code, err, loaded) for code, _, err, loaded in rows] == [(0, "", False)] * 7
    assert all(out for _, out, _, _ in rows)


def test_help_and_usage_errors_build_argparse_in_a_fresh_interpreter():
    cases = [c for c in DATA["messages"] if c["argv"] in (["--help"], ["audit", "--depth", "x"])]
    rows = _fresh(*(c["argv"] for c in cases))
    assert len(cases) == 2
    assert rows == [[c["exit"], c["stdout"], c["stderr"], True] for c in cases]
