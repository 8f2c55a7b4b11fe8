"""The per-command CLI parser against the pinned output of the parser
that built every command's options.

`tests/data/cli_parser.json` holds, for a grid of argv, the exit code,
stdout and stderr of `main` on help, version and usage-error argv, and
the parsed namespace of valid argv, all taken with every subcommand's
options built and COLUMNS=100.
"""

import contextlib
import io
import json
import pathlib

import pytest

from ramspace import cli

DATA = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_parser.json").read_text()
)


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


def _namespace(parser, argv):
    ns = vars(parser.parse_args(argv))
    ns["fn"] = ns["fn"].__name__
    return ns


@pytest.mark.parametrize(
    "case", DATA["messages"], ids=lambda c: " ".join(c["argv"]) or "no-args"
)
def test_help_version_and_usage_errors_match_the_pinned_text(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (
        case["exit"], case["stdout"], case["stderr"]
    )


@pytest.mark.parametrize("case", DATA["parses"], ids=lambda c: " ".join(c["argv"]))
def test_parsed_namespaces_match_the_pinned_ones(case):
    argv = case["argv"]
    assert _namespace(cli.build_parser(argv), argv) == case["namespace"]
    assert _namespace(cli.build_parser(), argv) == case["namespace"]


def _options(parser):
    """Action counts of each subparser, `ramsey` variants as ramsey/<name>."""
    out = {}
    for name, p in parser._subparsers._group_actions[0].choices.items():
        out[name] = len(p._actions)
        if name == "ramsey":
            for v, q in p._subparsers._group_actions[0].choices.items():
                out[f"ramsey/{v}"] = len(q._actions)
    return out


@pytest.mark.parametrize(
    "argv, given",
    [
        (["galvin", "--family", "f.txt"], {"galvin"}),
        (["--version", "audit", "--space", "ellentuck"], {"audit"}),
        (["ramsey", "glr", "--k", "1"], {"ramsey", "ramsey/glr"}),
        (["ramsey", "--help"], {"ramsey"}),
        (["reduce", "ramsey"], {"reduce"}),
        ([], set()),
    ],
)
def test_only_the_named_command_gets_options(argv, given):
    full = _options(cli.build_parser())
    named = _options(cli.build_parser(argv))
    assert set(named) == set(full) and len(full) == 8
    # a command without options keeps its help option (and ramsey its
    # variant list)
    bare = {name: 2 if name == "ramsey" else 1 for name in full}
    assert named == {name: full[name] if name in given else bare[name] for name in full}
