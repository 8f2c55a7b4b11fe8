"""Batch command-line frontend.

Subcommands drive the library's audits, dichotomy searches, witness
computations, and coloring reductions with reproducible output:
identical configuration and inputs produce byte-identical text and
json output (timing is only emitted under --timing).

Every space has a default ambient stem (`Space.full_stem`: the whole
ground set, the identity matrix, the discrete partition), so `galvin`
and `reduce` run without `--stem` on all three spaces.

Every command's options are declared once, in `_COMMANDS`.  `main`
reads a spelled-out argv straight from that table (`read_argv`), and
builds argparse from the same table (`build_parser`) only for what that
read declines: help, version, abbreviations, `--flag=value` and usage
errors.  So a job never imports argparse, and argparse writes every
help and error text.

Each `cmd_*` returns (exit code, JSON payload, text lines); `main` adds
`command` and `exit_code` and writes one of them to stdout or
`--output`.  A `--q` outside (2, 3, 5, 7) is a usage error everywhere.

Exit codes: 0 success (bounded-pass / dichotomy certified / witness
found / monochromatic reduct), 1 counterexample or lower-bound-only,
2 usage or input errors, 3 a `ramsey` search that is inconclusive or
exhausts its bound (`galvin` and `reduce` always answer or refuse),
4 refusal because a size estimate exceeds a ceiling, 5 internal error
(a bug: reported as one `internal error: <type>: <message>` line, no
traceback).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import fields
from types import SimpleNamespace

from . import __version__
from .audit import BOUNDED_PASS, COUNTEREXAMPLE, AuditBounds, audit_axioms
from .core import Stem
from .errors import CeilingExceededError, ParseError, RamspaceError
from .forcing import MAX_REDUCTS, FrontFamily, galvin_search
from .ramsey import (
    FOUND,
    LOWER_BOUND,
    Coloring,
    abs_ramsey_reduce,
    finite_ramsey_witness,
)
from .spaces import SPACE_TAGS, SPACES, int_param, parse_params_str, space_from_params

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_REFUSED = 4
EXIT_INTERNAL = 5


def _ambient(space, stem_text: str | None) -> Stem:
    """The --stem argument, or the space's full stem when it is absent."""
    return Stem(space, space.parse(stem_text)) if stem_text else space.full_stem()


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def parse_family_file(lines: list[str]) -> FrontFamily:
    """Family files: a space header line, an optional length_bound line,
    then one canonical member serialization per line."""
    if not lines:
        raise ParseError("empty family file")
    space = space_from_params(parse_params_str(lines[0]))
    bound = None
    body = lines[1:]
    if body and body[0].startswith("length_bound="):
        key, _, value = body[0].partition("=")
        bound = int_param({key: value}, key, "the family file")
        body = body[1:]
    return FrontFamily(space, (space.parse(ln) for ln in body), bound)


def parse_coloring_file(lines: list[str]) -> Coloring:
    """Coloring files: a space header, a `k=..;s=..` line, then
    `serialization:color` lines."""
    if len(lines) < 2:
        raise ParseError("coloring file needs a space header and a k/s line")
    space = space_from_params(parse_params_str(lines[0]))
    meta = parse_params_str(lines[1])
    k, s = (int_param(meta, key, "the coloring's k/s line") for key in ("k", "s"))
    mapping = {}
    for ln in lines[2:]:
        body, sep, color = ln.rpartition(":")
        if not sep:
            raise ParseError(f"bad coloring line: {ln!r}")
        a = space.parse(body)
        if a.length != k:
            raise ParseError(f"coloring line {ln!r} has length {a.length}, not k={k}")
        if a in mapping:
            raise ParseError(f"coloring lists {space.serialize(a)} twice")
        mapping[a] = int_param({"color": color}, "color", f"coloring line {ln!r}")
    return Coloring(space, k, s, mapping)


# The space options as (flag, add_argument keywords).  Their
# destinations are the space classes' field names, so the parsed
# arguments are a space_from_params mapping.
_SPACE = (
    ("--space", {"choices": SPACE_TAGS}),
    ("--ground", {"type": int, "help": "ellentuck ground bound"}),
    ("--q", {"type": int, "help": "matrix field order"}),
    ("--max-cols", {"type": int, "help": "matrix column truncation"}),
    ("--domain", {"dest": "max_domain", "metavar": "DOMAIN", "type": int,
                  "help": "partition domain truncation"}),
)


def _dest(flag: str, keywords: dict) -> str:
    return keywords.get("dest", flag[2:].replace("-", "_"))


# The space options by dest, which is a field of one space class.
_SPACE_OPTIONS = {_dest(flag, kw): flag for flag, kw in _SPACE[1:]}


def _space(args):
    """The space of the --space options; matrix without --q is GF(2).
    An option that is no field of the chosen space is refused."""
    if args.space in SPACES:
        owned = {f.name for f in fields(SPACES[args.space])}
        foreign = [
            flag
            for dest, flag in _SPACE_OPTIONS.items()
            if dest not in owned and getattr(args, dest) is not None
        ]
        if foreign:
            raise ParseError(f"the {args.space} space takes no {', '.join(foreign)}")
    return space_from_params(dict(vars(args), q=2 if args.q is None else args.q))


def cmd_audit(args):
    space = _space(args)
    bounds = AuditBounds(
        max_len=args.max_len,
        max_depth=args.depth,
        include_a6=args.a6,
    )
    report = audit_axioms(space, bounds)
    payload = {
        "parameters": {"space": space.params_str(), "bounds": vars(bounds)},
        "outcome": BOUNDED_PASS if report.passed else COUNTEREXAMPLE,
        "report": [vars(c) for c in report.checks],
        "stats": {
            "depth_pairs_checked": report.depth_pairs_checked,
            "depth_violations": report.depth_violations,
        },
    }
    code = EXIT_OK if report.passed else EXIT_NEGATIVE
    return code, payload, report.summary_lines()


# The galvin options that name a family inline, by dest.
_INLINE_FAMILY = {
    "member": "--member",
    "length_bound": "--length-bound",
    "space": "--space",
    **_SPACE_OPTIONS,
}


def cmd_galvin(args):
    if args.family:
        # The file holds the space, the length bound and the members.
        given = [
            flag
            for dest, flag in _INLINE_FAMILY.items()
            if getattr(args, dest) not in (None, [])
        ]
        if given:
            raise ParseError(f"--family takes no {', '.join(given)}")
        family = parse_family_file(_read_lines(args.family))
    else:
        space = _space(args)
        members = (space.parse(m) for m in args.member)
        family = FrontFamily(space, members, args.length_bound)
    space = family.space
    ambient = _ambient(space, args.stem)
    result = galvin_search(ambient, family, args.max_reducts)
    payload = {
        "parameters": {
            "space": space.params_str(),
            "family": family.serialize_members(),
            "length_bound": family.length_bound,
            "ambient": ambient.serialize(),
        },
        "outcome": result.outcome,
        "stem": result.stem.serialize(),
        "certificates": {"dichotomy": result.certificate},
        "stats": result.stats,
    }
    text = [
        f"outcome: {result.outcome}",
        f"stem: {result.stem.serialize()}",
        result.certificate.rstrip("\n"),
    ]
    return EXIT_OK, payload, text


def _run_ramsey(args):
    """The variant's instance string and its finite_ramsey_witness result."""
    n = args.m if args.variant == "paramset" else args.n
    q = getattr(args, "q", None)  # glr and witness only; matrix levels supply 2
    if args.variant == "classical":
        kind, instance = "classical", f"classical;k={args.k};n={n};s={args.s}"
    elif args.variant == "glr":
        kind, instance = "matrix", f"glr;q={q};k={args.k};n={n};s={args.s}"
    elif args.variant == "paramset":
        kind, instance = "partition", f"paramset;k={args.k};m={n};s={args.s}"
    else:
        kind = args.space
        field = f"q={2 if q is None else q};" if kind == "matrix" else ""
        instance = f"witness;space={kind};{field}k={args.k};n={n};s={args.s}"
    return instance, finite_ramsey_witness(
        kind, args.k, n, args.s, args.bound, mode=args.mode, q=q,
        node_budget=args.node_budget,
    )


def cmd_ramsey(args):
    instance, result = _run_ramsey(args)
    # exhausted (every level refuted) and inconclusive (none decided)
    code = {FOUND: EXIT_OK, LOWER_BOUND: EXIT_NEGATIVE}.get(
        result.outcome, EXIT_INCONCLUSIVE
    )
    certs = {}
    if result.found_certificate:
        certs["found"] = result.found_certificate
    if result.lower_bound_certificate:
        certs["lower_bound"] = result.lower_bound_certificate
    payload = {
        "parameters": {"instance": instance, "bound": args.bound, "mode": args.mode},
        "outcome": result.outcome,
        "value": result.value,
        "certificates": certs,
        "stats": result.stats,
    }
    text = [f"outcome: {result.outcome}", f"value: {result.value}"]
    for name in sorted(certs):
        text.append(certs[name].rstrip("\n"))
    return code, payload, text


def cmd_reduce(args):
    coloring = parse_coloring_file(_read_lines(args.coloring))
    space = coloring.space
    result = abs_ramsey_reduce(coloring, _ambient(space, args.stem))
    payload = {
        "parameters": {"space": space.params_str(), "k": coloring.k, "s": coloring.s},
        "outcome": result.outcome,
        "stem": result.stem.serialize(),
        "color": result.color,
        "certificates": {f"stage{i}": c for i, c in enumerate(result.certificates)},
        "stats": result.stats,
    }
    text = [
        f"outcome: {result.outcome}",
        f"stem: {result.stem.serialize()}",
        f"color: {result.color}",
    ]
    return EXIT_OK, payload, text


def _emit(args, payload: dict, text_lines: list[str], started: float) -> None:
    """Write a command's result as JSON or text, to stdout or --output;
    under --timing the wall time since `started` is its last field."""
    seconds = round(time.perf_counter() - started, 3) if args.timing else None
    if args.format == "json":
        content = json.dumps(dict(payload, seconds=seconds), indent=2, sort_keys=True)
    else:
        timing = [f"seconds: {seconds}"] if args.timing else []
        content = "\n".join([*text_lines, *timing])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(content + "\n")
    else:
        sys.stdout.write(content + "\n")


_COMMON = (
    ("--format", {"choices": ("text", "json"), "default": "text"}),
    ("--output", {"help": "write output to this path instead of stdout"}),
    ("--timing", {"action": "store_true",
                  "help": "include wall time (off by default so output is byte-stable)"}),
)
_STEM = ("--stem", {"help": "ambient stem serialization (default: full stem)"})
_REQUIRED_INT = {"type": int, "required": True}


def _ramsey(size_flag: str, *extra) -> tuple:
    return (
        ("--k", _REQUIRED_INT),
        (size_flag, _REQUIRED_INT),
        ("--s", _REQUIRED_INT),
        ("--bound", _REQUIRED_INT),
        ("--mode", {"choices": ("exhaustive", "backtracking"), "default": "exhaustive"}),
        ("--node-budget", {"type": int}),
        *extra,
        *_COMMON,
    )


_COMMAND_HELP = {
    "audit": "check the structural laws of a space",
    "galvin": "run the dichotomy search for a front family",
    "ramsey": "compute a finite Ramsey-type witness",
    "reduce": "find a reduct on which a coloring is constant",
}

# Every command and `ramsey` variant: its function and its options as
# (flag, add_argument keywords), in help order.  The one declaration of
# the CLI's options: `read_argv` reads argv from it and `build_parser`
# builds argparse from it.
_COMMANDS = {
    ("audit",): (cmd_audit, (
        *_SPACE,
        ("--depth", {"type": int, "default": 4}),
        ("--max-len", {"type": int, "default": 2}),
        ("--a6", {"action": "store_true", "help": "include the pigeonhole audit"}),
        *_COMMON,
    )),
    ("galvin",): (cmd_galvin, (
        *_SPACE,
        ("--family", {"help": "family file (header + one member per line)"}),
        ("--member", {"action": "append", "default": [],
                      "help": "inline family member (repeatable; requires --space options)"}),
        ("--length-bound", {"type": int}),
        _STEM,
        ("--max-reducts", {"type": int, "default": MAX_REDUCTS}),
        *_COMMON,
    )),
    ("ramsey", "classical"): (cmd_ramsey, _ramsey("--n")),
    ("ramsey", "glr"): (cmd_ramsey, _ramsey("--n", ("--q", {"type": int, "default": 2}))),
    ("ramsey", "paramset"): (cmd_ramsey, _ramsey("--m")),
    ("ramsey", "witness"): (cmd_ramsey, _ramsey(
        "--n",
        ("--q", {"type": int}),
        ("--space", {"choices": SPACE_TAGS, "required": True}),
    )),
    ("reduce",): (cmd_reduce, (
        ("--coloring", {"required": True, "help": "coloring file"}),
        _STEM,
        *_COMMON,
    )),
}


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give a spelled-out `argv`, or None.

    Spelled out means: the command (and `ramsey` variant) first, then
    only exact flags of its table, each `--flag value` as two arguments
    with a value that does not start with `-`, every int and choice
    valid and every required flag given.  Anything else (help, version,
    an abbreviation, `--flag=value`, `--`, an error) returns None and
    is left to `build_parser`, so argparse writes every message.
    """
    key = tuple(argv[:2] if argv[:1] == ["ramsey"] else argv[:1])
    if key not in _COMMANDS:
        return None
    fn, options = _COMMANDS[key]
    table = dict(options)
    values = dict(zip(("command", "variant"), key), fn=fn)
    for flag, kw in options:
        action = kw.get("action")
        default = kw.get("default", False if action == "store_true" else None)
        values[_dest(flag, kw)] = list(default) if action == "append" else default
    rest = iter(argv[len(key):])
    for flag in rest:
        kw = table.get(flag)
        if kw is None:
            return None
        dest, action = _dest(flag, kw), kw.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        value = next(rest, "-")  # a flag without its value declines too
        if value.startswith("-"):
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        if action == "append":
            values[dest].append(value)
        else:
            values[dest] = value
    if any(kw.get("required") and values[_dest(flag, kw)] is None for flag, kw in options):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of every command, built from `_COMMANDS`.

    `main` reads a spelled-out argv with `read_argv` and builds this
    parser only for what that declines: help, version, abbreviations,
    `--flag=value` and usage errors.  This is the only place argparse
    is imported, so a job's path never loads or builds it, and every
    help and error text is argparse's own.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="ramspace",
        description="Audits, dichotomy searches, and Ramsey witnesses "
        "on truncated approximation spaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in _COMMAND_HELP.items()}
    variants = commands["ramsey"].add_subparsers(dest="variant", required=True)
    for key, (fn, options) in _COMMANDS.items():
        p = variants.add_parser(key[1]) if key[1:] else commands[key[0]]
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            # argparse exits with 2 on usage errors already
            return int(e.code or 0)
    started = time.perf_counter()
    try:
        code, payload, text_lines = args.fn(args)
        _emit(args, dict(payload, command=args.command, exit_code=code), text_lines, started)
        return code
    except CeilingExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except (RamspaceError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # a bug: one line, not a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
