"""Batch command-line frontend.

Subcommands drive the library's audits, dichotomy searches, witness
computations, and coloring reductions with reproducible output:
identical configuration and inputs produce byte-identical text and
json output (timing is only emitted under --timing).

Every space has a default ambient stem (`Space.full_stem`: the whole
ground set, the identity matrix, the discrete partition), so `galvin`
and `reduce` run without `--stem` on all three spaces.

Exit codes: 0 success (bounded-pass / dichotomy certified / witness
found / monochromatic reduct), 1 counterexample or lower-bound-only,
2 usage or input errors, 3 inconclusive or exhausted bound, 4 refusal
because a size estimate exceeds a ceiling, 5 internal error (a bug:
reported as one `internal error: <type>: <message>` line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields

from . import __version__
from .audit import AuditBounds, audit_axioms
from .core import Stem
from .errors import CeilingExceededError, ParseError, RamspaceError
from .forcing import ALT1, ALT2, MAX_REDUCTS, FrontFamily, front_family, galvin_search
from .ramsey import (
    EXHAUSTIVE_CEILING,
    FOUND,
    LOWER_BOUND,
    Coloring,
    abs_ramsey_reduce,
    finite_ramsey_witness,
)
from .spaces import SPACE_TAGS, SPACES, int_param, parse_params_str, space_from_params

ENV_CEILING = "RAMSPACE_CEILING"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_REFUSED = 4
EXIT_INTERNAL = 5


def _default_ceiling() -> int:
    raw = os.environ.get(ENV_CEILING)
    if not raw:
        return EXHAUSTIVE_CEILING
    try:
        ceiling = int(raw)
    except ValueError:
        ceiling = 0
    if ceiling < 1:
        raise ParseError(f"bad {ENV_CEILING} value {raw!r}: need an integer >= 1")
    return ceiling


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
        bound = int(body[0].split("=", 1)[1])
        body = body[1:]
    return front_family(space, (space.parse(ln) for ln in body), bound)


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
        mapping[space.serialize(a)] = int(color)
    return Coloring(space, k, s, mapping)


class Output:
    def __init__(self, args):
        self.format = args.format
        self.path = args.output
        self.timing = args.timing
        self.started = time.perf_counter()

    def seconds(self):
        return round(time.perf_counter() - self.started, 3) if self.timing else None

    def emit(self, payload: dict, text_lines: list[str]):
        if self.format == "json":
            payload = dict(payload, seconds=self.seconds())
            content = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            lines = list(text_lines)
            if self.timing:
                lines.append(f"seconds: {self.seconds()}")
            content = "\n".join(lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            sys.stdout.write(content)


# The space options by argparse dest, which is a field of one space class.
_SPACE_OPTIONS = {
    "ground": "--ground",
    "q": "--q",
    "max_cols": "--max-cols",
    "max_domain": "--domain",
}


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


def cmd_audit(args) -> int:
    out = Output(args)
    space = _space(args)
    bounds = AuditBounds(
        max_len=args.max_len,
        max_depth=args.depth,
        include_a6=args.a6,
        a6_max_len=args.max_len,
    )
    report = audit_axioms(space, bounds)
    code = EXIT_OK if report.passed else EXIT_NEGATIVE
    rows = [
        {
            "axiom": c.axiom,
            "name": c.name,
            "status": c.status,
            "instances": c.instances,
            "notes": c.notes,
            "witness": c.witness,
        }
        for c in report.checks
    ]
    payload = {
        "command": "audit",
        "parameters": {"space": space.params_str(), "bounds": vars(bounds) | {}},
        "outcome": "bounded-pass" if report.passed else "counterexample",
        "exit_code": code,
        "report": rows,
        "stats": {
            "depth_pairs_checked": report.depth_pairs_checked,
            "depth_violations": report.depth_violations,
        },
    }
    out.emit(payload, report.summary_lines())
    return code


# The galvin options that name a family inline, by argparse dest.
_INLINE_FAMILY = {
    "member": "--member",
    "length_bound": "--length-bound",
    "space": "--space",
    **_SPACE_OPTIONS,
}


def cmd_galvin(args) -> int:
    out = Output(args)
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
        family = front_family(space, members, args.length_bound)
    space = family.space
    ambient = _ambient(space, args.stem)
    result = galvin_search(ambient, family, args.max_reducts)
    code = EXIT_OK if result.outcome in (ALT1, ALT2) else EXIT_INCONCLUSIVE
    payload = {
        "command": "galvin",
        "parameters": {
            "space": space.params_str(),
            "family": family.serialize_members(),
            "length_bound": family.length_bound,
            "ambient": ambient.serialize(),
        },
        "outcome": result.outcome,
        "exit_code": code,
        "stem": result.stem.serialize() if result.stem else None,
        "certificates": {"dichotomy": result.certificate} if result.certificate else {},
        "diagnostics": result.diagnostics or None,
        "stats": result.stats,
    }
    text = [f"outcome: {result.outcome}"]
    if result.stem:
        text.append(f"stem: {result.stem.serialize()}")
    if result.diagnostics:
        text.append(f"diagnostics: {result.diagnostics}")
    if result.certificate:
        text.append(result.certificate.rstrip("\n"))
    out.emit(payload, text)
    return code


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
        exhaustive_ceiling=_default_ceiling(), node_budget=args.node_budget,
    )


def cmd_ramsey(args) -> int:
    out = Output(args)
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
        "command": "ramsey",
        "parameters": {"instance": instance, "bound": args.bound, "mode": args.mode},
        "outcome": result.outcome,
        "value": result.value,
        "exit_code": code,
        "certificates": certs,
        "stats": result.stats,
    }
    text = [f"outcome: {result.outcome}", f"value: {result.value}"]
    for name in sorted(certs):
        text.append(certs[name].rstrip("\n"))
    out.emit(payload, text)
    return code


def cmd_reduce(args) -> int:
    out = Output(args)
    coloring = parse_coloring_file(_read_lines(args.coloring))
    space = coloring.space
    result = abs_ramsey_reduce(coloring, _ambient(space, args.stem))
    code = EXIT_OK if result.outcome == "mono" else EXIT_INCONCLUSIVE
    payload = {
        "command": "reduce",
        "parameters": {"space": space.params_str(), "k": coloring.k, "s": coloring.s},
        "outcome": result.outcome,
        "exit_code": code,
        "stem": result.stem.serialize() if result.stem else None,
        "color": result.color,
        "certificates": {
            f"stage{i}": c for i, c in enumerate(result.certificates) if c
        },
        "diagnostics": result.diagnostics or None,
        "stats": result.stats,
    }
    text = [f"outcome: {result.outcome}"]
    if result.stem:
        text.append(f"stem: {result.stem.serialize()}")
        text.append(f"color: {result.color}")
    out.emit(payload, text)
    return code


def _add_common(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", help="write output to this path instead of stdout")
    p.add_argument(
        "--timing",
        action="store_true",
        help="include wall time (off by default so output is byte-stable)",
    )


def _add_space_options(p):
    # Destinations are the space classes' field names, so the parsed
    # arguments are a space_from_params mapping.
    p.add_argument("--space", choices=SPACE_TAGS)
    p.add_argument("--ground", type=int, help="ellentuck ground bound")
    p.add_argument("--q", type=int, help="matrix field order")
    p.add_argument("--max-cols", type=int, help="matrix column truncation")
    p.add_argument(
        "--domain",
        dest="max_domain",
        metavar="DOMAIN",
        type=int,
        help="partition domain truncation",
    )


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The argument parser for `argv`, or for every command without it.

    Every command and `ramsey` variant is registered, but only the ones
    `argv` names get their options: building the options of all of them
    would cost most of a short job.  The top-level parser and `ramsey`
    take no option with a value, so the names are the first two
    arguments that are not options; argparse reads no other subparser.
    """
    named = None if argv is None else [a for a in argv if not a.startswith("-")][:2]

    def wanted(*names):
        return named is None or named[: len(names)] == list(names)

    parser = argparse.ArgumentParser(
        prog="ramspace",
        description="Audits, dichotomy searches, and Ramsey witnesses "
        "on truncated approximation spaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="check the structural laws of a space")
    if wanted("audit"):
        _add_space_options(p)
        p.add_argument("--depth", type=int, default=4)
        p.add_argument("--max-len", type=int, default=2)
        p.add_argument("--a6", action="store_true", help="include the pigeonhole audit")
        _add_common(p)
        p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("galvin", help="run the dichotomy search for a front family")
    if wanted("galvin"):
        _add_space_options(p)
        p.add_argument("--family", help="family file (header + one member per line)")
        p.add_argument(
            "--member",
            action="append",
            default=[],
            help="inline family member (repeatable; requires --space options)",
        )
        p.add_argument("--length-bound", type=int)
        p.add_argument("--stem", help="ambient stem serialization (default: full stem)")
        p.add_argument("--max-reducts", type=int, default=MAX_REDUCTS)
        _add_common(p)
        p.set_defaults(fn=cmd_galvin)

    p = sub.add_parser("ramsey", help="compute a finite Ramsey-type witness")
    variant = p.add_subparsers(dest="variant", required=True)
    for name in ("classical", "glr", "paramset", "witness"):
        v = variant.add_parser(name)
        if not wanted("ramsey", name):
            continue
        v.add_argument("--k", type=int, required=True)
        if name == "paramset":
            v.add_argument("--m", type=int, required=True)
        else:
            v.add_argument("--n", type=int, required=True)
        v.add_argument("--s", type=int, required=True)
        v.add_argument("--bound", type=int, required=True)
        v.add_argument("--mode", choices=("exhaustive", "backtracking"), default="exhaustive")
        v.add_argument("--node-budget", type=int)
        if name in ("glr", "witness"):
            v.add_argument("--q", type=int, default=2 if name == "glr" else None)
        if name == "witness":
            v.add_argument("--space", choices=SPACE_TAGS, required=True)
        _add_common(v)
        v.set_defaults(fn=cmd_ramsey)

    p = sub.add_parser("reduce", help="find a reduct on which a coloring is constant")
    if wanted("reduce"):
        p.add_argument("--coloring", required=True, help="coloring file")
        p.add_argument("--stem", help="ambient stem serialization (default: full stem)")
        _add_common(p)
        p.set_defaults(fn=cmd_reduce)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors already
        return int(e.code or 0)
    try:
        return args.fn(args)
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
