"""Concrete space instances implementing the abstract contract."""

from dataclasses import fields

from ..core import Space
from ..errors import ParseError
from .ellentuck import EllentuckSpace
from .matrix import MatrixSpace
from .partition import PartitionSpace

# Kept only because perfbench/workloads.py imports them.
ell_space, matrix_space, partition_space = EllentuckSpace, MatrixSpace, PartitionSpace

SPACES = {cls.tag: cls for cls in (EllentuckSpace, MatrixSpace, PartitionSpace)}
SPACE_TAGS = tuple(SPACES)


def int_param(params: dict, key: str, owner: str) -> int:
    """`params[key]` as an int; a missing or non-integer value raises a
    ParseError naming the key and its owner."""
    try:
        return int(params[key])
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"{owner} needs an integer {key!r}") from None


def space_from_params(params: dict) -> Space:
    """Build a space from a params_str-style mapping: the `space` tag
    plus one entry per field of its class (other keys are ignored)."""
    tag = params.get("space")
    if tag not in SPACES:
        raise ParseError(f"unknown space tag {tag!r}")
    cls = SPACES[tag]
    owner = f"the {tag} space"
    return cls(**{f.name: int_param(params, f.name, owner) for f in fields(cls)})


def parse_params_str(text: str) -> dict:
    """The `key=value;...` entries of a params line; an entry without
    `=`, or a key given twice, raises ParseError."""
    out = {}
    for part in text.strip().split(";"):
        if not part:
            continue
        k, eq, v = part.partition("=")
        if not eq:
            raise ParseError(f"bad params entry {part!r}")
        if k in out:
            raise ParseError(f"params key {k!r} given twice")
        out[k] = v
    return out


__all__ = [
    "EllentuckSpace",
    "MatrixSpace",
    "PartitionSpace",
    "SPACES",
    "SPACE_TAGS",
    "ell_space",
    "int_param",
    "matrix_space",
    "parse_params_str",
    "partition_space",
    "space_from_params",
]
