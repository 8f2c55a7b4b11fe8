"""Concrete space instances implementing the abstract contract."""

from dataclasses import fields

from ..core import Space
from ..errors import ParseError
from .ellentuck import EllentuckSpace, ell_space
from .matrix import MatrixSpace, matrix_space
from .partition import PartitionSpace, enumerate_partitions, partition_space, stirling2

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
    out = {}
    for part in text.strip().split(";"):
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad params entry {part!r}")
        k, v = part.split("=", 1)
        out[k] = v
    return out


__all__ = [
    "EllentuckSpace",
    "MatrixSpace",
    "PartitionSpace",
    "SPACES",
    "SPACE_TAGS",
    "ell_space",
    "enumerate_partitions",
    "int_param",
    "matrix_space",
    "parse_params_str",
    "partition_space",
    "space_from_params",
    "stirling2",
]
