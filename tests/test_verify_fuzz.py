"""Fuzzing the certificate verifiers: genuine certificates mutated by
small edits get a bool back, never an exception, and a fixed list of
tamperings is rejected."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramspace import ell_space, matrix_space, partition_space
from ramspace.forcing import front_family, galvin_search, verify_dichotomy
from ramspace.ramsey import (
    classical_ramsey_number,
    finite_ramsey_witness,
    glr_witness,
    verify_witness,
)


def _galvin(space, members):
    return galvin_search(space.full_stem(), front_family(space, members)).certificate


def _singletons(space):
    return [a for a in space.fin_below(space.full_stem().top) if a.length == 1]


E8, E5 = ell_space(8), ell_space(5)
M23, M22, P4 = matrix_space(2, 3), matrix_space(2, 2), partition_space(4)
ALT1 = _galvin(E8, [E8.make((x,)) for x in range(0, 8, 2)])
ALT2 = _galvin(E5, _singletons(E5))
DICHOTOMY = [
    ALT1,
    ALT2,
    _galvin(M23, [M23.make_rows([(1,)], 1)]),
    _galvin(M22, _singletons(M22)),
    _galvin(P4, [P4.make([(0,), (1,)])]),
]

R33 = classical_ramsey_number(2, 3, 2, bound=8)
PIGEONHOLE = classical_ramsey_number(1, 2, 2, bound=5)
FANO = glr_witness(2, 1, 2, 2, bound=4)
# R(3,3)'s witness claim is left out of the fuzzing: an `s` edited to 3
# would replay up to 3^15 colorings.
WITNESS = [
    PIGEONHOLE.found_certificate,
    PIGEONHOLE.lower_bound_certificate,
    FANO.found_certificate,
    FANO.lower_bound_certificate,
    R33.lower_bound_certificate,
    finite_ramsey_witness("partition", 1, 2, 2, bound=5).found_certificate,
]

INTEGER = re.compile(r"-?\d+")


@st.composite
def mutated(draw, certificates):
    """A genuine certificate after one to three small edits.  Integers
    move by small steps only: a large `level` would make the replay
    enumerate a huge instance."""
    lines = draw(st.sampled_from(certificates)).splitlines()
    edits = st.sampled_from(["drop", "duplicate", "swap", "integer", "truncate"])
    for edit in draw(st.lists(edits, min_size=1, max_size=3)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "integer":
            spots = list(INTEGER.finditer(lines[i]))
            if spots:
                m = draw(st.sampled_from(spots))
                v = int(m.group())
                new = draw(st.sampled_from([0, -1, v - 1, v + 1]))
                lines[i] = f"{lines[i][:m.start()]}{new}{lines[i][m.end():]}"
        else:
            text = "\n".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].splitlines()
    return "\n".join(lines) + "\n"


def test_genuine_certificates_verify():
    assert all(verify_dichotomy(c) for c in DICHOTOMY)
    assert all(verify_witness(c) for c in WITNESS)
    assert verify_witness(R33.found_certificate)


@settings(max_examples=40, deadline=None)
@given(text=mutated(DICHOTOMY))
def test_fuzz_verify_dichotomy(text):
    assert isinstance(verify_dichotomy(text), bool)


@settings(max_examples=40, deadline=None)
@given(text=mutated(WITNESS))
def test_fuzz_verify_witness(text):
    assert isinstance(verify_witness(text), bool)


def _edit(certificate: str, old: str, new: str) -> str:
    assert old in certificate
    return certificate.replace(old, new, 1)


DICHOTOMY_TAMPERINGS = {
    "alt1-flipped": _edit(ALT1, "outcome=ALT1", "outcome=ALT2"),
    "alt2-flipped": _edit(ALT2, "outcome=ALT2", "outcome=ALT1"),
    "alt1-stem-is-ambient": _edit(ALT1, "stem={1,3,5,7}", "stem={0,1,2,3,4,5,6,7}"),
    "alt2-hit=0": _edit(ALT2, "chain={0};hit=1", "chain={0};hit=0"),
    "alt2-hit=2": _edit(ALT2, "chain={0};hit=1", "chain={0};hit=2"),
    "alt2-hit=-1": _edit(ALT2, "chain={0};hit=1", "chain={0};hit=-1"),
}

FOUND, BAD = R33.found_certificate, R33.lower_bound_certificate
WITNESS_TAMPERINGS = {
    "witness-flipped": _edit(FOUND, "claim=witness", "claim=bad-coloring"),
    "bad-coloring-flipped": _edit(BAD, "claim=bad-coloring", "claim=witness"),
    "witness-s=0": _edit(FOUND, "s=2", "s=0"),
    "witness-s=-1": _edit(FOUND, "s=2", "s=-1"),
    "witness-level+1": _edit(FOUND, "level=6", "level=7"),
    "witness-level-1": _edit(FOUND, "level=6", "level=5"),
    "witness-domain": _edit(FOUND, "domain=15", "domain=14"),
    "witness-witnesses": _edit(FOUND, "witnesses=20", "witnesses=21"),
    "bad-coloring-level": _edit(BAD, "level=5", "level=4"),
    "bad-coloring-domain": _edit(BAD, "domain=10", "domain=11"),
    "bad-coloring-witnesses": _edit(BAD, "witnesses=10", "witnesses=9"),
}


@pytest.mark.parametrize("name", sorted(DICHOTOMY_TAMPERINGS))
def test_verify_dichotomy_rejects_tampering(name):
    assert verify_dichotomy(DICHOTOMY_TAMPERINGS[name]) is False


@pytest.mark.parametrize("name", sorted(WITNESS_TAMPERINGS))
def test_verify_witness_rejects_tampering(name):
    assert verify_witness(WITNESS_TAMPERINGS[name]) is False
