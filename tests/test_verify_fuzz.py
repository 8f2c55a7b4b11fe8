"""Fuzzing the certificate verifiers: genuine certificates mutated by
small edits get a bool back, never an exception, and a fixed list of
tamperings is rejected.

`_product_oracle` is verify_witness as it was written before the
restricted-growth replay: a witness claim is replayed over all s^N
colorings.  It is kept here as the reference every certificate under
its ceiling is compared against.  Its parse loop is its own, and it
follows the grammar's strictness rule: a line it cannot read, or a
repeated field key or item, rejects.
"""

import itertools
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramspace import certificate, ell_space, matrix_space, partition_space, ramsey
from ramspace.errors import CeilingExceededError
from ramspace.forcing import FrontFamily, galvin_search, verify_dichotomy
from ramspace.ramsey import (
    _level_backtracking,
    build_level,
    finite_ramsey_witness,
    verify_witness,
)
from ramspace.spaces import parse_params_str

DATA = pathlib.Path(__file__).parent / "data" / "witness_results.json"
ORACLE_CEILING = 1 << 16


def _level(params: dict, fields: dict):
    """The level a witness certificate's params and fields name."""
    q = int(params["q"]) if "q" in params else None
    k, n = int(params["k"]), int(params["n"])
    return build_level(params["instance"], int(fields["level"]), k, n, q)


def _product_oracle(text: str):
    """The s^N replay: True or False, or None when s^N is above
    ORACLE_CEILING.  A witness claim must also state its work: s^N
    colorings in exhaustive mode, and in backtracking mode the nodes the
    backtracking searcher takes on the rebuilt level."""
    try:
        lines = text.splitlines()
        if lines[0] != "ramsey-certificate v1":
            return False
        fields = {}
        colors = {}
        for ln in lines[2:]:
            key, eq, value = ln.partition("=")
            if key == "item":
                body, _, color = value.partition(";color=")
                if body in colors:
                    return False
                colors[body] = int(color)
            elif not eq or key in fields:
                return False
            else:
                fields[key] = value
        s = int(fields["s"])
        inst = _level(parse_params_str(lines[1]), fields)
        if int(fields["domain"]) != len(inst.items):
            return False
        if int(fields["witnesses"]) != len(inst.witnesses):
            return False
        claim = fields["claim"]
    except Exception:
        return False

    space = inst.space
    witness_sets = [
        {space.serialize(inst.items[i]) for i in cfg} for cfg in inst.configs
    ]

    def monochromatic(colors):
        for ws in witness_sets:
            if not ws:
                continue
            seen = {colors[key] for key in ws}
            if len(seen) == 1:
                return True
        return False

    if claim == "bad-coloring":
        if len(colors) != len(inst.items):
            return False
        if {space.serialize(a) for a in inst.items} != set(colors):
            return False
        if any(not 0 <= c < s for c in colors.values()):
            return False
        return not monochromatic(colors)

    if claim == "witness":
        keys = [space.serialize(a) for a in inst.items]
        if s < 1:
            return False
        if s ** len(keys) > ORACLE_CEILING:
            return None
        for assignment in itertools.product(range(s), repeat=len(keys)):
            if not monochromatic(dict(zip(keys, assignment))):
                return False
        mode = fields.get("mode")
        if mode == "exhaustive":
            return _stated(fields, "colorings_checked") == s ** len(keys)
        if mode == "backtracking":
            return _stated(fields, "nodes") == _level_backtracking(inst, s, None)[2]
        return False

    return False


def _stated(fields: dict, key: str):
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        return None


def _agrees_with_the_oracle(text: str) -> bool:
    expected = _product_oracle(text)
    return expected is None or verify_witness(text) is expected


def _galvin(space, members):
    return galvin_search(space.full_stem(), FrontFamily(space, members)).certificate


def _singletons(space):
    return [a for a in space.fin_below(space.full_stem().top) if a.length == 1]


E8, E5, E4 = ell_space(8), ell_space(5), ell_space(4)
M23, M22, P4 = matrix_space(2, 3), matrix_space(2, 2), partition_space(4)
ALT1 = _galvin(E8, [E8.make((x,)) for x in range(0, 8, 2)])
ALT2 = _galvin(E5, _singletons(E5))
ALT2_E4 = _galvin(E4, _singletons(E4))
DICHOTOMY = [
    ALT1,
    ALT2,
    _galvin(M23, [M23.make([(1,)])]),
    _galvin(M22, _singletons(M22)),
    _galvin(P4, [P4.make([(0,), (1,)])]),
]

R33 = finite_ramsey_witness("classical", 2, 3, 2, bound=8)
R33_BT = finite_ramsey_witness("classical", 2, 3, 2, bound=8, mode="backtracking")
PIGEONHOLE = finite_ramsey_witness("classical", 1, 2, 2, bound=5)
FANO = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, q=2)
FANO_BT = finite_ramsey_witness("matrix", 1, 2, 2, bound=4, mode="backtracking", q=2)
WITNESS = [
    PIGEONHOLE.found_certificate,
    PIGEONHOLE.lower_bound_certificate,
    FANO.found_certificate,
    FANO.lower_bound_certificate,
    FANO_BT.found_certificate,
    R33.lower_bound_certificate,
    R33.found_certificate,
    R33_BT.found_certificate,
    finite_ramsey_witness("partition", 1, 2, 2, bound=5).found_certificate,
    finite_ramsey_witness(
        "ellentuck", 2, 4, 2, bound=7, mode="backtracking"
    ).found_certificate,
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
    assert verify_witness(R33_BT.found_certificate)


def test_pinned_grid_certificates_agree_with_the_oracle():
    for job in json.loads(DATA.read_text())["jobs"]:
        for name, certificate in job["certificates"].items():
            assert verify_witness(certificate), (job["argv"], name)
            assert _agrees_with_the_oracle(certificate), (job["argv"], name)


def test_r33_certificates_agree_with_the_oracle():
    for result in (R33, R33_BT):
        assert _product_oracle(result.found_certificate) is True
        assert _agrees_with_the_oracle(result.found_certificate)
        assert _agrees_with_the_oracle(result.lower_bound_certificate)


def test_replay_above_the_node_ceiling_is_refused(monkeypatch):
    # The R(3,3) replay takes 987 nodes, the searcher's count.
    found = R33_BT.found_certificate
    assert "nodes=987" in found.splitlines()
    monkeypatch.setattr(ramsey, "EXHAUSTIVE_CEILING", 987)
    assert verify_witness(found)
    monkeypatch.setattr(ramsey, "EXHAUSTIVE_CEILING", 986)
    assert verify_witness(found) is False
    monkeypatch.setattr(ramsey, "EXHAUSTIVE_CEILING", 100)
    assert verify_witness(found) is False


@settings(max_examples=40, deadline=None)
@given(text=mutated(DICHOTOMY))
def test_fuzz_verify_dichotomy(text):
    assert isinstance(verify_dichotomy(text), bool)


@settings(max_examples=40, deadline=None)
@given(text=mutated(WITNESS))
def test_fuzz_verify_witness(text):
    assert isinstance(verify_witness(text), bool)
    assert _agrees_with_the_oracle(text)


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
    "empty-family-length_bound=-2": _edit(
        _galvin(E8, []), "length_bound=0", "length_bound=-2"
    ),
    # A certificate that says two things: five chain lines, one of them
    # twice, under chains=4.
    "alt2-chain-repeated": _edit(
        ALT2_E4, "chain={0};hit=1\n", "chain={0};hit=1\nchain={0};hit=1\n"
    ),
    "alt2-chain-repeated-with-a-space": _edit(
        ALT2_E4, "chain={0};hit=1\n", "chain={0};hit=1\nchain= {0};hit=1\n"
    ),
    "alt2-chains-repeated": _edit(ALT2_E4, "chains=4\n", "chains=4\nchains=4\n"),
    # Lines the grammar cannot read.
    "alt1-chain-garbage": ALT1 + "chain=garbage\n",
    "alt1-bare-line": ALT1 + "checked\n",
    "alt1-blank-line": ALT1 + "\n",
}

FOUND, BAD = R33.found_certificate, R33.lower_bound_certificate
FOUND_BT = R33_BT.found_certificate
# Level 2 of the subset space, whose level 25 has 2^25 stems.
ELLENTUCK = finite_ramsey_witness("ellentuck", 1, 2, 2, bound=2).found_certificate


def _drop(certificate: str, line: str) -> str:
    assert line in certificate.splitlines()
    return "".join(
        ln + "\n" for ln in certificate.splitlines() if ln != line
    )


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
    "witness-s=3": _edit(FOUND, "s=2", "s=3"),
    "witness-s=1": _edit(FOUND, "s=2", "s=1"),
    "witness-colorings_checked+1": _edit(
        FOUND, "colorings_checked=32768", "colorings_checked=32769"
    ),
    "witness-colorings_checked-1": _edit(
        FOUND, "colorings_checked=32768", "colorings_checked=32767"
    ),
    "witness-colorings_checked-missing": _drop(FOUND, "colorings_checked=32768"),
    "witness-mode-missing": _drop(FOUND, "mode=exhaustive"),
    "witness-mode-unknown": _edit(FOUND, "mode=exhaustive", "mode=guess"),
    "witness-mode-flipped": _edit(FOUND, "mode=exhaustive", "mode=backtracking"),
    "backtracking-nodes+1": _edit(FOUND_BT, "nodes=987", "nodes=988"),
    "backtracking-nodes-1": _edit(FOUND_BT, "nodes=987", "nodes=986"),
    "backtracking-nodes=0": _edit(FOUND_BT, "nodes=987", "nodes=0"),
    "backtracking-nodes-missing": _drop(FOUND_BT, "nodes=987"),
    "backtracking-nodes-as-colorings": _edit(
        FOUND_BT, "nodes=987", "colorings_checked=987"
    ),
    "backtracking-mode-flipped": _edit(
        FOUND_BT, "mode=backtracking", "mode=exhaustive"
    ),
    "backtracking-level+1": _edit(FOUND_BT, "level=6", "level=7"),
    "backtracking-level-1": _edit(FOUND_BT, "level=6", "level=5"),
    "backtracking-s=3": _edit(FOUND_BT, "s=2", "s=3"),
    "backtracking-s=1": _edit(FOUND_BT, "s=2", "s=1"),
    "ellentuck-level=25": _edit(ELLENTUCK, "level=2", "level=25"),
    # A certificate that says two things: the first item a second time,
    # in the other color, before its genuine line.
    "bad-coloring-item-repeated": _edit(
        BAD, "item={0,1};color=0\n", "item={0,1};color=1\nitem={0,1};color=0\n"
    ),
    "witness-s-repeated": _edit(FOUND, "s=2\n", "s=2\ns=2\n"),
    # Lines the grammar cannot read.
    "witness-bare-item": FOUND + "item\n",
    "bad-coloring-item-without-color": BAD + "item={0,1}\n",
}


@pytest.mark.parametrize("name", sorted(DICHOTOMY_TAMPERINGS))
def test_verify_dichotomy_rejects_tampering(name):
    assert verify_dichotomy(DICHOTOMY_TAMPERINGS[name]) is False


@pytest.mark.parametrize("name", sorted(WITNESS_TAMPERINGS))
def test_verify_witness_rejects_tampering(name):
    assert verify_witness(WITNESS_TAMPERINGS[name]) is False
    assert _agrees_with_the_oracle(WITNESS_TAMPERINGS[name])


def test_a_level_too_large_to_build_is_refused_unbuilt():
    # verify_witness and the oracle both rebuild a level through
    # build_level, which refuses this one from its size estimate alone.
    params, fields, _ = certificate.read(
        WITNESS_TAMPERINGS["ellentuck-level=25"], "ramsey-certificate", "item", "color"
    )
    assert fields["level"] == "25"
    with pytest.raises(CeilingExceededError) as exc:
        _level(params, fields)
    assert exc.value.estimate == 2**25
