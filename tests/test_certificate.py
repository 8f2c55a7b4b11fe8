"""The certificate grammar: every pinned certificate reads and writes
back to the same bytes, and the reader refuses what it cannot read and
what a certificate says twice."""

import json
import pathlib

import pytest

from ramspace import certificate

DATA = pathlib.Path(__file__).parent / "data"
LISTS = {"galvin-certificate": ("chain", "hit"), "ramsey-certificate": ("item", "color")}


def _pinned(name: str) -> list[str]:
    jobs = json.loads((DATA / name).read_text())["jobs"]
    return [c for job in jobs for c in job.get("output", job)["certificates"].values()]


def test_every_pinned_certificate_round_trips():
    dichotomy, witness = _pinned("forcing_results.json"), _pinned("witness_results.json")
    assert (len(dichotomy), len(witness)) == (101, 49)
    entries_read = 0
    for text in dichotomy + witness:
        kind = text.split(" v1\n", 1)[0]
        params, fields, entries = certificate.read(text, kind, *LISTS[kind])
        entries_read += len(entries)
        line = ";".join(f"{k}={v}" for k, v in params.items())
        assert certificate.write(kind, line, fields, *LISTS[kind], entries) == text
    assert entries_read > 100


GOOD = "demo v1\nspace=ellentuck;ground=3\na=1\nchain={0};hit=1\n"


def test_write_lays_out_the_grammar():
    text = certificate.write(
        "demo", "space=ellentuck;ground=3", {"a": 1, "b": "x=y"}, "chain", "hit",
        [("{0}", 1), ("q=2;1", 0)],
    )
    assert text == (
        "demo v1\nspace=ellentuck;ground=3\na=1\nb=x=y\n"
        "chain={0};hit=1\nchain=q=2;1;hit=0\n"
    )
    assert certificate.read(text, "demo", "chain", "hit") == (
        {"space": "ellentuck", "ground": "3"},
        {"a": "1", "b": "x=y"},
        [("{0}", 1), ("q=2;1", 0)],
    )
    assert certificate.read(GOOD, "demo", "chain", "hit")[2] == [("{0}", 1)]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "demo v1\n",
        "demo v2\nspace=ellentuck;ground=3\n",
        "other v1\nspace=ellentuck;ground=3\n",
        "demo v1\nspace\n",
        GOOD + "a=1\n",  # a field key twice, even with one value
        GOOD + "a=2\n",
        GOOD + "chain={0};hit=1\n",  # a list text twice
        GOOD + "chain={0};hit=2\n",
        GOOD + "chain=garbage\n",
        GOOD + "chain\n",
        GOOD + "chain={1};hit=x\n",
        GOOD + "nonsense\n",
        GOOD + "\n",
    ],
)
def test_read_refuses_what_it_cannot_read_or_what_is_said_twice(text):
    with pytest.raises(ValueError):
        certificate.read(text, "demo", "chain", "hit")
