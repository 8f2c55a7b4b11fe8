"""Fuzzing the CLI's parsers: whatever the input text, the CLI answers
with a usage error or a real outcome, never exit 1 (reserved for
counterexamples and lower bounds), never an internal error, and never a
traceback."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from ramspace import cli, ell_space, matrix_space, partition_space

SPACES = {
    "ellentuck": (ell_space(4), ["--ground", "4"]),
    "matrix": (matrix_space(2, 2), ["--q", "2", "--max-cols", "2"]),
    "partition": (partition_space(3), ["--domain", "3"]),
}

# Characters of the three serializations plus a few that break them.
LITERAL = st.text(alphabet="{}(),;=:q0123456789- x", max_size=14)


def _valid_literal(tag: str) -> st.SearchStrategy:
    space = SPACES[tag][0]
    tops = space.fin_below(space.full_stem().top)
    return st.sampled_from([space.serialize(a) for a in tops])


def _literal(tag: str) -> st.SearchStrategy:
    return st.one_of(LITERAL, _valid_literal(tag))


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_clean(code: int, err: str) -> None:
    assert code not in (cli.EXIT_NEGATIVE, cli.EXIT_INTERNAL), err
    assert "Traceback" not in err


@st.composite
def family_files(draw):
    tag = draw(st.sampled_from(sorted(SPACES)))
    lines = [draw(st.one_of(st.just(SPACES[tag][0].params_str()), LITERAL))]
    if draw(st.booleans()):
        bound = draw(st.sampled_from(["0", "1", "2", "x", "-1"]))
        lines.append(f"length_bound={bound}")
    lines += draw(st.lists(_literal(tag), max_size=4))
    return "\n".join(lines) + "\n"


@st.composite
def coloring_files(draw):
    tag = draw(st.sampled_from(sorted(SPACES)))
    lines = [draw(st.one_of(st.just(SPACES[tag][0].params_str()), LITERAL))]
    meta = st.sampled_from(["k=1;s=2", "k=1", "s=2", "k=2;s=1"])
    lines.append(draw(st.one_of(meta, LITERAL)))
    body = st.tuples(_literal(tag), st.sampled_from(["0", "1", "2", "-1", "x"]))
    lines += [f"{a}:{c}" for a, c in draw(st.lists(body, max_size=6))]
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(text=family_files())
def test_fuzz_family_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "family.txt"
    path.write_text(text)
    _assert_clean(*_main(["galvin", "--family", str(path), "--max-reducts", "64"]))


@settings(max_examples=40, deadline=None)
@given(text=coloring_files())
def test_fuzz_coloring_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "coloring.txt"
    path.write_text(text)
    _assert_clean(*_main(["reduce", "--coloring", str(path)]))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), tag=st.sampled_from(sorted(SPACES)))
def test_fuzz_stem_and_members(data, tag):
    members = data.draw(st.lists(_literal(tag), max_size=3))
    argv = ["galvin", "--space", tag, *SPACES[tag][1], "--max-reducts", "64"]
    for m in members:
        argv += ["--member", m]
    if data.draw(st.booleans()):
        argv += ["--stem", data.draw(_literal(tag))]
    _assert_clean(*_main(argv))
