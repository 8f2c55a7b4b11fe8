"""The README's Python examples and CLI lines run as written, so a
renamed or removed public name or option fails here instead of going
stale in the docs."""

import pathlib
import re
import shlex

from ramspace import cli

README = pathlib.Path(__file__).parent.parent / "README.md"

# The options that name an input file the README does not ship.
INPUT_FILE_OPTIONS = {"--family", "--coloring"}


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_examples_run():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_cli_lines_exit_0(capsys):
    lines = [
        shlex.split(line, comments=True)
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("ramspace ")
    ]
    runnable = [argv[1:] for argv in lines if not INPUT_FILE_OPTIONS & set(argv)]
    assert len(runnable) == len(lines) - 2 >= 8
    for argv in runnable:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
