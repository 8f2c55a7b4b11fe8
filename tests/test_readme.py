"""The README's Python examples run as written, so a renamed or removed
public name fails here instead of going stale in the docs."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
