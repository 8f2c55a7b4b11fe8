"""The package is stdlib-only: every import in `src/ramspace/` is
relative, of `ramspace` itself, or of a standard-library module, and
`pyproject.toml` declares no runtime dependency."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "ramspace"


def _imports(path):
    """(line, top-level module or None for a relative import) pairs."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield node.lineno, top


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    allowed = set(sys.stdlib_module_names) | {"ramspace"}
    bad = [
        f"{path.relative_to(ROOT)}:{line}: {top}"
        for path in modules
        for line, top in _imports(path)
        if top is not None and top not in allowed
    ]
    assert bad == []


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\b.*$", text, re.M) == ["dependencies = []"]
