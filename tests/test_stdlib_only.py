"""The package is stdlib-only: every import in `src/ramspace/` is
relative, of `ramspace` itself, or of a standard-library module, and
`pyproject.toml` declares no runtime dependency.  It reads no
environment variable: every setting is an argument or a constant.  And
it holds no code only for its tests: each public function, method and
class is named in `src/` or `perfbench/` outside its own definition,
with no exception list, and each public annotated class field is read
there as `.name` outside its own definition."""

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


def _definitions(tree):
    """(qualified name, name, first line, last line) of every public
    module-level function and class and every public method."""

    def public(node, kinds):
        return isinstance(node, kinds) and not node.name.startswith("_")

    for node in tree.body:
        if public(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if public(item, ast.FunctionDef):
                    qualified = f"{node.name}.{item.name}"
                    yield qualified, item.name, item.lineno, item.end_lineno


def _trees():
    """The parsed modules of `src/` and `perfbench/`, by path."""
    sources = [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    return {path: ast.parse(path.read_text(), str(path)) for path in sources}


def _fields(tree):
    """(qualified name, name, first line, last line) of every public
    annotated field of a public module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_")
                ):
                    name = item.target.id
                    yield f"{node.name}.{name}", name, item.lineno, item.end_lineno


def _mentions(tree):
    """(line, name) of every name and attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_package_reads_no_environment_variable():
    # Output depends on the command line and input files alone.
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = [
            (n.lineno, n.name) for n in ast.walk(tree) if isinstance(n, ast.alias)
        ]
        reads += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in [*_mentions(tree), *imported]
            if name in ("environ", "environb", "getenv", "getenvb")
        ]
    assert reads == []


def test_every_public_name_in_the_package_is_used_outside_its_definition():
    # A library function that only tests call belongs in a test oracle.
    trees = _trees()
    mentions = [
        (path, line, name)
        for path, tree in trees.items()
        for line, name in _mentions(tree)
    ]
    unused = {
        qualified
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for qualified, name, first, last in _definitions(tree)
        if not any(
            name == used and not (where == path and first <= line <= last)
            for where, line, used in mentions
        )
    }
    assert unused == set()


def test_every_public_field_in_the_package_is_read_outside_its_definition():
    # A field that only its constructor writes and only tests read is
    # state kept for the tests.
    trees = _trees()
    reads = [
        (path, node.lineno, node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = [
        qualified
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for qualified, name, first, last in _fields(tree)
        if not any(
            name == used and not (where == path and first <= line <= last)
            for where, line, used in reads
        )
    ]
    assert unread == []
