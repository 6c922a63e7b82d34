"""Public API guard: every exported name, every public function and
every public method or property of a public class is in use inside the
package, and no module imports a name it never reads.

A name that no module of the package reads is a library-only wrapper;
it should either feed a report or be deleted.  References are read
from the source with `ast`, so an import that is never used does not
count.
"""

import ast
import pathlib

import pytest

import logpair

PACKAGE = pathlib.Path(logpair.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def _reads() -> tuple[set, set]:
    """(names read as a bare name, names read as an attribute) in the
    modules other than __init__.py; definitions, assignments and
    imports are not reads."""
    names, attrs = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
    return names, attrs


def test_exports_resolve_and_are_unique():
    assert len(logpair.__all__) == len(set(logpair.__all__))
    for name in logpair.__all__:
        assert hasattr(logpair, name), name


def test_unknown_name_is_attribute_error():
    # exports resolve on first access; any other name is still missing
    assert not hasattr(logpair, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        logpair.no_such_name


def test_every_export_is_used_in_the_package():
    refs = set().union(*_reads())
    assert sorted(n for n in logpair.__all__ if n not in refs) == []


def test_every_public_function_and_member_is_used_in_the_package():
    # a member counts only when read as an attribute: a local variable
    # of the same name (say `ids`) is not a read of the method
    names, attrs = _reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in names | attrs):
                unread.append(f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.ClassDef)
                  and not node.name.startswith("_")):
                unread += [f"{path.stem}.{node.name}.{m.name}"
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("_")
                           and m.name not in attrs]
    assert unread == []


def _unused_imports(path: pathlib.Path) -> list:
    """Names the module imports but never reads as a name.  An import
    statement carrying `# noqa: F401` is kept on purpose."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    imported = {}
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line for line in
                           lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in reads]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []
