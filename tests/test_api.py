"""Public API guard: every exported name is in use inside the package,
and no module imports a name it never reads.

A name in `logpair.__all__` that no module of the package reads is a
library-only wrapper; it should either feed a report or be deleted.
References are read from the source with `ast`, so an import that is
never used does not count.
"""

import ast
import pathlib

import pytest

import logpair

PACKAGE = pathlib.Path(logpair.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent

# kept without a caller in the package: the residual re-check of the
# bark is an oracle, independent of the solve it checks, so only the
# tests call it
UNREFERENCED_BY_DESIGN = {"sharp_orthogonality_check"}


def _references() -> set:
    """Names read as a name or an attribute in some module other than
    __init__.py; definitions, assignments and imports are not reads."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return names


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
    refs = _references()
    unused = sorted(n for n in logpair.__all__
                    if n not in refs and n not in UNREFERENCED_BY_DESIGN)
    assert unused == []
    # the exception stays honest: it is exported and still unreferenced
    assert UNREFERENCED_BY_DESIGN <= set(logpair.__all__)
    assert not UNREFERENCED_BY_DESIGN & refs


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
