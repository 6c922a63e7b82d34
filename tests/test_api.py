"""Public API guard: every exported name, every public function and
every public method or property of a public class is in use inside the
package, and no module imports a name it never reads.  The library's
reachable refusals raise their `InputError` texts.

A name that no module of the package reads is a library-only wrapper;
it should either feed a report or be deleted.  References are read
from the source with `ast`, so an import that is never used does not
count.
"""

import ast
import pathlib

import pytest

import logpair
from logpair import DivisorClass, DualGraph, InputError, SurfaceModel, Vertex
from logpair.examples import run_example
from logpair.jsonio import render_table
from logpair.lattice import blow_up_transform, parse_rational
from logpair.search import run_search
from logpair.zariski import zariski_decompose

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


PLANE = SurfaceModel.plane_blowup(2)
SHORT = DivisorClass([1, 0])  # one coordinate short of PLANE's basis


@pytest.mark.parametrize("call, message", [
    (lambda: run_example("ex5"), "unknown example 'ex5'; available: ex2, "
     "ex3 (the ruled-surface family is under the search command)"),
    (lambda: run_search(("a", 3), (8, 8), (1, 1)),
     "g range must be a pair of integers"),
    # a span is a pair of ints: no float, bool, numeral or third entry
    (lambda: run_search((10.9, 10.2), (8, 8), (1, 1)),
     "g range must be a pair of integers"),
    (lambda: run_search((10, 10), (8, 8), (True, 1)),
     "y range must be a pair of integers"),
    (lambda: run_search((10, 10), ("8", "8"), (1, 1)),
     "x range must be a pair of integers"),
    (lambda: run_search((10, 10, 11), (8, 8), (1, 1)),
     "g range must be a pair of integers"),
    (lambda: SurfaceModel.plane_blowup(-1),
     "number of blown-up points must be >= 0"),
    (lambda: SurfaceModel.hirzebruch(-1, 0), "Hirzebruch degree must be >= 0"),
    (lambda: SurfaceModel.hirzebruch(0, -1),
     "number of blown-up points must be >= 0"),
    (lambda: SurfaceModel.custom([[1, 0]]), "Gram matrix must be square"),
    (lambda: PLANE.divisor([1, 0]), "expected 3 coefficients, got 2"),
    (lambda: PLANE.basis_class(3), "basis index out of range"),
    (lambda: PLANE.ruled_class(1, 0), "ruled_class needs a Hirzebruch model"),
    (lambda: SurfaceModel.hirzebruch(1, 1).ruled_class(1, 0, [1, 1]),
     "more multiplicities than blown-up points"),
    (lambda: blow_up_transform(PLANE, [PLANE.zero()], []),
     "one multiplicity per class required"),
    (lambda: blow_up_transform(PLANE, [SHORT], [1]), "dimension mismatch"),
    (lambda: PLANE.zero() + SHORT, "dimension mismatch"),
    (lambda: PLANE.intersect(PLANE.zero(), SHORT), "dimension mismatch"),
    (lambda: zariski_decompose(PLANE, SHORT, [PLANE.exceptional(1)]),
     "class does not live in the model lattice"),
    (lambda: zariski_decompose(PLANE, PLANE.zero(), [SHORT]),
     "candidate does not live in the model lattice"),
    (lambda: parse_rational(object()), "expected a rational, got object"),
    (lambda: DualGraph([Vertex("A", 0, -2)], []).vertex("B"),
     "unknown vertex B"),
    (lambda: render_table(["a", "b"], [["1"]]), "table row width mismatch"),
], ids=["example", "search_range", "search_float", "search_bool",
        "search_numeral", "search_triple", "plane_points", "hirzebruch_degree",
        "hirzebruch_points", "custom_square", "divisor_length",
        "basis_index", "ruled_on_plane", "ruled_mults", "blow_up_count",
        "blow_up_length", "add_length", "intersect_length", "zariski_class",
        "zariski_candidate", "rational_type", "unknown_vertex",
        "table_width"])
def test_library_refusals_raise_their_messages(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
