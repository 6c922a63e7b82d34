"""`main` on random but consistent inputs.

Each draw is a plane or ruled model (e <= 3) blown up at up to six
points, with one to four small integral classes on it.  The dual graph
is derived from the classes' pairings, worked out here from the Gram
matrix: each vertex takes its class's square and its genus by
adjunction, and each positive pairing is one edge.  A draw with a
negative pairing, or a class of negative genus, is skipped; no genus
is fractional, as c^2 + K.c is even on an integral class.  The
boundary D is the sum of the classes.

`peel`, `invariants`, `zariski` (K + D against the classes) and
`pencil` (D with the classes as candidates) run on every kept draw, in
both formats.  Each run exits 0, or exits 1 with no stdout and one
`error:` line; none exits 2 or raises, and none takes 1 s.  The count
of runs that reach each report must meet its floor, so a change that
turns the inputs into refusals fails here.

Each `peel` report is also compared with the graph-only N of K + D
from tests/test_peeling.py, except on a draw with a rational (-1)
vertex, for the reason given there, and on one whose graph has no such
N.
"""

import importlib.util
import io
import json
import pathlib
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from logpair.cli import main
from logpair.jsonio import parse_graph

DRAWS = 700

# reports reached per command and format from the 700 draws of
# random.Random(1): 214 of the 214 kept draws for peel and for
# invariants, 156 for zariski and 6 for pencil; the floors sit below
FLOORS = {"peel": 200, "invariants": 200, "zariski": 140, "pencil": 5}

# of those 214, 159 peel reports are compared with the graph's N; 10
# draws have a rational (-1) vertex and 45 graphs have no N
GRAPH_N_FLOOR = 150


def _peeling_tests():
    """tests/test_peeling.py, read from the file so that no import mode
    has to put the tests on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "peeling_tests", pathlib.Path(__file__).with_name("test_peeling.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_graph_n = _peeling_tests()._graph_n


def _draw(rng):
    """(model, classes, graph, D, K + D) as JSON-ready values, or None
    for a draw that is skipped."""
    n = rng.randint(0, 6)
    if rng.random() < 0.5:
        model, head, k = {"kind": "p2_blowup", "points": n}, [[1]], [-3]
    else:
        e = rng.randint(0, 3)
        model = {"kind": "hirzebruch", "e": e, "points": n}
        head, k = [[e, 1], [1, 0]], [-2, e - 2]
    h = len(head)
    k += [1] * n

    def pair(a, b):
        return (sum(a[i] * head[i][j] * b[j]
                    for i in range(h) for j in range(h))
                - sum(x * y for x, y in zip(a[h:], b[h:])))

    classes = []
    for _ in range(rng.randint(1, 4)):
        c = ([rng.randint(0, 3) for _ in range(h)]
             + [rng.choice((1, 0, 0, -1, -1, -2)) for _ in range(n)])
        if not any(c):
            return None
        classes.append(c)
    vertices, edges = [], []
    for i, c in enumerate(classes):
        square = pair(c, c)
        twice_genus = square + pair(c, k) + 2
        if twice_genus < 0:
            return None
        vertices.append({"id": f"C{i}", "genus": twice_genus // 2,
                         "self": square, "class": c})
        for j in range(i):
            p = pair(classes[j], c)
            if p < 0:
                return None
            if p:
                edges.append({"u": f"C{j}", "v": f"C{i}", "mult": p})
    d = [sum(col) for col in zip(*classes)]
    graph = {"model": model, "vertices": vertices, "edges": edges}
    return model, classes, graph, d, [a + b for a, b in zip(k, d)]


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _graph_n_of(graph):
    """The graph's N of K + D by vertex id, or None for a draw whose
    bark is not compared with it."""
    if any(v["genus"] == 0 and v["self"] == -1 for v in graph["vertices"]):
        return None
    return _graph_n(parse_graph(graph))


def _text(cls) -> str:
    return ",".join(map(str, cls))


def test_main_on_consistent_inputs(tmp_path):
    rng = random.Random(1)
    model_path, graph_path, candidates_path = (
        str(tmp_path / name) for name in ("model.json", "graph.json",
                                          "candidates.json"))
    reached = Counter()
    compared = 0
    for _ in range(DRAWS):
        drawn = _draw(rng)
        if drawn is None:
            continue
        model, classes, graph, d, adjoint = drawn
        for path, doc in [(model_path, model), (graph_path, graph),
                          (candidates_path, classes)]:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        runs = {
            "peel": ["peel", graph_path],
            "invariants": ["invariants", model_path, graph_path,
                           "--class", _text(d)],
            "zariski": ["zariski", model_path, "--class", _text(adjoint),
                        "--candidates", candidates_path],
            "pencil": ["pencil", model_path, "--divisor", _text(d),
                       "--candidates", candidates_path],
        }
        for command, argv in runs.items():
            for fmt in ("json", "table"):
                run = [*argv, "--format", fmt]
                code, out, err, seconds = _run(run)
                assert seconds < 1.0, run
                if code == 0:
                    reached[command, fmt] += 1
                    if command == "invariants" and fmt == "json":
                        assert json.loads(out)["checks"]["noether"], run
                    if command == "peel" and fmt == "json":
                        n = _graph_n_of(graph)
                        if n is not None:
                            coefficients = json.loads(out)["coefficients"]
                            assert {v: Fraction(a) for v, a
                                    in coefficients.items()} == n, run
                            compared += 1
                    continue
                assert code == 1, (run, err)
                assert out == "", run
                assert err.startswith("error: "), (run, err)
                assert err.count("\n") == 1, (run, err)
    for command, floor in FLOORS.items():
        for fmt in ("json", "table"):
            assert reached[command, fmt] >= floor, (command, fmt, reached)
    assert compared >= GRAPH_N_FLOOR, compared
