"""Command-line surface: exit codes, wire formats, reproducibility,
and the layers each command imports."""

import argparse
import ast
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest.mock import Mock

import pytest

from logpair.cli import _Parser, _compact_span, build_parser, main
from logpair.dualgraph import Segment, SegmentReport
from logpair.errors import InternalError
from logpair.examples import MAX_EX3_A
from logpair.invariants import genus_bound, main_theorem_predicate
from logpair.jsonio import (MAX_CANDIDATES, MAX_GRAM_ROWS, MAX_GRAPH_VERTICES,
                            MAX_MODEL_POINTS)
from logpair.search import MAX_GRID_POINTS
from logpair.selftest import CriterionResult

FIXTURES = str(pathlib.Path(__file__).resolve().parent.parent / "fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compact_span_compresses_runs():
    assert _compact_span([]) == "(none)"
    assert _compact_span([5]) == "5"
    assert _compact_span([2, 3, 5, 7, 8]) == "2..3, 5, 7..8"


def _expand_span(text: str) -> list:
    out = []
    for part in text.split(", "):
        lo, _, hi = part.partition("..")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def test_search_table_window_line_matches_the_json(capsys):
    argv = ("search", "ex4", "--g", "8:40", "--x", "8:8", "--y", "1:1")
    _, out, _ = run_cli(capsys, *argv)
    per_g = json.loads(out)["interval_x8_y1"]["per_g"]
    _, table, _ = run_cli(capsys, *argv, "--format", "table")
    [line] = [t for t in table.splitlines()
              if t.startswith("integer window at x=8, y=1")]
    head, _, variant = line.partition("; variant threshold gives ")
    nonempty = head.partition(" nonempty for g in ")[2]
    assert ".." in nonempty and ", " in nonempty  # runs, compressed
    assert _expand_span(nonempty) == [r["g"] for r in per_g if r["nonempty"]]
    assert _expand_span(variant) == [r["g"] for r in per_g
                                     if r["variant_nonempty"]]


def test_argparse_errors_map_to_exit_one(capsys):
    # argparse words these messages differently across Python versions,
    # so no row of REFUSED_RUNS can pin them
    for argv in (["bogus"], ["zariski", f"{FIXTURES}/one_point_model.json"],
                 []):
        _refusal(capsys, argv, "")


def _golden_module():
    """tests/test_golden.py, read from the file so that no import mode
    has to put the tests on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "golden_cases", pathlib.Path(__file__).with_name("test_golden.py"))
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


GOLDEN = _golden_module()
# every command line tests/test_golden.py pins
GOLDEN_ARGVS = [*GOLDEN.CASES.values(), *GOLDEN.HASHED.values()]


def test_invariants_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", f"{FIXTURES}/sextic_model.json",
        f"{FIXTURES}/sextic_graph.json",
        "--class", "6,-2,-2,-2,-2,-2,-2,-2,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pa_D"] == 2
    assert doc["c1bar_sq"] == 1
    assert doc["c2bar"] == 5
    assert doc["e_open"] == 5
    assert doc["chi_bar"] == 2
    assert doc["checks"]["noether"] is True
    assert doc["checks"]["bmy"] is True
    assert doc["checks"]["chi_omega_log"] == -2


def test_strong_euler_conclusion_is_a_bool_on_every_golden(
        capsys, monkeypatch):
    # every model with Hodge data has p_g = 0, so theorem 2's strong
    # conclusion is evaluated on every report that carries one
    monkeypatch.chdir(pathlib.Path(FIXTURES).parent)
    seen = 0
    for argv in GOLDEN_ARGVS:
        if argv[0] not in ("invariants", "example"):
            continue
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        value = (doc["checks"]["euler_strong_conclusion"]
                 if argv[0] == "invariants"
                 else doc["euler_bound"]["strong_conclusion_holds"])
        assert type(value) is bool
        seen += 1
    assert seen == 8


# the paths are relative to the repository root
@pytest.mark.parametrize("argv", GOLDEN.LEADING_MINUS, ids=" ".join)
def test_leading_minus_value_reads_as_the_equals_spelling(
        capsys, monkeypatch, argv):
    # argparse took -1,2 and -1:1 for unknown options; the value must
    # give what `--class=-1,2` and `--y=-1:1` give
    monkeypatch.chdir(pathlib.Path(FIXTURES).parent)
    i = next(i for i, a in enumerate(argv) if a.startswith("-")
             and a[1:2].isdigit())
    joined = [*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *joined)


@pytest.fixture(scope="module")
def used_parser():
    """One parser that has parsed every case in order and then backwards,
    so that each subcommand it names has added its arguments already."""
    parser = build_parser()
    for argv in [*GOLDEN.PARSE_CASES, *reversed(GOLDEN.PARSE_CASES)]:
        GOLDEN.parse(parser, argv)
    return parser


@pytest.mark.parametrize("argv", GOLDEN.PARSE_CASES, ids=" ".join)
def test_command_parser_parses_as_the_full_parser(used_parser, argv):
    # a subcommand adds its arguments on its first parse only, so a parser
    # that has parsed before parses as a fresh one
    assert (GOLDEN.parse(used_parser, argv)
            == GOLDEN.parse(build_parser(), argv))


COMMANDS = ("peel", "zariski", "invariants", "pencil", "example", "search",
            "selftest")


@pytest.mark.parametrize("name", COMMANDS)
def test_command_parser_gives_arguments_to_its_command_alone(monkeypatch,
                                                             name):
    # building every command's arguments on every run would cost each run
    # the other six commands' arguments; a parse adds the root's -h and
    # --version and the arguments of the command it names, -h among them,
    # which for `example` are its own -h and its `run` parser's
    added = set()

    def add_argument(parser, *args, **kwargs):
        added.add(parser.prog)
        return argparse.ArgumentParser.add_argument(parser, *args, **kwargs)

    monkeypatch.setattr(_Parser, "add_argument", add_argument)
    # selftest.txt is the output of the bare command
    argv = next((argv for argv in GOLDEN_ARGVS if argv[0] == name), [name])
    assert GOLDEN.parse(build_parser(), argv)[0] == "namespace"
    assert added == ({"logpair", "logpair example", "logpair example run"}
                     if name == "example" else {"logpair", f"logpair {name}"})


# one run of each kind `main` serves: every subcommand on the fixtures,
# a table, a missing argument, an unknown command, a criterion that does
# not exist, and --version and two --help runs, which leave through
# SystemExit
REUSE_MIX = [
    ["peel", f"{FIXTURES}/d4_fork.json"],
    ["zariski", f"{FIXTURES}/one_point_model.json", "--class", "1,2",
     "--candidates", f"{FIXTURES}/one_point_candidates.json"],
    ["invariants", f"{FIXTURES}/sextic_model.json",
     f"{FIXTURES}/sextic_graph.json", "--class", "6,-2,-2,-2,-2,-2,-2,-2,-2"],
    ["pencil", f"{FIXTURES}/sextic_model.json", "--divisor",
     "6,-2,-2,-2,-2,-2,-2,-2,-2", "--candidates",
     f"{FIXTURES}/sextic_candidates.json"],
    ["example", "run", "ex3", "--a", "3"],
    ["search", "ex4", "--g", "10:10", "--x", "8:8", "--y", "1:1"],
    ["selftest", "--criterion", "8"],
    ["peel", f"{FIXTURES}/sextic_graph.json", "--format", "table"],
    ["zariski", f"{FIXTURES}/one_point_model.json", "--class", "1,2"],
    ["bogus"],
    ["selftest", "--criterion", "99"],
    ["--version"],
    ["pencil", "--help"],
    ["example", "run", "--help"],
]

# selftest lines end in their timings, the one part that varies
TIMING = re.compile(r"\d+\.\d{3}s")


def _in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, TIMING.sub("#", out.getvalue()), err.getvalue()


def _fresh(argv) -> tuple:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "logpair.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, TIMING.sub("#", proc.stdout), proc.stderr


def test_runs_in_one_process_match_fresh_processes(monkeypatch):
    # the mix in order and then backwards, so that each run follows a
    # different run each time: nothing one run leaves behind may change
    # the exit code, stdout or stderr of the next
    # argparse wraps help at the terminal's width, read from COLUMNS, which
    # the fresh processes inherit
    monkeypatch.setenv("COLUMNS", "80")
    fresh = [_fresh(argv) for argv in REUSE_MIX]
    assert {f[0] for f in fresh} == {0, 1}
    for i in [*range(len(REUSE_MIX)), *reversed(range(len(REUSE_MIX)))]:
        assert _in_process(REUSE_MIX[i]) == fresh[i], REUSE_MIX[i]


def test_manifest_written(tmp_path, capsys):
    mpath = str(tmp_path / "manifest.json")
    fork = f"{FIXTURES}/d4_fork.json"
    for argv, inputs in [(["peel", fork], [fork]),
                         (["selftest", "--criterion", "8"], [])]:
        code, out, _ = run_cli(capsys, *argv, "--manifest", mpath)
        assert code == 0
        doc = json.loads(pathlib.Path(mpath).read_text())
        assert doc["output_sha256"] == hashlib.sha256(
            out.encode("utf-8")).hexdigest()
        assert list(doc["inputs"]) == inputs
        assert doc["command"] == [*argv, "--manifest", mpath]


def test_selftest_filter(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--criterion", "8")
    assert code == 0
    assert "criterion 8 [pass]" in out
    assert "criterion 1" not in out
    code2, _, err2 = run_cli(capsys, "selftest", "--criterion", "99")
    assert code2 == 1


FAILED_CRITERION = CriterionResult(3, "peeling suite", False, "1 mismatch",
                                   0.0)


def _negated(check):
    """A theorem check with its verdict turned round."""
    return check._replace(passed=not check.passed)


# a violated internal invariant, by id: (the function replaced, its
# replacement, the command line, the whole stdout with its timings
# masked, and the whole stderr); each run must exit 2
EXIT_TWO = {
    "internal-error": ("logpair.cli.bark",
                       Mock(side_effect=InternalError("bark lost a vertex")),
                       ["peel", f"{FIXTURES}/d4_fork.json"], "",
                       "internal error: bark lost a vertex\n"),
    "assertion": ("logpair.cli.bark",
                  Mock(side_effect=AssertionError(
                      "negative bark coefficient")),
                  ["peel", f"{FIXTURES}/d4_fork.json"], "",
                  "internal error: negative bark coefficient\n"),
    # bark's own check of the coefficients it is given
    "bark-coefficient": ("logpair.peeling.classify_segments",
                         lambda g: SegmentReport([Segment(
                             "rod", ("C",), coefficients=(Fraction(2),))]),
                         ["peel", f"{FIXTURES}/d4_fork.json"], "",
                         "internal error: bark coefficient 2 outside "
                         "(0, 1] on an admissible rod\n"),
    # the search's check that the e-window keeps only constructible rows
    "e-window": ("logpair.search._construction_es",
                 lambda g, x, y: range(g + 1),
                 ["search", "ex4", "--g", "10:10", "--x", "8:8",
                  "--y", "1:1"], "",
                 "internal error: e-window admits (g,e,x,y)=(10,0,8,1), "
                 "which fails a construction inequality\n"),
    # the criterion lines are printed, then the numbers of those that failed
    "failed-criterion": ("logpair.selftest.run_all",
                         lambda only: [FAILED_CRITERION], ["selftest"],
                         "criterion 3 [FAIL] peeling suite: 1 mismatch (#)\n"
                         "FAILED criteria: 3\n", ""),
    # a failed `_Check.equal` and a failed `_Check.expect` each print their
    # message, joined with "; " in place of the criterion's note
    "failed-equal": ("logpair.selftest.genus_bound",
                     lambda g, x: genus_bound(g, x) + 1,
                     ["selftest", "--criterion", "8"],
                     "criterion 8 [FAIL] classification predicates: "
                     "cap at (2,4): got Fraction(4, 1), want Fraction(3, 1); "
                     "cap at (1,0): got Fraction(2, 1), want Fraction(1, 1) "
                     "(#)\nFAILED criteria: 8\n", ""),
    "failed-expect": ("logpair.selftest.main_theorem_predicate",
                      lambda *a, **kw: _negated(main_theorem_predicate(
                          *a, **kw)),
                      ["selftest", "--criterion", "8"],
                      "criterion 8 [FAIL] classification predicates: "
                      "(1,1,2) should pass; (1,1,3) should pass; "
                      "(1,1,5) should pass; (1,2,2) should pass; "
                      "(2,1,2) should pass; (2,2,3) should fail "
                      "(#)\nFAILED criteria: 8\n", ""),
}


@pytest.mark.parametrize("target, replacement, argv, out, err",
                         EXIT_TWO.values(), ids=list(EXIT_TWO))
def test_violated_invariant_exits_two(monkeypatch, capsys, target,
                                      replacement, argv, out, err):
    monkeypatch.setattr(target, replacement)
    code, got_out, got_err = run_cli(capsys, *argv)
    assert (code, TIMING.sub("#", got_out), got_err) == (2, out, err)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "logpair.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def _write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _rod(n: int) -> dict:
    return {"vertices": [{"id": f"R{i}", "self": -2} for i in range(n)],
            "edges": [{"u": f"R{i}", "v": f"R{i + 1}"}
                      for i in range(n - 1)]}


def _unit(points: int, i: int) -> list:
    """E_i as a class array on a plane blown up at `points`."""
    out = [0] * (points + 1)
    out[i] = 1
    return out


def _pairing_graph(edges) -> dict:
    """A = E1 - E2, C = E2 - E3 and B = (E1 + E4 + E5 + E6)/2 on the
    largest plane: A.B = -1/2, A.C = 1 and B.C = 0."""
    points = MAX_MODEL_POINTS
    return {"model": LARGEST_PLANE,
            "vertices": [
                {"id": "A", "self": -2,
                 "class": [0, 1, -1] + [0] * (points - 2)},
                {"id": "C", "self": -2,
                 "class": [0, 0, 1, -1] + [0] * (points - 3)},
                {"id": "B", "self": -1,
                 "class": [0, "1/2", 0, 0, "1/2", "1/2", "1/2"]
                 + [0] * (points - 6)}],
            "edges": edges}


def _assert_one_error_line(code, err, message):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


def _refusal(capsys, argv, message) -> str:
    """The stderr of `main(argv)`, which must exit 1 in under 1 s with
    no stdout and one `error:` line that holds `message`."""
    t0 = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert out == ""
    _assert_one_error_line(code, err, message)
    assert seconds < 1.0
    return err


GRAPH_VERTEX = {"id": "A", "self": -2}
TWO_VERTICES = [GRAPH_VERTEX, {"id": "B", "self": -2}]
ONE_POINT = {"kind": "p2_blowup", "points": 1}
LARGEST_PLANE = {"kind": "p2_blowup", "points": MAX_MODEL_POINTS}
# a numeral past the 4,300 digits that Python converts to an int
HUGE = "1" + "0" * 5_000
# 3,000-digit coefficients give numbers of 6,000 digits, more than `str`
# converts: a message gives their digit count
NINES = "9" * 3_000
TOO_MANY_CANDIDATES = {"candidates": [[i, 1]
                                      for i in range(MAX_CANDIDATES + 1)]}

# malformed input, by id: (the role of the file or of `--class`, its
# content as a JSON document, text or bytes, the message)
MALFORMED = {
    "graph-not-object":
        ("graph", [GRAPH_VERTEX], "graph JSON must be an object"),
    "model-not-object": ("model", [1, 2], "model JSON must be an object"),
    "graph-no-vertices":
        ("graph", {"vertices": []}, "needs a nonempty vertices array"),
    "graph-vertex-not-object":
        ("graph", {"vertices": ["A"]}, "each vertex must be an object"),
    "graph-vertex-no-id": ("graph", {"vertices": [{"self": -2}]},
                           "each vertex needs a nonempty string id"),
    "graph-vertex-empty-id": ("graph", {"vertices": [{"id": "", "self": -2}]},
                              "each vertex needs a nonempty string id"),
    "graph-no-self": ("graph", {"vertices": [{"id": "A"}]},
                      "vertex A: missing self-intersection"),
    "graph-fraction-self":
        ("graph", {"vertices": [{"id": "A", "self": "-3/2"}]},
         "vertex A: self-intersection must be an integer"),
    "graph-edges-number": ("graph", {"vertices": [GRAPH_VERTEX], "edges": 5},
                           "graph edges must be an array"),
    "graph-edges-null": ("graph", {"vertices": [GRAPH_VERTEX], "edges": None},
                         "graph edges must be an array"),
    "graph-edge-not-object":
        ("graph", {"vertices": [GRAPH_VERTEX], "edges": [["A", "B"]]},
         "each edge must be an object"),
    "graph-edge-number-end":
        ("graph", {"vertices": [GRAPH_VERTEX], "edges": [{"u": "A", "v": 1}]},
         "each edge needs string endpoints u and v"),
    # the top-level map, once accepted, took ids that are no vertices
    "graph-class-map":
        ("graph", {"model": ONE_POINT, "vertices": [{"id": "A", "self": -1}],
                   "classes": {"A": [0, 1], "Z": [1, 0]}},
         'each vertex its own "class" array'),
    "graph-not-json": ("graph", '{"vertices": [', "is not valid JSON"),
    "candidates-not-array":
        ("candidates", {"candidates": 3}, "expected an array of classes"),
    # classes on only some vertices
    "graph-some-classes":
        ("graph", {"model": ONE_POINT,
                   "vertices": [{"id": "L", "self": 0, "class": [1, -1]},
                                {"id": "E", "self": -1}],
                   "edges": [{"u": "L", "v": "E"}]},
         "class_map is missing vertex E"),
    "graph-duplicate-edge":
        ("graph", {"vertices": TWO_VERTICES,
                   "edges": [{"u": "A", "v": "B"}, {"u": "B", "v": "A"}]},
         "duplicate edge B-A"),
    "candidates-number-class": ("candidates", [[0, 1], 5],
                                "a divisor class must be an array of "
                                "rationals"),
    # numerals are ASCII, though `\d` and `int` take Arabic-Indic digits
    "graph-digits": ("graph", {"vertices": [{"id": "A", "self": "-\u0662"}]},
                     "malformed rational '-\u0662'; use p or p/q"),
    "class-digits": ("class", "\u0661,\u0662",
                     "malformed rational '\u0661'; use p or p/q"),
    # the rules DualGraph decides
    "graph-negative-genus":
        ("graph", {"vertices": [{"id": "A", "genus": -1, "self": -2}]},
         "vertex A: genus must be >= 0"),
    "graph-self-loop":
        ("graph", {"vertices": [GRAPH_VERTEX],
                   "edges": [{"u": "A", "v": "A"}]},
         "self loop at A is not allowed"),
    "graph-zero-mult":
        ("graph", {"vertices": TWO_VERTICES,
                   "edges": [{"u": "A", "v": "B", "mult": 0}]},
         "edge A-B: multiplicity must be >= 1"),
    # E1 - E2 + E3 has square -3 and K.c = -1, so p_a = -1
    "graph-class-genus":
        ("graph", {"model": {"kind": "p2_blowup", "points": 3},
                   "vertices": [{"id": "A", "genus": 0, "self": -3,
                                 "class": [0, 1, -1, 1]}]},
         "vertex A: class has arithmetic genus -1, the graph says 0"),
    # H on one point has genus 0, as a lone (-2)-vertex has, but square 1
    "boundary-square":
        ("boundary", {"vertices": [GRAPH_VERTEX]},
         "inconsistent boundary square sources: the class gives 1, "
         "the dual graph gives -2"),
    # a bool is not an integer, though `bool` subclasses `int`
    "model-bool-points": ("model", {"kind": "p2_blowup", "points": True},
                          "p2_blowup needs integer points"),
    "model-bool-e": ("model", {"kind": "hirzebruch", "e": True, "points": 0},
                     "hirzebruch needs integer e"),
    "graph-bool-genus":
        ("graph", {"vertices": [{"id": "A", "genus": True, "self": -2}],
                   "edges": []},
         "vertex A: genus must be an integer"),
    "graph-bool-mult":
        ("graph", {"vertices": TWO_VERTICES,
                   "edges": [{"u": "A", "v": "B", "mult": True}]},
         "edge A-B: mult must be an integer"),
    "graph-non-utf8": ("graph", b'{"vertices": [{"id": "\xe9", "self": -1}]}',
                       "is not valid JSON: 'utf-8' codec"),
    "graph-nested": ("graph", "[" * 100_000 + "]" * 100_000,
                     "is nested too deeply to read"),
    # numerals too long to convert, in a file or on the command line
    "model-huge-points":
        ("model", '{"kind": "p2_blowup", "points": %s}' % HUGE,
         "holds an integer with too many digits"),
    "graph-huge-self":
        ("graph", '{"vertices": [{"id": "A", "self": "-%s"}]}' % HUGE,
         "integer of 5002 characters has too many digits"),
    "candidates-huge-string": ("candidates", '[[1, "%s"]]' % HUGE,
                               "integer of 5001 characters has too many "
                               "digits"),
    "candidates-huge-number": ("candidates", "[[1, %s]]" % HUGE,
                               "holds an integer with too many digits"),
    "class-huge": ("class", "1," + HUGE,
                   "integer of 5001 characters has too many digits"),
    "class-huge-pq": ("class", "1,1/" + HUGE,
                      "rational of 5003 characters has too many digits"),
    # A = n(H + E1) pairs to 0 with itself and to n^2 with B = nH
    "graph-huge-pairing":
        ("graph", {"model": ONE_POINT, "vertices": [
            {"id": "A", "self": 0, "class": [NINES, NINES]},
            {"id": "B", "self": 0, "class": [NINES, 0]}]},
         "edge A-B: class pairing <6,000 digits> disagrees"),
    # the first disagreement in vertex order is the one reported: A-C
    # is checked before A-B, whose pairing no multiplicity can state
    "graph-pairing-no-edge":
        ("graph", _pairing_graph([]),
         "edge A-C: class pairing 1 disagrees with stated multiplicity 0"),
    "graph-pairing-mult":
        ("graph", _pairing_graph([{"u": "C", "v": "A", "mult": 2}]),
         "edge A-C: class pairing 1 disagrees with stated multiplicity 2"),
    "graph-pairing-half":
        ("graph", _pairing_graph([{"u": "A", "v": "C"}, {"u": "A", "v": "B"}]),
         "edge A-B: class pairing -1/2 disagrees with stated multiplicity 1"),
    # a stated multiplicity past 100 digits is printed by its length
    "graph-pairing-huge-mult":
        ("graph", _pairing_graph([{"u": "C", "v": "A", "mult": 10 ** 150}]),
         "edge A-C: class pairing 1 disagrees with stated multiplicity "
         "<151 digits>\n"),
    # one past each size limit; a Gram side is refused before any entry
    # is read, whether the rows or one row are too many
    "graph-oversized":
        ("graph", _rod(MAX_GRAPH_VERTICES + 1),
         f"graph has {MAX_GRAPH_VERTICES + 1} vertices; the limit is "
         f"{MAX_GRAPH_VERTICES}"),
    "model-oversized-plane":
        ("model", {"kind": "p2_blowup", "points": MAX_MODEL_POINTS + 1},
         f"points; the limit is {MAX_MODEL_POINTS}"),
    "model-oversized-ruled":
        ("model", {"kind": "hirzebruch", "e": 1, "points": 40_000},
         f"points; the limit is {MAX_MODEL_POINTS}"),
    "model-gram-rows":
        ("model", {"kind": "custom", "gram": [["x"]] * (MAX_GRAM_ROWS + 1)},
         f"the limit is {MAX_GRAM_ROWS}"),
    "model-gram-row":
        ("model", {"kind": "custom", "gram": [["x"] * (MAX_GRAM_ROWS + 1)]},
         f"the limit is {MAX_GRAM_ROWS}"),
    "model-gram-long-row":
        ("model", {"kind": "custom", "gram": [["x"] * 3, ["x"] * 50_000]},
         f"the limit is {MAX_GRAM_ROWS}"),
    "candidates-oversized":
        ("candidates", TOO_MANY_CANDIDATES,
         f"has {MAX_CANDIDATES + 1} classes; the limit is"),
    "fixed-oversized":
        ("fixed", TOO_MANY_CANDIDATES,
         f"has {MAX_CANDIDATES + 1} classes; the limit is"),
}


@pytest.mark.parametrize("role, doc, message", MALFORMED.values(),
                         ids=list(MALFORMED))
def test_malformed_input_file_is_input_error(tmp_path, capsys, role, doc,
                                             message):
    path = tmp_path / "input.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    model = f"{FIXTURES}/one_point_model.json"
    cands = f"{FIXTURES}/one_point_candidates.json"
    argv = {"graph": ["peel", str(path)],
            "model": ["zariski", str(path), "--class", "1,2",
                      "--candidates", cands],
            "candidates": ["zariski", model, "--class", "1,2",
                           "--candidates", str(path)],
            "fixed": ["pencil", model, "--divisor", "1,2",
                      "--candidates", str(path)],
            "class": ["zariski", model, "--class", doc,
                      "--candidates", cands],
            "boundary": ["invariants", model, str(path),
                         "--class", "1,0"]}[role]
    _refusal(capsys, argv, message)


def _with_files(tmp, argv) -> list:
    """argv with each word that is not a string (a JSON document) written
    to a file of its own and replaced by that file's path."""
    return [word if isinstance(word, str)
            else _write_json(tmp, f"{i}.json", word)
            for i, word in enumerate(argv)]


H_ON_LARGEST_PLANE = ",".join(["1"] + ["0"] * MAX_MODEL_POINTS)
# D = H on the largest plane: the adjoint -2H + sum E pairs 0 with each
# root E_i - E_(i+1) and negatively with H, and so does every class left
# by subtracting H, so each round scans every candidate
CAP_CANDIDATES = [[0] * i + [1, -1] + [0] * (MAX_MODEL_POINTS - i - 1)
                  for i in range(1, MAX_CANDIDATES)] + [
                      _unit(MAX_MODEL_POINTS, 0)]
ROUNDS = ("fixed part subtraction did not settle within 1000 rounds; "
          "candidate list is not a fixed locus")

# a refused command line, by id: (its words, where a JSON document
# stands for a file that holds it, and the whole message)
REFUSED_RUNS = {
    "span": (["search", "ex4", "--g", "1:2:3", "--x", "8", "--y", "1"],
             "--g expects LO:HI (got '1:2:3')"),
    # each part of a span must spell an int as a class coefficient does;
    # `int()` alone takes underscores, spaces and non-ASCII digits
    "span-underscore": (["search", "ex4", "--g", "1_0:1_0", "--x", "8",
                         "--y", "1"], "--g expects LO:HI (got '1_0:1_0')"),
    "span-space": (["search", "ex4", "--g", "10", "--x", " 8", "--y", "1"],
                   "--x expects LO:HI (got ' 8')"),
    "span-digits": (["search", "ex4", "--g", "10", "--x", "8",
                     "--y", "\u0661:\u0661"],
                    "--y expects LO:HI (got '\u0661:\u0661')"),
    "span-fraction": (["search", "ex4", "--g", "10", "--x", "8/2", "--y", "1"],
                      "--x expects LO:HI (got '8/2')"),
    "span-dash": (["search", "ex4", "--g", "10-12", "--x", "8:8",
                   "--y", "1:1"], "--g expects LO:HI (got '10-12')"),
    # the integer options are read the same way
    "int-underscore": (["example", "run", "ex3", "--a", "1_0"],
                       "argument --a: invalid int value: '1_0'"),
    "int-digits": (["selftest", "--criterion", "\u0668"],
                   "argument --criterion: invalid int value: '\u0668'"),
    # and so are the coefficients of a class typed on the command line
    "class-space": (["zariski", f"{FIXTURES}/one_point_model.json", "--class",
                     " 1, 2 ", "--candidates",
                     f"{FIXTURES}/one_point_candidates.json"],
                    "malformed rational ' 1'; use p or p/q"),
    "class-empty": (["zariski", f"{FIXTURES}/one_point_model.json",
                     "--class=", "--candidates",
                     f"{FIXTURES}/one_point_candidates.json"],
                    "empty class vector"),
    "residual": (["pencil", f"{FIXTURES}/sextic_model.json", "--divisor",
                  "6,-2,-2,-2,-2,-2,-2,-2,-3/2", "--candidates",
                  f"{FIXTURES}/sextic_candidates.json"],
                 "residual class is not integral"),
    # the adjoint (1, 1/2) meets 3E1/2 at -3/4, which leaves the residual
    # H - E1 of square 0, and D.(H - E1) = 7/2
    "fiber-pairing": (["pencil", ONE_POINT, "--divisor", "4,-1/2",
                       "--candidates", [[0, "3/2"]]],
                      "boundary pairing with the fiber is not integral"),
    # the adjoint K + H = -2H + E1 meets the candidate H negatively, and
    # so does every class left by subtracting H from it
    "rounds": (["pencil", ONE_POINT, "--divisor", "1,0",
                "--candidates", [[1, 0]]], ROUNDS),
    "rounds-at-caps": (["pencil", LARGEST_PLANE, "--divisor",
                        H_ON_LARGEST_PLANE, "--candidates", CAP_CANDIDATES],
                       ROUNDS),
    # selftest prints its criterion lines in one format only
    "selftest-format": (["selftest", "--criterion", "8", "--format", "table"],
                        "unrecognized arguments: --format table"),
    "missing-file": (["peel", "no/such/file.json"],
                     "cannot read no/such/file.json: [Errno 2] No such file "
                     "or directory: 'no/such/file.json'"),
    # D_inf on F_0 has genus 0, as a lone (-2)-vertex has, but square 0
    "ruled-boundary": (["invariants", {"kind": "hirzebruch", "e": 0,
                                       "points": 0},
                        {"vertices": [GRAPH_VERTEX]}, "--class", "1,0"],
                       "inconsistent boundary square sources: the class "
                       "gives 0, the dual graph gives -2"),
    "genus-huge": (["invariants", f"{FIXTURES}/sextic_model.json",
                    f"{FIXTURES}/sextic_graph.json", "--class",
                    NINES + ",0" * 8],
                   "inconsistent arithmetic genus sources: adjunction gives "
                   "<6,000 digits>, the dual graph gives 2"),
    "ex3-a": (["example", "run", "ex3", "--a", "1"],
              "the family parameter a must be an integer >= 2"),
    "ex2-a": (["example", "run", "ex2", "--a", "3"], "ex2 takes no parameter"),
    "ex3-oversized": (["example", "run", "ex3", "--a", "1000000"],
                      "the family parameter a must be at most "
                      f"{MAX_EX3_A} (got 1000000)"),
    "grid-oversized": (["search", "ex4", "--g", "2:1000000000", "--x", "8:8",
                        "--y", "1:1"],
                       "grid has 500000001499999998 points; the limit is "
                       f"{MAX_GRID_POINTS}"),
}


@pytest.mark.parametrize("argv, message", REFUSED_RUNS.values(),
                         ids=list(REFUSED_RUNS))
def test_refused_run_is_one_error_line(tmp_path, capsys, argv, message):
    err = _refusal(capsys, _with_files(tmp_path, argv), message)
    assert err == f"error: {message}\n"


E1_OF_GRAM = _unit(MAX_GRAM_ROWS - 1, 0)

# the largest input of each kind is read: (its words, as in REFUSED_RUNS,
# a key of the report and the value there)
AT_LIMIT = {
    "graph": (["peel", _rod(MAX_GRAPH_VERTICES)], "coefficients",
              {f"R{i}": 1 for i in range(MAX_GRAPH_VERTICES)}),
    # H is nef against E1
    "model": (["zariski", LARGEST_PLANE, "--class", H_ON_LARGEST_PLANE,
               "--candidates", [_unit(MAX_MODEL_POINTS, 1)]],
              "P", _unit(MAX_MODEL_POINTS, 0)),
    # e1 of square -1 on the negative identity is its own negative part
    "gram": (["zariski", {"kind": "custom",
                          "gram": [[-1 if i == j else 0
                                    for j in range(MAX_GRAM_ROWS)]
                                   for i in range(MAX_GRAM_ROWS)]},
              "--class", ",".join(map(str, E1_OF_GRAM)),
              "--candidates", [E1_OF_GRAM]], "N", E1_OF_GRAM),
    # H pairs to i >= 0 with each iH + E
    "candidates": (["zariski", ONE_POINT, "--class", "1,0", "--candidates",
                    [[i, 1] for i in range(MAX_CANDIDATES)]], "P", [1, 0]),
}


@pytest.mark.parametrize("argv, key, value", AT_LIMIT.values(),
                         ids=list(AT_LIMIT))
def test_input_at_each_limit_is_accepted(tmp_path, capsys, argv, key, value):
    code, out, err = run_cli(capsys, *_with_files(tmp_path, argv))
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == value


def test_manifest_in_missing_directory_is_input_error(tmp_path, capsys):
    mpath = tmp_path / "missing" / "m.json"
    code, out, err = run_cli(capsys, "peel", f"{FIXTURES}/sextic_graph.json",
                             "--manifest", str(mpath))
    assert json.loads(out)["bound_ok"] in (True, False)
    _assert_one_error_line(code, err, f"cannot write {mpath}")
    assert not mpath.parent.exists()


def test_vertex_classes_on_a_large_basis_check_fast(tmp_path, capsys):
    # every vertex class is paired with every later one, but each class
    # has one non-zero coordinate of 2,001
    points = MAX_MODEL_POINTS
    doc = {"model": {"kind": "p2_blowup", "points": points},
           "vertices": [{"id": f"E{i}", "self": -1,
                         "class": _unit(points, i)}
                        for i in range(1, MAX_GRAPH_VERTICES + 1)]}
    graph = _write_json(tmp_path, "exceptional.json", doc)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "peel", graph)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0, err
    assert len(json.loads(out)["excluded"]) == MAX_GRAPH_VERTICES


@pytest.mark.parametrize("model,classes,b_self", [
    # A = E1 - E2, C = E2 - E3 and B = (E4 + E5 + E6 - E7)/2 on a plane;
    # B^2 = -1 and K.B = -1, so B has the genus 0 of its vertex
    ({"kind": "p2_blowup", "points": 7},
     [[0, 1, -1, 0, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0, 0, 0],
      [0, 0, 0, 0, "1/2", "1/2", "1/2", "-1/2"]], -1),
    # A = 2e1, C = e2 and B = 2e3 on a Gram over 2
    ({"kind": "custom", "gram": [["-1/2", "1/2", 0], ["1/2", -2, 0],
                                 [0, 0, "-1/2"]]},
     [[2, 0, 0], [0, 1, 0], [0, 0, 2]], -2),
], ids=["plane_halves", "custom_halves"])
def test_vertex_classes_with_denominators_check_exactly(tmp_path, capsys,
                                                        model, classes,
                                                        b_self):
    # A and C are (-2)-curves meeting once; B meets neither
    doc = {"model": model,
           "vertices": [{"id": vid, "self": self_int, "class": c}
                        for vid, self_int, c in zip(
                            "ACB", (-2, -2, b_self), classes)],
           "edges": [{"u": "A", "v": "C"}]}
    code, out, err = run_cli(capsys, "peel",
                             _write_json(tmp_path, "halves.json", doc))
    assert code == 0, err
    coefficients = json.loads(out)["coefficients"]
    assert coefficients["A"] == coefficients["C"] == 1
    del doc["edges"]
    code, out, err = run_cli(capsys, "peel",
                             _write_json(tmp_path, "halves.json", doc))
    assert code == 1
    assert ("edge A-C: class pairing 1 disagrees with stated multiplicity "
            "0") in err


# Start-up import map, read in fresh interpreters: `-I` keeps the
# user's site and PYTHONPATH out, so the source directory comes in as
# the first argument.
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

CORE = {"logpair", "logpair.cli", "logpair.errors", "logpair.jsonio",
        "logpair.lattice", "logpair.dualgraph", "logpair.linalg",
        "logpair.peeling"}

IMPORT_MAP = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
bare = set(sys.modules)
import logpair.cli
core = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = logpair.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
after = set(sys.modules)
print(code, sorted(core - bare), sorted(after - core), sep="\\n")
"""


def _import_map(*argv) -> tuple[set, set]:
    """(modules `import logpair.cli` adds, modules the command adds)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_MAP, SRC, *argv],
        capture_output=True, text=True, check=True)
    code, startup, command = proc.stdout.splitlines()
    assert code == "0", proc.stderr
    return set(ast.literal_eval(startup)), set(ast.literal_eval(command))


# `dataclasses` imports `inspect`, which loads `ast`, `dis` and
# `tokenize`: about 10 ms of start-up that no command needs
UNUSED_STDLIB = {"dataclasses", "inspect"}


def test_startup_loads_only_the_shared_core():
    startup, _ = _import_map()
    assert {m for m in startup if m.startswith("logpair")} == CORE
    assert "hashlib" not in startup
    assert not startup & UNUSED_STDLIB


@pytest.mark.parametrize("argv", [
    ["zariski", f"{FIXTURES}/one_point_model.json", "--class", "1,2",
     "--candidates", f"{FIXTURES}/one_point_candidates.json"],
    ["invariants", f"{FIXTURES}/sextic_model.json",
     f"{FIXTURES}/sextic_graph.json", "--class", "6,-2,-2,-2,-2,-2,-2,-2,-2"],
    ["pencil", f"{FIXTURES}/sextic_model.json", "--divisor",
     "6,-2,-2,-2,-2,-2,-2,-2,-2", "--candidates",
     f"{FIXTURES}/sextic_candidates.json"],
    ["example", "run", "ex2"],
    ["search", "ex4", "--g", "10:10", "--x", "8:8", "--y", "1:1"],
    ["selftest", "--criterion", "1"],
], ids=["zariski", "invariants", "pencil", "example", "search", "selftest"])
def test_no_command_imports_dataclasses(argv):
    startup, command = _import_map(*argv)
    assert not (startup | command) & UNUSED_STDLIB


@pytest.mark.parametrize("argv,added", [
    (["peel", f"{FIXTURES}/sextic_graph.json"], set()),
    (["search", "ex4", "--g", "10:10", "--x", "8:8", "--y", "1:1"],
     {"logpair.search"}),
    (["peel", f"{FIXTURES}/sextic_graph.json", "--manifest", os.devnull],
     {"hashlib"}),
], ids=["peel", "search", "manifest"])
def test_command_loads_only_its_layer(argv, added):
    _, command = _import_map(*argv)
    assert {m for m in command
            if m.startswith("logpair") or m == "hashlib"} == added


# A layer imported while another layer's function is replaced (a tracer
# wrapping it, say) must not keep the replacement once it is put back:
# deferred layers read traced functions through their module.
STALE_BINDING = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import logpair.cli as cli
from logpair import linalg, peeling
calls = []

def counting(fn):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper

originals = [(linalg, "solve_linear"), (linalg, "is_negative_definite"),
             (peeling, "bark")]
originals = [(m, n, getattr(m, n)) for m, n in originals]
for module, name, fn in originals:
    setattr(module, name, counting(fn))
import logpair.examples
for module, name, fn in originals:
    setattr(module, name, fn)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        codes.append(cli.main(argv))
print(codes, sorted(set(calls)), sep="\\n")
"""


def test_deferred_import_keeps_no_patched_binding():
    zariski = ["zariski", f"{FIXTURES}/one_point_model.json", "--class",
               "1,2", "--candidates", f"{FIXTURES}/one_point_candidates.json"]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", STALE_BINDING, SRC,
         json.dumps([["example", "run", "ex2"], zariski])],
        capture_output=True, text=True, check=True)
    codes, called = proc.stdout.splitlines()
    assert codes == "[0, 0]", proc.stderr
    assert called == "[]"
