"""Command-line surface: exit codes, wire formats, reproducibility,
and the layers each command imports."""

import ast
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from logpair.cli import _compact_span, build_parser, main
from logpair.errors import InputError
from logpair.examples import MAX_EX3_A
from logpair.jsonio import (MAX_CANDIDATES, MAX_GRAM_ROWS, MAX_GRAPH_VERTICES,
                            MAX_MODEL_POINTS, load_classes, parse_model)
from logpair.search import MAX_GRID_POINTS

FIXTURES = str(pathlib.Path(__file__).resolve().parent.parent / "fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_peel_fixture(capsys):
    code, out, _ = run_cli(capsys, "peel", f"{FIXTURES}/d4_fork.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"C": 1, "T1": 1, "T2": 1, "T3": 1}
    assert doc["bark_square"] == -2
    assert doc["tips"] == 3
    assert doc["bound_ok"] is True
    assert doc["segments"][0]["kind"] == "fork"


def test_zariski_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "zariski", f"{FIXTURES}/one_point_model.json",
        "--class", "1,2",
        "--candidates", f"{FIXTURES}/one_point_candidates.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["P"] == [1, 0]
    assert doc["N"] == [0, 2]
    assert doc["support"] == [0]
    assert doc["checks"]["all_ok"] is True
    assert doc["nef_scope"] == "relative to the supplied candidate set only"


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


def test_pencil_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "pencil", f"{FIXTURES}/sextic_model.json",
        "--divisor", "6,-2,-2,-2,-2,-2,-2,-2,-2",
        "--candidates", f"{FIXTURES}/sextic_candidates.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == 0
    assert doc["k"] == 4
    assert doc["b"] == 0
    assert doc["big"] is True
    assert doc["residual"] == [1, 0, 0, 0, 0, 0, 0, 0, -1]
    assert len(doc["fixed_parts"]) == 1
    assert doc["fixed_parts"][0]["pairing"] == -1


def test_example_subcommand(capsys):
    code, out, _ = run_cli(capsys, "example", "run", "ex2")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "ex2"
    assert doc["noether_holds"] is True
    assert doc["pencil"]["g"] == 0
    code3, out3, _ = run_cli(capsys, "example", "run", "ex3", "--a", "4")
    doc3 = json.loads(out3)
    assert code3 == 0
    assert doc3["a"] == 4
    assert doc3["k_reference"] == 12
    assert doc3["k_discrepancy"] is True


def test_example_rejects_bad_parameter(capsys):
    code, _, err = run_cli(capsys, "example", "run", "ex3", "--a", "1")
    assert code == 1
    assert "a must be an integer >= 2" in err
    code2, _, err2 = run_cli(capsys, "example", "run", "ex2", "--a", "3")
    assert code2 == 1


def test_search_subcommand(capsys):
    code, out, _ = run_cli(capsys, "search", "ex4", "--g", "10:10",
                           "--x", "8:8", "--y", "1:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["row_count"] == 1
    assert doc["rows"][0]["inequalities"]["dim_positive"] is False
    assert doc["reference_claim"]["discrepancy"] is True


def test_search_table_format(capsys):
    code, out, _ = run_cli(capsys, "search", "ex4", "--g", "10:10",
                           "--x", "8:8", "--y", "1:1",
                           "--format", "table")
    assert code == 0
    assert "dim_positive" in out
    assert "disagrees with the circulated claim" in out


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


def test_bad_span_is_input_error(capsys):
    code, _, err = run_cli(capsys, "search", "ex4", "--g", "10-12",
                           "--x", "8:8", "--y", "1:1")
    assert code == 1
    assert "LO:HI" in err


def test_argparse_errors_map_to_exit_one(capsys):
    assert run_cli(capsys, "bogus")[0] == 1
    assert run_cli(capsys, "zariski", f"{FIXTURES}/one_point_model.json")[0] == 1
    assert run_cli(capsys)[0] == 1


def _golden_argvs() -> list:
    """Every command line tests/test_golden.py pins, read from the file
    so that no import mode has to put the tests on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "golden_cases", pathlib.Path(__file__).with_name("test_golden.py"))
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return [*golden.CASES.values(), *golden.HASHED.values()]


# `main` builds arguments only for the subcommand named by argv[0]; each
# of these must parse as it does with every subcommand's arguments
PARSE_CASES = [
    *([*argv, *fmt] for argv in _golden_argvs()
      for fmt in ([], ["--format", "table"])),
    # bad arguments
    [], ["bogus"], ["peel"], ["peel", "a", "b"], ["example", "run", "ex5"],
    ["example", "walk"], ["peel", "x", "--format", "xml"],
    ["--format", "json", "peel", "x"], ["--foo", "peel", "x"],
    ["--", "peel", "x"], ["selftest", "--criterion", "x"],
    ["example", "run", "ex3", "--a", "q"],
    # help and version
    ["-h"], ["--version"], ["example", "run", "--help"],
    *([cmd, "--help"] for cmd in ("peel", "zariski", "invariants", "pencil",
                                  "example", "search", "selftest")),
]


def _parse(parser, argv) -> tuple:
    """The namespace, the InputError text, or the SystemExit code with
    what was printed, from one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return "namespace", vars(parser.parse_args(argv))
    except InputError as exc:
        return "input error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_command_parser_parses_as_the_full_parser(argv):
    got = _parse(build_parser(argv[0] if argv else None), argv)
    assert got == _parse(build_parser(), argv)


def test_missing_file_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "peel", "no/such/file.json")
    assert code == 1
    assert "error:" in err


def test_byte_identical_reruns(capsys):
    args = ("invariants", f"{FIXTURES}/sextic_model.json",
            f"{FIXTURES}/sextic_graph.json",
            "--class", "6,-2,-2,-2,-2,-2,-2,-2,-2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert out1.endswith("\n")
    # canonical form: keys sorted at every level
    doc = json.loads(out1)
    assert list(doc) == sorted(doc)


def test_manifest_written(tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    code, out, _ = run_cli(capsys, "peel", f"{FIXTURES}/d4_fork.json",
                           "--manifest", str(mpath))
    assert code == 0
    doc = json.loads(mpath.read_text())
    assert doc["output_sha256"] == hashlib.sha256(
        out.encode("utf-8")).hexdigest()
    assert f"{FIXTURES}/d4_fork.json" in doc["inputs"]
    assert doc["command"][0] == "peel"


def test_selftest_filter(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--criterion", "8")
    assert code == 0
    assert "criterion 8 [pass]" in out
    assert "criterion 1" not in out
    code2, _, err2 = run_cli(capsys, "selftest", "--criterion", "99")
    assert code2 == 1


def test_table_format_kv(capsys):
    code, out, _ = run_cli(capsys, "peel", f"{FIXTURES}/d4_fork.json",
                           "--format", "table")
    assert code == 0
    assert "bark_square" in out
    assert "{" not in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "logpair.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_fractional_zariski_output_uses_pq_strings(capsys):
    # the sextic adjoint against one conic gives thirds
    code, out, _ = run_cli(
        capsys, "zariski", f"{FIXTURES}/sextic_model.json",
        "--class", "3,-1,-1,-1,-1,-1,-1,-1,-1",
        "--candidates", f"{FIXTURES}/sextic_candidates.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["N"][0] == "2/3"
    assert doc["coefficients"] == ["1/3"]
    floats = [v for v in doc["P"] + doc["N"] if isinstance(v, float)]
    assert not floats


def _write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_boolean_points_is_input_error(tmp_path, capsys):
    model = _write_json(tmp_path, "model.json",
                        {"kind": "p2_blowup", "points": True})
    code, out, err = run_cli(
        capsys, "zariski", model, "--class", "1,2",
        "--candidates", f"{FIXTURES}/one_point_candidates.json")
    assert code == 1
    assert out == ""
    assert "p2_blowup needs integer points" in err


def test_boolean_hirzebruch_degree_is_input_error(tmp_path, capsys):
    model = _write_json(tmp_path, "model.json",
                        {"kind": "hirzebruch", "e": True, "points": 0})
    cands = _write_json(tmp_path, "cands.json", [[0, 1]])
    code, out, err = run_cli(capsys, "zariski", model, "--class", "1,1",
                             "--candidates", cands)
    assert code == 1
    assert out == ""
    assert "hirzebruch needs integer e" in err


def test_boolean_vertex_genus_is_input_error(tmp_path, capsys):
    graph = _write_json(tmp_path, "graph.json", {
        "vertices": [{"id": "A", "genus": True, "self": -2}],
        "edges": []})
    code, out, err = run_cli(capsys, "peel", graph)
    assert code == 1
    assert out == ""
    assert "vertex A: genus must be an integer" in err


def test_boolean_edge_mult_is_input_error(tmp_path, capsys):
    graph = _write_json(tmp_path, "graph.json", {
        "vertices": [{"id": "A", "self": -2}, {"id": "B", "self": -2}],
        "edges": [{"u": "A", "v": "B", "mult": True}]})
    code, out, err = run_cli(capsys, "peel", graph)
    assert code == 1
    assert out == ""
    assert "edge A-B: mult must be an integer" in err


GRAPH_VERTEX = {"id": "A", "self": -2}

# malformed input files: (the file's role, its content, the message)
MALFORMED = [
    ("graph", [GRAPH_VERTEX], "graph JSON must be an object"),
    ("model", [1, 2], "model JSON must be an object"),
    ("graph", {"vertices": []}, "needs a nonempty vertices array"),
    ("graph", {"vertices": ["A"]}, "each vertex must be an object"),
    ("graph", {"vertices": [{"self": -2}]},
     "each vertex needs a nonempty string id"),
    ("graph", {"vertices": [{"id": "", "self": -2}]},
     "each vertex needs a nonempty string id"),
    ("graph", {"vertices": [{"id": "A"}]},
     "vertex A: missing self-intersection"),
    ("graph", {"vertices": [{"id": "A", "self": "-3/2"}]},
     "vertex A: self-intersection must be an integer"),
    ("graph", {"vertices": [GRAPH_VERTEX], "edges": 5},
     "graph edges must be an array"),
    ("graph", {"vertices": [GRAPH_VERTEX], "edges": None},
     "graph edges must be an array"),
    ("graph", {"vertices": [GRAPH_VERTEX], "edges": [["A", "B"]]},
     "each edge must be an object"),
    ("graph", {"vertices": [GRAPH_VERTEX], "edges": [{"u": "A", "v": 1}]},
     "each edge needs string endpoints u and v"),
    # the top-level map, once accepted, took ids that are no vertices
    ("graph", {"model": {"kind": "p2_blowup", "points": 1},
               "vertices": [{"id": "A", "self": -1}],
               "classes": {"A": [0, 1], "Z": [1, 0]}},
     'each vertex its own "class" array'),
    ("graph", '{"vertices": [', "is not valid JSON"),
    ("candidates", {"candidates": 3}, "expected an array of classes"),
]


@pytest.mark.parametrize("role, doc, message", MALFORMED)
def test_malformed_input_file_is_input_error(tmp_path, capsys, role, doc,
                                             message):
    path = tmp_path / "input.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    model = f"{FIXTURES}/one_point_model.json"
    cands = f"{FIXTURES}/one_point_candidates.json"
    argv = {"graph": ["peel", str(path)],
            "model": ["zariski", str(path), "--class", "1,2",
                      "--candidates", cands],
            "candidates": ["zariski", model, "--class", "1,2",
                           "--candidates", str(path)]}[role]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def _assert_one_error_line(code, err, message):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


def test_non_utf8_input_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_bytes(b'{"vertices": [{"id": "\xe9", "self": -1}]}')
    code, out, err = run_cli(capsys, "peel", str(path))
    assert out == ""
    _assert_one_error_line(code, err, "is not valid JSON: 'utf-8' codec")


def test_deeply_nested_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "peel", str(path))
    assert out == ""
    _assert_one_error_line(code, err, "is nested too deeply to read")


# a numeral past the 4,300 digits that Python converts to an int
HUGE = "1" + "0" * 5_000


@pytest.mark.parametrize("role, text, message", [
    ("model", '{"kind": "p2_blowup", "points": %s}' % HUGE,
     "holds an integer with too many digits"),
    ("graph", '{"vertices": [{"id": "A", "self": "-%s"}]}' % HUGE,
     "rational of 5002 characters has too many digits"),
    ("candidates", '[[1, "%s"]]' % HUGE,
     "integer of 5001 characters has too many digits"),
    ("candidates", '[[1, %s]]' % HUGE, "holds an integer with too many digits"),
    ("class", HUGE, "integer of 5001 characters has too many digits"),
    ("class", "1/" + HUGE, "rational of 5003 characters has too many digits"),
], ids=["points", "self", "class-string", "class-number", "arg", "arg-pq"])
def test_integer_with_too_many_digits_is_input_error(tmp_path, capsys, role,
                                                     text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    model = f"{FIXTURES}/one_point_model.json"
    cands = f"{FIXTURES}/one_point_candidates.json"
    argv = {"model": ["zariski", str(path), "--class", "1,2",
                      "--candidates", cands],
            "graph": ["peel", str(path)],
            "candidates": ["zariski", model, "--class", "1,2",
                           "--candidates", str(path)],
            "class": ["zariski", model, "--class", f"1,{text}",
                      "--candidates", cands]}[role]
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    _assert_one_error_line(code, err, message)


NINES = "9" * 3_000


@pytest.mark.parametrize("argv, message", [
    (lambda tmp: ["invariants", f"{FIXTURES}/sextic_model.json",
                  f"{FIXTURES}/sextic_graph.json", "--class",
                  NINES + ",0" * 8],
     "adjunction gives <6,000 digits>, the dual graph gives 2"),
    # A = n(H + E1) pairs to 0 with itself and to n^2 with B = nH
    (lambda tmp: ["peel", _write_json(tmp, "graph.json", {
        "model": {"kind": "p2_blowup", "points": 1},
        "vertices": [{"id": "A", "self": 0, "class": [NINES, NINES]},
                     {"id": "B", "self": 0, "class": [NINES, 0]}]})],
     "edge A-B: class pairing <6,000 digits> disagrees"),
], ids=["genus", "pairing"])
def test_message_number_of_too_many_digits_is_input_error(tmp_path, capsys,
                                                          argv, message):
    # 3,000-digit coefficients give numbers of 6,000 digits, more than
    # `str` converts: the message gives their digit count
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert out == ""
    _assert_one_error_line(code, err, message)


def test_manifest_in_missing_directory_is_input_error(tmp_path, capsys):
    mpath = tmp_path / "missing" / "m.json"
    code, out, err = run_cli(capsys, "peel", f"{FIXTURES}/sextic_graph.json",
                             "--manifest", str(mpath))
    assert json.loads(out)["bound_ok"] in (True, False)
    _assert_one_error_line(code, err, f"cannot write {mpath}")
    assert not mpath.parent.exists()


def _rod(n: int) -> dict:
    return {"vertices": [{"id": f"R{i}", "self": -2} for i in range(n)],
            "edges": [{"u": f"R{i}", "v": f"R{i + 1}"}
                      for i in range(n - 1)]}


def test_oversized_graph_is_input_error(tmp_path, capsys):
    graph = _write_json(tmp_path, "rod.json", _rod(MAX_GRAPH_VERTICES))
    code, out, _ = run_cli(capsys, "peel", graph)
    assert code == 0
    assert json.loads(out)["coefficients"] == {
        f"R{i}": 1 for i in range(MAX_GRAPH_VERTICES)}
    graph = _write_json(tmp_path, "rod.json", _rod(MAX_GRAPH_VERTICES + 1))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "peel", graph)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert (f"graph has {MAX_GRAPH_VERTICES + 1} vertices; the limit is "
            f"{MAX_GRAPH_VERTICES}") in err


def _unit(points: int, i: int) -> list:
    """E_i as a class array on a plane blown up at `points`."""
    out = [0] * (points + 1)
    out[i] = 1
    return out


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


@pytest.mark.parametrize("edges,message", [
    # the first disagreement in vertex order is the one reported: A-C
    # is checked before A-B, whose pairing no multiplicity can state
    ([], "edge A-C: class pairing 1 disagrees with stated multiplicity 0"),
    ([{"u": "C", "v": "A", "mult": 2}],
     "edge A-C: class pairing 1 disagrees with stated multiplicity 2"),
    ([{"u": "A", "v": "C"}, {"u": "A", "v": "B"}],
     "edge A-B: class pairing -1/2 disagrees with stated multiplicity 1"),
], ids=["missing_edge", "wrong_mult", "fractional"])
def test_wrong_vertex_pairing_is_input_error(tmp_path, capsys, edges,
                                             message):
    # A = E1 - E2, B = (E1 + E4 + E5 + E6)/2 and C = E2 - E3: A.B = -1/2,
    # A.C = 1 and B.C = 0
    points = MAX_MODEL_POINTS
    doc = {"model": {"kind": "p2_blowup", "points": points},
           "vertices": [
               {"id": "A", "self": -2,
                "class": [0, 1, -1] + [0] * (points - 2)},
               {"id": "C", "self": -2,
                "class": [0, 0, 1, -1] + [0] * (points - 3)},
               {"id": "B", "self": -1,
                "class": [0, "1/2", 0, 0, "1/2", "1/2", "1/2"]
                + [0] * (points - 6)}],
           "edges": edges}
    code, out, err = run_cli(capsys, "peel",
                             _write_json(tmp_path, "wrong.json", doc))
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model,classes,b_self", [
    # A = E1 - E2, C = E2 - E3 and B = (E4 + E5 + E6 + E7)/2 on a plane
    ({"kind": "p2_blowup", "points": 7},
     [[0, 1, -1, 0, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0, 0, 0],
      [0, 0, 0, 0, "1/2", "1/2", "1/2", "1/2"]], -1),
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


def test_oversized_search_grid_is_input_error(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "search", "ex4", "--g", "2:1000000000",
                             "--x", "8:8", "--y", "1:1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert f"the limit is {MAX_GRID_POINTS}" in err


def test_oversized_ex3_parameter_is_input_error(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "example", "run", "ex3",
                             "--a", "1000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert f"a must be at most {MAX_EX3_A}" in err


def test_oversized_model_is_input_error(tmp_path, capsys):
    assert parse_model({"kind": "p2_blowup",
                        "points": MAX_MODEL_POINTS}).basis_size == 2_001
    cands = _write_json(tmp_path, "cands.json", [[0, 1]])
    for doc in ({"kind": "p2_blowup", "points": MAX_MODEL_POINTS + 1},
                {"kind": "hirzebruch", "e": 1, "points": 40_000}):
        model = _write_json(tmp_path, "model.json", doc)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "zariski", model, "--class", "1,2",
                                 "--candidates", cands)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert f"points; the limit is {MAX_MODEL_POINTS}" in err


def test_oversized_gram_is_input_error(tmp_path, capsys):
    side = MAX_GRAM_ROWS
    assert parse_model({"kind": "custom", "gram": [
        [-1 if i == j else 0 for j in range(side)]
        for i in range(side)]}).basis_size == side
    cands = _write_json(tmp_path, "cands.json", [[1]])
    # entries that do not parse: the side is refused before any entry is
    # read, whether the rows or one row are too many
    for gram in ([["x"]] * (side + 1), [["x"] * (side + 1)],
                 [["x"] * 3, ["x"] * 50_000]):
        model = _write_json(tmp_path, "model.json",
                            {"kind": "custom", "gram": gram})
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "zariski", model, "--class", "1",
                                 "--candidates", cands)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert f"the limit is {side}" in err


def test_oversized_candidate_file_is_input_error(tmp_path, capsys):
    model = f"{FIXTURES}/one_point_model.json"
    pool = [[i, 1] for i in range(MAX_CANDIDATES + 1)]
    cands = _write_json(tmp_path, "cands.json", pool[:MAX_CANDIDATES])
    assert len(load_classes(cands)) == MAX_CANDIDATES
    cands = _write_json(tmp_path, "cands.json", {"candidates": pool})
    for argv in (["zariski", model, "--class", "1,2"],
                 ["pencil", model, "--divisor", "1,2"]):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--candidates", cands)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert f"has {MAX_CANDIDATES + 1} classes; the limit is" in err


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
