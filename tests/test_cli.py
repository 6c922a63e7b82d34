"""Command-line surface: exit codes, wire formats, reproducibility."""

import hashlib
import json
import pathlib
import subprocess
import sys
import time

from logpair.cli import main
from logpair.examples import MAX_EX3_A
from logpair.jsonio import (MAX_CANDIDATES, MAX_MODEL_POINTS, load_classes,
                            parse_model)
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


def test_bad_span_is_input_error(capsys):
    code, _, err = run_cli(capsys, "search", "ex4", "--g", "10-12",
                           "--x", "8:8", "--y", "1:1")
    assert code == 1
    assert "LO:HI" in err


def test_argparse_errors_map_to_exit_one(capsys):
    assert run_cli(capsys, "bogus")[0] == 1
    assert run_cli(capsys, "zariski", f"{FIXTURES}/one_point_model.json")[0] == 1
    assert run_cli(capsys)[0] == 1


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
