"""Canonical JSON wire formats: exact rationals, deterministic output."""

import json
import random
import sys
from fractions import Fraction

import pytest

from logpair import (NEF_SCOPE, DivisorClass, FixedPart, InputError,
                     SurfaceModel, ZariskiDecomposition)
from logpair.jsonio import (dumps, encode_rational, load_classes,
                            load_graph, load_model, parse_class,
                            parse_class_arg, parse_graph, parse_model,
                            parse_rational, render_table, run_manifest,
                            record_fields, sha256_file)


def test_rational_encoding_round_trip():
    assert encode_rational(Fraction(3)) == 3
    assert encode_rational(Fraction(-7, 2)) == "-7/2"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(-5) == Fraction(-5)
    assert parse_rational("-5") == Fraction(-5)
    for v in [Fraction(0), Fraction(22, 7), Fraction(-1, 3), Fraction(8)]:
        assert parse_rational(encode_rational(v)) == v


def test_rational_rejects_junk():
    with pytest.raises(InputError):
        parse_rational("3/0")
    with pytest.raises(InputError):
        parse_rational("1/-2")
    with pytest.raises(InputError):
        parse_rational(1.5)
    with pytest.raises(InputError):
        parse_rational(True)
    with pytest.raises(InputError):
        parse_rational("a/b")
    for bad in ("1.5", "3\n", "1/2\n"):
        with pytest.raises(InputError):
            parse_rational(bad)
        with pytest.raises(InputError):
            parse_class([bad, 0])


def test_dumps_canonical_form():
    text = dumps({"b": Fraction(1, 2), "a": [Fraction(2), Fraction(-1, 3)]})
    assert text == (
        '{\n  "a": [\n    2,\n    "-1/3"\n  ],\n  "b": "1/2"\n}\n'
    )
    # keys sorted, trailing newline, reparses cleanly
    assert json.loads(text) == {"a": [2, "-1/3"], "b": "1/2"}


def test_dumps_rejects_floats():
    for x in ({"x": 1.5}, [0.25]):
        with pytest.raises(InputError,
                           match="floating point values cannot be"):
            dumps(x)


def test_divisor_class_serialization():
    c = DivisorClass([1, Fraction(-2, 3)])
    assert json.loads(dumps(c)) == [1, "-2/3"]
    rng = random.Random(5)
    for n in (1, 4, 60):
        for _ in range(20):
            xs = [Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 6, 9)))
                  for _ in range(n)]
            c = DivisorClass(xs)
            assert json.loads(dumps(c)) == [encode_rational(x) for x in xs]
            text = ",".join(str(encode_rational(x)) for x in xs)
            assert parse_class_arg(text) == c


def test_dataclass_serialization():
    # fields serialize under their names unless metadata renames them;
    # nested dataclasses, classes and rationals take their own branches
    m = SurfaceModel.plane_blowup(1)
    z = ZariskiDecomposition(m.divisor([1, 0]), m.divisor([0, 2]), [0],
                             [Fraction(2, 3)], 1)
    assert json.loads(dumps(z)) == {
        "P": [1, 0], "N": [0, 2], "support": [0],
        "coefficients": ["2/3"], "rounds": 1, "nef_scope": NEF_SCOPE}
    fp = FixedPart(DivisorClass([1, Fraction(-1, 2)]), Fraction(-1), None)
    assert json.loads(dumps([fp])) == [
        {"class": [1, "-1/2"], "pairing": -1, "dim_bound": None}]
    # record_fields is the same step on one level: values stay as they
    # are, and `omit` names fields, not their JSON names
    assert record_fields(z) == {
        "P": z.positive, "N": z.negative, "support": [0],
        "coefficients": [Fraction(2, 3)], "rounds": 1,
        "nef_scope": NEF_SCOPE}
    assert record_fields(z, omit=("positive", "rounds")) == {
        "N": z.negative, "support": [0],
        "coefficients": [Fraction(2, 3)], "nef_scope": NEF_SCOPE}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts ints of any length")
def test_dumps_refuses_numbers_past_the_int_text_limit():
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("the int conversion limit is switched off")
    big = 10 ** limit  # one digit more than the limit
    message = f"the report holds a number of more than {limit:,} digits"
    # int.__repr__, encode_rational on an integral and on a proper
    # Fraction, and _number on a class's integer and "p/q" coefficients
    for value in (big, -big, Fraction(big), Fraction(big, 3),
                  Fraction(1, big), DivisorClass([1, big]),
                  DivisorClass([Fraction(big, 7), Fraction(1, 2)])):
        report = {"invariants": {"pa_D": value}, "ok": True}
        with pytest.raises(InputError) as info:
            dumps(report)
        assert str(info.value) == message
    # a number of exactly `limit` digits is still written out
    assert dumps(big // 10) == "1" + "0" * (limit - 1) + "\n"


def test_parse_class_integer_spellings():
    c = parse_class_arg("+3,-0,007,4/2")
    assert c.nums == (3, 0, 7, 2) and c.den == 1
    with pytest.raises(InputError):
        parse_class_arg("1,true")
    with pytest.raises(InputError):
        parse_class([1, True])


def test_parse_model_kinds(tmp_path):
    m = parse_model({"kind": "p2_blowup", "points": 3})
    assert m.basis_size == 4
    m2 = parse_model({"kind": "hirzebruch", "e": 2, "points": 1})
    assert m2.basis_size == 3
    assert m2.degree_e == 2
    m3 = parse_model({"kind": "custom", "gram": [[0, 1], [1, -2]]})
    assert m3.basis_size == 2
    with pytest.raises(InputError):
        parse_model({"kind": "elliptic"})
    with pytest.raises(InputError):
        parse_model({"points": 3})
    # a row that is not an array is an input error, not a TypeError
    with pytest.raises(InputError, match="gram matrix of rows"):
        parse_model({"kind": "custom", "gram": [[0], 1]})
    p = tmp_path / "m.json"
    p.write_text(dumps({"kind": "p2_blowup", "points": 2}))
    assert load_model(str(p)).basis_size == 3


def test_float_rejected_at_file_boundary(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"kind": "custom", "gram": [[1.0]]}')
    with pytest.raises(InputError):
        load_model(str(p))


def test_parse_class_arg():
    m = SurfaceModel.plane_blowup(2)
    c = parse_class_arg("1,-2,3/2", m)
    assert c == m.divisor([1, -2, Fraction(3, 2)])
    with pytest.raises(InputError):
        parse_class_arg("1,2", m)
    with pytest.raises(InputError):
        parse_class_arg("1,2,x", m)


def test_parse_graph_shapes():
    g = parse_graph({
        "vertices": [{"id": "A", "self": -2},
                     {"id": "B", "genus": 1, "self": 0}],
        "edges": [{"u": "A", "v": "B", "mult": 2}],
    })
    assert g.vertex("A").genus == 0
    assert g.vertex("B").genus == 1
    assert g.total_edge_multiplicity == 2
    with pytest.raises(InputError, match="require a model"):
        parse_graph({
            "vertices": [{"id": "A", "self": -1, "class": [0, 1]}],
        })
    g2 = parse_graph({
        "model": {"kind": "p2_blowup", "points": 1},
        "vertices": [{"id": "A", "self": -1, "class": [0, 1]}],
    })
    assert g2.class_map is not None


def test_load_graph_and_classes(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(dumps({
        "vertices": [{"id": "A", "self": -2}],
    }))
    assert [v.id for v in load_graph(str(gpath)).vertices] == ["A"]
    cpath = tmp_path / "c.json"
    cpath.write_text(dumps([[1, 0], [0, 1]]))
    m = SurfaceModel.plane_blowup(1)
    cl = load_classes(str(cpath), m)
    assert len(cl) == 2
    cpath2 = tmp_path / "c2.json"
    cpath2.write_text(dumps({"candidates": [[1, 0]]}))
    assert len(load_classes(str(cpath2), m)) == 1
    with pytest.raises(InputError):
        load_classes(str(cpath), SurfaceModel.plane_blowup(2))


def test_run_manifest_and_digest(tmp_path):
    p = tmp_path / "input.json"
    p.write_text('{"kind": "p2_blowup", "points": 1}')
    digest = sha256_file(str(p))
    assert len(digest) == 64
    doc = run_manifest(["peel", str(p)], [str(p)], "output\n", "0.1.0")
    assert doc["inputs"][str(p)] == digest
    assert doc["artifact_version"] == "0.1.0"
    assert doc["command"] == ["peel", str(p)]
    import hashlib
    assert doc["output_sha256"] == hashlib.sha256(b"output\n").hexdigest()


def test_render_table_alignment():
    out = render_table(["name", "value"],
                       [["alpha", "1/2"], ["b", "10"], ["c", "yes"]])
    lines = out.splitlines()
    assert lines[0].split() == ["name", "value"]
    assert set(lines[1]) <= {"-", " "}
    assert "1/2" in lines[2]
    assert "yes" in lines[4]
    # numeric column is right-aligned
    assert lines[3].rstrip().endswith("10")


def test_render_table_lines_have_no_trailing_space():
    # a value wider than its header must not pad the header line
    for headers, rows in [
            (["field", "value"], [["adjoint", "[6, -1, -1, -1]"],
                                  ["g", "2"], ["big", "no"]]),
            (["g", "note", "ok"], [["10", "a long note", "yes"],
                                   ["-7/2", "", "no"]])]:
        out = render_table(headers, rows)
        assert out.endswith("\n")
        for line in out.splitlines():
            assert not line.endswith(" "), repr(line)
