"""Result records: validation at construction, immutability, JSON names.

Every record of the package is a NamedTuple, so these pin what the
tuple base must not change: the one validating record left,
FamilyInstance, raises its InputError texts when built, a field of a
record cannot be assigned, and a record serializes as a JSON object
(not an array) under its field names, with the renamed fields under
their JSON names.  Vertex and Edge are plain tuples; their rules are
decided by the DualGraph built on them, so those cases build one.
"""

import json
from fractions import Fraction

import pytest

from logpair import (ConstraintReport, DecompositionCheck, DivisorClass,
                     DualGraph, Edge, EulerBoundReport, FamilyInstance,
                     FixedPart, HodgeData, InputError, InvariantReport,
                     LogInvariants, PencilResult, Segment, SurfaceModel,
                     TheoremCheck, Vertex, ZariskiDecomposition,
                     analyze_adjoint_system, bark, evaluate_constraints,
                     invariant_report, main_theorem_predicate)
from logpair.examples import sextic_config
from logpair.jsonio import dumps

_AB = [Vertex("A", 0, -2), Vertex("B", 0, -2)]


@pytest.mark.parametrize("build,message", [
    (lambda: DualGraph([Vertex("A", genus=-1, self_int=0)]),
     "vertex A: genus must be >= 0"),
    (lambda: DualGraph([Vertex("A", 0, -2)], [Edge("A", "A")]),
     "self loop at A is not allowed"),
    (lambda: DualGraph(_AB, [Edge("A", "B", 0)]),
     "edge A-B: multiplicity must be >= 1"),
    (lambda: DualGraph(_AB, [Edge(u="A", v="B", mult=-3)]),
     "edge A-B: multiplicity must be >= 1"),
    (lambda: FamilyInstance("2", 0, 8, 1),
     "instance parameters must be integers"),
    (lambda: FamilyInstance(10, True, 8, 1),
     "instance parameters must be integers"),
], ids=["vertex_genus", "edge_loop", "edge_mult_zero", "edge_keywords",
        "instance_string", "instance_bool"])
def test_validating_records_raise_at_construction(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_validating_records_keep_fields_and_defaults():
    v = Vertex(id="A", genus=1, self_int=-2)
    assert (v.id, v.genus, v.self_int) == ("A", 1, -2)
    assert type(v) is Vertex and repr(v).startswith("Vertex(")
    assert Edge("A", "B").mult == 1
    assert Edge("A", "B") == Edge(u="A", v="B", mult=1)
    inst = FamilyInstance(10, 3, 8, 1)
    assert (inst.g, inst.e, inst.x, inst.y, inst.a) == (10, 3, 8, 1, 8)


def _frozen_records():
    """One instance of each record that was frozen, with a field name."""
    model, boundary, graph, candidates = sextic_config()
    rep = invariant_report(model, boundary, graph)
    pencil = analyze_adjoint_system(model, boundary, candidates)
    seg = Segment("rod", ("A",))
    return [
        (Vertex("A", 0, -2), "genus"),
        (Edge("A", "B"), "mult"),
        (seg, "reason"),
        (model.hodge, "h11"),
        (model, "num_points"),
        (rep.invariants, "l"),
        (rep.euler_bound, "hypothesis_rhs"),
        (rep, "p_sq"),
        (main_theorem_predicate(1, 1, 2), "passed"),
        (pencil.fixed_parts[0], "cls"),
        (pencil, "g"),
        (FamilyInstance(10, 3, 8, 1), "e"),
        (evaluate_constraints(FamilyInstance(10, 3, 8, 1)), "feasible"),
    ]


def test_frozen_records_reject_assignment():
    kinds = set()
    for record, name in _frozen_records():
        kinds.add(type(record))
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert getattr(record, name) == before
    assert kinds == {Vertex, Edge, Segment, HodgeData, SurfaceModel,
                     LogInvariants, EulerBoundReport, InvariantReport,
                     TheoremCheck, FixedPart, PencilResult, FamilyInstance,
                     ConstraintReport}


def test_records_serialize_as_objects_under_json_names():
    model, boundary, _, candidates = sextic_config()
    pencil = analyze_adjoint_system(model, boundary, candidates)
    doc = json.loads(dumps(pencil))
    assert set(doc) == set(PencilResult._fields)
    assert doc["fixed_parts"] == [
        {"class": json.loads(dumps(pencil.fixed_parts[0].cls)),
         "pairing": -1,
         "dim_bound": json.loads(dumps(pencil.fixed_parts[0].dim_bound))}]
    m = SurfaceModel.plane_blowup(1)
    z = ZariskiDecomposition(m.divisor([1, 0]), m.divisor([0, 2]), [0],
                             [Fraction(2)], 1)
    assert '"P": [' in dumps(z) and '"N": [' in dumps(z)
    assert "positive" not in dumps(z) and "cls" not in dumps(pencil)
    # a record nested in a list is an object; a plain tuple is an array
    fp = FixedPart(DivisorClass([1]), Fraction(-1), None)
    assert json.loads(dumps((fp, (1, 2)))) == [
        {"class": [1], "pairing": -1, "dim_bound": None}, [1, 2]]


def test_decomposition_check_all_ok_reads_every_field():
    fields = DecompositionCheck._fields
    assert len(fields) == 6
    assert DecompositionCheck(*[True] * 6).all_ok
    for i in range(6):
        flags = [True] * 6
        flags[i] = False
        assert not DecompositionCheck(*flags).all_ok, fields[i]


def test_bark_report_segments_start_empty_per_call():
    # SegmentReport has no shared default list: each classification
    # builds its own
    one = bark(sextic_config()[2]).report
    two = bark(sextic_config()[2]).report
    assert one.segments == two.segments
    assert one.segments is not two.segments
