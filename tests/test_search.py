"""Ruled-family constraint system and exhaustive grid search."""

from fractions import Fraction

import pytest

from logpair import (FamilyInstance, InputError, NoPencilError,
                     analyze_adjoint_system, evaluate_constraints,
                     interval_report_x8_y1, reduced_bounds_x8_y1,
                     run_search)
from logpair.search import MAX_GRID_POINTS, _grid_points


def test_instance_validation():
    FamilyInstance(2, 0, 8, 1)
    with pytest.raises(InputError):
        FamilyInstance(1, 0, 8, 1)
    with pytest.raises(InputError):
        FamilyInstance(5, 6, 8, 1)
    with pytest.raises(InputError):
        FamilyInstance(5, -1, 8, 1)


def test_instance_geometry():
    inst = FamilyInstance(10, 3, 8, 1)
    assert inst.a == 8
    assert inst.points == 44
    m = inst.model()
    f = inst.fiber(m)
    assert m.self_intersection(f) == 0
    assert m.arithmetic_genus(f) == 10
    assert m.intersect(inst.boundary(m), f) == evaluate_constraints(inst).k


def test_fiber_square_and_genus_family_wide():
    for g in range(2, 21):
        for e in range(0, g + 1):
            inst = FamilyInstance(g, e, 8, 1)
            m = inst.model()
            f = inst.fiber(m)
            assert m.self_intersection(f) == 0
            assert m.arithmetic_genus(f) == g


def test_adjoint_minus_fixed_part_is_fiber():
    # K + D - M = F identically in (g, e, x, y); this is the exact
    # content behind the fixed-part step
    for g, e, x, y in [(10, 3, 8, 1), (27, 9, 8, 1), (15, 4, 9, 2),
                       (8, 0, 5, 0), (40, 40, 12, 5)]:
        inst = FamilyInstance(g, e, x, y)
        m = inst.model()
        assert (inst.adjoint(m) - inst.fixed_candidate(m)
                == inst.fiber(m))


def test_reference_instance_values():
    rep = evaluate_constraints(FamilyInstance(10, 3, 8, 1))
    assert rep.dim_value == -7
    assert rep.big_value == 44
    assert rep.effective_value == 5
    assert rep.fixed_part_value == -4
    assert not rep.dim_positive
    assert rep.big and rep.effective and rep.fixed_part
    assert rep.construction_ok and not rep.feasible
    assert rep.k == 26


def test_printed_flat_form_vs_exact_pairing():
    # the flat fixed-part expression drops the surface degree from its
    # first product; the two agree exactly when e = 1
    rep = evaluate_constraints(FamilyInstance(27, 9, 8, 1))
    assert rep.fixed_part_value == -10
    assert rep.pairing_exact == 182
    flat_e1 = evaluate_constraints(FamilyInstance(10, 1, 8, 1))
    assert flat_e1.fixed_part_value == flat_e1.pairing_exact
    diff = rep.pairing_exact - rep.fixed_part_value
    # the gap is (x-2)(x-4)(e-1)
    assert diff == 6 * 4 * (9 - 1)


@pytest.mark.xfail(
    strict=True,
    reason="feasibility of the printed inequalities does not make the "
           "subtract-negative-pairing pipeline strip the fixed-part "
           "candidate: its exact pairing with the adjoint is positive "
           "on these instances, so the candidate is never removed",
)
def test_pipeline_strips_fixed_part_on_feasible_instance():
    inst = FamilyInstance(27, 9, 8, 1)
    rep = evaluate_constraints(inst)
    assert rep.feasible
    m = inst.model()
    res = analyze_adjoint_system(m, inst.boundary(m),
                                 [inst.fixed_candidate(m)])
    assert len(res.fixed_parts) == 1


def test_pipeline_with_forced_residual():
    # handing the analyzer the fiber directly recovers g and k exactly
    inst = FamilyInstance(27, 9, 8, 1)
    m = inst.model()
    res = analyze_adjoint_system(m, inst.boundary(m), [],
                                 adjoint=inst.fiber(m))
    assert res.multiple == 1
    assert res.g == 27
    assert res.k == evaluate_constraints(inst).k


def test_reduced_bounds_match_grid():
    for g in range(8, 41):
        b = reduced_bounds_x8_y1(g)
        for e in range(0, g + 1):
            rep = evaluate_constraints(FamilyInstance(g, e, 8, 1))
            assert rep.dim_positive == (e > b["dim_lower"])
            assert rep.big == (e > b["big_lower"])
            assert rep.effective == (e > b["effective_lower"])
            assert rep.fixed_part == (e < b["fixed_upper"])


def test_interval_report():
    rep = interval_report_x8_y1(26, 29)
    by_g = {row["g"]: row for row in rep["per_g"]}
    assert by_g[27]["nonempty"] and by_g[27]["integers"] == [9]
    assert not by_g[28]["nonempty"]
    assert by_g[28]["variant_nonempty"]
    assert by_g[28]["variant_integers"] == [9]
    assert by_g[29]["nonempty"] and by_g[29]["integers"] == [10]
    assert "two reduced lower thresholds" in rep["note"]


def test_variant_threshold_admits_reference_instance():
    # under the alternate lower threshold the g=10 window is (107/36,
    # 13/4) which contains e=3: the circulated feasibility claim is
    # consistent with the variant reduction, not the exact one
    rep = interval_report_x8_y1(10, 10)
    row = rep["per_g"][0]
    assert not row["nonempty"]
    assert row["variant_integers"] == [3]
    assert row["variant_lower"] == Fraction(107, 36)


def test_run_search_single_cell():
    out = run_search((10, 10), (8, 8), (1, 1))
    assert out["row_count"] == 1
    row = out["rows"][0]
    assert (row["g"], row["e"], row["x"], row["y"]) == (10, 3, 8, 1)
    assert row["inequalities"]["dim_positive"] is False
    assert row["feasible"] is False
    ref = out["reference_claim"]
    assert ref["expected_feasible"] and not ref["computed_feasible"]
    assert ref["discrepancy"]


def test_grid_point_count_and_limit():
    for g, x, y in [((2, 2), (8, 8), (1, 1)), ((8, 12), (5, 9), (0, 2)),
                    ((8, 40), (5, 12), (0, 5))]:
        brute = sum(1 for gv in range(g[0], g[1] + 1)
                    for _ in range(gv + 1)
                    for _ in range(x[0], x[1] + 1)
                    for _ in range(y[0], y[1] + 1))
        assert _grid_points(g, x, y) == brute
    # the criterion-6 grid stays well inside the limit
    assert _grid_points((8, 40), (5, 12), (0, 5)) == 39_600
    assert MAX_GRID_POINTS >= 5 * 39_600
    with pytest.raises(InputError, match="limit"):
        run_search((2, 400), (5, 12), (0, 5))


def test_run_search_range_validation():
    with pytest.raises(InputError, match="start at 2"):
        run_search((1, 5), (8, 8), (1, 1))
    with pytest.raises(InputError, match="empty"):
        run_search((10, 8), (8, 8), (1, 1))


def test_rows_sorted_and_gated():
    out = run_search((8, 12), (5, 12), (0, 5))
    keys = [(r["g"], r["e"], r["x"], r["y"]) for r in out["rows"]]
    assert keys == sorted(keys)
    for r in out["rows"]:
        q = r["inequalities"]
        assert q["big"] and q["effective"] and q["fixed_part"]
        assert r["feasible"] == (q["dim_positive"] and q["big"]
                                 and q["effective"] and q["fixed_part"])
    assert out["feasible_count"] == sum(r["feasible"] for r in out["rows"])
    assert "interval_x8_y1" in out


def test_interval_block_only_when_cell_covered():
    out = run_search((8, 9), (5, 7), (0, 5))
    assert "interval_x8_y1" not in out
    out2 = run_search((8, 9), (5, 8), (0, 1))
    assert "interval_x8_y1" in out2
