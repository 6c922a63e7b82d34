"""Peeling: bark coefficients, squares, sharp boundary, minimalization."""

from fractions import Fraction

import pytest

from logpair import (DualGraph, Edge, SurfaceModel, Vertex,
                     almost_minimalize, bark, sharp_boundary_class,
                     sharp_orthogonality_check)


def star(center_self, arms, center_genus=0):
    vs = [Vertex("X", center_genus, center_self)]
    es = []
    for ai, arm in enumerate(arms):
        prev = "X"
        for vi, s in enumerate(arm):
            vid = f"A{ai}.{vi}"
            vs.append(Vertex(vid, 0, s))
            es.append(Edge(prev, vid))
            prev = vid
    return DualGraph(vs, es)


def test_single_minus_d_twig_closed_form():
    # one vertex of square -d hanging off a branch vertex: the defining
    # equation is -d * a = -2 + 1, so a = 1/d and the sharp weight is 1 - 1/d
    for d in range(2, 10):
        g = star(-2, [[-d], [-2], [-2]], center_genus=1)
        bk = bark(g)
        assert bk.coefficients["A0.0"] == Fraction(1, d)
        assert bk.sharp_coeffs["A0.0"] == 1 - Fraction(1, d)


def test_minus_two_chain_closed_form():
    # tridiagonal solve gives a_i = (r+1-i)/(r+1) from the free end inward
    for r in range(1, 9):
        g = star(-2, [[-2] * r, [-2], [-2]], center_genus=1)
        bk = bark(g)
        free_end = f"A0.{r - 1}"
        hub_side = "A0.0"
        assert bk.coefficients[free_end] == Fraction(r, r + 1)
        assert bk.coefficients[hub_side] == Fraction(1, r + 1)


def test_four_vertex_star():
    bk = bark(star(-2, [[-2], [-2], [-2]]))
    assert sorted(bk.coefficients.values()) == [1, 1, 1, 1]
    assert bk.bark_square == -2
    assert bk.gram_square == -2
    assert bk.tips_count == 3
    assert bk.bound_ok


def test_isolated_rod_two_squares():
    # an isolated (-3) vertex: a = 2/3 from -3a = -2; the quadratic form
    # gives -4/3 while the tip-weighted count treats it as one tip of
    # weight -1, giving -2/3 >= -1
    g = DualGraph([Vertex("R", 0, -3)])
    bk = bark(g)
    assert bk.coefficients["R"] == Fraction(2, 3)
    assert bk.gram_square == Fraction(-4, 3)
    assert bk.bark_square == Fraction(-2, 3)
    assert bk.tips_count == 1
    assert bk.bound_ok


def test_two_vertex_rod():
    # rod (-2)-(-3): system [[-2,1],[1,-3]] a = (-1,-1); det 5,
    # a = (4/5, 3/5); both ends are tips so Bk^2 = -a_0 - a_1 = -7/5
    g = DualGraph([Vertex("P", 0, -2), Vertex("Q", 0, -3)],
                  [Edge("P", "Q")])
    bk = bark(g)
    assert bk.coefficients["P"] == Fraction(4, 5)
    assert bk.coefficients["Q"] == Fraction(3, 5)
    assert bk.bark_square == Fraction(-7, 5)
    assert bk.gram_square == Fraction(-7, 5)
    assert bk.tips_count == 2
    assert bk.bound_ok


def test_minus_one_vertex_contributes_nothing():
    g = DualGraph([Vertex("R", 0, -1)])
    bk = bark(g)
    assert bk.coefficients == {}
    assert bk.bark_square == 0
    assert bk.sharp_coeffs["R"] == 1


def test_fork_with_large_coefficient_demoted():
    # (-2) hub with three (-2) arms of length 2 is a semidefinite star:
    # the Gram matrix is singular, so the fork is rejected and its arms
    # are evaluated as twigs instead
    g = star(-2, [[-2, -2], [-2, -2], [-2, -2]])
    bk = bark(g)
    kinds = {s.kind for s in bk.report.admissible_segments}
    assert kinds == {"twig"}
    assert len(bk.report.admissible_segments) == 3
    assert all(0 < a <= 1 for a in bk.coefficients.values())
    assert bk.bound_ok


@pytest.mark.xfail(
    strict=True,
    reason="the README says an inadmissible fork falls through to its "
           "twigs; a negative definite star demoted by its coefficient "
           "range offers none, so its (-3) arms, which peel as 1/3 each "
           "under a genus-1 hub, are not peeled at all")
def test_fork_demoted_by_coefficients_falls_through_to_twigs():
    bk = bark(star(-2, [[-3], [-3], [-3]]))
    assert bk.coefficients == {f"A{i}.0": Fraction(1, 3) for i in range(3)}


def test_sharp_boundary_orthogonality():
    m = SurfaceModel.plane_blowup(3)
    # boundary: a conic through all three points (its own component)
    # plus a rod of two root classes E1-E2, E2-E3
    c = m.plane_class(2, [1, 1, 1])
    d1 = m.exceptional(1) - m.exceptional(2)
    d2 = m.exceptional(2) - m.exceptional(3)
    g = DualGraph(
        [Vertex("C", 0, 1), Vertex("D1", 0, -2), Vertex("D2", 0, -2)],
        [Edge("D1", "D2")],
        model=m,
        class_map={"C": c, "D1": d1, "D2": d2},
    )
    bk = bark(g)
    # a rod of two (-2)s peels off entirely
    assert bk.coefficients == {"D1": Fraction(1), "D2": Fraction(1)}
    assert sharp_orthogonality_check(g, bk)
    sharp = sharp_boundary_class(g, bk)
    assert sharp == c
    adjoint = m.canonical_class() + sharp
    assert m.intersect(adjoint, d1) == 0
    assert m.intersect(adjoint, d2) == 0


def test_almost_minimalize_contracts():
    m = SurfaceModel.plane_blowup(1)
    # boundary: the exceptional curve alone; K+D# meets E1 in -3/.. < 0?
    # K+D = (-3,1)+(0,1) has E1-pairing (-3H+E1+E1)... compute directly:
    e1 = m.exceptional(1)
    g = DualGraph([Vertex("E", 0, -1)], model=m, class_map={"E": e1})
    res = almost_minimalize(m, {"E": e1}, g)
    assert res.contractions
    assert res.contractions[0]["contracted"] == "E1"
    assert res.model.num_points == 0
    assert "E" in res.contractions[0]["absorbed_components"]
    assert res.note.startswith("nonnegativity")


def test_almost_minimalize_stable_case():
    m = SurfaceModel.plane_blowup(8)
    d = m.plane_class(6, [2] * 8)
    g = DualGraph([Vertex("D", 2, 4)], model=m, class_map={"D": d})
    res = almost_minimalize(m, {"D": d}, g)
    assert not res.contractions
    assert res.nef_on_test_set
    assert res.tested_classes == 9
    assert res.class_map["D"] == d


def test_almost_minimalize_warns_on_nonbasis_candidate():
    m = SurfaceModel.plane_blowup(2)
    d = m.plane_class(3, [1, 1])
    g = DualGraph([Vertex("D", 1, 7)], model=m, class_map={"D": d})
    res = almost_minimalize(m, {"D": d}, g,
                            extra_candidates=[m.plane_class(1, [1, 1])])
    assert res.warnings and "not a basis exceptional" in res.warnings[0]
