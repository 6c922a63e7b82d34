"""Adjoint system analysis: dimension bounds, bigness, fiber extraction."""

from fractions import Fraction

import pytest

from logpair import (NoPencilError, SurfaceModel, analyze_adjoint_system,
                     big_margin_hirzebruch, big_margin_p2,
                     dim_lower_bound_hirzebruch, dim_lower_bound_p2)
from logpair.jsonio import to_jsonable


def test_plane_dimension_bound():
    # plane curves of degree d: d(d+3)/2 minus mult conditions
    assert dim_lower_bound_p2(3, []) == 9
    assert dim_lower_bound_p2(3, [1] * 8) == 1
    assert dim_lower_bound_p2(6, [2] * 8) == 27 - 24
    assert dim_lower_bound_p2(1, [1, 1]) == 0
    # double point costs 3 conditions
    assert dim_lower_bound_p2(2, [2]) == 5 - 3


def test_plane_big_margin_is_class_square():
    m = SurfaceModel.plane_blowup(8)
    for d, mults in [(3, [1] * 8), (6, [2] * 8), (4, [1, 2, 1])]:
        c = m.plane_class(d, mults + [0] * (8 - len(mults)))
        assert big_margin_p2(d, mults) == m.self_intersection(c)
    assert big_margin_p2(3, [1] * 8) > 0      # margin 1
    assert not big_margin_p2(3, [1] * 9) > 0  # margin 0


def test_hirzebruch_dimension_bound():
    # sections of a*Dinf + b*Gamma on the degree-e surface:
    # (a+1)(b + ae/2) + a when b >= 0
    assert dim_lower_bound_hirzebruch(1, 0, 2, []) == 2 + 1
    assert dim_lower_bound_hirzebruch(2, 1, 2, []) == 3 * 3 + 2
    assert dim_lower_bound_hirzebruch(2, 1, 2, [1, 1]) == 11 - 2
    assert dim_lower_bound_hirzebruch(2, 1, 2, [2]) == 11 - 3


def test_hirzebruch_big_margin_is_half_square():
    m = SurfaceModel.hirzebruch(3, 4)
    for a, b, mults in [(2, 1, [1] * 4), (3, 0, [2, 1]), (1, 2, [])]:
        c = m.ruled_class(a, b, mults + [0] * (4 - len(mults)))
        assert (big_margin_hirzebruch(a, b, 3, mults)
                == m.self_intersection(c) / 2)
    assert big_margin_hirzebruch(2, 1, 3, [1] * 4) > 0
    assert not big_margin_hirzebruch(1, 0, 0, []) > 0


def test_negative_multiplicity_rejected():
    from logpair import InputError
    with pytest.raises(InputError):
        dim_lower_bound_p2(3, [-1])
    with pytest.raises(InputError):
        big_margin_hirzebruch(1, 1, 2, [-2])


def test_analyze_sextic_adjoint():
    m = SurfaceModel.plane_blowup(8)
    boundary = m.plane_class(6, [2] * 8)
    conic = m.plane_class(2, [1] * 7 + [0])
    res = analyze_adjoint_system(m, boundary, [conic])
    assert res.adjoint == m.plane_class(3, [1] * 8)
    assert res.big is True
    assert res.big_margin == 1
    assert len(res.fixed_parts) == 1
    assert res.fixed_parts[0].cls == conic
    assert res.fixed_parts[0].pairing == -1
    assert res.residual == m.plane_class(1, [0] * 7 + [1])
    assert res.multiple == 1
    assert res.fiber == res.residual
    assert (res.g, res.k, res.b) == (0, 4, 0)
    doc = to_jsonable(res)
    assert {k: doc[k] for k in ("g", "k", "b")} == {"g": 0, "k": 4, "b": 0}


def test_analyze_collects_multiple_content():
    # adjoint = 4(H - E1) after removing nothing: multiple is the content
    m = SurfaceModel.plane_blowup(1)
    boundary = m.plane_class(7, [5])
    res = analyze_adjoint_system(m, boundary, [])
    assert res.adjoint == m.plane_class(4, [4])
    assert res.multiple == 4
    assert res.fiber == m.plane_class(1, [1])
    assert res.g == 0
    # k = D.F with F the fiber, not its multiple
    assert res.k == m.intersect(boundary, res.fiber)


def test_analyze_rejects_non_pencil():
    m = SurfaceModel.plane_blowup(1)
    # adjoint has positive square: no pencil structure
    with pytest.raises(NoPencilError):
        analyze_adjoint_system(m, m.plane_class(7, [2]), [])
    # adjoint is zero
    with pytest.raises(NoPencilError):
        analyze_adjoint_system(m, m.plane_class(3, [1]), [])


def test_analyze_explicit_adjoint_override():
    m = SurfaceModel.plane_blowup(1)
    boundary = m.plane_class(6, [2])
    # hand the analyzer a fiber class directly
    override = m.plane_class(2, [2])
    res = analyze_adjoint_system(m, boundary, [], adjoint=override)
    assert res.multiple == 2
    assert res.fiber == m.plane_class(1, [1])
    assert res.g == 0
    assert res.k == m.intersect(boundary, res.fiber)


def test_degenerate_family_sweep():
    # one irreducible degree-3a boundary member on 4a-3 points; the
    # fixed part drops out in one step and the fiber is the pencil of
    # lines through the distinguished point
    for a in range(2, 7):
        n = 4 * a - 3
        m = SurfaceModel.plane_blowup(n)
        boundary = m.plane_class(3 * a, [3 * a - 3] + [2] * (n - 1))
        cand = m.plane_class(a - 1, [a - 2] + [1] * (n - 1))
        res = analyze_adjoint_system(m, boundary, [cand])
        assert res.fixed_parts[0].pairing == -1
        assert res.residual == m.plane_class(2 * a - 2, [2 * a - 2])
        assert res.multiple == 2 * a - 2
        assert res.fiber == m.plane_class(1, [1])
        assert (res.g, res.k) == (0, 3)
