"""Adjoint system analysis: dimension counts, bigness, fiber extraction."""

import random
from fractions import Fraction

import pytest

from logpair import (InputError, NoPencilError, SurfaceModel,
                     analyze_adjoint_system, pencil)
from logpair.jsonio import to_jsonable


def _parameter_counts(kind, e, degs, mults):
    """(margin, count) by the classical parameter counts, or (None, None)
    for a negative multiplicity, which they do not cover."""
    if any(v < 0 for v in mults):
        return None, None
    if kind == "p2":
        (d,) = degs
        return (d * d - sum(v * v for v in mults),
                Fraction(d * (d + 3) - sum(v * (v + 1) for v in mults), 2))
    a, b = degs
    fiber_degree = b + Fraction(a * e, 2)
    return (a * fiber_degree - Fraction(sum(v * v for v in mults), 2),
            (a + 1) * fiber_degree + a
            - Fraction(sum(v * (v + 1) for v in mults), 2))


def _draw(rng):
    """A random integral class with nonnegative multiplicities on a
    plane or ruled blow-up, with the data the formulas read."""
    n = rng.randint(1, 8)
    mults = [rng.randint(0, 4) for _ in range(n)]
    if rng.random() < 0.5:
        m = SurfaceModel.plane_blowup(n)
        degs = (rng.randint(0, 9),)
        return m, "p2", 0, degs, mults, m.plane_class(degs[0], mults)
    e = rng.randint(0, 4)
    m = SurfaceModel.hirzebruch(e, n)
    degs = (rng.randint(0, 5), rng.randint(-e, 6))
    return m, "ruled", e, degs, mults, m.ruled_class(*degs, mults)


def test_counts_match_the_parameter_counts():
    rng = random.Random(9011)
    reported = []
    for _ in range(1500):
        m, kind, e, degs, mults, x = _draw(rng)
        expected = _parameter_counts(kind, e, degs, mults)
        assert pencil._counts(m, x) == expected
        # a negative-square class is a fixed part of x + t*F for a
        # square-zero F it does not meet negatively and a suitable t;
        # the analysis then reports both counts
        square = m.self_intersection(x)
        if square >= 0:
            continue
        if kind == "p2":
            fiber, meet = m.plane_class(1, [1]), degs[0] - mults[0]
        else:
            fiber, meet = m.ruled_class(0, 1), degs[0]
        room = max(1, (-square - 1) // abs(meet)) if meet else 5
        t = rng.randint(1, room) * (-1 if meet < 0 else 1)
        if square + t * meet >= 0:
            continue
        adjoint = x + t * fiber
        res = analyze_adjoint_system(m, m.zero(), [x], adjoint=adjoint)
        assert [f.cls for f in res.fixed_parts] == [x]
        assert res.fixed_parts[0].dim_bound == expected[1]
        if kind == "p2":
            adj_degs = (degs[0] + t,)
            adj_mults = [mults[0] + t] + mults[1:]
        else:
            adj_degs, adj_mults = (degs[0], degs[1] + t), mults
        margin, _ = _parameter_counts(kind, e, adj_degs, adj_mults)
        assert res.big_margin == margin
        assert res.big == (None if margin is None else margin > 0)
        reported.append(res.big)
    # about half the draws reach the analysis, with every outcome of big
    assert len(reported) > 600
    assert set(reported) == {None, False, True}


def test_plane_dimension_bound():
    # plane curves of degree d: d(d+3)/2 minus mult conditions
    m = SurfaceModel.plane_blowup(2)
    for d, mults, count in [(3, [], 9), (6, [2, 2], 27 - 6),
                            (1, [1, 1], 0),
                            (2, [2], 5 - 3)]:  # a double point costs 3
        assert pencil._counts(m, m.plane_class(d, mults))[1] == count
    m8 = SurfaceModel.plane_blowup(8)
    assert pencil._counts(m8, m8.plane_class(3, [1] * 8))[1] == 1
    assert pencil._counts(m8, m8.plane_class(6, [2] * 8))[1] == 27 - 24


def test_plane_big_margin_is_class_square():
    m = SurfaceModel.plane_blowup(8)
    for d, mults in [(3, [1] * 8), (6, [2] * 8), (4, [1, 2, 1])]:
        c = m.plane_class(d, mults + [0] * (8 - len(mults)))
        assert pencil._counts(m, c)[0] == m.self_intersection(c)
    assert pencil._counts(m, m.plane_class(3, [1] * 8))[0] == 1
    m9 = SurfaceModel.plane_blowup(9)
    assert pencil._counts(m9, m9.plane_class(3, [1] * 9))[0] == 0


def test_hirzebruch_dimension_bound():
    # sections of a*Dinf + b*Gamma on the degree-e surface:
    # (a+1)(b + ae/2) + a when b >= 0
    m = SurfaceModel.hirzebruch(2, 2)
    for a, b, mults, count in [(1, 0, [], 2 + 1), (2, 1, [], 3 * 3 + 2),
                               (2, 1, [1, 1], 11 - 2), (2, 1, [2], 11 - 3)]:
        assert pencil._counts(m, m.ruled_class(a, b, mults))[1] == count


def test_hirzebruch_big_margin_is_half_square():
    m = SurfaceModel.hirzebruch(3, 4)
    for a, b, mults, margin in [(2, 1, [1] * 4, 6), (3, 0, [2, 1], 11),
                                (1, 2, [], Fraction(7, 2))]:
        c = m.ruled_class(a, b, mults + [0] * (4 - len(mults)))
        assert pencil._counts(m, c)[0] == m.self_intersection(c) / 2
        assert pencil._counts(m, c)[0] == margin
    f0 = SurfaceModel.hirzebruch(0, 0)
    assert pencil._counts(f0, f0.ruled_class(1, 0))[0] == 0


def test_counts_are_none_off_the_closed_forms():
    # a custom model has no counts; the analysis itself stops at the
    # fiber genus, since the model carries no canonical class
    custom = SurfaceModel.custom([[0, 1], [1, -2]])
    fiber = custom.divisor([1, 0])
    assert pencil._counts(custom, fiber) == (None, None)
    with pytest.raises(InputError):
        analyze_adjoint_system(custom, custom.zero(), [], adjoint=fiber)
    m = SurfaceModel.plane_blowup(2)
    line = m.plane_class(1, [0, 1])
    for fixed in [
            Fraction(1, 2) * m.plane_class(1, [1, 1]),  # non-integral
            m.exceptional(1)]:                           # E1: mult -1
        res = analyze_adjoint_system(m, m.zero(), [fixed],
                                     adjoint=line + fixed)
        assert [f.cls for f in res.fixed_parts] == [fixed]
        assert res.fiber == line
        assert res.big is None
        assert res.big_margin is None
        assert res.fixed_parts[0].dim_bound is None


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
