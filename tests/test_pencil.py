"""Adjoint system analysis: dimension counts, bigness, fiber extraction."""

import json
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from logpair import (InputError, NoPencilError, SurfaceModel,
                     analyze_adjoint_system, pencil)
from logpair.examples import degenerate_plane_config, sextic_config
from logpair.jsonio import dumps


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
        square = m.intersect(x, x)
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
        assert pencil._counts(m, c)[0] == m.intersect(c, c)
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
        assert pencil._counts(m, c)[0] == m.intersect(c, c) / 2
        assert pencil._counts(m, c)[0] == margin
    f0 = SurfaceModel.hirzebruch(0, 0)
    assert pencil._counts(f0, f0.ruled_class(1, 0))[0] == 0


def test_counts_are_none_off_the_closed_forms():
    # a custom model carries no canonical class, so the counts and the
    # analysis both end in the same input error
    custom = SurfaceModel.custom([[0, 1], [1, -2]])
    fiber = custom.divisor([1, 0])
    with pytest.raises(InputError, match="no canonical class"):
        pencil._counts(custom, fiber)
    with pytest.raises(InputError, match="no canonical class"):
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
    doc = json.loads(dumps(res))
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


def _plane_fiber_counts(d, mults, fiber_d, fiber_mults):
    """(g, k) of a plane fiber F = d_F H - sum m_(F,i) E_i against
    D = dH - sum m_i E_i by the plane closed forms: the genus of a plane
    curve of degree d_F less the double points of its multiplicities,
    and Bezout less the shared points."""
    g = ((fiber_d - 1) * (fiber_d - 2)
         - sum(m * (m - 1) for m in fiber_mults)) // 2
    k = d * fiber_d - sum(map(operator.mul, mults, fiber_mults))
    return g, k


def _square_zero_plane_fiber(rng, n):
    """A primitive F = d_F H - sum m_(F,i) E_i with d_F^2 = sum m_(F,i)^2
    on n points: some multiplicities below d_F, the rest of the square
    filled with simple points, in a random order; drawn again until it
    fits on n points."""
    while True:
        d = rng.randint(1, 4)
        mults = []
        while rng.random() < 0.5 and d * d - sum(m * m for m in mults) > 1:
            mults.append(rng.randint(1, d - 1))
        left = d * d - sum(m * m for m in mults)
        if left < 0:
            continue
        mults += [1] * left + [0] * (n - len(mults) - left)
        if len(mults) == n and gcd(d, *mults) == 1:
            rng.shuffle(mults)
            return d, mults


# (config, D's degree and multiplicities, the fiber's): ex2's fiber is
# H - E8, and ex3's the lines H - E0 through the point of multiplicity
# 3a - 3
@pytest.mark.parametrize("config,d,mults,fiber_mults", [
    (sextic_config, 6, [2] * 8, [0] * 7 + [1]),
    *((lambda a=a: degenerate_plane_config(a), 3 * a,
       [3 * a - 3] + [2] * (4 * a - 4), [1] + [0] * (4 * a - 4))
      for a in (2, 3, 6, 40)),
], ids=["ex2", "ex3-a2", "ex3-a3", "ex3-a6", "ex3-a40"])
def test_pencil_counts_match_the_plane_closed_forms(config, d, mults,
                                                    fiber_mults):
    model, boundary, _, candidates = config()
    res = analyze_adjoint_system(model, boundary, candidates)
    assert res.fiber == model.plane_class(1, fiber_mults)
    assert (res.g, res.k) == _plane_fiber_counts(d, mults, 1, fiber_mults)


def test_plane_fiber_counts_match_the_closed_forms():
    m = SurfaceModel.plane_blowup(9)
    cubic = m.plane_class(3, [1] * 9)
    res = analyze_adjoint_system(m, m.zero(), [], adjoint=cubic)
    assert (res.fiber, res.g, res.k) == (cubic, 1, 0)
    rng = random.Random("plane-fibers")
    genera = set()
    for _ in range(300):
        n = rng.randint(9, 12)
        fiber_d, fiber_mults = _square_zero_plane_fiber(rng, n)
        d = rng.randint(1, 9)
        mults = [rng.randint(0, 3) for _ in range(n)]
        m = SurfaceModel.plane_blowup(n)
        fiber = m.plane_class(fiber_d, fiber_mults)
        res = analyze_adjoint_system(m, m.plane_class(d, mults), [],
                                     adjoint=rng.randint(1, 3) * fiber)
        assert res.fiber == fiber
        assert (res.g, res.k) == _plane_fiber_counts(d, mults, fiber_d,
                                                     fiber_mults)
        genera.add(res.g)
    # arithmetic genera, so a reducible square-zero class gives -1
    assert {-1, 0, 1} <= genera
