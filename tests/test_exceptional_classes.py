"""Numerical (-1)-classes on the plane blown up at n <= 8 points.

A class dH - sum(m_i E_i) with d^2 - sum(m_i^2) = -1 and
3d - sum(m_i) = 1 has square -1 and K-degree -1.  For n <= 8 these
classes are finitely many: the E_i, and the classes of degree d >= 1
with every m_i >= 0.  Their counts for n = 1..8 are 1, 3, 6, 10, 16,
27, 56 and 240 (Manin, Cubic Forms, ch. IV).

A class is kept here as the tuple (d, m_1, ..., m_n).  The enumerator
is checked against a second route that shares no code with it: the
orbit of E_1 under permutations of the points and the quadratic
Cremona map at the first three points.
"""

from math import isqrt

import pytest

from logpair import SurfaceModel

COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def _mults(n: int, total: int, squares: int):
    """Every n-tuple of integers >= 0 with the given sum and sum of
    squares."""
    # m <= m^2, and total^2 <= n * squares by Cauchy-Schwarz
    if total > squares or total * total > n * squares:
        return
    if n == 0:
        if squares == 0:
            yield ()
        return
    for m in range(isqrt(squares) + 1):
        for rest in _mults(n - 1, total - m, squares - m * m):
            yield (m, *rest)


def exceptional_classes(n: int) -> set:
    """The numerical (-1)-classes on the plane blown up at n <= 8
    points."""
    out = {(0, *(-(j == i) for j in range(n))) for i in range(n)}
    # (3d - 1)^2 <= n (d^2 + 1) bounds d, since 9 - n > 0
    top = (3 + isqrt(n * (10 - n))) // (9 - n)
    for d in range(1, top + 1):
        out.update((d, *m) for m in _mults(n, 3 * d - 1, d * d + 1))
    return out


def cremona(c: tuple) -> tuple:
    """The quadratic Cremona map at the first three points."""
    d, m1, m2, m3, *rest = c
    return (2 * d - m1 - m2 - m3, d - m2 - m3, d - m1 - m3, d - m1 - m2,
            *rest)


def test_counts():
    assert {n: len(exceptional_classes(n)) for n in COUNTS} == COUNTS


@pytest.mark.parametrize("n", range(3, 9))
def test_cremona_maps_the_set_to_itself(n):
    classes = exceptional_classes(n)
    assert {cremona(c) for c in classes} == classes


@pytest.mark.parametrize("n", range(3, 9))
def test_orbit_of_e1_is_the_set(n):
    # swapping neighbouring points generates every permutation; the
    # orbit is the classes reached from E_1 by swaps and the Cremona map
    e1 = (0, -1) + (0,) * (n - 1)
    orbit, todo = {e1}, [e1]
    while todo:
        c = todo.pop()
        for image in [cremona(c), *(c[:i] + (c[i + 1], c[i]) + c[i + 2:]
                                    for i in range(1, n))]:
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    assert orbit == exceptional_classes(n)


@pytest.mark.parametrize("n", COUNTS)
def test_the_lattice_pairs_each_class_to_minus_one(n):
    model = SurfaceModel.plane_blowup(n)
    k = model.canonical_class()
    for d, *mults in exceptional_classes(n):
        c = model.plane_class(d, mults)
        assert model.pairings(c, [c, k]) == [-1, -1]
