"""Lattice layer: models, classes, pairings, adjunction, transforms."""

import random
from fractions import Fraction
from math import gcd

import pytest

from logpair import (DivisorClass, InputError, ModelKind, SurfaceModel,
                     blow_up_transform)
from logpair.jsonio import describe_model


def gram_matrix(m):
    basis = [m.basis_class(i) for i in range(m.basis_size)]
    return [[m.intersect(u, v) for v in basis] for u in basis]


def test_plane_gram_and_canonical():
    m = SurfaceModel.plane_blowup(2)
    assert gram_matrix(m) == [
        [1, 0, 0],
        [0, -1, 0],
        [0, 0, -1],
    ]
    k = m.canonical_class()
    assert k == m.divisor([-3, 1, 1])
    assert m.intersect(k, k) == 9 - 2


def test_hirzebruch_gram_and_canonical():
    m = SurfaceModel.hirzebruch(2, 1)
    assert gram_matrix(m) == [
        [2, 1, 0],
        [1, 0, 0],
        [0, 0, -1],
    ]
    k = m.canonical_class()
    assert k == m.divisor([-2, 0, 1])
    # the leading block is stored without zero entries, e = 0 included
    for e in range(4):
        head = SurfaceModel.hirzebruch(e, 1).gram_ints
        assert all(all(entries) for _, entries in head)
    # K^2 = 8 on the unblown surface, drops by one per point
    assert m.intersect(k, k) == 7


def test_class_arithmetic_and_immutability():
    a = DivisorClass([1, 2])
    b = DivisorClass([3, -1])
    assert a + b == DivisorClass([4, 1])
    assert a - b == DivisorClass([-2, 3])
    assert -1 * a == DivisorClass([-1, -2])
    assert 2 * a == DivisorClass([2, 4])
    assert a * Fraction(1, 2) == DivisorClass([Fraction(1, 2), 1])
    assert a == DivisorClass([1, 2])
    assert hash(a) == hash(DivisorClass([1, 2]))
    with pytest.raises(AttributeError):
        a.nums = (0, 0)
    with pytest.raises(AttributeError):
        a.den = 2
    assert (a.nums, a.den) == ((1, 2), 1)


def test_floats_rejected_everywhere():
    with pytest.raises(InputError):
        DivisorClass([1.0, 2])
    with pytest.raises(InputError):
        DivisorClass([1, 2]) * 0.5
    with pytest.raises(InputError):
        SurfaceModel.custom([[1.0]])
    half = DivisorClass([1, Fraction(1, 2)])
    plane, ruled = SurfaceModel.plane_blowup(2), SurfaceModel.hirzebruch(1, 1)
    for bad in (lambda: DivisorClass([Fraction(1, 2), 2.0]),
                lambda: DivisorClass(["1.5"]),
                lambda: DivisorClass(["1/2\n"]),
                lambda: DivisorClass([True]),
                lambda: DivisorClass([1, False]),
                lambda: half * True,
                lambda: SurfaceModel.custom([["-1.5"]]),
                lambda: half * 0.5,
                lambda: 0.5 * half,
                lambda: plane.plane_class(1.0, []),
                lambda: plane.plane_class(2, [0.5]),
                lambda: ruled.ruled_class(1, 0.5),
                lambda: ruled.ruled_class(1, 0, [1.0])):
        with pytest.raises(InputError):
            bad()


def test_adjunction_genus_classics():
    m = SurfaceModel.plane_blowup(8)
    # line, conic, cubic: genus 0, 0, 1
    assert m.arithmetic_genus(m.plane_class(1, [])) == 0
    assert m.arithmetic_genus(m.plane_class(2, [])) == 0
    assert m.arithmetic_genus(m.plane_class(3, [])) == 1
    # quintic: (5-1)(5-2)/2 = 6
    assert m.arithmetic_genus(m.plane_class(5, [])) == 6
    # degree-6 curve with eight double points: 10 - 8 = 2
    sextic = m.plane_class(6, [2] * 8)
    assert m.arithmetic_genus(sextic) == 2
    assert m.intersect(sextic, sextic) == 36 - 4 * 8


def test_adjunction_on_ruled_model():
    m = SurfaceModel.hirzebruch(3, 0)
    # fiber and the negative section are both rational
    fiber = m.ruled_class(0, 1)
    assert m.intersect(fiber, fiber) == 0
    assert m.arithmetic_genus(fiber) == 0
    section = m.ruled_class(1, -3)
    assert m.intersect(section, section) == -3
    assert m.arithmetic_genus(section) == 0


def test_hodge_data():
    m = SurfaceModel.plane_blowup(8)
    h = m.hodge
    assert (h.q, h.p_g, h.h11, h.euler_e) == (0, 0, 9, 11)
    m2 = SurfaceModel.hirzebruch(2, 3)
    h2 = m2.hodge
    assert (h2.q, h2.p_g, h2.h11, h2.euler_e) == (0, 0, 5, 7)
    # the closed forms per kind: h11 = n + 1 and e(S) = n + 3 on the
    # plane blown up at n points, n + 2 and n + 4 on a Hirzebruch surface
    for n in range(13):
        h = SurfaceModel.plane_blowup(n).hodge
        assert h == (0, 0, n + 1, n + 3)
        for e in range(6):
            h = SurfaceModel.hirzebruch(e, n).hodge
            assert h == (0, 0, n + 2, n + 4)


def test_integral_classes_have_even_adjunction_pairing():
    # the proof behind the pencil's integer fiber genus: K is
    # characteristic, c.(c + K) = c^2 + K.c is even for every integral c,
    # so p_a(c) = c.(c + K)/2 + 1 is an integer on both kinds of model
    rng = random.Random(18)
    for i in range(1_200):
        n = rng.randint(0, 12)
        if i % 2:
            m = SurfaceModel.plane_blowup(n)
        else:
            m = SurfaceModel.hirzebruch(rng.randint(0, 9), n)
        c = m.divisor([rng.randint(-40, 40) for _ in range(m.basis_size)])
        pairing = m.intersect(c, c + m.canonical_class())
        assert pairing.denominator == 1 and pairing.numerator % 2 == 0
        assert m.arithmetic_genus(c).denominator == 1


def test_exceptional_and_builders():
    m = SurfaceModel.plane_blowup(3)
    assert m.exceptional(1) == m.divisor([0, 1, 0, 0])
    assert m.exceptional(3) == m.divisor([0, 0, 0, 1])
    with pytest.raises(InputError):
        m.exceptional(4)
    assert m.plane_class(2, [1, 1]) == m.divisor([2, -1, -1, 0])
    with pytest.raises(InputError):
        m.plane_class(2, [1, 1, 1, 1])
    mh = SurfaceModel.hirzebruch(1, 2)
    assert mh.exceptional(1) == mh.divisor([0, 0, 1, 0])
    assert mh.exceptional(2) == mh.divisor([0, 0, 0, 1])
    with pytest.raises(InputError):
        mh.exceptional(3)
    assert mh.ruled_class(2, 3, [1]) == mh.divisor([2, 3, -1, 0])
    with pytest.raises(InputError):
        mh.plane_class(1, [])


def test_blow_up_transform_extends_basis():
    m = SurfaceModel.plane_blowup(1)
    line = m.plane_class(1, [1])
    m2, (moved,) = blow_up_transform(m, [line], [1])
    assert m2.num_points == 2
    assert moved == m2.divisor([1, -1, -1])
    # the enlarged canonical class equals pullback + new exceptional
    assert m2.canonical_class() == m2.divisor([-3, 1, 1])
    # the enlarged model is the one the constructors build, hash included
    for n in range(4):
        bigger, _ = blow_up_transform(SurfaceModel.plane_blowup(n), [], [])
        assert bigger == SurfaceModel.plane_blowup(n + 1)
        assert hash(bigger) == hash(SurfaceModel.plane_blowup(n + 1))
        for e in range(4):
            bigger, _ = blow_up_transform(SurfaceModel.hirzebruch(e, n),
                                          [], [])
            assert bigger == SurfaceModel.hirzebruch(e, n + 1)
            assert hash(bigger) == hash(SurfaceModel.hirzebruch(e, n + 1))


def test_blow_up_preserves_log_genus():
    # pullback minus the new exceptional keeps p_a by direct adjunction
    m = SurfaceModel.plane_blowup(0)
    cubic = m.plane_class(3, [])
    for mult in (1, 2):
        m2, (moved,) = blow_up_transform(m, [cubic], [mult])
        adjusted = moved + (mult - 1) * m2.exceptional(1)
        assert m2.arithmetic_genus(adjusted) == m.arithmetic_genus(cubic)


def test_custom_model_limits():
    m = SurfaceModel.custom([[0, 1], [1, -2]])
    a = m.divisor([1, 1])
    assert m.intersect(a, a) == 0 + 2 - 2
    with pytest.raises(InputError):
        m.canonical_class()
    with pytest.raises(InputError):
        _ = m.hodge
    with pytest.raises(InputError):
        blow_up_transform(m, [a], [1])
    with pytest.raises(InputError):
        SurfaceModel.custom([[0, 1], [2, 0]])


def test_format_and_describe():
    m = SurfaceModel.plane_blowup(2)
    assert describe_model(m) == {"kind": "p2_blowup", "points": 2}
    assert describe_model(SurfaceModel.hirzebruch(3, 1)) == {
        "kind": "hirzebruch", "e": 3, "points": 1}


# -- differential checks of the integer-numerator core ----------------------

_DENOMINATORS = (1, 1, 1, 2, 3, 4, 6, 7, 12)


def _random_coeffs(rng, n):
    """Mixed ints and Fractions with mixed denominators."""
    out = []
    for _ in range(n):
        num = rng.randint(-9, 9)
        den = rng.choice(_DENOMINATORS)
        out.append(num if den == 1 else Fraction(num, den))
    return out


def _gram_entries(model, gram) -> list:
    """Nonzero (i, j, value) entries of the closed-form Gram matrix,
    written out independently of the model's own pairing code; a custom
    model's come from the matrix `gram` it was built from."""
    n = model.basis_size
    if model.kind is ModelKind.CUSTOM:
        return [(i, j, Fraction(v)) for i, row in enumerate(gram)
                for j, v in enumerate(row) if v != 0]
    if model.kind is ModelKind.P2_BLOWUP:
        lead = [(0, 0, Fraction(1))]
        first = 1
    else:
        lead = [(0, 0, Fraction(model.degree_e)), (0, 1, Fraction(1)),
                (1, 0, Fraction(1))]
        first = 2
    return lead + [(i, i, Fraction(-1)) for i in range(first, n)]


def _oracle_intersect(entries, xs, ys) -> Fraction:
    return sum((Fraction(xs[i]) * g * Fraction(ys[j]) for i, j, g in entries),
               Fraction(0))


def _random_custom(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
            rows[i][j] = rows[j][i] = v
    return rows


def _models(rng):
    """(model, the Gram matrix a custom model was built from, or None)"""
    for n in range(21):
        yield SurfaceModel.plane_blowup(n), None
    for g in (0, 1, 5, 17, 40):  # up to 2 + 4*40 + 4 = 166 coordinates
        for e in (0, rng.randint(0, g), g):
            yield SurfaceModel.hirzebruch(e, 4 * g + 4), None
    for n in (1, 3, 6):
        gram = _random_custom(rng, n)
        yield SurfaceModel.custom(gram), gram


def _assert_canonical(c):
    assert c.den > 0
    assert gcd(c.den, *c.nums) == 1


def test_intersect_matches_fraction_oracle():
    rng = random.Random(20230219)
    for model, gram in _models(rng):
        n = model.basis_size
        entries = _gram_entries(model, gram)
        for _ in range(4):
            xs, ys = _random_coeffs(rng, n), _random_coeffs(rng, n)
            a, b = model.divisor(xs), model.divisor(ys)
            got = model.intersect(a, b)
            assert isinstance(got, Fraction)
            assert got == _oracle_intersect(entries, xs, ys)
            assert got == model.intersect(b, a)


def _double_loop_intersect(gram, xs, ys) -> Fraction:
    """The pairing as the plain double loop of Fraction products."""
    total = Fraction(0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            total += Fraction(x) * Fraction(gram[i][j]) * Fraction(y)
    return total


def _random_gram(rng, n, zero_share, spelled):
    """A symmetric n x n Gram with about zero_share of its entries 0;
    entries are ints, or "p" / "p/q" strings when spelled."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < zero_share:
                continue
            num, den = rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 5, 12))
            v = Fraction(num, den)
            rows[i][j] = rows[j][i] = str(v) if spelled else num
    return rows


@pytest.mark.parametrize("zero_share", [0.0, 0.9], ids=["dense", "sparse"])
@pytest.mark.parametrize("spelled", [False, True], ids=["int", "pq"])
def test_custom_intersect_matches_double_loop(zero_share, spelled):
    rng = random.Random(f"{zero_share}-{spelled}")
    for n in (1, 2, 5, 12, 31):
        gram = _random_gram(rng, n, zero_share, spelled)
        model = SurfaceModel.custom(gram)
        # kept once, non-zero entries only, and rebuilt exactly
        assert all(all(entries) for _, entries in model.gram_ints)
        assert describe_model(model) == {
            "kind": "custom",
            "gram": [[Fraction(v) for v in row] for row in gram]}
        for _ in range(6):
            xs, ys = _random_coeffs(rng, n), _random_coeffs(rng, n)
            if rng.random() < 0.3:
                xs[rng.randrange(n)] = 0
            a, b = model.divisor(xs), model.divisor(ys)
            got = model.intersect(a, b)
            assert isinstance(got, Fraction)
            assert got == _double_loop_intersect(gram, xs, ys)
            assert got == model.intersect(b, a)
        zero = model.zero()
        assert model.intersect(zero, model.divisor(xs)) == 0


def _sparse_coeffs(rng, n, nonzero):
    xs = [0] * n
    for i in rng.sample(range(n), min(nonzero, n)):
        xs[i] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
    return xs


@pytest.mark.parametrize("kind", ["plane", "ruled", "custom"])
def test_pairings_match_the_double_loop(kind):
    # the covector route against the plain double loop over the Gram
    # matrix, for sparse and dense classes with their own denominators
    rng = random.Random(f"pairing-{kind}")
    kinds = set()
    for n in (1, 2, 3, 9, 20):
        if kind == "plane":
            model = SurfaceModel.plane_blowup(n - 1)
        elif kind == "ruled":
            model = SurfaceModel.hirzebruch(rng.randint(0, 5), max(n - 2, 0))
        else:
            model = SurfaceModel.custom(_random_gram(rng, n, 0.7, True))
        n = model.basis_size
        gram = gram_matrix(model)
        for _ in range(8):
            xs = _sparse_coeffs(rng, n, rng.choice((0, 1, 2, n)))
            ys = [_sparse_coeffs(rng, n, rng.choice((0, 1, 2, n)))
                  for _ in range(4)]
            # integral classes too, so that every denominator is 1
            if rng.random() < 0.4:
                xs = [Fraction(round(x)) for x in xs]
                ys = [[Fraction(round(y)) for y in yy] for yy in ys]
            # the first class spelled as "p" and "p/q" strings
            a = model.divisor([str(x) for x in xs])
            bs = [model.divisor(yy) for yy in ys]
            got = model.pairings(a, bs)
            assert len(got) == len(bs)
            for v, yy, b in zip(got, ys, bs):
                want = _double_loop_intersect(gram, xs, yy)
                assert v == want
                # an int exactly when the value is integral, whatever
                # the denominator it was computed over
                assert type(v) is (int if want.denominator == 1
                                   else Fraction)
                scaled = a.den * b.den * model.gram_den != 1
                kinds.add((type(v), scaled))
        assert model.pairings(a, []) == []
        with pytest.raises(InputError, match="dimension mismatch"):
            model.pairings(a, [a, DivisorClass([0] * (n + 1))])
        with pytest.raises(InputError, match="dimension mismatch"):
            model.pairings(DivisorClass([0] * (n + 1)), [a])
    assert kinds == {(int, False), (int, True), (Fraction, True)}


def _coords(c) -> list:
    """A class's coordinates as Fractions, read off its numerators."""
    return [Fraction(v, c.den) for v in c.nums]


def test_arithmetic_matches_fraction_coordinatewise():
    rng = random.Random(7)
    scalars = (0, 1, -1, 3, Fraction(1, 3), Fraction(-5, 4), Fraction(6, 2))
    for n in (1, 2, 9, 40, 166):
        for _ in range(10):
            xs, ys = _random_coeffs(rng, n), _random_coeffs(rng, n)
            a, b = DivisorClass(xs), DivisorClass(ys)
            assert _coords(a) == [Fraction(x) for x in xs]
            assert _coords(a + b) == [x + y for x, y in zip(xs, ys)]
            assert _coords(a - b) == [x - y for x, y in zip(xs, ys)]
            assert _coords(a * -1) == [-x for x in xs]
            s = rng.choice(scalars)
            assert _coords(a * s) == [x * s for x in xs]
            assert _coords(s * a) == [x * s for x in xs]
            for c in (a, b, a + b, a - b, a * -1, a * s, s * a):
                _assert_canonical(c)
                assert all(type(v) is int for v in c.nums)
                assert type(c.den) is int
            assert repr(a) == "DivisorClass(%s)" % ", ".join(
                str(Fraction(x)) for x in xs)


def test_classes_are_canonical_across_routes():
    rng = random.Random(11)
    for n in (1, 5, 30):
        for _ in range(10):
            c = DivisorClass(_random_coeffs(rng, n))
            third = c * Fraction(1, 3)
            for other in (third * 3, 3 * third, third + third + third,
                          c + c - c, c * -1 * -1, c * Fraction(2, 2)):
                assert other == c
                assert hash(other) == hash(c)
                assert (other.nums, other.den) == (c.nums, c.den)
            assert (c - c).is_zero()
            assert c - c == DivisorClass([0] * n)
    half = DivisorClass([Fraction(2, 4), 1])
    assert half == DivisorClass([Fraction(1, 2), 1])
    assert hash(half) == hash(DivisorClass([Fraction(1, 2), 1]))
    assert (half.nums, half.den) == ((1, 2), 2)
    whole = half + DivisorClass([Fraction(1, 2), 0])
    assert whole == DivisorClass([1, 1]) and whole.den == 1
    assert whole.is_integral() and not half.is_integral()
    assert DivisorClass([0, 0]).den == 1


def test_transforms_keep_canonical_form():
    m = SurfaceModel.plane_blowup(2)
    c = m.divisor([1, Fraction(1, 2), 0])
    _, (up,) = blow_up_transform(m, [c], [Fraction(1, 3)])
    assert up == DivisorClass([1, Fraction(1, 2), 0, Fraction(-1, 3)])
    assert up.den == 6
