"""The negative-definite Gram solve against independent oracles.

The systems are the ones the package actually solves: the segment Grams
of the criterion-3 peeling draws (right-hand side -2 + beta) and the
candidate Grams of the criterion-4 Zariski draws (right-hand side the
pairings with the class).  Many of them are not negative definite.  The
oracles share no code with `logpair.linalg`: Cramer's rule with Laplace
determinants and Sylvester's criterion for n <= 3, and sympy's LU solve
and definiteness test when sympy is installed.
"""

import random
from fractions import Fraction

import pytest

from logpair import InputError, classify_segments
from logpair.linalg import is_negative_definite, solve_linear
from logpair.selftest import random_bark_graph, random_zariski_input


def _peel_systems():
    rng = random.Random(20817)
    for _ in range(200):
        g = random_bark_graph(rng)
        for seg in classify_segments(g).segments:
            ids = list(seg.vertices)
            yield g.gram(ids), [Fraction(-2 + g.branching_number(v))
                                for v in ids]


def _zariski_systems():
    rng = random.Random(41926)
    for _ in range(200):
        model, x, cands = random_zariski_input(rng)
        pairings = [model.intersect(x, c) for c in cands]
        negative = [i for i, p in enumerate(pairings) if p < 0]
        for support in (range(len(cands)), negative):
            gram = [[model.intersect(cands[i], cands[j]) for j in support]
                    for i in support]
            yield gram, [pairings[i] for i in support]


def _distinct(systems):
    seen = {}
    for m, b in systems:
        if m:
            seen.setdefault((tuple(map(tuple, m)), tuple(b)), (m, b))
    return list(seen.values())


SYSTEMS = _distinct([*_peel_systems(), *_zariski_systems()])


def _det(m):
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)))


def _sylvester_negative_definite(m) -> bool:
    # the k-th leading principal minor of a negative definite matrix
    # has sign (-1)^k
    return all((-1) ** k * _det([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


def _cramer(m, b):
    d = _det(m)
    return [_det([row[:j] + [bi] + row[j + 1:] for row, bi in zip(m, b)]) / d
            for j in range(len(m))]


def test_systems_cover_both_outcomes():
    nd = [is_negative_definite(m) for m, _ in SYSTEMS]
    assert sum(nd) > 100 and nd.count(False) > 20
    assert max(len(m) for m, _ in SYSTEMS) >= 5


def test_small_systems_against_cramer_and_sylvester():
    small = [(m, b) for m, b in SYSTEMS if 1 <= len(m) <= 3]
    assert len(small) > 100
    for m, b in small:
        x = solve_linear(m, b)
        if _sylvester_negative_definite(m):
            assert is_negative_definite(m)
            assert x == _cramer(m, b)
        else:
            assert not is_negative_definite(m)
            assert x is None


def test_all_systems_against_sympy():
    sympy = pytest.importorskip("sympy")
    for m, b in SYSTEMS:
        sm = sympy.Matrix([[sympy.Rational(str(v)) for v in row]
                           for row in m])
        x = solve_linear(m, b)
        if sm.is_negative_definite:
            assert is_negative_definite(m)
            sb = sympy.Matrix([sympy.Rational(str(v)) for v in b])
            want = [Fraction(str(v)) for v in sm.LUsolve(sb)]
            assert x == want
        else:
            assert not is_negative_definite(m)
            assert x is None


@pytest.mark.parametrize("gram", [
    [[-2, 3], [3, -2]],                          # indefinite
    [[1]],                                       # positive
    [[-2, 0], [0, 0]],                           # singular, zero pivot
    [[-1, 1], [1, -1]],                          # singular
    [[-2, 1, 0], [1, -1, 1], [0, 1, -2]],        # (-1) between two (-2)s
    [[-1, 1, 1, 1], [1, -2, 0, 0], [1, 0, -2, 0],
     [1, 0, 0, -2]],                             # (-1) hub of three (-2)s
], ids=["indefinite", "positive", "zero_pivot", "singular",
        "minus_one_chain", "minus_one_star"])
def test_not_negative_definite(gram):
    gram = [[Fraction(v) for v in row] for row in gram]
    assert not is_negative_definite(gram)
    assert solve_linear(gram, [Fraction(-1)] * len(gram)) is None


def test_empty_and_single_vertex():
    assert is_negative_definite([])
    assert solve_linear([], []) == []
    assert solve_linear([[Fraction(-3)]], [Fraction(1)]) == [Fraction(-1, 3)]
    assert solve_linear([[-1]], [Fraction(-1)]) == [Fraction(1)]


@pytest.mark.parametrize("gram,rhs", [
    ([[-1, 0]], [0]),                            # not square
    ([[-1, 0], [0]], [0, 0]),                    # ragged
    ([[-2, 1], [0, -2]], [0, 0]),                # asymmetric
    ([[-2, 1], [1, -2]], [0]),                   # rhs too short
    ([[-2, 1], [1, -2]], [0, 0, 0]),             # rhs too long
], ids=["not_square", "ragged", "asymmetric", "rhs_short", "rhs_long"])
def test_bad_shapes_raise_input_error(gram, rhs):
    with pytest.raises(InputError):
        solve_linear(gram, rhs)
    if len(rhs) == len(gram):
        with pytest.raises(InputError):
            is_negative_definite(gram)


def test_every_coefficient_is_a_fraction():
    solved = [solve_linear(m, b) for m, b in SYSTEMS]
    solved = [x for x in solved if x is not None]
    assert len(solved) > 100
    assert all(type(v) is Fraction for x in solved for v in x)
    # integer input too: the Gram of a rod and its bark rhs
    x = solve_linear([[-2, 1], [1, -2]], [-1, -1])
    assert x == [1, 1] and all(type(v) is Fraction for v in x)


# entries over 2, 3 and 6, so the common denominator is 6 and no single
# entry carries it
MIXED = [
    ([["-1/2"]], ["1/3"]),
    ([["-1/2", "1/3"], ["1/3", "-1/6"]], ["1", "-1/6"]),  # indefinite
    ([["-1/2", "1/6"], ["1/6", "-1/3"]], ["1/2", "-1/3"]),
    ([["-1/2", "1/3", "0"], ["1/3", "-1", "1/6"], ["0", "1/6", "-1/3"]],
     ["1/6", "0", "-1/2"]),
    ([["-1/3", "1/2", "0"], ["1/2", "-1/6", "1/3"], ["0", "1/3", "-1/2"]],
     ["1", "1", "1"]),                                  # indefinite
    ([["-7/6", "1/2", "1/3"], ["1/2", "-5/3", "1/6"],
      ["1/3", "1/6", "-3/2"]], ["-1/3", "1/2", "-1/6"]),
]


@pytest.mark.parametrize("gram,rhs", MIXED)
def test_mixed_denominators_against_cramer_and_sylvester(gram, rhs):
    m = [[Fraction(v) for v in row] for row in gram]
    b = [Fraction(v) for v in rhs]
    x = solve_linear(m, b)
    if _sylvester_negative_definite(m):
        assert is_negative_definite(m)
        assert x == _cramer(m, b)
    else:
        assert not is_negative_definite(m)
        assert x is None


def test_mixed_denominator_draws_against_cramer_and_sylvester():
    rng = random.Random(6063)
    dens = (1, 2, 3, 6)
    outcomes = []
    for _ in range(300):
        n = rng.randint(1, 3)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = Fraction(-rng.randint(0, 12), rng.choice(dens))
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3),
                                             rng.choice(dens))
        b = [Fraction(rng.randint(-6, 6), rng.choice(dens))
             for _ in range(n)]
        x = solve_linear(m, b)
        nd = _sylvester_negative_definite(m)
        outcomes.append(nd)
        assert is_negative_definite(m) == nd
        assert x == (_cramer(m, b) if nd else None)
    assert sum(outcomes) > 50 and outcomes.count(False) > 50


@pytest.mark.parametrize("gram", [
    [[0, 1], [1, -2]],                           # zero first pivot
    [[0, 0], [0, -1]],                           # zero first pivot
    [["0", "1/2"], ["1/2", "-1/3"]],             # zero first pivot
], ids=["zero_corner", "zero_row", "zero_corner_mixed"])
def test_zero_first_pivot(gram):
    gram = [[Fraction(v) for v in row] for row in gram]
    assert not _sylvester_negative_definite(gram)
    assert not is_negative_definite(gram)
    assert solve_linear(gram, [Fraction(-1)] * len(gram)) is None


def _cycle(n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        g[i][(i + 1) % n] = g[(i + 1) % n][i] = 1
    return g


@pytest.mark.parametrize("gram", [
    _cycle(3), _cycle(6),                        # affine A_2, A_5
    [[-2, 1, 1, 1, 1], [1, -2, 0, 0, 0], [1, 0, -2, 0, 0],
     [1, 0, 0, -2, 0], [1, 0, 0, 0, -2]],        # affine D_4
    [["-1/2", "1/2"], ["1/2", "-1/2"]],          # half of a singular pair
], ids=["affine_a2", "affine_a5", "affine_d4", "half_pair"])
def test_singular_semidefinite(gram):
    # each is negative semi-definite with a kernel: the last minor is 0,
    # every earlier one alternates
    gram = [[Fraction(v) for v in row] for row in gram]
    n = len(gram)
    assert _det(gram) == 0
    assert all((-1) ** k * _det([row[:k] for row in gram[:k]]) > 0
               for k in range(1, n))
    assert not is_negative_definite(gram)
    assert solve_linear(gram, [Fraction(-1)] * n) is None


def test_forty_vertex_rod():
    # a rod of 40 (-2)-curves: the k-th leading minor is (-1)^k (k + 1),
    # and the bark system -2 + beta solves to every coefficient 1
    n = 40
    rod = [[-2 if i == j else 1 if abs(i - j) == 1 else 0
            for j in range(n)] for i in range(n)]
    rhs = [-1] + [0] * (n - 2) + [-1]
    assert is_negative_definite(rod)
    assert solve_linear(rod, rhs) == [1] * n
    # a unit rhs: x_j = -(j + 1)(n - i) / (n + 1) for j <= i, the inverse
    # of the A_n Cartan matrix, read off column i = 0 and i = n - 1
    for i in (0, n - 1):
        e = [0] * n
        e[i] = 1
        x = solve_linear(rod, e)
        for j in range(n):
            lo, hi = min(i, j), max(i, j)
            assert x[j] == Fraction(-(lo + 1) * (n - hi), n + 1)
    # one (-1) curve in the middle breaks definiteness from its minor on
    rod[20][20] = -1
    assert not is_negative_definite(rod)
    assert solve_linear(rod, rhs) is None
