"""Positive/negative splitting against a finite candidate set."""

import random
import time
from fractions import Fraction

import pytest

from logpair import (NEF_SCOPE, NotDecomposableError, SurfaceModel,
                     ZariskiDecomposition, verify_decomposition,
                     zariski_decompose)
from logpair.linalg import solve_linear
from logpair.selftest import random_zariski_input


def test_single_candidate_exact_solve():
    # X = H + 2E1 against {E1}: X.E1 = -2, and orthogonality of the
    # remainder forces N = 2E1, P = H
    m = SurfaceModel.plane_blowup(1)
    x = m.divisor([1, 2])
    e1 = m.exceptional(1)
    z = zariski_decompose(m, x, [e1])
    assert z.positive == m.divisor([1, 0])
    assert z.negative == m.divisor([0, 2])
    assert z.support == [0]
    assert z.coefficients == [2]
    assert z.nef_scope == NEF_SCOPE
    checks = verify_decomposition(m, x, [e1], z)
    assert checks.all_ok


@pytest.mark.xfail(
    strict=True,
    reason="a circulated worked value splits H+2E1 as P=H+E1, N=E1; that "
           "split fails the defining orthogonality P.E1=0 and is kept "
           "here only as a record of the disagreement",
)
def test_single_candidate_circulated_split():
    m = SurfaceModel.plane_blowup(1)
    x = m.divisor([1, 2])
    z = zariski_decompose(m, x, [m.exceptional(1)])
    assert z.positive == m.divisor([1, 1])
    assert z.negative == m.divisor([0, 1])


def test_nef_class_passes_through():
    m = SurfaceModel.plane_blowup(2)
    x = m.plane_class(2, [1, 1])
    candidates = [m.exceptional(1), m.exceptional(2)]
    z = zariski_decompose(m, x, candidates)
    assert z.positive == x
    assert z.negative.is_zero()
    assert z.support == []
    assert verify_decomposition(m, x, candidates, z).all_ok


def test_two_round_enlargement():
    # X = H + 2E1 over {E1 - E2, E2}: only the root pairs negatively at
    # first; peeling it drags E2 in, and the fixpoint lands on P = H
    m = SurfaceModel.plane_blowup(2)
    x = m.divisor([1, 2, 0])
    c1 = m.exceptional(1) - m.exceptional(2)
    c2 = m.exceptional(2)
    assert m.intersect(x, c2) == 0  # not negative on round one
    z = zariski_decompose(m, x, [c1, c2])
    assert z.rounds == 2
    assert z.positive == m.divisor([1, 0, 0])
    assert z.negative == m.divisor([0, 2, 0])
    assert z.coefficients == [2, 2]
    assert verify_decomposition(m, x, [c1, c2], z).all_ok
    assert sorted(z.support) == [0, 1]


def test_not_decomposable_positive_square_support():
    m = SurfaceModel.plane_blowup(1)
    x = m.divisor([-1, 0])
    line = m.plane_class(1, [])
    with pytest.raises(NotDecomposableError):
        zariski_decompose(m, x, [line])


def test_order_independence_and_idempotence():
    rng = random.Random(5117)
    m = SurfaceModel.plane_blowup(4)
    pool = [m.exceptional(i) for i in range(1, 5)]
    pool += [m.exceptional(i) - m.exceptional(i + 1) for i in range(1, 4)]
    done = 0
    attempts = 0
    while done < 25 and attempts < 800:
        attempts += 1
        x = m.divisor([rng.randint(0, 4)]
                      + [rng.randint(-3, 2) for _ in range(4)])
        cands = rng.sample(pool, rng.randint(1, len(pool)))
        try:
            z = zariski_decompose(m, x, cands)
        except NotDecomposableError:
            continue
        done += 1
        assert verify_decomposition(m, x, cands, z).all_ok
        shuffled = list(cands)
        rng.shuffle(shuffled)
        z2 = zariski_decompose(m, x, shuffled)
        assert z2.positive == z.positive
        assert z2.negative == z.negative
        # decomposing the positive part changes nothing
        z3 = zariski_decompose(m, z.positive, cands)
        assert z3.positive == z.positive
        assert z3.negative.is_zero()
    assert done == 25


def test_verifier_flags_tampering():
    m = SurfaceModel.plane_blowup(1)
    x = m.divisor([1, 2])
    e1 = m.exceptional(1)
    z = zariski_decompose(m, x, [e1])
    tampered = type(z)(
        positive=z.positive + e1,
        negative=z.negative - e1,
        support=z.support,
        coefficients=[c - 1 for c in z.coefficients],
        rounds=z.rounds,
    )
    checks = verify_decomposition(m, x, [e1], tampered)
    assert not checks.all_ok
    assert checks.sum_matches  # the sum still adds up
    assert not checks.positive_orthogonal_to_support


def test_verifier_flags_each_pairing_check_on_its_own():
    # E2 comes first, so the support index (1) differs from its position
    # in the support (0)
    m = SurfaceModel.plane_blowup(2)
    e1, e2 = m.exceptional(1), m.exceptional(2)
    cands = [e2, e1]
    # X = H + 2E1 split as P = H - E1, N = 3E1: P + N = X with support
    # {E1}, and P meets E1 positively, so P is nonnegative on every
    # candidate yet not orthogonal to the support (and so P.X != P^2)
    x = m.divisor([1, 2, 0])
    off = ZariskiDecomposition(m.divisor([1, -1, 0]), 3 * e1, [1],
                               [Fraction(3)], 1)
    checks = verify_decomposition(m, x, cands, off)
    assert checks.sum_matches and checks.coefficients_nonnegative
    assert checks.support_negative_definite
    assert not checks.positive_orthogonal_to_support
    assert checks.positive_nonnegative_on_candidates
    assert not checks.positive_times_input_is_square
    # X = H + 2E1 + E2 decomposed against {E1} alone, its support then
    # indexed into cands, gives P = H + E2, N = 2E1: P is orthogonal to
    # its support but meets E2, a candidate outside it, negatively, and
    # that is the only check to fail
    x = m.divisor([1, 2, 1])
    z = zariski_decompose(m, x, [e1])._replace(support=[1])
    checks = verify_decomposition(m, x, cands, z)
    assert z.positive == m.divisor([1, 0, 1])
    assert not checks.all_ok
    assert not checks.positive_nonnegative_on_candidates
    assert checks._replace(positive_nonnegative_on_candidates=True).all_ok


def test_duplicate_candidates_rejected():
    from logpair import InputError
    m = SurfaceModel.plane_blowup(1)
    e1 = m.exceptional(1)
    with pytest.raises(InputError):
        zariski_decompose(m, m.divisor([1, 0]), [e1, e1])


def _decompose_from_scratch(model, x, cands):
    """The round loop as it was before the pairing table: every round
    pairs the support and the running positive part afresh with
    `intersect` and solves over Fraction entries."""
    pairings = [model.intersect(x, c) for c in cands]
    active = sorted(i for i, p in enumerate(pairings) if p < 0)
    rounds = 0
    while True:
        rounds += 1
        if active:
            gram = [[model.intersect(cands[i], cands[j]) for j in active]
                    for i in active]
            coeffs = solve_linear(gram, [pairings[i] for i in active])
            if coeffs is None:
                raise NotDecomposableError(
                    "support Gram matrix is not negative definite")
            if any(a < 0 for a in coeffs):
                raise NotDecomposableError(
                    "negative coefficient in the candidate combination")
        else:
            coeffs = []
        negative = model.zero()
        for i, a in zip(active, coeffs):
            negative = negative + a * cands[i]
        positive = x - negative
        newly = [i for i in range(len(cands))
                 if i not in active
                 and model.intersect(positive, cands[i]) < 0]
        if not newly:
            support = [i for i, a in zip(active, coeffs) if a != 0]
            return (positive, negative, support,
                    [a for a in coeffs if a != 0], rounds)
        active = sorted(active + newly)


def _outcome(decompose, model, x, cands):
    try:
        return tuple(decompose(model, x, cands))[:5]
    except NotDecomposableError as exc:
        return str(exc)


def _root_pool_input(rng):
    # exceptional curves and the roots E_i - E_(i+1), whose absorption
    # can make the next candidate negative: several rounds
    n = rng.randint(2, 6)
    model = SurfaceModel.plane_blowup(n)
    pool = [model.exceptional(i) for i in range(1, n + 1)]
    pool += [model.exceptional(i) - model.exceptional(i + 1)
             for i in range(1, n)]
    x = model.divisor([rng.randint(0, 4)]
                      + [rng.randint(-3, 3) for _ in range(n)])
    return model, x, rng.sample(pool, rng.randint(1, len(pool)))


def _draws():
    """The criterion-4 draws and root-pool draws, each also with X and
    the candidates over small denominators, and on a custom model with
    a fractional Gram."""
    rng = random.Random(41926)
    for draw in range(300):
        model, x, cands = (random_zariski_input(rng) if draw % 2
                           else _root_pool_input(rng))
        yield model, x, cands
        scales = [Fraction(rng.randint(1, 4), rng.randint(1, 4))
                  for _ in cands]
        yield (model, x * Fraction(rng.randint(1, 5), rng.randint(1, 6)),
               [s * c for s, c in zip(scales, cands)])
        # the same form divided by 6, as a custom Gram: every pairing
        # gains the denominator 6, and P and N stay the same
        n = model.basis_size
        custom = SurfaceModel.custom(
            [["1/6" if i == j == 0 else "-1/6" if i == j else 0
              for j in range(n)] for i in range(n)])
        yield custom, x, cands


def test_pairing_table_matches_the_from_scratch_rounds():
    outcomes = {"decomposed": 0, "refused": 0, "multi_round": 0}
    for model, x, cands in _draws():
        want = _outcome(_decompose_from_scratch, model, x, cands)
        got = _outcome(zariski_decompose, model, x, cands)
        assert got == want
        if isinstance(want, str):
            outcomes["refused"] += 1
        else:
            outcomes["decomposed"] += 1
            outcomes["multi_round"] += want[4] > 1
            assert all(type(a) is Fraction for a in got[3])
    assert min(outcomes.values()) > 20, outcomes


def _root_chain(points, k):
    m = SurfaceModel.plane_blowup(points)
    x = m.divisor([3, 2] + [0] * (points - 1))  # 3H + 2E1
    return m, x, [m.exceptional(i) - m.exceptional(i + 1)
                  for i in range(1, k + 1)]


@pytest.mark.parametrize("points,k", [(40, 1), (40, 8), (40, 32),
                                      (200, 16)])
def test_root_chain_matches_the_from_scratch_rounds(points, k):
    # 2E1 pairs -2 with E1 - E2 only; each absorbed root drags in the
    # next, so the chain takes k rounds and ends with N = sum of
    # 2(k + 1 - i)/(k + 1) (E_i - E_(i+1))
    m, x, cands = _root_chain(points, k)
    z = zariski_decompose(m, x, cands)
    assert tuple(z)[:5] == _decompose_from_scratch(m, x, cands)
    assert z.rounds == k
    assert z.support == list(range(k))
    assert z.coefficients == [Fraction(2 * (k + 1 - i), k + 1)
                              for i in range(1, k + 1)]


def test_root_chain_at_the_candidate_cap_is_fast():
    from logpair.jsonio import MAX_CANDIDATES, MAX_MODEL_POINTS
    m, x, cands = _root_chain(MAX_MODEL_POINTS, MAX_CANDIDATES)
    t0 = time.perf_counter()
    z = zariski_decompose(m, x, cands)
    assert time.perf_counter() - t0 < 0.5
    assert z.rounds == MAX_CANDIDATES
