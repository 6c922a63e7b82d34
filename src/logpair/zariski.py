"""Zariski decomposition relative to a finite candidate curve set.

X = P + N where N is an effective rational combination of candidates
with negative definite support, P pairs to zero with every support
member, and P meets every candidate nonnegatively.  Everything is
relative to the supplied candidates: nothing is claimed about curves
outside the set, and outputs carry that scope marker.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import InputError, NotDecomposableError
from .lattice import DivisorClass, SurfaceModel
# linalg is read through the module: this module may be imported first
# while the linalg functions are patched (bench/tracing.py does so), and
# a name bound then would keep the patch
from . import linalg

NEF_SCOPE = "relative to the supplied candidate set only"


class ZariskiDecomposition(NamedTuple):
    positive: DivisorClass
    negative: DivisorClass
    support: list[int]
    coefficients: list[Fraction]
    rounds: int
    nef_scope: str = NEF_SCOPE

    _json_names = {"positive": "P", "negative": "N"}


def _validate(model: SurfaceModel, x: DivisorClass,
              candidates: Sequence[DivisorClass]) -> None:
    if len(x) != model.basis_size:
        raise InputError("class does not live in the model lattice")
    seen = set()
    for c in candidates:
        if len(c) != model.basis_size:
            raise InputError("candidate does not live in the model lattice")
        if c in seen:
            raise InputError("candidates must be pairwise distinct")
        seen.add(c)


def zariski_decompose(
    model: SurfaceModel,
    x: DivisorClass,
    candidates: Sequence[DivisorClass],
) -> ZariskiDecomposition:
    """Iterative fixpoint: start from the candidates X meets negatively,
    solve for the orthogonal negative part, then keep absorbing any
    candidate the remainder still meets negatively."""
    _validate(model, x, candidates)
    cands = list(candidates)
    # each pairing is computed once, as the integer numerator over
    # gram_den of the classes times their own denominators: xc[j] pairs
    # d_x X with d_j c_j, and table[i][j] pairs d_i c_i with d_j c_j,
    # a row for each candidate once it is active
    pair_x = model.pairing_with(x)
    xc = [pair_x(c) for c in cands]
    table: dict[int, list[int]] = {}
    active = [i for i, p in enumerate(xc) if p < 0]
    rounds = 0
    while True:
        rounds += 1
        for i in active:
            if i not in table:
                pair = model.pairing_with(cands[i])
                table[i] = [pair(c) for c in cands]
        # the system in the scaled classes: d_x N = sum a_i d_i c_i, so
        # c_i's coefficient in N is a_i d_i / d_x, of the same sign
        if active:
            scaled = linalg.solve_linear([[table[i][j] for j in active]
                                          for i in active],
                                         [xc[i] for i in active])
            if scaled is None:
                raise NotDecomposableError(
                    "support Gram matrix is not negative definite")
            if any(a < 0 for a in scaled):
                raise NotDecomposableError(
                    "negative coefficient in the candidate combination")
        else:
            scaled = []
        # P.c_j has the sign of xc[j] - sum a_i table[i][j]; scale by
        # the common denominator of the a_i to stay on integers
        den = lcm(*(a.denominator for a in scaled))
        nums = [a.numerator * (den // a.denominator) for a in scaled]
        newly = [j for j in range(len(cands)) if j not in active
                 and xc[j] * den < sum(n * table[i][j]
                                       for i, n in zip(active, nums))]
        if not newly:
            break
        active = sorted(active + newly)
    coeffs = [a * cands[i].den / x.den for i, a in zip(active, scaled)]
    negative = model.zero()
    for i, a in zip(active, coeffs):
        negative = negative + a * cands[i]
    return ZariskiDecomposition(
        positive=x - negative,
        negative=negative,
        support=[i for i, a in zip(active, coeffs) if a != 0],
        coefficients=[a for a in coeffs if a != 0],
        rounds=rounds,
    )


class DecompositionCheck(NamedTuple):
    sum_matches: bool
    coefficients_nonnegative: bool
    support_negative_definite: bool
    positive_orthogonal_to_support: bool
    positive_nonnegative_on_candidates: bool
    positive_times_input_is_square: bool

    @property
    def all_ok(self) -> bool:
        return all(self)  # every field is one of the checks


def verify_decomposition(
    model: SurfaceModel,
    x: DivisorClass,
    candidates: Sequence[DivisorClass],
    z: ZariskiDecomposition,
) -> DecompositionCheck:
    """Re-check the defining properties of a decomposition from scratch."""
    _validate(model, x, candidates)
    support_classes = [candidates[i] for i in z.support]
    gram = [[model.intersect(a, b) for b in support_classes]
            for a in support_classes]
    p_sq = model.self_intersection(z.positive)
    return DecompositionCheck(
        sum_matches=(z.positive + z.negative == x),
        coefficients_nonnegative=all(a >= 0 for a in z.coefficients),
        support_negative_definite=(not support_classes
                                   or linalg.is_negative_definite(gram)),
        positive_orthogonal_to_support=all(
            model.intersect(z.positive, c) == 0 for c in support_classes),
        positive_nonnegative_on_candidates=all(
            model.intersect(z.positive, c) >= 0 for c in candidates),
        positive_times_input_is_square=(
            model.intersect(z.positive, x) == p_sq),
    )
