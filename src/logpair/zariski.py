"""Zariski decomposition relative to a finite candidate curve set.

X = P + N where N is an effective rational combination of candidates
with negative definite support, P pairs to zero with every support
member, and P meets every candidate nonnegatively.  Everything is
relative to the supplied candidates: nothing is claimed about curves
outside the set, and outputs carry that scope marker.
"""

from __future__ import annotations

from fractions import Fraction
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
    candidate the remainder still meets negatively.  Rounds run on the
    exact values of `SurfaceModel.pairings` alone, solved as they are
    by `linalg.solve_linear`; N and P are built once, after the loop."""
    _validate(model, x, candidates)
    cands = list(candidates)
    xc = model.pairings(x, cands)
    active = [i for i, p in enumerate(xc) if p < 0]
    rows = {i: model.pairings(cands[i], cands) for i in active}
    coeffs, rounds = [], 1
    while active:
        coeffs = linalg.solve_linear(
            [[rows[i][j] for j in active] for i in active],
            [xc[i] for i in active])
        if coeffs is None:
            raise NotDecomposableError(
                "support Gram matrix is not negative definite")
        if any(a < 0 for a in coeffs):
            raise NotDecomposableError(
                "negative coefficient in the candidate combination")
        # P.c_j = X.c_j - sum a_i c_i.c_j, which is 0 for an active c_j
        newly = [j for j, p in enumerate(xc) if j not in rows
                 and p < sum(a * rows[i][j] for i, a in zip(active, coeffs))]
        if not newly:
            break
        active = sorted(active + newly)
        rows.update((j, model.pairings(cands[j], cands)) for j in newly)
        rounds += 1
    negative = sum((a * cands[i] for i, a in zip(active, coeffs)),
                   model.zero())
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
    """Re-check the six defining properties of a decomposition; the
    definiteness test is the elimination `zariski_decompose` solved with."""
    _validate(model, x, candidates)
    support_classes = [candidates[i] for i in z.support]
    gram = [[model.intersect(a, b) for b in support_classes]
            for a in support_classes]
    p_sq = model.intersect(z.positive, z.positive)
    pc = [model.intersect(z.positive, c) for c in candidates]
    return DecompositionCheck(
        sum_matches=(z.positive + z.negative == x),
        coefficients_nonnegative=all(a >= 0 for a in z.coefficients),
        support_negative_definite=(not support_classes
                                   or linalg.is_negative_definite(gram)),
        positive_orthogonal_to_support=all(pc[i] == 0 for i in z.support),
        positive_nonnegative_on_candidates=all(v >= 0 for v in pc),
        positive_times_input_is_square=(
            model.intersect(z.positive, x) == p_sq),
    )
