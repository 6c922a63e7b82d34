"""Zariski decomposition relative to a finite candidate curve set.

X = P + N where N is an effective rational combination of candidates
with negative definite support, P pairs to zero with every support
member, and P meets every candidate nonnegatively.  Everything is
relative to the supplied candidates: nothing is claimed about curves
outside the set, and outputs carry that scope marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InputError, NotDecomposableError
from .lattice import DivisorClass, SurfaceModel
# linalg is read through the module: this module may be imported first
# while the linalg functions are patched (bench/tracing.py does so), and
# a name bound then would keep the patch
from . import linalg

NEF_SCOPE = "relative to the supplied candidate set only"


@dataclass
class ZariskiDecomposition:
    positive: DivisorClass = field(metadata={"json": "P"})
    negative: DivisorClass = field(metadata={"json": "N"})
    support: list[int]
    coefficients: list[Fraction]
    rounds: int
    nef_scope: str = NEF_SCOPE


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
    pairings = [model.intersect(x, c) for c in cands]
    active = sorted(i for i, p in enumerate(pairings) if p < 0)
    rounds = 0
    while True:
        rounds += 1
        if active:
            gram = [[model.intersect(cands[i], cands[j]) for j in active]
                    for i in active]
            coeffs = linalg.solve_linear(gram, [pairings[i] for i in active])
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
            kept = [a for a in coeffs if a != 0]
            return ZariskiDecomposition(
                positive=positive,
                negative=negative,
                support=support,
                coefficients=kept,
                rounds=rounds,
            )
        active = sorted(active + newly)


@dataclass
class DecompositionCheck:
    sum_matches: bool
    coefficients_nonnegative: bool
    support_negative_definite: bool
    positive_orthogonal_to_support: bool
    positive_nonnegative_on_candidates: bool
    positive_times_input_is_square: bool

    @property
    def all_ok(self) -> bool:
        return all((
            self.sum_matches,
            self.coefficients_nonnegative,
            self.support_negative_definite,
            self.positive_orthogonal_to_support,
            self.positive_nonnegative_on_candidates,
            self.positive_times_input_is_square,
        ))


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
