"""Adjoint linear systems: bigness margins, dimension counts, and the
extraction of a fiber pencil from the adjoint class.

Both counts are read off the lattice: the margin is c^2 (half of it on
a ruled model) and the dimension count is Riemann-Roch, c.(c - K)/2.
The fixed parts subtracted here are caller-supplied candidate classes
that are taken to be effective.  Dimension counts are reported for
context only; a genuinely effective fixed component can sit in a
system whose naive parameter count is negative, so nothing gates on
them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import InputError, NoPencilError
from .lattice import DivisorClass, ModelKind, SurfaceModel

_MAX_ROUNDS = 1000


class FixedPart(NamedTuple):
    cls: DivisorClass
    pairing: int | Fraction  # running class . cls when hit, < 0, exact
    dim_bound: Optional[Fraction]  # informational, not a gate

    _json_names = {"cls": "class"}


class PencilResult(NamedTuple):
    adjoint: DivisorClass
    # None with the margin: a non-integral adjoint, or one with a
    # positive exceptional coefficient
    big: Optional[bool]
    big_margin: Optional[Fraction]
    fixed_parts: tuple[FixedPart, ...]
    residual: DivisorClass       # adjoint minus the fixed parts
    multiple: int                # residual = multiple * fiber
    fiber: DivisorClass
    g: int                       # arithmetic genus of the fiber
    k: int                       # boundary . fiber
    b: int                       # base curve genus; 0 for these models


def _counts(model: SurfaceModel, c: DivisorClass) -> tuple[
        Optional[Fraction], Optional[Fraction]]:
    """(bigness margin, dimension count) of a class, read off the lattice.

    The count is Riemann-Roch, chi(c) - 1 = c.(c - K)/2, and the margin
    is c^2, halved on a ruled model.  Both are (None, None) for a
    non-integral class and for a class with a positive exceptional
    coefficient: the counts assume assigned base multiplicities, so
    excess classes fall outside them.  A custom model has no canonical
    class, so an integral class on one raises InputError here.
    """
    if c.den != 1:
        return None, None
    if any(v > 0 for v in c.nums[len(c) - model.num_points:]):
        return None, None
    square = model.intersect(c, c)
    count = (square - model.intersect(c, model.canonical_class())) / 2
    if model.kind is ModelKind.HIRZEBRUCH:
        return square / 2, count
    return square, count


def analyze_adjoint_system(
    model: SurfaceModel,
    boundary: DivisorClass,
    candidates: Sequence[DivisorClass],
    adjoint: Optional[DivisorClass] = None,
) -> PencilResult:
    """Strip fixed components off the adjoint class and read the pencil.

    Starting from K + boundary (or an explicit adjoint), repeatedly
    subtract the first candidate the running class meets negatively;
    a negative pairing with an effective irreducible class forces that
    class into the fixed locus.  Rounds run on exact pairings, less the
    Gram row of each hit; the residual, built once from the hit counts,
    must be a positive multiple of a square-zero class, the fiber.
    """
    if adjoint is None:
        adjoint = model.canonical_class() + boundary
    margin = _counts(model, adjoint)[0]
    running = model.pairings(adjoint, candidates)
    # the Gram row and dimension count of each hit candidate, once
    seen, hits = {}, [0] * len(candidates)
    fixed: list[FixedPart] = []
    for _ in range(_MAX_ROUNDS):
        i = next((j for j, p in enumerate(running) if p < 0), None)
        if i is None:
            break
        if i not in seen:
            seen[i] = (model.pairings(candidates[i], candidates),
                       _counts(model, candidates[i])[1])
        row, bound = seen[i]
        fixed.append(FixedPart(candidates[i], running[i], bound))
        hits[i] += 1
        running = [p - q for p, q in zip(running, row)]
    else:
        raise InputError(
            "fixed part subtraction did not settle within "
            f"{_MAX_ROUNDS} rounds; candidate list is not a fixed locus")
    current = sum((-n * c for n, c in zip(hits, candidates) if n), adjoint)
    if not current.is_integral():
        raise NoPencilError("residual class is not integral")
    content = gcd(*current.nums)
    if content == 0:
        raise NoPencilError("residual class is zero")
    fiber = Fraction(1, content) * current
    if model.intersect(fiber, fiber) != 0:
        raise NoPencilError(
            "residual is not a multiple of a square-zero class")
    # an integer: the fiber is integral, and c.(c + K) is even for integral c
    g = model.arithmetic_genus(fiber)
    k = model.intersect(boundary, fiber)
    if k.denominator != 1:
        raise NoPencilError("boundary pairing with the fiber is not integral")
    return PencilResult(
        adjoint=adjoint,
        big=None if margin is None else margin > 0,
        big_margin=margin,
        fixed_parts=tuple(fixed),
        residual=current,
        multiple=content,
        fiber=fiber,
        g=int(g),
        k=int(k),
        b=0,
    )
