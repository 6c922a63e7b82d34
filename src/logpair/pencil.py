"""Adjoint linear systems: dimension bounds, bigness tests, and the
extraction of a fiber pencil from the adjoint class.

The fixed parts subtracted here are caller-supplied candidate classes
that are taken to be effective.  Dimension counts are reported for
context only; a genuinely effective fixed component can sit in a
system whose naive parameter count is negative, so nothing gates on
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import InputError, NoPencilError
from .lattice import DivisorClass, ModelKind, SurfaceModel

_MAX_ROUNDS = 1000


def _check_mults(mults: Sequence[int]) -> list[int]:
    out = []
    for v in mults:
        if not isinstance(v, int) or v < 0:
            raise InputError("point multiplicities must be integers >= 0")
        out.append(v)
    return out


def dim_lower_bound_p2(degree: int, mults: Sequence[int]) -> Fraction:
    """Parameter count minus imposed conditions for plane curves of the
    given degree with assigned point multiplicities:
    d(d+3)/2 - sum nu(nu+1)/2."""
    ms = _check_mults(mults)
    return Fraction(degree * (degree + 3) - sum(v * (v + 1) for v in ms), 2)


def big_margin_p2(degree: int, mults: Sequence[int]) -> Fraction:
    # self-intersection of the transformed class; > 0 plus effectivity
    # is the bigness certificate
    ms = _check_mults(mults)
    return Fraction(degree * degree - sum(v * v for v in ms))


def dim_lower_bound_hirzebruch(
    a: int, b: int, e: int, mults: Sequence[int],
) -> Fraction:
    """Same count on a ruled-surface model for a*Dinf + b*Gamma:
    (a+1)(b + ae/2) + a - sum nu(nu+1)/2."""
    ms = _check_mults(mults)
    return ((a + 1) * (b + Fraction(a * e, 2)) + a
            - Fraction(sum(v * (v + 1) for v in ms), 2))


def big_margin_hirzebruch(
    a: int, b: int, e: int, mults: Sequence[int],
) -> Fraction:
    # equals half the self-intersection of the transformed class
    ms = _check_mults(mults)
    return (a * (b + Fraction(a * e, 2))
            - Fraction(sum(v * v for v in ms), 2))


@dataclass(frozen=True)
class FixedPart:
    cls: DivisorClass = field(metadata={"json": "class"})
    pairing: Fraction        # (running adjoint) . cls at extraction, < 0
    dim_bound: Optional[Fraction]  # informational, not a gate


@dataclass(frozen=True)
class PencilResult:
    adjoint: DivisorClass
    big: Optional[bool]          # None when the model has no closed form
    big_margin: Optional[Fraction]
    fixed_parts: tuple[FixedPart, ...]
    residual: DivisorClass       # adjoint minus the fixed parts
    multiple: int                # residual = multiple * fiber
    fiber: DivisorClass
    g: int                       # arithmetic genus of the fiber
    k: int                       # boundary . fiber
    b: int                       # base curve genus; 0 for these models


def _class_profile(model: SurfaceModel, c: DivisorClass):
    """Split a class into (leading degrees, point multiplicities) when
    the model kind has a closed-form dimension count.

    None when it has none: a custom model, a non-integral class, or a
    negative multiplicity.  The closed forms assume assigned base
    multiplicities, so excess classes fall outside them.
    """
    if model.kind is ModelKind.P2_BLOWUP:
        lead = 1
    elif model.kind is ModelKind.HIRZEBRUCH:
        lead = 2
    else:
        return None
    if c.den != 1:
        return None
    mults = [-v for v in c.nums[lead:]]
    if any(v < 0 for v in mults):
        return None
    return c.nums[:lead], mults


def bigness_of(model: SurfaceModel, c: DivisorClass) -> tuple[
        Optional[bool], Optional[Fraction]]:
    """(is_big, margin) via the closed-form tests, when available."""
    prof = _class_profile(model, c)
    if prof is None:
        return None, None
    degs, mults = prof
    if model.kind is ModelKind.P2_BLOWUP:
        margin = big_margin_p2(degs[0], mults)
    else:
        margin = big_margin_hirzebruch(
            degs[0], degs[1], model.degree_e, mults)
    return margin > 0, margin


def dim_bound_of(model: SurfaceModel,
                 c: DivisorClass) -> Optional[Fraction]:
    prof = _class_profile(model, c)
    if prof is None:
        return None
    degs, mults = prof
    if model.kind is ModelKind.P2_BLOWUP:
        return dim_lower_bound_p2(degs[0], mults)
    return dim_lower_bound_hirzebruch(
        degs[0], degs[1], model.degree_e, mults)


def _integer_content(c: DivisorClass) -> int:
    if not c.is_integral():
        raise NoPencilError("residual class is not integral")
    return gcd(*c.nums)


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
    class into the fixed locus.  The residual must be a positive
    multiple of a square-zero class, the fiber; otherwise there is no
    pencil to report.
    """
    if adjoint is None:
        adjoint = model.canonical_class() + boundary
    big, margin = bigness_of(model, adjoint)
    current = adjoint
    fixed: list[FixedPart] = []
    for _ in range(_MAX_ROUNDS):
        hit = None
        pairing = None
        for cand in candidates:
            pairing = model.intersect(current, cand)
            if pairing < 0:
                hit = cand
                break
        if hit is None:
            break
        fixed.append(FixedPart(hit, pairing, dim_bound_of(model, hit)))
        current = current - hit
    else:
        raise InputError(
            "fixed part subtraction did not settle within "
            f"{_MAX_ROUNDS} rounds; candidate list is not a fixed locus")
    content = _integer_content(current)
    if content == 0:
        raise NoPencilError("residual class is zero")
    fiber = Fraction(1, content) * current
    if model.self_intersection(fiber) != 0:
        raise NoPencilError(
            "residual is not a multiple of a square-zero class")
    g = model.arithmetic_genus(fiber)
    if g.denominator != 1:
        raise NoPencilError("fiber genus is not an integer")
    k = model.intersect(boundary, fiber)
    if k.denominator != 1:
        raise NoPencilError("boundary pairing with the fiber is not integral")
    return PencilResult(
        adjoint=adjoint,
        big=big,
        big_margin=margin,
        fixed_parts=tuple(fixed),
        residual=current,
        multiple=content,
        fiber=fiber,
        g=int(g),
        k=int(k),
        b=0,
    )
