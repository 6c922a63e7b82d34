"""Peeling: barks of rods, twigs and forks.

The bark of a segment is the fractional combination Bk = sum(a_i C_i)
solving sum_i a_i (C_i . C_j) = -2 + beta(C_j) for every segment vertex
C_j; subtracting it from the boundary produces the sharp boundary D#
with (K + D#) orthogonal to every bark-support component.  The system
is solved once per segment, by `dualgraph.classify_segments`, whose
admissible segments carry their coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dualgraph import DualGraph, SegmentReport, classify_segments
from .errors import InternalError
# bench/test_bench.py reads logpair.peeling.solve_linear; keep the binding
from .linalg import solve_linear  # noqa: F401


class BarkResult(NamedTuple):
    coefficients: dict[str, Fraction]
    sharp_coefficients: dict[str, Fraction]
    bark_square: Fraction
    gram_square: Fraction
    tips: int
    bound_ok: bool
    report: SegmentReport


def bark(g: DualGraph) -> BarkResult:
    """Compute the total bark of the graph's admissible segments.

    bark_square is the tip-weighted value sum a_i (beta(C_i) - 2), with an
    isolated vertex counted as a single tip (weight -1); gram_square is the
    literal value of the quadratic form on the same coefficients.  The two
    differ only on single-vertex rods, where beta is 0 rather than 1.
    """
    report = classify_segments(g)
    coefficients: dict[str, Fraction] = {}
    bark_square = Fraction(0)
    gram_square = Fraction(0)
    tips = 0
    for seg in report.admissible_segments:
        bad = [a for a in seg.coefficients if not 0 < a <= 1]
        if bad:
            raise InternalError(
                f"bark coefficient {bad[0]} outside (0, 1] on an admissible "
                f"{seg.kind}")
        for vid, a in zip(seg.vertices, seg.coefficients):
            beta = g.branching_number(vid)
            coefficients[vid] = a
            gram_square += a * (-2 + beta)
            bark_square += a * (-2 + max(beta, 1))
            # rod ends, twig tips and fork leaves have beta 1, a lone rod
            # vertex has beta 0, and every other segment vertex beta >= 2
            tips += beta <= 1
    sharp = {
        v.id: Fraction(1) - coefficients.get(v.id, Fraction(0))
        for v in g.vertices
    }
    return BarkResult(
        coefficients=coefficients,
        sharp_coefficients=sharp,
        bark_square=bark_square,
        gram_square=gram_square,
        tips=tips,
        bound_ok=bark_square >= -tips,
        report=report,
    )

