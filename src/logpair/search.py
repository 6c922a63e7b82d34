"""Inequality system and grid search for the ruled-surface family
(CLI key "ex4").

An instance is (g, e, x, y) with g >= 2 and 0 <= e <= g: blow up a
Hirzebruch surface of degree e at 4g+4 general points on a bisection,
take the boundary x*Dinf + y*Gamma - 2*sum(E) and ask for the adjoint
system to be composed of a pencil with fiber F = 2*Dinf + a*Gamma -
sum(E), a = g+1-e.  Four printed inequalities govern the construction:

  dim_positive   the boundary system has positive projective dimension
  big            the adjoint class is big
  effective      the fixed-part candidate M moves in a nonempty system
  fixed_part     the adjoint meets M negatively

The fixed_part inequality is implemented exactly as printed; the first
product term carries no factor of e there, while the lattice pairing
(K+D).M does.  Both values are reported so the disagreement for e != 1
stays visible.  Rows are emitted for every instance passing the three
construction inequalities (big, effective, fixed_part); dim_positive
is then the audited feasibility gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Optional

from .errors import InputError
from .lattice import DivisorClass, SurfaceModel

# a previously reported instance of the x=8, y=1 family, circulated as
# satisfying all four inequalities; exact evaluation disagrees on (D)
REFERENCE_INSTANCE = (10, 3, 8, 1)

# most grid points one search may evaluate: five times the
# 39,600-point grid g 8..40, x 5..12, y 0..5
MAX_GRID_POINTS = 200_000


@dataclass(frozen=True)
class FamilyInstance:
    g: int
    e: int
    x: int
    y: int

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (self.g, self.e, self.x,
                                                self.y)):
            raise InputError("instance parameters must be integers")
        if self.g < 2:
            raise InputError("g must be an integer >= 2")
        if not 0 <= self.e <= self.g:
            raise InputError("e must satisfy 0 <= e <= g")

    @property
    def a(self) -> int:
        return self.g + 1 - self.e

    @property
    def points(self) -> int:
        return 4 * self.g + 4

    def model(self) -> SurfaceModel:
        return SurfaceModel.hirzebruch(self.e, self.points)

    def boundary(self, model: Optional[SurfaceModel] = None) -> DivisorClass:
        m = model or self.model()
        return m.ruled_class(self.x, self.y, [2] * self.points)

    def fiber(self, model: Optional[SurfaceModel] = None) -> DivisorClass:
        m = model or self.model()
        return m.ruled_class(2, self.a, [1] * self.points)

    def fixed_candidate(
            self, model: Optional[SurfaceModel] = None) -> DivisorClass:
        m = model or self.model()
        return m.ruled_class(self.x - 4, self.y + self.e - self.a - 2)

    def adjoint(self, model: Optional[SurfaceModel] = None) -> DivisorClass:
        m = model or self.model()
        return m.canonical_class() + self.boundary(m)


@dataclass(frozen=True)
class ConstraintReport:
    instance: FamilyInstance
    dim_value: Fraction
    big_value: Fraction
    effective_value: Fraction
    fixed_part_value: Fraction   # printed form, no e on the first term
    pairing_exact: Fraction      # lattice (K+D).M
    k: int

    @property
    def dim_positive(self) -> bool:
        return self.dim_value > 0

    @property
    def big(self) -> bool:
        return self.big_value > 0

    @property
    def effective(self) -> bool:
        return self.effective_value > 0

    @property
    def fixed_part(self) -> bool:
        return self.fixed_part_value < 0

    @property
    def feasible(self) -> bool:
        return (self.dim_positive and self.big and self.effective
                and self.fixed_part)

    @property
    def construction_ok(self) -> bool:
        return self.big and self.effective and self.fixed_part

    def as_dict(self) -> dict:
        i = self.instance
        return {
            "g": i.g, "e": i.e, "x": i.x, "y": i.y, "a": i.a,
            "k": self.k,
            "inequalities": {
                "dim_positive": self.dim_positive,
                "big": self.big,
                "effective": self.effective,
                "fixed_part": self.fixed_part,
            },
            "feasible": self.feasible,
            "values": {
                "dim": self.dim_value,
                "big": self.big_value,
                "effective": self.effective_value,
                "fixed_part": self.fixed_part_value,
                "pairing_exact": self.pairing_exact,
            },
        }


def evaluate_constraints(inst: FamilyInstance) -> ConstraintReport:
    g, e, x, y = inst.g, inst.e, inst.x, inst.y
    a = inst.a
    half = Fraction(1, 2)
    dim_value = (x + 1) * (y + half * e * x) + x - 3 * (4 * g + 4)
    big_value = ((x - 2) * (y + e - 2 + half * (x - 2) * e)
                 - half * (4 * g + 4))
    effective_value = (x - 3) * (y + e - a - 1 + half * (x - 4) * e)
    fixed_part_value = Fraction(
        (x - 4) * (x - 2)
        + (x - 2) * (y + e - a - 2)
        + (x - 4) * (y + e - 2))
    pairing_exact = Fraction(
        (x - 2) * (x - 4) * e
        + (x - 2) * (y + e - a - 2)
        + (x - 4) * (y + e - 2))
    k = x * (g + 1 + e) + 2 * y - 8 * g - 8
    return ConstraintReport(
        instance=inst,
        dim_value=Fraction(dim_value),
        big_value=Fraction(big_value),
        effective_value=Fraction(effective_value),
        fixed_part_value=fixed_part_value,
        pairing_exact=pairing_exact,
        k=k,
    )


def reduced_bounds_x8_y1(g: int) -> dict:
    """Closed-form thresholds of the four inequalities at x=8, y=1.

    dim_positive reduces to 36e - 12g + 5 > 0, big to 24e - 2g - 8 > 0,
    effective to 5(4e - g - 1) > 0, fixed_part to 16e - 6g + 8 < 0.
    """
    return {
        "dim_lower": Fraction(12 * g - 5, 36),
        "big_lower": Fraction(g + 4, 12),
        "effective_lower": Fraction(g + 1, 4),
        "fixed_upper": Fraction(3 * g - 4, 8),
        # a variant of the first threshold also circulates; kept for
        # audit, not adopted
        "dim_lower_variant": Fraction(12 * g - 13, 36),
    }


def _open_interval_integers(lo: Fraction, hi: Fraction) -> list[int]:
    if lo >= hi:
        return []
    first = floor(lo) + 1
    last = ceil(hi) - 1
    return [v for v in range(first, last + 1) if lo < v < hi]


def interval_report_x8_y1(g_lo: int, g_hi: int) -> dict:
    """Integer nonemptiness of the x=8, y=1 feasibility window per g.

    Under the exact reduction the window is
    (max((12g-5)/36, (g+4)/12, (g+1)/4), (3g-4)/8); the variant lower
    end (12g-13)/36 is evaluated alongside.  The two disagree about
    g = 28 and the artifact does not reconcile them.
    """
    per_g = []
    for g in range(g_lo, g_hi + 1):
        b = reduced_bounds_x8_y1(g)
        lower = max(b["dim_lower"], b["big_lower"], b["effective_lower"])
        lower_var = max(b["dim_lower_variant"], b["big_lower"],
                        b["effective_lower"])
        upper = b["fixed_upper"]
        ints = _open_interval_integers(lower, upper)
        ints_var = _open_interval_integers(lower_var, upper)
        per_g.append({
            "g": g,
            "lower": lower,
            "upper": upper,
            "integers": ints,
            "nonempty": bool(ints),
            "variant_lower": lower_var,
            "variant_integers": ints_var,
            "variant_nonempty": bool(ints_var),
        })
    return {
        "x": 8,
        "y": 1,
        "per_g": per_g,
        "note": ("two reduced lower thresholds circulate for the "
                 "dimension inequality at x=8, y=1; both are evaluated, "
                 "neither is adopted"),
    }


def _parse_span(span, name: str) -> tuple[int, int]:
    try:
        lo, hi = int(span[0]), int(span[1])
    except (TypeError, ValueError, IndexError):
        raise InputError(f"{name} range must be a pair of integers")
    if lo > hi:
        raise InputError(f"{name} range is empty: {lo} > {hi}")
    return lo, hi


def _rows_for_g(g: int, x_span: tuple[int, int],
                y_span: tuple[int, int]) -> list[ConstraintReport]:
    rows = []
    for e in range(0, g + 1):
        for x in range(x_span[0], x_span[1] + 1):
            for y in range(y_span[0], y_span[1] + 1):
                rep = evaluate_constraints(FamilyInstance(g, e, x, y))
                if rep.construction_ok:
                    rows.append(rep)
    return rows


def _grid_points(g_span: tuple[int, int], x_span: tuple[int, int],
                 y_span: tuple[int, int]) -> int:
    """Instances in a grid: sum over g of (g+1) |x| |y|, as 0 <= e <= g."""
    (g_lo, g_hi), (x_lo, x_hi), (y_lo, y_hi) = g_span, x_span, y_span
    per_e = (g_hi - g_lo + 1) * (g_lo + g_hi + 2) // 2
    return per_e * (x_hi - x_lo + 1) * (y_hi - y_lo + 1)


def run_search(g_range, x_range, y_range) -> dict:
    """Exhaustive exact evaluation over the grid; deterministic output.

    Points are evaluated in (g, e, x, y) order on the calling thread.
    Grids of more than MAX_GRID_POINTS points are refused before any
    evaluation.  Rows carry per-inequality booleans plus the exact
    values so every disagreement is auditable.
    """
    g_lo, g_hi = _parse_span(g_range, "g")
    if g_lo < 2:
        raise InputError("g range must start at 2 or above")
    x_span = _parse_span(x_range, "x")
    y_span = _parse_span(y_range, "y")
    points = _grid_points((g_lo, g_hi), x_span, y_span)
    if points > MAX_GRID_POINTS:
        raise InputError(
            f"grid has {points} points; the limit is {MAX_GRID_POINTS}")
    rows = [r for g in range(g_lo, g_hi + 1)
            for r in _rows_for_g(g, x_span, y_span)]
    ref = evaluate_constraints(FamilyInstance(*REFERENCE_INSTANCE))
    out = {
        "grid": {"g": [g_lo, g_hi], "x": list(x_span), "y": list(y_span)},
        "rows": [r.as_dict() for r in rows],
        "row_count": len(rows),
        "feasible_count": sum(1 for r in rows if r.feasible),
        "reference_claim": {
            "g": ref.instance.g, "e": ref.instance.e,
            "x": ref.instance.x, "y": ref.instance.y,
            "expected_feasible": True,
            "computed_feasible": ref.feasible,
            "inequalities": ref.as_dict()["inequalities"],
            "discrepancy": not ref.feasible,
        },
    }
    if x_span[0] <= 8 <= x_span[1] and y_span[0] <= 1 <= y_span[1]:
        out["interval_x8_y1"] = interval_report_x8_y1(g_lo, g_hi)
    return out
