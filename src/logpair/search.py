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

`evaluate_constraints` evaluates the printed forms at one point with
exact rationals.  Doubled, and with a = g+1-e substituted, each form
is also an integer linear function of e for fixed (g, x, y), so
`e_window` gives the exact open interval of e on which it holds.  The
grid search takes the e in 0..g inside the construction window for
each (g, x, y) and evaluates only those points, so it costs
O(|g| |x| |y| + rows) and the rows are still the evaluator's.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple, Optional

from .errors import InputError, InternalError
from .lattice import DivisorClass, SurfaceModel

# a previously reported instance of the x=8, y=1 family, circulated as
# satisfying all four inequalities; exact evaluation disagrees on (D)
REFERENCE_INSTANCE = (10, 3, 8, 1)

# most grid points one search may evaluate: five times the
# 39,600-point grid g 8..40, x 5..12, y 0..5
MAX_GRID_POINTS = 200_000


class _FamilyInstance(NamedTuple):
    g: int
    e: int
    x: int
    y: int


class FamilyInstance(_FamilyInstance):
    # a thin subclass, as a NamedTuple cannot define __new__
    __slots__ = ()

    def __new__(cls, g: int, e: int, x: int, y: int):
        if not all(type(v) is int for v in (g, e, x, y)):  # no bools
            raise InputError("instance parameters must be integers")
        if g < 2:
            raise InputError("g must be an integer >= 2")
        if not 0 <= e <= g:
            raise InputError("e must satisfy 0 <= e <= g")
        return super().__new__(cls, g, e, x, y)

    @property
    def a(self) -> int:
        return self.g + 1 - self.e

    @property
    def points(self) -> int:
        return 4 * self.g + 4

    def model(self) -> SurfaceModel:
        return SurfaceModel.hirzebruch(self.e, self.points)

    def boundary(self, model: SurfaceModel) -> DivisorClass:
        return model.ruled_class(self.x, self.y, [2] * self.points)

    def fiber(self, model: SurfaceModel) -> DivisorClass:
        return model.ruled_class(2, self.a, [1] * self.points)


class ConstraintReport(NamedTuple):
    """One grid point, shaped as the search row it serializes to.

    `inequalities` maps dim_positive, big, effective and fixed_part to
    booleans; `values` maps dim, big, effective and fixed_part (the
    printed form, no e on the first term) and pairing_exact (the
    lattice (K+D).M) to exact rationals.
    """
    g: int
    e: int
    x: int
    y: int
    a: int
    k: int
    inequalities: dict[str, bool]
    feasible: bool
    values: dict[str, Fraction]

    @property
    def construction_ok(self) -> bool:
        q = self.inequalities
        return q["big"] and q["effective"] and q["fixed_part"]


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
    values = {
        "dim": Fraction(dim_value),
        "big": Fraction(big_value),
        "effective": Fraction(effective_value),
        "fixed_part": fixed_part_value,
        "pairing_exact": pairing_exact,
    }
    q = {
        "dim_positive": values["dim"] > 0,
        "big": values["big"] > 0,
        "effective": values["effective"] > 0,
        "fixed_part": values["fixed_part"] < 0,
    }
    return ConstraintReport(g=g, e=e, x=x, y=y, a=a, k=k, inequalities=q,
                            feasible=all(q.values()), values=values)


def _linear_forms(g: int, x: int, y: int) -> dict[str, tuple[int, int]]:
    """Each inequality at (g, x, y) as c*e + d > 0 with integers (c, d).

    These are the printed forms with a = g+1-e substituted, times 2
    for dim_positive, big and effective (which clears their halves) and
    times -1 for fixed_part.
    """
    return {
        "dim_positive": (x * (x + 1),
                         2 * (x + 1) * y + 2 * x - 24 * (g + 1)),
        "big": (x * (x - 2), (x - 2) * (2 * y - 4) - 4 * (g + 1)),
        "effective": (x * (x - 3), 2 * (x - 3) * (y - g - 2)),
        "fixed_part": (8 - 3 * x,
                       -((x - 4) * (x - 2) + (x - 2) * (y - g - 3)
                         + (x - 4) * (y - 2))),
    }


Interval = tuple[Optional[Fraction], Optional[Fraction]]


def _solution_set(c: int, d: int) -> Interval:
    """The real e with c*e + d > 0, as an open interval."""
    if c > 0:
        return Fraction(-d, c), None
    if c < 0:
        return None, Fraction(-d, c)
    return (None, None) if d > 0 else (Fraction(0), Fraction(0))


def e_window(g: int, x: int, y: int) -> dict[str, Interval]:
    """The open interval (lo, hi) of real e on which each of the four
    inequalities holds at (g, x, y).

    None is an unbounded end, and (0, 0) is the empty set, which a zero
    e-coefficient gives when the constant term fails.  The instance
    range 0 <= e <= g is not applied here.
    """
    return {name: _solution_set(c, d)
            for name, (c, d) in _linear_forms(g, x, y).items()}


def _open_integers(lo: Fraction, hi: Fraction) -> range:
    """The integers strictly between lo and hi."""
    return range(floor(lo) + 1, ceil(hi))


def _construction_es(g: int, x: int, y: int) -> range:
    """The e in 0..g at which big, effective and fixed_part all hold."""
    w = e_window(g, x, y)
    lo, hi = Fraction(-1), Fraction(g + 1)
    for name in ("big", "effective", "fixed_part"):
        left, right = w[name]
        if left is not None and left > lo:
            lo = left
        if right is not None and right < hi:
            hi = right
    return _open_integers(lo, hi)


def reduced_bounds_x8_y1(g: int) -> dict:
    """The thresholds of the four inequalities at x=8, y=1, read off
    `e_window`: e > dim_lower, e > big_lower, e > effective_lower and
    e < fixed_upper.  In closed form they are (12g-5)/36, (g+4)/12,
    (g+1)/4 and (3g-4)/8.
    """
    w = e_window(g, 8, 1)
    return {
        "dim_lower": w["dim_positive"][0],
        "big_lower": w["big"][0],
        "effective_lower": w["effective"][0],
        "fixed_upper": w["fixed_part"][1],
        # a variant of the first threshold also circulates; kept for
        # audit, not adopted
        "dim_lower_variant": Fraction(12 * g - 13, 36),
    }


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
        ints = list(_open_integers(lower, upper))
        ints_var = list(_open_integers(lower_var, upper))
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
        lo, hi = span
    except (TypeError, ValueError):
        lo = hi = None
    if type(lo) is not int or type(hi) is not int:  # bools are refused
        raise InputError(f"{name} range must be a pair of integers")
    if lo > hi:
        raise InputError(f"{name} range is empty: {lo} > {hi}")
    return lo, hi


def _rows_for_g(g: int, x_span: tuple[int, int],
                y_span: tuple[int, int]) -> list[ConstraintReport]:
    # rows are collected per e so that they come out in (e, x, y) order
    by_e: list[list[ConstraintReport]] = [[] for _ in range(g + 1)]
    for x in range(x_span[0], x_span[1] + 1):
        for y in range(y_span[0], y_span[1] + 1):
            for e in _construction_es(g, x, y):
                rep = evaluate_constraints(FamilyInstance(g, e, x, y))
                if not rep.construction_ok:
                    raise InternalError(
                        f"e-window admits (g,e,x,y)=({g},{e},{x},{y}), "
                        f"which fails a construction inequality")
                by_e[e].append(rep)
    return [rep for rows in by_e for rep in rows]


def _grid_points(g_span: tuple[int, int], x_span: tuple[int, int],
                 y_span: tuple[int, int]) -> int:
    """Instances in a grid: sum over g of (g+1) |x| |y|, as 0 <= e <= g."""
    (g_lo, g_hi), (x_lo, x_hi), (y_lo, y_hi) = g_span, x_span, y_span
    per_e = (g_hi - g_lo + 1) * (g_lo + g_hi + 2) // 2
    return per_e * (x_hi - x_lo + 1) * (y_hi - y_lo + 1)


def run_search(g_range, x_range, y_range) -> dict:
    """Every grid point passing the construction inequalities, in
    (g, e, x, y) order; deterministic output.

    For each (g, x, y) the e-window picks the passing e, and only those
    points are evaluated, exactly, by `evaluate_constraints`.  Grids of
    more than MAX_GRID_POINTS points are refused before any evaluation.
    Rows carry per-inequality booleans plus the exact values so every
    disagreement is auditable.
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
        "rows": rows,
        "row_count": len(rows),
        "feasible_count": sum(1 for r in rows if r.feasible),
        "reference_claim": {
            "g": ref.g, "e": ref.e, "x": ref.x, "y": ref.y,
            "expected_feasible": True,
            "computed_feasible": ref.feasible,
            "inequalities": ref.inequalities,
            "discrepancy": not ref.feasible,
        },
    }
    if x_span[0] <= 8 <= x_span[1] and y_span[0] <= 1 <= y_span[1]:
        out["interval_x8_y1"] = interval_report_x8_y1(g_lo, g_hi)
    return out
