"""Numerical invariants of an open surface S - D and their identities.

All quantities are exact rationals.  The boundary enters twice, as a
lattice class and as a dual graph, and its arithmetic genus and square
are computed from both presentations and cross-checked before any
invariant is reported.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .dualgraph import DualGraph
from .errors import InputError, number_text
from .lattice import DivisorClass, HodgeData, SurfaceModel
from .peeling import BarkResult
# bark through the module, for the reason given in zariski.py
from . import peeling


class LogInvariants(NamedTuple):
    c1bar_sq: Fraction  # (K+D)^2
    c2bar: Fraction     # e(S) + 2(p_a(D) - 1 - l)
    pa_D: int
    l: int              # total edge multiplicity of the boundary graph
    chi_bar: Fraction   # chi(O_S) + (K+D).D / 2
    e_open: Fraction    # topological Euler number of S - D
    pg_log: int
    h1_log: int
    m: int              # connected components of the boundary


def log_chern(
    model: SurfaceModel,
    boundary: DivisorClass,
    graph: DualGraph,
) -> LogInvariants:
    """Log invariants of S - D, reading each presentation of D once.

    The class gives (K+D)^2, (K+D).D and D^2; the graph gives p_a(D),
    l, D^2 and the component count m.  p_a(D) and D^2 must agree
    between the two.  Every model has q = p_g = 0, where the log genus
    collapses to pg_log = p_a(D) + m - 1 and h1_log = m - 1.
    """
    hodge = model.hodge
    if boundary.is_zero():
        raise InputError("boundary class must be nonzero")
    if not boundary.is_integral():
        raise InputError("boundary class must be integral")
    adjoint = model.canonical_class() + boundary
    adjoint_d = model.intersect(adjoint, boundary)
    pa_class = adjoint_d / 2 + 1  # adjunction
    pa = graph.arithmetic_genus()
    if pa_class != pa:
        raise InputError(
            f"inconsistent arithmetic genus sources: adjunction gives "
            f"{number_text(pa_class)}, the dual graph gives "
            f"{number_text(pa)}")
    if not graph.vertices:
        raise InputError("empty boundary graph")
    l = graph.total_edge_multiplicity
    d_sq_class = model.intersect(boundary, boundary)
    if d_sq_class != graph.square:
        raise InputError(
            f"inconsistent boundary square sources: the class gives "
            f"{number_text(d_sq_class)}, the dual graph gives "
            f"{number_text(graph.square)}")
    c2bar = Fraction(hodge.euler_e + 2 * (pa - 1 - l))
    m = len(graph.components())
    return LogInvariants(
        c1bar_sq=model.intersect(adjoint, adjoint),
        c2bar=c2bar,
        pa_D=pa,
        l=l,
        chi_bar=1 - hodge.q + hodge.p_g + adjoint_d / 2,
        e_open=c2bar,
        pg_log=pa + m - 1,
        h1_log=m - 1,
        m=m,
    )


def noether_check(inv: LogInvariants, d_sq) -> bool:
    """c1bar^2 + c2bar + 6(p_a - 1) + D^2 + 2l == 12 chi_bar."""
    lhs = (inv.c1bar_sq + inv.c2bar + 6 * (inv.pa_D - 1)
           + Fraction(d_sq) + 2 * inv.l)
    return lhs == 12 * inv.chi_bar


class EulerBoundReport(NamedTuple):
    hypothesis_holds: bool          # p_a <= 2(l+q) + 1 - h11
    hypothesis_lhs: int
    hypothesis_rhs: int
    chi_omega_log: int              # rhs - lhs
    conclusion_holds: bool          # e_open <= 2 pg_log + 1
    strong_conclusion_holds: bool   # e_open <= pg_log + 1 (p_g = 0)


def euler_bound_check(inv: LogInvariants,
                      hodge: HodgeData) -> EulerBoundReport:
    """Bound on the open Euler number via the log genus.

    The conclusion values are evaluated even when the hypothesis fails,
    so callers can see how tight each side is; nothing is asserted.
    """
    lhs = inv.pa_D
    rhs = 2 * (inv.l + hodge.q) + 1 - hodge.h11
    return EulerBoundReport(
        hypothesis_holds=lhs <= rhs,
        hypothesis_lhs=lhs,
        hypothesis_rhs=rhs,
        chi_omega_log=rhs - lhs,
        conclusion_holds=inv.e_open <= 2 * inv.pg_log + 1,
        strong_conclusion_holds=inv.e_open <= inv.pg_log + 1,
    )


def bmy_check(p_sq, n_sq, c2bar) -> bool:
    """P^2 / 3 <= c2bar - N^2 / 4 for a decomposition K+D = P + N."""
    return Fraction(p_sq) / 3 <= Fraction(c2bar) - Fraction(n_sq) / 4


class InvariantReport(NamedTuple):
    invariants: LogInvariants
    boundary_square: int
    euler_bound: EulerBoundReport
    bark: BarkResult                # its gram_square is N^2
    p_sq: Fraction                  # P^2 = (K+D)^2 - N^2
    noether_holds: bool
    bmy_holds: bool


def invariant_report(
    model: SurfaceModel,
    boundary: DivisorClass,
    graph: DualGraph,
) -> InvariantReport:
    """Log invariants of S - D with every identity check on them.

    The negative part N of K+D is the bark of the boundary graph,
    empty or not, and P is the orthogonal remainder, so
    P^2 = (K+D)^2 - N^2.  D^2 is the graph's, checked by `log_chern`.
    """
    inv = log_chern(model, boundary, graph)
    bk = peeling.bark(graph)
    p_sq = inv.c1bar_sq - bk.gram_square
    return InvariantReport(
        invariants=inv,
        boundary_square=graph.square,
        euler_bound=euler_bound_check(inv, model.hodge),
        bark=bk,
        p_sq=p_sq,
        noether_holds=noether_check(inv, graph.square),
        bmy_holds=bmy_check(p_sq, bk.gram_square, inv.c2bar),
    )


def genus_bound(n: int, p_sq) -> Fraction:
    """(n+2)/(2 n^2) * P^2 + 1, the fiber genus cap for an n-section."""
    if not isinstance(n, int) or n < 1:
        raise InputError("the section multiplicity n must be an integer >= 1")
    return Fraction(n + 2, 2 * n * n) * Fraction(p_sq) + 1


class TheoremCheck(NamedTuple):
    applicable_branch: bool         # b >= 2, so the g+k window applies
    window_holds: Optional[bool]    # 2 <= g+k <= 3 (None when b < 2)
    boundary_case: bool             # g+k == 3
    # the g+k = 3 clause, None unless b >= 2 and g+k == 3
    boundary_b_holds: Optional[bool]   # b <= 2
    boundary_h1_holds: Optional[bool]  # h1_log == 0 (None if not given)
    passed: bool
    note: str


_FORM_NOTE = (
    "implements the g+k form (b >= 2 forces 2 <= g+k <= 3, and g+k = 3 "
    "forces b <= 2 with vanishing h1); a differently normalized 2g+k "
    "form (3 <= 2g+k <= 9, boundary 2g+k <= 6) circulates for the same "
    "bound and is not reconciled here"
)


def main_theorem_predicate(
    g: int,
    k: int,
    b: int,
    h1_log: Optional[int] = None,
) -> TheoremCheck:
    """Check a fibered pair's (fiber genus g, boundary meeting number
    k = D.F, base curve genus b) triple against the classification
    window."""
    if k <= 0:
        raise InputError("the boundary must meet the fiber: k > 0 required")
    if g < 0 or b < 0:
        raise InputError("g and b must be nonnegative")
    applicable = b >= 2
    window = (2 <= g + k <= 3) if applicable else None
    boundary = (g + k == 3)
    # the g+k = 3 clause is part of the b >= 2 statement; below it the
    # theorem says nothing
    clause = applicable and boundary
    b_ok = (b <= 2) if clause else None
    h1_ok = (h1_log == 0) if (clause and h1_log is not None) else None
    passed = (window is not False and b_ok is not False
              and h1_ok is not False)
    return TheoremCheck(
        applicable_branch=applicable,
        window_holds=window,
        boundary_case=boundary,
        boundary_b_holds=b_ok,
        boundary_h1_holds=h1_ok,
        passed=passed,
        note=_FORM_NOTE,
    )
