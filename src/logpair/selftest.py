"""Hermetic acceptance checks, one per shipped criterion.

Every check is deterministic (fixed RNG seeds, no network, no clock
dependence beyond coarse runtime ceilings) and exact.  The CLI
`selftest` subcommand and the acceptance test suite both run these,
printing one line per criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .dualgraph import DualGraph, Edge, Vertex
from .errors import NotDecomposableError
from .examples import degenerate_plane_config, run_example, sextic_config
from .invariants import (genus_bound, invariant_report,
                         main_theorem_predicate)
from .lattice import DivisorClass, SurfaceModel, blow_up_transform
from .peeling import bark
from .pencil import analyze_adjoint_system
from .search import (FamilyInstance, evaluate_constraints,
                     reduced_bounds_x8_y1, run_search)
from .zariski import verify_decomposition, zariski_decompose


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"criterion {self.number} [{status}] {self.name}: "
                f"{self.detail} ({self.elapsed:.3f}s)")


class _Check:
    """Collects mismatches; empty means the criterion passed."""

    def __init__(self):
        self.problems: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def equal(self, got, want, label: str) -> None:
        if got != want:
            self.problems.append(f"{label}: got {got!r}, want {want!r}")

    def note(self, message: str) -> None:
        self.notes.append(message)

    def detail(self) -> str:
        if self.problems:
            return "; ".join(self.problems)
        return "; ".join(self.notes) if self.notes else "ok"


# -- criterion 1: first worked configuration end-to-end --------------------

def check_ex2_pencil(c: _Check) -> None:
    t0 = time.perf_counter()
    report = run_example("ex2")
    elapsed = time.perf_counter() - t0
    m = SurfaceModel.plane_blowup(8)
    p = report["pencil"]
    c.equal(p.big_margin, Fraction(1), "bigness margin")
    c.expect(p.big is True, "adjoint class not reported big")
    c.equal(len(p.fixed_parts), 1, "fixed part count")
    if p.fixed_parts:
        fp = p.fixed_parts[0]
        c.equal(fp.cls, m.plane_class(2, [1] * 7), "fixed part class")
        c.equal(fp.pairing, Fraction(-1), "fixed part pairing")
    c.equal(p.residual, m.plane_class(1, [0] * 7 + [1]), "residual class")
    c.equal(m.self_intersection(p.residual), Fraction(0),
            "residual square")
    c.equal(p.multiple, 1, "pencil multiple")
    c.equal(p.g, 0, "fiber genus")
    c.equal(p.b, 0, "base genus")
    c.equal(p.k, 4, "boundary meets fiber")
    c.expect(elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s")
    c.note(f"margin 1, pairing -1, residual H-E8, g=0, b=0, k=4, "
           f"{elapsed:.3f}s")


# -- criterion 2: invariants of the same configuration ---------------------

def check_ex2_invariants(c: _Check) -> None:
    model, boundary, graph, _ = sextic_config()
    pa_class = model.arithmetic_genus(boundary)
    pa_graph = graph.arithmetic_genus()
    c.equal(pa_class, Fraction(2), "genus by adjunction")
    c.equal(pa_graph, 2, "genus from the dual graph")
    rep = invariant_report(model, boundary, graph)
    inv = rep.invariants
    d_sq = rep.boundary_square
    c.equal(inv.c1bar_sq, Fraction(1), "c1bar_sq")
    c.equal(inv.c2bar, Fraction(5), "c2bar")
    c.equal(inv.l, 4, "edge multiplicity total")
    c.equal(inv.chi_bar, Fraction(2), "chi_bar")
    c.equal(inv.e_open, Fraction(5), "open Euler number")
    c.equal(d_sq, Fraction(4), "boundary square")
    lhs = inv.c1bar_sq + inv.c2bar + 6 * (inv.pa_D - 1) + d_sq + 2 * inv.l
    c.equal(lhs, Fraction(24), "identity left side")
    c.expect(rep.noether_holds, "degree identity fails")
    c.expect(not rep.bark.coefficients, "bark should be empty here")
    c.expect(rep.bmy_holds, "surface inequality fails")
    c.note("p_a=2 both ways, 1+5+6+4+8=24=12*2, e_open=c2bar=5, "
           "inequality 1/3<=5 holds")


# -- criterion 3: peeling closed forms plus randomized bound ---------------

def _star_graph(center_genus: int, center_self: int,
                arms: list[list[int]]) -> DualGraph:
    vertices = [Vertex("X0", center_genus, center_self)]
    edges = []
    for ai, arm in enumerate(arms):
        prev = "X0"
        for vi, s in enumerate(arm):
            vid = f"A{ai}v{vi}"
            vertices.append(Vertex(vid, 0, s))
            edges.append(Edge(prev, vid, 1))
            prev = vid
    return DualGraph(vertices, edges)


def _rod_graph(selfs: list[int]) -> DualGraph:
    vertices = [Vertex(f"R{i}", 0, s) for i, s in enumerate(selfs)]
    edges = [Edge(f"R{i}", f"R{i+1}", 1) for i in range(len(selfs) - 1)]
    return DualGraph(vertices, edges)


def random_bark_graph(rng: random.Random) -> DualGraph:
    kind = rng.choice(["rod", "rods", "twigs", "fork"])
    def s() -> int:
        return rng.randint(-5, -2)
    if kind == "rod":
        return _rod_graph([s() for _ in range(rng.randint(1, 6))])
    if kind == "rods":
        a = _rod_graph([s() for _ in range(rng.randint(1, 4))])
        b = [Vertex(f"S{i}", 0, v) for i, v in
             enumerate(s() for _ in range(rng.randint(1, 4)))]
        edges = [Edge(f"S{i}", f"S{i+1}", 1) for i in range(len(b) - 1)]
        return DualGraph(list(a.vertices) + b, list(a.edges) + edges)
    if kind == "twigs":
        # genus-1 hub keeps the center out of every segment, so the
        # arms are maximal twigs
        arms = [[s() for _ in range(rng.randint(1, 4))] for _ in range(3)]
        return _star_graph(1, s(), arms)
    arms = [[s() for _ in range(rng.randint(1, 2))] for _ in range(3)]
    return _star_graph(0, s(), arms)


def check_peeling(c: _Check) -> None:
    # single (-d) twig: the solve gives tip coefficient 1/d, hence a
    # boundary-sharp multiplicity of 1 - 1/d; both are checked
    for d in range(2, 10):
        g = _star_graph(1, -2, [[-d], [-2], [-2]])
        bk = bark(g)
        c.equal(bk.coefficients.get("A0v0"), Fraction(1, d),
                f"(-{d}) twig tip coefficient")
        c.equal(bk.sharp_coefficients.get("A0v0"), 1 - Fraction(1, d),
                f"(-{d}) twig sharp multiplicity")
    # chain of r (-2)s attached as a twig: the free end (the arm vertex
    # farthest from the hub) carries coefficient r/(r+1)
    for r in range(1, 9):
        g = _star_graph(1, -2, [[-2] * r, [-2], [-2]])
        bk = bark(g)
        c.equal(bk.coefficients.get(f"A0v{r - 1}"), Fraction(r, r + 1),
                f"(-2)-chain length {r} tip coefficient")
    # four (-2)s in a three-armed star
    g = _star_graph(0, -2, [[-2], [-2], [-2]])
    bk = bark(g)
    c.equal(sorted(bk.coefficients.values()),
            [Fraction(1)] * 4, "star fork coefficients")
    c.equal(bk.bark_square, Fraction(-2), "star fork square")
    c.equal(bk.tips, 3, "star fork tips")
    c.expect(bk.bound_ok, "star fork bound")
    rng = random.Random(20817)
    count = 0
    while count < 200:
        g = random_bark_graph(rng)
        bk = bark(g)
        if not bk.coefficients:
            continue
        count += 1
        c.expect(all(0 < a <= 1 for a in bk.coefficients.values()),
                 "bark coefficient outside (0,1]")
        c.expect(bk.bark_square >= -bk.tips,
                 f"bound violated: {bk.bark_square} < -{bk.tips}")
    c.note("closed forms for d=2..9 and r=1..8; bound held on "
           f"{count} randomized admissible graphs")


# -- criterion 4: decomposition properties --------------------------------

def random_zariski_input(rng: random.Random) -> tuple[
        SurfaceModel, DivisorClass, list[DivisorClass]]:
    n = rng.randint(1, 6)
    m = SurfaceModel.plane_blowup(n)
    x = m.divisor([rng.randint(0, 5)]
                  + [rng.randint(-3, 3) for _ in range(n)])
    pool: list[DivisorClass] = [m.exceptional(i) for i in range(1, n + 1)]
    if n >= 2:
        for i in range(1, n):
            pool.append(m.basis_class(0) - m.exceptional(i)
                        - m.exceptional(i + 1))
    rng.shuffle(pool)
    return m, x, pool[:rng.randint(1, min(8, len(pool)))]


def check_zariski(c: _Check) -> None:
    m = SurfaceModel.plane_blowup(1)
    x = m.divisor([1, 2])
    e1 = m.exceptional(1)
    z = zariski_decompose(m, x, [e1])
    # solving (X - a*E1).E1 = 0 forces a = 2; the split H+E1 / E1
    # sometimes quoted for this input fails its own orthogonality test
    c.equal(z.positive, m.divisor([1, 0]), "positive part of H+2E1")
    c.equal(z.negative, m.divisor([0, 2]), "negative part of H+2E1")
    c.expect(verify_decomposition(m, x, [e1], z).all_ok,
             "H+2E1 output fails a defining property")
    rng = random.Random(41926)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        if attempts > 4000:
            c.expect(False, "could not draw 100 decomposable inputs")
            break
        model, cls, cands = random_zariski_input(rng)
        try:
            z = zariski_decompose(model, cls, cands)
        except NotDecomposableError:
            continue
        done += 1
        rep = verify_decomposition(model, cls, cands, z)
        c.expect(rep.all_ok, f"defining property failed on draw {done}")
        perm = cands[:]
        rng.shuffle(perm)
        z2 = zariski_decompose(model, cls, perm)
        c.expect(z2.positive == z.positive and z2.negative == z.negative,
                 f"order dependence on draw {done}")
        z3 = zariski_decompose(model, z.positive, cands)
        c.expect(z3.negative.is_zero(),
                 f"idempotence failed on draw {done}")
    c.note(f"H+2E1 -> P=H, N=2E1 (all four properties re-verified); "
           f"{done} randomized inputs order-independent and idempotent")


# -- criterion 5: second family sweep --------------------------------------

def check_ex3_sweep(c: _Check) -> None:
    for a in range(2, 7):
        model, boundary, _, candidates = degenerate_plane_config(a)
        p = analyze_adjoint_system(model, boundary, candidates)
        c.equal(len(p.fixed_parts), 1, f"a={a}: fixed part count")
        if p.fixed_parts:
            c.equal(p.fixed_parts[0].pairing, Fraction(-1),
                    f"a={a}: fixed part pairing")
        want_res = model.plane_class(2 * a - 2, [2 * a - 2])
        c.equal(p.residual, want_res, f"a={a}: residual")
        c.equal(p.multiple, 2 * a - 2, f"a={a}: multiple")
        c.equal(p.k, 3, f"a={a}: computed k")
        c.expect(p.k != 3 * a, f"a={a}: discrepancy flag vanished")
    c.note("pairing -1 for a=2..6, residual (2a-2)(H-E0), computed k=3 "
           "vs reference 3a flagged")


# -- criterion 6: ruled family sweep and grid search -----------------------

def check_family_search(c: _Check) -> None:
    for g in range(2, 31):
        for e in range(0, g + 1):
            inst = FamilyInstance(g, e, 8, 1)
            m = inst.model()
            f = inst.fiber(m)
            c.expect(m.self_intersection(f) == 0,
                     f"(g,e)=({g},{e}): fiber square nonzero")
            c.expect(m.arithmetic_genus(f) == g,
                     f"(g,e)=({g},{e}): fiber genus wrong")
    for g in range(9, 19):
        for e in range(0, 10):
            for x in range(5, 10):
                for y in range(0, 5):
                    inst = FamilyInstance(g, e, x, y)
                    m = inst.model()
                    got = m.intersect(inst.boundary(m), inst.fiber(m))
                    want = x * (g + 1 + e) + 2 * y - 8 * g - 8
                    c.expect(got == want, f"pairing formula off at "
                                          f"(g,e,x,y)=({g},{e},{x},{y})")
    # two derivations of each x=8, y=1 threshold: the e-window, which
    # reduced_bounds_x8_y1 reads, and the per-point evaluator
    for g in range(8, 41):
        b = reduced_bounds_x8_y1(g)
        for e in range(0, g + 1):
            q = evaluate_constraints(FamilyInstance(g, e, 8, 1)).inequalities
            c.expect(q["big"] == (e > b["big_lower"]),
                     f"big reduction differs at g={g}, e={e}")
            c.expect(q["effective"] == (e > b["effective_lower"]),
                     f"effective reduction differs at g={g}, e={e}")
            c.expect(q["fixed_part"] == (e < b["fixed_upper"]),
                     f"fixed-part reduction differs at g={g}, e={e}")
            c.expect(q["dim_positive"] == (e > b["dim_lower"]),
                     f"dimension reduction differs at g={g}, e={e}")
    ref = evaluate_constraints(FamilyInstance(10, 3, 8, 1))
    c.expect(not ref.inequalities["dim_positive"],
             "(10,3) dimension inequality unexpectedly holds")
    c.expect(ref.construction_ok,
             "(10,3) construction inequalities should hold")
    t0 = time.perf_counter()
    table = run_search((8, 40), (5, 12), (0, 5))
    elapsed = time.perf_counter() - t0
    c.expect(elapsed < 5.0, f"grid runtime {elapsed:.3f}s exceeds 5s")
    c.expect(table["reference_claim"]["discrepancy"],
             "reference instance discrepancy not flagged")
    small = run_search((10, 10), (8, 8), (1, 1))
    c.equal(small["row_count"], 1, "10/8/1 row count")
    if small["rows"]:
        row = small["rows"][0]
        c.expect(row.inequalities["dim_positive"] is False,
                 "10/8/1 row should fail the dimension inequality")
    c.note(f"fiber checks 0<=e<=g<=30, pairing grid 10x10x5x5, "
           f"reductions on g in [8,40], (10,3) flagged, grid in "
           f"{elapsed:.3f}s")


# -- criterion 7: genus invariance under point blow-up ---------------------

def check_blowup_invariance(c: _Check) -> None:
    rng = random.Random(77113)
    for i in range(100):
        n = rng.randint(0, 5)
        if rng.random() < 0.5:
            m = SurfaceModel.plane_blowup(n)
            coeffs = [rng.randint(-4, 6)] + [rng.randint(-4, 4)
                                             for _ in range(n)]
        else:
            m = SurfaceModel.hirzebruch(rng.randint(0, 3), n)
            coeffs = [rng.randint(-4, 6), rng.randint(-4, 6)] + [
                rng.randint(-4, 4) for _ in range(n)]
        cls = m.divisor(coeffs)
        mult = rng.choice([1, 2])
        m2, (cls2,) = blow_up_transform(m, [cls], [mult])
        # boundary transform keeps p_a: strict transform plus (m-1)
        # copies of the new curve is the pullback minus one copy
        adjusted = cls2 + (mult - 1) * m2.exceptional(m2.num_points)
        c.expect(m2.arithmetic_genus(adjusted) == m.arithmetic_genus(cls),
                 f"genus drifted on draw {i} (mult {mult})")
    c.note("p_a preserved on 100 random transforms, mult 1 and 2")


# -- criterion 8: classification predicates and the genus cap --------------

def check_predicates(c: _Check) -> None:
    # the window clause constrains nothing at g+k=2; at g+k=3 the
    # boundary clause allows base genus at most 2
    for g, k, b in [(1, 1, 2), (1, 1, 3), (1, 1, 5), (1, 2, 2),
                    (2, 1, 2)]:
        rep = main_theorem_predicate(g, k, b, h1_log=0)
        c.expect(rep.passed, f"({g},{k},{b}) should pass")
    rep = main_theorem_predicate(2, 2, 3)
    c.expect(not rep.passed, "(2,2,3) should fail")
    c.expect(rep.window_holds is False, "(2,2,3) window clause")
    c.equal(genus_bound(2, Fraction(4)), Fraction(3), "cap at (2,4)")
    c.equal(genus_bound(1, Fraction(0)), Fraction(1), "cap at (1,0)")
    c.note("window passes for (1,1,b in {2,3,5}), (1,2,2), (2,1,2); "
           "fails for (2,2,3); caps (2,4)->3 and (1,0)->1")


CRITERIA: list[tuple[int, str, Callable[[_Check], None]]] = [
    (1, "first configuration end-to-end", check_ex2_pencil),
    (2, "first configuration invariants", check_ex2_invariants),
    (3, "peeling suite", check_peeling),
    (4, "decomposition suite", check_zariski),
    (5, "second family sweep", check_ex3_sweep),
    (6, "ruled family and grid search", check_family_search),
    (7, "blow-up genus invariance", check_blowup_invariance),
    (8, "classification predicates", check_predicates),
]


def run_all(only: Optional[list[int]] = None) -> list[CriterionResult]:
    results = []
    for num, name, fn in CRITERIA:
        if only is None or num in only:
            c, t0 = _Check(), time.perf_counter()
            fn(c)
            results.append(CriterionResult(num, name, not c.problems,
                                           c.detail(),
                                           time.perf_counter() - t0))
    return results
