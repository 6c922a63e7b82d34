"""Peeling: bark coefficients, squares and the sharp boundary."""

import json
import pathlib
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from logpair import (DualGraph, Edge, SurfaceModel, Vertex,
                     analyze_adjoint_system, bark, invariant_report,
                     zariski_decompose)
from logpair.dualgraph import bark_rhs
from logpair.examples import (_base_report, degenerate_plane_config,
                               sextic_config)
from logpair.jsonio import parse_graph, parse_model
from logpair.linalg import is_negative_definite, solve_linear
from logpair.selftest import random_bark_graph

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def star(center_self, arms, center_genus=0):
    vs = [Vertex("X", center_genus, center_self)]
    es = []
    for ai, arm in enumerate(arms):
        prev = "X"
        for vi, s in enumerate(arm):
            vid = f"A{ai}.{vi}"
            vs.append(Vertex(vid, 0, s))
            es.append(Edge(prev, vid))
            prev = vid
    return DualGraph(vs, es)


def test_single_minus_d_twig_closed_form():
    # one vertex of square -d hanging off a branch vertex: the defining
    # equation is -d * a = -2 + 1, so a = 1/d and the sharp weight is 1 - 1/d
    for d in range(2, 10):
        g = star(-2, [[-d], [-2], [-2]], center_genus=1)
        bk = bark(g)
        assert bk.coefficients["A0.0"] == Fraction(1, d)
        assert bk.sharp_coefficients["A0.0"] == 1 - Fraction(1, d)


def test_minus_two_chain_closed_form():
    # tridiagonal solve gives a_i = (r+1-i)/(r+1) from the free end inward
    for r in range(1, 9):
        g = star(-2, [[-2] * r, [-2], [-2]], center_genus=1)
        bk = bark(g)
        free_end = f"A0.{r - 1}"
        hub_side = "A0.0"
        assert bk.coefficients[free_end] == Fraction(r, r + 1)
        assert bk.coefficients[hub_side] == Fraction(1, r + 1)


def test_four_vertex_star():
    bk = bark(star(-2, [[-2], [-2], [-2]]))
    assert sorted(bk.coefficients.values()) == [1, 1, 1, 1]
    assert bk.bark_square == -2
    assert bk.gram_square == -2
    assert bk.tips == 3
    assert bk.bound_ok


def test_isolated_rod_two_squares():
    # an isolated (-3) vertex: a = 2/3 from -3a = -2; the quadratic form
    # gives -4/3 while the tip-weighted count treats it as one tip of
    # weight -1, giving -2/3 >= -1
    g = DualGraph([Vertex("R", 0, -3)])
    bk = bark(g)
    assert bk.coefficients["R"] == Fraction(2, 3)
    assert bk.gram_square == Fraction(-4, 3)
    assert bk.bark_square == Fraction(-2, 3)
    assert bk.tips == 1
    assert bk.bound_ok


def test_two_vertex_rod():
    # rod (-2)-(-3): system [[-2,1],[1,-3]] a = (-1,-1); det 5,
    # a = (4/5, 3/5); both ends are tips so Bk^2 = -a_0 - a_1 = -7/5
    g = DualGraph([Vertex("P", 0, -2), Vertex("Q", 0, -3)],
                  [Edge("P", "Q")])
    bk = bark(g)
    assert bk.coefficients["P"] == Fraction(4, 5)
    assert bk.coefficients["Q"] == Fraction(3, 5)
    assert bk.bark_square == Fraction(-7, 5)
    assert bk.gram_square == Fraction(-7, 5)
    assert bk.tips == 2
    assert bk.bound_ok


def test_minus_one_vertex_contributes_nothing():
    g = DualGraph([Vertex("R", 0, -1)])
    bk = bark(g)
    assert bk.coefficients == {}
    assert bk.bark_square == 0
    assert bk.sharp_coefficients["R"] == 1


def test_fork_with_large_coefficient_demoted():
    # (-2) hub with three (-2) arms of length 2 is a semidefinite star:
    # the Gram matrix is singular, so the fork is rejected and its arms
    # are evaluated as twigs instead
    g = star(-2, [[-2, -2], [-2, -2], [-2, -2]])
    bk = bark(g)
    kinds = {s.kind for s in bk.report.admissible_segments}
    assert kinds == {"twig"}
    assert len(bk.report.admissible_segments) == 3
    assert all(0 < a <= 1 for a in bk.coefficients.values())
    assert bk.bound_ok


@pytest.mark.xfail(
    strict=True,
    reason="the README says an inadmissible fork falls through to its "
           "twigs; a negative definite star demoted by its coefficient "
           "range offers none, so its (-3) arms, which peel as 1/3 each "
           "under a genus-1 hub, are not peeled at all")
def test_fork_demoted_by_coefficients_falls_through_to_twigs():
    bk = bark(star(-2, [[-3], [-3], [-3]]))
    assert bk.coefficients == {f"A{i}.0": Fraction(1, 3) for i in range(3)}


def sharp_boundary_class(m, g, result):
    """D# = sum over components of (1 - bark coefficient) * class."""
    total = m.zero()
    for v in g.vertices:
        total = total + result.sharp_coefficients[v.id] * g.class_map[v.id]
    return total


def sharp_orthogonality_check(m, g, result) -> bool:
    """(K + D#) pairs to zero with every bark-support component.

    Checked through the linear-system residual always, and through direct
    lattice pairings as well whenever the graph carries classes.
    """
    for seg in result.report.admissible_segments:
        ids = list(seg.vertices)
        gram = g.gram(ids)
        rhs = bark_rhs(g, ids)
        coeffs = [result.coefficients[v] for v in ids]
        for j in range(len(ids)):
            lhs = sum(coeffs[i] * gram[i][j] for i in range(len(ids)))
            if lhs != rhs[j]:
                return False
    if g.class_map is not None:
        adjoint = m.canonical_class() + sharp_boundary_class(m, g, result)
        for vid in result.coefficients:
            if m.intersect(adjoint, g.class_map[vid]) != 0:
                return False
    return True


def test_sharp_boundary_orthogonality():
    m = SurfaceModel.plane_blowup(3)
    # boundary: a conic through all three points (its own component)
    # plus a rod of two root classes E1-E2, E2-E3
    c = m.plane_class(2, [1, 1, 1])
    d1 = m.exceptional(1) - m.exceptional(2)
    d2 = m.exceptional(2) - m.exceptional(3)
    g = DualGraph(
        [Vertex("C", 0, 1), Vertex("D1", 0, -2), Vertex("D2", 0, -2)],
        [Edge("D1", "D2")],
        model=m,
        class_map={"C": c, "D1": d1, "D2": d2},
    )
    bk = bark(g)
    # a rod of two (-2)s peels off entirely
    assert bk.coefficients == {"D1": Fraction(1), "D2": Fraction(1)}
    assert sharp_orthogonality_check(m, g, bk)
    sharp = sharp_boundary_class(m, g, bk)
    assert sharp == c
    adjoint = m.canonical_class() + sharp
    assert m.intersect(adjoint, d1) == 0
    assert m.intersect(adjoint, d2) == 0


# -- the bark against the lattice N -------------------------------------
#
# In the peeling theory the bark is the negative part of K + D: K + D =
# (K + D#) + Bk(D), with K + D# pairing to zero with every bark-support
# component.  The Zariski decomposition of K + D against the boundary
# components is a second route to it, through the lattice rather than
# the graph, and the two must give the same coefficients.

def _bark_and_lattice_n(model, g) -> tuple[dict, dict]:
    """bark(g)'s coefficients, and N's coefficients in the Zariski
    decomposition of K + D against the components, by vertex id."""
    ids, classes = list(g.class_map), list(g.class_map.values())
    adjoint = model.canonical_class() + sum(classes, model.zero())
    z = zariski_decompose(model, adjoint, classes)
    return bark(g).coefficients, dict(
        zip([ids[i] for i in z.support], z.coefficients))


def _sextic_fixture():
    doc = json.loads((FIXTURES / "sextic_graph.json").read_text())
    return parse_model(doc["model"]), parse_graph(doc)


# ROADMAP K: C3 meets C2 in three points, so beta(C3) = C3.(D - C3) = 4
# and C1 is a maximal (-3) twig with bark C1/3, the N of K + D; the
# graph counts two neighbours of C3 and leaves C1 out of the bark
_MULTIPLE_EDGE = pytest.mark.xfail(
    strict=True,
    reason="the branching number counts distinct neighbours, not "
           "intersection multiplicity: beta(C3) is 4, so C1 is a (-3) "
           "twig whose bark C1/3 is the lattice N of K + D, while bark "
           "is empty")


# each config gives (model, graph); [::2] takes them from a bundled
# example's (model, boundary, graph, candidates)
@pytest.mark.parametrize("config", [
    pytest.param(_sextic_fixture, marks=_MULTIPLE_EDGE, id="sextic-fixture"),
    pytest.param(lambda: sextic_config()[::2], marks=_MULTIPLE_EDGE,
                 id="ex2"),
    *(pytest.param(lambda a=a: degenerate_plane_config(a)[::2],
                   id=f"ex3-a{a}") for a in range(2, 7)),
])
def test_bark_is_the_lattice_negative_part(config):
    got, want = _bark_and_lattice_n(*config())
    assert got == want


def _exceptional_rods(rng):
    """Disjoint rods on a plane blow-up: vertex i of a rod is
    E_p(i) - E_p(i+1) minus m_i further points of its own, a rational
    curve of square -2 - m_i that meets the next vertex once."""
    vertices, edges, classes, rows = [], [], {}, []
    n = 0
    for r in range(rng.randint(1, 3)):
        k = rng.randint(1, 4)
        heads = list(range(n, n + k + 1))
        n += k + 1
        for i in range(k):
            extra = list(range(n, n + rng.choice((0, 0, 1, 2, 3))))
            n += len(extra)
            rows.append((f"R{r}.{i}", heads[i], [heads[i + 1], *extra]))
            vertices.append(Vertex(f"R{r}.{i}", 0, -2 - len(extra)))
            if i:
                edges.append(Edge(f"R{r}.{i - 1}", f"R{r}.{i}"))
    model = SurfaceModel.plane_blowup(n)
    for vid, plus, minus in rows:
        coeffs = [0] * (n + 1)
        coeffs[1 + plus] = 1
        for j in minus:
            coeffs[1 + j] = -1
        classes[vid] = model.divisor(coeffs)
    return model, DualGraph(vertices, edges, model=model, class_map=classes)


def test_bark_of_exceptional_rods_is_the_lattice_negative_part():
    rng = random.Random("bark-rods")
    peeled = 0
    for _ in range(200):
        got, want = _bark_and_lattice_n(*_exceptional_rods(rng))
        assert got == want
        peeled += len(got)
    assert peeled > 0


def _graph_of(model, classes):
    """(model, the dual graph of rational curves with these classes):
    squares and edges, with their multiplicities, read from the
    pairings."""
    ids = list(classes)
    vertices = [Vertex(v, 0, int(model.intersect(classes[v], classes[v])))
                for v in ids]
    edges = [Edge(u, v, int(model.intersect(classes[u], classes[v])))
             for i, u in enumerate(ids) for v in ids[i + 1:]
             if model.intersect(classes[u], classes[v])]
    return model, DualGraph(vertices, edges, model=model, class_map=classes)


def _root_fork(n, extra_on=()):
    """The E_n roots on a plane blow-up: R_i = E_i - E_(i+1) for i < n
    and T = H - E1 - E2 - E3, which meets R3 alone, so the graph is a
    rod for n = 4 and a fork centred on R3 from n = 5 on.  Each vertex
    named in `extra_on` passes through one more point of its own, which
    lowers its square by one and keeps it rational."""
    total = n + len(extra_on)
    model = SurfaceModel.plane_blowup(total)
    zeros = [0] * total
    classes = {}
    for i in range(1, n):
        mults = list(zeros)
        mults[i - 1], mults[i] = -1, 1
        classes[f"R{i}"] = model.plane_class(0, mults)
    classes["T"] = model.plane_class(1, [1, 1, 1] + zeros[3:])
    for j, vid in enumerate(extra_on):
        mults = list(zeros)
        mults[n + j] = 1
        classes[vid] = classes[vid] + model.plane_class(0, mults)
    return _graph_of(model, classes)


def _root_fork_draws():
    """n = 4..12 as they are, then 200 seeded draws with one to three
    arm vertices through a further point each."""
    draws = [_root_fork(n) for n in range(4, 13)]
    rng = random.Random("bark-root-forks")
    for _ in range(200):
        n = rng.randint(4, 12)
        arms = [f"R{i}" for i in range(1, n) if i != 3] + ["T"]
        draws.append(_root_fork(
            n, [rng.choice(arms) for _ in range(rng.randint(1, 3))]))
    return draws


def _demoted(g) -> bool:
    """Whether the graph holds a negative definite fork that its bark
    coefficient range demotes (README disagreement 4)."""
    return any(s.kind == "fork" and s.reason.startswith("bark coefficient")
               for s in bark(g).report.excluded)


def test_bark_of_root_forks_is_the_lattice_negative_part():
    kinds = set()
    for model, g in _root_fork_draws():
        if _demoted(g):
            continue  # the strict xfail below
        got, want = _bark_and_lattice_n(model, g)
        assert got == want
        kinds |= {s.kind for s in bark(g).report.admissible_segments}
    assert kinds == {"rod", "fork", "twig"}


def test_unperturbed_root_forks_peel_as_one_fork_or_three_twigs():
    for n in range(5, 13):
        segments = bark(_root_fork(n)[1]).report.admissible_segments
        if n <= 8:
            assert [s.kind for s in segments] == ["fork"]
        else:
            assert [(s.kind, s.attach) for s in segments] == [
                ("twig", "R3")] * 3


@pytest.mark.xfail(
    strict=True,
    reason="the README says an inadmissible fork falls through to its "
           "twigs; a negative definite E_n fork demoted by its coefficient "
           "range offers none, while the lattice N of K + D is the bark "
           "of its three twigs")
def test_root_forks_demoted_by_coefficients_peel_as_the_lattice_n():
    demoted = [(model, g) for model, g in _root_fork_draws() if _demoted(g)]
    assert demoted
    for model, g in demoted:
        got, want = _bark_and_lattice_n(model, g)
        assert got == want


def _twig_past_a_double_edge(rng):
    """L = H and the conic Q = 2H - E1 - E2 - E3 - E4 meet in two points;
    a chain C_j = E_(4+j) - E_(5+j) of length 1-3 hangs off Q, and one
    chain vertex may pass through one more point."""
    length = rng.randint(1, 3)
    extra = rng.choice([None, *range(length)])
    total = 4 + length + 1 + (extra is not None)
    model = SurfaceModel.plane_blowup(total)
    zeros = [0] * total
    classes = {"L": model.plane_class(1, zeros),
               "Q": model.plane_class(2, [1, 1, 1, 1] + zeros[4:])}
    for j in range(length):
        mults = list(zeros)
        mults[3 + j], mults[4 + j] = -1, 1
        classes[f"C{j}"] = model.plane_class(0, mults)
    if extra is not None:
        mults = list(zeros)
        mults[-1] = 1
        classes[f"C{extra}"] += model.plane_class(0, mults)
    return _graph_of(model, classes)


# ROADMAP K: beta(Q) = Q.(D - Q) = 2 + 1 = 3, so the chain is a maximal
# twig off Q; the graph counts two neighbours of Q and leaves it out
@pytest.mark.xfail(
    strict=True,
    reason="the branching number counts distinct neighbours, not "
           "intersection multiplicity: beta(Q) is 3, so the chain off Q "
           "is a maximal twig whose bark is the lattice N of K + D, while "
           "bark is empty")
def test_bark_of_a_twig_past_a_double_edge_is_the_lattice_negative_part():
    rng = random.Random("bark-double-edge")
    for _ in range(50):
        got, want = _bark_and_lattice_n(*_twig_past_a_double_edge(rng))
        assert got == want


# -- the bark against the graph's own N ---------------------------------
#
# The graph alone gives both inputs of the Zariski decomposition of
# K + D over the boundary components: (K + D).C_i = 2g_i - 2 +
# sum_j mult(C_i, C_j) by adjunction, and the C_i.C_j themselves.  When
# the pair is almost minimal that N is Bk(D) (Fujita 1982; Miyanishi
# 2001, ch. 2), so the fixpoint below is a route to the bark that needs
# no model and shares `solve_linear` but none of the classifier's shape
# rules.  A rational (-1) vertex makes the pair not almost minimal, so
# graphs with one are left out: whether N is their bark is a question
# about minimality, not peeling.

def _graph_n(g) -> Optional[dict]:
    """N of K + D against the components, by vertex id, from the graph's
    genera, squares and multiplicities alone; None where the graph has no
    such N, as a support is not negative definite or a coefficient is
    negative."""
    ids = [v.id for v in g.vertices]
    gram = g.gram(ids)
    xc = [2 * v.genus - 2 + sum(row) - row[i]
          for i, (v, row) in enumerate(zip(g.vertices, gram))]
    active = [i for i, p in enumerate(xc) if p < 0]
    coeffs = []
    while active:
        support = [[gram[i][j] for j in active] for i in active]
        if not is_negative_definite(support):
            return None
        coeffs = solve_linear(support, [xc[i] for i in active])
        if min(coeffs) < 0:
            return None
        newly = [j for j, p in enumerate(xc) if j not in active
                 and p < sum(a * gram[i][j] for i, a in zip(active, coeffs))]
        if not newly:
            break
        active = sorted(active + newly)
    return {ids[i]: a for i, a in zip(active, coeffs) if a}


def test_bark_is_the_graph_negative_part():
    rng = random.Random("bark-graph-n")
    kinds = Counter()
    for _ in range(1000):
        g = random_bark_graph(rng)
        # its squares are -5..-2, so no draw has a rational (-1) vertex
        assert all(v.self_int != -1 for v in g.vertices)
        if _demoted(g):
            kinds["demoted"] += 1
            continue  # a known gap, below
        bk = bark(g)
        n = _graph_n(g)
        assert n is not None
        assert bk.coefficients == n
        kinds.update({s.kind for s in bk.report.admissible_segments})
    assert min(kinds[k] for k in ("rod", "twig", "fork", "demoted")) >= 10, \
        kinds


# where bark and the graph's N differ today, one fixed graph each
@pytest.mark.parametrize("g", [
    # ROADMAP K: L (1) meets Q (0) twice, and the (-2) tip C hangs off Q
    pytest.param(
        DualGraph([Vertex("L", 0, 1), Vertex("Q", 0, 0), Vertex("C", 0, -2)],
                  [Edge("L", "Q", 2), Edge("Q", "C")]),
        marks=pytest.mark.xfail(
            strict=True,
            reason="the branching number counts distinct neighbours, not "
                   "intersection multiplicity: beta(Q) is 3, so C is a "
                   "maximal twig whose bark C/2 is the graph's N of K + D, "
                   "while bark is empty"),
        id="multiple-edge"),
    # ROADMAP E: the same star as the fall-through test above
    pytest.param(
        star(-2, [[-3], [-3], [-3]]),
        marks=pytest.mark.xfail(
            strict=True,
            reason="a negative definite star demoted by its coefficient "
                   "range offers no twigs, while the graph's N of K + D is "
                   "the bark of its three (-3) arms, 1/3 each"),
        id="demoted-star"),
    # ROADMAP N: V2 (-2) - V0 (-3) - V1 (genus 2, square 0)
    pytest.param(
        DualGraph([Vertex("V2", 0, -2), Vertex("V0", 0, -3),
                   Vertex("V1", 2, 0)],
                  [Edge("V2", "V0"), Edge("V0", "V1")]),
        marks=pytest.mark.xfail(
            strict=True,
            reason="a chain that ends at a non-rational component is "
                   "excluded whole as a rod and offers no twigs, while the "
                   "graph's N of K + D is V0/5 + 3V2/5, the bark of the "
                   "twig V2 + V0"),
        id="non-rational-end"),
])
def test_bark_is_the_graph_negative_part_on_a_known_gap(g):
    n = _graph_n(g)
    assert n is not None
    assert bark(g).coefficients == n


# ROADMAP S: P^1 x P^1 = hirzebruch(0, t) with three horizontal lines
# A1, A2, A3 (class A) and t vertical lines B1..Bt (class B), blown up at
# the t points A3 . Bi.  D = A1 + A2 + A3' + sum Bi' is SNC: A1 and A2
# (square 0) each meet every Bi' = B - Ei (square -1) once, and
# A3' = A - sum Ei (square -t) meets nothing.  It is a family on which
# theorem 2's hypothesis holds, which no bundled pair gives.
COMB_T = (3, 4, 5, 8, 20)


def _comb(t):
    """(model, D, the boundary graph with its classes, A3')."""
    model = SurfaceModel.hirzebruch(0, t)
    a, a3 = model.ruled_class(1, 0), model.ruled_class(1, 0, [1] * t)
    bs = [f"B{i}" for i in range(1, t + 1)]
    classes = {"A1": a, "A2": a, "A3": a3,
               **{b: model.ruled_class(0, 1, [0] * i + [1])
                  for i, b in enumerate(bs)}}
    graph = DualGraph([Vertex("A1", 0, 0), Vertex("A2", 0, 0),
                       Vertex("A3", 0, -t), *(Vertex(b, 0, -1) for b in bs)],
                      [Edge(end, b) for end in ("A1", "A2") for b in bs],
                      model, classes)
    return model, model.ruled_class(3, t, [2] * t), graph, a3


@pytest.mark.parametrize("t", COMB_T)
def test_comb_matches_its_closed_forms(t):
    model, boundary, graph, a3 = _comb(t)
    rep = invariant_report(model, boundary, graph)
    inv = rep.invariants
    assert (inv.c1bar_sq, inv.pa_D, inv.pg_log, inv.l, model.hodge.h11) \
        == (t - 4, t - 2, t - 1, 2 * t, t + 2)
    assert rep.euler_bound.hypothesis_holds  # t - 2 <= 3t - 1
    assert rep.bark.coefficients == {"A3": Fraction(2, t)}
    assert rep.p_sq == t - 4 + Fraction(4, t)
    # the Bi' are rational (-1) components, so the pair is not almost
    # minimal; but K + D meets each Bi' at 0 and A3' meets no other
    # component, so the graph's N is still A3' alone
    n = _graph_n(graph)
    assert n is not None
    assert n == rep.bark.coefficients
    # A3' is the one candidate: A1 and A2 share a class, and a candidate
    # list must be pairwise distinct
    res = analyze_adjoint_system(model, boundary, [a3])
    assert [(fp.cls, fp.pairing) for fp in res.fixed_parts] == [(a3, -2)]
    assert (res.multiple, res.g, res.k, res.b) == (t - 2, 0, 3, 0)
    # P: h^0(K + D) by the pencil over P^1 and by the graph
    assert res.multiple + 1 == inv.pg_log


@pytest.mark.parametrize("t", COMB_T)
def test_comb_through_the_example_report(t):
    # the report's Zariski decomposition of K + D takes the class A1 and A2
    # share as one candidate; its support is A3' alone, at index 1
    model, boundary, graph, a3 = _comb(t)
    report = _base_report(model, boundary, graph, [a3])
    bark_n = sum((a * graph.class_map[v] for v, a
                  in report["bark"]["coefficients"].items()), model.zero())
    assert report["zariski"]["support"] == [1]
    assert report["zariski"]["N"] == a3 * Fraction(2, t) == bark_n
    res = report["pencil"]
    assert [(fp.cls, fp.pairing) for fp in res.fixed_parts] == [(a3, -2)]
    assert (res.multiple, res.g, res.k, res.b) == (t - 2, 0, 3, 0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP C: e_open counts the nodes once too often, so c2bar "
           "is -t - 2, while e(S - D) = e(S) - e(D) = (t + 4) - 6 = t - 2 "
           "from the graph; with that value P^2/3 <= c2bar - N^2/4 reduces "
           "to 2t - 2 - 1/t >= 0 and holds for every t >= 1")
def test_comb_satisfies_bmy():
    assert [invariant_report(*_comb(t)[:3]).bmy_holds for t in COMB_T] \
        == [True] * len(COMB_T)
