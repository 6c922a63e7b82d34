"""Dual graphs: genus bookkeeping, components, segment classification."""

import pathlib
import random
from fractions import Fraction

import pytest

from logpair import (DualGraph, Edge, InputError, SurfaceModel, Vertex,
                     classify_segments)
from logpair.jsonio import load_graph
from logpair.selftest import random_bark_graph

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def chain(selfs, tag="C"):
    vs = [Vertex(f"{tag}{i}", 0, s) for i, s in enumerate(selfs)]
    es = [Edge(f"{tag}{i}", f"{tag}{i+1}") for i in range(len(selfs) - 1)]
    return vs, es


def neighbors(g, vid):
    """The components meeting `vid`, with multiplicity, read off the
    edge list."""
    return {(e.v if e.u == vid else e.u): e.mult
            for e in g.edges if vid in (e.u, e.v)}


def admissible(rep, kind):
    return [s for s in rep.admissible_segments if s.kind == kind]


def center(fork):
    """The one fork vertex on none of its branches."""
    [hub] = set(fork.vertices).difference(*fork.branches)
    return hub


def test_graph_genus_two_routes():
    # two rational curves meeting three times: p_a = 0 + 0 + 1 + 3 - 2 = 2
    g = DualGraph([Vertex("A", 0, -1), Vertex("B", 0, 0)],
                  [Edge("A", "B", 3)])
    assert g.arithmetic_genus() == 2
    assert g.total_edge_multiplicity == 3
    # a genus-1 vertex alone
    g2 = DualGraph([Vertex("A", 1, 0)])
    assert g2.arithmetic_genus() == 1


def test_components_and_queries():
    vs, es = chain([-2, -2, -2])
    vs.append(Vertex("X", 0, -3))
    g = DualGraph(vs, es)
    assert g.components() == [["C0", "C1", "C2"], ["X"]]
    assert g.branching_number("C1") == 2
    assert g.branching_number("X") == 0
    assert neighbors(g, "C0") == {"C1": 1}
    assert neighbors(g, "C1") == {"C0": 1, "C2": 1}


def test_graph_validation():
    with pytest.raises(InputError):
        DualGraph([Vertex("A", 0, -1), Vertex("A", 0, -2)])
    with pytest.raises(InputError):
        DualGraph([Vertex("A", 0, -1)], [Edge("A", "B")])
    with pytest.raises(InputError):
        Edge("A", "A")
    with pytest.raises(InputError):
        Edge("A", "B", 0)
    with pytest.raises(InputError):
        Vertex("A", -1, 0)


def test_class_map_validation():
    m = SurfaceModel.plane_blowup(2)
    e1, e2 = m.exceptional(1), m.exceptional(2)
    line = m.plane_class(1, [1, 1])
    DualGraph([Vertex("L", 0, -1), Vertex("E", 0, -1)],
              [Edge("L", "E")], model=m,
              class_map={"L": line, "E": e1})
    with pytest.raises(InputError, match="self-intersection"):
        DualGraph([Vertex("L", 0, -2)], model=m, class_map={"L": line})
    with pytest.raises(InputError, match="pairing"):
        DualGraph([Vertex("A", 0, -1), Vertex("B", 0, -1)],
                  [Edge("A", "B")], model=m,
                  class_map={"A": e1, "B": e2})
    with pytest.raises(InputError, match="requires a model"):
        DualGraph([Vertex("A", 0, -1)], class_map={"A": e1})


def test_rod_classification():
    vs, es = chain([-2, -3, -2])
    rep = classify_segments(DualGraph(vs, es))
    assert len(admissible(rep, "rod")) == 1
    rod = admissible(rep, "rod")[0]
    assert rod.admissible
    assert rod.vertices == ("C0", "C1", "C2")
    # the two chain ends are the tips
    assert sorted(rep.tips) == ["C0", "C2"]


def test_rod_with_minus_one_excluded():
    vs, es = chain([-2, -1, -2])
    rep = classify_segments(DualGraph(vs, es))
    assert not admissible(rep, "rod")
    assert rep.excluded and "-1" in rep.excluded[0].reason


def test_twig_classification():
    # a branch vertex with three arms, one of length two
    vs = [Vertex("B", 0, -1), Vertex("T0", 0, -2), Vertex("T1", 0, -3),
          Vertex("U0", 0, -2), Vertex("W0", 0, -5)]
    es = [Edge("T0", "T1"), Edge("B", "T0"), Edge("B", "U0"),
          Edge("B", "W0")]
    rep = classify_segments(DualGraph(vs, es))
    twigs = {t.vertices for t in admissible(rep, "twig")}
    # walks start at the free end and stop at the branch vertex
    assert ("T1", "T0") in twigs
    assert ("U0",) in twigs and ("W0",) in twigs
    assert all(t.attach == "B" for t in admissible(rep, "twig"))


def test_multiplicity_edge_blocks_chain():
    vs = [Vertex("A", 0, -2), Vertex("B", 0, -2)]
    rep = classify_segments(DualGraph(vs, [Edge("A", "B", 2)]))
    assert not admissible(rep, "rod")
    assert rep.excluded


def test_fork_classification():
    vs = [Vertex("C", 0, -2), Vertex("A", 0, -2), Vertex("B", 0, -2),
          Vertex("D", 0, -2)]
    es = [Edge("C", "A"), Edge("C", "B"), Edge("C", "D")]
    rep = classify_segments(DualGraph(vs, es))
    assert len(admissible(rep, "fork")) == 1
    fork = admissible(rep, "fork")[0]
    assert center(fork) == "C"
    assert len(fork.branches) == 3
    # a fork's tips are the free ends of its branches
    assert sorted(rep.tips) == ["A", "B", "D"]


def test_genus_vertex_excluded():
    g = DualGraph([Vertex("A", 1, -2)])
    rep = classify_segments(g)
    assert not admissible(rep, "rod")
    assert rep.excluded and "rational" in rep.excluded[0].reason


def test_segment_coefficients_solve_the_bark_system():
    # the criterion-3 peeling draws: an admissible segment carries the
    # exact solution of Gram * a = -2 + beta, inside (0, 1]; an excluded
    # one carries none
    rng = random.Random(20817)
    kept = dropped = 0
    for _ in range(200):
        g = random_bark_graph(rng)
        for seg in classify_segments(g).segments:
            if not seg.admissible:
                dropped += 1
                assert seg.coefficients == ()
                continue
            kept += 1
            ids = list(seg.vertices)
            gram = g.gram(ids)
            a = seg.coefficients
            assert len(a) == len(ids)
            for j, vid in enumerate(ids):
                lhs = sum(a[i] * gram[i][j] for i in range(len(ids)))
                assert lhs == -2 + len(neighbors(g, vid))
            assert all(isinstance(x, Fraction) and 0 < x <= 1 for x in a)
    assert kept and dropped


def _continuant(bs) -> int:
    """det of the tridiagonal matrix with diagonal bs and -1 beside it."""
    prev, cur = 0, 1
    for b in bs:
        prev, cur = cur, b * cur - prev
    return cur


def test_segment_coefficients_match_the_continuant_closed_forms():
    # an oracle that shares no algebra with the Gram solve: on a chain
    # T1..Tn of rational curves with simple edges, d(S) = det(-Gram(S))
    # is the continuant of the -Ti^2 (d of nothing is 1).  The chain is
    # negative definite iff every leading continuant is positive, and
    # then the bark coefficient of Ti is d(Ti+1..Tn)/d(T) on a twig with
    # tip T1 and (d(T1..Ti-1) + d(Ti+1..Tn))/d(T) on a rod
    rng = random.Random(20817)
    graphs = [random_bark_graph(rng) for _ in range(200)]
    # the draws are all definite; these rods are not
    graphs += [DualGraph(*chain(s)) for s in ([-2, 0], [3], [-2, -2, -2, 1])]
    checked = {"rod": 0, "twig": 0, "indefinite": 0}
    for g in graphs:
        for seg in classify_segments(g).segments:
            if seg.kind == "fork" or (
                    not seg.admissible
                    and seg.reason != "Gram matrix is not negative definite"):
                continue
            ids = seg.vertices
            n = len(ids)
            for i in range(n):
                for j in range(i + 1, n):
                    meet = neighbors(g, ids[i]).get(ids[j], 0)
                    assert meet == (1 if j == i + 1 else 0)
            bs = [-g.vertex(v).self_int for v in ids]
            d = _continuant
            definite = all(d(bs[:i]) > 0 for i in range(1, n + 1))
            assert definite == seg.admissible
            if not definite:
                checked["indefinite"] += 1
                continue
            if seg.kind == "twig":
                assert g.branching_number(ids[0]) == 1  # the tip
                want = [Fraction(d(bs[i + 1:]), d(bs)) for i in range(n)]
            else:
                want = [Fraction(d(bs[:i]) + d(bs[i + 1:]), d(bs))
                        for i in range(n)]
            assert seg.coefficients == tuple(want)
            checked[seg.kind] += 1
    assert all(checked.values())


def test_fork_outside_coefficient_range_excluded():
    # a negative definite star whose bark puts 0 on the (-2) hub is not
    # a fork, and it offers no twigs either
    g = load_graph(str(FIXTURES / "fork_not_log_terminal.json"))
    rep = classify_segments(g)
    assert not admissible(rep, "fork") and not rep.admissible_segments
    [fork] = rep.excluded
    assert fork.kind == "fork" and center(fork) == "C"
    assert fork.reason == "bark coefficient 0 outside (0, 1]"
    assert fork.coefficients == ()
