"""Dual graphs: genus bookkeeping, components, segment classification."""

import pathlib
import random
import re
from fractions import Fraction

import pytest

from logpair import (DualGraph, Edge, InputError, SurfaceModel, Vertex, bark,
                     classify_segments)
from logpair.dualgraph import Segment, SegmentReport, _admissibility
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


def center(g, fork):
    """The fork's hub: its one vertex of branching number 3."""
    [hub] = [v for v in fork.vertices if g.branching_number(v) == 3]
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
    # Vertex and Edge are plain tuples: the graph decides their rules
    ab = [Vertex("A", 0, -2), Vertex("B", 0, -2)]
    with pytest.raises(InputError, match="^self loop at A is not allowed$"):
        DualGraph(ab, [Edge("A", "A")])
    with pytest.raises(InputError,
                       match="^edge A-B: multiplicity must be >= 1$"):
        DualGraph(ab, [Edge("A", "B", 0)])
    with pytest.raises(InputError, match="^vertex A: genus must be >= 0$"):
        DualGraph([Vertex("A", -1, 0)])
    # an edge given twice, in either direction, is refused as written
    for second in (Edge("A", "B"), Edge("B", "A")):
        with pytest.raises(InputError,
                           match=f"^duplicate edge {second.u}-{second.v}$"):
            DualGraph(ab, [Edge("A", "B"), second])


def test_seeded_bark_graphs_pass_the_graph_rules():
    # every draw is built through DualGraph, which decides the genus,
    # self-loop and multiplicity rules that Vertex and Edge leave open
    rng = random.Random(23)
    for _ in range(2000):
        g = random_bark_graph(rng)
        assert all(v.genus >= 0 for v in g.vertices)
        assert all(e.u != e.v and e.mult >= 1 for e in g.edges)


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
    cubic = m.plane_class(3, [0, 0])
    DualGraph([Vertex("D", 1, 9)], model=m, class_map={"D": cubic})
    with pytest.raises(InputError, match="^vertex D: class has arithmetic "
                                         "genus 1, the graph says 0$"):
        DualGraph([Vertex("D", 0, 9)], model=m, class_map={"D": cubic})
    # on F_1 blown up once, 2 Dinf + 3 Gamma - E1 = 2 C0 + 5 F - E1 has
    # p_a = (2 - 1)(5 - 1) - 1 * 2 * (2 - 1)/2 = 3
    h = SurfaceModel.hirzebruch(1, 1)
    bisection = h.ruled_class(2, 3, [1])
    DualGraph([Vertex("B", 3, 15)], model=h, class_map={"B": bisection})
    with pytest.raises(InputError, match="^vertex B: class has arithmetic "
                                         "genus 3, the graph says 2$"):
        DualGraph([Vertex("B", 2, 15)], model=h, class_map={"B": bisection})


def test_rod_classification():
    g = DualGraph(*chain([-2, -3, -2]))
    rep = classify_segments(g)
    assert len(admissible(rep, "rod")) == 1
    rod = admissible(rep, "rod")[0]
    assert rod.admissible
    assert rod.vertices == ("C0", "C1", "C2")
    # the two chain ends are the tips
    assert bark(g).tips == 2


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
    g = DualGraph(vs, es)
    rep = classify_segments(g)
    assert len(admissible(rep, "fork")) == 1
    fork = admissible(rep, "fork")[0]
    assert center(g, fork) == "C"
    # a fork's tips are the free ends of its three branches
    assert bark(g).tips == 3


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
    assert fork.kind == "fork" and center(g, fork) == "C"
    assert fork.reason == "bark coefficient 0 outside (0, 1]"
    assert fork.coefficients == ()


# -- the classifier as it was before one chain walk served every shape ------


def _old_chain_eligible(g, vid):
    v = g.vertex(vid)
    if v.genus != 0:
        return False
    return all(m == 1 for m in g._adj[vid].values())


def _old_path_order(g, comp):
    if len(comp) == 1:
        return list(comp) if not g._adj[comp[0]] else None
    degs = {vid: len(g._adj[vid]) for vid in comp}
    ends = [vid for vid in comp if degs[vid] == 1]
    if len(ends) != 2 or any(d > 2 for d in degs.values()):
        return None
    order = [min(ends, key=comp.index)]
    prev = None
    while True:
        nxts = [w for w in g._adj[order[-1]] if w != prev]
        if not nxts:
            break
        prev = order[-1]
        order.append(nxts[0])
    return order if len(order) == len(comp) else None


def _old_walk_from_tip(g, tip):
    if g.vertex(tip).genus != 0:
        return Segment("twig", (tip,), reason=f"{tip} is not rational")
    path = [tip]
    prev = None
    while True:
        cur = path[-1]
        candidates = [w for w in g._adj[cur] if w != prev]
        if not candidates:
            return Segment("twig", tuple(path),
                           reason="chain never reaches a branch vertex")
        nxt = candidates[0]
        if g._adj[cur][nxt] != 1:
            return Segment("twig", tuple(path), attach=nxt,
                           reason=f"edge {cur}-{nxt} has multiplicity "
                                  f"{g._adj[cur][nxt]}")
        if g.branching_number(nxt) >= 3:
            reason, coeffs = _admissibility(g, path)
            return Segment("twig", tuple(path), attach=nxt, reason=reason,
                           coefficients=coeffs)
        if _old_chain_eligible(g, nxt) and g.branching_number(nxt) == 2:
            prev, path = cur, path + [nxt]
            continue
        return Segment("twig", tuple(path), attach=nxt,
                       reason=f"attachment {nxt} is not a branch vertex")


def _old_classify_segments(g):
    """Three hand-written chain walks: the path order, the fork
    branches and the tip walk, each with its own loop.  Returns the
    report and each fork's branches, tip first, keyed by its vertices."""
    report = SegmentReport([])
    fork_branches = {}
    for comp in g.components():
        path = _old_path_order(g, comp)
        if path is not None:
            if all(g._adj[v][w] == 1
                   for v, w in zip(path, path[1:])):
                reason, coeffs = _admissibility(g, path)
                report.segments.append(
                    Segment("rod", tuple(path), reason=reason,
                            coefficients=coeffs))
                continue
        centers = [v for v in comp if g.branching_number(v) >= 3]
        comp_simple = all(m == 1 for v in comp for m in g._adj[v].values())
        if (comp_simple and len(centers) == 1
                and len(g._adj[centers[0]]) == 3
                and len(comp) >= 4
                and all(len(g._adj[v]) <= 2 for v in comp if v != centers[0])
                and sum(len(g._adj[v]) for v in comp) == 2 * (len(comp) - 1)):
            center = centers[0]
            branches = []
            for first in sorted(g._adj[center], key=comp.index):
                branch = [first]
                prev = center
                while True:
                    nxts = [w for w in g._adj[branch[-1]] if w != prev]
                    if not nxts:
                        break
                    prev = branch[-1]
                    branch.append(nxts[0])
                branches.append(tuple(reversed(branch)))
            reason, coeffs = _admissibility(g, comp)
            bad = [a for a in coeffs if not 0 < a <= 1]
            if bad:
                reason = f"bark coefficient {bad[0]} outside (0, 1]"
                coeffs = ()
            report.segments.append(
                Segment("fork", tuple(comp), reason=reason,
                        coefficients=coeffs))
            fork_branches[tuple(comp)] = tuple(branches)
            if reason is None or bad:
                continue
        for tip in comp:
            if g.branching_number(tip) == 1:
                report.segments.append(_old_walk_from_tip(g, tip))
    return report, fork_branches


def _old_tips(g):
    """The tips by segment shape: both ends of a rod (its one vertex when
    it has one), the free end of a twig, the free end of each branch of
    a fork."""
    report, fork_branches = _old_classify_segments(g)
    out = []
    for s in report.admissible_segments:
        if s.kind == "rod":
            out.extend(s.vertices if len(s.vertices) == 1
                       else (s.vertices[0], s.vertices[-1]))
        elif s.kind == "twig":
            out.append(s.vertices[0])
        else:
            out.extend(branch[0] for branch in fork_branches[s.vertices])
    return out


def _component_pairs(rng, n):
    """Vertex index pairs of one connected shape on n vertices."""
    shape = rng.choice(["path", "star", "tree", "cycle", "tail", "dense"])
    if shape == "star" and n >= 4:
        arms = [[i] for i in (1, 2, 3)]
        for i in range(4, n):
            rng.choice(arms).append(i)
        return {(a, b) for arm in arms for a, b in zip([0] + arm, arm)}
    if shape in ("cycle", "tail") and n >= 3:
        k = n if shape == "cycle" else rng.randint(3, n)
        pairs = {(i, (i + 1) % k) for i in range(k)}
        return pairs | {(rng.randrange(i), i) for i in range(k, n)}
    if shape == "path":
        return {(i, i + 1) for i in range(n - 1)}
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    if shape == "dense":
        pairs |= {tuple(rng.sample(range(n), 2)) for _ in range(n // 2)}
    return pairs


def _random_graph(rng):
    """One to three components of cycles, cycles with tails, paths,
    stars and trees; some vertices of genus 1 or square -1, 0 or +1,
    some edges of multiplicity 2, in a shuffled order."""
    vertices, edges = [], []
    for c in range(rng.randint(1, 3)):
        n = rng.randint(1, 6)
        ids = [f"{'PQR'[c]}{i}" for i in range(n)]
        vertices += [Vertex(v, int(rng.random() < 0.06),
                            rng.choice([-4, -3, -2, -2, -2, -2, -1, 0, 1]))
                     for v in ids]
        for a, b in sorted({tuple(sorted(p))
                            for p in _component_pairs(rng, n)}):
            u, v = (ids[a], ids[b]) if rng.random() < 0.5 else (ids[b], ids[a])
            edges.append((u, v, 2 if rng.random() < 0.06 else 1))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return DualGraph(vertices, [Edge(*e) for e in edges])


REASON_KINDS = {
    "not rational": r"\S+ is not rational",
    "(-1)": r"\S+ is a \(-1\) component",
    "not definite": r"Gram matrix is not negative definite",
    "coefficient range": r"bark coefficient \S+ outside \(0, 1\]",
    "multiple edge": r"edge \S+-\S+ has multiplicity \d+",
    "attachment": r"attachment \S+ is not a branch vertex",
}


def test_one_chain_walk_matches_the_three_walks():
    rng = random.Random(17003)
    seen = set()
    for _ in range(3000):
        g = _random_graph(rng)
        want, _ = _old_classify_segments(g)
        got = classify_segments(g)
        assert got.segments == want.segments
        for seg in want.segments:
            seen.add((seg.kind, seg.admissible))
            if seg.reason is not None:
                [kind] = [k for k, pattern in REASON_KINDS.items()
                          if re.fullmatch(pattern, seg.reason)]
                seen.add(kind)
    assert seen == ({(kind, ok) for kind in ("rod", "twig", "fork")
                     for ok in (True, False)} | set(REASON_KINDS))


def test_tips_are_the_segment_vertices_of_beta_at_most_one():
    # bark counts a tip as a bark-support vertex of branching number <= 1;
    # the segment shapes give the same count
    rng = random.Random(20)
    seen = set()
    for draw in range(3000):
        g = (random_bark_graph if draw % 2 else _random_graph)(rng)
        want = _old_tips(g)
        bk = bark(g)
        assert bk.tips == len(want)
        for seg in bk.report.admissible_segments:
            if set(seg.vertices) & set(want):
                seen.add((seg.kind, len(seg.vertices) == 1))
    assert seen >= {("rod", True), ("rod", False), ("twig", True),
                    ("twig", False), ("fork", False)}
