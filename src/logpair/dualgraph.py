"""Weighted dual graphs of boundary divisors and their segment structure.

A vertex is one irreducible boundary component (id, arithmetic genus,
self-intersection); an edge records how often two components meet.  The
classifier carves the admissible rational part of the graph into rods
(chain components), maximal twigs (chains hanging off a branch vertex)
and forks (three-branch star components), which is exactly the support
the peeling step later works on.

Admissibility is decided here, once, with the bark solve itself: each
candidate segment's Gram system Gram * a = -2 + beta is solved, a
`None` answer is the certificate that the Gram matrix is not negative
definite, and the solution rides on the segment as its bark
`coefficients`.  A fork is kept only when every coefficient lies in
(0, 1].
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InputError, number_text
from .lattice import DivisorClass, ModelKind, SurfaceModel
from .linalg import solve_linear


class Vertex(NamedTuple):
    id: str
    genus: int
    self_int: int


class Edge(NamedTuple):
    u: str
    v: str
    mult: int = 1


class DualGraph:
    """Immutable weighted dual graph, optionally backed by lattice classes;
    the one place that decides whether a boundary graph is well formed."""

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[Edge] = (),
        model: Optional[SurfaceModel] = None,
        class_map: Optional[Mapping[str, DivisorClass]] = None,
    ):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        for v in self.vertices:
            if v.genus < 0:
                raise InputError(f"vertex {v.id}: genus must be >= 0")
        self._by_id = {v.id: v for v in self.vertices}
        if len(self._by_id) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        self._adj: dict[str, dict[str, int]] = {v.id: {} for v in self.vertices}
        for e in self.edges:
            if e.u == e.v:
                raise InputError(f"self loop at {e.u} is not allowed")
            if e.mult < 1:
                raise InputError(
                    f"edge {e.u}-{e.v}: multiplicity must be >= 1")
            if e.u not in self._by_id or e.v not in self._by_id:
                raise InputError(f"edge {e.u}-{e.v} references unknown vertex")
            if e.v in self._adj[e.u]:
                raise InputError(f"duplicate edge {e.u}-{e.v}")
            self._adj[e.u][e.v] = e.mult
            self._adj[e.v][e.u] = e.mult
        # D^2 of the whole boundary: sum of C_i^2 + 2l
        self.square = (sum(v.self_int for v in self.vertices)
                       + 2 * self.total_edge_multiplicity)
        self.class_map = dict(class_map) if class_map is not None else None
        if self.class_map is not None:
            if model is None:
                raise InputError("class_map requires a model")
            self._check_classes(model)

    def _check_classes(self, model: SurfaceModel):
        for v in self.vertices:
            if v.id not in self.class_map:
                raise InputError(f"class_map is missing vertex {v.id}")
        # one covector per vertex class, so a pairing costs the non-zero
        # coordinates of that class, not the basis length; K rides at the
        # end of each row for the genus, and a custom model has no K
        classes = [self.class_map[v.id] for v in self.vertices]
        k = [] if model.kind is ModelKind.CUSTOM else [model.canonical_class()]
        for i, (u, genus, self_int) in enumerate(self.vertices):
            row = model.pairings(classes[i], classes[i:] + k)
            if row[0] != self_int:
                raise InputError(
                    f"vertex {u}: class self-intersection disagrees with graph"
                )
            for (w, _, _), p in zip(self.vertices[i + 1:], row[1:]):
                stated = self._adj[u].get(w, 0)
                if p != stated:
                    raise InputError(
                        f"edge {u}-{w}: class pairing {number_text(p)} "
                        f"disagrees with stated multiplicity "
                        f"{number_text(stated)}"
                    )
            # adjunction: p_a = (c^2 + K.c)/2 + 1
            p_a = Fraction(self_int + row[-1], 2) + 1 if k else genus
            if p_a != genus:
                raise InputError(
                    f"vertex {u}: class has arithmetic genus "
                    f"{number_text(p_a)}, the graph says {number_text(genus)}"
                )

    # -- elementary queries ------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._by_id[vid]
        except KeyError:
            raise InputError(f"unknown vertex {vid}") from None

    def branching_number(self, vid: str) -> int:
        """Number of distinct components meeting this one."""
        self.vertex(vid)
        return len(self._adj[vid])

    @property
    def total_edge_multiplicity(self) -> int:
        return sum(e.mult for e in self.edges)

    def components(self) -> list[list[str]]:
        """Connected components, each in vertex insertion order."""
        seen: set[str] = set()
        out = []
        order = {v.id: i for i, v in enumerate(self.vertices)}
        for v in self.vertices:
            if v.id in seen:
                continue
            stack, comp = [v.id], []
            seen.add(v.id)
            while stack:
                cur = stack.pop()
                comp.append(cur)
                for nxt in self._adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            comp.sort(key=order.__getitem__)
            out.append(comp)
        return out

    def arithmetic_genus(self) -> int:
        """p_a of the whole boundary: sum of vertex genera + 1 + l - r."""
        r = len(self.vertices)
        l = self.total_edge_multiplicity
        return sum(v.genus for v in self.vertices) + 1 + l - r

    def gram(self, ids: Sequence[str]) -> list[list[int]]:
        for vid in ids:
            self.vertex(vid)
        n = len(ids)
        out = [[0] * n for _ in range(n)]
        for i, u in enumerate(ids):
            out[i][i] = self._by_id[u].self_int
            for j in range(i + 1, n):
                out[i][j] = out[j][i] = self._adj[u].get(ids[j], 0)
        return out


# -- segment classification -------------------------------------------------


class Segment(NamedTuple):
    kind: str  # "rod", "twig" or "fork"
    vertices: tuple[str, ...]
    attach: Optional[str] = None  # twig: the branch vertex it hangs off
    reason: Optional[str] = None  # why the segment is excluded
    # bark coefficients in vertex order; () on an excluded segment
    coefficients: tuple[Fraction, ...] = ()

    @property
    def admissible(self) -> bool:
        return self.reason is None


class SegmentReport(NamedTuple):
    segments: list[Segment]

    @property
    def excluded(self) -> list[Segment]:
        return [s for s in self.segments if not s.admissible]

    @property
    def admissible_segments(self) -> list[Segment]:
        return [s for s in self.segments if s.admissible]


def bark_rhs(g: DualGraph, ids: Sequence[str]) -> list[int]:
    """Right-hand side -2 + beta(C_j) of the bark system on these vertices."""
    return [-2 + g.branching_number(v) for v in ids]


def _admissibility(
    g: DualGraph, ids: Sequence[str],
) -> tuple[Optional[str], tuple[Fraction, ...]]:
    """(reason the vertex set is inadmissible, ()) or (None, bark coeffs).

    The bark solve is the negative-definiteness certificate: `solve_linear`
    answers None exactly when the Gram matrix is not negative definite.
    """
    for vid in ids:
        v = g.vertex(vid)
        if v.genus != 0:
            return f"{vid} is not rational", ()
        if v.self_int == -1:
            return f"{vid} is a (-1) component", ()
    coeffs = solve_linear(g.gram(ids), bark_rhs(g, ids))
    if coeffs is None:
        return "Gram matrix is not negative definite", ()
    return None, tuple(coeffs)


def _arm(g: DualGraph, prev: str, cur: str) -> list[str]:
    """The chain from `cur` away from `prev`: it passes every vertex of
    branching number 2 and ends with the first vertex of another one."""
    arm = [cur]
    while len(g._adj[cur]) == 2:
        prev, cur = cur, next(w for w in g._adj[cur] if w != prev)
        arm.append(cur)
    return arm


def _path_order(g: DualGraph, comp: list[str]) -> Optional[list[str]]:
    """Order a component as a simple path, or None if it is not one."""
    if len(comp) == 1:
        return list(comp)
    # connected with every branching number <= 2: a cycle has no ends
    ends = [vid for vid in comp if len(g._adj[vid]) == 1]
    if len(ends) != 2 or any(len(g._adj[vid]) > 2 for vid in comp):
        return None
    [nxt] = g._adj[ends[0]]
    return [ends[0]] + _arm(g, ends[0], nxt)


def _twig(g: DualGraph, tip: str) -> Segment:
    """The chain from a beta=1 vertex up to the vertex it attaches to."""
    if g.vertex(tip).genus != 0:
        return Segment("twig", (tip,), reason=f"{tip} is not rational")
    [(nxt, mult)] = g._adj[tip].items()
    if mult != 1:
        return Segment("twig", (tip,), attach=nxt,
                       reason=f"edge {tip}-{nxt} has multiplicity {mult}")
    # the arm ends off branching number 2, so the chain stops on it: at a
    # branch vertex, or at one not rational or on a multiple edge
    arm = _arm(g, tip, nxt)
    stop = next(i for i, vid in enumerate(arm)
                if len(g._adj[vid]) != 2 or g.vertex(vid).genus != 0
                or any(m != 1 for m in g._adj[vid].values()))
    path, attach = (tip, *arm[:stop]), arm[stop]
    if g.branching_number(attach) < 3:
        return Segment("twig", path, attach=attach,
                       reason=f"attachment {attach} is not a branch vertex")
    reason, coeffs = _admissibility(g, path)
    return Segment("twig", path, attach=attach, reason=reason,
                   coefficients=coeffs)


def classify_segments(g: DualGraph) -> SegmentReport:
    """Split the graph into rods, maximal twigs and forks.

    Rods are chain components, forks are admissible three-branch star
    components, and maximal twigs are chains that hang off a branch
    vertex (branching number >= 3) of anything bigger.  Shapes that
    fail rationality or admissibility are kept in the report with a
    reason instead of being silently dropped.
    """
    report = SegmentReport([])
    for comp in g.components():
        path = _path_order(g, comp)
        if path is not None and all(g._adj[v][w] == 1
                                    for v, w in zip(path, path[1:])):
            reason, coeffs = _admissibility(g, path)
            report.segments.append(
                Segment("rod", tuple(path), reason=reason,
                        coefficients=coeffs))
            continue
        # a path with a multiple edge falls through to its tip walks; a
        # star is a tree with simple edges and one branch vertex, of beta 3
        centers = [v for v in comp if len(g._adj[v]) >= 3]
        if (len(centers) == 1 and len(g._adj[centers[0]]) == 3
                and sum(len(g._adj[v]) for v in comp) == 2 * (len(comp) - 1)
                and all(m == 1 for v in comp for m in g._adj[v].values())):
            reason, coeffs = _admissibility(g, comp)
            bad = [a for a in coeffs if not 0 < a <= 1]
            if bad:
                # negative definiteness alone does not make a star the
                # resolution graph of a log terminal point; the coefficient
                # range is the exact certificate
                reason = f"bark coefficient {bad[0]} outside (0, 1]"
                coeffs = ()
            report.segments.append(
                Segment("fork", tuple(comp), reason=reason,
                        coefficients=coeffs))
            if reason is None or bad:
                continue  # a star demoted by its coefficients offers no twigs
            # any other inadmissible star still offers its branches as twigs
        for tip in comp:
            if len(g._adj[tip]) == 1:
                report.segments.append(_twig(g, tip))
    return report
