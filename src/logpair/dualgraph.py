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
from .lattice import DivisorClass, SurfaceModel
from .linalg import solve_linear

__all__ = [
    "Vertex",
    "Edge",
    "DualGraph",
    "Segment",
    "SegmentReport",
    "classify_segments",
]


# a NamedTuple cannot define __new__, so a record that validates its
# fields is a thin subclass that checks them before building the tuple
class _Vertex(NamedTuple):
    id: str
    genus: int
    self_int: int


class Vertex(_Vertex):
    __slots__ = ()

    def __new__(cls, id: str, genus: int, self_int: int):
        if genus < 0:
            raise InputError(f"vertex {id}: genus must be >= 0")
        return super().__new__(cls, id, genus, self_int)


class _Edge(NamedTuple):
    u: str
    v: str
    mult: int


class Edge(_Edge):
    __slots__ = ()

    def __new__(cls, u: str, v: str, mult: int = 1):
        if u == v:
            raise InputError(f"self loop at {u} is not allowed")
        if mult < 1:
            raise InputError("edge multiplicity must be >= 1")
        return super().__new__(cls, u, v, mult)


class DualGraph:
    """Immutable weighted dual graph, optionally backed by lattice classes."""

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[Edge] = (),
        model: Optional[SurfaceModel] = None,
        class_map: Optional[Mapping[str, DivisorClass]] = None,
    ):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._by_id = {v.id: v for v in self.vertices}
        if len(self._by_id) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        seen_pairs = set()
        self._adj: dict[str, dict[str, int]] = {v.id: {} for v in self.vertices}
        for e in self.edges:
            if e.u not in self._by_id or e.v not in self._by_id:
                raise InputError(f"edge {e.u}-{e.v} references unknown vertex")
            key = frozenset((e.u, e.v))
            if key in seen_pairs:
                raise InputError(f"duplicate edge {e.u}-{e.v}")
            seen_pairs.add(key)
            self._adj[e.u][e.v] = e.mult
            self._adj[e.v][e.u] = e.mult
        self.model = model
        self.class_map = dict(class_map) if class_map is not None else None
        if self.class_map is not None:
            if self.model is None:
                raise InputError("class_map requires a model")
            self._check_classes()

    def _check_classes(self):
        for v in self.vertices:
            if v.id not in self.class_map:
                raise InputError(f"class_map is missing vertex {v.id}")
        # one covector per vertex class, so a pairing costs the non-zero
        # coordinates of that class, not the basis length
        ids = [v.id for v in self.vertices]
        gram_den = self.model.gram_den
        for i, u in enumerate(ids):
            cu = self.class_map[u]
            pair = self.model.pairing_with(cu)
            self_int = self._by_id[u].self_int
            if pair(cu) != self_int * cu.den * cu.den * gram_den:
                raise InputError(
                    f"vertex {u}: class self-intersection disagrees with graph"
                )
            for w in ids[i + 1:]:
                cw = self.class_map[w]
                num, den = pair(cw), cu.den * cw.den * gram_den
                stated = self._adj[u].get(w, 0)
                if num != stated * den:
                    raise InputError(
                        f"edge {u}-{w}: class pairing "
                        f"{number_text(Fraction(num, den))} "
                        f"disagrees with stated multiplicity {stated}"
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
    branches: tuple[tuple[str, ...], ...] = ()  # fork only, tip first
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

    @property
    def tips(self) -> list[str]:
        """beta<=1 chain ends of the admissible segments."""
        out = []
        for s in self.segments:
            if not s.admissible:
                continue
            if s.kind == "rod":
                if len(s.vertices) == 1:
                    out.append(s.vertices[0])
                else:
                    out.extend((s.vertices[0], s.vertices[-1]))
            elif s.kind == "twig":
                out.append(s.vertices[0])
            else:
                out.extend(branch[0] for branch in s.branches)
        return out


def _chain_eligible(g: DualGraph, vid: str) -> bool:
    # a vertex on an edge of multiplicity >= 2 cannot sit in a chain
    v = g.vertex(vid)
    if v.genus != 0:
        return False
    return all(m == 1 for m in g._adj[vid].values())


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


def _path_order(g: DualGraph, comp: list[str]) -> Optional[list[str]]:
    """Order a component as a simple path, or None if it is not one."""
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


def _walk_from_tip(g: DualGraph, tip: str) -> Segment:
    """Grow a chain from a beta=1 vertex until it attaches or dies."""
    if g.vertex(tip).genus != 0:
        return Segment("twig", (tip,), reason=f"{tip} is not rational")
    path = [tip]
    prev = None
    while True:
        cur = path[-1]
        candidates = [w for w in g._adj[cur] if w != prev]
        if not candidates:
            # cannot happen for a tip inside a non-path component
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
        if _chain_eligible(g, nxt) and g.branching_number(nxt) == 2:
            prev, path = cur, path + [nxt]
            continue
        return Segment("twig", tuple(path), attach=nxt,
                       reason=f"attachment {nxt} is not a branch vertex")


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
        if path is not None:
            if all(g._adj[v][w] == 1
                   for v, w in zip(path, path[1:])):
                reason, coeffs = _admissibility(g, path)
                report.segments.append(
                    Segment("rod", tuple(path), reason=reason,
                            coefficients=coeffs))
                continue
            # path-shaped but with a multiple edge: fall through and let
            # the tip walks report why nothing survives
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
                branches.append(tuple(reversed(branch)))  # tip first
            reason, coeffs = _admissibility(g, comp)
            bad = [a for a in coeffs if not 0 < a <= 1]
            if bad:
                # negative definiteness alone does not make a star the
                # resolution graph of a log terminal point; the coefficient
                # range is the exact certificate
                reason = f"bark coefficient {bad[0]} outside (0, 1]"
                coeffs = ()
            report.segments.append(
                Segment("fork", tuple(comp), branches=tuple(branches),
                        reason=reason, coefficients=coeffs))
            if reason is None or bad:
                continue  # a star demoted by its coefficients offers no twigs
            # any other inadmissible star still offers its branches as twigs
        for tip in comp:
            if g.branching_number(tip) == 1:
                report.segments.append(_walk_from_tip(g, tip))
    return report
