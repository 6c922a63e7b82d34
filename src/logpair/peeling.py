"""Peeling: barks of rods, twigs and forks, and almost-minimal models.

The bark of a segment is the fractional combination Bk = sum(a_i C_i)
solving sum_i a_i (C_i . C_j) = -2 + beta(C_j) for every segment vertex
C_j; subtracting it from the boundary produces the sharp boundary D#
with (K + D#) orthogonal to every bark-support component.  The system
is solved once per segment, by `dualgraph.classify_segments`, whose
admissible segments carry their coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .dualgraph import DualGraph, SegmentReport, bark_rhs, classify_segments
from .errors import InputError, InternalError
from .lattice import (
    DivisorClass,
    SurfaceModel,
    contract_exceptional,
)
# bench/test_bench.py reads logpair.peeling.solve_linear; keep the binding
from .linalg import solve_linear  # noqa: F401


@dataclass
class BarkResult:
    coefficients: dict[str, Fraction]
    sharp_coeffs: dict[str, Fraction]
    bark_square: Fraction
    gram_square: Fraction
    tips_count: int
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
    tips = len(report.tips)
    sharp = {
        v.id: Fraction(1) - coefficients.get(v.id, Fraction(0))
        for v in g.vertices
    }
    return BarkResult(
        coefficients=coefficients,
        sharp_coeffs=sharp,
        bark_square=bark_square,
        gram_square=gram_square,
        tips_count=tips,
        bound_ok=bark_square >= -tips,
        report=report,
    )


def sharp_boundary_class(g: DualGraph, result: BarkResult) -> DivisorClass:
    """D# = sum over components of (1 - bark coefficient) * class."""
    if g.class_map is None:
        raise InputError("sharp boundary class needs a class_map")
    total = g.model.zero()
    for v in g.vertices:
        total = total + result.sharp_coeffs[v.id] * g.class_map[v.id]
    return total


def sharp_orthogonality_check(g: DualGraph, result: BarkResult) -> bool:
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
        adjoint = g.model.canonical_class() + sharp_boundary_class(g, result)
        for vid in result.coefficients:
            if g.model.intersect(adjoint, g.class_map[vid]) != 0:
                return False
    return True


@dataclass
class MinimalizationResult:
    model: SurfaceModel
    graph: DualGraph
    class_map: dict[str, DivisorClass]
    contractions: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    nef_on_test_set: bool = False
    tested_classes: int = 0
    note: str = (
        "nonnegativity of K+D# certified only against the finite test set "
        "(remaining boundary components and basis exceptionals)"
    )


def _rebuild_graph(model: SurfaceModel,
                   class_map: dict[str, DivisorClass]) -> DualGraph:
    from .dualgraph import Edge, Vertex
    ids = list(class_map)
    vertices = []
    for vid in ids:
        c = class_map[vid]
        sq = model.self_intersection(c)
        pa = model.arithmetic_genus(c)
        if sq.denominator != 1 or pa.denominator != 1 or pa < 0:
            raise InternalError(
                f"component {vid} no longer looks like a curve after "
                f"contraction (square {sq}, genus {pa})")
        vertices.append(Vertex(vid, int(pa), int(sq)))
    edges = []
    for i, u in enumerate(ids):
        for w in ids[i + 1:]:
            m = model.intersect(class_map[u], class_map[w])
            if m < 0 or m.denominator != 1:
                raise InternalError(
                    f"components {u}, {w} intersect in {m} after contraction")
            if m > 0:
                edges.append(Edge(u, w, int(m)))
    return DualGraph(vertices, edges, model=model, class_map=class_map)


def almost_minimalize(
    model: SurfaceModel,
    class_map: dict[str, DivisorClass],
    g: DualGraph,
    extra_candidates: Sequence[DivisorClass] = (),
) -> MinimalizationResult:
    """Contract basis exceptionals that K+D# still meets negatively.

    Each round recomputes the bark, forms the adjoint K+D#, and contracts
    the first basis exceptional pairing negatively with it, pushing the
    boundary forward and rebuilding the dual graph from the classes.  The
    loop stops when no basis exceptional qualifies.  Nonnegativity of the
    final K+D# is then tested class by class, never claimed globally.
    """
    if set(class_map) != set(g.ids()):
        raise InputError("class_map keys must match the graph's vertex ids")
    result = MinimalizationResult(model, g, dict(class_map))
    basis_exceptionals = {
        model.basis_class(i) for i in model.exceptional_indices
    }
    for cand in extra_candidates:
        if cand not in basis_exceptionals:
            result.warnings.append(
                f"candidate {tuple(cand.coeffs)} is not a basis exceptional "
                "class and was skipped")
    work_model, work_map, work_graph = model, dict(class_map), g
    while True:
        bk = bark(work_graph)
        sharp = work_model.zero()
        for vid, c in work_map.items():
            sharp = sharp + bk.sharp_coeffs[vid] * c
        adjoint = work_model.canonical_class() + sharp
        hit = None
        for idx in work_model.exceptional_indices:
            pairing = work_model.intersect(adjoint,
                                           work_model.basis_class(idx))
            if pairing < 0:
                hit = (idx, pairing)
                break
        if hit is None:
            tested = 0
            ok = True
            for c in list(work_map.values()) + [
                work_model.basis_class(i)
                for i in work_model.exceptional_indices
            ]:
                tested += 1
                if work_model.intersect(adjoint, c) < 0:
                    ok = False
            result.model = work_model
            result.graph = work_graph
            result.class_map = work_map
            result.nef_on_test_set = ok
            result.tested_classes = tested
            return result
        idx, pairing = hit
        label = work_model.basis_labels[idx]
        ids = list(work_map)
        work_model, pushed = contract_exceptional(
            work_model, idx, [work_map[v] for v in ids])
        absorbed = [v for v, c in zip(ids, pushed) if c.is_zero()]
        work_map = {v: c for v, c in zip(ids, pushed) if not c.is_zero()}
        result.contractions.append({
            "contracted": label,
            "pairing": pairing,
            "absorbed_components": absorbed,
        })
        work_graph = _rebuild_graph(work_model, work_map)
