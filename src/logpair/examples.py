"""Bundled worked configurations.

Two plane-model pairs ship with the package, keyed "ex2" and "ex3" on
the command line:

  ex2  a sextic splitting into three conics with eight double points;
       the boundary is 6H - 2(E1+...+E8) on an 8-point blow-up.
  ex3  an irreducible degree-3a curve with one point of multiplicity
       3a-3 and 4a-4 double points (one free parameter
       2 <= a <= MAX_EX3_A; the model has 4a-2 basis classes).

`run_example` gives either one a full report: pencil extraction,
invariants, the identity checks, and the peeling/decomposition state of
the boundary.
The ruled-surface family keyed "ex4" lives in the search module.
"""

from __future__ import annotations

from typing import Optional

from .dualgraph import DualGraph, Edge, Vertex
from .errors import InputError
from .invariants import invariant_report
from .jsonio import describe_model, record_fields
from .lattice import DivisorClass, SurfaceModel
# zariski and pencil through the module, for the reason given in
# zariski.py
from . import pencil, zariski
# bench/test_bench.py reads logpair.examples.analyze_adjoint_system;
# keep the binding
from .pencil import analyze_adjoint_system  # noqa: F401

# the report grows linearly in a (about 280 bytes of JSON per unit);
# larger values are refused before any model is built
MAX_EX3_A = 500


def sextic_config() -> tuple[SurfaceModel, DivisorClass, DualGraph,
                             list[DivisorClass]]:
    """Model, boundary, dual graph and fixed-part candidates for ex2."""
    m = SurfaceModel.plane_blowup(8)
    c1 = m.plane_class(2, [1, 1, 1, 1, 1, 1, 1, 0])   # conic through 7
    c2 = m.plane_class(2, [1, 1, 1, 1, 0, 0, 0, 1])
    c3 = m.plane_class(2, [0, 0, 0, 0, 1, 1, 1, 1])
    boundary = c1 + c2 + c3                              # 6H - 2 sum E
    graph = DualGraph(
        vertices=[Vertex("C1", 0, -3), Vertex("C2", 0, -1),
                  Vertex("C3", 0, 0)],
        edges=[Edge("C1", "C3", 1), Edge("C2", "C3", 3)],
        model=m,
        class_map={"C1": c1, "C2": c2, "C3": c3},
    )
    return m, boundary, graph, [c1]


def degenerate_plane_config(a: int) -> tuple[
        SurfaceModel, DivisorClass, DualGraph, list[DivisorClass]]:
    """Model, boundary, dual graph and candidates for ex3 at parameter a.

    Basis order is (H, E0, E1, ..., E_{4a-4}) with E0 over the point of
    multiplicity 3a-3.
    """
    if not isinstance(a, int) or a < 2:
        raise InputError("the family parameter a must be an integer >= 2")
    if a > MAX_EX3_A:
        raise InputError(
            f"the family parameter a must be at most {MAX_EX3_A} (got {a})")
    n = 4 * a - 3
    m = SurfaceModel.plane_blowup(n)
    boundary = m.plane_class(3 * a, [3 * a - 3] + [2] * (4 * a - 4))
    candidate = m.plane_class(a - 1, [a - 2] + [1] * (4 * a - 4))
    genus = 2 * a - 1
    graph = DualGraph(
        vertices=[Vertex("D", genus, 2 * a + 7)],
        model=m,
        class_map={"D": boundary},
    )
    return m, boundary, graph, [candidate]


def _base_report(model: SurfaceModel, boundary: DivisorClass,
                 graph: DualGraph,
                 candidates: list[DivisorClass]) -> dict:
    rep = invariant_report(model, boundary, graph)
    bk = rep.bark
    adjoint = model.canonical_class() + boundary
    # components that share a class give one candidate
    z = zariski.zariski_decompose(
        model, adjoint, list(dict.fromkeys(graph.class_map.values())))
    return {
        "model": describe_model(model),
        "boundary": boundary,
        "boundary_square": rep.boundary_square,
        "arithmetic_genus": {
            # log_chern refuses two genera that differ; both read its pa_D
            "adjunction": rep.invariants.pa_D,
            "dual_graph": rep.invariants.pa_D,
        },
        "invariants": rep.invariants,
        "noether_holds": rep.noether_holds,
        "euler_bound": rep.euler_bound,
        "bark": record_fields(bk, omit=("sharp_coefficients", "report")),
        "bmy": {
            "p_sq": rep.p_sq,
            "n_sq": bk.gram_square,
            "c2bar": rep.invariants.c2bar,
            "holds": rep.bmy_holds,
        },
        "zariski": record_fields(z, omit=("coefficients", "rounds")),
        "pencil": pencil.analyze_adjoint_system(model, boundary, candidates,
                                                adjoint=adjoint),
    }


def run_example(name: str, a: Optional[int] = None) -> dict:
    if name == "ex2":
        if a is not None:
            raise InputError("ex2 takes no parameter")
        report = _base_report(*sextic_config())
        report["name"] = "ex2"
        return report
    if name != "ex3":
        raise InputError(
            f"unknown example {name!r}; available: ex2, ex3 "
            "(the ruled-surface family is under the search command)")
    a = 2 if a is None else a
    report = _base_report(*degenerate_plane_config(a))
    report["name"] = "ex3"
    report["a"] = a
    # the value circulated for this family is 3a; exact lattice
    # arithmetic gives D.(H - E0) independent of a.  Both are kept.
    report["k_reference"] = 3 * a
    report["k_discrepancy"] = report["pencil"].k != 3 * a
    return report
