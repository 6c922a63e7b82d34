"""Exact intersection theory for boundary pairs on rational surfaces.

The package works over the rational numbers throughout: classes live
in a fixed basis of a blown-up plane or ruled surface (or a custom
pairing matrix), and every computation is exact.  The main entry
points are:

- :class:`SurfaceModel` / :class:`DivisorClass` for the lattice,
- :class:`DualGraph` and :func:`bark` for boundary peeling,
- :func:`zariski_decompose` for positive/negative splitting,
- :func:`log_chern` and friends for invariant identities,
- :func:`analyze_adjoint_system` for fiber extraction,
- :func:`run_search` for the ruled-family inequality grid.

Every exported name feeds a report or a check inside the package;
tests/test_api.py keeps it so.

Importing the package imports none of its submodules: an exported name
is read from its submodule on first access (PEP 562), so
``from logpair import bark`` loads the peeling layer and nothing else.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTS = {
    "errors": ("InputError", "InternalError", "LogPairError",
               "NoPencilError", "NotDecomposableError"),
    "lattice": ("DivisorClass", "HodgeData", "ModelKind", "SurfaceModel",
                "blow_up_transform"),
    "dualgraph": ("DualGraph", "Edge", "Segment", "SegmentReport", "Vertex",
                  "classify_segments"),
    "peeling": ("BarkResult", "bark", "sharp_boundary_class",
                "sharp_orthogonality_check"),
    "zariski": ("NEF_SCOPE", "DecompositionCheck", "ZariskiDecomposition",
                "verify_decomposition", "zariski_decompose"),
    "invariants": ("EulerBoundReport", "InvariantReport", "LogInvariants",
                   "TheoremCheck", "bmy_check", "euler_bound_check",
                   "genus_bound", "invariant_report", "log_chern",
                   "log_genus_rational", "main_theorem_predicate",
                   "noether_check"),
    "pencil": ("FixedPart", "PencilResult", "analyze_adjoint_system"),
    "examples": ("run_ex2", "run_ex3", "run_example"),
    "search": ("FamilyInstance", "ConstraintReport", "e_window",
               "evaluate_constraints", "interval_report_x8_y1",
               "reduced_bounds_x8_y1", "run_search"),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # not cached here: a binding copied into the package would outlive a
    # later patch of the submodule, so every access reads the submodule
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
