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
"""

from .errors import (InputError, InternalError, LogPairError,
                     NoPencilError, NotDecomposableError)
from .lattice import (DivisorClass, HodgeData, ModelKind, SurfaceModel,
                      blow_up_transform)
from .dualgraph import (DualGraph, Edge, Segment, SegmentReport, Vertex,
                        classify_segments)
from .peeling import (BarkResult, bark, sharp_boundary_class,
                      sharp_orthogonality_check)
from .zariski import (NEF_SCOPE, DecompositionCheck,
                      ZariskiDecomposition, verify_decomposition,
                      zariski_decompose)
from .invariants import (EulerBoundReport, InvariantReport, LogInvariants,
                         TheoremCheck, bmy_check, euler_bound_check,
                         genus_bound, invariant_report, log_chern,
                         log_genus_rational, main_theorem_predicate,
                         noether_check)
from .pencil import FixedPart, PencilResult, analyze_adjoint_system
from .examples import run_ex2, run_ex3, run_example
from .search import (FamilyInstance, ConstraintReport, e_window,
                     evaluate_constraints, interval_report_x8_y1,
                     reduced_bounds_x8_y1, run_search)

__version__ = "0.1.0"

__all__ = [
    "BarkResult", "ConstraintReport", "DecompositionCheck", "DivisorClass",
    "DualGraph", "Edge", "EulerBoundReport", "FamilyInstance", "FixedPart",
    "HodgeData", "InputError", "InternalError", "InvariantReport",
    "LogInvariants", "LogPairError", "ModelKind", "NEF_SCOPE",
    "NoPencilError", "NotDecomposableError", "PencilResult", "Segment",
    "SegmentReport", "SurfaceModel", "TheoremCheck", "Vertex",
    "ZariskiDecomposition", "analyze_adjoint_system", "bark",
    "blow_up_transform", "bmy_check", "classify_segments", "e_window",
    "euler_bound_check", "evaluate_constraints", "genus_bound",
    "interval_report_x8_y1", "invariant_report", "log_chern",
    "log_genus_rational", "main_theorem_predicate", "noether_check",
    "reduced_bounds_x8_y1", "run_ex2", "run_ex3", "run_example",
    "run_search", "sharp_boundary_class", "sharp_orthogonality_check",
    "verify_decomposition", "zariski_decompose", "__version__",
]
