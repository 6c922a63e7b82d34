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
"""

from .errors import (InputError, InternalError, LogPairError,
                     NoPencilError, NotDecomposableError)
from .lattice import (DivisorClass, HodgeData, ModelKind, SurfaceModel,
                      blow_up_transform, contract_exceptional)
from .dualgraph import (DualGraph, Edge, Segment, SegmentReport, Vertex,
                        classify_segments)
from .peeling import (BarkResult, MinimalizationResult,
                      almost_minimalize, bark, sharp_boundary_class,
                      sharp_orthogonality_check)
from .zariski import (NEF_SCOPE, DecompositionCheck,
                      ZariskiDecomposition, verify_decomposition,
                      zariski_decompose)
from .invariants import (CorrectionResult, EulerBoundReport,
                         InvariantReport, LogInvariants, TheoremCheck,
                         bmy_check, euler_bound_check,
                         genus_asymptotic_bound, genus_bound,
                         invariant_report, log_chern, log_genus_rational,
                         main_theorem_predicate, noether_check,
                         sharp_completion)
from .pencil import (FixedPart, PencilResult, analyze_adjoint_system,
                     big_margin_hirzebruch, big_margin_p2,
                     dim_lower_bound_hirzebruch, dim_lower_bound_p2,
                     is_big_hirzebruch, is_big_p2)
from .examples import run_ex2, run_ex3, run_example
from .search import (FamilyInstance, ConstraintReport,
                     evaluate_constraints, interval_report_x8_y1,
                     reduced_bounds_x8_y1, run_search)

__version__ = "0.1.0"

__all__ = [
    "BarkResult", "ConstraintReport", "CorrectionResult",
    "DecompositionCheck", "DivisorClass", "DualGraph", "Edge",
    "EulerBoundReport", "FamilyInstance", "FixedPart", "HodgeData",
    "InputError", "InternalError", "InvariantReport", "LogInvariants",
    "LogPairError", "MinimalizationResult", "ModelKind", "NEF_SCOPE",
    "NoPencilError", "NotDecomposableError", "PencilResult", "Segment",
    "SegmentReport", "SurfaceModel", "TheoremCheck", "Vertex",
    "ZariskiDecomposition", "almost_minimalize",
    "analyze_adjoint_system", "bark", "big_margin_hirzebruch",
    "big_margin_p2", "blow_up_transform", "bmy_check",
    "classify_segments", "contract_exceptional",
    "dim_lower_bound_hirzebruch", "dim_lower_bound_p2",
    "euler_bound_check", "evaluate_constraints",
    "genus_asymptotic_bound", "genus_bound", "interval_report_x8_y1",
    "invariant_report", "is_big_hirzebruch", "is_big_p2", "log_chern",
    "log_genus_rational", "main_theorem_predicate", "noether_check",
    "reduced_bounds_x8_y1", "run_ex2", "run_ex3", "run_example", "run_search",
    "sharp_boundary_class", "sharp_completion",
    "sharp_orthogonality_check", "verify_decomposition",
    "zariski_decompose", "__version__",
]
