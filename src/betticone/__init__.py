"""Exact tools for the cone of Betti tables over B = k[x,y,z]/(xy,yz,xz).

The cone of graded Betti tables over this ring is cut out by explicit
linear functionals (entrywise nonnegativity, the alpha and gamma
inequalities, and doubling equalities binding row i + 1 to twice row i from
the second row on) and is spanned by the pure diagrams of three shapes of
degree sequence.  This package carries both descriptions,
converts between them (greedy exact decomposition one way, double description
on finite windows the other), and checks them against minimal free
resolutions computed from scratch.
"""

from .cone import (
    BettiSequence,
    Decomposition,
    DecompositionLoopError,
    LocalDecomposition,
    MembershipVerdict,
    NotInConeError,
    Violation,
    check_finite_length,
    check_graded,
    check_local,
    decompose,
    decompose_local,
    degseq_leq,
)
from .linalg import FP_DEFAULT, QQ, PrimeField
from .resolve import (
    BPolynomial,
    BUILTIN_NAMES,
    GradedModuleB,
    HilbertData,
    ResolutionResult,
    StabilizationError,
    builtin,
    hilbert_data,
    min_free_resolution,
    parse_poly,
    quotient_module,
)
from .tables import (
    CANONICAL,
    EXPLICIT,
    INDECOMPOSABLE_NAMES,
    INF,
    BettiTable,
    DegreeSequence,
    Functional,
    HKRay,
    PureDiagram,
    collapse_tail,
    eval_functional,
    expand_tail,
    hk_ray,
    hk_relations_check,
    make_pure_diagram,
    syzygy_of_indecomposable,
    table_arith,
)
from .window import (
    Window,
    WindowCapError,
    WindowReport,
    cross_check,
    extreme_rays,
    normalize_ray,
    table_vector,
    window_facets,
    window_generators,
)

__version__ = "0.1.0"

__all__ = [
    "BettiSequence",
    "BettiTable",
    "BPolynomial",
    "BUILTIN_NAMES",
    "CANONICAL",
    "Decomposition",
    "DecompositionLoopError",
    "DegreeSequence",
    "EXPLICIT",
    "FP_DEFAULT",
    "Functional",
    "GradedModuleB",
    "HilbertData",
    "HKRay",
    "INDECOMPOSABLE_NAMES",
    "INF",
    "LocalDecomposition",
    "MembershipVerdict",
    "NotInConeError",
    "PrimeField",
    "PureDiagram",
    "QQ",
    "ResolutionResult",
    "StabilizationError",
    "Violation",
    "Window",
    "WindowCapError",
    "WindowReport",
    "builtin",
    "check_finite_length",
    "check_graded",
    "check_local",
    "collapse_tail",
    "cross_check",
    "decompose",
    "decompose_local",
    "degseq_leq",
    "eval_functional",
    "expand_tail",
    "extreme_rays",
    "hilbert_data",
    "hk_ray",
    "hk_relations_check",
    "make_pure_diagram",
    "min_free_resolution",
    "normalize_ray",
    "parse_poly",
    "quotient_module",
    "syzygy_of_indecomposable",
    "table_vector",
    "window_facets",
    "window_generators",
]
