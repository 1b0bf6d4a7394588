"""Exact Kauffman-bracket skein calculator.

Everything is computed in the honest ring: Laurent polynomials in A with
integer coefficients (quotients of them where partially smoothed
projector networks demand it).  The package computes unreduced colored
Jones polynomials of links given by PD codes, Jones-Wenzl projectors in
the Temperley-Lieb algebras, colored Kauffman state sums, and the
head/tail coefficient-stability checks for alternating diagrams.
"""

from .laurent import (
    A,
    ONE,
    ZERO,
    LaurentPolynomial,
    RationalFunction,
    crossing_expansion_coefficient,
    divide_exact,
    loop_value,
    quantum_binomial,
    quantum_dimension,
)
from .diagram import (
    LinkDiagram,
    MalformedPDError,
    StateGraph,
    all_a_state,
    all_b_state,
    apply_state,
    is_a_adequate,
    is_adequate,
    is_alternating,
    is_b_adequate,
    is_planar,
    mirror,
    parse_pd,
)
from .temperley_lieb import (
    PlanarMatching,
    TLElement,
    closure,
    jones_wenzl,
    partial_trace,
    tl_multiply,
    tl_tensor,
)
from .skein_eval import (
    CROSSING,
    CouponNode,
    DecoratedDiagram,
    MorsePlan,
    ResourceLimitError,
    bracket,
    bracket_bruteforce,
    cabled_diagram,
    colored_jones,
    evaluate,
    evaluate_rational,
    morse_decompose,
    projector_node,
)
from .colored_states import (
    D_degree,
    DegreeLemmaReport,
    all_states,
    alpha,
    build_upsilon,
    colored_state_sum,
    corner_pattern,
    is_adequate_skein,
    lambda_diagram,
    lambda_expand,
    verify_degree_lemmas,
)
from .tails import (
    CoefficientPrefix,
    StabilityReport,
    TailStabilityError,
    aligned_coefficients,
    doteq,
    head_prefix,
    stability_report,
    tail_and_head,
    tail_prefix,
    verify_corollary,
    verify_theorem_1,
    verify_theorem_2,
)
from .fixtures import (
    Fixture,
    FixtureValidationError,
    determinant,
    fixture,
    fixture_names,
    load_fixtures,
)

__version__ = "0.1.0"

__all__ = [
    "A", "ONE", "ZERO", "LaurentPolynomial", "RationalFunction",
    "crossing_expansion_coefficient", "divide_exact", "loop_value",
    "quantum_binomial", "quantum_dimension",
    "LinkDiagram", "MalformedPDError", "StateGraph", "all_a_state",
    "all_b_state", "apply_state", "is_a_adequate", "is_adequate",
    "is_alternating", "is_b_adequate", "is_planar", "mirror", "parse_pd",
    "PlanarMatching", "TLElement", "closure", "jones_wenzl", "partial_trace",
    "tl_multiply", "tl_tensor",
    "CROSSING", "CouponNode", "DecoratedDiagram", "MorsePlan",
    "ResourceLimitError", "bracket", "bracket_bruteforce", "cabled_diagram",
    "colored_jones", "evaluate", "evaluate_rational", "morse_decompose",
    "projector_node",
    "D_degree", "DegreeLemmaReport", "all_states", "alpha", "build_upsilon",
    "colored_state_sum", "corner_pattern", "is_adequate_skein",
    "lambda_diagram", "lambda_expand", "verify_degree_lemmas",
    "CoefficientPrefix", "StabilityReport", "TailStabilityError",
    "aligned_coefficients", "doteq", "head_prefix", "stability_report",
    "tail_and_head", "tail_prefix", "verify_corollary", "verify_theorem_1",
    "verify_theorem_2",
    "Fixture", "FixtureValidationError", "determinant", "fixture",
    "fixture_names", "load_fixtures",
    "__version__",
]
