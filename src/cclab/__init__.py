"""Desk-scale laboratory for structural communication complexity.

Guess protocols with an exact gap algebra, compilers from polynomials and
majorities to protocols, randomized acceptance with amplification,
exact matrix measures, and a pipeline from rectangle-term polynomials to
verified randomized protocols.  Everything small enough to check is
checked exhaustively, in exact arithmetic.
"""

from ._version import __version__
from .compilers import (
    CompilerError,
    compile_majority,
    compile_polynomial,
    majority_cost_bound,
    majority_guess_bound,
    polynomial_cost_bound,
    polynomial_guess_bound,
)
from .majority import (
    MajorityForm,
    amplifier_exponent,
    majority_form,
    root_poly,
    sign_amplifier,
    verify_amplifier_bounds,
)
from .matrices import (
    BooleanMatrix,
    InputDistribution,
    MatrixFormatError,
    Rectangle,
    SignMatrix,
    SizeGuardError,
    all_boolean_matrices,
    parse_matrix,
    serialize_matrix,
)
from .measures import (
    BpGame,
    BpResult,
    DiscrepancyResult,
    MarginRealization,
    MeasureFn,
    best_rectangle,
    bp_measure,
    check_cost_discrepancy_bound,
    check_margin_discrepancy_sandwich,
    disc,
    disc_mu,
    disc_prime,
    entry_count_measure,
    family_cost_measure,
    inverse_disc_log_measure,
    margin_measure,
    mc,
    mc_prime,
)
from .pipeline import (
    PipelineResult,
    RandomizedRectanglePolynomial,
    RectangleTerm,
    RectangleTermPolynomial,
    and_fixture,
    boundary_fixture,
    cell_polynomial,
    counting_protocol,
    decision_matrix,
    eval_phi,
    or_fixture,
    parse_randomized_polynomial,
    run_pipeline,
    serialize_randomized_polynomial,
)
from .polynomials import (
    IntPolynomial,
    RationalFunction,
    format_polynomial,
    parse_polynomial,
)
from .protocols import (
    ALICE,
    BOB,
    ComplementProtocol,
    DeterministicProtocol,
    DomainMismatchError,
    GapProfile,
    GuessProtocol,
    Leaf,
    MemberProtocols,
    Node,
    OutputLeaf,
    ProductProtocol,
    RepeatProtocol,
    SumProtocol,
    always_accept,
    always_reject,
    ceil_log2,
    dumps_protocol,
    enumerate_protocols,
    gap_profile,
    grid_protocol,
    leaf_protocol,
    loads_protocol,
    normalize_nonzero,
    pp_cost,
    pp_cost_closed,
    pp_eval,
    pp_matrix,
    pp_to_threshold,
    threshold_to_pp,
    wrap_deterministic,
)
from .randomized import (
    RandomizedPPProtocol,
    amplify,
    majority_success_bound,
    minimax_error_check,
    sparsify_support,
    uniform_support,
)
from .suites import SUITES, canonical_report_json, run_suite

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
