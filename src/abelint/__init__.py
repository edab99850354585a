"""Exact Abelian integrals over canonical cycles of trivial-global-monodromy
Hamiltonians: normal-form validation, rectifying maps, residue-based
integration, zero counting, bound checking and a numeric oracle."""

from .abelian import (
    AbelianIntegral,
    BoundEntry,
    BoundLedger,
    IntegralReport,
    count_zeros,
    degree_row_bound,
    full_report,
    integrate_cycle,
    transformed_form_degree_cap,
    zero_count_cap,
)
from .algebra import (
    BiPoly,
    CFrac,
    GaussRat,
    MOVING_POLE,
    RatFunc,
    UniPoly,
    laurent_coefficients,
    residue,
    residue_at_infinity,
    residue_via_derivative,
    substitute,
)
from .errors import (
    AbelintError,
    ConstructionFailure,
    GoldenMismatch,
    IdenticallyZero,
    InvalidFamily,
    NoCyclesError,
    NonConvergence,
    NonPolynomialResidue,
    PoleOrderMismatch,
)
from .family import (
    FamilyFacts,
    NormalForm,
    bifurcation_candidates,
    expand,
    s_poly,
    synthesize_qq,
    validate,
)
from .oracle import (
    ContourSpec,
    contour_integral_fiber,
    contour_integral_t,
    default_contour,
    locate_roots,
)
from .rectify import (
    CanonicalCycle,
    RectifyingMap,
    build_rectifier,
    canonical_cycles,
)
from .transform import (
    OneForm,
    PolyAutomorphism,
    basis_combination,
    pushforward_oneform,
    pushforward_polynomial,
    reduce_to_nonexact_basis,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
