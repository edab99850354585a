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
    GaussRat,
    RatFunc,
    UniPoly,
    residue,
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
)
from .family import (
    FamilyFacts,
    NormalForm,
    hamiltonian,
    synthesize_qq,
    validate,
)
from .oracle import (
    check_report,
    contour_integral_fiber,
    contour_integral_t,
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
    pushforward_oneform,
    reduce_to_nonexact_basis,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
