"""Exception hierarchy for the abelint engine."""


class AbelintError(Exception):
    """Base class for all engine errors."""


class PoleOrderMismatch(AbelintError):
    """Two denominator factors sit at one pole, so its order is not generic."""


class InvalidFamily(AbelintError):
    """A normal-form parameter set violates a family constraint."""


class NoCyclesError(InvalidFamily):
    """The fiber carries no cycles at all (homology rank zero)."""


class ConstructionFailure(AbelintError):
    """Symbolic verification of a rectifying map failed.

    This signals an implementation bug, never bad user input.
    """


class NonPolynomialResidue(AbelintError):
    """The residue of a basis form at a puncture is not a polynomial in c.

    Internal invariant breach: the theory guarantees a polynomial.
    """


class IdenticallyZero(AbelintError):
    """Zero counting was requested for an identically-zero integral."""


class NonConvergence(AbelintError):
    """A numeric routine failed to converge within its iteration budget."""


class GoldenMismatch(AbelintError):
    """A bundled example produced output differing from its stored golden."""
