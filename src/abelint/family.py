"""The three normal-form families of trivial-global-monodromy Hamiltonians.

Family one:   H = x^q1 S^q + x^p1 S^p prod_i (beta_i - x^q1 S^q)^a_i
Family two:   H = x^p1 S^p prod_i (beta_i - x^q1 S^q)^a_i
Family three: H = y prod_i (beta_i - x)^a_i + h(x)

with S(x, y) = x^k y + P(x), deg P <= k - 1, 0 <= p1 < p, 0 <= q1 < q and
p q1 - q p1 = +-1.  Validation derives the structural facts used downstream:
degree, homology rank, puncture list and bifurcation-value candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .algebra import ZERO, GaussRat, UniPoly, _horner
from .errors import InvalidFamily, NoCyclesError

# Puncture kinds of the rectified fiber
ZERO_PUNCTURE = "zero"        # t = 0
MOVING_PUNCTURE = "moving_c"  # t = c


def beta_puncture(index: int) -> str:
    """t = beta_index (1-based)."""
    return f"beta{index}"


@dataclass(frozen=True)
class NormalForm:
    """Tagged union over the three families.

    family: "F1", "F2" or "F3".
    F1/F2 use (p1, p, q1, q, k, P, a, beta); F3 uses (a, beta, h).
    For F2 with an empty beta list (rank one) the pair (q1, q) is
    synthesized during validation and the supplied values are ignored.
    """

    family: str
    p1: int = 0
    p: int = 0
    q1: int = 0
    q: int = 0
    k: int = 0
    P: UniPoly = field(default_factory=UniPoly)
    a: Tuple[int, ...] = ()
    beta: Tuple[GaussRat, ...] = ()
    h: UniPoly = field(default_factory=UniPoly)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "beta", tuple(GaussRat.parse(b) for b in self.beta))

    @property
    def r(self) -> int:
        return len(self.a) + 1


@dataclass(frozen=True)
class FamilyFacts:
    """Structural data derived from a validated normal form."""

    family: str
    degree: int                       # total degree of the Hamiltonian
    puncture_kinds: Tuple[str, ...]   # ordered finite punctures of the fiber
    bifurcation_candidates: Tuple[GaussRat, ...]
    sign_case: Optional[int]          # p q1 - q p1 for F1/F2; None for F3
    effective: Tuple[int, int, int, int]  # (p1, p, q1, q) after synthesis

    @property
    def homology_rank(self) -> int:
        """One canonical cycle per finite puncture."""
        return len(self.puncture_kinds)


def synthesize_qq(p1: int, p: int) -> Tuple[int, int]:
    """Smallest q1 in (0, p] with integral q > q1 solving p*q1 - q*p1 = 1."""
    if p1 == 0:
        if p != 1:
            raise InvalidFamily("rank-one family two requires p = 1 when p1 = 0")
        return 1, 2
    for q1 in range(1, p + 1):
        numerator = p * q1 - 1
        if numerator % p1 == 0:
            q = numerator // p1
            if q > q1:
                return q1, q
    raise InvalidFamily("no (q1, q) with p*q1 - q*p1 = 1 exists; gcd(p1, p) != 1")


def _check_shared(nf: NormalForm) -> None:
    if nf.k < 1:
        raise InvalidFamily("k must be a positive integer")
    if nf.p < 1:
        raise InvalidFamily("p must be a positive integer")
    if not (0 <= nf.p1 < nf.p):
        raise InvalidFamily("parameters must satisfy 0 <= p1 < p")
    if nf.P.degree != float("-inf") and nf.P.degree > nf.k - 1:
        raise InvalidFamily("deg P must be at most k - 1")
    _check_beta_a(nf)


def _check_beta_a(nf: NormalForm) -> None:
    if len(nf.a) != len(nf.beta):
        raise InvalidFamily("a and beta must have the same length")
    if any(v < 1 for v in nf.a):
        raise InvalidFamily("multiplicities a_i must be positive integers")
    if any(not b for b in nf.beta):
        raise InvalidFamily("beta entries must be nonzero")
    if len(set(nf.beta)) != len(nf.beta):
        raise InvalidFamily("beta entries must be distinct")


def _check_qq(nf: NormalForm) -> int:
    if nf.q < 1:
        raise InvalidFamily("q must be a positive integer")
    if not (0 <= nf.q1 < nf.q):
        raise InvalidFamily("parameters must satisfy 0 <= q1 < q")
    sign = nf.p * nf.q1 - nf.q * nf.p1
    if sign not in (1, -1):
        raise InvalidFamily("parameters must satisfy p*q1 - q*p1 = +1 or -1")
    return sign


def validate(nf: NormalForm) -> FamilyFacts:
    """Check every family constraint and derive structural facts."""
    if nf.family == "F3":
        return _validate_f3(nf)
    if nf.family not in ("F1", "F2"):
        raise InvalidFamily(f"unknown family tag {nf.family!r}")

    _check_shared(nf)
    r = nf.r

    if nf.family == "F1":
        if r < 2:
            raise InvalidFamily("family one requires r >= 2 (nonempty beta list)")
        sign = _check_qq(nf)
        p1, p, q1, q = nf.p1, nf.p, nf.q1, nf.q
    else:  # F2
        if r == 1:
            if math.gcd(nf.p1, nf.p) != 1:
                raise InvalidFamily("rank-one family two requires gcd(p1, p) = 1")
            q1, q = synthesize_qq(nf.p1, nf.p)
            sign = 1
            p1, p = nf.p1, nf.p
        else:
            sign = _check_qq(nf)
            p1, p, q1, q = nf.p1, nf.p, nf.q1, nf.q

    total_a = sum(nf.a)
    degree = p1 + p * (nf.k + 1) + (q1 + q * (nf.k + 1)) * total_a

    punctures = (ZERO_PUNCTURE,) + tuple(beta_puncture(i + 1) for i in range(r - 1))
    if nf.family == "F1":
        punctures += (MOVING_PUNCTURE,)

    candidates = _bifurcation_candidates_f12(nf, p1, q1)
    return FamilyFacts(nf.family, degree, punctures, candidates, sign, (p1, p, q1, q))


def _validate_f3(nf: NormalForm) -> FamilyFacts:
    _check_beta_a(nf)
    r = nf.r
    if r < 2:
        raise NoCyclesError("family three with r = 1 has no cycles; rejected")
    total_a = sum(nf.a)
    if nf.h.degree != float("-inf") and nf.h.degree >= total_a:
        raise InvalidFamily("deg h must be less than sum(a_i)")
    degree = 1 + total_a
    punctures = tuple(beta_puncture(i + 1) for i in range(r - 1))
    candidates = tuple(dict.fromkeys(nf.h.evaluate(b) for b in nf.beta))
    return FamilyFacts("F3", degree, punctures, candidates, None, (0, 0, 0, 0))


def _bifurcation_candidates_f12(nf: NormalForm, p1: int, q1: int) -> Tuple[GaussRat, ...]:
    """Critical-value candidates: the Hamiltonian's values on the ramification locus.

    The components S = 0 and beta_i - G = 0 always map to 0 (and the beta_i
    themselves for family one); the component x = 0 contributes P(0)-type
    values when p1 = 0 or q1 = 0.
    """
    values: List[GaussRat] = []
    if p1 == 0:
        value = nf.P[0]
        for b, a in zip(nf.beta, nf.a):
            value = value * b ** a
        values.append(value)
    elif q1 == 0 and nf.family == "F1":
        values.append(nf.P[0])
    values.append(ZERO)
    if nf.family == "F1":
        values.extend(nf.beta)
    return tuple(dict.fromkeys(values))


def _s(nf: NormalForm, x, y):
    """S = x^k y + P(x), evaluated in the ring of x and y."""
    return x ** nf.k * y + _horner(nf.P.coeffs, x)


def hamiltonian(nf: NormalForm, facts: FamilyFacts, x, y):
    """(G, H) of the normal form, evaluated at (x, y); the one place H is written.

    G is the first component of the rectifying map: x for family three and
    x^q1 S^q otherwise.  The code is generic over the ring of x and y: it
    uses only ``type(x).const`` and ``+ - * **``.  On ``BiPoly.var(0),
    BiPoly.var(1)`` it gives H as a polynomial in the plane; on
    the rectifier's ``RatFunc`` inverse it gives G and H composed with the
    inverse, which ``rectify`` checks against (t, c).
    """
    const = type(x).const
    if nf.family == "F3":
        prod = y
        for b, a in zip(nf.beta, nf.a):
            prod = prod * (const(b) - x) ** a
        return x, prod + _horner(nf.h.coeffs, x)
    p1, p, q1, q = facts.effective
    s = _s(nf, x, y)
    g = x ** q1 * s ** q
    core = x ** p1 * s ** p
    for b, a in zip(nf.beta, nf.a):
        core = core * (const(b) - g) ** a
    return g, (g + core if nf.family == "F1" else core)
