"""Rectifying birational maps and push-forwards of 1-forms.

For each family the map R = (G, H) sends generic fibers {H = c} to
horizontal punctured lines in the (t, c) plane.  The explicit inverse is
built here in factored rational form and verified symbolically:
H(inverse) = c and G(inverse) = t as rational identities.

With Pi = prod (beta_i - t)^a_i, W = c (family two) or c - t (family one)
and s = p*q1 - q*p1 = +-1, both sign cases are one formula:

    x = M^s,  M = t^p Pi^q / W^q,
    S = x^k y + P(x) = N^s,  N = W^q1 / (t^p1 Pi^q1),
    y = (S - P(x)) x^-k.

Family three has x = t and y = (c - h(t)) / Pi.

A basis 1-form x^i y^j dx pulls back along the inverse to a rational
1-form in (t, c).  A canonical cycle is a loop in t at fixed c, so only the
dt part eta_t = x^i y^j dx/dt enters its integral, and only eta_t is
computed; its t-poles sit exactly on the punctures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from .algebra import (
    C_FACTOR,
    ONE,
    ZERO,
    RatFunc,
    TFactor,
    _horner,
    power_table,
    t_factor,
)
from .errors import ConstructionFailure
from .family import (
    MOVING_PUNCTURE,
    ZERO_PUNCTURE,
    FamilyFacts,
    NormalForm,
    beta_puncture,
    hamiltonian,
    validate,
)


@dataclass(frozen=True)
class CanonicalCycle:
    """Anti-clockwise loop around one finite puncture of the rectified fiber."""

    index: int
    puncture: str


class RectifyingMap:
    """The rectifying map R = (G, H), held as its explicit rational inverse,
    and the factor key of each puncture, which its functions share."""

    def __init__(self, nf: NormalForm, facts: FamilyFacts, factors: Dict[str, TFactor],
                 inverse_x: RatFunc, inverse_y: RatFunc):
        self.nf = nf
        self.facts = facts
        self.factors = factors
        self.inverse_x = inverse_x
        self.inverse_y = inverse_y
        self._pow_x = power_table(inverse_x, RatFunc.const(ONE))
        self._pow_y = power_table(inverse_y, RatFunc.const(ONE))
        self._eta_t: Dict[Tuple[int, int], RatFunc] = {}

    @cached_property
    def dx_dt(self) -> RatFunc:
        """d inverse_x / dt; only ``monomial_pushforward`` and the oracle read it."""
        return self.inverse_x.derivative(0)

    @cached_property
    def dy_dt(self) -> RatFunc:
        """d inverse_y / dt; only the oracle reads it, for a form with a dy part."""
        return self.inverse_y.derivative(0)

    def puncture_factor(self, puncture: str) -> TFactor:
        """The linear denominator factor t - pi(c) of a puncture: the very key
        that the inverse's exponents hold it under."""
        return self.factors[puncture]

    def monomial_pushforward(self, i: int, j: int) -> RatFunc:
        """eta_t: x^i y^j evaluated on the inverse, times dx/dt; memoised."""
        eta_t = self._eta_t.get((i, j))
        if eta_t is None:
            eta_t = self._pow_x(i) * self._pow_y(j) * self.dx_dt
            self._eta_t[(i, j)] = eta_t
        return eta_t


def _product(zero: TFactor, pi: Dict[TFactor, int], w: TFactor,
             t_exp: int, pi_exp: int, w_exp: int = 0) -> RatFunc:
    """t^t_exp Pi^pi_exp W^w_exp, each exponent of either sign.

    ``zero`` is the key of t, ``pi`` maps the key of each t - beta_i to a_i,
    so Pi = prod (beta_i - t)^a_i, and ``w`` is the key of W = c (family
    two) or c - t (family one).  (beta_i - t) and (c - t) are minus the
    monic factors (t - beta_i) and (t - c), so the sign is the parity of
    their total exponent.
    """
    exps = {zero: t_exp}
    exps.update((key, a * pi_exp) for key, a in pi.items())
    exps[w] = w_exp
    flips = sum(pi.values()) * pi_exp + (w_exp if w[0] == "t" else 0)
    return RatFunc.factor_product(exps, -1 if flips % 2 else 1)


def build_rectifier(nf: NormalForm) -> RectifyingMap:
    """Construct and symbolically verify the rectifying map for a normal form."""
    facts = validate(nf)
    # one key per puncture, shared by every function of the rectifier
    zero, w = t_factor(ZERO, ZERO), t_factor(ONE, ZERO) if nf.family == "F1" else C_FACTOR
    pi = {t_factor(ZERO, b): a for b, a in zip(nf.beta, nf.a)}
    by_kind = {ZERO_PUNCTURE: zero, MOVING_PUNCTURE: w}
    by_kind.update((beta_puncture(index), key) for index, key in enumerate(pi, 1))
    factors = {kind: by_kind[kind] for kind in facts.puncture_kinds}
    if nf.family == "F3":
        inverse_x = RatFunc.t()
        inverse_y = (RatFunc.c() - _horner(nf.h.coeffs, inverse_x)) * _product(zero, pi, w, 0, -1)
    else:
        p1, p, q1, q = facts.effective
        s, k = facts.sign_case, nf.k  # x = M^s, S = N^s, y = (S - P(x)) x^-k
        inverse_x = _product(zero, pi, w, s * p, s * q, -s * q)
        big_s = _product(zero, pi, w, -s * p1, -s * q1, s * q1)
        x_to_minus_k = _product(zero, pi, w, -s * p * k, -s * q * k, s * q * k)
        inverse_y = x_to_minus_k * (big_s - _horner(nf.P.coeffs, inverse_x))

    rm = RectifyingMap(nf, facts, factors, inverse_x, inverse_y)
    _verify(rm)
    return rm


def _verify(rm: RectifyingMap) -> None:
    """Check H(inverse) = c and G(inverse) = t as exact rational identities."""
    g_comp, h_total = hamiltonian(rm.nf, rm.facts, rm.inverse_x, rm.inverse_y)
    if h_total != RatFunc.c():
        raise ConstructionFailure("H composed with the inverse is not c")
    if g_comp != RatFunc.t():
        raise ConstructionFailure("G composed with the inverse is not t")


def canonical_cycles(facts: FamilyFacts) -> List[CanonicalCycle]:
    """One anti-clockwise cycle per finite puncture, in canonical order."""
    if facts.homology_rank < 1:
        raise ValueError("no cycles exist for rank-zero fibers")
    return [CanonicalCycle(index, kind)
            for index, kind in enumerate(facts.puncture_kinds)]
