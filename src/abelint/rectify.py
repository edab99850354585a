"""Rectifying birational maps and push-forwards of 1-forms.

For each family (and each sign of p*q1 - q*p1) the map R = (G, H) sends
generic fibers {H = c} to horizontal punctured lines in the (t, c) plane.
The explicit inverse is built here in factored rational form and verified
symbolically: H(inverse) = c and G(inverse) = t as rational identities.
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
    BiPoly,
    GaussRat,
    RatFunc,
    TFactor,
    UniPoly,
    power_table,
    t_factor,
)
from .errors import ConstructionFailure
from .family import (
    MOVING_PUNCTURE,
    ZERO_PUNCTURE,
    FamilyFacts,
    NormalForm,
    hamiltonian,
    validate,
)


@dataclass(frozen=True)
class CanonicalCycle:
    """Anti-clockwise loop around one finite puncture of the rectified fiber."""

    index: int
    puncture: str


class RectifyingMap:
    """The rectifying map R = (G, H), held as its explicit rational inverse."""

    def __init__(self, nf: NormalForm, facts: FamilyFacts,
                 inverse_x: RatFunc, inverse_y: RatFunc):
        self.nf = nf
        self.facts = facts
        self.inverse_x = inverse_x
        self.inverse_y = inverse_y
        self.dx_dt = inverse_x.derivative(0)
        self._pow_x = power_table(inverse_x, RatFunc.const(ONE))
        self._pow_y = power_table(inverse_y, RatFunc.const(ONE))
        self._eta_t: Dict[Tuple[int, int], RatFunc] = {}

    @cached_property
    def dy_dt(self) -> RatFunc:
        """d inverse_y / dt; only the oracle's fiber route reads it."""
        return self.inverse_y.derivative(0)

    def puncture_factor(self, puncture: str) -> TFactor:
        """The linear denominator factor t - pi(c) of a puncture."""
        if puncture == ZERO_PUNCTURE:
            return t_factor(ZERO, ZERO)
        if puncture == MOVING_PUNCTURE:
            return t_factor(ONE, ZERO)
        index = int(puncture[4:])
        return t_factor(ZERO, self.nf.beta[index - 1])

    def puncture_location(self, puncture: str) -> UniPoly:
        """The puncture position as a polynomial in c (constant or c itself)."""
        _, pi1, pi0 = self.puncture_factor(puncture)
        return UniPoly([pi0, pi1])

    def monomial_pushforward(self, i: int, j: int) -> RatFunc:
        """eta_t: x^i y^j evaluated on the inverse, times dx/dt; memoised."""
        eta_t = self._eta_t.get((i, j))
        if eta_t is None:
            eta_t = self._pow_x(i) * self._pow_y(j) * self.dx_dt
            self._eta_t[(i, j)] = eta_t
        return eta_t


def _signed_denominator(t_pow: int = 0, beta_pows: Dict[int, int] = None,
                        c_pow: int = 0, moving_pow: int = 0, nf: NormalForm = None):
    """Factor dict for t^t_pow * prod (beta_i - t)^e_i * c^c_pow * (c - t)^m.

    Returns (factors, sign): (beta - t) and (c - t) are stored as the monic
    factors (t - beta), (t - c); the accumulated sign compensates.
    """
    fac: Dict[TFactor, int] = {}
    sign = 1
    if t_pow:
        fac[t_factor(ZERO, ZERO)] = t_pow
    for index, e in (beta_pows or {}).items():
        if e:
            fac[t_factor(ZERO, nf.beta[index])] = e
            sign *= (-1) ** e
    if c_pow:
        fac[C_FACTOR] = c_pow
    if moving_pow:
        fac[t_factor(ONE, ZERO)] = moving_pow
        sign *= (-1) ** moving_pow
    return fac, sign


def _pi_power(nf: NormalForm, e: int) -> BiPoly:
    """Pi(t)^e = prod (beta_i - t)^{a_i e} as a (t, c) polynomial."""
    acc = BiPoly.const(ONE)
    t = BiPoly.var(0)
    for b, a in zip(nf.beta, nf.a):
        acc = acc * (BiPoly.const(b) - t) ** (a * e)
    return acc


def _t_power(n: int) -> BiPoly:
    return BiPoly({(n, 0): ONE})


def _c_power(n: int) -> BiPoly:
    return BiPoly({(0, n): ONE})


def _moving_power(n: int) -> BiPoly:
    """(c - t)^n."""
    return (BiPoly.var(1) - BiPoly.var(0)) ** n


def build_rectifier(nf: NormalForm) -> RectifyingMap:
    """Construct and symbolically verify the rectifying map for a normal form."""
    facts = validate(nf)
    t = BiPoly.var(0)

    if nf.family == "F3":
        h_t = BiPoly.from_unipoly(nf.h, 0)
        num = (BiPoly.var(1) - h_t)
        fac, sign = _signed_denominator(
            beta_pows={i: a for i, a in enumerate(nf.a)}, nf=nf)
        inverse_x = RatFunc(t)
        inverse_y = RatFunc(num.scale(GaussRat(sign)), fac)
    else:
        p1, p, q1, q = facts.effective
        k = nf.k
        lam = nf.P.coeffs  # P = sum lam_s x^s, deg <= k-1

        if facts.sign_case == 1:
            # x = t^p Pi^q / W^q,   W = c (family two) or c - t (family one)
            # y = [W^{qk+q1} - sum_s lam_s t^{p1+ps} Pi^{q1+qs} W^{q(k-s)}]
            #     / (t^{pk+p1} Pi^{qk+q1})
            if nf.family == "F2":
                w_power = _c_power
                x_fac, x_sign = _signed_denominator(c_pow=q, nf=nf)
            else:
                w_power = _moving_power
                x_fac, x_sign = _signed_denominator(moving_pow=q, nf=nf)
            x_num = (_t_power(p) * _pi_power(nf, q)).scale(GaussRat(x_sign))
            inverse_x = RatFunc(x_num, x_fac)
            y_num = w_power(q * k + q1)
            for s_idx, coeff in enumerate(lam):
                if coeff:
                    term = _t_power(p1 + p * s_idx) * _pi_power(nf, q1 + q * s_idx) \
                        * w_power(q * (k - s_idx))
                    y_num = y_num - term.scale(coeff)
            y_fac, y_sign = _signed_denominator(
                t_pow=p * k + p1,
                beta_pows={i: a * (q * k + q1) for i, a in enumerate(nf.a)}, nf=nf)
            inverse_y = RatFunc(y_num.scale(GaussRat(y_sign)), y_fac)
        else:
            # x = W^q / (t^p Pi^q)
            # y = [t^{pk+p1} Pi^{qk+q1} - sum_s lam_s W^{q1+qs} t^{p(k-s)} Pi^{q(k-s)}]
            #     / W^{qk+q1}
            if nf.family == "F2":
                w_power = _c_power
                y_fac, y_sign = _signed_denominator(c_pow=q * k + q1, nf=nf)
            else:
                w_power = _moving_power
                y_fac, y_sign = _signed_denominator(moving_pow=q * k + q1, nf=nf)
            x_fac, x_sign = _signed_denominator(
                t_pow=p, beta_pows={i: a * q for i, a in enumerate(nf.a)}, nf=nf)
            inverse_x = RatFunc(w_power(q).scale(GaussRat(x_sign)), x_fac)
            y_num = _t_power(p * k + p1) * _pi_power(nf, q * k + q1)
            for s_idx, coeff in enumerate(lam):
                if coeff:
                    term = w_power(q1 + q * s_idx) * _t_power(p * (k - s_idx)) \
                        * _pi_power(nf, q * (k - s_idx))
                    y_num = y_num - term.scale(coeff)
            inverse_y = RatFunc(y_num.scale(GaussRat(y_sign)), y_fac)

    rm = RectifyingMap(nf, facts, inverse_x, inverse_y)
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


def allowed_pole_factors(rm: RectifyingMap) -> List[TFactor]:
    """Denominator factors permitted for pushed-forward forms."""
    return [rm.puncture_factor(kind) for kind in rm.facts.puncture_kinds] \
        + [C_FACTOR]
