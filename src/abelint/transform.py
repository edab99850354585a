"""Algebraic equivalences and reduction to the non-exact 1-form basis.

A pair (psi, sigma) of a polynomial automorphism of the plane and an
affine reparametrization of the value line carries a Hamiltonian and a
1-form into normal-form coordinates.  Any polynomial 1-form decomposes as
an exact part dQ plus a combination of the basis monomials x^i y^j dx
with j >= 1, which is the shape the residue machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .algebra import ONE, ZERO, _PZERO, BiPoly, GaussRat, _bipoly, _poly


class AutomorphismError(ValueError):
    """The supplied forward/inverse pair does not compose to the identity."""


@dataclass(frozen=True)
class PolyAutomorphism:
    """Plane automorphism with explicit inverse, plus an affine value map.

    forward = (psi1, psi2), inverse = (phi1, phi2), sigma(c) = s1*c + s0.
    Both compositions are verified symbolically at construction.
    """

    forward: Tuple[BiPoly, BiPoly]
    inverse: Tuple[BiPoly, BiPoly]
    s1: GaussRat = ONE
    s0: GaussRat = ZERO

    def __post_init__(self):
        if not self.s1:
            raise AutomorphismError("sigma must be invertible: s1 != 0")
        x, y = BiPoly.var(0), BiPoly.var(1)
        f1, f2 = self.forward
        g1, g2 = self.inverse
        if f1.compose(g1, g2) != x or f2.compose(g1, g2) != y:
            raise AutomorphismError("forward(inverse) is not the identity")
        if g1.compose(f1, f2) != x or g2.compose(f1, f2) != y:
            raise AutomorphismError("inverse(forward) is not the identity")


@dataclass(frozen=True)
class OneForm:
    """Polynomial 1-form A dx + B dy."""

    A: BiPoly
    B: BiPoly

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero form."""
        return max(self.A.total_degree, self.B.total_degree, 0)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.A + other.A, self.B + other.B)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.A - other.A, self.B - other.B)

    @classmethod
    def d(cls, Q_poly: BiPoly) -> "OneForm":
        """The exact form dQ."""
        return cls(Q_poly.partial(0), Q_poly.partial(1))


def pushforward_polynomial(H: BiPoly, aut: PolyAutomorphism) -> BiPoly:
    """sigma(H(psi^{-1}(x, y))), fully expanded."""
    g1, g2 = aut.inverse
    composed = H.compose(g1, g2)
    return composed.scale(aut.s1) + BiPoly.const(aut.s0)


def pushforward_oneform(w: OneForm, aut: PolyAutomorphism) -> OneForm:
    """sigma' times the pushforward of w, computed as pullback by psi^{-1}."""
    g1, g2 = aut.inverse
    a_new = w.A.compose(g1, g2)
    b_new = w.B.compose(g1, g2)
    out_a = a_new * g1.partial(0) + b_new * g2.partial(0)
    out_b = a_new * g1.partial(1) + b_new * g2.partial(1)
    return OneForm(out_a.scale(aut.s1), out_b.scale(aut.s1))


def reduce_to_nonexact_basis(w: OneForm):
    """Split w = A dx + B dy into dQ + sum coeffs[i, j] * x^i y^j dx, j >= 1.

    Returns (coeffs, Q) with Q = int_0^y B dy + int_0^x A(x, 0) dx: each
    row of B integrated in y, plus A's y^0 column integrated in x.  The
    basis part A - dQ/dx then has no y^0 column, and ``coeffs`` is its
    ``terms``, {(i, j): GaussRat}.
    """
    column = [_PZERO] + [_poly(row.den * i, row.re[:1], row.im and row.im[:1])
                         for i, row in enumerate(w.A.rows, 1)]
    q_poly = _bipoly(column) + _bipoly([row.antiderivative() for row in w.B.rows])
    return (w.A - q_poly.partial(0)).terms, q_poly
