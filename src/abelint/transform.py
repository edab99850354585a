"""Algebraic equivalences and reduction to the non-exact 1-form basis.

A pair (psi, sigma) of a polynomial automorphism of the plane and a
rescaling sigma(c) = s1*c of the value line carries a Hamiltonian and a
1-form into normal-form coordinates.  Any polynomial 1-form decomposes as
an exact part dQ plus a combination of the basis monomials x^i y^j dx
with j >= 1, which is the shape the residue machinery consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .algebra import ONE, BiPoly, GaussRat, _bipoly, _grid_integral


# The cap on deg f * deg g for the compositions a pair is checked by.  A
# dense pair of degrees 8 and 8 takes 0.6 s to check on a 2-core VM, and the
# time grows with about the fourth power of the degrees.
MAX_COMPOSED_DEGREE = 64


class AutomorphismError(ValueError):
    """The supplied forward/inverse pair is not a plane automorphism."""


@dataclass(frozen=True)
class PolyAutomorphism:
    """Plane automorphism with explicit inverse, plus a value-line scale.

    forward = (psi1, psi2), inverse = (phi1, phi2), sigma(c) = s1*c.
    forward(inverse) = id is verified symbolically at construction, and
    that alone makes the pair inverse to each other: it makes ``inverse``
    injective, an injective polynomial map of C^2 is bijective
    (Ax-Grothendieck), so ``forward`` is its inverse map, and
    inverse(forward) = id holds as maps and hence as polynomials.  Before
    composing, the largest forward degree times the largest inverse degree,
    which bounds the composition's degree, must be at most
    MAX_COMPOSED_DEGREE, and the forward map's Jacobian determinant must be
    a nonzero constant.
    """

    forward: Tuple[BiPoly, BiPoly]
    inverse: Tuple[BiPoly, BiPoly]
    s1: GaussRat = ONE

    def __post_init__(self):
        if not self.s1:
            raise AutomorphismError("sigma must be invertible: s1 != 0")
        x, y = BiPoly.var(0), BiPoly.var(1)
        f1, f2 = self.forward
        g1, g2 = self.inverse
        deg_f = max(f1.total_degree, f2.total_degree, 0)
        deg_g = max(g1.total_degree, g2.total_degree, 0)
        if deg_f * deg_g > MAX_COMPOSED_DEGREE:
            raise AutomorphismError(
                f"forward degree {deg_f} times inverse degree {deg_g} exceeds "
                f"the cap {MAX_COMPOSED_DEGREE} on composed degrees")
        jacobian = f1.partial(0) * f2.partial(1) - f1.partial(1) * f2.partial(0)
        if jacobian.total_degree != 0:
            raise AutomorphismError(
                "the forward map's Jacobian determinant is not a nonzero constant")
        if f1.compose(g1, g2) != x or f2.compose(g1, g2) != y:
            raise AutomorphismError("forward(inverse) is not the identity")


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

    @classmethod
    def d(cls, Q_poly: BiPoly) -> "OneForm":
        """The exact form dQ."""
        return cls(Q_poly.partial(0), Q_poly.partial(1))


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

    Returns (coeffs, Q) with Q = int_0^y B dy + int_0^x A(x, 0) dx: B
    integrated in y, plus A's y^0 column integrated in x.  The basis part
    A - dQ/dx then has no y^0 column, and ``coeffs`` is its ``terms``,
    {(i, j): GaussRat}.
    """
    a = w.A
    column = _bipoly(a.den, [row[:1] for row in a.re], a.im and [row[:1] for row in a.im])
    q_poly = _grid_integral(column, 0) + _grid_integral(w.B, 1)
    return (a - q_poly.partial(0)).terms, q_poly
