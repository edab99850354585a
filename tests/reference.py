"""Independent reference routes for residues, on fractions of c-polynomials.

The package returns a residue as a c-polynomial, and ``_residue_fraction``
gives it unreduced: a numerator over known linear divisors in c.  The
routes here reach the same values another way and return unreduced
(numerator, denominator) pairs of ``UniPoly``; ``same_fraction`` compares
two pairs by cross-multiplying, so a comparison runs no gcd.  ``CFrac``, a
reduced fraction, serves only ``residue_at_infinity``, the route the
residue theorem (criterion 7) is checked with.

The package's scalar ``GaussRat`` is checked against ``FractionGaussRat``,
the same element of Q(i) kept as two ``Fraction``s.  The package's
polynomial routes are checked against ``expand`` and
``pushforward_polynomial``, which fully expand a Hamiltonian and its
pushforward by an automorphism.
"""

from fractions import Fraction
from itertools import repeat, zip_longest

from abelint import BiPoly, NormalForm, PolyAutomorphism, RatFunc, UniPoly, hamiltonian, validate
from abelint.algebra import (
    ONE,
    _bipoly,
    _lead_inverse,
    _poly,
    _residue_fraction,
    _synthetic_division,
    power_table,
)


# ---------------------------------------------------------------------------
# Gaussian rationals as two Fractions
# ---------------------------------------------------------------------------

class FractionGaussRat:
    """An exact element of Q(i), stored as two reduced rationals.

    A real value hashes like its rational; a complex one like the pair.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def to_json(self):
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    def __add__(self, other):
        other = _coerce(other)
        return FractionGaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return FractionGaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return FractionGaussRat(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def inverse(self) -> "FractionGaussRat":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return FractionGaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __neg__(self):
        return FractionGaussRat(-self.re, -self.im)

    def __pow__(self, n: int):
        base, result = (self.inverse(), -n) if n < 0 else (self, n)
        value = FractionGaussRat(1)
        for _ in range(result):
            value = value * base
        return value

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _coerce(value) -> FractionGaussRat:
    return value if isinstance(value, FractionGaussRat) else FractionGaussRat(value)


# ---------------------------------------------------------------------------
# Expanded Hamiltonians
# ---------------------------------------------------------------------------

def expand(nf: NormalForm) -> BiPoly:
    """The explicit Hamiltonian as a bivariate polynomial in (x, y)."""
    return hamiltonian(nf, validate(nf), BiPoly.var(0), BiPoly.var(1))[1]


def pushforward_polynomial(H: BiPoly, aut: PolyAutomorphism) -> BiPoly:
    """sigma(H(psi^{-1}(x, y))), fully expanded."""
    g1, g2 = aut.inverse
    return H.compose(g1, g2).scale(aut.s1)


# ---------------------------------------------------------------------------
# Unreduced pairs
# ---------------------------------------------------------------------------

def residue_pair(f: RatFunc, factor) -> tuple:
    """``_residue_fraction``'s numerator over the product of its divisors."""
    numerator, divisors = _residue_fraction(f, factor)
    denominator = UniPoly.const(1)
    for root, k in divisors:
        denominator = denominator * UniPoly([-root, ONE]) ** k
    return numerator, denominator


def same_fraction(a: tuple, b: tuple) -> bool:
    """a = b for (numerator, denominator) pairs, by cross-multiplying."""
    return a[0] * b[1] == b[0] * a[1]


def fraction_sum(pairs) -> tuple:
    """The sum of (numerator, denominator) pairs, unreduced."""
    num, den = UniPoly(), UniPoly.const(1)
    for n, d in pairs:
        num, den = num * d + n * den, den * d
    return num, den


def eval_at_t(f: RatFunc, point: UniPoly) -> tuple:
    """Exact value of f at t = point(c) as a pair; point must avoid all poles."""
    num, den = f.num.compose(point, UniPoly([0, 1])), UniPoly.const(1)
    for key, e in f.fac.items():
        if key[0] == "t":
            base = point - key[1]
        else:
            base = UniPoly([0, 1])
        if base.is_zero():
            raise ZeroDivisionError("evaluation point is a pole")
        den = den * (base ** e)
    return num, den


# ---------------------------------------------------------------------------
# The Laurent recurrence
# ---------------------------------------------------------------------------

def laurent_numerators_reference(f: RatFunc, factor, depth: int):
    """(S_0 .. S_{depth-1}, k -> d0^k): the Laurent numerators at t - pi(c),
    by the fraction-free recurrence; the reference route for ``residue``.

    The declared depth must equal the exact pole order, otherwise
    ValueError is raised.  With u = t - pi(c), f = N(u) / (u^depth
    D1(u)) for N, D1 in Q(i)[c][u], and the coefficient of u^(k - depth) is
    s_k = [u^k] N/D1.  With d0 = D1(0), the numerators S_k = s_k d0^(k+1)
    obey S_k = N_k d0^k - sum_{m<k} S_m D1_{k-m} d0^(k-m-1) in Q(i)[c], so
    s_k is S_k / d0^(k+1) and the residue is s_{depth-1}.
    """
    order = f.pole_order(factor)
    if order != depth:
        raise ValueError(f"declared pole order {depth} at t - ({factor[1]!r}), actual {order}")
    pi = factor[1]
    # N(u + pi) below u^depth: the remainders of repeated synthetic division.
    shifted, rest = [], f.num
    while rest.re and len(shifted) < depth:
        (qd, qr, qi), (den, re, im) = _synthetic_division(rest, pi)
        rest = _bipoly(qd, list(qr), qi and list(qi))
        shifted.append(_poly(den, list(re), im and list(im)))
    shifted += [UniPoly()] * (depth - len(shifted))
    # D1(u) below u^depth: c^e for the factor c, (u + pi - pi')^e for t - pi'.
    d1 = [UniPoly.const(1)]
    for key, e in f.fac.items():
        if key[0] == "c":
            d1 = [row * UniPoly([0] * e + [1]) for row in d1]
        elif key != factor:
            delta = pi - key[1]
            for _ in range(e):
                d1 = [a + b for a, b in zip_longest([delta * row for row in d1], [UniPoly()] + d1,
                                                    fillvalue=UniPoly())][:depth]
    if d1[0].is_zero():
        raise ValueError("pole locations collide; pole order is not generic")
    d0_pows = power_table(d1[0], UniPoly.const(1))
    scaled = [(j, d * d0_pows(j - 1)) for j, d in enumerate(d1) if j and d]
    series = []
    for k in range(depth):
        acc = shifted[k] * d0_pows(k)
        for j, e_j in scaled:
            if j <= k and series[k - j]:
                acc = acc - series[k - j] * e_j
        series.append(acc)
    return series, d0_pows


def reference_residue(f: RatFunc, factor) -> tuple:
    """The residue by the reference recurrence, as an unreduced pair."""
    order = f.pole_order(factor)
    if order == 0:
        return UniPoly(), UniPoly.const(1)
    series, d0_pows = laurent_numerators_reference(f, factor, order)
    return series[-1], d0_pows(order)


# ---------------------------------------------------------------------------
# The residue at infinity, over the fraction field of Q(i)[c]
# ---------------------------------------------------------------------------

class CFrac:
    """Element of the fraction field of Q(i)[c], kept reduced and monic-bottom."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = None):
        if den is None:
            den = UniPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in CFrac")
        if num.is_zero():
            num, den = UniPoly(), UniPoly.const(1)
        else:
            if den.degree > 0:
                g = num.gcd(den)
                num, den = num.divmod(g)[0], den.divmod(g)[0]
            inv = _lead_inverse(den)
            num, den = num * inv, den * inv
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __sub__(self, other):
        return CFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return CFrac(-self.num, self.den)

    def __mul__(self, other):
        return CFrac(self.num * other.num, self.den * other.den)

    def inverse(self) -> "CFrac":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero CFrac")
        return CFrac(self.den, self.num)


def _unipoly_rows(p) -> list:
    """A BiPoly's rows as c-polynomials."""
    return [_poly(p.den, list(r), m and list(m))
            for r, m in zip(p.re, p.im or repeat(None))]


def residue_at_infinity(f: RatFunc) -> tuple:
    """Residue at t = infinity, minus the 1/t coefficient of the expansion,
    as a reduced pair."""
    den_rows = [CFrac(p) for p in _unipoly_rows(f.denominator)]
    num_rows = [CFrac(p) for p in _unipoly_rows(f.num)]
    if not den_rows:
        raise ZeroDivisionError("zero denominator")
    zero = UniPoly(), UniPoly.const(1)
    if not num_rows:
        return zero
    # Polynomial division in t over Frac(Q(i)[c]); only the remainder matters.
    deg_d = len(den_rows) - 1
    rem = list(num_rows)
    lead_inv = den_rows[-1].inverse()
    for k in range(len(rem) - deg_d - 1, -1, -1):
        factor = rem[k + deg_d] * lead_inv
        if not factor.is_zero():
            for j, d in enumerate(den_rows):
                rem[k + j] = rem[k + j] - factor * d
    while rem and rem[-1].is_zero():
        rem.pop()
    if len(rem) == deg_d and deg_d >= 1:
        value = -(rem[-1] * lead_inv)
        return value.num, value.den
    return zero
