"""Exact arithmetic core.

Gaussian rationals, dense univariate polynomials, sparse bivariate
polynomials, fractions of univariate polynomials, and rational functions
in a distinguished variable t whose coefficients live in the fraction
field of Q(i)[c].  Everything is exact; no floating point enters here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import PoleOrderMismatch

try:  # gmpy2 rationals are a drop-in, much faster backend when present
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction

NEG_INF = float("-inf")


def _pow(base, n: int, one):
    """base ** n by square-and-multiply, for n >= 0; ``one`` is base ** 0."""
    if n < 0:
        raise ValueError(f"negative powers of {type(base).__name__} are not supported")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def power_table(base, one) -> Callable[[int], object]:
    """n -> base ** n, memoised; each new power is one product from the last."""
    table = [one]

    def power(n: int):
        if n < 0:
            raise ValueError(f"negative powers of {type(base).__name__} are not supported")
        while len(table) <= n:
            table.append(table[-1] * base)
        return table[n]

    return power


def _as_q(value):
    if isinstance(value, (int, str)):
        return Q(value)
    if isinstance(value, Fraction):
        return Q(value.numerator, value.denominator)
    return Q(value)


class GaussRat:
    """An exact element of Q(i), stored as two reduced rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_q(re))
        object.__setattr__(self, "im", _as_q(im))

    # -- construction -------------------------------------------------
    @classmethod
    def parse(cls, obj) -> "GaussRat":
        """Parse an exact number: int, "a/b" string, or {re, im} mapping."""
        if isinstance(obj, GaussRat):
            return obj
        if isinstance(obj, Mapping):
            return cls(_as_q(obj.get("re", 0)), _as_q(obj.get("im", 0)))
        if isinstance(obj, (int, str, Fraction)) or type(obj) is type(Q(1)):
            return cls(_as_q(obj))
        raise TypeError(f"cannot parse exact number from {obj!r}")

    def to_json(self):
        """Serialize as an exact string (or {re, im} when truly complex)."""
        if self.im == 0:
            return _q_str(self.re)
        return {"re": _q_str(self.re), "im": _q_str(self.im)}

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if not self.im and not other.im:
            return _gauss(self.re + other.re, self.im)
        return _gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if not self.im and not other.im:
            return _gauss(self.re - other.re, self.im)
        return _gauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        if not self.im and not other.im:
            return _gauss(self.re * other.re, self.im)
        return _gauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gauss(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return _pow(self.inverse(), -n, ONE)
        return _pow(self, n, ONE)

    # -- predicates / conversions -------------------------------------
    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_rational(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return _q_str(self.re)
        if self.re == 0:
            return f"{_q_str(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{_q_str(self.re)}{sign}{_q_str(abs(self.im))}i"


def _q_str(q) -> str:
    return str(q)


_new_object = object.__new__


def _gauss(re, im) -> GaussRat:
    """GaussRat from two values already of type Q, skipping the coercion."""
    obj = _new_object(GaussRat)
    obj.re = re
    obj.im = im
    return obj


def _coerce(value) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, (int, Fraction)) or type(value) is type(Q(1)):
        return GaussRat(value)
    raise TypeError(f"cannot coerce {value!r} to GaussRat")


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


class UniPoly:
    """Dense univariate polynomial over Q(i); trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, GaussRat) else GaussRat.parse(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, value) -> "UniPoly":
        return cls([value])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls([ZERO, ONE])

    @classmethod
    def monomial(cls, power: int, coeff=ONE) -> "UniPoly":
        return cls([ZERO] * power + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> GaussRat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def scale(self, factor: GaussRat) -> "UniPoly":
        return UniPoly([c * factor for c in self.coeffs])

    def __pow__(self, n: int):
        return _pow(self, n, UniPoly.const(ONE))

    def derivative(self) -> "UniPoly":
        return UniPoly([c * GaussRat(k) for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, point: GaussRat) -> GaussRat:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def evaluate_complex(self, point: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * point + c.to_complex()
        return acc

    def divmod(self, divisor: "UniPoly"):
        """Exact polynomial long division over the field Q(i)."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead_inv = divisor.coeffs[-1].inverse()
        quot = [ZERO] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            factor = rem[k + dd] * lead_inv
            if factor:
                quot[k] = factor
                for j, c in enumerate(divisor.coeffs):
                    rem[k + j] = rem[k + j] - factor * c
        return UniPoly(quot), UniPoly(rem)

    def root_multiplicity(self, root: GaussRat) -> int:
        """Multiplicity of (x - root) in self, via exact repeated division."""
        if self.is_zero():
            raise ValueError("zero polynomial has no well-defined multiplicity")
        count, current = 0, self
        linear = UniPoly([-root, ONE])
        while True:
            quot, rem = current.divmod(linear)
            if rem.is_zero():
                count += 1
                current = quot
            else:
                return count

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def to_string(self, var: str = "c") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                term = repr(c)
            else:
                base = var if k == 1 else f"{var}^{k}"
                if c == ONE:
                    term = base
                elif c == -ONE:
                    term = f"-{base}"
                else:
                    cs = repr(c)
                    if ("+" in cs[1:]) or ("-" in cs[1:]):
                        cs = f"({cs})"
                    term = f"{cs}*{base}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return self.to_string()


class BiPoly:
    """Sparse bivariate polynomial over Q(i).

    Variable slots are positional; callers fix the meaning, either
    (x, y) in the plane or (t, c) in the rectified plane.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping = ()):
        clean = {}
        for key, value in dict(terms).items():
            key = (int(key[0]), int(key[1]))
            if key[0] < 0 or key[1] < 0:
                raise ValueError(f"negative exponent in term {key}")
            coeff = value if isinstance(value, GaussRat) else GaussRat.parse(value)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def const(cls, value) -> "BiPoly":
        return cls({(0, 0): value})

    @classmethod
    def var(cls, slot: int) -> "BiPoly":
        return cls({(1, 0) if slot == 0 else (0, 1): ONE})

    @classmethod
    def from_unipoly(cls, poly: UniPoly, slot: int) -> "BiPoly":
        terms = {}
        for k, c in enumerate(poly.coeffs):
            if c:
                terms[(k, 0) if slot == 0 else (0, k)] = c
        return cls(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coeff(self, i: int, j: int) -> GaussRat:
        return self.terms.get((i, j), ZERO)

    @property
    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(i + j for i, j in self.terms)

    def degree_in(self, slot: int):
        if not self.terms:
            return NEG_INF
        return max(key[slot] for key in self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _raw_bipoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _raw_bipoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return self.scale(other)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, ZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _raw_bipoly(out)

    __rmul__ = __mul__

    def scale(self, factor: GaussRat) -> "BiPoly":
        if not factor:
            return BiPoly()
        return _raw_bipoly({k: c * factor for k, c in self.terms.items()})

    def __pow__(self, n: int):
        return _pow(self, n, BiPoly.const(ONE))

    def partial(self, slot: int) -> "BiPoly":
        out = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[slot]
            if e:
                key = (i - 1, j) if slot == 0 else (i, j - 1)
                out[key] = c * GaussRat(e)
        return _raw_bipoly(out)

    def shift_mul(self, di: int, dj: int) -> "BiPoly":
        """Multiply by the monomial v0^di * v1^dj."""
        return _raw_bipoly({(i + di, j + dj): c for (i, j), c in self.terms.items()})

    def compose(self, sub0: "BiPoly", sub1: "BiPoly") -> "BiPoly":
        """Substitute bivariate polynomials for both variables."""
        pow0 = power_table(sub0, BiPoly.const(ONE))
        pow1 = power_table(sub1, BiPoly.const(ONE))
        acc = BiPoly()
        for (i, j), c in self.terms.items():
            acc = acc + (pow0(i) * pow1(j)).scale(c)
        return acc

    def compiled(self) -> Callable[[complex, complex], complex]:
        """(v0, v1) -> value by nested Horner; coefficients converted once."""
        rows = [[c.to_complex() for c in reversed(row.coeffs)]
                for row in reversed(self.t_coeff_list())]

        def value(v0: complex, v1: complex) -> complex:
            acc = 0j
            for row in rows:
                inner = 0j
                for a in row:
                    inner = inner * v1 + a
                acc = acc * v0 + inner
            return acc

        return value

    def evaluate(self, v0: complex, v1: complex) -> complex:
        return self.compiled()(v0, v1)

    def t_coeff_list(self) -> list:
        """View a (t, c) polynomial as a dense list over t of c-polynomials."""
        if not self.terms:
            return []
        deg_t = self.degree_in(0)
        rows = [dict() for _ in range(deg_t + 1)]
        for (i, j), c in self.terms.items():
            rows[i][j] = c
        return [UniPoly([row.get(k, ZERO) for k in range(max(row) + 1)]) if row else UniPoly()
                for row in rows]

    @classmethod
    def from_t_coeff_list(cls, rows: Sequence[UniPoly]) -> "BiPoly":
        terms = {}
        for i, poly in enumerate(rows):
            for j, c in enumerate(poly.coeffs):
                if c:
                    terms[(i, j)] = c
        return _raw_bipoly(terms)

    def eval_at_t(self, point: UniPoly) -> UniPoly:
        """Substitute a c-polynomial for t in a (t, c) polynomial."""
        acc = UniPoly()
        for row in reversed(self.t_coeff_list()):
            acc = acc * point + row
        return acc

    def to_string(self, vars=("x", "y")) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k)):
            c = self.terms[(i, j)]
            factors = []
            cs = repr(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            if (i, j) == (0, 0):
                factors.append(cs)
            else:
                if c != ONE:
                    factors.append(cs if c != -ONE else "-1")
                for var, e in zip(vars, (i, j)):
                    if e == 1:
                        factors.append(var)
                    elif e > 1:
                        factors.append(f"{var}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return self.to_string()


def _raw_bipoly(terms: dict) -> BiPoly:
    obj = BiPoly.__new__(BiPoly)
    object.__setattr__(obj, "terms", terms)
    return obj


class CFrac:
    """Element of the fraction field of Q(i)[c], kept reduced and monic-bottom."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = None):
        if den is None:
            den = UniPoly.const(ONE)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in CFrac")
        if num.is_zero():
            num, den = UniPoly(), UniPoly.const(ONE)
        else:
            g = num.gcd(den)
            if g.degree != 0 or g.coeffs[0] != ONE:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.coeffs[-1]
            if lead != ONE:
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def const(cls, value) -> "CFrac":
        return cls(UniPoly.const(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, CFrac):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return CFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return CFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return CFrac(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return CFrac(self.num.scale(other), self.den)
        return CFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero CFrac")
        return CFrac(self.num * other.den, self.den * other.num)

    def inverse(self) -> "CFrac":
        return CFrac(UniPoly.const(ONE)) / self

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_unipoly(self) -> UniPoly:
        if not self.is_polynomial():
            raise ValueError("CFrac is not a polynomial")
        return self.num

    def evaluate_complex(self, point: complex) -> complex:
        return self.num.evaluate_complex(point) / self.den.evaluate_complex(point)

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# Rational functions in t over Frac(Q(i)[c])
# ---------------------------------------------------------------------------
#
# Denominators are kept in factored form.  Two kinds of irreducible factor
# occur in this problem domain:
#   ("t", pi1, pi0)  meaning  t - (pi1*c + pi0)    (pi1, pi0 in Q(i))
#   ("c",)           meaning  c
# Factored storage makes products/powers cheap and gcd cancellation exact
# without a general multivariate gcd.

TFactor = tuple


def t_factor(pi1: GaussRat, pi0: GaussRat) -> TFactor:
    return ("t", pi1, pi0)


C_FACTOR: TFactor = ("c",)


def factor_to_bipoly(factor: TFactor) -> BiPoly:
    if factor[0] == "t":
        _, pi1, pi0 = factor
        return BiPoly({(1, 0): ONE, (0, 1): -pi1, (0, 0): -pi0})
    return BiPoly({(0, 1): ONE})


def _factor_pi(factor: TFactor) -> UniPoly:
    """The pole location pi(c) of a "t" factor, as a c-polynomial."""
    _, pi1, pi0 = factor
    return UniPoly([pi0, pi1])


def _divide_t_factor(num: BiPoly, factor: TFactor):
    """Try exact division of num by (t - pi(c)); return quotient or None."""
    rows = num.t_coeff_list()
    if not rows:
        return num
    pi = _factor_pi(factor)
    quot = [UniPoly()] * (len(rows) - 1)
    carry = UniPoly()
    for k in range(len(rows) - 1, 0, -1):
        carry = rows[k] + carry * pi if k < len(rows) - 1 else rows[k]
        quot[k - 1] = carry
    remainder = rows[0] + carry * pi
    if remainder.is_zero():
        return BiPoly.from_t_coeff_list(quot)
    return None


def _divide_c_factor(num: BiPoly):
    """Try exact division of num by c; return quotient or None."""
    if any(j == 0 for (_, j) in num.terms):
        return None
    return num.shift_mul(0, -1)


class RatFunc:
    """Rational function N(t, c) / prod(factors), fully cancelled."""

    __slots__ = ("num", "fac")

    def __init__(self, num: BiPoly, fac: Mapping = ()):
        fac = {k: int(e) for k, e in dict(fac).items() if e}
        if any(e < 0 for e in fac.values()):
            raise ValueError("denominator factor exponents must be positive")
        if num.is_zero():
            fac = {}
        else:
            for key in list(fac):
                while fac.get(key, 0) > 0:
                    if key[0] == "t":
                        quotient = _divide_t_factor(num, key)
                    else:
                        quotient = _divide_c_factor(num)
                    if quotient is None:
                        break
                    num = quotient
                    fac[key] -= 1
                if fac.get(key) == 0:
                    del fac[key]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "fac", fac)

    # -- construction --------------------------------------------------
    @classmethod
    def const(cls, value) -> "RatFunc":
        return cls(BiPoly.const(value))

    @classmethod
    def t(cls) -> "RatFunc":
        return cls(BiPoly.var(0))

    @classmethod
    def c(cls) -> "RatFunc":
        return cls(BiPoly.var(1))

    # -- views ---------------------------------------------------------
    @property
    def denominator(self) -> BiPoly:
        acc = BiPoly.const(ONE)
        for key, e in sorted(self.fac.items(), key=repr):
            acc = acc * (factor_to_bipoly(key) ** e)
        return acc

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return not self.fac

    def pole_order(self, factor: TFactor) -> int:
        return self.fac.get(factor, 0)

    # -- arithmetic ----------------------------------------------------
    def _common(self, other: "RatFunc"):
        keys = set(self.fac) | set(other.fac)
        fac = {k: max(self.fac.get(k, 0), other.fac.get(k, 0)) for k in keys}
        n1, n2 = self.num, other.num
        for k, e in fac.items():
            d1 = e - self.fac.get(k, 0)
            d2 = e - other.fac.get(k, 0)
            if d1:
                n1 = n1 * (factor_to_bipoly(k) ** d1)
            if d2:
                n2 = n2 * (factor_to_bipoly(k) ** d2)
        return n1, n2, fac

    def __add__(self, other):
        n1, n2, fac = self._common(other)
        return RatFunc(n1 + n2, fac)

    def __sub__(self, other):
        n1, n2, fac = self._common(other)
        return RatFunc(n1 - n2, fac)

    def __neg__(self):
        return RatFunc(-self.num, self.fac)

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return RatFunc(self.num.scale(other), self.fac)
        if isinstance(other, BiPoly):
            other = RatFunc(other)
        fac = dict(self.fac)
        for k, e in other.fac.items():
            fac[k] = fac.get(k, 0) + e
        return RatFunc(self.num * other.num, fac)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _pow(self, n, RatFunc.const(ONE))

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        n1, n2, _ = self._common(other)
        return n1 == n2

    def __hash__(self):
        return hash((self.num, frozenset(self.fac.items())))

    def derivative(self, slot: int) -> "RatFunc":
        """Partial derivative; slot 0 is t, slot 1 is c."""
        # d(N/prod F^e) = (N' prod F - N sum e_i F_i' prod_{j != i} F_j) / prod F^{e+1}
        if not self.fac:
            return RatFunc(self.num.partial(slot))
        keys = list(self.fac)
        product_all = BiPoly.const(ONE)
        for k in keys:
            product_all = product_all * factor_to_bipoly(k)
        correction = BiPoly()
        for k in keys:
            dfac = factor_to_bipoly(k).partial(slot)
            if dfac.is_zero():
                continue
            partial_prod = BiPoly.const(GaussRat(self.fac[k]))
            for other_key in keys:
                if other_key != k:
                    partial_prod = partial_prod * factor_to_bipoly(other_key)
            correction = correction + dfac * partial_prod
        numerator = self.num.partial(slot) * product_all - self.num * correction
        fac = {k: e + 1 for k, e in self.fac.items()}
        return RatFunc(numerator, fac)

    def at_c(self, c_value: complex) -> Callable[[complex], complex]:
        """t -> value at fixed c; every coefficient is converted once.

        The numerator's t-coefficients are its c-rows evaluated at c_value,
        with the factor c^-e folded in; each "t" factor becomes a complex
        (pole, exponent) pair.
        """
        scale = 1
        poles = []
        for key, e in self.fac.items():
            if key[0] == "t":
                _, pi1, pi0 = key
                poles.append((pi1.to_complex() * c_value + pi0.to_complex(), e))
            else:
                scale = c_value ** -e
        coeffs = [row.evaluate_complex(c_value) * scale
                  for row in reversed(self.num.t_coeff_list())]

        def value(t_value: complex) -> complex:
            acc = 0j
            for a in coeffs:
                acc = acc * t_value + a
            den = 1
            for pole, e in poles:
                den *= (t_value - pole) ** e
            return acc / den

        return value

    def evaluate(self, t_value: complex, c_value: complex) -> complex:
        return self.at_c(c_value)(t_value)

    def eval_at_t(self, point: UniPoly) -> CFrac:
        """Exact evaluation at t = point(c); point must avoid all poles."""
        num = self.num.eval_at_t(point)
        den = UniPoly.const(ONE)
        for key, e in self.fac.items():
            if key[0] == "t":
                base = point - _factor_pi(key)
            else:
                base = UniPoly.x()
            if base.is_zero():
                raise ZeroDivisionError("evaluation point is a pole")
            den = den * (base ** e)
        return CFrac(num, den)

    def __repr__(self):
        num = self.num.to_string(("t", "c"))
        if not self.fac:
            return num
        den = self.denominator.to_string(("t", "c"))
        return f"({num})/({den})"


def substitute(poly: BiPoly, sub0: Union[RatFunc, BiPoly], sub1: Union[RatFunc, BiPoly]) -> RatFunc:
    """Ring-homomorphic substitution of rational functions into a polynomial."""
    if isinstance(sub0, BiPoly):
        sub0 = RatFunc(sub0)
    if isinstance(sub1, BiPoly):
        sub1 = RatFunc(sub1)
    pow0 = power_table(sub0, RatFunc.const(ONE))
    pow1 = power_table(sub1, RatFunc.const(ONE))
    acc = RatFunc(BiPoly())
    for (i, j), coeff in poly.terms.items():
        acc = acc + pow0(i) * pow1(j) * coeff
    return acc


MOVING_POLE = object()  # sentinel: the moving pole t = c


def _normalize_pole(pole) -> TFactor:
    """Accept MOVING_POLE, a GaussRat, a c-UniPoly of degree <= 1, or a factor tuple."""
    if pole is MOVING_POLE:
        return t_factor(ONE, ZERO)
    if isinstance(pole, tuple) and pole and pole[0] == "t":
        return pole
    if isinstance(pole, GaussRat):
        return t_factor(ZERO, pole)
    if isinstance(pole, int):
        return t_factor(ZERO, GaussRat(pole))
    if isinstance(pole, UniPoly):
        if pole.degree != NEG_INF and pole.degree > 1:
            raise ValueError("pole location must have degree <= 1 in c")
        return t_factor(pole[1], pole[0])
    raise TypeError(f"cannot interpret pole {pole!r}")


def laurent_coefficients(f: RatFunc, pole, depth: int) -> list:
    """Coefficients of (t-pi)^{-depth} ... (t-pi)^{-1}; last entry is the residue.

    The declared depth must equal the exact pole order, otherwise
    PoleOrderMismatch is raised.  depth 0 asserts the absence of a pole.

    With u = t - pi(c), f = N(u) / (u^depth D1(u)) for N, D1 in Q(i)[c][u],
    and entry k is s_k = [u^k] N/D1.  The series is fraction-free: with
    d0 = D1(0), the numerators S_k = s_k d0^(k+1) obey, in Q(i)[c],
    S_k = N_k d0^k - sum_{m<k} S_m D1_{k-m} d0^(k-m-1), and each entry is
    reduced once, as CFrac(S_k, d0^(k+1)).
    """
    series, d0_pows = _laurent_numerators(f, _normalize_pole(pole), depth)
    return [CFrac(s, d0_pows(k + 1)) for k, s in enumerate(series)]


def _laurent_numerators(f: RatFunc, factor: TFactor, depth: int):
    """(S_0 .. S_{depth-1}, k -> d0^k) of ``laurent_coefficients``, unreduced."""
    order = f.pole_order(factor)
    if order != depth:
        raise PoleOrderMismatch(
            f"declared pole order {depth} at t - ({_factor_pi(factor)!r}), actual {order}"
        )
    if depth == 0:
        return [], None
    pi = _factor_pi(factor)

    # Shift t = u + pi(c); the numerator becomes a polynomial in (u, c).
    rows = f.num.t_coeff_list()
    shifted = [UniPoly() for _ in range(depth)]
    pi_pows = power_table(pi, UniPoly.const(ONE))
    binom = [1]
    for k, row in enumerate(rows):
        if k:
            binom = [1] + [binom[m - 1] + binom[m] for m in range(1, k)] + [1]
        if row.is_zero():
            continue
        # (u + pi)^k = sum_m C(k, m) pi^{k-m} u^m; only u-orders < depth matter
        for m in range(min(k, depth - 1) + 1):
            shifted[m] = shifted[m] + row * pi_pows(k - m).scale(GaussRat(binom[m]))

    # Remaining denominator D1(u) in Q(i)[c][u], truncated below u^depth.
    d1 = [UniPoly.const(ONE)]
    for key, e in f.fac.items():
        if key[0] == "c":  # factor c is u-constant
            d1 = [p * UniPoly.monomial(e) for p in d1]
        elif key != factor:  # (t - pi') = u + (pi - pi')
            shift = pi - _factor_pi(key)
            for _ in range(e):
                d1 = [a * shift + b for a, b in zip(d1 + [UniPoly()], [UniPoly()] + d1)][:depth]

    if d1[0].is_zero():
        raise PoleOrderMismatch("pole locations collide; pole order is not generic")

    d0_pows = power_table(d1[0], UniPoly.const(ONE))
    series = []
    for k in range(depth):
        acc = shifted[k] * d0_pows(k)
        for m in range(max(0, k - len(d1) + 1), k):
            acc = acc - series[m] * d1[k - m] * d0_pows(k - m - 1)
        series.append(acc)
    return series, d0_pows


def residue(f: RatFunc, pole) -> CFrac:
    """Residue at a linear pole t - pi(c); zero when there is no pole there.

    Of the Laurent numerators only the last is reduced to a CFrac.
    """
    factor = _normalize_pole(pole)
    order = f.pole_order(factor)
    if order == 0:
        return CFrac(UniPoly())
    series, d0_pows = _laurent_numerators(f, factor, order)
    return CFrac(series[-1], d0_pows(order))


def residue_via_derivative(f: RatFunc, pole, depth: int) -> CFrac:
    """Residue by the derivative formula: (1/(depth-1)!) d^{depth-1}/dt^{depth-1}
    of f*(t-pi)^depth evaluated at t = pi.  Independent route used to
    cross-check laurent_coefficients."""
    factor = _normalize_pole(pole)
    if f.pole_order(factor) != depth:
        raise PoleOrderMismatch(
            f"declared pole order {depth}, actual {f.pole_order(factor)}"
        )
    if depth == 0:
        return CFrac(UniPoly())
    cleared = f * (factor_to_bipoly(factor) ** depth)
    for _ in range(depth - 1):
        cleared = cleared.derivative(0)
    value = cleared.eval_at_t(_factor_pi(factor))
    fact = 1
    for k in range(2, depth):
        fact *= k
    return value * GaussRat(Q(1, fact))


def residue_at_infinity(f: RatFunc) -> CFrac:
    """Residue at t = infinity: minus the 1/t coefficient of the expansion."""
    den_rows = [CFrac(p) for p in f.denominator.t_coeff_list()]
    num_rows = [CFrac(p) for p in f.num.t_coeff_list()]
    if not den_rows:
        raise ZeroDivisionError("zero denominator")
    if not num_rows:
        return CFrac(UniPoly())
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
        return -(rem[-1] * lead_inv)
    return CFrac(UniPoly())
