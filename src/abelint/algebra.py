"""Exact arithmetic core.

Gaussian rationals, dense univariate polynomials, bivariate polynomials,
fractions of univariate polynomials, and rational functions in a
distinguished variable t whose coefficients live in the fraction field of
Q(i)[c].  Everything is exact except the complex evaluations that the
oracle and the renderer read (``evaluate_complex`` and the column
evaluators ``RatFunc.at_c`` and ``BiPoly.compiled``).

``GaussRat`` (two reduced rationals) is the public scalar.  Arithmetic is
on Python ints: a ``UniPoly`` is Gaussian integers over one denominator,
``(den, re, im)``, canonical (top coefficient nonzero, gcd(den, *re, *im)
= 1).  A ``BiPoly`` is ``rows``, one UniPoly in the second variable per
power of the first, and a ``RatFunc`` numerator is the same rows in (t, c),
so both use one row arithmetic.  GaussRat views (``UniPoly.coeffs``,
``BiPoly.terms``) are built only for I/O.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, gcd, lcm
from operator import add, mul, sub, truediv
from typing import Callable, Iterable, List, Mapping, Sequence

from .errors import PoleOrderMismatch

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


def _as_q(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


class GaussRat:
    """An exact element of Q(i), stored as two reduced rationals.

    A real value hashes like its rational, so it meets ints and Fractions
    in sets and dicts; the hash is computed once, into ``_hash``.
    """

    __slots__ = ("re", "im", "_hash")

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
        if isinstance(obj, (int, str, Fraction)):
            return cls(_as_q(obj))
        raise TypeError(f"cannot parse exact number from {obj!r}")

    def to_json(self):
        """Serialize as an exact string (or {re, im} when truly complex)."""
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return _gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return _gauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
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
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.re) if not self.im else hash((self.re, self.im))
            return self._hash

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_new_object = object.__new__


def _gauss(re, im) -> GaussRat:
    """GaussRat from two Fractions, skipping the coercion."""
    obj = _new_object(GaussRat)
    obj.re = re
    obj.im = im
    return obj


def _coerce(value) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRat(value)
    raise TypeError(f"cannot coerce {value!r} to GaussRat")


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


class UniPoly:
    """Dense univariate polynomial over Q(i): (re + i*im) / den.

    ``den`` is a positive int; ``re`` and ``im`` are equally long int lists,
    low degree first, and ``im`` is None when every coefficient is real.
    Canonical form: top coefficient nonzero and gcd(den, *re, *im) = 1, so
    ``==`` and ``hash`` compare ints.  ``coeffs`` is a GaussRat view.
    """

    __slots__ = ("den", "re", "im")

    def __init__(self, coeffs: Iterable = ()):
        parts = [_scalar(GaussRat.parse(c)) for c in coeffs]
        den = lcm(*(d for d, _, _ in parts))
        p = _poly(den, [r * (den // d) for d, r, _ in parts],
                  [(i or 0) * (den // d) for d, _, i in parts])
        self.den, self.re, self.im = p.den, p.re, p.im

    @classmethod
    def const(cls, value) -> "UniPoly":
        d, r, i = _scalar(value if isinstance(value, int) else GaussRat.parse(value))
        return _poly(d, [r], i and [i])

    @classmethod
    def x(cls) -> "UniPoly":
        return _raw_poly(1, [0, 1], None)

    @classmethod
    def monomial(cls, power: int, coeff=ONE) -> "UniPoly":
        return cls([ZERO] * power + [coeff])

    @property
    def degree(self):
        return len(self.re) - 1 if self.re else NEG_INF

    def is_zero(self) -> bool:
        return not self.re

    def __bool__(self):
        return bool(self.re)

    def __getitem__(self, k: int) -> GaussRat:
        if not 0 <= k < len(self.re):
            return ZERO
        re, im = self.re[k], self.im[k] if self.im else 0
        if not re and not im:
            return ZERO
        return _gauss(Fraction(re, self.den), Fraction(im, self.den) if im else ZERO.im)

    @property
    def coeffs(self) -> tuple:
        return tuple(self[k] for k in range(len(self.re)))

    def complex_coeffs(self) -> list:
        """The coefficients as complex numbers, rounded like float(Fraction)."""
        den = self.den
        if self.im is None:
            return [complex(r / den, 0.0) for r in self.re]
        return [complex(r / den, i / den) for r, i in zip(self.re, self.im)]

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.den, tuple(self.re), self.im and tuple(self.im)))

    def __add__(self, other):
        return _combine(self, other, 1)

    def __sub__(self, other):
        return _combine(self, other, -1)

    def __neg__(self):
        return _raw_poly(self.den, [-v for v in self.re],
                         self.im and [-v for v in self.im])

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        if not self.re or not other.re:
            return _PZERO
        return _poly(self.den * other.den, *_cmul(self.re, self.im, other.re, other.im))

    __rmul__ = __mul__

    def scale(self, factor) -> "UniPoly":
        """self * factor for a GaussRat or int factor."""
        d, r, i = _scalar(factor)
        return _poly(self.den * d, *_cmul(self.re, self.im, [r], i and [i]))

    def __pow__(self, n: int):
        return _pow(self, n, _PONE)

    def derivative(self) -> "UniPoly":
        im = self.im and [k * v for k, v in enumerate(self.im)][1:]
        return _poly(self.den, [k * v for k, v in enumerate(self.re)][1:], im)

    def antiderivative(self) -> "UniPoly":
        """The antiderivative that vanishes at 0."""
        scale = lcm(*range(1, len(self.re) + 1))
        re = [0] + [scale // k * v for k, v in enumerate(self.re, 1)]
        im = self.im and [0] + [scale // k * v for k, v in enumerate(self.im, 1)]
        return _poly(self.den * scale, re, im)

    def evaluate(self, point: GaussRat) -> GaussRat:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def evaluate_complex(self, point: complex) -> complex:
        acc = 0j
        for c in reversed(self.complex_coeffs()):
            acc = acc * point + c
        return acc

    def divmod(self, divisor: "UniPoly"):
        """Exact long division over Q(i), by pseudo-division on the integers.

        For the monic divisor B / n, each step scales the remainder only by
        n / gcd(n, its leading term), keeping s A = Q B + R over Z[i] for
        self = A / d; the quotient is Q n / (s d) over the monic divisor.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        inv = _lead_inverse(divisor)
        monic = divisor * inv
        lead, m, n = monic.den, len(monic.re) - 1, len(self.re)
        if n <= m:
            return _PZERO, self
        br, bi = monic.re, monic.im or [0] * (m + 1)
        rr, ri = list(self.re), list(self.im or [0] * n)
        qr, qi, s = [0] * (n - m), [0] * (n - m), 1
        for k in range(n - m - 1, -1, -1):
            fr, fi = rr[k + m], ri[k + m]
            if not fr and not fi:
                continue
            g = gcd(lead, fr, fi)
            fr, fi, c = fr // g, fi // g, lead // g
            if c != 1:
                s *= c
                rr, ri, qr, qi = ([c * v for v in x] for x in (rr, ri, qr, qi))
            qr[k], qi[k] = fr, fi
            for j, (b_r, b_i) in enumerate(zip(br, bi), k):
                rr[j] -= fr * b_r - fi * b_i
                ri[j] -= fr * b_i + fi * b_r
        den = s * self.den
        quot = _poly(den, [lead * v for v in qr], [lead * v for v in qi])
        return quot * inv, _poly(den, rr[:m], ri[:m])

    def vanishes_at(self, point: GaussRat) -> bool:
        """Whether self(point) = 0, by Horner over Z[i]: for point = (a + bi)/d
        it sums c_k (a + bi)^k d^(n-k), which is d^n den self(point)."""
        d, a, b = _scalar(point)
        b, im = b or 0, self.im or [0] * len(self.re)
        acc_r = acc_i = 0
        scale = 1  # d^(n-k) at coefficient k
        for r, i in zip(reversed(self.re), reversed(im)):
            acc_r, acc_i = (acc_r * a - acc_i * b + r * scale,
                            acc_r * b + acc_i * a + i * scale)
            scale *= d
        return not acc_r and not acc_i

    def root_multiplicity(self, root: GaussRat) -> int:
        """Multiplicity of (x - root) in self; divides only where it vanishes."""
        if self.is_zero():
            raise ValueError("zero polynomial has no well-defined multiplicity")
        count, current = 0, self
        while current.vanishes_at(root):
            count += 1
            current = current.divmod(UniPoly([-root, ONE]))[0]
        return count

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self * _lead_inverse(self)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by Euclid on primitive remainders (content divided out)."""
        a, b = self, other
        while b.re:
            r = a.divmod(b)[1]
            a, b = b, _poly(gcd(*r.re, *(r.im or ())), list(r.re), r.im and list(r.im))
        return a.monic()

    def to_string(self, var: str = "c") -> str:
        if self.is_zero():
            return "0"
        parts = []
        coeffs = self.coeffs
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
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


def _scalar(value):
    """(den, re, im) of a GaussRat or int, ints; im is None when it is 0."""
    if isinstance(value, int):
        return 1, value, None
    re, im = value.re, value.im
    den = lcm(int(re.denominator), int(im.denominator))
    return (den, int(re.numerator) * (den // int(re.denominator)),
            int(im.numerator) * (den // int(im.denominator)) or None)


def _raw_poly(den: int, re: list, im) -> UniPoly:
    """UniPoly from parts already in canonical form."""
    obj = _new_object(UniPoly)
    obj.den, obj.re, obj.im = den, re, im
    return obj


def _poly(den: int, re: list, im=None) -> UniPoly:
    """The canonical UniPoly (re + i*im) / den, for den > 0 and im as long as re.

    Takes ownership of ``re`` and ``im``.
    """
    if im is not None and not any(im):
        im = None
    n = len(re)
    while n and not re[n - 1] and not (im and im[n - 1]):
        n -= 1
    del re[n:]
    if im:
        del im[n:]
    if not re:
        den = 1
    elif den != 1:
        g = gcd(den, *re, *(im or ()))
        if g != 1:
            den, re, im = den // g, [v // g for v in re], im and [v // g for v in im]
    return _raw_poly(den, re, im)


def _axpy(a: int, x, b: int, y) -> list:
    """a*x + b*y for int vectors of any lengths, as a new list."""
    if len(x) < len(y):
        a, x, b, y = b, y, a, x
    out = list(x) if a == 1 else [a * v for v in x]
    for k, v in enumerate(y):
        out[k] += b * v
    return out


def _combine(p: UniPoly, q: UniPoly, sign: int) -> UniPoly:
    """p + sign*q over the least common denominator."""
    g = gcd(p.den, q.den)
    a, b = q.den // g, sign * (p.den // g)
    im = None
    if p.im or q.im:
        im = _axpy(a, p.im or [0] * len(p.re), b, q.im or [0] * len(q.re))
    return _poly(p.den * a, _axpy(a, p.re, b, q.re), im)


def _conv(a, b) -> list:
    """Schoolbook product of two int coefficient vectors."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:  # a scalar times a vector
        x = a[0]
        return [x * y for y in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _cmul(ar, ai, br, bi):
    """(re, im) of (ar + i*ai)(br + i*bi); an im of None is zero."""
    re = _conv(ar, br)
    if ai is None and bi is None:
        return re, None
    ai, bi = ai or [0] * len(ar), bi or [0] * len(br)
    return _axpy(1, re, -1, _conv(ai, bi)), _axpy(1, _conv(ar, bi), 1, _conv(ai, br))


def _lead_inverse(p: UniPoly) -> UniPoly:
    """The constant 1 / (leading coefficient of p)."""
    lr, li = p.re[-1], p.im[-1] if p.im else 0
    return _poly(lr * lr + li * li, [p.den * lr], [-p.den * li])


_PZERO = _raw_poly(1, [], None)
_PONE = _raw_poly(1, [1], None)


def _rows_sum(a: list, b: list, sign: int = 1) -> list:
    """Rows of a + sign*b."""
    out = list(a) + [_PZERO] * (len(b) - len(a))
    for k, y in enumerate(b):
        if y:
            out[k] = _combine(out[k], y, sign)
    return out


def _rows_mul(a: list, b: list, size: int = None) -> list:
    """Rows of the product a*b; with ``size``, only the first ``size`` rows."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if size is not None and size < n:
        n = size
    out = [_PZERO] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i], i):
                if y:
                    out[j] = out[j] + x * y
    return out


def _rows_partial(rows: list, slot: int) -> list:
    """Rows of the partial derivative in v0 (slot 0) or v1 (slot 1)."""
    if slot == 0:
        return [r.scale(k) for k, r in enumerate(rows) if k]
    return [r.derivative() for r in rows]


def _trim(items: list) -> list:
    """``items`` without its zero top entries (rows or coefficients), in place."""
    while items and not items[-1]:
        items.pop()
    return items


class BiPoly:
    """Bivariate polynomial over Q(i), stored as ``rows``.

    ``rows[i]`` is the UniPoly in the second variable that multiplies v0^i,
    the top row nonzero: the layout of a ``RatFunc`` numerator, so both
    share one arithmetic.  Variable slots are positional; callers fix the
    meaning, either (x, y) in the plane or (t, c) in the rectified plane.
    ``terms`` is a GaussRat view {(i, j): coefficient of v0^i v1^j}.
    """

    __slots__ = ("rows",)

    def __init__(self, terms: Mapping = ()):
        grid = {}
        for (i, j), value in dict(terms).items():
            if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                raise ValueError(f"negative or non-integer exponent in term {(i, j)}")
            grid.setdefault(i, {})[j] = value
        rows = [_PZERO] * (max(grid) + 1 if grid else 0)
        for i, row in grid.items():
            rows[i] = UniPoly([row.get(j, ZERO) for j in range(max(row) + 1)])
        self.rows = _trim(rows)

    @classmethod
    def const(cls, value) -> "BiPoly":
        return _bipoly([UniPoly.const(value)])

    @classmethod
    def var(cls, slot: int) -> "BiPoly":
        return _bipoly([_PZERO, _PONE] if slot == 0 else [UniPoly.x()])

    @property
    def terms(self) -> dict:
        return {(i, j): c for i, row in enumerate(self.rows)
                for j, c in enumerate(row.coeffs) if c}

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(self.rows))

    @property
    def total_degree(self):
        return max((i + row.degree for i, row in enumerate(self.rows) if row), default=NEG_INF)

    def __add__(self, other):
        return _bipoly(_rows_sum(self.rows, other.rows))

    def __sub__(self, other):
        return _bipoly(_rows_sum(self.rows, other.rows, -1))

    def __neg__(self):
        return _bipoly([-r for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return self.scale(other)
        if not isinstance(other, BiPoly):  # a RatFunc multiplies from the right
            return NotImplemented
        return _bipoly(_rows_mul(self.rows, other.rows))

    __rmul__ = __mul__

    def scale(self, factor: GaussRat) -> "BiPoly":
        return _bipoly([r.scale(factor) for r in self.rows])

    def __pow__(self, n: int):
        return _pow(self, n, BiPoly.const(ONE))

    def partial(self, slot: int) -> "BiPoly":
        return _bipoly(_rows_partial(self.rows, slot))

    def compose(self, sub0, sub1):
        """Substitute sub0 and sub1 for the two variables, in their ring:
        BiPolys give a BiPoly, RatFuncs a RatFunc.  Horner over the rows."""
        acc = type(sub0).const(ZERO)
        for row in reversed(self.rows):
            acc = acc * sub0
            if row:
                acc = acc + _horner(row, sub1)
        return acc

    def compiled(self) -> Callable[[List[complex], List[complex]], List[complex]]:
        """Column evaluator: (v0s, v1s) -> the values at the points (v0s[k], v1s[k]).

        Nested Horner, each step over the whole column, in the variable
        order that takes fewer column steps: with v0 outermost that is the
        v0-degree plus every row's v1-degree, with v1 outermost the same
        count on the transposed grid (ties keep v0 outermost).  The
        coefficients are converted to complex once, here.
        """
        grid = [row.complex_coeffs() for row in self.rows]  # grid[i][j]: v0^i v1^j
        transposed = [_trim([row[j] if j < len(row) else 0j for row in grid])
                      for j in range(max(map(len, grid), default=0))]
        v1_outer = _column_steps(transposed) < _column_steps(grid)
        rows = [row[::-1] for row in reversed(transposed if v1_outer else grid)]

        def values(v0s: List[complex], v1s: List[complex]) -> List[complex]:
            outer, inner = (v1s, v0s) if v1_outer else (v0s, v1s)
            acc = _horner_column(rows[0], inner) if rows else [0j] * len(outer)
            for row in rows[1:]:
                product = map(mul, acc, outer)
                acc = list(map(add, product, _horner_column(row, inner)) if row else product)
            return acc

        return values

    def evaluate(self, v0: complex, v1: complex) -> complex:
        return self.compiled()([v0], [v1])[0]

    def to_string(self, vars=("x", "y")) -> str:
        if not self.rows:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kc: (sum(kc[0]), kc[0])):
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


def _horner(poly: UniPoly, x):
    """poly(x), evaluated in the ring of x; zero coefficients are skipped."""
    const = type(x).const
    acc = const(ZERO)
    for coeff in reversed(poly.coeffs):
        acc = acc * x
        if coeff:
            acc = acc + const(coeff)
    return acc


def _horner_column(coeffs: Sequence[complex], points: List[complex]) -> List[complex]:
    """sum_k coeffs[k] t^(n-k) at every t in points; coefficients top first."""
    if not coeffs:
        return [0j] * len(points)
    n = len(points)
    acc = [coeffs[0]] * n
    for a in coeffs[1:]:
        product = map(mul, acc, points)
        acc = list(map(add, product, repeat(a, n)) if a else product)
    return acc


def _column_steps(grid: List[List[complex]]) -> int:
    """Column multiplications of nested Horner over grid[i][j] of v^i w^j, v outer."""
    return len(grid) - 1 + sum(len(row) - 1 for row in grid if row)


def _bipoly(rows: list) -> BiPoly:
    """BiPoly from rows, its zero top rows trimmed; takes ownership of ``rows``."""
    obj = _new_object(BiPoly)
    obj.rows = _trim(rows)
    return obj


class CFrac:
    """Element of the fraction field of Q(i)[c], kept reduced and monic-bottom."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = None):
        if den is None:
            den = _PONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in CFrac")
        if num.is_zero():
            num, den = _PZERO, _PONE
        else:
            if den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
            if den.re[-1] != den.den or den.im and den.im[-1]:  # lead is not 1
                inv = _lead_inverse(den)
                num = num * inv
                den = den * inv
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
        return CFrac(_PONE) / self

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

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
# without a general multivariate gcd.  Numerators are BiPoly rows: a list
# of c-UniPolys indexed by the power of t, the top row nonzero.

TFactor = tuple


def t_factor(pi1: GaussRat, pi0: GaussRat) -> TFactor:
    return ("t", pi1, pi0)


C_FACTOR: TFactor = ("c",)


@lru_cache(maxsize=1024)  # a few distinct factors per problem, met in every product
def _factor_pi(factor: TFactor) -> UniPoly:
    """The pole location pi(c) of a "t" factor, as a c-polynomial."""
    _, pi1, pi0 = factor
    return UniPoly([pi0, pi1])


def _times_factor(rows: list, factor: TFactor) -> list:
    """Rows of the numerator times one denominator factor."""
    if factor[0] == "c":
        return [_raw_poly(r.den, [0] + r.re, r.im and [0] + r.im) if r else r
                for r in rows]
    pi = _factor_pi(factor)
    out = [_PZERO] + rows  # t * rows
    if pi:
        for k, r in enumerate(rows):
            if r:
                out[k] = out[k] - r * pi
    return out


def _over(rows: list, fac: Mapping, target: Mapping) -> list:
    """Rows over the denominator ``fac`` rewritten over its multiple ``target``."""
    for key, e in target.items():
        for _ in range(e - fac.get(key, 0)):
            rows = _times_factor(rows, key)
    return rows


def _synthetic_division(rows: list, pi: UniPoly):
    """(quotient rows, remainder) of nonzero rows by t - pi; a shift for pi = 0."""
    if not pi:
        return rows[1:], rows[0]
    quot = [_PZERO] * (len(rows) - 1)
    carry = rows[-1]
    for k in range(len(rows) - 2, -1, -1):
        quot[k] = carry
        carry = rows[k] + carry * pi if carry else rows[k]
    return quot, carry


def _divide_factor(rows: list, factor: TFactor):
    """Rows of the exact quotient by one denominator factor, or None."""
    if factor[0] == "c":
        if any(r and (r.re[0] or r.im and r.im[0]) for r in rows):
            return None
        return [_raw_poly(r.den, r.re[1:], r.im and r.im[1:]) if r else r for r in rows]
    quot, rem = _synthetic_division(rows, _factor_pi(factor))
    return None if rem else quot


def _cancel(rows: list, factor: TFactor, e: int):
    """(rows / factor^m, e - m) for the largest m <= e with factor^m | rows."""
    while e:
        quotient = _divide_factor(rows, factor)
        if quotient is None:
            break
        rows, e = quotient, e - 1
    return rows, e


def _ratfunc(rows: list, fac: dict, candidates: Iterable[TFactor] = None) -> "RatFunc":
    """rows / prod(fac), with each factor cancelled as often as it divides.

    Only the factors in ``candidates`` (by default every factor of ``fac``)
    are tried; the caller vouches that no other factor divides ``rows``.
    Takes ownership of ``rows`` and ``fac``.
    """
    if not _trim(rows):
        return _raw_ratfunc(rows, {})
    for key in list(fac) if candidates is None else candidates:
        rows, e = _cancel(rows, key, fac[key])
        if e:
            fac[key] = e
        else:
            del fac[key]
    return _raw_ratfunc(rows, fac)


def _raw_ratfunc(rows: list, fac: dict) -> "RatFunc":
    """RatFunc from rows and factors already cancelled against each other."""
    obj = _new_object(RatFunc)
    obj.rows, obj.fac = rows, fac
    return obj


class RatFunc:
    """Rational function N(t, c) / prod(factors), fully cancelled.

    The numerator is ``rows``: c-UniPolys indexed by the power of t, the
    layout of ``BiPoly.rows``, so ``num`` wraps them as they are.  Every
    factor of ``fac`` is irreducible and cancelled as far as it divides N,
    so the pair (rows, fac) is unique.

    Cancellation rule for products: a factor of one reduced operand's
    denominator does not divide that operand's numerator, so it can cancel
    only against the other operand's numerator, and a factor in both
    denominators divides neither numerator.  ``*`` therefore trial-divides
    each factor of one denominator, absent from the other, against the
    other numerator only, before the product is formed.
    """

    __slots__ = ("rows", "fac")

    def __init__(self, num: BiPoly, fac: Mapping = ()):
        fac = {k: int(e) for k, e in dict(fac).items() if e}
        if any(e < 0 for e in fac.values()):
            raise ValueError("denominator factor exponents must be positive")
        f = _ratfunc(list(num.rows), fac)
        self.rows, self.fac = f.rows, f.fac

    # -- construction --------------------------------------------------
    @classmethod
    def const(cls, value) -> "RatFunc":
        return _ratfunc([UniPoly.const(value)], {})

    @classmethod
    def t(cls) -> "RatFunc":
        return _raw_ratfunc([_PZERO, _PONE], {})

    @classmethod
    def c(cls) -> "RatFunc":
        return _raw_ratfunc([UniPoly.x()], {})

    @classmethod
    def factor_product(cls, exps: Mapping[TFactor, int], sign: int) -> "RatFunc":
        """sign * prod factor^e; a factor with e < 0 goes in the denominator."""
        rows = _over([UniPoly.const(sign)], {}, {k: e for k, e in exps.items() if e > 0})
        return _raw_ratfunc(rows, {k: -e for k, e in exps.items() if e < 0})

    # -- views ---------------------------------------------------------
    @property
    def num(self) -> BiPoly:
        return _bipoly(self.rows)

    @property
    def denominator(self) -> BiPoly:
        return _bipoly(_over([_PONE], {}, self.fac))

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def is_polynomial(self) -> bool:
        return not self.fac

    def pole_order(self, factor: TFactor) -> int:
        return self.fac.get(factor, 0)

    # -- arithmetic ----------------------------------------------------
    def _common(self, other: "RatFunc"):
        fac = dict(self.fac)
        for k, e in other.fac.items():
            fac[k] = max(e, fac.get(k, 0))
        return (_over(self.rows, self.fac, fac), _over(other.rows, other.fac, fac), fac)

    def _sum(self, other: "RatFunc", sign: int) -> "RatFunc":
        # A factor with unequal exponents in the two reduced operands divides
        # exactly one rewritten numerator, so only factors with equal
        # exponents can cancel from the sum.
        n1, n2, fac = self._common(other)
        shared = [k for k, e in self.fac.items() if other.fac.get(k) == e]
        return _ratfunc(_rows_sum(n1, n2, sign), fac, shared)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return _raw_ratfunc([-r for r in self.rows], dict(self.fac))

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            if not other:
                return _raw_ratfunc([], {})
            return _raw_ratfunc([r.scale(other) for r in self.rows], dict(self.fac))
        if isinstance(other, BiPoly):
            other = RatFunc(other)
        if not self.rows or not other.rows:
            return _raw_ratfunc([], {})
        a, b, fac = self.rows, other.rows, dict(self.fac)
        for k, e in other.fac.items():
            fac[k] = fac.get(k, 0) + e
        for k, e in self.fac.items():  # see the cancellation rule above
            if k not in other.fac:
                b, fac[k] = _cancel(b, k, e)
        for k, e in other.fac.items():
            if k not in self.fac:
                a, fac[k] = _cancel(a, k, e)
        return _raw_ratfunc(_rows_mul(a, b), {k: e for k, e in fac.items() if e})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _pow(self, n, _raw_ratfunc([_PONE], {}))

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.rows == other.rows and self.fac == other.fac  # the pair is canonical

    def __hash__(self):
        return hash((tuple(self.rows), frozenset(self.fac.items())))

    def derivative(self, slot: int) -> "RatFunc":
        """Partial derivative; slot 0 is t, slot 1 is c."""
        # d(N/prod F^e) = (N' prod F - N sum e_i F_i' prod_{j != i} F_j) / prod F^{e+1}
        partial = _rows_partial(self.rows, slot)
        # A factor with F_k' != 0 leaves N e_k F_k' prod_{j != k} F_j, which it
        # does not divide, in the numerator; only a factor with F_k' = 0 can cancel.
        correction, constant = [], []
        for k, e in self.fac.items():  # F_k' is 1 or -pi1 for "t", 0 or 1 for "c"
            slope = (-k[1] if slot else ONE) if k[0] == "t" else GaussRat(slot)
            if slope:
                rest = {other: 1 for other in self.fac if other != k}
                correction = _rows_sum(correction, _over([UniPoly.const(slope * e)], {}, rest))
            else:
                constant.append(k)
        partial = _over(partial, {}, {k: 1 for k in self.fac})
        numerator = _rows_sum(partial, _rows_mul(self.rows, correction), -1)
        return _ratfunc(numerator, {k: e + 1 for k, e in self.fac.items()}, constant)

    def at_c(self, c_value: complex) -> Callable[[List[complex]], List[complex]]:
        """Column evaluator at fixed c: a list of t values -> the values there.

        Every coefficient is converted once, here: the numerator's
        t-coefficients are its c-rows evaluated at c_value, with the factor
        c^-e folded in, and each "t" factor becomes a complex (pole,
        exponent) pair.  Each Horner step runs over the whole column, and
        each pole is one division per point.  At c_value = 0 a factor c
        makes every t a pole, so any point raises ZeroDivisionError on
        evaluation, as a t-pole does.
        """
        if C_FACTOR in self.fac and not c_value:
            def nowhere(points: List[complex]) -> List[complex]:
                if points:
                    raise ZeroDivisionError("c = 0 is a pole at every t")
                return []

            return nowhere
        scale = 1
        poles = []
        for key, e in self.fac.items():
            if key[0] == "t":
                _, pi1, pi0 = key
                poles.append((pi1.to_complex() * c_value + pi0.to_complex(), e))
            else:
                scale = c_value ** -e
        coeffs = [row.evaluate_complex(c_value) * scale for row in reversed(self.rows)]

        def values(points: List[complex]) -> List[complex]:
            acc, n = _horner_column(coeffs, points), len(points)
            for pole, e in poles:
                base = map(sub, points, repeat(pole, n))
                acc = list(map(truediv, acc, base if e == 1 else map(pow, base, repeat(e, n))))
            return acc

        return values

    def evaluate(self, t_value: complex, c_value: complex) -> complex:
        return self.at_c(c_value)([t_value])[0]

    def __repr__(self):
        num = self.num.to_string(("t", "c"))
        if not self.fac:
            return num
        den = self.denominator.to_string(("t", "c"))
        return f"({num})/({den})"


def _laurent_numerators(f: RatFunc, factor: TFactor, depth: int):
    """(S_0 .. S_{depth-1}, k -> d0^k): the Laurent numerators at t - pi(c).

    The declared depth must equal the exact pole order, otherwise
    PoleOrderMismatch is raised.  depth 0 asserts the absence of a pole.

    With u = t - pi(c), f = N(u) / (u^depth D1(u)) for N, D1 in Q(i)[c][u],
    and the coefficient of u^(k - depth) is s_k = [u^k] N/D1.  The series
    is fraction-free: with d0 = D1(0), the numerators S_k = s_k d0^(k+1)
    obey, in Q(i)[c], S_k = N_k d0^k - sum_{m<k} S_m D1_{k-m} d0^(k-m-1),
    so s_k is CFrac(S_k, d0^(k+1)) and the residue is s_{depth-1}.
    """
    order = f.pole_order(factor)
    if order != depth:
        raise PoleOrderMismatch(
            f"declared pole order {depth} at t - ({_factor_pi(factor)!r}), actual {order}"
        )
    if depth == 0:
        return [], None
    pi = _factor_pi(factor)

    # N(u + pi) below u^depth: the remainders of repeated synthetic division
    # by t - pi, which are the rows themselves when pi = 0.
    shifted, rows = [], f.rows
    while rows and len(shifted) < depth:
        rows, rem = _synthetic_division(rows, pi)
        shifted.append(rem)
    shifted += [_PZERO] * (depth - len(shifted))

    # Remaining denominator D1(u) below u^depth: c^e for the factor c and
    # the binomial row of (u + pi - pi')^e for every other t - pi'.
    d1 = [_PONE]
    for key, e in f.fac.items():
        if key[0] == "c":
            d1 = [p * UniPoly.monomial(e) for p in d1]
        elif key != factor:
            d1 = _rows_mul(d1, _binomial_row(pi - _factor_pi(key), e, depth), depth)

    if d1[0].is_zero():
        raise PoleOrderMismatch("pole locations collide; pole order is not generic")

    # S_k = N_k d0^k - sum_{j>=1} S_{k-j} E_j with E_j = D1_j d0^(j-1).
    d0_pows = power_table(d1[0], _PONE)
    scaled = [(j, d * d0_pows(j - 1)) for j, d in enumerate(d1) if j and d]
    series = []
    for k in range(depth):
        acc = shifted[k] * d0_pows(k)
        for j, e_j in scaled:
            if j > k:
                break
            if series[k - j]:
                acc = acc - series[k - j] * e_j
        series.append(acc)
    return series, d0_pows


def _binomial_row(shift: UniPoly, e: int, depth: int) -> list:
    """The coefficients of (u + shift)^e below u^depth, by power of u."""
    top = min(e, depth - 1)
    power, row = shift ** (e - top), [_PZERO] * (top + 1)
    for m in range(top, -1, -1):
        row[m] = power.scale(comb(e, m))
        if m:
            power = power * shift
    return row


def residue(f: RatFunc, factor: TFactor) -> CFrac:
    """Residue at a linear pole t - pi(c); zero when there is no pole there.

    Of the Laurent numerators only the last is reduced to a CFrac.
    """
    order = f.pole_order(factor)
    if order == 0:
        return CFrac(_PZERO)
    series, d0_pows = _laurent_numerators(f, factor, order)
    return CFrac(series[-1], d0_pows(order))


def residue_at_infinity(f: RatFunc) -> CFrac:
    """Residue at t = infinity: minus the 1/t coefficient of the expansion."""
    den_rows = [CFrac(p) for p in _over([_PONE], {}, f.fac)]
    num_rows = [CFrac(p) for p in f.rows]
    if not den_rows:
        raise ZeroDivisionError("zero denominator")
    if not num_rows:
        return CFrac(_PZERO)
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
    return CFrac(_PZERO)
