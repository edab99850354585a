"""Exact arithmetic core.

Gaussian rationals, dense univariate polynomials, bivariate polynomials,
and rational functions in a distinguished variable t and a parameter c
whose denominators are products of linear factors.  Everything is exact
except the complex values that the oracle and the renderer read
(``BiPoly.compiled``, and ``evaluate_complex`` and ``RatFunc.at_c``, which
round a c-polynomial's exact value at a float c once).

Every exact number is Gaussian integers over one positive denominator, on
Python ints, canonical when that denominator is coprime to all of them.
The public scalar ``GaussRat`` is ``(den, num_re, num_im)``, so a scalar
enters and leaves a polynomial as three ints; Fractions are built only to
parse and to print.  A ``UniPoly`` is ``(den, re, im)``: Gaussian integers,
low degree first, canonical when the top coefficient is nonzero and
gcd(den, *re, *im) = 1.  A ``BiPoly`` is the same in two variables, an
integer grid ``(den, re, im)`` whose rows ``re[i]`` and ``im[i]`` hold the
int coefficients of v0^i; ``im`` is None when the polynomial is real.  A
``RatFunc`` is a BiPoly grid in (t, c) times its linear factors to signed
exponents (poles, and numerator factors never multiplied out), so a product
of factors is a sum of exponents and every grid uses one arithmetic, int
loops with one normalisation per result.  A residue reads one Laurent
coefficient: the low rows of the shifted grid, on ints, dotted with a
product of binomial series, so a c-polynomial leaves the grid only as the
residue's numerator, which ``residue`` divides by its known linear
denominators in c.  The expanded ``RatFunc.num`` is built only for ``==``
and ``hash``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain, repeat, zip_longest
from math import comb, gcd, lcm
from operator import add, mul, sub, truediv
from typing import Callable, Iterable, List, Mapping, Optional, Sequence

NEG_INF = float("-inf")


def _pow(base, n: int, one):
    """base ** n by square-and-multiply, for n >= 0; ``one`` (base ** 0) is never multiplied."""
    if n < 0:
        raise ValueError(f"negative powers of {type(base).__name__} are not supported")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


def power_table(base, one) -> Callable[[int], object]:
    """n -> base ** n, memoised; each new power is one product from the last."""
    table = [one, base]

    def power(n: int):
        if n < 0:
            raise ValueError(f"negative powers of {type(base).__name__} are not supported")
        while len(table) <= n:
            table.append(table[-1] * base)
        return table[n]

    return power


class GaussRat:
    """An exact element of Q(i), (num_re + i*num_im) / den on Python ints.

    Canonical as a ``UniPoly`` coefficient is: den > 0 and gcd(den, num_re,
    num_im) = 1, so ``==`` compares ints; arithmetic normalises each result
    by one gcd (``_gauss_of``).  Fractions are built only to parse a number
    and, through the ``re`` and ``im`` views, to print one.  A real value
    hashes like its rational, so it meets ints and Fractions in sets and
    dicts; the hash is computed once, into ``_hash``.
    """

    __slots__ = ("den", "num_re", "num_im", "_hash")

    def __init__(self, re=0, im=0):
        den = 1
        if type(re) is not int or type(im) is not int:
            re, im = Fraction(re), Fraction(im)
            den = lcm(re.denominator, im.denominator)
            re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        self.den, self.num_re, self.num_im = den, re, im

    # -- construction -------------------------------------------------
    @classmethod
    def parse(cls, obj) -> "GaussRat":
        """Parse an exact number: int, "a/b" string, or {re, im} mapping."""
        if isinstance(obj, GaussRat):
            return obj
        if isinstance(obj, (int, str, Fraction)):
            return cls(obj)
        if isinstance(obj, Mapping):
            return cls(obj.get("re", 0), obj.get("im", 0))
        raise TypeError(f"cannot parse exact number from {obj!r}")

    re = property(lambda self: Fraction(self.num_re, self.den))
    im = property(lambda self: Fraction(self.num_im, self.den))

    def to_json(self):
        """Serialize as an exact string (or {re, im} when truly complex)."""
        if not self.num_im:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        d, e = self.den, other.den
        return _gauss_of(d * e, self.num_re * e + other.num_re * d,
                         self.num_im * e + other.num_im * d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        d, e = self.den, other.den
        return _gauss_of(d * e, self.num_re * e - other.num_re * d,
                         self.num_im * e - other.num_im * d)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        try:
            other = _coerce(other)
        except TypeError:  # a polynomial or RatFunc scales itself by self
            return NotImplemented
        a, b, c, d = self.num_re, self.num_im, other.num_re, other.num_im
        return _gauss_of(self.den * other.den, a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        a, b = self.num_re, self.num_im
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gauss_of(n, self.den * a, -self.den * b)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __neg__(self):
        obj = _new_object(GaussRat)  # already canonical: no gcd
        obj.den, obj.num_re, obj.num_im = self.den, -self.num_re, -self.num_im
        return obj

    def __pow__(self, n: int):
        if n < 0:
            return _pow(self.inverse(), -n, ONE)
        return _pow(self, n, ONE)

    # -- predicates / conversions -------------------------------------
    def __bool__(self):
        return bool(self.num_re or self.num_im)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return (self.den, self.num_re, self.num_im) == (other.den, other.num_re, other.num_im)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.den, self.num_re, self.num_im)) if self.num_im \
                else _rational_hash(self.num_re, self.den)
            return self._hash

    def to_complex(self) -> complex:
        """n / d on ints is correctly rounded, so this is float(Fraction) per part."""
        return complex(self.num_re / self.den, self.num_im / self.den)

    def __repr__(self):
        if not self.num_im:
            return str(self.re)
        if not self.num_re:
            return f"{self.im}i"
        sign = "+" if self.num_im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_new_object = object.__new__


def _gauss_of(den: int, re: int, im: int) -> GaussRat:
    """The canonical GaussRat (re + i*im) / den, for den > 0: one gcd."""
    if den != 1:
        g = gcd(den, re, im)
        if g != 1:
            den, re, im = den // g, re // g, im // g
    obj = _new_object(GaussRat)
    obj.den, obj.num_re, obj.num_im = den, re, im
    return obj


def _rational_hash(num: int, den: int) -> int:
    """hash(Fraction(num, den)) for coprime num and den > 0, by Python's rule
    for numeric hashes: |num| / den modulo the prime P, signed, and inf for
    den a multiple of P.  ``hash`` itself turns -1 into -2."""
    modulus = sys.hash_info.modulus
    h = abs(num) * pow(den, -1, modulus) % modulus if den % modulus else sys.hash_info.inf
    return h if num >= 0 else -h


def _paren(c: GaussRat) -> str:
    """repr(c), in parentheses when it is a sum."""
    text = repr(c)
    return f"({text})" if "+" in text[1:] or "-" in text[1:] else text


def _power(var: str, e: int) -> str:
    """The monomial var^e: "" for e = 0 and var for e = 1."""
    return "" if not e else var if e == 1 else f"{var}^{e}"


def _polynomial_string(terms: Iterable) -> str:
    """The sum of (coefficient, monomial) terms, zero coefficients skipped:
    a constant prints bare, a coefficient 1 or -1 as the monomial or its
    negation, any other times the monomial, and "+ -" reads "- "."""
    parts = []
    for c, monomial in terms:
        if not c:
            continue
        if not monomial:
            parts.append(repr(c))
        elif c == ONE:
            parts.append(monomial)
        elif c == -ONE:
            parts.append(f"-{monomial}")
        else:
            parts.append(f"{_paren(c)}*{monomial}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _coerce(value) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRat(value)
    raise TypeError(f"cannot coerce {value!r} to GaussRat")


ZERO = GaussRat(0)
ONE = GaussRat(1)


class UniPoly:
    """Dense univariate polynomial over Q(i): (re + i*im) / den.

    ``den`` is a positive int; ``re`` and ``im`` are equally long int lists,
    low degree first, and ``im`` is None when every coefficient is real.
    Canonical form: top coefficient nonzero and gcd(den, *re, *im) = 1, so
    ``==`` and ``hash`` compare ints.  Coefficient k (``p[k]``, or
    ``coeffs``) is the GaussRat (re[k] + i*im[k]) / den, reduced by one gcd.
    """

    __slots__ = ("den", "re", "im", "_hash")

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
        return _gauss_of(self.den, self.re[k], self.im[k] if self.im else 0)

    @property
    def coeffs(self) -> tuple:
        return tuple(self[k] for k in range(len(self.re)))

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.den, tuple(self.re), self.im and tuple(self.im)))
            return self._hash

    def __add__(self, other):
        return _combine(self, other, 1) if isinstance(other, UniPoly) else NotImplemented

    def __sub__(self, other):
        return _combine(self, other, -1) if isinstance(other, UniPoly) else NotImplemented

    def __neg__(self):
        return _raw_poly(self.den, [-v for v in self.re],
                         self.im and [-v for v in self.im])

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other) if isinstance(other, (GaussRat, int)) else NotImplemented
        if not self.re or not other.re:
            return _PZERO
        if self.im is None and other.im is None:
            return _poly(self.den * other.den, _mac(None, self.re, other.re))
        return _poly(self.den * other.den,
                     *_cmac(None, None, self.re, self.im, other.re, other.im))

    __rmul__ = __mul__

    def scale(self, factor) -> "UniPoly":
        """self * factor for a GaussRat or int factor."""
        d, r, i = _scalar(factor)
        return _poly(self.den * d, *_cmac(None, None, self.re, self.im, [r], i and [i]))

    def __pow__(self, n: int):
        return _pow(self, n, _PONE)

    def derivative(self) -> "UniPoly":
        im = self.im and [k * v for k, v in enumerate(self.im)][1:]
        return _poly(self.den, [k * v for k, v in enumerate(self.re)][1:], im)

    def evaluate(self, point: GaussRat) -> GaussRat:
        """The exact value at a GaussRat or int point."""
        d, a, b = _scalar(point)
        return _gauss_of(*_horner_exact(self.den, self.re, self.im, d, a, b or 0))

    def evaluate_complex(self, point: complex) -> complex:
        return _rounded(*_horner_exact(self.den, self.re, self.im, *_binary(point)))

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

    def divide_by_root(self, root: GaussRat):
        """self / (x - root) when the division is exact, else None."""
        if not self.re:
            return self
        rows = _raw_bipoly(self.den, [[v] for v in self.re], self.im and [[v] for v in self.im])
        (den, qr, qi), (_, (cr,), ci) = _synthetic_division(rows, UniPoly.const(root))
        if cr or ci and ci[0]:
            return None
        return _poly(den, [row[0] for row in qr], qi and [row[0] if row else 0 for row in qi])

    def root_multiplicity(self, root: GaussRat) -> int:
        """Multiplicity of (x - root) in self: over Q(i), how many derivatives,
        self first, vanish at root; a nonzero constant ends the count."""
        if self.is_zero():
            raise ValueError("zero polynomial has no well-defined multiplicity")
        count, current = 0, self
        while not current.evaluate(root):
            count, current = count + 1, current.derivative()
        return count

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self * _lead_inverse(self)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by Euclid on primitive remainders (content divided out);
        a nonzero constant remainder divides everything, so the gcd is 1."""
        a, b = self, other
        while len(b.re) > 1:
            r = a.divmod(b)[1]
            a, b = b, _poly(gcd(*r.re, *(r.im or ())), list(r.re), r.im and list(r.im))
        return _PONE if b.re else a.monic()

    def to_string(self) -> str:
        """The polynomial in c, top degree first."""
        return _polynomial_string((self[k], _power("c", k))
                                  for k in range(len(self.re) - 1, -1, -1))

    def __repr__(self):
        return self.to_string()


def _scalar(value):
    """(den, re, im) of a GaussRat or int, ints; im is None when it is 0."""
    if isinstance(value, int):
        return 1, value, None
    return value.den, value.num_re, value.num_im or None


def _complex_coeffs(den: int, re: list, im) -> list:
    """(re + i*im) / den as complex numbers; r / den is correctly rounded,
    so the values do not depend on the scale of den."""
    return [complex(r / den, i / den) for r, i in zip(re, im or repeat(0))]


def _binary(z: complex):
    """(d, a, b) with z = (a + i*b) / d exactly; for a float z, d is a power of two."""
    (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(da, db)
    return d, a * (d // da), b * (d // db)


def _horner_exact(den: int, re: list, im, d: int, a: int, b: int):
    """(den d^(n-1), R, I): (re + i*im) / den, n coefficients low degree first,
    is (R + i*I) / (den d^(n-1)) at (a + i*b) / d, d > 0, by Horner on the ints."""
    if not re:
        return 1, 0, 0
    r, i, scale = re[-1], im[-1] if im else 0, 1
    for k in range(len(re) - 2, -1, -1):
        scale *= d
        r, i = r * a - i * b + re[k] * scale, r * b + i * a + (im[k] * scale if im else 0)
    return den * scale, r, i


def _rounded(den: int, re: int, im: int) -> complex:
    """(re + i*im) / den, each part correctly rounded or an OverflowError."""
    return complex(re / den, im / den)


def _horner_complex(coeffs: Sequence[complex], point: complex) -> complex:
    """sum coeffs[k] point^k by Horner, low degree first in coeffs."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


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


def _mac(acc, x: list, y: list) -> list:
    """acc + x*y for int vectors x and y.

    A nonempty ``acc`` grows and is updated in place; an empty one, or
    None, is replaced by a new list, so no zero accumulator is added to.
    """
    nx, ny = len(x), len(y)
    if nx > ny:
        x, y, nx = y, x, ny
    if not acc:
        if nx == 1:
            a = x[0]
            return [a * v for v in y]
        acc = [0] * (nx + len(y) - 1)
    else:
        short = nx + len(y) - 1 - len(acc)
        if short > 0:
            acc += [0] * short
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y, i):
                acc[j] += a * b
    return acc


def _cmac(ar, ai, xr, xi, yr, yi):
    """(ar + i*ai) + (xr + i*xi)(yr + i*yi) for int vectors, as ``_mac`` does.

    An imaginary part that is None or empty is zero.  A nonempty imaginary
    part of the result comes out as long as the real part.
    """
    if not xi or not yi:
        if xi:  # only x is complex: make it y
            xr, xi, yr, yi = yr, yi, xr, xi
        ar = _mac(ar, xr, yr)
        if yi:
            ai = _mac(ai, xr, yi)
    else:
        n = max(len(xr) + len(yr) - 1, len(ar or ()), len(ai or ()))
        ar = ar + [0] * (n - len(ar)) if ar else [0] * n
        ai = ai + [0] * (n - len(ai)) if ai else [0] * n
        for i, (a, b) in enumerate(zip(xr, xi)):
            if a or b:
                for j, (c, d) in enumerate(zip(yr, yi), i):
                    ar[j] += a * c - b * d
                    ai[j] += a * d + b * c
    if ai:
        short = len(ar) - len(ai)
        if short > 0:
            ai += [0] * short
        elif short < 0:
            ar += [0] * -short
    return ar, ai


def _lead_inverse(p: UniPoly) -> UniPoly:
    """The constant 1 / (leading coefficient of p)."""
    lr, li = p.re[-1], p.im[-1] if p.im else 0
    return _poly(lr * lr + li * li, [p.den * lr], [-p.den * li])


_PZERO = _raw_poly(1, [], None)
_PONE = _raw_poly(1, [1], None)


def _trim(items: list) -> list:
    """``items`` without its zero top entries (rows or coefficients), in place."""
    while items and not items[-1]:
        items.pop()
    return items


# ---------------------------------------------------------------------------
# Integer grids: polynomials in two variables over one denominator
# ---------------------------------------------------------------------------

def _pair_rows(re: list, im: list):
    """Pad and trim the rows of re and im together; im, or None when it is zero.

    Replaces rows of the outer lists ``re`` and ``im`` (an im row may be
    None) and drops their zero top rows; no row is changed in place.
    """
    n = max(len(re), len(im))
    re += [[]] * (n - len(re))
    im += [None] * (n - len(im))
    imaginary = False
    for k in range(n):
        r, m = re[k], im[k] or []
        if len(m) < len(r):
            m = m + [0] * (len(r) - len(m))
        elif len(r) < len(m):
            r = r + [0] * (len(m) - len(r))
        j = len(r)
        while j and not r[j - 1] and not m[j - 1]:
            j -= 1
        if j < len(r):
            r, m = r[:j], m[:j]
        re[k], im[k] = r, m
        imaginary = imaginary or any(m)
    while re and not re[-1]:
        re.pop()
        im.pop()
    return im if imaginary else None


def _bipoly(den: int, re: list, im=None) -> "BiPoly":
    """The canonical BiPoly (re + i*im) / den, for den > 0.

    Rows may have zero tops, and ``im`` may be shorter than ``re`` with
    rows that are None or of any length.  Takes ownership of the outer
    lists ``re`` and ``im``; no row is changed in place.
    """
    if im is not None:
        im = _pair_rows(re, im)
    else:
        for k, row in enumerate(re):
            if row and not row[-1]:
                re[k] = _trim(list(row))
        _trim(re)
    if not re:
        return _BZERO
    if den != 1:
        g = den
        for row in re if im is None else chain(re, im):
            g = gcd(g, *row)
            if g == 1:
                break
        if g != 1:
            den, re = den // g, [[v // g for v in row] for row in re]
            im = im and [[v // g for v in row] for row in im]
    return _raw_bipoly(den, re, im)


def _raw_bipoly(den: int, re: list, im) -> "BiPoly":
    """BiPoly from parts already in canonical form."""
    obj = _new_object(BiPoly)
    obj.den, obj.re, obj.im = den, re, im
    return obj


def _const(value) -> "BiPoly":
    """The constant BiPoly ``value``, an int or an exact number."""
    d, r, i = _scalar(value if isinstance(value, int) else GaussRat.parse(value))
    return _bipoly(d, [[r]], i and [[i]])


def _im_rows(p: "BiPoly") -> list:
    """p's imaginary rows, None where a row is real."""
    if p.im is None:
        return [None] * len(p.re)
    return [m if any(m) else None for m in p.im]


def _grid_mul(a: "BiPoly", b: "BiPoly", size: int = None) -> "BiPoly":
    """a*b over den(a) den(b), normalised once; with ``size``, only the
    rows below v0^size.  Zero rows are skipped."""
    ar, br = a.re, b.re
    if not ar or not br:
        return _BZERO
    n = len(ar) + len(br) - 1
    if size is not None and size < n:
        n = size
    re = [[] for _ in range(n)]
    if a.im is None and b.im is None:
        for i, x in enumerate(ar[:n]):
            if x:
                for j, y in enumerate(br[:n - i], i):
                    if y:
                        re[j] = _mac(re[j], x, y)
        return _bipoly(a.den * b.den, re)
    ai, bi = _im_rows(a), _im_rows(b)
    im = [None] * n
    for i, x in enumerate(ar[:n]):
        if x:
            xi = ai[i]
            for j, y in enumerate(br[:n - i], i):
                if y:
                    re[j], im[j] = _cmac(re[j], im[j], x, xi, y, bi[j - i])
    return _bipoly(a.den * b.den, re, im)


def _grid_sum(a: "BiPoly", b: "BiPoly", sign: int = 1) -> "BiPoly":
    """a + sign*b over the least common denominator."""
    if not b.re:
        return a
    if not a.re:
        return b if sign == 1 else -b
    g = gcd(a.den, b.den)
    sa, sb = b.den // g, sign * (a.den // g)
    re = [_axpy(sa, x, sb, y) for x, y in zip_longest(a.re, b.re, fillvalue=())]
    im = None
    if a.im is not None or b.im is not None:
        im = [_axpy(sa, x, sb, y)
              for x, y in zip_longest(a.im or (), b.im or (), fillvalue=())]
    return _bipoly(a.den * sa, re, im)


def _grid_partial(p: "BiPoly", slot: int) -> "BiPoly":
    """The partial derivative in v0 (slot 0) or v1 (slot 1)."""
    if slot == 0:
        def partial(rows):
            return [[k * v for v in row] for k, row in enumerate(rows) if k]
    else:
        def partial(rows):
            return [[k * v for k, v in enumerate(row)][1:] for row in rows]
    return _bipoly(p.den, partial(p.re), p.im and partial(p.im))


def _grid_integral(p: "BiPoly", slot: int) -> "BiPoly":
    """The antiderivative in v0 (slot 0) or v1 (slot 1) that vanishes where
    that variable is 0, over den times lcm(1, ..., top power + 1)."""
    if slot == 0:
        scale = lcm(*range(1, len(p.re) + 1))

        def integral(rows):
            return [[]] + [[scale // k * v for v in row] for k, row in enumerate(rows, 1)]
    else:
        scale = lcm(*range(1, max(map(len, p.re), default=0) + 1))

        def integral(rows):
            return [[0] + [scale // k * v for k, v in enumerate(row, 1)] if row else row
                    for row in rows]
    return _bipoly(p.den * scale, integral(p.re), p.im and integral(p.im))


class BiPoly:
    """Bivariate polynomial over Q(i): the integer grid (re + i*im) / den.

    ``re[i]`` and ``im[i]`` are the int coefficients of v0^i, by power of
    v1, low first; ``im`` is None when every coefficient is real.
    Canonical form: every row trimmed (a zero row is empty), ``im[i]`` as
    long as ``re[i]``, the top row nonzero and gcd(den, every int) = 1, so
    ``==`` and ``hash`` compare ints.  A ``RatFunc`` numerator is a BiPoly
    in (t, c), so both share one arithmetic: int loops with one
    normalisation per result.  Variable slots are positional; callers fix
    the meaning, either (x, y) in the plane or (t, c) in the rectified
    plane.  ``terms`` is a GaussRat view {(i, j): coefficient of v0^i v1^j}.
    """

    __slots__ = ("den", "re", "im")

    def __init__(self, terms: Mapping = ()):
        parts = {}
        for (i, j), value in dict(terms).items():
            if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                raise ValueError(f"negative or non-integer exponent in term {(i, j)}")
            parts[i, j] = _scalar(GaussRat.parse(value))
        den = lcm(*(d for d, _, _ in parts.values()))
        n = max((i for i, _ in parts), default=-1) + 1
        re, im = [[] for _ in range(n)], [[] for _ in range(n)]
        for (i, j), (d, r, m) in parts.items():
            for rows in (re, im):
                rows[i] += [0] * (j + 1 - len(rows[i]))
            re[i][j], im[i][j] = r * (den // d), (m or 0) * (den // d)
        p = _bipoly(den, re, im)
        self.den, self.re, self.im = p.den, p.re, p.im

    @classmethod
    def const(cls, value) -> "BiPoly":
        return _const(value)

    @classmethod
    def var(cls, slot: int) -> "BiPoly":
        return _raw_bipoly(1, [[], [1]] if slot == 0 else [[0, 1]], None)

    @property
    def terms(self) -> dict:
        den, out = self.den, {}
        for i, (r_row, m_row) in enumerate(zip(self.re, self.im or repeat(None))):
            for j, r in enumerate(r_row):
                m = m_row[j] if m_row else 0
                if r or m:
                    out[i, j] = _gauss_of(den, r, m)
        return out

    def is_zero(self) -> bool:
        return not self.re

    def __bool__(self):
        return bool(self.re)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.den, tuple(map(tuple, self.re)),
                     self.im and tuple(map(tuple, self.im))))

    @property
    def total_degree(self):
        return max((i + len(row) - 1 for i, row in enumerate(self.re) if row),
                   default=NEG_INF)

    def __add__(self, other):
        return _grid_sum(self, other) if isinstance(other, BiPoly) else NotImplemented

    def __sub__(self, other):
        return _grid_sum(self, other, -1) if isinstance(other, BiPoly) else NotImplemented

    def __neg__(self):
        return _raw_bipoly(self.den, [[-v for v in row] for row in self.re],
                           self.im and [[-v for v in row] for row in self.im])

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            return self.scale(other)
        if not isinstance(other, BiPoly):  # not a RatFunc either: no mixed products
            return NotImplemented
        return _grid_mul(self, other)

    __rmul__ = __mul__

    def scale(self, factor: GaussRat) -> "BiPoly":
        return _grid_mul(self, _const(factor))

    def __pow__(self, n: int):
        return _pow(self, n, _BONE)

    def partial(self, slot: int) -> "BiPoly":
        return _grid_partial(self, slot)

    def compose(self, sub0, sub1):
        """Substitute sub0 and sub1 for the two variables, in their ring:
        BiPolys give a BiPoly, RatFuncs a RatFunc.  Horner over the rows,
        each row's ints in the ring of sub1, then one scale by 1/den."""
        acc = type(sub0).const(ZERO)
        for k in range(len(self.re) - 1, -1, -1):
            acc = acc * sub0
            row = self.re[k]
            if row:
                if self.im is not None:
                    row = [GaussRat(r, m) for r, m in zip(row, self.im[k])]
                acc = acc + _horner(row, sub1)
        return acc if self.den == 1 else acc * _gauss_of(self.den, 1, 0)

    def compiled(self) -> Callable[[List[complex], List[complex]], List[complex]]:
        """Column evaluator: (v0s, v1s) -> the values at the points (v0s[k], v1s[k]).

        Nested Horner, each step over the whole column, in the variable
        order that takes fewer column steps: with v0 outermost that is the
        v0-degree plus every row's v1-degree, with v1 outermost the same
        count on the transposed grid (ties keep v0 outermost).  The
        coefficients are converted to complex once, here.
        """
        grid = [_complex_coeffs(self.den, r, m)  # grid[i][j]: v0^i v1^j
                for r, m in zip(self.re, self.im or repeat(None))]
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
        """The polynomial in the two named variables, by total degree, then v0-degree."""
        terms = sorted(self.terms.items(), key=lambda kc: (sum(kc[0]), kc[0]))
        return _polynomial_string((c, "*".join(filter(None, map(_power, vars, ij))))
                                  for ij, c in terms)

    def __repr__(self):
        return self.to_string()


_BZERO = _raw_bipoly(1, [], None)
_BONE = _raw_bipoly(1, [[1]], None)


def _horner(coeffs: Sequence, x):
    """sum coeffs[k] x^k, evaluated in the ring of x; zero coefficients are skipped."""
    const = type(x).const
    acc = const(ZERO)
    for coeff in reversed(coeffs):
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


# ---------------------------------------------------------------------------
# Rational functions in (t, c) over linear factors
# ---------------------------------------------------------------------------
#
# Linear factors are kept as exponents, on both sides of the fraction.  Two
# kinds of irreducible factor occur in this problem domain:
#   ("t", pi)  meaning  t - pi(c), pi a UniPoly in c of degree at most 1
#   ("c",)     meaning  c
# A key carries its pole's location, so two factors at one location are one
# key.  A rectifier builds one key per puncture, so dict lookups on its
# functions' exponents mostly compare by identity.
# Factored storage makes products/powers cheap and gcd cancellation exact
# without a general multivariate gcd.  The rest of the numerator is a BiPoly
# in (t, c): row i of the grid holds the c-coefficients of t^i.

TFactor = tuple


def t_factor(pi1: GaussRat, pi0: GaussRat) -> TFactor:
    """The key of t - (pi1*c + pi0)."""
    return ("t", UniPoly([pi0, pi1]))


C_FACTOR: TFactor = ("c",)


def _factor_product(powers: list) -> BiPoly:
    """prod (t - pi(c))^e over the ("t" factor, e) pairs, as a grid in (t, c)."""
    product = _BONE
    for factor, e in powers:
        pi = factor[1]  # t - P / d = (d t - P) / d
        base = _bipoly(pi.den, [[-v for v in pi.re], [pi.den]],
                       pi.im and [[-v for v in pi.im], [0]])
        product = _grid_mul(product, _pow(base, e, _BONE))
    return product


def _over(p: BiPoly, exps: Mapping, target: Mapping) -> BiPoly:
    """The grid p over the signed exponents ``exps`` rewritten over ``target``
    (at least ``exps`` at every factor): p times the missing "t" factors, as
    one product, and the missing power of c, as a shift of every row."""
    if not p.re:
        return p
    shift, missing = 0, []
    for key, e in chain(target.items(), ((k, 0) for k in exps if k not in target)):
        e -= exps.get(key, 0)
        if e:
            if key[0] == "c":
                shift = e
            else:
                missing.append((key, e))
    if missing:
        p = _grid_mul(p, _factor_product(missing))
    if shift:
        zeros = [0] * shift
        p = _raw_bipoly(p.den, [zeros + row if row else row for row in p.re],
                        p.im and [zeros + row if row else row for row in p.im])
    return p


def _carries(p: BiPoly, pi: UniPoly):
    """Horner on the integers for a nonzero p and t - pi with pi != 0.

    For pi = P / d the carries C_(n-1) = N_(n-1) and C_k = d^(n-1-k) N_k +
    P C_(k+1) are den d^(n-1-k) times the exact ones, so quotient row k is
    d^k C_(k+1) over den d^(n-2) and the remainder is C_0 over den d^(n-1).
    Returns the parts unnormalised: (den, re, im) of the quotient, then of
    the remainder.  A ``UniPoly`` is divided as one-entry rows by a constant
    pi, so the same carries serve polynomials in c alone.
    """
    re, im, n = p.re, p.im, len(p.re)
    d, pr, pim = pi.den, pi.re, pi.im
    qr, qi = [None] * (n - 1), [None] * (n - 1)
    cr, ci, scale = re[-1], im and im[-1], 1
    if im is None and pim is None:
        for k in range(n - 2, -1, -1):
            qr[k] = cr
            scale *= d
            nr = [scale * v for v in re[k]] if scale != 1 else list(re[k])
            cr = _mac(nr, pr, cr) if cr else nr
    else:
        rows_i = im or [None] * n
        for k in range(n - 2, -1, -1):
            qr[k], qi[k] = cr, ci
            scale *= d
            nr, ni = [scale * v for v in re[k]], rows_i[k] and [scale * v for v in rows_i[k]]
            cr, ci = _cmac(nr, ni, pr, pim, cr, ci) if cr else (nr, ni)
    if d != 1:
        for k in range(1, n - 1):
            f = d ** k
            qr[k], qi[k] = [f * v for v in qr[k]], qi[k] and [f * v for v in qi[k]]
    quotient = (p.den * scale // d if n > 1 else 1, qr,
                qi if im is not None or pim is not None else None)
    return quotient, (p.den * scale, list(cr), ci and list(ci))


def _synthetic_division(p: BiPoly, pi: UniPoly):
    """(quotient, remainder) of a nonzero p by t - pi, as the unnormalised
    parts (den, re, im) of a grid and of a c-polynomial.  For pi = 0 this is
    a shift, and both share p's rows."""
    re, im = p.re, p.im
    if not pi:
        return (p.den, re[1:], im and im[1:]), (p.den, re[0], im and im[0])
    return _carries(p, pi)


def _divide_factor(p: BiPoly, factor: TFactor):
    """The exact quotient of a nonzero p by one denominator factor, or None.

    A failed trial normalises nothing."""
    re, im = p.re, p.im
    if factor[0] == "c":
        if any(row and row[0] for row in re) or im and any(row and row[0] for row in im):
            return None
        return _raw_bipoly(p.den, [row[1:] for row in re], im and [row[1:] for row in im])
    pi = factor[1]
    if not pi:  # t divides when row 0 is zero, and the rest keeps its content
        return None if re[0] else _raw_bipoly(p.den, re[1:], im and im[1:])
    quotient, (_, rem_r, rem_i) = _carries(p, pi)
    if any(rem_r) or rem_i and any(rem_i):
        return None
    return _bipoly(*quotient)


def _cancel(p: BiPoly, factor: TFactor, e: int):
    """(p / factor^m, e - m), m <= e largest with factor^m | p; no "t" trial at t-degree 0."""
    while e and (len(p.re) > 1 or factor[0] == "c"):
        quotient = _divide_factor(p, factor)
        if quotient is None:
            break
        p, e = quotient, e - 1
    return p, e


def _ratfunc(grid: BiPoly, exps: dict, candidates: Iterable[TFactor] = None) -> "RatFunc":
    """grid / prod factor^e, each pole (e > 0) cancelled as often as it divides.

    Only the poles in ``candidates`` (by default every pole of ``exps``)
    are tried; the caller vouches that no other pole divides ``grid``.
    Takes ownership of ``exps``, whose exponents are nonzero.
    """
    if not grid.re:
        return _raw_ratfunc(_BZERO, {})
    for key in [k for k, e in exps.items() if e > 0] if candidates is None else candidates:
        grid, e = _cancel(grid, key, exps[key])
        if e:
            exps[key] = e
        else:
            del exps[key]
    return _raw_ratfunc(grid, exps)


def _raw_ratfunc(grid: BiPoly, exps: dict) -> "RatFunc":
    """RatFunc from a grid and signed exponents already cancelled against it."""
    obj = _new_object(RatFunc)
    obj.grid, obj.exps = grid, exps
    return obj


class RatFunc:
    """Rational function N(t, c) prod(factor^-e), its poles cancelled.

    ``grid`` is a BiPoly in (t, c) and ``exps`` maps each linear factor, a
    key ``("t", pi)`` or ``("c",)``, to a nonzero signed exponent: e > 0 is
    a pole of order e and e < 0 a numerator factor kept unexpanded.  No
    pole divides the grid; numerator factors need no such invariant.  ``num`` (the numerator multiplied out)
    and ``fac`` (the poles) are the canonical pair that ``==`` and ``hash``
    compare.

    Cancellation rule for products: a pole of the product can cancel only
    against the grid of an operand that does not have it as a pole, so
    ``*`` adds exponents and trial-divides only there; a numerator factor
    meeting a pole of the other operand cancels by its exponent alone.
    """

    __slots__ = ("grid", "exps")

    def __init__(self, num: BiPoly, fac: Mapping = ()):
        fac = {k: int(e) for k, e in dict(fac).items() if e}
        if any(e < 0 for e in fac.values()):
            raise ValueError("denominator factor exponents must be positive")
        f = _ratfunc(num, fac)
        self.grid, self.exps = f.grid, f.exps

    # -- construction --------------------------------------------------
    @classmethod
    def const(cls, value) -> "RatFunc":
        return _raw_ratfunc(_const(value), {})

    @classmethod
    def t(cls) -> "RatFunc":
        return _raw_ratfunc(BiPoly.var(0), {})

    @classmethod
    def c(cls) -> "RatFunc":
        return _raw_ratfunc(BiPoly.var(1), {})

    @classmethod
    def factor_product(cls, exps: Mapping[TFactor, int], sign: int) -> "RatFunc":
        """sign * prod factor^e; a factor with e < 0 goes in the denominator."""
        return _raw_ratfunc(_const(sign), {k: -e for k, e in exps.items() if e})

    # -- views ---------------------------------------------------------
    @property
    def num(self) -> BiPoly:
        return _over(self.grid, self.exps, self.fac)

    @property
    def fac(self) -> dict:
        return {k: e for k, e in self.exps.items() if e > 0}

    @property
    def denominator(self) -> BiPoly:
        return _over(_BONE, {}, self.fac)

    def is_zero(self) -> bool:
        return not self.grid.re

    def __bool__(self):
        return bool(self.grid.re)

    def pole_order(self, factor: TFactor) -> int:
        return max(self.exps.get(factor, 0), 0)

    # -- arithmetic ----------------------------------------------------
    def _common(self, other: "RatFunc"):
        get1, get2 = self.exps.get, other.exps.get  # the per-factor maximum
        exps = {k: e for k in chain(self.exps, other.exps) if (e := max(get1(k, 0), get2(k, 0)))}
        return _over(self.grid, self.exps, exps), _over(other.grid, other.exps, exps), exps

    def _sum(self, other: "RatFunc", sign: int) -> "RatFunc":
        # A pole with unequal exponents in the two reduced operands divides
        # exactly one rewritten grid, so only poles with equal exponents can
        # cancel from the sum.
        if not isinstance(other, RatFunc):
            return NotImplemented
        n1, n2, exps = self._common(other)
        shared = [k for k, e in self.exps.items() if e > 0 and other.exps.get(k) == e]
        return _ratfunc(_grid_sum(n1, n2, sign), exps, shared)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return _raw_ratfunc(-self.grid, dict(self.exps))

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            if not other:
                return _raw_ratfunc(_BZERO, {})
            return _raw_ratfunc(self.grid.scale(other), dict(self.exps))
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not self.grid.re or not other.grid.re:
            return _raw_ratfunc(_BZERO, {})
        a, b, ea, eb = self.grid, other.grid, self.exps, other.exps
        exps = dict(ea)
        for k, e in eb.items():
            exps[k] = exps.get(k, 0) + e
        for k, e in exps.items():  # see the cancellation rule above
            if e > 0:
                if ea.get(k, 0) <= 0:
                    a, exps[k] = _cancel(a, k, e)
                elif eb.get(k, 0) <= 0:
                    b, exps[k] = _cancel(b, k, e)
        return _raw_ratfunc(_grid_mul(a, b), {k: e for k, e in exps.items() if e})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _pow(self, n, _raw_ratfunc(_BONE, {}))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.fac == other.fac  # the pair is canonical

    def __hash__(self):
        return hash((self.num, frozenset(self.fac.items())))

    def derivative(self) -> "RatFunc":
        """The derivative in t."""
        # d(N prod F^-e) = (N' prod F - N sum e_i F_i' prod_{j != i} F_j) prod F^-(e+1)
        # A "t" factor has F' = 1 and leaves N e_k prod_{j != k} F_j, which it
        # does not divide, in the numerator; only a pole c (F' = 0) can cancel.
        correction = _BZERO
        for k, e in self.exps.items():
            if k[0] == "t":
                rest = {other: 1 for other in self.exps if other != k}
                correction = _grid_sum(correction, _over(_const(e), {}, rest))
        partial = _over(_grid_partial(self.grid, 0), {}, {k: 1 for k in self.exps})
        numerator = _grid_sum(partial, _grid_mul(self.grid, correction), -1)
        return _ratfunc(numerator, {k: e + 1 for k, e in self.exps.items() if e != -1},
                        [C_FACTOR] if self.exps.get(C_FACTOR, 0) > 0 else [])

    def at_c(self, c_value: complex, slopes: bool = False) -> Callable[[List[complex]], list]:
        """Column evaluator at fixed c: a list of t values -> the values there.

        Every coefficient is converted once, here: the grid's t-coefficients
        are its c-rows' exact values at c_value rounded once, times c^-e,
        and each "t" factor becomes a complex (pole, exponent) pair.  Each
        Horner step runs over the whole column, and each factor is one
        division (a pole) or one product (a numerator factor) per point.  At
        c_value = 0 a pole c makes every t a pole, so any point raises
        ZeroDivisionError on evaluation, as a t-pole does.

        With ``slopes`` it returns (values, t-derivatives), the derivatives
        from the same factors, not from ``derivative``: for G F, G the grid's
        Horner and F = prod (t - pi_k)^-e_k, the slope is G' F + G F sum_k
        -e_k / (t - pi_k), with F its own product (G may vanish at a point).
        """
        if self.exps.get(C_FACTOR, 0) > 0 and not c_value:
            def nowhere(points: List[complex]) -> list:
                if points:
                    raise ZeroDivisionError("c = 0 is a pole at every t")
                return ([], []) if slopes else []

            return nowhere
        scale, point = 1, _binary(c_value)
        factors = []
        for key, e in self.exps.items():
            if key[0] == "t":
                pole = _rounded(*_horner_exact(key[1].den, key[1].re, key[1].im, *point))
                factors.append((pole, abs(e), truediv if e > 0 else mul, complex(-e)))
            else:
                scale = c_value ** -e
        grid = self.grid
        coeffs = [_rounded(*_horner_exact(grid.den, r, m, *point)) * scale
                  for r, m in zip(reversed(grid.re), reversed(grid.im or [None] * len(grid.re)))]
        slope_coeffs = slopes and [k * v for k, v in zip(range(len(coeffs) - 1, 0, -1), coeffs)]

        def values(points: List[complex]) -> list:
            acc, n = _horner_column(coeffs, points), len(points)
            if not factors:  # F = 1: the slope is G' alone
                return (acc, _horner_column(slope_coeffs, points)) if slopes else acc
            logs, shape = None, slope_coeffs and [1.0] * n  # sum_k -e_k / (t - pi_k), and F
            for pole, e, op, weight in factors:
                base = list(map(sub, points, repeat(pole, n)))
                power = base if e == 1 else list(map(pow, base, repeat(e, n)))
                acc = list(map(op, acc, power))
                if slopes:  # F only when G depends on t
                    shape = list(map(op, shape, power)) if slope_coeffs else shape
                    terms = map(truediv, repeat(weight, n), base)
                    logs = list(terms if logs is None else map(add, logs, terms))
            if not slopes:
                return acc
            slope = map(mul, acc, logs)
            if slope_coeffs:
                slope = map(add, map(mul, _horner_column(slope_coeffs, points), shape), slope)
            return acc, list(slope)

        return values

    def evaluate(self, t_value: complex, c_value: complex) -> complex:
        return self.at_c(c_value)([t_value])[0]

    def __repr__(self):
        num = self.num.to_string(("t", "c"))
        if not self.fac:
            return num
        den = self.denominator.to_string(("t", "c"))
        return f"({num})/({den})"


def _binomial_grid(shift: UniPoly, e: int, depth: int) -> BiPoly:
    """shift^p (u + shift)^e below u^depth, a grid in (u, c): p = 0 for
    e >= 0, and p = depth - 1 - e for e < 0, which makes it a polynomial.

    Row m is binom(e, m) shift^(e + p - m), a generalised binomial
    coefficient when e < 0 (then shift must be nonzero); for shift = S / d
    it is binom(e, m) d^m S^(e + p - m) over d^(e + p).
    """
    power = e if e >= 0 else depth - 1  # e + p
    top = min(power, depth - 1)
    d, sr, si = shift.den, shift.re, shift.im
    power_r, power_i = [1], None  # S^(power - top), then S^(power - m)
    for _ in range(power - top):
        power_r, power_i = _cmac(None, None, power_r, power_i, sr, si)
    re, im = [None] * (top + 1), [None] * (top + 1)
    for m in range(top, -1, -1):
        f = (comb(e, m) if e >= 0 else (-1) ** m * comb(m - e - 1, m)) * d ** m
        re[m], im[m] = [f * v for v in power_r], power_i and [f * v for v in power_i]
        if m:
            power_r, power_i = _cmac(None, None, power_r, power_i, sr, si)
    return _bipoly(d ** power, re, im if si else None)


def _residue_fraction(f: RatFunc, factor: TFactor):
    """The residue at a linear pole t - pi(c), unreduced: (numerator, divisors),
    the numerator over prod (c - root)^k for the (root, k) in divisors.

    With u = t - pi, a pole of order d and delta_g = pi - pi_g, f is
    N(u + pi) u^-d prod_g (u + delta_g)^-e_g c^-e_c over the grid N and
    every other factor g, each with its signed exponent.  pi and pi_g are
    the locations the keys carry, and delta_g != 0, since two factors at one
    location are one key.  The residue is
    [u^(d-1)] N(u + pi) prod_g (u + delta_g)^-e_g, times c^-e_c.  Below u^d
    each (u + delta_g)^-e_g is a binomial series (``_binomial_grid``):
    finite for a numerator factor, and for a pole a polynomial once scaled
    by delta_g^n, n = e_g+d-1.  The d low coefficients of N(u + pi) are the
    remainders of repeated synthetic division, on ints, so the numerator is
    one dot product of them with the product of the series.  A pole's
    delta = (S / q) (c - root), or S / q when it is constant, puts 1 / (S /
    q)^n on the ints (q^n / S^n for real S, else q^n conj(S)^n / |S|^(2n))
    and a numerator c^k is a row shift, so the divisors are (root, n) for a
    moving delta and (0, e_c) for a pole c.
    """
    depth = f.pole_order(factor)
    if depth == 0:
        return _PZERO, []
    pi = factor[1]
    # the numerator is the dot product times (scale_r + i scale_i) / den
    cofactor, scale_r, scale_i, den, divisors, shift = _BONE, 1, 0, 1, [], []
    for key, e in f.exps.items():
        if key[0] == "c":  # a pole c divides, a numerator c^k shifts the result
            if e > 0:
                divisors.append((ZERO, e))
            else:
                shift = [0] * -e
        elif key != factor:
            delta = pi - key[1]  # nonzero: a location has one key
            series = _binomial_grid(delta, -e, depth)
            cofactor = series if cofactor is _BONE else _grid_mul(cofactor, series, depth)
            if e > 0:  # delta's lead S / q with S = s + i b: times q^n conj(S)^n / |S|^(2n)
                n = e + depth - 1
                s, b, q = delta.re[-1], delta.im[-1] if delta.im else 0, delta.den ** n
                den *= (s * s + b * b if b else s) ** n  # for real S, q^n / S^n
                scale_r, scale_i = scale_r * q, scale_i * q
                for _ in range(n if b else 0):
                    scale_r, scale_i = scale_r * s + scale_i * b, scale_i * s - scale_r * b
                if len(delta.re) > 1:
                    divisors.append((-delta[0] / delta[1], n))

    rows, rest = [], f.grid  # (den, re, im) of [u^k] N(u + pi)
    while rest.re and len(rows) < depth:
        quotient, remainder = _synthetic_division(rest, pi)
        rows.append(remainder)
        rest = _raw_bipoly(*quotient)
    common = lcm(*(d for d, _, _ in rows))
    co_r, co_i = cofactor.re, _im_rows(cofactor)
    acc_r, acc_i = [], None
    for k, (d, re, im) in enumerate(rows):
        j = depth - 1 - k  # row k of the numerator meets cofactor row j
        if j < len(co_r) and co_r[j] and re:
            s = common // d
            if s != 1:
                re, im = [s * v for v in re], im and [s * v for v in im]
            acc_r, acc_i = _cmac(acc_r, acc_i, re, im, co_r[j], co_i[j])
    if den < 0:
        scale_r, scale_i, den = -scale_r, -scale_i, -den
    if scale_r != 1 or scale_i:
        acc_r, acc_i = _cmac(None, None, [scale_r], scale_i and [scale_i], acc_r, acc_i)
    numerator = _poly(common * cofactor.den * den, shift + acc_r, acc_i and shift + acc_i)
    return numerator, divisors


def residue(f: RatFunc, factor: TFactor) -> Optional[UniPoly]:
    """Residue at a linear pole t - pi(c), a polynomial in c; zero when there
    is no pole there, and None when it is not a polynomial.

    ``_residue_fraction``'s numerator divided by each of its linear divisors
    (``UniPoly.divide_by_root``); None at the first nonzero remainder.
    """
    numerator, divisors = _residue_fraction(f, factor)
    for root, k in divisors:
        for _ in range(k):
            numerator = numerator.divide_by_root(root)
            if numerator is None:
                return None
    return numerator
