"""The integer kernel against GaussRat references.

``UniPoly`` stores Gaussian integers over one denominator; the reference
below keeps one GaussRat per coefficient and does the textbook operations
on them.  ``BiPoly`` stores an integer grid over one denominator; it and
the grid helpers are checked against a dict of GaussRat per (i, j) term.
A ``RatFunc`` numerator is a ``BiPoly``, so its products, sums and
cancellations are checked against ``BiPoly`` products of the same
numerators.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abelint import BiPoly, GaussRat, NormalForm, RatFunc, UniPoly, algebra, build_rectifier
from abelint.algebra import (
    C_FACTOR,
    ONE,
    ZERO,
    _binomial_grid,
    _bipoly,
    _complex_coeffs,
    _divide_factor,
    _grid_integral,
    _grid_mul,
    _grid_sum,
    _over,
    _poly,
    _ratfunc,
    _synthetic_division,
    residue,
    t_factor,
)

from reference import residue_pair, same_fraction

PROPERTY = settings(max_examples=60, deadline=None)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
reals = st.builds(GaussRat, rationals)
gaussians = st.one_of(reals, st.builds(GaussRat, rationals, rationals))
# A coefficient list is all real or may hold complex entries; either may
# carry trailing zeros, which the canonical form trims.
coeff_lists = st.one_of(st.lists(reals, max_size=6), st.lists(gaussians, max_size=6))
nonzero_lists = coeff_lists.filter(lambda cs: any(cs))


# ---------------------------------------------------------------------------
# Reference: polynomials as lists of GaussRat, low degree first
# ---------------------------------------------------------------------------

def ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[k] if k < len(a) else ZERO) + (b[k] if k < len(b) else ZERO)
                     for k in range(n)])


def ref_neg(a):
    return [-c for c in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_trim(out)


def ref_derivative(a):
    return ref_trim([c * GaussRat(k) for k, c in enumerate(a)][1:])


def ref_divmod(a, b):
    rem, d = list(a), len(b) - 1
    lead_inv = b[-1].inverse()
    quot = [ZERO] * max(len(rem) - d, 0)
    for k in range(len(rem) - d - 1, -1, -1):
        factor = rem[k + d] * lead_inv
        quot[k] = factor
        for j, c in enumerate(b):
            rem[k + j] = rem[k + j] - factor * c
    return ref_trim(quot), ref_trim(rem)


def ref_evaluate(a, point):
    acc = ZERO
    for c in reversed(a):
        acc = acc * point + c
    return acc


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c * a[-1].inverse() for c in a] if a else a


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------

def assert_canonical(p: UniPoly):
    assert p.den > 0
    assert all(type(v) is int for v in p.re + (p.im or []))
    if p.re:
        assert p.re[-1] or p.im[-1]
        assert gcd(p.den, *p.re, *(p.im or ())) == 1
    else:
        assert p.den == 1
    assert p.im is None or (len(p.im) == len(p.re) and any(p.im))


class TestUniPolyAgainstReference:
    @PROPERTY
    @given(coeff_lists)
    def test_coefficients_round_trip_in_canonical_form(self, a):
        p = UniPoly(a)
        assert_canonical(p)
        assert list(p.coeffs) == ref_trim(a)
        assert _complex_coeffs(p.den, p.re, p.im) == [c.to_complex() for c in p.coeffs]
        assert UniPoly(p.coeffs) == p

    @PROPERTY
    @given(coeff_lists, coeff_lists)
    def test_sum_difference_product(self, a, b):
        p, q = UniPoly(a), UniPoly(b)
        for got, want in ((p + q, ref_add(a, b)), (p - q, ref_add(a, ref_neg(b))),
                          (-p, ref_neg(ref_trim(a))), (p * q, ref_mul(a, b))):
            assert_canonical(got)
            assert list(got.coeffs) == want

    @PROPERTY
    @given(coeff_lists, gaussians)
    def test_scale_and_derivative(self, a, k):
        got = UniPoly(a).scale(k)
        assert_canonical(got)
        assert list(got.coeffs) == ref_trim([c * k for c in a])
        assert list(UniPoly(a).derivative().coeffs) == ref_derivative(ref_trim(a))

    @PROPERTY
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_ring_axioms(self, a, b, c):
        p, q, r = UniPoly(a), UniPoly(b), UniPoly(c)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p and p + q == q + p
        assert p * (q + r) == p * q + p * r
        assert p - p == UniPoly() and p * UniPoly.const(ONE) == p

    @PROPERTY
    @given(coeff_lists, gaussians)
    def test_evaluate_matches_the_gaussrat_horner(self, a, point):
        # Rational and Gaussian points; the zero and constant polynomials too.
        for cs in (a, [], [point], a[:1]):
            assert UniPoly(cs).evaluate(point) == ref_evaluate(ref_trim(cs), point)
        assert UniPoly(a).evaluate(2) == ref_evaluate(ref_trim(a), GaussRat(2))

    @PROPERTY
    @given(coeff_lists, st.complex_numbers(allow_nan=False, allow_infinity=False))
    @example([GaussRat(1, -3), GaussRat(Fraction(2, 7)), GaussRat(-5)], 1e-300 + 3j)
    @example([GaussRat(Fraction(1, 3)), GaussRat(-1), GaussRat(0, 2)], 2.0 ** 60 + 0.5j)
    @example([], 2.0 ** 60 + 0.5j)
    def test_evaluate_complex_is_the_exact_value_rounded_once(self, a, z):
        # The float z is the binary fraction Fraction(z.real) + i Fraction(z.imag);
        # the value there, computed in Fractions, rounds once per part, bit for
        # bit, or overflows the double range for both.
        x, y = Fraction(z.real), Fraction(z.imag)
        re, im = Fraction(0), Fraction(0)
        for c in reversed(ref_trim(a)):
            re, im = re * x - im * y + c.re, re * y + im * x + c.im
        try:
            want = complex(float(re), float(im))
        except OverflowError:
            with pytest.raises(OverflowError):
                UniPoly(a).evaluate_complex(z)
            return
        assert repr(UniPoly(a).evaluate_complex(z)) == repr(want)

    @PROPERTY
    @given(coeff_lists, nonzero_lists)
    def test_divmod(self, a, b):
        p, d = UniPoly(a), UniPoly(b)
        quot, rem = p.divmod(d)
        assert_canonical(quot)
        assert_canonical(rem)
        assert quot * d + rem == p
        assert rem.is_zero() or rem.degree < d.degree
        want_quot, want_rem = ref_divmod(ref_trim(a), ref_trim(b))
        assert list(quot.coeffs) == want_quot and list(rem.coeffs) == want_rem

    @PROPERTY
    @given(nonzero_lists, nonzero_lists, coeff_lists)
    def test_gcd_divides_both_and_matches_reference(self, a, b, common):
        # A shared factor makes nontrivial gcds common.
        p, q = UniPoly(a) * UniPoly(common), UniPoly(b) * UniPoly(common)
        if p.is_zero() or q.is_zero():
            return
        g = p.gcd(q)
        assert_canonical(g)
        assert g.coeffs[-1] == ONE
        assert p.divmod(g)[1].is_zero() and q.divmod(g)[1].is_zero()
        assert list(g.coeffs) == ref_gcd(list(p.coeffs), list(q.coeffs))

    @PROPERTY
    @given(nonzero_lists, gaussians, st.integers(min_value=0, max_value=3))
    def test_root_multiplicity(self, a, root, k):
        p = UniPoly(a) * UniPoly([-root, ONE]) ** k
        expected = k
        current = list(UniPoly(a).coeffs)
        while len(current) > 1:
            quot, rem = ref_divmod(current, [-root, ONE])
            if rem:
                break
            expected, current = expected + 1, quot
        assert p.root_multiplicity(root) == expected
        for poly in (p, UniPoly(a)):  # the Z[i] division test against evaluation
            assert (poly.divide_by_root(root) is not None) == (poly.evaluate(root) == ZERO)

    @PROPERTY
    @given(nonzero_lists, gaussians, st.integers(min_value=0, max_value=3))
    def test_divide_by_root_matches_divmod(self, a, root, k):
        # Rational and Gaussian roots of multiplicity 0-3 or more: one integer
        # Horner pass gives divmod's quotient, or None where divmod leaves a
        # remainder.
        p, divisions = UniPoly(a) * UniPoly([-root, ONE]) ** k, 0
        while p is not None:
            quotient, remainder = p.divmod(UniPoly([-root, ONE]))
            got = p.divide_by_root(root)
            if remainder.is_zero():
                assert_canonical(got)
                assert got == quotient
                divisions += 1
            else:
                assert got is None
            p = got
        assert divisions >= k

    @PROPERTY
    @given(coeff_lists, coeff_lists, gaussians)
    def test_equal_values_have_equal_parts_and_hash(self, a, b, k):
        # The same polynomial reached by different routes.
        p, q = UniPoly(a), UniPoly(b)
        routes = [p * q, q * p, (p * q).scale(k).scale(k.inverse()) if k else p * q,
                  UniPoly(list((p * q).coeffs) + [ZERO, ZERO]),
                  (p * q + q) - q]
        for other in routes[1:]:
            assert (other.den, other.re, other.im) == (routes[0].den, routes[0].re,
                                                       routes[0].im)
            assert hash(other) == hash(routes[0])


# ---------------------------------------------------------------------------
# Reference: bivariate polynomials as dicts of GaussRat by (i, j)
# ---------------------------------------------------------------------------

def ref_bi_trim(a):
    return {key: c for key, c in a.items() if c}


def ref_bi_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, ZERO) + c
    return ref_bi_trim(out)


def ref_bi_neg(a):
    return {key: -c for key, c in a.items()}


def ref_bi_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, ZERO) + c1 * c2
    return ref_bi_trim(out)


def ref_bi_partial(a, slot):
    out = {}
    for (i, j), c in a.items():
        e = (i, j)[slot]
        if e:
            out[(i - 1, j) if slot == 0 else (i, j - 1)] = c * GaussRat(e)
    return out


def ref_bi_compose(a, sub0, sub1):
    acc = {}
    for (i, j), c in a.items():
        term = {(0, 0): c}
        for sub, e in ((sub0, i), (sub1, j)):
            for _ in range(e):
                term = ref_bi_mul(term, sub)
        acc = ref_bi_add(acc, term)
    return acc


def assert_grid_canonical(p: BiPoly):
    """Trimmed rows, im rows as long as re rows, a nonzero top row and
    gcd(den, every int) = 1; im is None exactly when p is real."""
    re_ints = [v for row in p.re for v in row]
    im_ints = [v for row in p.im or [] for v in row]
    assert p.den > 0 and all(type(v) is int for v in re_ints + im_ints)
    if not p.re:
        assert p.den == 1 and p.im is None
        return
    assert p.re[-1] and gcd(p.den, *re_ints, *im_ints) == 1
    assert p.im is None or (len(p.im) == len(p.re) and any(im_ints))
    for k, row in enumerate(p.re):
        m = p.im[k] if p.im is not None else [0] * len(row)
        assert len(m) == len(row)
        assert not row or row[-1] or m[-1]


terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), gaussians, max_size=5)
bipolys = terms.map(BiPoly)
small_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), gaussians, max_size=3)


class TestBiPolyAgainstReference:
    @PROPERTY
    @given(terms, terms)
    def test_sum_difference_product_partials(self, a, b):
        p, q = BiPoly(a), BiPoly(b)
        a, b = ref_bi_trim(a), ref_bi_trim(b)
        assert p.terms == a and BiPoly(p.terms) == p
        for got, want in ((p + q, ref_bi_add(a, b)), (p - q, ref_bi_add(a, ref_bi_neg(b))),
                          (-p, ref_bi_neg(a)), (p * q, ref_bi_mul(a, b)),
                          (p.partial(0), ref_bi_partial(a, 0)),
                          (p.partial(1), ref_bi_partial(a, 1))):
            assert_grid_canonical(got)
            assert got.terms == want

    @PROPERTY
    @given(terms, small_terms, small_terms)
    def test_compose(self, a, sub0, sub1):
        got = BiPoly(a).compose(BiPoly(sub0), BiPoly(sub1))
        assert_grid_canonical(got)
        assert got.terms == ref_bi_compose(ref_bi_trim(a), ref_bi_trim(sub0),
                                           ref_bi_trim(sub1))


# ---------------------------------------------------------------------------
# RatFunc rows against BiPoly products
# ---------------------------------------------------------------------------

# t, t - 1, t - 1/2, t - (1 + i), t - c, t - (i c - 1/2) and c
FACTORS = [t_factor(ZERO, ZERO), t_factor(ZERO, ONE), t_factor(ZERO, GaussRat(Fraction(1, 2))),
           t_factor(ZERO, GaussRat(1, 1)), t_factor(ONE, ZERO),
           t_factor(GaussRat(0, 1), GaussRat(Fraction(-1, 2))), C_FACTOR]

factor_dicts = st.dictionaries(st.sampled_from(FACTORS), st.integers(1, 3), max_size=3)


def factor_poly(key) -> BiPoly:
    """A denominator factor as a polynomial in (t, c): t - (pi1 c + pi0), or c."""
    if key == C_FACTOR:
        return BiPoly.var(1)
    pi = key[1]
    return BiPoly({(1, 0): ONE, (0, 1): -pi[1], (0, 0): -pi[0]})


def denominator(fac) -> BiPoly:
    acc = BiPoly.const(ONE)
    for key, e in fac.items():
        acc = acc * factor_poly(key) ** e
    return acc


def add_factors(f1, f2):
    out = dict(f1)
    for key, e in f2.items():
        out[key] = out.get(key, 0) + e
    return out


def reference_product(f, g):
    """f * g with every merged factor tried against the whole product."""
    return _ratfunc(_grid_mul(f.num, g.num), add_factors(f.fac, g.fac))


class TestRatFuncRows:
    @PROPERTY
    @given(bipolys, factor_dicts)
    def test_rows_are_the_numerator_layout(self, n, fac):
        # The numerator is a canonical grid, and a RatFunc built from its
        # own numerator and factors keeps that grid.
        f = RatFunc(n, fac)
        assert_grid_canonical(f.num)
        assert RatFunc(f.num, f.fac).num == f.num
        # N / D = f.num / f.denominator as polynomials cross-multiplied
        assert n * f.denominator == f.num * denominator(fac)

    @PROPERTY
    @given(bipolys, factor_dicts, bipolys, factor_dicts)
    def test_product_and_sum_match_bipoly(self, n1, fac1, n2, fac2):
        f, g = RatFunc(n1, fac1), RatFunc(n2, fac2)
        product = f * g
        assert product == RatFunc(n1 * n2, add_factors(fac1, fac2))
        assert product.num * denominator(add_factors(fac1, fac2)) \
            == (n1 * n2) * product.denominator
        total = f + g
        cross = n1 * denominator(fac2) + n2 * denominator(fac1)
        assert total == RatFunc(cross, add_factors(fac1, fac2))
        assert f - g == RatFunc(n1 * denominator(fac2) - n2 * denominator(fac1),
                                add_factors(fac1, fac2))

    @PROPERTY
    @given(bipolys, factor_dicts, bipolys, factor_dicts, st.data())
    def test_product_matches_the_merged_reference(self, n1, fac1, n2, fac2, data):
        # Each numerator carries some of the other operand's factors, so the
        # product cancels; the two denominators often share factors too.
        lifts = st.integers(0, 3)
        n1 = n1 * denominator({key: data.draw(lifts) for key in fac2})
        n2 = n2 * denominator({key: data.draw(lifts) for key in fac1})
        f, g = RatFunc(n1, fac1), RatFunc(n2, fac2)
        for a, b in ((f, g), (g, f), (f, f)):
            got, want = a * b, reference_product(a, b)
            assert got.num == want.num
            assert list(got.fac.items()) == list(want.fac.items())

    def test_square_of_a_factor_product_tries_no_division(self, monkeypatch):
        # Every factor of x sits in both denominators of x * x.
        x = RatFunc.factor_product({t_factor(ZERO, ZERO): 2, t_factor(ZERO, ONE): -3,
                                    t_factor(ONE, ZERO): -2, C_FACTOR: -1}, -1)
        calls = []
        original = algebra._divide_factor

        def counting(num, factor):
            calls.append(factor)
            return original(num, factor)

        monkeypatch.setattr(algebra, "_divide_factor", counting)
        square = x * x
        assert calls == []
        monkeypatch.undo()
        want = reference_product(x, x)
        assert square.num == want.num
        assert list(square.fac.items()) == list(want.fac.items())

    @PROPERTY
    @given(bipolys, factor_dicts, st.sampled_from(FACTORS), st.integers(1, 3))
    def test_cancellation(self, n, fac, factor, k):
        # A numerator carrying factor^k over fac keeps its value, and no
        # factor left in the denominator divides the numerator.
        numerator = n * factor_poly(factor) ** k
        f = RatFunc(numerator, fac)
        assert f.num * denominator(fac) == numerator * f.denominator
        if numerator.is_zero():
            assert f.is_zero() and not f.fac
        for key in f.fac:
            assert not divides(key, f.num)


    def test_sum_tries_only_factors_with_equal_exponents(self, monkeypatch):
        # t is squared in f and simple in g, c is in f alone, and t - 1 is
        # simple in both: only t - 1 can cancel from f + g.
        t0, t1 = t_factor(ZERO, ZERO), t_factor(ZERO, ONE)
        f = RatFunc(BiPoly.const(ONE), {t0: 2, t1: 1, C_FACTOR: 1})
        g = RatFunc(BiPoly({(1, 0): ONE, (0, 1): GaussRat(2)}), {t0: 1, t1: 1})
        calls = count_divisions(monkeypatch)
        total = f + g
        assert calls == [t1]
        monkeypatch.undo()
        n1, n2, fac = f._common(g)
        want = _ratfunc(_grid_sum(n1, n2), fac)  # every factor tried
        assert total.num == want.num
        assert list(total.fac.items()) == list(want.fac.items())

    def test_t_derivative_tries_only_the_c_factor(self, monkeypatch):
        # Every "t" factor has d/dt = 1, so none cancels from d/dt; the
        # factor c has d/dt = 0 and cancels once.
        f = RatFunc(BiPoly({(1, 1): ONE, (0, 0): GaussRat(3)}),
                    {t_factor(ZERO, ZERO): 2, t_factor(ZERO, ONE): 1,
                     t_factor(ONE, ZERO): 1, C_FACTOR: 2})
        calls = count_divisions(monkeypatch)
        derivative = f.derivative()
        assert calls and set(calls) == {C_FACTOR}
        monkeypatch.undo()
        want = quotient_rule(f)
        assert derivative.num == want.num
        assert list(derivative.fac.items()) == list(want.fac.items())
        assert derivative.pole_order(C_FACTOR) == 2

    @PROPERTY
    @given(bipolys, factor_dicts, bipolys, factor_dicts, st.data())
    def test_sums_and_derivatives_match_the_full_trial(self, n1, fac1, n2, fac2, data):
        # Trying only the factors that can cancel gives the rows and factor
        # order of trying every factor.
        lifts = st.integers(0, 2)
        n1 = n1 * denominator({key: data.draw(lifts) for key in fac2})
        n2 = n2 * denominator({key: data.draw(lifts) for key in fac1})
        f, g = RatFunc(n1, fac1), RatFunc(n2, fac2)
        a, b, fac = f._common(g)
        pairs = [(f + g, _ratfunc(_grid_sum(a, b), dict(fac))),
                 (f - g, _ratfunc(_grid_sum(a, b, -1), dict(fac))),
                 (f + f, _ratfunc(_grid_sum(f.num, f.num), dict(f.fac)))]
        pairs.append((f.derivative(), quotient_rule(f)))
        for got, want in pairs:
            assert got.num == want.num
            assert list(got.fac.items()) == list(want.fac.items())


def count_divisions(monkeypatch) -> list:
    """The factor of every ``_divide_factor`` call from now on."""
    calls = []
    original = algebra._divide_factor

    def counting(num, factor):
        calls.append(factor)
        return original(num, factor)

    monkeypatch.setattr(algebra, "_divide_factor", counting)
    return calls


def quotient_rule(f: RatFunc) -> RatFunc:
    """d/dt (N/D) = (N' D - N D') / D^2, every factor tried against the result."""
    n, d = f.num, denominator(f.fac)
    return RatFunc(n.partial(0) * d - n * d.partial(0),
                   {key: 2 * e for key, e in f.fac.items()})


def divides(factor, n: BiPoly) -> bool:
    """Whether a denominator factor divides n, by substitution."""
    if factor == C_FACTOR:
        return all(j > 0 for _, j in n.terms)
    return n.compose(factor[1], UniPoly([0, 1])).is_zero()


# ---------------------------------------------------------------------------
# Grid helpers against the GaussRat references
# ---------------------------------------------------------------------------

T_FACTORS = [key for key in FACTORS if key != C_FACTOR]
nonzero_bipolys = bipolys.filter(bool)


class TestGridKernel:
    @PROPERTY
    @given(terms, terms, st.integers(0, 5), st.sampled_from((1, -1)))
    def test_truncated_product_and_signed_sum(self, a, b, size, sign):
        p, q = BiPoly(a), BiPoly(b)
        a, b = ref_bi_trim(a), ref_bi_trim(b)
        product, total = _grid_mul(p, q, size), _grid_sum(p, q, sign)
        assert_grid_canonical(product)
        assert_grid_canonical(total)
        assert product.terms == {key: c for key, c in ref_bi_mul(a, b).items() if key[0] < size}
        assert total.terms == ref_bi_add(a, b if sign == 1 else ref_bi_neg(b))

    @PROPERTY
    @given(nonzero_bipolys, st.sampled_from(T_FACTORS))
    def test_synthetic_division(self, p, factor):
        # p = (t - pi) quotient + remainder, the remainder free of t.
        (qd, qr, qi), (den, re, im) = _synthetic_division(p, factor[1])
        quot = _bipoly(qd, list(qr), qi and list(qi))
        rem = _poly(den, list(re), im and list(im))
        remainder = {(0, j): c for j, c in enumerate(rem.coeffs) if c}
        assert ref_bi_add(ref_bi_mul(quot.terms, factor_poly(factor).terms), remainder) \
            == p.terms

    @PROPERTY
    @given(bipolys, st.sampled_from(FACTORS), st.integers(0, 3))
    def test_factor_products_and_exact_division(self, n, factor, e):
        # _over multiplies by factor^e, e divisions take it back out, and a
        # further division succeeds exactly when the factor divides n.
        multiple = _over(n, {}, {factor: e})
        assert_grid_canonical(multiple)
        assert multiple.terms == ref_bi_mul(n.terms, (factor_poly(factor) ** e).terms)
        if n.is_zero():
            return
        for _ in range(e):
            multiple = _divide_factor(multiple, factor)
            assert_grid_canonical(multiple)
        assert multiple == n
        quotient = _divide_factor(n, factor)
        assert (quotient is not None) == divides(factor, n)
        if quotient is not None:
            assert_grid_canonical(quotient)
            assert ref_bi_mul(quotient.terms, factor_poly(factor).terms) == n.terms

    @PROPERTY
    @given(bipolys, st.sampled_from((0, 1)))
    def test_integral_inverts_the_partial(self, p, slot):
        integral = _grid_integral(p, slot)
        assert_grid_canonical(integral)
        assert integral.partial(slot) == p
        assert all(key[slot] for key in integral.terms)  # zero where v_slot = 0

    @PROPERTY
    @given(gaussians, gaussians, st.integers(0, 6), st.integers(1, 5))
    def test_binomial_grid(self, s0, s1, e, depth):
        # (u + s1 c + s0)^e below u^depth
        shift = UniPoly([s0, s1])
        got = _binomial_grid(shift, e, depth)
        assert_grid_canonical(got)
        want = {}
        for m in range(min(e, depth - 1) + 1):
            for j, c in enumerate((shift ** (e - m)).coeffs):
                if c:
                    want[m, j] = c * GaussRat(comb(e, m))
        assert got.terms == want

    @PROPERTY
    @given(gaussians, st.one_of(st.just(ZERO), st.just(ONE), gaussians),
           st.integers(1, 6), st.integers(1, 8))
    def test_negative_binomial_grid_inverts_the_power(self, s0, s1, e, depth):
        # delta^(e+d-1) (u + delta)^-e times (u + delta)^e is delta^(e+d-1)
        # below u^d, for delta = s1 c + s0 rational, Gaussian or c - beta.
        shift = UniPoly([s0, s1])
        assume(shift)
        inverse = _binomial_grid(shift, -e, depth)
        assert_grid_canonical(inverse)
        product = _grid_mul(inverse, _binomial_grid(shift, e, depth))
        below = {(m, j): c for (m, j), c in product.terms.items() if m < depth}
        power = (shift ** (e + depth - 1)).coeffs
        assert below == {(0, j): c for j, c in enumerate(power) if c}


# ---------------------------------------------------------------------------
# Column evaluators against exact evaluation
# ---------------------------------------------------------------------------

# Points where rounding is amplified by more than this are skipped: there a
# 1e-12 relative agreement would test the point, not the evaluator.
CONDITION_CAP = 1e3


def exact_at(poly: BiPoly, v0: GaussRat, v1: GaussRat) -> GaussRat:
    return poly.compose(UniPoly.const(v0), UniPoly.const(v1))[0]


def term_mass(poly: BiPoly, v0: GaussRat, v1: GaussRat) -> float:
    """sum |coefficient| |v0|^i |v1|^j, the scale of poly's rounding error."""
    a, b = abs(v0.to_complex()), abs(v1.to_complex())
    return sum(abs(c.to_complex()) * a ** i * b ** j for (i, j), c in poly.terms.items())


def ratfunc_condition(f: RatFunc, t0: GaussRat, c0: GaussRat, num: GaussRat) -> float:
    """Rounding amplification of f at (t0, c0): the grid's mass over its value
    ``num``, plus |e| (|t0| + |pi|) over |t0 - pi| for each factor (t - pi)^-e,
    a pole or a numerator factor."""
    condition = term_mass(f.grid, t0, c0) / abs(num.to_complex())
    for key, e in f.exps.items():
        if key[0] == "t":
            pi = key[1]
            pole = pi.evaluate(c0)
            scale = abs(t0.to_complex()) + abs(pi[1].to_complex()) * abs(c0.to_complex()) \
                + abs(pi[0].to_complex())
            condition += abs(e) * scale / abs((t0 - pole).to_complex())
    return condition


point_lists = st.lists(gaussians, min_size=1, max_size=6)


class TestColumnEvaluators:
    @PROPERTY
    @given(bipolys, factor_dicts, gaussians, point_lists)
    def test_ratfunc_column_matches_exact_values(self, n, fac, c0, ts):
        # FACTORS hold t = c, t = i c - 1/2 and the factor c.
        f = RatFunc(n, fac)
        kept = []
        for t0 in ts:
            num, den = exact_at(f.num, t0, c0), exact_at(f.denominator, t0, c0)
            if num and den and ratfunc_condition(f, t0, c0, num) <= CONDITION_CAP:
                kept.append((t0.to_complex(), (num / den).to_complex()))
        column = f.at_c(c0.to_complex())
        values = column([t for t, _ in kept])
        assert len(values) == len(kept)
        for value, (t, exact) in zip(values, kept):
            assert abs(value - exact) <= 1e-12 * abs(exact)
            assert f.evaluate(t, c0.to_complex()) == value

    @PROPERTY
    @given(bipolys, st.lists(st.tuples(gaussians, gaussians), min_size=1, max_size=6))
    def test_bipoly_column_matches_exact_values(self, poly, points):
        kept = []
        for x0, y0 in points:
            exact = exact_at(poly, x0, y0)
            if exact and term_mass(poly, x0, y0) <= CONDITION_CAP * abs(exact.to_complex()):
                kept.append((x0.to_complex(), y0.to_complex(), exact.to_complex()))
        values = poly.compiled()([x for x, _, _ in kept], [y for _, y, _ in kept])
        assert len(values) == len(kept)
        for value, (x, y, exact) in zip(values, kept):
            assert abs(value - exact) <= 1e-12 * abs(exact)
            assert poly.evaluate(x, y) == value


# ---------------------------------------------------------------------------
# Factored numerators against their expanded twins
# ---------------------------------------------------------------------------

signed_dicts = st.dictionaries(st.sampled_from(FACTORS), st.integers(-3, 3).filter(bool),
                               max_size=4)


def factored_and_expanded(n: BiPoly, exps) -> tuple:
    """n prod F^-e kept factored (e < 0 a numerator factor), and its twin
    whose numerator factors are multiplied into the grid."""
    numerator = n * denominator({key: -e for key, e in exps.items() if e < 0})
    return _ratfunc(n, dict(exps)), RatFunc(numerator, {k: e for k, e in exps.items() if e > 0})


def assert_poles_cancelled(f: RatFunc):
    """No pole divides the grid; numerator factors need no such check."""
    assert_grid_canonical(f.grid)
    assert all(e for e in f.exps.values())
    for key, e in f.exps.items():
        if e > 0:
            assert not divides(key, f.grid)


class TestFactoredNumerators:
    @PROPERTY
    @given(bipolys, signed_dicts, bipolys, signed_dicts)
    def test_factored_and_expanded_twins_agree(self, n1, e1, n2, e2):
        f, f_twin = factored_and_expanded(n1, e1)
        g, g_twin = factored_and_expanded(n2, e2)
        assert f == f_twin and hash(f) == hash(f_twin)
        assert f.num == f_twin.grid and list(f.fac.items()) == list(f_twin.exps.items())
        for key in FACTORS:
            assert f.pole_order(key) == f_twin.pole_order(key)
        pairs = [(f * g, f_twin * g_twin), (f + g, f_twin + g_twin),
                 (f - g, f_twin - g_twin), (f * f, f_twin * f_twin)]
        pairs.append((f.derivative(), f_twin.derivative()))
        for got, want in pairs:
            assert_poles_cancelled(got)
            assert got == want and hash(got) == hash(want)
        for key in T_FACTORS:
            assert same_fraction(residue_pair(f, key), residue_pair(f_twin, key))
            assert residue(f, key) == residue(f_twin, key)

    @PROPERTY
    @given(bipolys, signed_dicts, gaussians, point_lists)
    def test_factored_column_matches_exact_values(self, n, exps, c0, ts):
        f, twin = factored_and_expanded(n, exps)
        kept = []
        for t0 in ts:
            grid, num, den = (exact_at(p, t0, c0) for p in (f.grid, twin.num, twin.denominator))
            if num and den and ratfunc_condition(f, t0, c0, grid) <= CONDITION_CAP:
                kept.append((t0.to_complex(), (num / den).to_complex()))
        values = f.at_c(c0.to_complex())([t for t, _ in kept])
        for value, (t, exact) in zip(values, kept):
            assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_f1_pushforwards_divide_nothing(self, monkeypatch):
        # f1_type04: x = t (1 - t)^2 / (c - t)^2 is a pure product, and
        # y = (S - P(x)) x^-1 keeps t - c as a numerator factor whose grid the
        # sum left prime to t - c.  So x^i y^j dx/dt meets each pole of one
        # operand with a numerator factor of the other, and no trial succeeds.
        rm = build_rectifier(NormalForm("F1", p1=0, p=1, q1=1, q=2, k=1, P=UniPoly([-1]),
                                        a=(1,), beta=(ONE,)))
        quotients = []
        original = algebra._divide_factor

        def counting(num, factor):
            quotients.append(original(num, factor))
            return quotients[-1]

        monkeypatch.setattr(algebra, "_divide_factor", counting)
        for i in range(6):
            for j in range(1, 6):
                rm.monomial_pushforward(i, j)
        assert quotients and not any(q is not None for q in quotients)
