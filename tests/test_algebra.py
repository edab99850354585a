"""Exact arithmetic, polynomials, rational functions and residues."""

import random
from fractions import Fraction
from itertools import zip_longest
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelint import (
    BiPoly,
    CFrac,
    GaussRat,
    NormalForm,
    OneForm,
    PoleOrderMismatch,
    RatFunc,
    UniPoly,
    full_report,
    residue,
    residue_at_infinity,
)
from abelint import algebra
from abelint.algebra import (
    C_FACTOR,
    I,
    _bipoly,
    _factor_pi,
    _poly,
    _synthetic_division,
    power_table,
    t_factor,
)

from conftest import random_gauss, random_normal_form, cached_rectifier

gauss_strategy = st.builds(
    GaussRat,
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
)


# ---------------------------------------------------------------------------
# GaussRat
# ---------------------------------------------------------------------------

class TestGaussRat:
    def test_parse_exact_strings(self):
        assert GaussRat.parse("3/4") == GaussRat(Fraction(3, 4))
        assert GaussRat.parse("-2") == GaussRat(-2)
        assert GaussRat.parse({"re": "1/2", "im": "-1"}) == \
            GaussRat(Fraction(1, 2), -1)
        assert GaussRat.parse(5) == GaussRat(5)

    def test_json_round_trip_rational(self):
        value = GaussRat(Fraction(-7, 3))
        assert GaussRat.parse(value.to_json()) == value
        assert isinstance(value.to_json(), str)

    def test_json_round_trip_complex(self):
        value = GaussRat(Fraction(1, 2), Fraction(-3, 5))
        encoded = value.to_json()
        assert set(encoded) == {"re", "im"}
        assert GaussRat.parse(encoded) == value

    @given(gauss_strategy, gauss_strategy)
    def test_addition_subtraction_inverse(self, a, b):
        assert (a + b) - b == a

    @given(gauss_strategy, gauss_strategy, gauss_strategy)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(gauss_strategy)
    def test_multiplicative_inverse(self, a):
        if a:
            assert a * a.inverse() == GaussRat(1)

    def test_inverse_of_zero_fails(self):
        with pytest.raises(ZeroDivisionError):
            GaussRat(0).inverse()

    def test_complex_arithmetic(self):
        i = GaussRat(0, 1)
        assert i * i == GaussRat(-1)
        assert (GaussRat(1, 1) * GaussRat(1, -1)) == GaussRat(2)

    @given(gauss_strategy, st.integers(min_value=0, max_value=6))
    def test_power_matches_repeated_product(self, a, n):
        expected = GaussRat(1)
        for _ in range(n):
            expected = expected * a
        assert a ** n == expected

    def test_negative_power_is_power_of_inverse(self):
        assert GaussRat(2, 1) ** -2 == (GaussRat(2, 1) ** 2).inverse()

    def test_real_values_hash_like_their_rationals(self):
        assert GaussRat(2) == 2 and GaussRat(2) in {2: 0}
        assert {GaussRat(Fraction(1, 3)): 1}[Fraction(1, 3)] == 1
        assert hash(GaussRat(-5)) == hash(-5)
        assert {2: "two"}.get(GaussRat(2)) == "two"
        assert hash(GaussRat(1, 2)) == hash(GaussRat.parse({"re": "1", "im": "2"}))

    def test_hash_is_computed_once(self, monkeypatch):
        calls = []
        original = Fraction.__hash__

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        real, cplx = GaussRat(Fraction(7, 3)), GaussRat(Fraction(7, 3), 2)
        key = ("t", real, cplx)
        first = [hash(real), hash(cplx), hash(key)]
        count = len(calls)
        assert count > 0
        assert [hash(real), hash(cplx), hash(key)] == first
        assert {key: 1}[key] == 1
        assert len(calls) == count

    def test_results_hold_backend_rationals(self):
        real, other_real = GaussRat(Fraction(3, 4)), GaussRat(-5)
        cplx, other_cplx = GaussRat(1, Fraction(-2, 3)), GaussRat(Fraction(1, 2), 7)
        results = [
            real + other_real, cplx + other_cplx, cplx + 2, 2 + cplx,
            real - other_real, cplx - other_cplx, cplx - Fraction(1, 3),
            Fraction(1, 3) - cplx,
            real * other_real, real * cplx, cplx * real, cplx * other_cplx,
            real * 3, Fraction(2, 5) * real, Fraction(2, 5) * cplx,
            real.inverse(), cplx.inverse(), -real, -cplx,
            cplx / other_cplx, real / 7, 1 / cplx, cplx ** 3, cplx ** -2,
        ]
        for value in results:
            assert type(value.re) is Fraction and type(value.im) is Fraction
            parsed = GaussRat.parse({"re": str(value.re), "im": str(value.im)})
            assert value == parsed and hash(value) == hash(parsed)


@pytest.mark.parametrize("value", [
    UniPoly([1, 1]), BiPoly.var(0), RatFunc.t(),
], ids=["UniPoly", "BiPoly", "RatFunc"])
def test_negative_polynomial_power_is_rejected(value):
    with pytest.raises(ValueError, match="negative powers"):
        value ** -1


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------

class TestUniPoly:
    def test_zero_polynomial_degree_sentinel(self):
        assert UniPoly().degree == float("-inf")
        assert UniPoly([0, 0]).is_zero()

    def test_degree_is_length_minus_one(self):
        assert UniPoly([1, 0, 3]).degree == 2
        assert UniPoly([5]).degree == 0

    def test_trailing_zeros_normalized(self):
        assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])

    def test_divmod_reconstruction(self):
        rng = random.Random(7)
        for _ in range(50):
            num = UniPoly([random_gauss(rng) for _ in range(rng.randint(1, 6))])
            den = UniPoly([random_gauss(rng) for _ in range(rng.randint(1, 4))])
            if den.is_zero():
                continue
            quot, rem = num.divmod(den)
            assert quot * den + rem == num
            assert rem.is_zero() or rem.degree < den.degree

    def test_root_multiplicity(self):
        # (c - 2)^3 (c + 1)
        poly = UniPoly([-2, GaussRat(1)]) ** 3 * UniPoly([1, GaussRat(1)])
        assert poly.root_multiplicity(GaussRat(2)) == 3
        assert poly.root_multiplicity(GaussRat(-1)) == 1
        assert poly.root_multiplicity(GaussRat(5)) == 0

    def test_derivative_product_rule(self):
        rng = random.Random(11)
        for _ in range(30):
            f = UniPoly([random_gauss(rng) for _ in range(rng.randint(1, 5))])
            g = UniPoly([random_gauss(rng) for _ in range(rng.randint(1, 5))])
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_evaluate(self):
        poly = UniPoly([1, -3, 2])  # 2c^2 - 3c + 1
        assert poly.evaluate(GaussRat(2)) == GaussRat(3)
        assert abs(poly.evaluate_complex(1j) - (2j * 1j - 3j + 1)) < 1e-12


# ---------------------------------------------------------------------------
# BiPoly
# ---------------------------------------------------------------------------

def _random_point(rng):
    return random_gauss(rng) + random_gauss(rng) * I


class TestBiPoly:
    def test_zero_coefficients_absent(self):
        poly = BiPoly({(1, 1): GaussRat(1)}) - BiPoly({(1, 1): GaussRat(1)})
        assert poly.is_zero()
        assert not poly.terms

    def test_product_expansion(self):
        x, y = BiPoly.var(0), BiPoly.var(1)
        # (xy - 1)^2 = x^2 y^2 - 2xy + 1
        expansion = (x * y - BiPoly.const(GaussRat(1))) ** 2
        assert expansion == BiPoly({(2, 2): GaussRat(1), (1, 1): GaussRat(-2),
                                    (0, 0): GaussRat(1)})

    def test_partial_derivatives(self):
        x, y = BiPoly.var(0), BiPoly.var(1)
        # d/dy of y(1 - x) is 1 - x
        poly = y * (BiPoly.const(GaussRat(1)) - x)
        assert poly.partial(1) == BiPoly.const(GaussRat(1)) - x

    def test_compose_is_ring_homomorphism(self):
        rng = random.Random(13)
        from conftest import random_bipoly
        for _ in range(20):
            f = random_bipoly(rng, 3)
            g = random_bipoly(rng, 3)
            s0 = random_bipoly(rng, 2)
            s1 = random_bipoly(rng, 2)
            assert (f + g).compose(s0, s1) == f.compose(s0, s1) + g.compose(s0, s1)
            assert (f * g).compose(s0, s1) == f.compose(s0, s1) * g.compose(s0, s1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match=r"\(-1, 1\)"):
            BiPoly({(-1, 1): GaussRat(1)})

    def test_non_integer_exponent_rejected(self):
        # read as 1, the exponent 1.5 would merge its term with the x term
        with pytest.raises(ValueError, match=r"non-integer exponent in term \(1\.5, 0\)"):
            BiPoly({(1.5, 0): GaussRat(1), (1, 0): GaussRat(2)})

    def test_compiled_matches_exact_value(self):
        rng = random.Random(47)
        from conftest import random_bipoly
        checked = 0
        while checked < 30:
            poly = random_bipoly(rng, 4)
            x0, y0 = _random_point(rng), _random_point(rng)
            exact = poly.compose(UniPoly.const(x0), UniPoly.const(y0))[0].to_complex()
            if not exact:
                continue
            checked += 1
            value = poly.compiled()([x0.to_complex()], [y0.to_complex()])[0]
            assert abs(value - exact) <= 1e-12 * abs(exact)
            assert poly.evaluate(x0.to_complex(), y0.to_complex()) == value

    def test_compiled_nests_the_cheaper_variable_outermost(self):
        # broughton's A, x-rows 2y - 2y^2 + y^5, 6y^2, -6y^2, 2y^2: nested
        # with x outermost it takes 3 + 5 + 2 + 2 + 2 = 14 column steps,
        # with y outermost 5 + 3 = 8.  Its transpose takes the same 8 with
        # x outermost.  A step is one pass over the v0 or the v1 column.
        class Column(list):
            passes = 0

            def __iter__(self):
                self.passes += 1
                return super().__iter__()

        a = BiPoly({(0, 1): GaussRat(2), (0, 2): GaussRat(-2), (1, 2): GaussRat(6),
                    (2, 2): GaussRat(-6), (0, 5): GaussRat(1), (3, 2): GaussRat(2)})
        transposed = BiPoly({(j, i): c for (i, j), c in a.terms.items()})
        x0 = GaussRat(Fraction(7, 10), Fraction(1, 3))
        y0 = GaussRat(Fraction(-6, 5), Fraction(2, 7))
        for poly, (v0, v1) in ((a, (x0, y0)), (transposed, (y0, x0))):
            v0s, v1s = Column([v0.to_complex()]), Column([v1.to_complex()])
            value = poly.compiled()(v0s, v1s)[0]
            assert v0s.passes + v1s.passes == 8
            exact = poly.compose(UniPoly.const(v0), UniPoly.const(v1))[0].to_complex()
            assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_terms_round_trip(self):
        rng = random.Random(17)
        from conftest import random_bipoly
        for _ in range(20):
            poly = random_bipoly(rng, 4)
            assert BiPoly(poly.terms) == poly


# ---------------------------------------------------------------------------
# RatFunc and composition
# ---------------------------------------------------------------------------

def _sample_ratfuncs(rng):
    from conftest import random_bipoly
    fac = {}
    if rng.random() < 0.7:
        fac[t_factor(GaussRat(0), GaussRat(1))] = rng.randint(1, 2)
    if rng.random() < 0.5:
        fac[t_factor(GaussRat(0), GaussRat(0))] = rng.randint(1, 2)
    if rng.random() < 0.3:
        fac[C_FACTOR] = 1
    return RatFunc(random_bipoly(rng, 3), fac)


class TestRatFunc:
    def test_field_operations_numeric_consistency(self):
        rng = random.Random(19)
        for _ in range(25):
            f, g = _sample_ratfuncs(rng), _sample_ratfuncs(rng)
            t0, c0 = 0.37 + 0.21j, 1.9 - 0.4j
            fv, gv = f.evaluate(t0, c0), g.evaluate(t0, c0)
            assert abs((f + g).evaluate(t0, c0) - (fv + gv)) < 1e-8
            assert abs((f * g).evaluate(t0, c0) - fv * gv) < 1e-8
            assert abs((f - g).evaluate(t0, c0) - (fv - gv)) < 1e-8

    def test_at_c_compiles_at_a_pole_in_c(self):
        # 1 / (t c) at c = 0 has a pole at every t: the evaluator compiles,
        # takes an empty column, and raises on any point.
        f = RatFunc(BiPoly.const(GaussRat(1)),
                    {C_FACTOR: 1, t_factor(GaussRat(0), GaussRat(0)): 1})
        column = f.at_c(0j)
        assert column([]) == []
        with pytest.raises(ZeroDivisionError):
            column([1 + 0j])

    def test_at_c_matches_exact_value(self):
        # Constant, complex and moving poles plus the factor c, at rational
        # (t0, c0) off the poles, against exact evaluation in Q(i).
        rng = random.Random(53)
        from conftest import random_bipoly
        poles = [t_factor(GaussRat(0), GaussRat(1)),
                 t_factor(GaussRat(0), GaussRat(-1, 2)),
                 t_factor(GaussRat(1), GaussRat(0)),
                 t_factor(GaussRat(2, 1), GaussRat(Fraction(-1, 2)))]
        checked = 0
        while checked < 40:
            fac = {pole: rng.randint(1, 3) for pole in poles if rng.random() < 0.7}
            if rng.random() < 0.5:
                fac[C_FACTOR] = rng.randint(1, 2)
            f = RatFunc(random_bipoly(rng, 3), fac)
            t0, c0 = _random_point(rng), _random_point(rng)
            try:  # t0 on a constant pole
                value = eval_at_t(f, UniPoly.const(t0))
            except ZeroDivisionError:
                continue
            den = value.den.evaluate(c0)
            if not den or not value.num.evaluate(c0):
                continue
            checked += 1
            exact = (value.num.evaluate(c0) / den).to_complex()
            compiled = f.at_c(c0.to_complex())([t0.to_complex()])[0]
            assert abs(compiled - exact) <= 1e-12 * abs(exact)
            assert f.evaluate(t0.to_complex(), c0.to_complex()) == compiled

    def test_cancellation(self):
        # t * something / t reduces: no pole at t = 0 remains
        t_pole = t_factor(GaussRat(0), GaussRat(0))
        num = BiPoly({(1, 0): GaussRat(1), (2, 1): GaussRat(3)})
        f = RatFunc(num, {t_pole: 1})
        assert f.pole_order(t_pole) == 0

    def test_derivative_quotient_rule_numeric(self):
        rng = random.Random(23)
        eps = 1e-6
        for _ in range(15):
            f = _sample_ratfuncs(rng)
            for slot in (0, 1):
                t0, c0 = 0.31 + 0.77j, 2.3 + 0.5j
                df = f.derivative(slot)
                if slot == 0:
                    numeric = (f.evaluate(t0 + eps, c0) - f.evaluate(t0 - eps, c0)) / (2 * eps)
                else:
                    numeric = (f.evaluate(t0, c0 + eps) - f.evaluate(t0, c0 - eps)) / (2 * eps)
                assert abs(df.evaluate(t0, c0) - numeric) < 1e-4 * (1 + abs(numeric))

    def test_compose_into_ratfuncs_is_ring_homomorphism(self):
        rng = random.Random(29)
        from conftest import random_bipoly
        for _ in range(10):
            f = random_bipoly(rng, 2)
            g = random_bipoly(rng, 2)
            sub0 = _sample_ratfuncs(rng)
            sub1 = _sample_ratfuncs(rng)
            left = (f * g).compose(sub0, sub1)
            right = f.compose(sub0, sub1) * g.compose(sub0, sub1)
            assert left == right
            assert (f + g).compose(sub0, sub1) == \
                f.compose(sub0, sub1) + g.compose(sub0, sub1)


# ---------------------------------------------------------------------------
# Laurent expansion and residues
# ---------------------------------------------------------------------------

def eval_at_t(f: RatFunc, point: UniPoly) -> CFrac:
    """Exact evaluation of f at t = point(c); point must avoid all poles."""
    num, den = f.num.compose(point, UniPoly([0, 1])), UniPoly.const(1)
    for key, e in f.fac.items():
        if key[0] == "t":
            base = point - _factor_pi(key)
        else:
            base = UniPoly([0, 1])
        if base.is_zero():
            raise ZeroDivisionError("evaluation point is a pole")
        den = den * (base ** e)
    return CFrac(num, den)


def laurent_numerators_reference(f: RatFunc, factor, depth: int):
    """(S_0 .. S_{depth-1}, k -> d0^k): the Laurent numerators at t - pi(c),
    by the fraction-free recurrence; the reference route for ``residue``.

    The declared depth must equal the exact pole order, otherwise
    PoleOrderMismatch is raised.  With u = t - pi(c), f = N(u) / (u^depth
    D1(u)) for N, D1 in Q(i)[c][u], and the coefficient of u^(k - depth) is
    s_k = [u^k] N/D1.  With d0 = D1(0), the numerators S_k = s_k d0^(k+1)
    obey S_k = N_k d0^k - sum_{m<k} S_m D1_{k-m} d0^(k-m-1) in Q(i)[c], so
    s_k is CFrac(S_k, d0^(k+1)) and the residue is s_{depth-1}.
    """
    order = f.pole_order(factor)
    if order != depth:
        raise PoleOrderMismatch(
            f"declared pole order {depth} at t - ({_factor_pi(factor)!r}), actual {order}")
    pi = _factor_pi(factor)
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
            delta = pi - _factor_pi(key)
            for _ in range(e):
                d1 = [a + b for a, b in zip_longest([delta * row for row in d1], [UniPoly()] + d1,
                                                    fillvalue=UniPoly())][:depth]
    if d1[0].is_zero():
        raise PoleOrderMismatch("pole locations collide; pole order is not generic")
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


def reference_residue(f: RatFunc, factor) -> CFrac:
    """The residue by the reference recurrence."""
    order = f.pole_order(factor)
    if order == 0:
        return CFrac(UniPoly())
    series, d0_pows = laurent_numerators_reference(f, factor, order)
    return CFrac(series[-1], d0_pows(order))


def laurent_coefficients(f: RatFunc, factor, depth: int) -> list:
    """Coefficients of (t-pi)^{-depth} ... (t-pi)^{-1}; last entry is the residue.

    Coefficient k is the residue of f (t-pi)^(depth-1-k), a pole of order k+1.
    """
    if f.pole_order(factor) != depth:
        raise PoleOrderMismatch(f"declared pole order {depth}, actual {f.pole_order(factor)}")
    return [residue(f * RatFunc.factor_product({factor: depth - 1 - k}, 1), factor)
            for k in range(depth)]


def residue_via_derivative(f: RatFunc, factor, depth: int) -> CFrac:
    """Residue by the derivative formula: (1/(depth-1)!) d^{depth-1}/dt^{depth-1}
    of f*(t-pi)^depth evaluated at t = pi.  Independent route used to
    cross-check laurent_coefficients."""
    if f.pole_order(factor) != depth:
        raise PoleOrderMismatch(
            f"declared pole order {depth}, actual {f.pole_order(factor)}"
        )
    if depth == 0:
        return CFrac(UniPoly())
    cleared = f * RatFunc.factor_product({factor: depth}, 1)
    for _ in range(depth - 1):
        cleared = cleared.derivative(0)
    value = eval_at_t(cleared, _factor_pi(factor))
    return value * GaussRat(Fraction(1, factorial(depth - 1)))


REFERENCE_POLES = [
    # rational
    t_factor(GaussRat(0), GaussRat(0)), t_factor(GaussRat(0), GaussRat(1)),
    t_factor(GaussRat(0), GaussRat(-2)), t_factor(GaussRat(0), GaussRat(Fraction(1, 2))),
    # Gaussian
    t_factor(GaussRat(0), GaussRat(0, 1)), t_factor(GaussRat(0), GaussRat(1, 1)),
    t_factor(GaussRat(0), GaussRat(Fraction(-1, 2), Fraction(1, 3))),
]
MOVING_POLES = [t_factor(GaussRat(1), GaussRat(0)),
                t_factor(GaussRat(Fraction(1, 2)), GaussRat(0, 1))]


def _reference_case(rng, depth: int):
    """A random RatFunc with a pole of order at most ``depth`` at a random
    rational, Gaussian or moving pole, up to three other poles (two at a
    moving pole, which bounds the degree in c of the reduction), sometimes the
    factor c, and a numerator of 1 to depth + 2 t-rows with rational or
    Gaussian coefficients."""
    moving = rng.choice(MOVING_POLES)  # at most one moving pole, as in the families
    pole = moving if rng.random() < 0.3 else rng.choice(REFERENCE_POLES)
    others = [p for p in REFERENCE_POLES + [moving] if p != pole]
    fac = {pole: depth}
    for other in rng.sample(others, rng.randint(0, 2 if pole is moving else 3)):
        fac[other] = rng.randint(1, 3)
    if rng.random() < 0.3:
        fac[C_FACTOR] = 1

    def coefficient():
        im = Fraction(rng.randint(-3, 3), rng.choice((1, 2))) if rng.random() < 0.3 else 0
        return GaussRat(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))), im)

    rows = rng.randint(1, depth + 2)
    terms = {(rng.randrange(rows), rng.randint(0, 3)): coefficient()
             for _ in range(rng.randint(1, 8))}
    terms[rows - 1, rng.randint(0, 2)] = coefficient() or GaussRat(1)
    return RatFunc(BiPoly(terms), fac), pole


class TestResidues:
    def test_simple_pole_residue(self):
        # 1/(t - 1): residue 1 at t = 1
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(0), GaussRat(1)): 1})
        assert residue(f, t_factor(GaussRat(0), GaussRat(1))) == CFrac.const(GaussRat(1))

    def test_known_oscillator_residue(self):
        # -c/(t - 1) has residue -c at t = 1
        f = RatFunc(BiPoly({(0, 1): GaussRat(-1)}),
                    {t_factor(GaussRat(0), GaussRat(1)): 1})
        assert residue(f, t_factor(GaussRat(0), GaussRat(1))) \
            == CFrac(UniPoly([0, GaussRat(-1)]))

    def test_pole_order_mismatch(self):
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(0), GaussRat(1)): 2})
        with pytest.raises(PoleOrderMismatch):
            laurent_coefficients(f, t_factor(GaussRat(0), GaussRat(1)), 1)

    def test_laurent_agrees_with_derivative_formula(self):
        rng = random.Random(31)
        count = 0
        while count < 40:
            f = _sample_ratfuncs(rng)
            pole = t_factor(GaussRat(0), GaussRat(1))
            depth = f.pole_order(pole)
            if depth == 0:
                continue
            count += 1
            via_laurent = residue(f, pole)
            via_derivative = residue_via_derivative(f, pole, depth)
            assert via_laurent == via_derivative

    def test_every_laurent_coefficient_at_deep_and_moving_poles(self):
        # Poles at t = c, t = 1+i and t = 0 and the factor c, so the
        # remaining denominator at each pole has a nonconstant value D1(0).
        # Coefficient k of (t-pi)^{-(depth-k)} is the residue of
        # f (t-pi)^(depth-1-k), a pole of order k+1.
        from conftest import random_bipoly
        rng = random.Random(43)
        poles = [t_factor(GaussRat(1), GaussRat(0)),
                 t_factor(GaussRat(0), GaussRat(1, 1)),
                 t_factor(GaussRat(0), GaussRat(0))]
        depths = []

        def check_every_coefficient(f):
            for pole in poles:
                depth = f.pole_order(pole)
                depths.append(depth)
                coeffs = laurent_coefficients(f, pole, depth)
                assert len(coeffs) == depth
                for k, coeff in enumerate(coeffs):
                    lowered = f * RatFunc.factor_product({pole: depth - 1 - k}, 1)
                    assert coeff == residue_via_derivative(lowered, pole, k + 1)

        for _ in range(8):
            fac = {pole: rng.randint(1, 5) for pole in poles}
            fac[C_FACTOR] = rng.randint(1, 2)
            check_every_coefficient(RatFunc(random_bipoly(rng, 3), fac))
        assert max(depths) == 5
        # At t = c (depth 2) the exponents 6 of t - (1+i) and 4 of c lie
        # above the depth, so D1(u) keeps only part of their binomial rows.
        depths.clear()
        check_every_coefficient(RatFunc(
            BiPoly({(0, 0): GaussRat(2), (1, 1): GaussRat(-1, 3), (3, 0): GaussRat(1)}),
            {poles[0]: 2, poles[1]: 6, poles[2]: 3, C_FACTOR: 4}))
        assert depths == [2, 6, 3]

    def test_one_normalisation_per_coefficient(self, monkeypatch):
        pole = t_factor(GaussRat(1), GaussRat(0))
        f = RatFunc(BiPoly({(0, 0): GaussRat(1), (2, 1): GaussRat(3, -1)}),
                    {pole: 4, t_factor(GaussRat(0), GaussRat(2)): 3, C_FACTOR: 2})
        constructed = []
        original = CFrac.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CFrac, "__init__", counting_init)
        residue(f, pole)
        assert len(constructed) == 1

    def test_residue_matches_the_reference_recurrence(self):
        # Rational, Gaussian and moving poles, with and without the factor c,
        # at every depth 1-12, and numerators with fewer t-rows than the depth.
        rng = random.Random(53)
        depths, short, moving, gaussian, with_c = set(), 0, 0, 0, 0
        for case in range(240):
            f, pole = _reference_case(rng, 1 + case % 12)
            depth = f.pole_order(pole)
            depths.add(depth)
            short += len(f.num.re) < depth
            moving += bool(pole[1])
            gaussian += bool(pole[2].im)
            with_c += C_FACTOR in f.fac
            assert residue(f, pole) == reference_residue(f, pole)
        assert depths >= set(range(1, 13))
        assert min(short, moving, gaussian, with_c) >= 40

    def test_colliding_poles_raise_pole_order_mismatch(self, monkeypatch):
        # Two factor keys at one location: the cofactor's constant term,
        # a power of their distance, is zero.
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(0), GaussRat(1)): 2,
                                                t_factor(GaussRat(0), GaussRat(2)): 1})
        monkeypatch.setattr(algebra, "_factor_pi", lambda factor: UniPoly([GaussRat(1)]))
        with pytest.raises(PoleOrderMismatch, match="collide"):
            residue(f, t_factor(GaussRat(0), GaussRat(1)))

    def test_moving_pole_residue(self):
        # 1/(t - c): residue 1 at the moving pole
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(1), GaussRat(0)): 1})
        assert residue(f, t_factor(GaussRat(1), GaussRat(0))) == CFrac.const(GaussRat(1))

    def test_residue_sum_with_infinity_is_zero(self):
        rng = random.Random(37)
        poles = [t_factor(GaussRat(0), GaussRat(0)),
                 t_factor(GaussRat(0), GaussRat(1)),
                 t_factor(GaussRat(0), GaussRat(-2)),
                 t_factor(GaussRat(1), GaussRat(0))]
        from conftest import random_bipoly
        for _ in range(30):
            fac = {}
            for pole in poles:
                if rng.random() < 0.6:
                    fac[pole] = rng.randint(1, 2)
            if not fac:
                continue
            f = RatFunc(random_bipoly(rng, 3), fac)
            total = residue_at_infinity(f)
            for pole in fac:
                total = total + residue(f, pole)
            assert total.is_zero()

    def test_residue_sum_on_pipeline_forms(self):
        rng = random.Random(41)
        for _ in range(10):
            nf = random_normal_form(rng)
            rm = cached_rectifier(nf)
            i, j = rng.randint(0, 2), rng.randint(1, 2)
            eta_t = rm.monomial_pushforward(i, j)
            total = residue_at_infinity(eta_t)
            for factor in eta_t.fac:
                if factor != C_FACTOR:
                    total = total + residue(eta_t, factor)
            assert total.is_zero()


@pytest.mark.parametrize("n", [11, 15])
def test_ladder_integrals_equal_the_reference_residues(n):
    # Every x^i y^j dx with i + j <= n, j >= 1 and sign (-1)^(i+j) on the
    # degree-10 ladder F2: each cycle integral of full_report is, exactly,
    # the weighted sum of every monomial's residue by the reference route.
    nf = NormalForm("F2", p1=0, p=1, q1=1, q=2, k=2, P=UniPoly([-1, 3]), a=(1,), beta=(1,))
    terms = {(i, j): GaussRat((-1) ** (i + j)) for i in range(n + 1) for j in range(1, n + 1 - i)}
    report = full_report(nf, OneForm(BiPoly(terms), BiPoly()))
    rm = report.rectifier
    assert len(report.integrals) == 2
    for ai in report.integrals:
        factor = rm.puncture_factor(ai.cycle.puncture)
        total = UniPoly()
        for (i, j), weight in report.basis_coeffs.items():
            value = reference_residue(rm.monomial_pushforward(i, j), factor)
            assert value.is_polynomial()
            total = total + value.num.scale(weight)
        assert not total.is_zero()
        assert ai.value == total
