"""Exact arithmetic, polynomials, rational functions and residues."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelint import (
    BiPoly,
    CFrac,
    GaussRat,
    MOVING_POLE,
    PoleOrderMismatch,
    RatFunc,
    UniPoly,
    laurent_coefficients,
    residue,
    residue_at_infinity,
    residue_via_derivative,
    substitute,
)
from abelint.algebra import C_FACTOR, t_factor

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

    def test_t_coeff_round_trip(self):
        rng = random.Random(17)
        from conftest import random_bipoly
        for _ in range(20):
            poly = random_bipoly(rng, 4)
            assert BiPoly.from_t_coeff_list(poly.t_coeff_list()) == poly


# ---------------------------------------------------------------------------
# RatFunc and substitution
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

    def test_substitute_is_ring_homomorphism(self):
        rng = random.Random(29)
        from conftest import random_bipoly
        for _ in range(10):
            f = random_bipoly(rng, 2)
            g = random_bipoly(rng, 2)
            sub0 = _sample_ratfuncs(rng)
            sub1 = _sample_ratfuncs(rng)
            left = substitute(f * g, sub0, sub1)
            right = substitute(f, sub0, sub1) * substitute(g, sub0, sub1)
            assert left == right
            assert substitute(f + g, sub0, sub1) == \
                substitute(f, sub0, sub1) + substitute(g, sub0, sub1)


# ---------------------------------------------------------------------------
# Laurent expansion and residues
# ---------------------------------------------------------------------------

class TestResidues:
    def test_simple_pole_residue(self):
        # 1/(t - 1): residue 1 at t = 1
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(0), GaussRat(1)): 1})
        assert residue(f, GaussRat(1)) == CFrac.const(GaussRat(1))

    def test_known_oscillator_residue(self):
        # -c/(t - 1) has residue -c at t = 1
        f = RatFunc(BiPoly({(0, 1): GaussRat(-1)}),
                    {t_factor(GaussRat(0), GaussRat(1)): 1})
        assert residue(f, GaussRat(1)).as_unipoly() == UniPoly([0, GaussRat(-1)])

    def test_pole_order_mismatch(self):
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(0), GaussRat(1)): 2})
        with pytest.raises(PoleOrderMismatch):
            laurent_coefficients(f, GaussRat(1), 1)

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
            via_laurent = residue(f, GaussRat(1))
            via_derivative = residue_via_derivative(f, GaussRat(1), depth)
            assert via_laurent == via_derivative

    def test_moving_pole_residue(self):
        # 1/(t - c): residue 1 at the moving pole
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(1), GaussRat(0)): 1})
        assert residue(f, MOVING_POLE) == CFrac.const(GaussRat(1))

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
