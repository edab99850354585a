"""Rectifying maps: explicit inverses, verification and pole locations."""

import random

from abelint import (
    BiPoly,
    GaussRat,
    RatFunc,
    UniPoly,
    build_rectifier,
    canonical_cycles,
    validate,
)
from abelint.algebra import C_FACTOR, t_factor
from abelint.rectify import allowed_pole_factors
from test_family import cubic_form, oscillator_form, septic_f1, septic_f2

from conftest import cached_rectifier, random_normal_form


class TestExplicitInverses:
    def test_oscillator_inverse(self):
        # inverse = (t, c/(1 - t))
        rm = build_rectifier(oscillator_form())
        assert rm.inverse_x == RatFunc.t()
        expected = RatFunc(BiPoly({(0, 1): GaussRat(-1)}),
                           {t_factor(GaussRat(0), GaussRat(1)): 1})
        assert rm.inverse_y == expected

    def test_cubic_inverse(self):
        # inverse = (t, (c + 1 - t)/(1 - t)^2)
        rm = build_rectifier(cubic_form())
        assert rm.inverse_x == RatFunc.t()
        num = BiPoly({(0, 1): GaussRat(1), (0, 0): GaussRat(1),
                      (1, 0): GaussRat(-1)})
        assert rm.inverse_y == RatFunc(num, {t_factor(GaussRat(0), GaussRat(1)): 2})

    def test_septic_f1_inverse_y(self):
        # inverse_y = (c + 1 - 2t)(c - t)^2 / (t (1 - t)^3)
        rm = build_rectifier(septic_f1())
        t, c = BiPoly.var(0), BiPoly.var(1)
        one = BiPoly.const(GaussRat(1))
        num = (c + one - t - t) * (c - t) ** 2
        expected = RatFunc(num.scale(GaussRat(-1)),  # (1-t)^3 = -(t-1)^3
                           {t_factor(GaussRat(0), GaussRat(0)): 1,
                            t_factor(GaussRat(0), GaussRat(1)): 3})
        assert rm.inverse_y == expected

    def test_all_random_forms_verify(self):
        # build_rectifier raises ConstructionFailure unless H(inverse) = c
        # and G(inverse) = t hold symbolically; exercising it is the test.
        rng = random.Random(61)
        for _ in range(25):
            nf = random_normal_form(rng)
            rm = build_rectifier(nf)
            assert rm.inverse_x is not None

    def test_negative_sign_branch_constructs(self):
        nf_f2 = random_normal_form(random.Random(67),
                                   shapes=[("F2", 1, 2, 0, 1, 1, 1)])
        facts = validate(nf_f2)
        assert facts.sign_case == -1
        build_rectifier(nf_f2)

    def test_rank_one_synthesized_inverse(self):
        # H = x(xy + 1)^2: inverse = (t^2/c^3, c^3 (c^2 - t)/t^3)
        from abelint import NormalForm
        nf = NormalForm("F2", p1=1, p=2, k=1, P=UniPoly([1]))
        rm = build_rectifier(nf)
        t0, c0 = 0.7 + 0.3j, 1.4 - 0.2j
        assert abs(rm.inverse_x.evaluate(t0, c0) - t0 ** 2 / c0 ** 3) < 1e-12
        assert abs(rm.inverse_y.evaluate(t0, c0)
                   - c0 ** 3 * (c0 ** 2 - t0) / t0 ** 3) < 1e-10


class TestPushforwards:
    def test_oscillator_eta(self):
        # x^0 y^1 dx maps to -c/(t - 1) dt
        rm = build_rectifier(oscillator_form())
        expected = RatFunc(BiPoly({(0, 1): GaussRat(-1)}),
                           {t_factor(GaussRat(0), GaussRat(1)): 1})
        assert rm.monomial_pushforward(0, 1) == expected

    def test_cubic_eta(self):
        # x^0 y^1 dx maps to (c + 1 - t)/(1 - t)^2 dt
        rm = build_rectifier(cubic_form())
        num = BiPoly({(0, 1): GaussRat(1), (0, 0): GaussRat(1),
                      (1, 0): GaussRat(-1)})
        expected = RatFunc(num, {t_factor(GaussRat(0), GaussRat(1)): 2})
        assert rm.monomial_pushforward(0, 1) == expected

    def test_poles_confined_to_punctures(self):
        rng = random.Random(71)
        for _ in range(20):
            nf = random_normal_form(rng)
            rm = cached_rectifier(nf)
            allowed = set(allowed_pole_factors(rm))
            i, j = rng.randint(0, 3), rng.randint(1, 3)
            eta_t = rm.monomial_pushforward(i, j)
            for factor in eta_t.fac:
                assert factor in allowed

    def test_numeric_consistency_with_direct_composition(self):
        # eta_t must equal w(inverse) * d(inverse_x)/dt numerically
        rng = random.Random(73)
        for _ in range(10):
            nf = random_normal_form(rng)
            rm = cached_rectifier(nf)
            i, j = rng.randint(0, 2), rng.randint(1, 2)
            eta_t = rm.monomial_pushforward(i, j)
            t0, c0 = 0.456 + 0.789j, 2.1 + 0.9j
            x0 = rm.inverse_x.evaluate(t0, c0)
            y0 = rm.inverse_y.evaluate(t0, c0)
            dx = rm.inverse_x.derivative(0).evaluate(t0, c0)
            direct = (x0 ** i) * (y0 ** j) * dx
            assert abs(eta_t.evaluate(t0, c0) - direct) < 1e-8 * (1 + abs(direct))


class TestCycles:
    def test_oscillator_single_cycle(self):
        cycles = canonical_cycles(validate(oscillator_form()))
        assert [c.puncture for c in cycles] == ["beta1"]

    def test_septic_f2_cycles(self):
        cycles = canonical_cycles(validate(septic_f2()))
        assert [c.puncture for c in cycles] == ["zero", "beta1"]

    def test_septic_f1_cycles_include_moving(self):
        cycles = canonical_cycles(validate(septic_f1()))
        assert [c.puncture for c in cycles] == ["zero", "beta1", "moving_c"]

    def test_count_equals_rank(self):
        rng = random.Random(79)
        for _ in range(30):
            facts = validate(random_normal_form(rng))
            assert len(canonical_cycles(facts)) == facts.homology_rank
