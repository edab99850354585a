"""Rectifying maps: explicit inverses, verification and pole locations."""

import random

import pytest

from abelint import (
    BiPoly,
    ConstructionFailure,
    GaussRat,
    NormalForm,
    RatFunc,
    RectifyingMap,
    UniPoly,
    build_rectifier,
    canonical_cycles,
    residue,
    validate,
)
from abelint.algebra import C_FACTOR, t_factor
from abelint.rectify import _verify
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
        # H = x(xy + 1)^2, synthesized (q1, q) = (2, 3):
        # inverse = (t^2/c^3, c^3 (c^2 - t)/t^3)
        nf = NormalForm("F2", p1=1, p=2, k=1, P=UniPoly([1]))
        rm = build_rectifier(nf)
        assert rm.inverse_x == RatFunc(BiPoly({(2, 0): 1}), {C_FACTOR: 3})
        assert rm.inverse_y == RatFunc(BiPoly({(0, 5): 1, (1, 3): -1}),
                                       {t_factor(GaussRat(0), GaussRat(0)): 3})

    @pytest.mark.parametrize("family", ["F1", "F2"])
    def test_negative_sign_inverse(self, family):
        # p q1 - q p1 = 3*1 - 2*2 = -1, k = 2, P = 1 + 3x, Pi = 2 - t and
        # W = c (F2) or c - t (F1).  x = W^2 / (t^3 Pi^2); S = t^2 Pi / W;
        # y = (S - 1 - 3x) x^-2
        #   = (t^8 Pi^5 - t^6 Pi^4 W - 3 t^3 Pi^2 W^3) / W^5.
        nf = NormalForm(family, p1=2, p=3, q1=1, q=2, k=2, P=UniPoly([1, 3]),
                        a=(1,), beta=(GaussRat(2),))
        assert validate(nf).sign_case == -1
        rm = build_rectifier(nf)
        t, c = BiPoly.var(0), BiPoly.var(1)
        pi = BiPoly.const(GaussRat(2)) - t
        w = c if family == "F2" else c - t
        y_num = t ** 8 * pi ** 5 - t ** 6 * pi ** 4 * w \
            - (t ** 3 * pi ** 2 * w ** 3).scale(GaussRat(3))
        # 1 / Pi^2 = 1 / (t - 2)^2; 1 / (c - t)^5 = -1 / (t - c)^5
        t_zero = t_factor(GaussRat(0), GaussRat(0))
        t_beta = t_factor(GaussRat(0), GaussRat(2))
        if family == "F2":
            w_fac, w_sign = C_FACTOR, GaussRat(1)
        else:
            w_fac, w_sign = t_factor(GaussRat(1), GaussRat(0)), GaussRat(-1)
        assert rm.inverse_x == RatFunc(w ** 2, {t_zero: 3, t_beta: 2})
        assert rm.inverse_y == RatFunc(y_num.scale(w_sign), {w_fac: 5})

    @pytest.mark.parametrize("wrong", ["negated y", "scaled x", "shifted x"])
    @pytest.mark.parametrize("make", [septic_f1, septic_f2, cubic_form])
    def test_verify_rejects_wrong_inverse(self, make, wrong):
        rm = build_rectifier(make())
        x, y = rm.inverse_x, rm.inverse_y
        if wrong == "negated y":
            y = -y
        elif wrong == "scaled x":
            x = x * GaussRat(2)
        else:
            x = x + RatFunc.t()
        with pytest.raises(ConstructionFailure):
            _verify(RectifyingMap(rm.nf, rm.facts, rm.factors, x, y))

    def test_verify_rejects_g_that_is_not_t(self, monkeypatch):
        # H composed with the inverse is c, G composed with it is not t.
        rm = build_rectifier(septic_f2())
        monkeypatch.setattr("abelint.rectify.hamiltonian",
                            lambda *args: (RatFunc.c(), RatFunc.c()))
        with pytest.raises(ConstructionFailure, match="G composed with the inverse is not t"):
            _verify(rm)


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
            allowed = {rm.factors[kind] for kind in rm.facts.puncture_kinds}
            allowed.add(C_FACTOR)
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
            dx = rm.inverse_x.derivative().evaluate(t0, c0)
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


def gaussian_f2():
    # punctures t = 0, t = i and t = 1 + i
    return NormalForm("F2", p1=0, p=1, q1=1, q=2, k=1, P=UniPoly([GaussRat(0, 1)]),
                      a=(1, 2), beta=(GaussRat(0, 1), GaussRat(1, 1)))


def gaussian_f3():
    # y (i - x)(2 - x) + (1 + i x)
    return NormalForm("F3", a=(1, 1), beta=(GaussRat(0, 1), GaussRat(2)),
                      h=UniPoly([1, GaussRat(0, 1)]))


KEYED_FORMS = [septic_f1, gaussian_f2, gaussian_f3]


class TestPunctureKeys:
    @pytest.mark.parametrize("make", KEYED_FORMS)
    def test_pushforwards_and_residues_hash_no_gaussrat(self, make, monkeypatch):
        # A factor key holds its location as a UniPoly, whose hash is
        # cached, so once the rectifier is built no exponent lookup hashes
        # a GaussRat.
        rm = build_rectifier(make())
        calls = []
        original = GaussRat.__hash__

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(GaussRat, "__hash__", counting)
        residues = 0
        for i, j in ((0, 1), (1, 1), (2, 1), (0, 2), (1, 3)):
            eta_t = rm.monomial_pushforward(i, j)
            for kind in rm.facts.puncture_kinds:
                residues += residue(eta_t, rm.factors[kind]) is not None
        assert residues > 0
        assert calls == []

    @pytest.mark.parametrize("make", KEYED_FORMS)
    def test_every_t_key_is_a_puncture_key(self, make):
        # The rectifier builds one key per puncture, and every function it
        # holds or pushes forward keeps those very objects.
        rm = build_rectifier(make())
        keys = [rm.factors[kind] for kind in rm.facts.puncture_kinds]
        seen = 0
        for f in (rm.inverse_x, rm.inverse_y, rm.dx_dt, rm.monomial_pushforward(1, 2)):
            for key in f.exps:
                if key[0] == "t":
                    assert any(key is k for k in keys)
                    seen += 1
        assert seen >= len(keys)
