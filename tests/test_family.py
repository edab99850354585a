"""Normal-form validation, derived facts and Hamiltonian expansion."""

import random

import pytest

from abelint import (
    BiPoly,
    GaussRat,
    InvalidFamily,
    NoCyclesError,
    NormalForm,
    UniPoly,
    synthesize_qq,
    validate,
)
from abelint.family import MOVING_PUNCTURE, ZERO_PUNCTURE

from conftest import random_normal_form
from reference import expand


def oscillator_form():
    return NormalForm("F3", a=(1,), beta=(GaussRat(1),))


def cubic_form():
    # y(1 - x)^2 + (x - 1)
    return NormalForm("F3", a=(2,), beta=(GaussRat(1),), h=UniPoly([-1, 1]))


def septic_f2():
    return NormalForm("F2", p1=0, p=1, q1=1, q=2, k=1, P=UniPoly([-1]),
                      a=(1,), beta=(GaussRat(1),))


def septic_f1():
    return NormalForm("F1", p1=0, p=1, q1=1, q=2, k=1, P=UniPoly([-1]),
                      a=(1,), beta=(GaussRat(1),))


class TestValidation:
    def test_oscillator_facts(self):
        facts = validate(oscillator_form())
        assert facts.degree == 2
        assert facts.homology_rank == 1
        assert facts.puncture_kinds == ("beta1",)

    def test_septic_f2_facts(self):
        facts = validate(septic_f2())
        assert facts.degree == 7
        assert facts.homology_rank == 2
        assert facts.puncture_kinds == (ZERO_PUNCTURE, "beta1")
        assert facts.sign_case == 1

    def test_septic_f1_facts(self):
        facts = validate(septic_f1())
        assert facts.degree == 7
        assert facts.homology_rank == 3
        assert facts.puncture_kinds == (ZERO_PUNCTURE, "beta1", MOVING_PUNCTURE)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F4"))

    def test_bad_exponent_relation_rejected(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F2", p1=0, p=2, q1=1, q=3, k=1,
                                a=(1,), beta=(GaussRat(1),)))

    def test_p1_range_enforced(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F2", p1=2, p=2, q1=1, q=2, k=1,
                                a=(1,), beta=(GaussRat(1),)))

    def test_p_degree_cap_enforced(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F2", p1=0, p=1, q1=1, q=2, k=1,
                                P=UniPoly([0, 1]),  # deg P = 1 > k - 1 = 0
                                a=(1,), beta=(GaussRat(1),)))

    def test_beta_zero_rejected(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F3", a=(1, 1), beta=(GaussRat(0), GaussRat(1))))

    def test_beta_duplicates_rejected(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F3", a=(1, 1), beta=(GaussRat(1), GaussRat(1))))

    def test_f3_rank_one_has_no_cycles(self):
        with pytest.raises(NoCyclesError):
            validate(NormalForm("F3"))

    def test_f1_requires_nonempty_beta(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F1", p1=1, p=2, q1=0, q=1, k=1))

    def test_f3_h_degree_cap(self):
        with pytest.raises(InvalidFamily):
            validate(NormalForm("F3", a=(1,), beta=(GaussRat(1),),
                                h=UniPoly([0, 1])))


class TestSynthesis:
    def test_minimal_q1(self):
        # q1 = 1 gives q = 1 which violates q > q1; the minimal valid pick is (2, 3)
        assert synthesize_qq(1, 2) == (2, 3)

    def test_relation_holds(self):
        for p1, p in [(1, 2), (1, 3), (2, 3), (3, 4), (2, 5)]:
            q1, q = synthesize_qq(p1, p)
            assert p * q1 - q * p1 == 1
            assert 0 < q1 <= p and q > q1

    def test_p1_zero_case(self):
        assert synthesize_qq(0, 1) == (1, 2)

    def test_non_coprime_rejected(self):
        with pytest.raises(InvalidFamily):
            synthesize_qq(2, 4)

    def test_p1_zero_requires_p_one(self):
        # validate's gcd(p1, p) = 1 check rejects p1 = 0, p = 2 first, so
        # only a direct call reaches this branch.
        with pytest.raises(InvalidFamily, match="requires p = 1 when p1 = 0"):
            synthesize_qq(0, 2)

    def test_rank_one_family_uses_synthesis(self):
        nf = NormalForm("F2", p1=1, p=2, k=1, P=UniPoly([1]))
        facts = validate(nf)
        q1, q = facts.effective[2], facts.effective[3]
        assert nf.p * q1 - q * nf.p1 == 1
        assert facts.homology_rank == 1


class TestExpansion:
    def test_oscillator_expansion(self):
        # y(1 - x) = y - xy
        assert expand(oscillator_form()) == BiPoly({(0, 1): GaussRat(1),
                                                    (1, 1): GaussRat(-1)})

    def test_cubic_expansion(self):
        x, y = BiPoly.var(0), BiPoly.var(1)
        one = BiPoly.const(GaussRat(1))
        assert expand(cubic_form()) == y * (one - x) ** 2 + (x - one)

    def test_septic_f1_expansion(self):
        x, y = BiPoly.var(0), BiPoly.var(1)
        one = BiPoly.const(GaussRat(1))
        s = x * y - one
        expected = x * s ** 2 + s * (one - x * s ** 2)
        assert expand(septic_f1()) == expected

    def test_degree_formula_random(self):
        rng = random.Random(101)
        for _ in range(1000):
            nf = random_normal_form(rng)
            facts = validate(nf)
            assert expand(nf).total_degree == facts.degree

    def test_rank_one_product_shape(self):
        # Rank-one family two Hamiltonians are literally x^p1 (x^k y + P)^p.
        cases = [
            NormalForm("F2", p1=1, p=2, k=1, P=UniPoly([1])),
            NormalForm("F2", p1=0, p=1, k=3, P=UniPoly([2, 0, -1])),
            NormalForm("F2", p1=2, p=3, k=2, P=UniPoly([0, 1])),
        ]
        for nf in cases:
            s = BiPoly({(nf.k, 1): GaussRat(1),
                        **{(i, 0): c for i, c in enumerate(nf.P.coeffs)}})
            expected = BiPoly({(nf.p1, 0): GaussRat(1)}) * s ** nf.p
            assert expand(nf) == expected


class TestBifurcationCandidates:
    def test_oscillator(self):
        assert list(validate(oscillator_form()).bifurcation_candidates) == [GaussRat(0)]

    def test_septic_f2(self):
        # p1 = 0: P(0) * prod beta^a = -1, plus 0
        assert set(validate(septic_f2()).bifurcation_candidates) == \
            {GaussRat(-1), GaussRat(0)}

    def test_septic_f1(self):
        assert set(validate(septic_f1()).bifurcation_candidates) == \
            {GaussRat(-1), GaussRat(0), GaussRat(1)}

    def test_f3_h_values(self):
        nf = NormalForm("F3", a=(1, 1), beta=(GaussRat(1), GaussRat(2)),
                        h=UniPoly([0, 1]))
        assert set(validate(nf).bifurcation_candidates) == {GaussRat(1), GaussRat(2)}

    def test_positive_p1_f2_only_zero(self):
        nf = NormalForm("F2", p1=1, p=2, q1=0, q=1, k=1,
                        a=(1,), beta=(GaussRat(1),))
        assert list(validate(nf).bifurcation_candidates) == [GaussRat(0)]

    def test_f1_positive_p1_zero_q1_adds_p0(self):
        # the x = 0 component contributes P(0) = 3, then 0 and the betas
        nf = NormalForm("F1", p1=1, p=2, q1=0, q=1, k=1, P=UniPoly([3]),
                        a=(1, 2), beta=(GaussRat(2), GaussRat(3)))
        assert list(validate(nf).bifurcation_candidates) == [GaussRat(3), GaussRat(0),
                                                             GaussRat(2)]
