"""Exact arithmetic, polynomials, rational functions and residues."""

import random
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abelint import (
    BiPoly,
    GaussRat,
    NormalForm,
    OneForm,
    RatFunc,
    UniPoly,
    build_rectifier,
    full_report,
    residue,
)
from abelint import algebra
from abelint.algebra import C_FACTOR, t_factor

from conftest import random_gauss, random_normal_form, random_oneform, cached_rectifier
from reference import (
    FractionGaussRat,
    eval_at_t,
    fraction_sum,
    reference_residue,
    residue_at_infinity,
    residue_pair,
    same_fraction,
)

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
        original = algebra._rational_hash

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(algebra, "_rational_hash", counting)
        real, cplx = GaussRat(Fraction(7, 3)), GaussRat(Fraction(7, 3), 2)
        key = ("t", real, cplx)
        first = [hash(real), hash(cplx), hash(key)]
        count = len(calls)
        assert count > 0
        assert [hash(real), hash(cplx), hash(key)] == first
        assert {key: 1}[key] == 1
        assert len(calls) == count
        # Both branches return the stored hash: a complex value's hash does
        # not go through _rational_hash, so plant a value and read it back.
        assert (real._hash, cplx._hash) == (first[0], first[1])
        for value in (real, cplx):
            value._hash = 12345
            assert hash(value) == 12345

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


# Parts of random Gaussian rationals: small ones, and denominators that are
# multiples of the hash modulus or beyond the double range.
_MODULUS = sys.hash_info.modulus
PARTS = [0, 1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), 10 ** 30 + 1,
         Fraction(1, _MODULUS), Fraction(3, 2 * _MODULUS), Fraction(1, 2 ** 1100)]
OPERANDS = [0, 1, -2, 5, Fraction(1, 3), Fraction(-7, 2), Fraction(2, _MODULUS)]


def _outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def _complex_bits(value):
    try:
        z = value.to_complex()
    except OverflowError:
        return OverflowError
    return z.real.hex(), z.imag.hex()


def _same_value(got, want):
    """got, a GaussRat, equals want, a FractionGaussRat, in every view; a real
    value hashes like the reference, a complex one like its parsed copy."""
    if want is ZeroDivisionError:
        return got is ZeroDivisionError
    rehashed = hash(want) if not want.im else hash(GaussRat.parse(got.to_json()))
    return ((got.re, got.im) == (want.re, want.im) and hash(got) == rehashed
            and got.to_json() == want.to_json() and repr(got) == repr(want)
            and _complex_bits(got) == _complex_bits(want))


class TestGaussRatAgainstReference:
    def test_every_operation_matches_two_fractions(self):
        rng = random.Random(37)

        def draw():
            re, im = rng.choice(PARTS) * rng.choice((1, -1)), rng.choice(PARTS + [0, 0])
            return GaussRat(re, im), FractionGaussRat(re, im)

        for _ in range(300):
            (a, ra), (b, rb), k = draw(), draw(), rng.choice(OPERANDS)
            n = rng.randint(-3, 3)
            pairs = [
                (a, ra), (-a, -ra), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                (a + k, ra + k), (k + a, k + ra), (a - k, ra - k), (k - a, k - ra),
                (a * k, ra * k), (k * a, k * ra),
            ]
            for op, args, ref_args in [
                (lambda x, y: x / y, (a, b), (ra, rb)), (lambda x: x.inverse(), (a,), (ra,)),
                (lambda x, y: x / y, (a, k), (ra, k)), (lambda x, y: y / x, (a, k), (ra, k)),
                (lambda x, y: x ** y, (a, n), (ra, n)),
            ]:
                pairs.append((_outcome(op, *args), _outcome(op, *ref_args)))
            for got, want in pairs:
                assert _same_value(got, want), (got, want)
            assert (a == b) == (ra == rb) and (a == k) == (ra == k)
            assert bool(a) == bool(ra)

    def test_real_value_hashes_like_its_rational_at_a_multiple_of_the_modulus(self):
        for value in (Fraction(1, _MODULUS), Fraction(_MODULUS, 2), Fraction(-5, 7 * _MODULUS),
                      Fraction(-1), Fraction(-_MODULUS - 1)):
            assert hash(GaussRat(value)) == hash(value)


def test_the_engine_builds_no_fraction(monkeypatch):
    # Every scalar, polynomial and grid is ints over one denominator, so a
    # Fraction is built only where a number is parsed or printed.  The
    # random inputs, which are parsed from Fractions, are built first.
    rng = random.Random(61)
    problems = [random_normal_form(rng) for _ in range(40)]
    problems = [(nf, random_oneform(rng, 5)) for nf in problems]
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 3) + 1 == Fraction(4, 3) and len(built) == 3  # the count sees them
    del built[:]
    for nf, w in problems:
        full_report(nf, w, rectifier=build_rectifier(nf))
    assert built == []


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
    return random_gauss(rng) + random_gauss(rng) * GaussRat(0, 1)


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
                num, den = (p.evaluate(c0) for p in eval_at_t(f, UniPoly.const(t0)))
            except ZeroDivisionError:
                continue
            if not den or not num:
                continue
            checked += 1
            exact = (num / den).to_complex()
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

def laurent_coefficients(f: RatFunc, factor, depth: int) -> list:
    """Coefficients of (t-pi)^{-depth} ... (t-pi)^{-1} as unreduced pairs;
    last entry is the residue.

    Coefficient k is the residue of f (t-pi)^(depth-1-k), a pole of order k+1.
    """
    if f.pole_order(factor) != depth:
        raise ValueError(f"declared pole order {depth}, actual {f.pole_order(factor)}")
    return [residue_pair(f * RatFunc.factor_product({factor: depth - 1 - k}, 1), factor)
            for k in range(depth)]


def residue_via_derivative(f: RatFunc, factor, depth: int) -> tuple:
    """Residue by the derivative formula: (1/(depth-1)!) d^{depth-1}/dt^{depth-1}
    of f*(t-pi)^depth evaluated at t = pi, as an unreduced pair.  Independent
    route used to cross-check laurent_coefficients."""
    if f.pole_order(factor) != depth:
        raise ValueError(f"declared pole order {depth}, actual {f.pole_order(factor)}")
    if depth == 0:
        return UniPoly(), UniPoly.const(1)
    cleared = f * RatFunc.factor_product({factor: depth}, 1)
    for _ in range(depth - 1):
        cleared = cleared.derivative(0)
    num, den = eval_at_t(cleared, factor[1])
    return num.scale(GaussRat(Fraction(1, factorial(depth - 1)))), den


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
        assert residue(f, t_factor(GaussRat(0), GaussRat(1))) == UniPoly.const(1)

    def test_known_oscillator_residue(self):
        # -c/(t - 1) has residue -c at t = 1
        f = RatFunc(BiPoly({(0, 1): GaussRat(-1)}),
                    {t_factor(GaussRat(0), GaussRat(1)): 1})
        assert residue(f, t_factor(GaussRat(0), GaussRat(1))) == UniPoly([0, GaussRat(-1)])

    def test_pole_order_mismatch(self):
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(0), GaussRat(1)): 2})
        with pytest.raises(ValueError):
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
            via_laurent = residue_pair(f, pole)
            via_derivative = residue_via_derivative(f, pole, depth)
            assert same_fraction(via_laurent, via_derivative)

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
                    assert same_fraction(coeff, residue_via_derivative(lowered, pole, k + 1))

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

    def test_moving_pole_residue_runs_no_gcd(self, monkeypatch):
        # At the moving pole t = a c, with the pole t = 2 and the factor c,
        # f = t^2 (a c - 2)^3 / ((t - a c)^2 (t - 2)^2 c) has the residue
        # d/dt [t^2 / (t - 2)^2] at a c, times (a c - 2)^3 / c, which is -4 a.
        # Dividing out c and (c - 2/a)^3 needs no gcd, divmod or power.
        a = GaussRat(1, 1)
        pole = t_factor(a, GaussRat(0))
        grid = BiPoly({(2, 0): GaussRat(1)}) * BiPoly({(0, 0): GaussRat(-2), (0, 1): a}) ** 3
        f = RatFunc(grid, {pole: 2, t_factor(GaussRat(0), GaussRat(2)): 2, C_FACTOR: 1})
        assert f.pole_order(C_FACTOR) == 1
        reference = reference_residue(f, pole)
        calls = []
        for name in ("gcd", "divmod", "__pow__"):
            original = getattr(UniPoly, name)
            monkeypatch.setattr(UniPoly, name, lambda *args, name=name, original=original:
                                calls.append(name) or original(*args))
        value = residue(f, pole)
        monkeypatch.undo()
        assert not calls
        assert value == UniPoly.const(a * GaussRat(-4))
        assert same_fraction((value, UniPoly.const(1)), reference)

    def test_non_polynomial_residues_are_none(self):
        # 1 / (c (t - 1)) at t = 1 is 1/c; 1 / ((t - c)(t - 2)) at t = c is
        # 1 / (c - 2), whose numerator the moving delta c - 2 does not divide.
        one = BiPoly.const(GaussRat(1))
        at_one, at_c = t_factor(GaussRat(0), GaussRat(1)), t_factor(GaussRat(1), GaussRat(0))
        assert residue(RatFunc(one, {C_FACTOR: 1, at_one: 1}), at_one) is None
        f = RatFunc(one, {at_c: 1, t_factor(GaussRat(0), GaussRat(2)): 1})
        assert residue(f, at_c) is None
        assert same_fraction(residue_pair(f, at_c), (UniPoly.const(1), UniPoly([-2, 1])))

    def test_residue_matches_the_reference_recurrence(self):
        # Rational, Gaussian and moving poles, with and without the factor c,
        # at every depth 1-12, and numerators with fewer t-rows than the depth.
        rng = random.Random(53)
        depths, short, moving, gaussian, with_c, polynomial = set(), 0, 0, 0, 0, 0
        for case in range(240):
            f, pole = _reference_case(rng, 1 + case % 12)
            depth = f.pole_order(pole)
            depths.add(depth)
            short += len(f.num.re) < depth
            moving += bool(pole[1][1])
            gaussian += bool(pole[1][0].im)
            with_c += C_FACTOR in f.fac
            reference = reference_residue(f, pole)
            assert same_fraction(residue_pair(f, pole), reference)
            value = residue(f, pole)
            if value is not None:
                polynomial += 1
                assert value * reference[1] == reference[0]
        assert depths >= set(range(1, 13))
        assert min(short, moving, gaussian, with_c, polynomial) >= 40

    def test_moving_pole_residue(self):
        # 1/(t - c): residue 1 at the moving pole
        f = RatFunc(BiPoly.const(GaussRat(1)), {t_factor(GaussRat(1), GaussRat(0)): 1})
        assert residue(f, t_factor(GaussRat(1), GaussRat(0))) == UniPoly.const(1)

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
            total = fraction_sum([residue_at_infinity(f)]
                                 + [residue_pair(f, pole) for pole in fac])
            assert total[0].is_zero()

    def test_residue_sum_on_pipeline_forms(self):
        rng = random.Random(41)
        for _ in range(10):
            nf = random_normal_form(rng)
            rm = cached_rectifier(nf)
            i, j = rng.randint(0, 2), rng.randint(1, 2)
            eta_t = rm.monomial_pushforward(i, j)
            total = fraction_sum([residue_at_infinity(eta_t)]
                                 + [residue_pair(eta_t, factor)
                                    for factor in eta_t.fac if factor != C_FACTOR])
            assert total[0].is_zero()


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
            num, den = reference_residue(rm.monomial_pushforward(i, j), factor)
            value, remainder = num.divmod(den)
            assert remainder.is_zero()
            total = total + value.scale(weight)
        assert not total.is_zero()
        assert ai.value == total
