"""Numeric verification layer: contours, fiber loops and root finding."""

import math
import random

import pytest

from abelint import (
    BiPoly,
    ContourSpec,
    GaussRat,
    NonConvergence,
    OneForm,
    UniPoly,
    build_rectifier,
    canonical_cycles,
    contour_integral_fiber,
    contour_integral_t,
    default_contour,
    full_report,
    locate_roots,
    validate,
)
from abelint.algebra import RatFunc, t_factor
from test_family import cubic_form, oscillator_form, septic_f2
from test_abelian import SEPTIC_F2_FORM, form_dx

from conftest import cached_rectifier, random_normal_form, random_oneform


class TestContourSpec:
    def test_radius_positive(self):
        with pytest.raises(ValueError):
            ContourSpec(0j, 0.0)

    def test_samples_power_of_two(self):
        with pytest.raises(ValueError):
            ContourSpec(0j, 1.0, samples=48)

    def test_default_radius_quarter_gap(self):
        rm = build_rectifier(septic_f2())
        cycles = canonical_cycles(validate(septic_f2()))
        spec = default_contour(rm, cycles[0], 2.0 + 0j)
        # punctures at t = 0 and t = 1: gap 1, radius 1/4
        assert spec.center == 0j
        assert math.isclose(spec.radius, 0.25)

    def test_sole_puncture_radius_one(self):
        rm = build_rectifier(oscillator_form())
        cycles = canonical_cycles(validate(oscillator_form()))
        spec = default_contour(rm, cycles[0], 2.0 + 0j)
        assert spec.radius == 1.0


class TestContourIntegrals:
    def test_simple_pole_unit_residue(self):
        f = RatFunc(BiPoly.const(GaussRat(1)),
                    {t_factor(GaussRat(0), GaussRat(0)): 1})
        value = contour_integral_t(f, 1.0 + 0j, ContourSpec(0j, 0.5))
        assert abs(value - 1) < 1e-10

    def test_pole_free_integrand_vanishes(self):
        f = RatFunc(BiPoly({(2, 0): GaussRat(1)}))
        value = contour_integral_t(f, 1.0 + 0j, ContourSpec(0j, 0.5))
        assert abs(value) < 1e-10

    def test_oscillator_known_value(self):
        # y dx around the puncture at t = 1 gives -c
        rm = build_rectifier(oscillator_form())
        cycle = canonical_cycles(validate(oscillator_form()))[0]
        c0 = 2.0 + 0j
        spec = default_contour(rm, cycle, c0)
        eta_t = rm.monomial_pushforward(0, 1)
        assert abs(contour_integral_t(eta_t, c0, spec) - (-2)) < 1e-9

    def test_fiber_route_matches_t_route(self):
        rng = random.Random(89)
        for _ in range(5):
            nf = random_normal_form(rng)
            rm = cached_rectifier(nf)
            cycle = canonical_cycles(validate(nf))[0]
            c0 = 2.37 + 1.11j
            spec = default_contour(rm, cycle, c0)
            i, j = rng.randint(0, 2), rng.randint(1, 2)
            w = OneForm(BiPoly({(i, j): GaussRat(1)}), BiPoly())
            eta_t = rm.monomial_pushforward(i, j)
            t_side = contour_integral_t(eta_t, c0, spec)
            fiber_side = contour_integral_fiber(w, rm, cycle, c0, spec)
            assert abs(t_side - fiber_side) < 1e-8 * (1 + abs(t_side))

    def test_exact_engine_agrees_with_contours(self):
        report = full_report(septic_f2(), SEPTIC_F2_FORM)
        rm = build_rectifier(septic_f2())
        for cycle, ai in zip(canonical_cycles(report.facts), report.integrals):
            for c0 in (2.0 + 0.5j, -1.7 + 1.3j, 3.1 - 0.2j):
                spec = default_contour(rm, cycle, c0)
                numeric = 0j
                for (i, j), weight in report.basis_coeffs.items():
                    eta_t = rm.monomial_pushforward(i, j)
                    numeric += weight.to_complex() * \
                        contour_integral_t(eta_t, c0, spec)
                exact = ai.value.evaluate_complex(c0)
                assert abs(numeric - exact) < 1e-8 * (1 + abs(exact))

    def test_value_line_reparametrization_equivalence(self):
        # If sigma(c) = 2c + 1 carries H to H' = 2H + 1, integrals satisfy
        # I(c) = (1/sigma') I'(sigma(c)).
        nf = oscillator_form()
        rm = build_rectifier(nf)
        cycle = canonical_cycles(validate(nf))[0]
        w = form_dx((0, 2, 1), (1, 2, -1))  # H y dx
        report = full_report(nf, w)
        rng = random.Random(97)
        for _ in range(10):
            c0 = complex(rng.uniform(1, 3), rng.uniform(-1, 1))
            spec = default_contour(rm, cycle, c0)
            direct = contour_integral_fiber(w, rm, cycle, c0, spec)
            exact = report.integrals[0].value.evaluate_complex(c0)
            assert abs(direct - exact) < 1e-8 * (1 + abs(exact))
            # reparametrized value line: evaluate at sigma(c), divide by sigma'
            scaled = report.integrals[0].value.scale(GaussRat(2))
            assert abs(scaled.evaluate_complex(c0) / 2 - exact) < 1e-12


class TestOriginalCoordinates:
    def test_original_side_loop_matches_exact_integral(self):
        # H = (u^2 + v^2)/2 carried to y(1 - x) by an explicit automorphism:
        # integrating omega along the original-coordinates loop must match
        # the exact engine applied to the pushed-forward form.
        import cmath

        from abelint import pushforward_oneform
        from abelint.oracle import TWO_PI_I
        from test_transform import oscillator_automorphism

        aut = oscillator_automorphism()
        omega = OneForm(BiPoly({(0, 1): GaussRat(1)}), BiPoly())  # v du
        theta = pushforward_oneform(omega, aut)
        nf = oscillator_form()
        report = full_report(nf, theta)
        rm = build_rectifier(nf)
        cycle = canonical_cycles(validate(nf))[0]
        g1, g2 = aut.inverse
        partials = (g1.partial(0), g1.partial(1), g2.partial(0), g2.partial(1))
        rng = random.Random(107)
        for _ in range(10):
            c0 = complex(rng.uniform(1, 3), rng.uniform(-1, 1))
            spec = default_contour(rm, cycle, c0)
            samples = 4096
            total = 0j
            step = 2 * math.pi / samples
            for idx in range(samples):
                t = spec.center + spec.radius * cmath.exp(1j * step * idx)
                dt = 1j * spec.radius * cmath.exp(1j * step * idx) * step
                x0 = rm.inverse_x.evaluate(t, c0)
                y0 = rm.inverse_y.evaluate(t, c0)
                dx = rm.inverse_x.derivative(0).evaluate(t, c0)
                dy = rm.inverse_y.derivative(0).evaluate(t, c0)
                u0, v0 = g1.evaluate(x0, y0), g2.evaluate(x0, y0)
                du = partials[0].evaluate(x0, y0) * dx + \
                    partials[1].evaluate(x0, y0) * dy
                dv = partials[2].evaluate(x0, y0) * dx + \
                    partials[3].evaluate(x0, y0) * dy
                total += (omega.A.evaluate(u0, v0) * du
                          + omega.B.evaluate(u0, v0) * dv) * dt
            numeric = total / TWO_PI_I
            exact = report.integrals[0].value.evaluate_complex(c0)
            assert abs(numeric - exact) < 1e-8 * (1 + abs(exact))


class TestRootFinder:
    def test_known_rational_roots(self):
        poly = UniPoly([-2, 1]) * UniPoly([5, 2])  # roots 2 and -5/2
        roots = sorted(locate_roots(poly), key=lambda z: z.real)
        assert abs(roots[0] - (-2.5)) < 1e-8
        assert abs(roots[1] - 2) < 1e-8

    def test_root_count_equals_degree(self):
        rng = random.Random(103)
        from conftest import random_gauss
        for _ in range(10):
            poly = UniPoly([random_gauss(rng) for _ in range(rng.randint(2, 7))])
            if poly.is_zero() or poly.degree < 1:
                continue
            roots = locate_roots(poly)
            assert len(roots) == poly.degree
            for z in roots:
                assert abs(poly.evaluate_complex(z)) < 1e-6 * (1 + abs(z) ** 7)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            locate_roots(UniPoly())

    def test_degenerate_contour_reports_nonconvergence(self, monkeypatch):
        # Pole directly on the contour: the doubling loop cannot settle
        import abelint.oracle as oracle_module
        monkeypatch.setattr(oracle_module, "MAX_SAMPLES", 2 ** 12)
        f = RatFunc(BiPoly.const(GaussRat(1)),
                    {t_factor(GaussRat(0), GaussRat(0)): 1})
        with pytest.raises(NonConvergence):
            contour_integral_t(f, 1.0 + 0j, ContourSpec(1.0 + 0j, 1.0))
