"""Numeric verification layer: contours, fiber loops and root finding."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from abelint import (
    BiPoly,
    GaussRat,
    NonConvergence,
    OneForm,
    UniPoly,
    build_rectifier,
    canonical_cycles,
    check_report,
    contour_integral_fiber,
    contour_integral_t,
    full_report,
    locate_roots,
    validate,
)
from abelint.algebra import RatFunc, t_factor
from abelint import abelian, algebra, cli, oracle
from abelint.oracle import (
    TWO_PI_I,
    ContourSpec,
    _contour_around,
    _first_level,
    _integrate_circle,
    _loop_sampler,
    _punctures,
)
from abelint.rectify import RectifyingMap
from test_family import oscillator_form, septic_f2
from test_abelian import SEPTIC_F2_FORM, form_dx
from test_cli import load_bundle, readme_config

from conftest import cached_rectifier, random_normal_form, random_oneform

# dQ for Q = x^2 y - 2 y^2 + 3 x: its integral over every loop is zero
EXACT_PART = OneForm.d(BiPoly({(2, 1): GaussRat(1), (0, 2): GaussRat(-2), (1, 0): GaussRat(3)}))


class TestContourSpec:
    def test_default_radius_quarter_gap(self):
        rm = build_rectifier(septic_f2())
        cycles = canonical_cycles(validate(septic_f2()))
        spec = _contour_around(_punctures(rm, 2.0 + 0j), cycles[0].puncture, (0, 0))
        # punctures at t = 0 and t = 1: gap 1, radius 1/4
        assert spec.center == 0j
        assert math.isclose(spec.radius, 0.25)
        assert spec.samples == _first_level(0, 0, 0.25) == 32

    def test_sole_puncture_radius_one(self):
        rm = build_rectifier(oscillator_form())
        cycles = canonical_cycles(validate(oscillator_form()))
        spec = _contour_around(_punctures(rm, 2.0 + 0j), cycles[0].puncture, (0, 0))
        assert spec.radius == 1.0
        assert spec.samples == _first_level(0, 0, None) == 4


class TestContourIntegrals:
    def test_simple_pole_unit_residue(self):
        f = RatFunc(BiPoly.const(GaussRat(1)),
                    {t_factor(GaussRat(0), GaussRat(0)): 1})
        value = _integrate_circle(f.at_c(1.0 + 0j), ContourSpec(0j, 0.5, 64))
        assert abs(value - 1) < 1e-10

    def test_pole_free_integrand_vanishes(self):
        f = RatFunc(BiPoly({(2, 0): GaussRat(1)}))
        value = _integrate_circle(f.at_c(1.0 + 0j), ContourSpec(0j, 0.5, 64))
        assert abs(value) < 1e-10

    def test_oscillator_known_value(self):
        # y dx around the puncture at t = 1 gives -c
        rm = build_rectifier(oscillator_form())
        cycle = canonical_cycles(validate(oscillator_form()))[0]
        c0 = 2.0 + 0j
        eta_t = rm.monomial_pushforward(0, 1)
        assert abs(contour_integral_t(eta_t, rm, cycle, c0) - (-2)) < 1e-9

    def test_fiber_route_matches_t_route(self):
        rng = random.Random(89)
        for _ in range(5):
            nf = random_normal_form(rng)
            rm = cached_rectifier(nf)
            cycle = canonical_cycles(validate(nf))[0]
            c0 = 2.37 + 1.11j
            i, j = rng.randint(0, 2), rng.randint(1, 2)
            w = OneForm(BiPoly({(i, j): GaussRat(1)}), BiPoly())
            eta_t = rm.monomial_pushforward(i, j)
            t_side = contour_integral_t(eta_t, rm, cycle, c0)
            fiber_side = contour_integral_fiber(w, rm, cycle, c0)
            assert abs(t_side - fiber_side) < 1e-8 * (1 + abs(t_side))

    def test_doubling_reuses_previous_samples(self):
        # 1/z + z^63 on the unit circle: 64 samples alias z^63, 128 and 256
        # do not, so the estimate settles at 256 samples after 64 + 64 + 128
        # integrand calls, not 64 + 128 + 256.
        calls = []

        def integrand(z: complex) -> complex:
            calls.append(z)
            return 1 / z + z ** 63

        value = _integrate_circle(lambda points: [integrand(z) for z in points],
                                  ContourSpec(0j, 1.0, samples=64))
        assert abs(value - 1) < 1e-10
        assert len(calls) == 256

    def test_inverse_compiled_once_per_c_value(self, monkeypatch):
        # check_report compiles x with its slopes and y (with its slopes,
        # for a form with a dy part) and locates the punctures once per
        # c-value, whatever the number of cycles and basis monomials.
        nf = septic_f2()
        c_values = (2.0 + 0.5j, -1.7 + 1.3j)
        with_dy = OneForm(BiPoly({(0, 1): GaussRat(1)}), BiPoly({(1, 1): GaussRat(1)}))
        compiled, located = [], []
        original_at_c, original_punctures = RatFunc.at_c, oracle._punctures

        def counting_at_c(self, c_value, slopes=False):
            compiled.append((self, slopes))
            return original_at_c(self, c_value, slopes)

        def counting_punctures(rm, c_value):
            located.append(c_value)
            return original_punctures(rm, c_value)

        sizes = set()
        for form, y_slopes in ((form_dx((0, 1, 1)), False), (SEPTIC_F2_FORM, False),
                               (with_dy, True)):
            report = full_report(nf, form)
            sizes.add(len(report.basis_coeffs))
            monkeypatch.setattr(RatFunc, "at_c", counting_at_c)
            monkeypatch.setattr(oracle, "_punctures", counting_punctures)
            del compiled[:], located[:]
            check_report(report, c_values)
            monkeypatch.undo()
            assert len(canonical_cycles(report.facts)) == 2
            x, y = report.rectifier.inverse_x, report.rectifier.inverse_y
            assert [(f is x, f is y, s) for f, s in compiled] == \
                [(True, False, True), (False, True, y_slopes)] * len(c_values)
            assert located == list(c_values)
        assert len(sizes) == 3

    def test_t_route_checks_the_pushforward(self, monkeypatch):
        # A wrong eta_t for one monomial makes the exact integral wrong;
        # the oracle does not read monomial_pushforward, so its loop
        # integral disagrees with the exact value.
        original = RectifyingMap.monomial_pushforward

        def doubled(self, i, j):
            eta_t = original(self, i, j)
            return eta_t + eta_t if (i, j) == (0, 1) else eta_t

        monkeypatch.setattr(RectifyingMap, "monomial_pushforward", doubled)
        report = full_report(septic_f2(), SEPTIC_F2_FORM)
        assert (0, 1) in report.basis_coeffs
        errors = check_report(report, (2.0 + 0.5j, -1.7 + 1.3j, 3.1 - 0.2j))
        assert max(errors) > 1e-8

    def test_check_report_builds_no_derivative(self, monkeypatch):
        # The oracle's slopes come from x's and y's own factors, not from
        # RatFunc.derivative, which the pushforward multiplies in.  The
        # rectifier's cached dx/dt is dropped, so reading it would build it.
        with_dy = OneForm(BiPoly({(0, 1): GaussRat(1)}), BiPoly({(1, 1): GaussRat(1)}))
        for form in (SEPTIC_F2_FORM, with_dy):
            report = full_report(septic_f2(), form)
            del report.rectifier.__dict__["dx_dt"]

            def refused(self, slot):
                raise AssertionError("check_report built a derivative")

            with monkeypatch.context() as patch:
                patch.setattr(RatFunc, "derivative", refused)
                assert max(check_report(report, (2.0 + 0.5j, -1.7 + 1.3j))) < 1e-8

    def test_derivative_fault_fails_every_bundled_example(self, monkeypatch):
        # d/dt doubled doubles every exact integral; the oracle's slopes do
        # not come from RatFunc.derivative, so it disagrees on every example.
        original = RatFunc.derivative

        def doubled(self):
            derivative = original(self)
            return derivative + derivative

        monkeypatch.setattr(RatFunc, "derivative", doubled)
        for name in cli.EXAMPLE_NAMES:
            code, payload, _ = cli.execute(load_bundle(name)["config"])
            assert code == 4 and payload["oracle"]["passed"] is False, name

    def test_exact_form_leaves_dx_dt_unbuilt(self):
        # An exact form has an empty basis, so full_report pushes no
        # monomial forward and never reads dx/dt.
        nf = septic_f2()
        rm = build_rectifier(nf)
        report = full_report(nf, OneForm.d(BiPoly({(2, 1): GaussRat(1)})), rectifier=rm)
        assert not report.basis_coeffs
        assert "dx_dt" not in rm.__dict__

    def test_report_integrates_its_own_form_once_per_circle(self, monkeypatch):
        # A form equal to its basis form and the same form plus an exact
        # part are each integrated once per (cycle, c), and both agree
        # with the exact integrals.
        c_values = (2.0 + 0.5j, -1.7 + 1.3j)
        circles = []

        def recording(integrand, spec):
            circles.append(spec)
            return _integrate_circle(integrand, spec)

        monkeypatch.setattr(oracle, "_integrate_circle", recording)
        for form in (SEPTIC_F2_FORM, SEPTIC_F2_FORM + EXACT_PART):
            del circles[:]
            report = full_report(septic_f2(), form)
            errors = check_report(report, c_values)
            assert len(circles) == len(errors) == len(report.integrals) * len(c_values)
            assert max(errors) < 1e-8

    def test_reduction_fault_fails_the_oracle(self, monkeypatch):
        # The exact integrals are built from the basis coefficients, so a
        # wrong reduction makes them wrong; the oracle integrates the form
        # itself and disagrees, and the CLI exits 4.
        original = abelian.reduce_to_nonexact_basis

        def shifted(w):
            coeffs, q = original(w)
            first = min(coeffs)
            return {**coeffs, first: coeffs[first] + 1}, q

        monkeypatch.setattr(abelian, "reduce_to_nonexact_basis", shifted)
        report = full_report(septic_f2(), SEPTIC_F2_FORM + EXACT_PART)
        assert max(check_report(report, (2.0 + 0.5j, -1.7 + 1.3j))) > 1e-8
        config = {"family": readme_config()["family"], "one_form": [
            {"i": i, "j": j, "coeff": coeff.to_json(), "differential": differential}
            for differential, part in (("dx", report.form.A), ("dy", report.form.B))
            for (i, j), coeff in part.terms.items()]}
        code, payload, _ = cli.execute(config)
        assert code == 4
        assert payload["oracle"]["passed"] is False

    def test_coefficients_converted_once_per_call(self, monkeypatch):
        # Both routes' samplers convert each exact coefficient to complex
        # once per integral, so the count does not grow with the number of
        # samples.  Conversions happen in GaussRat.to_complex (scalars),
        # algebra._horner_exact (c-polynomials: grid rows and pole locations)
        # and algebra._complex_coeffs (the form's coefficients).
        nf = septic_f2()
        rm = build_rectifier(nf)
        cycle = canonical_cycles(validate(nf))[0]
        c0 = 2.0 + 0.5j
        spec = _contour_around(_punctures(rm, c0), cycle.puncture, (0, 0))
        eta_t = rm.monomial_pushforward(1, 1)
        w = OneForm(BiPoly({(1, 1): GaussRat(1)}), BiPoly({(1, 1): GaussRat(2)}))
        calls = []
        for owner, name in ((GaussRat, "to_complex"), (algebra, "_horner_exact"),
                            (algebra, "_complex_coeffs")):
            original = getattr(owner, name)

            def counting(*args, original=original):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(owner, name, counting)
        counts = {}
        for samples in (64, 1024):
            fixed = ContourSpec(spec.center, spec.radius, samples=samples)
            del calls[:]
            _integrate_circle(eta_t.at_c(c0), fixed)
            t_calls = len(calls)
            del calls[:]
            _integrate_circle(_loop_sampler(rm, c0, (w.A.compiled(), w.B.compiled())), fixed)
            counts[samples] = (t_calls, len(calls))
        assert counts[64] == counts[1024]
        assert min(counts[64]) > 0

    def test_exact_engine_agrees_with_contours(self):
        report = full_report(septic_f2(), SEPTIC_F2_FORM)
        errors = check_report(report, (2.0 + 0.5j, -1.7 + 1.3j, 3.1 - 0.2j))
        assert len(errors) == 6
        assert max(errors) < 1e-8

    def test_value_line_reparametrization_equivalence(self):
        # sigma(c) = 2c carries H to 2 (H o psi^{-1}), so the normal form's
        # value coordinate is 2c and every exact integral doubles; the zero
        # counts, bounds and N_BC stay, and the oracle agrees on both.
        payloads = []
        for s1 in ("1", "2"):
            config = readme_config()
            config["automorphism"]["sigma"] = [s1, "0"]
            code, payload, _ = cli.execute(config)
            assert code == 0 and payload["oracle"]["passed"]
            payloads.append(payload)
        plain, doubled = payloads
        assert len(plain["cycles"]) == len(doubled["cycles"]) == 2
        for one, two in zip(plain["cycles"], doubled["cycles"]):
            assert UniPoly(two["integral_2pii"]) == UniPoly(one["integral_2pii"]).scale(2)
            assert two["zero_count"] == one["zero_count"]
        assert doubled["bounds"] == plain["bounds"]
        assert doubled["n_bc"] == plain["n_bc"]


def _oracle_circles(monkeypatch, config: dict):
    """(starting samples, samples evaluated) of every circle the CLI's oracle runs."""
    circles = []

    def counting(integrand, spec):
        evaluated = [0]

        def counted(points):
            evaluated[0] += len(points)
            return integrand(points)

        result = _integrate_circle(counted, spec)
        circles.append((spec.samples, evaluated[0]))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_integrate_circle", counting)
        code, payload, _ = cli.execute(config)
    assert code == 0 and payload["oracle"]["passed"]
    return circles


class TestStartLevel:
    def test_fixed_start_settles_on_an_aliased_value(self):
        # 1/z + z^127 on the unit circle: 64 and 128 samples both fold z^127
        # onto the residue term, agree, and settle on 2.  A lone
        # puncture with pole order 1 and degree 127 starts at 256, which
        # aliases no term.
        def integrand(points):
            return [1 / z + z ** 127 for z in points]

        fixed = _integrate_circle(integrand, ContourSpec(0j, 1.0, samples=64))
        assert abs(fixed - 2) < 1e-10
        start = _first_level(1, 127, None)
        assert start == 256
        derived = _integrate_circle(integrand, ContourSpec(0j, 1.0, samples=start))
        assert abs(derived - 1) < 1e-10

    def test_start_rule(self, monkeypatch):
        # Next to a neighbour at r = R/4 the floor is 32 and N0 > p; a lone
        # puncture needs N0 > max(p - 1, d + 1) and at least 4.
        assert _first_level(70, 0, 0.25) == 128
        assert _first_level(0, 0, 0.25) == 32
        assert _first_level(0, -3, None) == 4
        oscillator = _oracle_circles(monkeypatch, load_bundle("oscillator")["config"])
        assert {start for start, _ in oscillator} == {4}  # its one circle, around beta1
        f1_type04 = _oracle_circles(monkeypatch, load_bundle("f1_type04")["config"])
        assert len(f1_type04) == 9
        assert {start for start, _ in f1_type04} == {32}

    def test_public_routes_start_at_the_derived_level(self, monkeypatch):
        # Around the oscillator's lone puncture y dx pulls back to
        # eta_t = -c / (t - 1), pole order 1 and degree -1, and the fiber
        # route bounds it by pole order 1 and degree 0: both one-integral
        # routes start at the 4 samples _contour_around derives, not 64.
        rm = build_rectifier(oscillator_form())
        cycle = canonical_cycles(rm.facts)[0]
        starts = []

        def recording(integrand, spec):
            starts.append(spec.samples)
            return _integrate_circle(integrand, spec)

        monkeypatch.setattr(oracle, "_integrate_circle", recording)
        y_dx = OneForm(BiPoly({(0, 1): GaussRat(1)}), BiPoly())
        t_route = contour_integral_t(rm.monomial_pushforward(0, 1), rm, cycle, 3.0 + 0j)
        fiber = contour_integral_fiber(y_dx, rm, cycle, 3.0 + 0j)
        assert abs(t_route + 3) < 1e-12 and abs(fiber + 3) < 1e-12
        assert starts == [4, 4]

    @pytest.mark.parametrize("name, per_circle", [
        ("oscillator", 8), ("broughton", 32), ("type02_generic", 16),
        ("f2_type03", 64), ("f1_type04", 64), ("readme", 64)])
    def test_samples_per_circle(self, monkeypatch, name, per_circle):
        # The first level is exact or within roundoff, so every circle
        # settles on its second level: 2 N0 samples.
        config = readme_config() if name == "readme" else load_bundle(name)["config"]
        circles = _oracle_circles(monkeypatch, config)
        assert {evaluated for _, evaluated in circles} == {per_circle}

    def test_random_inputs_pass_or_stop_unsettled(self):
        # The oracle on random inputs with a nonempty basis either agrees
        # with the exact integrals or raises NonConvergence (a pole too
        # close to its circle); it never settles on a disagreeing value.
        rng = random.Random(2029)
        outcomes = {"pass": 0, "unsettled": 0, "fail": 0}
        checked = 0
        while checked < 100:
            nf = random_normal_form(rng)
            w = random_oneform(rng, rng.randint(1, 5))
            report = full_report(nf, w, rectifier=cached_rectifier(nf))
            if not report.basis_coeffs:
                continue
            checked += 1
            try:
                errors = check_report(report, cli._generic_c_values(report, []))
            except NonConvergence:
                outcomes["unsettled"] += 1
                continue
            outcomes["pass" if max(errors) <= 1e-8 else "fail"] += 1
        assert outcomes["fail"] == 0
        assert outcomes["pass"] > outcomes["unsettled"]
        assert outcomes["pass"] >= 70

    def test_correct_report_is_not_a_disagreement(self):
        # -2 x y^3 dy + x^2 y^3 dx - 5/7 x^2 y^3 dy on an F1 with
        # (p1, p, q1, q) = (1, 3, 0, 1): the exact integrals are right, and a
        # 60-digit trapezoid sum on the oracle's circles matches them.
        family = {"type": "F1", "p1": 1, "p": 3, "q1": 0, "q": 1, "k": 2,
                  "P": ["1", "-3"], "a": [2], "beta": ["3"]}
        form = [{"i": 1, "j": 3, "coeff": "-2", "differential": "dy"},
                {"i": 2, "j": 3, "coeff": "1", "differential": "dx"},
                {"i": 2, "j": 3, "coeff": "-5/7", "differential": "dy"}]
        code, payload, _ = cli.execute({"family": family, "one_form": form})
        assert code == 0 and payload["oracle"]["passed"]


class TestOriginalCoordinates:
    def test_original_side_loop_matches_exact_integral(self):
        # H = (u^2 + v^2)/2 carried to y(1 - x) by an explicit automorphism:
        # integrating omega along the original-coordinates loop must match
        # the exact engine applied to the pushed-forward form.
        from abelint import pushforward_oneform
        from test_transform import oscillator_automorphism

        aut = oscillator_automorphism()
        omega = OneForm(BiPoly({(0, 1): GaussRat(1)}), BiPoly())  # v du
        theta = pushforward_oneform(omega, aut)
        nf = oscillator_form()
        report = full_report(nf, theta)
        rm = build_rectifier(nf)
        cycle = canonical_cycles(validate(nf))[0]
        g1, g2 = aut.inverse
        g1_xy, g2_xy = g1.compiled(), g2.compiled()
        partials = [p.compiled() for p in
                    (g1.partial(0), g1.partial(1), g2.partial(0), g2.partial(1))]
        a_uv, b_uv = omega.A.compiled(), omega.B.compiled()
        rng = random.Random(107)
        samples = 4096
        step = 2 * math.pi / samples
        for _ in range(10):
            c0 = complex(rng.uniform(1, 3), rng.uniform(-1, 1))
            spec = _contour_around(_punctures(rm, c0), cycle.puncture, (0, 0))
            rotations = [spec.radius * cmath.exp(1j * step * idx) for idx in range(samples)]
            ts = [spec.center + rotation for rotation in rotations]
            xs, dxs = rm.inverse_x.at_c(c0, slopes=True)(ts)
            ys, dys = rm.inverse_y.at_c(c0, slopes=True)(ts)
            us, vs = g1_xy(xs, ys), g2_xy(xs, ys)
            u_x, u_y, v_x, v_y = (p(xs, ys) for p in partials)
            a_values, b_values = a_uv(us, vs), b_uv(us, vs)
            total = 0j
            for k, rotation in enumerate(rotations):
                dt = 1j * rotation * step
                du = u_x[k] * dxs[k] + u_y[k] * dys[k]
                dv = v_x[k] * dxs[k] + v_y[k] * dys[k]
                total += (a_values[k] * du + b_values[k] * dv) * dt
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

    def test_close_roots_are_returned(self):
        # (c - 2)^2 times a quadratic: the double root is only resolved to
        # about sqrt(eps), so the step stalls above tol while every residual
        # is already at Horner's rounding bound.
        poly = UniPoly([1677038193843691648, 1788440340679096036,
                        -1311257721007752292, -868591631423415559,
                        433740316263528120])
        roots = sorted(locate_roots(poly), key=lambda z: z.real)
        assert len(roots) == 4
        assert abs(roots[2] - 2) < 1e-7 and abs(roots[3] - 2) < 1e-7

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            locate_roots(UniPoly())

    @pytest.mark.parametrize("coeffs, root", [
        ([Fraction(1, 10 ** 400), 1], 0),  # a coefficient below the double range
        ([0, -10 ** 400], 0),  # one beyond it
        ([Fraction(1, 10 ** 400), Fraction(1, 10 ** 400)], -1),  # both below it
        ([Fraction(-3, 10 ** 400), Fraction(2, 10 ** 400)], 1.5),
    ])
    def test_roots_in_range_are_located_whatever_the_coefficient_scale(self, coeffs, root):
        assert locate_roots(UniPoly(coeffs)) == [pytest.approx(root, abs=1e-12)]

    def test_root_beyond_the_double_range_is_an_overflow(self):
        with pytest.raises(OverflowError):
            locate_roots(UniPoly([-10 ** 400, 1]))

    def test_degenerate_contour_reports_nonconvergence(self, monkeypatch):
        # Pole directly on the contour: the doubling loop cannot settle
        import abelint.oracle as oracle_module
        monkeypatch.setattr(oracle_module, "MAX_SAMPLES", 2 ** 12)
        f = RatFunc(BiPoly.const(GaussRat(1)),
                    {t_factor(GaussRat(0), GaussRat(0)): 1})
        with pytest.raises(NonConvergence):
            _integrate_circle(f.at_c(1.0 + 0j), ContourSpec(1.0 + 0j, 1.0, 64))
