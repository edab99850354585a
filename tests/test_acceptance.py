"""Acceptance gate: the eight end-to-end criteria with their stated tolerances.

1. Exact golden output for the degree-7 family-two example (< 5 s).
2. Exact golden output for the degree-7 family-one example with its moving
   puncture (< 10 s).
3. Harmonic-oscillator sharpness law Z = [(n-1)/2] and degree bound
   [(n+1)/2] on 200 random forms.
4. Cubic (rank-one at infinity) sharpness law Z = [(n+1)/3] and degree
   bound on 200 random forms.
5. Polynomiality plus per-row degree bounds and zero-count caps on 500
   random valid instances across all families and both sign branches.
6. Oracle agreement on every bundled example at 10 generic points, both
   contour routes, 1e-8 relative, < 60 s total.
7. Residue-sum identity (finite poles plus infinity equals zero) on 100
   random pushed-forward basis forms.
8. Exact forms dQ integrate to exactly zero on every cycle, 100 draws.
"""

import json
import random
import time
from pathlib import Path

from abelint import (
    BiPoly,
    GaussRat,
    NormalForm,
    OneForm,
    UniPoly,
    canonical_cycles,
    check_report,
    full_report,
    integrate_cycle,
    reduce_to_nonexact_basis,
    validate,
)
from abelint.algebra import C_FACTOR

from conftest import (
    F1_MINUS_SHAPES,
    F1_PLUS_SHAPES,
    F2_MINUS_SHAPES,
    F2_PLUS_SHAPES,
    F2_RANK1_SHAPES,
    cached_rectifier,
    random_normal_form,
    random_oneform,
)
from reference import fraction_sum, residue_at_infinity, residue_pair

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "src/abelint/examples"


def form_dx(terms):
    return OneForm(BiPoly({(i, j): GaussRat(v) for i, j, v in terms}), BiPoly())


def oscillator_nf():
    return NormalForm("F3", a=(1,), beta=(GaussRat(1),))


def cubic_nf():
    return NormalForm("F3", a=(2,), beta=(GaussRat(1),), h=UniPoly([-1, 1]))


# ---------------------------------------------------------------------------
# Criterion 1
# ---------------------------------------------------------------------------

def test_criterion_1_golden_family_two():
    start = time.monotonic()
    nf = NormalForm("F2", p1=0, p=1, q1=1, q=2, k=1, P=UniPoly([-1]),
                    a=(1,), beta=(GaussRat(1),))
    w = form_dx([(0, 3, 1), (1, 2, -108), (0, 1, -66)])
    report = full_report(nf, w)
    first = UniPoly([1, 1]).scale(GaussRat(3)) * UniPoly([-58, -36, 0, 0, 0, 3, 4])
    second = (UniPoly([-1, 1]) * UniPoly([2, 1])
              * UniPoly([-58, 18, -2, 8, 3, 4])).scale(GaussRat(-3))
    assert report.integrals[0].value == first
    assert report.integrals[1].value == second
    assert report.zero_counts == (6, 7)
    assert report.n_bc == 13
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# Criterion 2
# ---------------------------------------------------------------------------

def test_criterion_2_golden_family_one_moving_pole():
    start = time.monotonic()
    nf = NormalForm("F1", p1=0, p=1, q1=1, q=2, k=1, P=UniPoly([-1]),
                    a=(1,), beta=(GaussRat(1),))
    w = form_dx([(0, 3, 1), (2, 1, -96), (0, 1, 1008)])
    report = full_report(nf, w)
    first = (UniPoly([1, 1])
             * UniPoly([168, 0, 0, 1, -1, -2, 2])).scale(GaussRat(6))
    second = (UniPoly([-2, 1])
              * UniPoly([252, 42, 21, 10, 5, 4, 2])).scale(GaussRat(-6))
    third = (UniPoly([5, 2]) * UniPoly([-4, 1])).scale(GaussRat(96))
    assert report.integrals[0].value == first
    assert report.integrals[1].value == second
    assert report.integrals[2].value == third
    assert report.zero_counts == (6, 7, 2)
    assert report.n_bc == 15
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# Criterion 3
# ---------------------------------------------------------------------------

def _oscillator_extremal_form(s: int) -> OneForm:
    """A(H) y dx with A = (H - 1)...(H - s); degree n = 2s + 1."""
    x, y = BiPoly.var(0), BiPoly.var(1)
    h = y * (BiPoly.const(GaussRat(1)) - x)
    a_poly = BiPoly.const(GaussRat(1))
    for root in range(1, s + 1):
        a_poly = a_poly * (h - BiPoly.const(GaussRat(root)))
    return OneForm(a_poly * y, BiPoly())


def test_criterion_3_oscillator_sharpness():
    nf = oscillator_nf()
    for n in (1, 3, 5, 7, 9):
        s = (n - 1) // 2
        w = _oscillator_extremal_form(s)
        assert w.degree == n
        report = full_report(nf, w)
        assert report.zero_counts == (s,), f"n={n}"


def test_criterion_3_oscillator_degree_bound():
    nf = oscillator_nf()
    rm = cached_rectifier(nf)
    cycle = canonical_cycles(validate(nf))[0]
    rng = random.Random(2026)
    for trial in range(200):
        n = rng.choice((1, 3, 5, 7, 9))
        w = random_oneform(rng, n)
        n_actual = int(w.degree)
        coeffs, _ = reduce_to_nonexact_basis(w)
        ai = integrate_cycle(rm, coeffs, cycle)
        if not ai.identically_zero:
            assert ai.value.degree <= (n_actual + 1) // 2, (trial, w)


# ---------------------------------------------------------------------------
# Criterion 4
# ---------------------------------------------------------------------------

def _cubic_extremal_form(n: int) -> OneForm:
    """(y^n - s((1 - x)^{2s-1} y^s - y)) dx with s = [(n+1)/3]."""
    s = (n + 1) // 3
    x, y = BiPoly.var(0), BiPoly.var(1)
    one = BiPoly.const(GaussRat(1))
    body = y ** n - ((one - x) ** (2 * s - 1) * y ** s - y).scale(GaussRat(s))
    return OneForm(body, BiPoly())


def test_criterion_4_cubic_sharpness():
    nf = cubic_nf()
    for n in (2, 5, 8):
        s = (n + 1) // 3
        w = _cubic_extremal_form(n)
        report = full_report(nf, w)
        # integral is s(c^s - 1): zeros are the s-th roots of unity
        expected = UniPoly([-s] + [0] * (s - 1) + [s])
        assert report.integrals[0].value == expected, f"n={n}"
        assert report.zero_counts == (s,), f"n={n}"


def test_criterion_4_cubic_degree_bound():
    nf = cubic_nf()
    rm = cached_rectifier(nf)
    cycle = canonical_cycles(validate(nf))[0]
    rng = random.Random(2027)
    for trial in range(200):
        n = rng.randint(2, 8)
        w = random_oneform(rng, n)
        n_actual = int(w.degree)
        coeffs, _ = reduce_to_nonexact_basis(w)
        ai = integrate_cycle(rm, coeffs, cycle)
        if not ai.identically_zero:
            assert ai.value.degree <= (n_actual + 1) // 3, (trial, w)


# ---------------------------------------------------------------------------
# Criterion 5
# ---------------------------------------------------------------------------

def test_criterion_5_polynomiality_and_bounds_500_instances():
    rng = random.Random(2028)
    branch_shapes = [F1_PLUS_SHAPES, F1_MINUS_SHAPES, F2_PLUS_SHAPES,
                     F2_MINUS_SHAPES, F2_RANK1_SHAPES, [("F3", None)]]
    checked = 0
    while checked < 500:
        shapes = branch_shapes[checked % len(branch_shapes)]
        nf = random_normal_form(rng, shapes=shapes)
        facts = validate(nf)
        assert facts.degree - 1 <= 8
        w = random_oneform(rng, rng.randint(1, 5))
        # full_report raises NonPolynomialResidue if cancellation ever fails
        report = full_report(nf, w)
        for entry in report.ledger.entries:
            if entry.name in ("integral_degree_row", "zero_count_cap"):
                assert entry.satisfied, (nf, w, entry)
        checked += 1
    assert checked == 500


# ---------------------------------------------------------------------------
# Criterion 6
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_agreement_on_bundled_examples():
    start = time.monotonic()
    rng = random.Random(2029)
    q_poly = BiPoly({(2, 1): GaussRat(1), (0, 2): GaussRat(-2), (1, 0): GaussRat(3)})
    for path in sorted(EXAMPLES_DIR.glob("*.json")):
        bundle = json.loads(path.read_text())
        from abelint.cli import Problem
        problem = Problem(bundle["config"])
        report = full_report(problem.normal_form, problem.one_form)
        bad = [b.to_complex() for b in report.bifurcation_set_used]
        c_values = []
        while len(c_values) < 10:
            candidate = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(candidate - b) > 0.3 for b in bad) and abs(candidate) > 0.3:
                c_values.append(candidate)
        # Every bundled form is its own basis form, so its fiber route is its
        # t-route; omega + dQ differs from its basis form and runs both.
        exact_report = full_report(problem.normal_form, problem.one_form + OneForm.d(q_poly))
        assert exact_report.form != OneForm(BiPoly(exact_report.basis_coeffs), BiPoly())
        for checked in (report, exact_report):
            errors_t, errors_f = check_report(checked, c_values)
            assert len(errors_t) == 10 * len(checked.integrals), path.name
            assert max(errors_t) <= 1e-8, path.name
            assert max(errors_f) <= 1e-8, path.name
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# Criterion 7
# ---------------------------------------------------------------------------

def test_criterion_7_residue_sum_identity_100_forms():
    rng = random.Random(2030)
    for _ in range(100):
        nf = random_normal_form(rng)
        rm = cached_rectifier(nf)
        i, j = rng.randint(0, 3), rng.randint(1, 3)
        eta_t = rm.monomial_pushforward(i, j)
        total = fraction_sum([residue_at_infinity(eta_t)]
                             + [residue_pair(eta_t, factor)
                                for factor in eta_t.fac if factor != C_FACTOR])
        assert total[0].is_zero(), (nf, i, j)


# ---------------------------------------------------------------------------
# Criterion 8
# ---------------------------------------------------------------------------

def test_criterion_8_exact_forms_integrate_to_zero():
    rng = random.Random(2031)
    from conftest import random_bipoly
    for _ in range(100):
        nf = random_normal_form(rng)
        rm = cached_rectifier(nf)
        q_poly = random_bipoly(rng, 6)
        coeffs, _ = reduce_to_nonexact_basis(OneForm.d(q_poly))
        for cycle in canonical_cycles(validate(nf)):
            ai = integrate_cycle(rm, coeffs, cycle)
            assert ai.identically_zero, (nf, q_poly, cycle)
