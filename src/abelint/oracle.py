"""Floating-point verification independent of the exact engine.

Contour integrals are computed by the trapezoidal rule on circles with
sample doubling (periodic integrands converge spectrally), capped at 2^14
samples.  Sampling is by columns: a doubling level's new points, read off
a table of roots of unity, form one list, and each integrand is evaluated
on the whole list by a column evaluator (``RatFunc.at_c``,
``BiPoly.compiled``) that converts its exact coefficients to complex once
and runs each Horner step over the column.  The oracle integrates 1-forms
A dx + B dy along the fiber loop R^{-1}(circle) as A(x,y) dx/dt + B(x,y)
dy/dt, with x, y, dx/dt and dy/dt sampled from the factored inverse and
the trapezoid weights folded into dx/dt and dy/dt, so an integral's level
total is one ``sum``.  ``check_report`` integrates the basis form (the
t-route) and, when it differs, the report's own form (the fiber route) on
one circle per (cycle, c).  Each integral stops doubling once it settles.

N trapezoid points on a circle integrate exactly every Laurent term but
those of order -1 + m N, m != 0, which they fold onto the residue term.
``check_report`` therefore starts each circle at the first level that
folds none of its integrands' terms, or next to a neighbouring pole only
terms below double precision; it reads that level off exact bounds on the
integrands' pole order at the puncture and degree at infinity.  The
second level then only confirms the first.  ``_contour_around`` is the
one place that chooses a circle and its first level: ``check_report``
and the one-integral routes ``contour_integral_t`` (an eta_t, with its
own orders) and ``contour_integral_fiber`` (a form, with the bounds
``check_report`` uses) all take their circle from it.

A simultaneous-iteration root finder locates zeros of the exact integrals
for reporting.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .abelian import IntegralReport
from .algebra import BiPoly, RatFunc, TFactor, UniPoly, _complex_coeffs, _horner_complex
from .errors import NonConvergence
from .rectify import CanonicalCycle, RectifyingMap, canonical_cycles
from .transform import OneForm

TWO_PI_I = 2j * math.pi
REL_TOL = 1e-10
MAX_SAMPLES = 2 ** 14
ALIAS_FREE_BITS = 53  # next to a neighbour, start where (r/R)^N <= 2^-53
HORNER_SLACK = 4
ROOT_TOL = 1e-10
ROOT_MAX_ITERATIONS = 1000

Column = List[complex]
# values(points, weights, live): for each integral numbered in live, its
# integrand at every point times that point's trapezoid weight
Sampler = Callable[[Column, Column, Sequence[int]], List[Column]]


@dataclass(frozen=True)
class ContourSpec:
    """Circle around one puncture: center, radius and starting sample count."""

    center: complex
    radius: float
    samples: int

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")
        if self.samples < 4 or self.samples & (self.samples - 1):
            raise ValueError("sample count must be a power of two >= 4")


def _punctures(rm: RectifyingMap, c_value: complex) -> Dict[str, Tuple[TFactor, complex]]:
    """Every finite puncture's factor t - pi(c) and its position pi(c_value)."""
    punctures = {}
    for kind in rm.facts.puncture_kinds:
        factor = rm.puncture_factor(kind)
        punctures[kind] = factor, factor[1].evaluate_complex(c_value)
    return punctures


def _first_level(pole_order: int, degree: int, ratio: Optional[float]) -> int:
    """The first sample count whose trapezoid sum no Laurent term aliases.

    On N points of the circle |t - center| = r the rule returns the t^-1
    coefficient plus every coefficient of order -1 + m N, m != 0, times
    r^(m N).  A pole of order at most ``pole_order`` has no term of order
    -1 - N once N > pole_order.  With a neighbouring singularity at
    distance R (``ratio`` = r / R) the terms of order -1 + N shrink like
    (r/R)^N, below double precision once (r/R)^N <= 2^-53.  A lone
    puncture (``ratio`` None) has a Laurent polynomial of degree at most
    ``degree`` as integrand, so N > max(pole_order - 1, degree + 1) leaves
    no aliased term at all.  The result is the smallest such power of two,
    at least 4.
    """
    if ratio is None:
        bound = max(pole_order - 1, degree + 1)
    else:
        bound = max(pole_order, math.ceil(ALIAS_FREE_BITS / -math.log2(ratio)) - 1)
    samples = 4
    while samples <= bound:
        samples *= 2
    return samples


def _contour_around(punctures: Dict[str, Tuple[TFactor, complex]], puncture: str,
                    orders: Tuple[int, int]) -> ContourSpec:
    """Circle around one puncture, radius a quarter of the nearest gap.

    It starts at the ``_first_level`` of ``orders`` = (pole order bound,
    degree bound) of the integrands.
    """
    center = punctures[puncture][1]
    gaps = [abs(center - other) for _, other in punctures.values()
            if abs(center - other) > 0]
    nearest = min(gaps, default=None)
    radius = 1.0 if nearest is None else nearest / 4
    ratio = None if nearest is None else radius / nearest
    return ContourSpec(center, radius, _first_level(*orders, ratio))


@lru_cache(maxsize=None)  # one entry per power of two up to MAX_SAMPLES
def _roots_of_unity(samples: int) -> Tuple[complex, ...]:
    """exp(2 pi i k / samples) for k = 0 .. samples - 1."""
    step = 2 * math.pi / samples
    return tuple(cmath.exp(1j * step * idx) for idx in range(samples))


def _integrate_circle_many(values: Sampler, count: int,
                           spec: ContourSpec) -> List[complex]:
    """Trapezoidal contour integrals of ``count`` integrands on one circle.

    ``values(points, weights, live)`` returns, for each integral numbered
    in ``live`` and in that order, its integrand times the trapezoid weight
    dt/d(angle) at every point, so what the integrands share is evaluated
    once per level.  Each integral keeps its own running sum; a doubling
    evaluates only the new, odd-indexed points.  An integral stops at the
    first level whose estimate is within 1e-10 relative of the level
    before, and is not sampled after that.
    """
    totals, estimates = [0j] * count, [None] * count
    live = list(range(count))
    samples, first, stride = spec.samples, 0, 1
    while samples <= MAX_SAMPLES:
        roots = _roots_of_unity(samples)[first::stride]
        rotations = list(map(mul, roots, repeat(spec.radius, len(roots))))
        points = list(map(add, rotations, repeat(spec.center, len(roots))))
        weights = list(map(mul, rotations, repeat(1j, len(roots))))  # dt / d(angle)
        for k, column in zip(live, values(points, weights, live)):
            totals[k] = sum(column, totals[k])
        step = 2 * math.pi / samples
        unsettled = []
        for k in live:
            estimate = totals[k] * step
            last, estimates[k] = estimates[k], estimate
            if last is None or not abs(estimate - last) <= REL_TOL * (1 + abs(estimate)):
                unsettled.append(k)
        live = unsettled
        if not live:
            return estimates
        samples, first, stride = samples * 2, 1, 2
    raise NonConvergence(
        f"contour integral did not converge within {MAX_SAMPLES} samples "
        f"(center {spec.center}, radius {spec.radius}); a pole is likely "
        f"too close to the contour")


def _loop_sampler(rm: RectifyingMap, c_value: complex,
                  forms: Sequence[Tuple[Callable, Optional[Callable]]]) -> Sampler:
    """values(points, weights, live) at one c: each live form's fiber integrand.

    forms[k] = (A, B) holds the column evaluators of a 1-form A dx + B dy,
    B None for a dx-only form; integrand k is A(x,y) dx/dt + B(x,y) dy/dt.
    x, y and dx/dt (and dy/dt, if some form has a B) are compiled here and
    sampled once per level, dy/dt only while such a form is live.  The
    weights multiply dx/dt and dy/dt, so every integrand comes out weighted.
    """
    inverse_x, inverse_y = rm.inverse_x.at_c(c_value), rm.inverse_y.at_c(c_value)
    dx_dt = rm.dx_dt.at_c(c_value)
    dy_dt = rm.dy_dt.at_c(c_value) if any(b_xy for _, b_xy in forms) else None

    def values(points: Column, weights: Column, live: Sequence[int]) -> List[Column]:
        xs, ys = inverse_x(points), inverse_y(points)
        dx = list(map(mul, dx_dt(points), weights))
        dy = list(map(mul, dy_dt(points), weights)) if any(forms[k][1] for k in live) else None
        columns = []
        for a_xy, b_xy in (forms[k] for k in live):
            column = map(mul, a_xy(xs, ys), dx)
            if b_xy is not None:
                column = map(add, column, map(mul, b_xy(xs, ys), dy))
            columns.append(list(column))
        return columns

    return values


def _orders(f: RatFunc, factor: TFactor) -> Tuple[int, int]:
    """f's pole order at ``factor`` and its degree in t at infinity."""
    poles = sum(e for key, e in f.exps.items() if key[0] == "t")  # signed
    return f.pole_order(factor), len(f.grid.re) - 1 - poles


def _order_bounds(rm: RectifyingMap, factor: TFactor,
                  forms: Sequence[OneForm]) -> Tuple[int, int]:
    """(p, d): bounds on the pole order at ``factor`` and on the degree at
    infinity of the fiber integrands of ``forms``: each A term's
    x^i y^j dx/dt and each B term's x^i y^j dy/dt (dy/dt is read only when
    some B != 0).

    A product's pole order is at most the sum of its factors' and its
    degree is the sum of theirs, so both bounds come from the signed
    exponents in ``.exps`` and the t-degree of the grid, not from
    ``monomial_pushforward``, which the t-route checks.
    """
    integrands = [(rm.dx_dt, [ij for form in forms for ij in form.A.terms])]
    if any(not form.B.is_zero() for form in forms):
        integrands.append((rm.dy_dt, [ij for form in forms for ij in form.B.terms]))
    (px, dx), (py, dy) = _orders(rm.inverse_x, factor), _orders(rm.inverse_y, factor)
    pole_order = degree = 0
    for derivative, exponents in integrands:
        pd, dd = _orders(derivative, factor)
        for i, j in exponents:
            pole_order = max(pole_order, i * px + j * py + pd)
            degree = max(degree, i * dx + j * dy + dd)
    return pole_order, degree


def contour_integral_t(eta_t: RatFunc, rm: RectifyingMap, cycle: CanonicalCycle,
                       c_value: complex) -> complex:
    """Numeric loop integral of eta_t dt around the cycle's puncture, over 2*pi*i.

    The circle starts at the first level of eta_t's own pole order at the
    puncture and degree at infinity.
    """
    punctures = _punctures(rm, c_value)
    orders = _orders(eta_t, punctures[cycle.puncture][0])
    integrand = eta_t.at_c(c_value)
    return _integrate_circle_many(
        lambda points, weights, live: [list(map(mul, integrand(points), weights))],
        1, _contour_around(punctures, cycle.puncture, orders))[0] / TWO_PI_I


def contour_integral_fiber(w: OneForm, rm: RectifyingMap, cycle: CanonicalCycle,
                           c_value: complex) -> complex:
    """Numeric integral of w along the fiber loop R^{-1}(circle), over 2*pi*i.

    The loop is parametrized through the inverse map: for t on the circle,
    (x, y) = (inverse_x, inverse_y)(t, c) and dx = (d inverse_x / dt) dt,
    dy likewise.  The circle starts where ``check_report``'s would for a
    report whose form is w and has no basis monomials.
    """
    punctures = _punctures(rm, c_value)
    orders = _order_bounds(rm, punctures[cycle.puncture][0], [w])
    compiled = [(w.A.compiled(), None if w.B.is_zero() else w.B.compiled())]
    return _integrate_circle_many(
        _loop_sampler(rm, c_value, compiled), 1, _contour_around(punctures, cycle.puncture, orders))[0] / TWO_PI_I


def check_report(report: IntegralReport,
                 c_values: Sequence[complex]) -> Tuple[List[float], List[float]]:
    """Relative errors (t-route vs exact, fiber vs t-route) per (cycle, c).

    The t-route integrates the basis form sum c_ij x^i y^j dx along the
    fiber loop, with x, y and dx/dt sampled from the factored inverse, not
    read off ``monomial_pushforward``, so it checks the pushforward and
    the residues.  The fiber route integrates ``report.form`` and so
    checks ``reduce_to_nonexact_basis``; when that form is its basis form
    the two integrals are bit-identical, so only one runs and the fiber
    error is 0.0.  The forms are compiled once per call, the inverse and
    the punctures once per c, and each (cycle, c) runs one sample loop.

    Each circle starts at the ``_first_level`` of the exact bounds that
    ``_order_bounds`` puts on its integrands: exact for a lone puncture and
    within roundoff next to a neighbour, so the second level confirms the
    first.  A contour unsettled at 2^14 samples raises NonConvergence.
    """
    rm = report.rectifier
    basis = OneForm(BiPoly(report.basis_coeffs), BiPoly())
    forms = [basis] if report.form == basis else [basis, report.form]
    compiled = [(w.A.compiled(), None if w.B.is_zero() else w.B.compiled()) for w in forms]
    per_c = [(c_value, _punctures(rm, c_value), _loop_sampler(rm, c_value, compiled))
             for c_value in c_values]
    bounds: Dict[TFactor, Tuple[int, int]] = {}
    errors_t, errors_f = [], []
    for cycle, ai in zip(canonical_cycles(report.facts), report.integrals):
        for c_value, punctures, values in per_c:
            factor = punctures[cycle.puncture][0]
            if factor not in bounds:
                bounds[factor] = _order_bounds(rm, factor, forms)
            spec = _contour_around(punctures, cycle.puncture, bounds[factor])
            numeric, *fiber = [v / TWO_PI_I for v in
                               _integrate_circle_many(values, len(forms), spec)]
            exact = ai.value.evaluate_complex(c_value)
            errors_t.append(abs(numeric - exact) / (1 + abs(exact)))
            errors_f.append(abs(fiber[0] - numeric) / (1 + abs(numeric)) if fiber else 0.0)
    return errors_t, errors_f


def locate_roots(p: UniPoly) -> List[complex]:
    """All complex roots by simultaneous iteration; count equals the degree."""
    if p.is_zero():
        raise ValueError("cannot locate roots of the zero polynomial")
    degree = int(p.degree)
    if degree == 0:
        return []
    # Over a power of two near the leading coefficient, not the denominator
    # (which moves no root), so that coefficient neither under- nor overflows.
    top = max(abs(p.re[-1]), abs(p.im[-1]) if p.im else 0)
    coeffs = _complex_coeffs(1 << top.bit_length(), p.re, p.im)
    monic = [c / coeffs[-1] for c in coeffs]

    def settled(z: complex) -> bool:
        # Below ROOT_TOL, or below a few times Horner's rounding bound
        # (deg+1) eps sum |a_k| |z|^k: large, widely spread coefficients
        # keep the computed residual of a converged root above any fixed tol.
        rounding = (degree + 1) * sys.float_info.epsilon * sum(
            abs(c) * abs(z) ** k for k, c in enumerate(monic))
        return abs(_horner_complex(monic, z)) < max(ROOT_TOL * (1 + abs(z) ** degree),
                                      HORNER_SLACK * rounding)

    # Standard staggered starting points on a spiral
    roots = [(0.4 + 0.9j) ** (idx + 1) for idx in range(degree)]
    for _ in range(ROOT_MAX_ITERATIONS):
        shift = 0.0
        for idx in range(degree):
            denom = 1 + 0j
            for other in range(degree):
                if other != idx:
                    denom *= roots[idx] - roots[other]
            if denom == 0:
                roots[idx] += 1e-8 * (1 + 1j)
                denom = 1e-8
            delta = _horner_complex(monic, roots[idx]) / denom
            roots[idx] -= delta
            shift = max(shift, abs(delta))
        if shift < ROOT_TOL and all(settled(z) for z in roots):
            return roots
    # A cluster of close or repeated roots is resolved only to about
    # sqrt(eps), so the step can stall above ROOT_TOL while every residual is
    # already at rounding level.
    if all(settled(z) for z in roots):
        return roots
    raise NonConvergence(
        f"root finder did not reach residual {ROOT_TOL} in {ROOT_MAX_ITERATIONS} iterations")
