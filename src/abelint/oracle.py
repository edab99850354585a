"""Floating-point verification independent of the exact engine.

Contour integrals are computed by the trapezoidal rule on circles with
sample doubling (periodic integrands converge spectrally), capped at 2^14
samples.  Sampling is by columns: a doubling level's new points, read off
a table of roots of unity, form one list, and the integrand is evaluated
on the whole list by column evaluators (``RatFunc.at_c``,
``BiPoly.compiled``) that convert their exact coefficients to complex once
and run each Horner step over the column.  The oracle integrates 1-forms
A dx + B dy along the fiber loop R^{-1}(circle) as A(x,y) dx/dt + B(x,y)
dy/dt, with x, y and their t-derivatives sampled together from the
factored inverse, not from the engine's ``RatFunc.derivative``.  An
integrand is a plain column function of t; the circle applies the weights
and returns the integral over 2*pi*i.  ``check_report`` integrates the
report's own form on one circle per (cycle, c) against the exact integral.

N trapezoid points on a circle integrate exactly every Laurent term but
those of order -1 + m N, m != 0, which they fold onto the residue term.
``check_report`` therefore starts each circle at the first level that
folds none of the integrand's terms, or next to a neighbouring pole only
terms below double precision; it reads that level off exact bounds on the
integrand's pole order at the puncture and degree at infinity.  The
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
from .algebra import RatFunc, TFactor, UniPoly, _complex_coeffs, _horner_complex
from .errors import NonConvergence
from .rectify import CanonicalCycle, RectifyingMap
from .transform import OneForm

TWO_PI_I = 2j * math.pi
REL_TOL = 1e-10
MAX_SAMPLES = 2 ** 14
ALIAS_FREE_BITS = 53  # next to a neighbour, start where (r/R)^N <= 2^-53
HORNER_SLACK = 4
ROOT_TOL = 1e-10
ROOT_MAX_ITERATIONS = 1000

Column = List[complex]
Integrand = Callable[[Column], Column]  # f(t) at every point t of a column


@dataclass(frozen=True)
class ContourSpec:
    """Circle around one puncture: center, radius and starting sample count."""

    center: complex
    radius: float
    samples: int


def _punctures(rm: RectifyingMap, c_value: complex) -> Dict[str, complex]:
    """Every finite puncture's position pi(c_value), its factor being t - pi(c)."""
    return {kind: factor[1].evaluate_complex(c_value) for kind, factor in rm.factors.items()}


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


def _contour_around(punctures: Dict[str, complex], puncture: str,
                    orders: Tuple[int, int]) -> ContourSpec:
    """Circle around one puncture, radius a quarter of the nearest gap.

    It starts at the ``_first_level`` of ``orders`` = (pole order bound,
    degree bound) of the integrands.
    """
    center = punctures[puncture]
    gaps = [abs(center - other) for other in punctures.values() if abs(center - other) > 0]
    nearest = min(gaps, default=None)
    radius = 1.0 if nearest is None else nearest / 4
    ratio = None if nearest is None else radius / nearest
    return ContourSpec(center, radius, _first_level(*orders, ratio))


@lru_cache(maxsize=None)  # one entry per power of two up to MAX_SAMPLES
def _roots_of_unity(samples: int) -> Tuple[complex, ...]:
    """exp(2 pi i k / samples) for k = 0 .. samples - 1."""
    step = 2 * math.pi / samples
    return tuple(cmath.exp(1j * step * idx) for idx in range(samples))


def _integrate_circle(integrand: Integrand, spec: ContourSpec) -> complex:
    """Trapezoidal integral of f(t) dt on one circle, over 2*pi*i.

    Each value of ``integrand`` is multiplied by its point's trapezoid
    weight dt/d(angle) = i (t - center).  A doubling evaluates only the
    new, odd-indexed points and adds them to the running sum.  The integral
    stops at the first level whose estimate is within 1e-10 relative of
    the level before.
    """
    total, estimate = 0j, None
    samples, first, stride = spec.samples, 0, 1
    while samples <= MAX_SAMPLES:
        roots = _roots_of_unity(samples)[first::stride]
        rotations = list(map(mul, roots, repeat(spec.radius, len(roots))))
        points = list(map(add, rotations, repeat(spec.center, len(roots))))
        weights = map(mul, rotations, repeat(1j))  # dt / d(angle)
        total = sum(map(mul, integrand(points), weights), total)
        last, estimate = estimate, total * (2 * math.pi / samples)
        if last is not None and abs(estimate - last) <= REL_TOL * (1 + abs(estimate)):
            return estimate / TWO_PI_I
        samples, first, stride = samples * 2, 1, 2
    raise NonConvergence(
        f"contour integral did not converge within {MAX_SAMPLES} samples "
        f"(center {spec.center}, radius {spec.radius}); a pole is likely "
        f"too close to the contour")


def _loop_sampler(rm: RectifyingMap, c_value: complex,
                  form: Tuple[Callable, Optional[Callable]]) -> Integrand:
    """The fiber integrand of one form at one c, as a function of t.

    form = (A, B) holds the column evaluators of a 1-form A dx + B dy, B
    None for a dx-only form; the integrand is A(x,y) dx/dt + B(x,y) dy/dt.
    x with dx/dt, and y with dy/dt when B is given, are compiled here.
    """
    a_xy, b_xy = form
    inverse_x = rm.inverse_x.at_c(c_value, slopes=True)
    inverse_y = rm.inverse_y.at_c(c_value, slopes=b_xy is not None)

    def integrand(points: Column) -> Column:
        xs, dxs = inverse_x(points)
        if b_xy is None:
            return list(map(mul, a_xy(xs, inverse_y(points)), dxs))
        ys, dys = inverse_y(points)
        return list(map(add, map(mul, a_xy(xs, ys), dxs), map(mul, b_xy(xs, ys), dys)))

    return integrand


def _orders(f: RatFunc, factor: TFactor) -> Tuple[int, int]:
    """f's pole order at ``factor`` and its degree in t at infinity."""
    poles = sum(e for key, e in f.exps.items() if key[0] == "t")  # signed
    return f.pole_order(factor), len(f.grid.re) - 1 - poles


def _order_bounds(rm: RectifyingMap, factor: TFactor, w: OneForm) -> Tuple[int, int]:
    """(p, d): bounds on the pole order at ``factor`` and on the degree at
    infinity of w's fiber integrand: each A term's x^i y^j dx/dt and each
    B term's x^i y^j dy/dt.

    A product's pole order is at most the sum of its factors' and its
    degree is the sum of theirs, so both bounds come from x's and y's
    signed exponents in ``.exps`` and the t-degrees of their grids, not
    from ``monomial_pushforward``, which the oracle checks.  A derivative's
    pole order is p + 1 where p > 0, its degree d - 1 where d != 0, else <= -2.
    """
    (px, dx), (py, dy) = _orders(rm.inverse_x, factor), _orders(rm.inverse_y, factor)
    pole_order = degree = 0
    for p, d, exponents in ((px, dx, w.A.terms), (py, dy, w.B.terms)):
        pd, dd = p + 1 if p else 0, d - 1 if d else -2
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
    orders = _orders(eta_t, rm.factors[cycle.puncture])
    return _integrate_circle(eta_t.at_c(c_value),
                             _contour_around(_punctures(rm, c_value), cycle.puncture, orders))


def contour_integral_fiber(w: OneForm, rm: RectifyingMap, cycle: CanonicalCycle,
                           c_value: complex) -> complex:
    """Numeric integral of w along the fiber loop R^{-1}(circle), over 2*pi*i.

    The loop is parametrized through the inverse map: for t on the circle,
    (x, y) = (inverse_x, inverse_y)(t, c) and dx = (d inverse_x / dt) dt,
    dy likewise.  The circle starts where ``check_report``'s would for a
    report whose form is w.
    """
    orders = _order_bounds(rm, rm.factors[cycle.puncture], w)
    integrand = _loop_sampler(rm, c_value, (w.A.compiled(), None if w.B.is_zero() else w.B.compiled()))
    return _integrate_circle(integrand,
                             _contour_around(_punctures(rm, c_value), cycle.puncture, orders))


def check_report(report: IntegralReport, c_values: Sequence[complex]) -> List[float]:
    """Relative error of the loop integral of ``report.form`` against the
    exact integral I(c), evaluated exactly and rounded once, per (cycle, c).

    The form is integrated along the fiber loop with x, y and their slopes
    sampled from the factored inverse, not read off ``monomial_pushforward``
    or ``derivative``.  It differs from its basis form by an exact form,
    whose loop integrals vanish, so one integral per (cycle, c) checks the
    reduction, the pushforward, dx/dt and the residues.  The form is
    compiled once per call, the inverse and the punctures once per c.

    Each circle starts at the ``_first_level`` of the bounds that
    ``_order_bounds`` puts on the integrand, once per cycle: exact for a
    lone puncture and within roundoff next to a neighbour, so the second
    level confirms the first.  A contour unsettled at 2^14 samples raises
    NonConvergence.
    """
    rm, w = report.rectifier, report.form
    form = (w.A.compiled(), None if w.B.is_zero() else w.B.compiled())
    per_c = [(c_value, _punctures(rm, c_value), _loop_sampler(rm, c_value, form))
             for c_value in c_values]
    errors = []
    for ai in report.integrals:
        orders = _order_bounds(rm, rm.factors[ai.cycle.puncture], w)
        for c_value, punctures, integrand in per_c:
            spec = _contour_around(punctures, ai.cycle.puncture, orders)
            numeric = _integrate_circle(integrand, spec)
            exact = ai.value.evaluate_complex(c_value)
            errors.append(abs(numeric - exact) / (1 + abs(exact)))
    return errors


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
