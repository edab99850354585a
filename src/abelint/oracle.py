"""Floating-point verification independent of the exact engine.

Contour integrals are computed by the trapezoidal rule on circles with
sample doubling (periodic integrands converge spectrally), both on the
rectified t-plane and along the pulled-back fiber loops; ``check_report``
measures an exact report against both.  Each integrand is compiled once
per call, at its fixed c (``RatFunc.at_c``, ``BiPoly.compiled``), into
complex Horner tables, so the samples touch floats only.  A
simultaneous-iteration root finder locates zeros of the exact integrals
for reporting.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .abelian import IntegralReport
from .algebra import RatFunc, UniPoly
from .errors import NonConvergence
from .rectify import CanonicalCycle, RectifyingMap, canonical_cycles
from .transform import OneForm

TWO_PI_I = 2j * math.pi
REL_TOL = 1e-10
MAX_SAMPLES = 2 ** 20
HORNER_SLACK = 4


@dataclass(frozen=True)
class ContourSpec:
    """Circle around one puncture: center, radius and starting sample count."""

    center: complex
    radius: float
    samples: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")
        if self.samples < 4 or self.samples & (self.samples - 1):
            raise ValueError("sample count must be a power of two >= 4")


def default_contour(rm: RectifyingMap, cycle: CanonicalCycle,
                    c_value: complex) -> ContourSpec:
    """Circle around the cycle's puncture, radius a quarter of the nearest gap."""
    locations = [rm.puncture_location(kind).evaluate_complex(c_value)
                 for kind in rm.facts.puncture_kinds]
    center = rm.puncture_location(cycle.puncture).evaluate_complex(c_value)
    gaps = [abs(center - other) for other in locations if abs(center - other) > 0]
    radius = min(gaps) / 4 if gaps else 1.0
    return ContourSpec(center, radius)


def _integrate_circle(integrand: Callable[[complex], complex],
                      spec: ContourSpec) -> complex:
    """Trapezoidal contour integral with doubling until 1e-10 relative.

    Each doubling evaluates only the new, odd-indexed points and adds them
    to the running sum of the level before.
    """
    samples, first, stride = spec.samples, 0, 1
    total, previous = 0j, None
    while samples <= MAX_SAMPLES:
        step = 2 * math.pi / samples
        for idx in range(first, samples, stride):
            rotation = spec.radius * cmath.exp(1j * step * idx)
            total += integrand(spec.center + rotation) * (1j * rotation)
        estimate = total * step
        if previous is not None:
            if abs(estimate - previous) <= REL_TOL * (1 + abs(estimate)):
                return estimate
        previous = estimate
        samples, first, stride = samples * 2, 1, 2
    raise NonConvergence(
        f"contour integral did not converge within {MAX_SAMPLES} samples "
        f"(center {spec.center}, radius {spec.radius}); a pole is likely "
        f"too close to the contour")


def contour_integral_t(eta_t: RatFunc, c_value: complex,
                       spec: ContourSpec) -> complex:
    """Numeric loop integral of eta_t dt, divided by 2*pi*sqrt(-1)."""
    return _integrate_circle(eta_t.at_c(c_value), spec) / TWO_PI_I


def contour_integral_fiber(w: OneForm, rm: RectifyingMap, cycle: CanonicalCycle,
                           c_value: complex,
                           spec: Optional[ContourSpec] = None) -> complex:
    """Numeric integral of w along the fiber loop R^{-1}(circle), over 2*pi*i.

    The loop is parametrized through the inverse map: for t on the circle,
    (x, y) = (inverse_x, inverse_y)(t, c) and dx = (d inverse_x / dt) dt,
    dy likewise.
    """
    if spec is None:
        spec = default_contour(rm, cycle, c_value)
    inverse_x, inverse_y = rm.inverse_x.at_c(c_value), rm.inverse_y.at_c(c_value)
    dx_dt, a_xy = rm.dx_dt.at_c(c_value), w.A.compiled()
    if w.B.is_zero():  # a dx-only form neither builds nor samples dy/dt

        def integrand(t: complex) -> complex:
            return a_xy(inverse_x(t), inverse_y(t)) * dx_dt(t)
    else:
        dy_dt, b_xy = rm.dy_dt.at_c(c_value), w.B.compiled()

        def integrand(t: complex) -> complex:
            x_val, y_val = inverse_x(t), inverse_y(t)
            return a_xy(x_val, y_val) * dx_dt(t) + b_xy(x_val, y_val) * dy_dt(t)

    return _integrate_circle(integrand, spec) / TWO_PI_I


def check_report(report: IntegralReport, form: OneForm,
                 c_values: Sequence[complex]) -> Tuple[List[float], List[float]]:
    """Relative errors (t-route vs exact, fiber vs t-route) per (cycle, c).

    The t-route sums the weighted basis integrals of eta_t dt; the fiber
    route integrates ``form`` along the pulled-back loop.
    """
    rm = report.rectifier
    errors_t, errors_f = [], []
    for cycle, ai in zip(canonical_cycles(report.facts), report.integrals):
        for c_value in c_values:
            spec = default_contour(rm, cycle, c_value)
            numeric = 0j
            for (i, j), weight in report.basis_coeffs.items():
                numeric += weight.to_complex() * contour_integral_t(
                    rm.monomial_pushforward(i, j), c_value, spec)
            exact = ai.value.evaluate_complex(c_value)
            errors_t.append(abs(numeric - exact) / (1 + abs(exact)))
            fiber = contour_integral_fiber(form, rm, cycle, c_value, spec)
            errors_f.append(abs(fiber - numeric) / (1 + abs(numeric)))
    return errors_t, errors_f


def locate_roots(p: UniPoly, tol: float = 1e-10,
                 max_iterations: int = 1000) -> List[complex]:
    """All complex roots by simultaneous iteration; count equals the degree."""
    if p.is_zero():
        raise ValueError("cannot locate roots of the zero polynomial")
    degree = int(p.degree)
    if degree == 0:
        return []
    coeffs = p.complex_coeffs()
    monic = [c / coeffs[-1] for c in coeffs]

    def evaluate(z: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * z + c
        return acc

    def settled(z: complex) -> bool:
        # Below tol, or below a few times Horner's rounding bound
        # (deg+1) eps sum |a_k| |z|^k: large, widely spread coefficients
        # keep the computed residual of a converged root above any fixed tol.
        rounding = (degree + 1) * sys.float_info.epsilon * sum(
            abs(c) * abs(z) ** k for k, c in enumerate(monic))
        return abs(evaluate(z)) < max(tol * (1 + abs(z) ** degree),
                                      HORNER_SLACK * rounding)

    # Standard staggered starting points on a spiral
    roots = [(0.4 + 0.9j) ** (idx + 1) for idx in range(degree)]
    for _ in range(max_iterations):
        shift = 0.0
        for idx in range(degree):
            denom = 1 + 0j
            for other in range(degree):
                if other != idx:
                    denom *= roots[idx] - roots[other]
            if denom == 0:
                roots[idx] += 1e-8 * (1 + 1j)
                denom = 1e-8
            delta = evaluate(roots[idx]) / denom
            roots[idx] -= delta
            shift = max(shift, abs(delta))
        if shift < tol and all(settled(z) for z in roots):
            return roots
    # A cluster of close or repeated roots is resolved only to about
    # sqrt(eps), so the step can stall above tol while every residual is
    # already at rounding level.
    if all(settled(z) for z in roots):
        return roots
    raise NonConvergence(
        f"root finder did not reach residual {tol} in {max_iterations} iterations")
