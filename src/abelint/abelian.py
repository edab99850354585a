"""Assembly of Abelian integrals, zero counting and bound validation.

Each cycle integral is a sum of residues of pushed-forward basis forms at
the cycle's puncture.  The theory guarantees the sum is a polynomial in c
(any denominators cancel); its zeros outside the bifurcation set are
counted exactly with multiplicity, and the observed degrees and counts
are compared against every applicable bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .algebra import CFrac, GaussRat, UniPoly, residue
from .errors import IdenticallyZero, NonPolynomialResidue
from .family import MOVING_PUNCTURE, FamilyFacts, NormalForm
from .rectify import (
    CanonicalCycle,
    RectifyingMap,
    build_rectifier,
    canonical_cycles,
)
from .transform import OneForm, reduce_to_nonexact_basis


@dataclass(frozen=True)
class AbelianIntegral:
    """Cycle integral as a polynomial in c (coefficient of 2*pi*sqrt(-1))."""

    cycle: CanonicalCycle
    value: UniPoly
    identically_zero: bool


def integrate_cycle(rm: RectifyingMap, coeffs: Dict[Tuple[int, int], GaussRat],
                    cycle: CanonicalCycle) -> AbelianIntegral:
    """Sum of residues at the cycle's puncture, weighted by basis coefficients."""
    factor = rm.puncture_factor(cycle.puncture)
    total = CFrac(UniPoly())
    for (i, j), weight in coeffs.items():
        total = total + residue(rm.monomial_pushforward(i, j), factor) * weight
    if not total.is_polynomial():
        raise NonPolynomialResidue(
            f"cycle integral at puncture {cycle.puncture} did not cancel to a "
            f"polynomial: {total!r}"
        )
    value = total.as_unipoly()
    return AbelianIntegral(cycle, value, value.is_zero())


def count_zeros(ai: AbelianIntegral, bifurcation_set: List[GaussRat]) -> int:
    """deg(value) minus total multiplicity at bifurcation values."""
    if ai.identically_zero:
        raise IdenticallyZero(
            f"integral over cycle {ai.cycle.index} is identically zero")
    degree = int(ai.value.degree)
    removed = sum(ai.value.root_multiplicity(b) for b in bifurcation_set)
    return degree - removed


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def zero_count_cap(m: int, n: int, rank: int) -> int:
    """Upper bound for the zero count of one cycle integral, by (m, n, rank)."""
    if m == 1:
        return (n + 1) // 2
    if 2 <= m <= 8:
        return (n + 1) * (m - 1) - 1
    return ((n + 1) * ((m - rank) // rank) - 1) * (m - rank - 2) - rank + 1


def degree_row_bound(facts: FamilyFacts, nf: NormalForm, n: int,
                     cycle: CanonicalCycle) -> int:
    """Per-family, per-sign, per-cycle degree bound for the integral."""
    m = facts.degree - 1
    r = nf.r
    if facts.family == "F3":
        if r == 2:
            return (n + 1) // (m + 1)
        return n
    if facts.family == "F2":
        if r == 1:
            return (n + 1) // (m + 1)
        if facts.sign_case == 1:
            return n * ((m - 1) // (r - 1) - 2) - 2
        return (n - 1) * ((m - 4) // (2 * (r - 1)))
    # family one: the moving puncture has its own row
    if cycle.puncture == MOVING_PUNCTURE:
        if facts.sign_case == 1:
            return (n - 1) * ((m - r - 2) // 2)
        return n * (m - 1 - r) - r
    if facts.sign_case == 1:
        return n * ((m - 1) // (r - 1) - 2) - 2
    return (n - 1) * ((m - 4) // (2 * (r - 1)))


def transformed_form_degree_cap(family: str, rank: int, m: int, n: int) -> int:
    """Degree available to the transformed 1-form, from the original (m, n)."""
    if family == "F1":
        return (n + 1) * ((m - rank) // rank) - 1
    if family == "F2":
        if rank == 1:
            return (n + 1) * m - 1
        return (n + 1) * ((m - rank - 1) // (rank + 1)) - 1
    return (n + 1) * (m + 1 - rank) - 1


@dataclass(frozen=True)
class BoundEntry:
    name: str
    cycle_index: Optional[int]
    observed: Optional[int]   # None encodes an identically-zero integral
    bound: int

    @property
    def satisfied(self) -> bool:
        return self.observed is None or self.observed <= self.bound


@dataclass(frozen=True)
class BoundLedger:
    entries: Tuple[BoundEntry, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(entry.satisfied for entry in self.entries)

    def violations(self) -> List[BoundEntry]:
        return [entry for entry in self.entries if not entry.satisfied]


def bound_ledger(facts: FamilyFacts, nf: NormalForm, n_form: int,
                 m_original: int, n_original: int,
                 integrals: List[AbelianIntegral],
                 zero_counts: List[Optional[int]],
                 mu: Optional[int] = None,
                 n_bc: Optional[int] = None) -> BoundLedger:
    """Instantiate and check every applicable bound."""
    entries: List[BoundEntry] = []
    rank = facts.homology_rank
    cap = zero_count_cap(m_original, n_original, rank)
    for ai, z in zip(integrals, zero_counts):
        degree = None if ai.identically_zero else int(ai.value.degree)
        entries.append(BoundEntry(
            "integral_degree_row", ai.cycle.index, degree,
            degree_row_bound(facts, nf, n_form, ai.cycle)))
        entries.append(BoundEntry("zero_count_cap", ai.cycle.index, z, cap))
    entries.append(BoundEntry(
        "transformed_form_degree", None, n_form,
        transformed_form_degree_cap(facts.family, rank, m_original, n_original)))
    if n_bc is not None:
        entries.append(BoundEntry("total_count_cap", None, n_bc, rank * cap))
        if mu is not None:
            entries.append(BoundEntry(
                "total_count_cap_with_vanishing_cycles", None, n_bc,
                rank * cap - mu))
    return BoundLedger(tuple(entries))


# ---------------------------------------------------------------------------
# End-to-end report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralReport:
    facts: FamilyFacts
    integrals: Tuple[AbelianIntegral, ...]
    zero_counts: Tuple[Optional[int], ...]
    n_bc: Optional[int]
    bifurcation_set_used: Tuple[GaussRat, ...]
    nonconservative: bool
    ledger: BoundLedger
    rectifier: RectifyingMap
    basis_coeffs: Dict[Tuple[int, int], GaussRat] = field(default_factory=dict)
    exact_part_degree: Optional[int] = None


def full_report(nf: NormalForm, w: OneForm,
                bifurcation_override: Optional[List[GaussRat]] = None,
                mu: Optional[int] = None,
                m_original: Optional[int] = None,
                n_original: Optional[int] = None) -> IntegralReport:
    """Run the whole pipeline: reduce, rectify, integrate, count, check.

    Raises InvalidFamily when the normal form breaks a family constraint.
    """
    rm = build_rectifier(nf)
    facts = rm.facts
    coeffs, exact_part = reduce_to_nonexact_basis(w)
    n_form = int(w.degree) if not w.is_zero() else 0
    if m_original is None:
        m_original = facts.degree - 1
    if n_original is None:
        n_original = n_form

    bifurcation = list(facts.bifurcation_candidates)
    for extra in bifurcation_override or []:
        value = GaussRat.parse(extra)
        if value not in bifurcation:
            bifurcation.append(value)

    integrals: List[AbelianIntegral] = []
    zero_counts: List[Optional[int]] = []
    for cycle in canonical_cycles(facts):
        ai = integrate_cycle(rm, coeffs, cycle)
        integrals.append(ai)
        zero_counts.append(None if ai.identically_zero
                           else count_zeros(ai, bifurcation))

    nonconservative = all(not ai.identically_zero for ai in integrals)
    n_bc = sum(zero_counts) if nonconservative else None
    ledger = bound_ledger(facts, nf, n_form, m_original, n_original,
                          integrals, zero_counts, mu=mu, n_bc=n_bc)
    exact_deg = None if exact_part.is_zero() else int(exact_part.total_degree)
    return IntegralReport(facts, tuple(integrals), tuple(zero_counts), n_bc,
                          tuple(bifurcation), nonconservative, ledger, rm,
                          dict(coeffs), exact_deg)
