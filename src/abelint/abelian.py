"""Assembly of Abelian integrals, zero counting and bound validation.

Each cycle integral is a sum of residues of pushed-forward basis forms at
the cycle's puncture.  The theory guarantees each residue, so the sum, is
a polynomial in c; the sum's zeros outside the bifurcation set are
counted exactly with multiplicity, and the observed degrees and counts
are compared against every applicable bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebra import GaussRat, UniPoly, _residue_fraction, residue
from .errors import IdenticallyZero, NonPolynomialResidue
from .family import MOVING_PUNCTURE, FamilyFacts, NormalForm, hamiltonian
from .rectify import (
    CanonicalCycle,
    RectifyingMap,
    build_rectifier,
    canonical_cycles,
)
from .transform import OneForm, PolyAutomorphism, pushforward_oneform, reduce_to_nonexact_basis


@dataclass(frozen=True)
class AbelianIntegral:
    """Cycle integral as a polynomial in c (coefficient of 2*pi*sqrt(-1))."""

    cycle: CanonicalCycle
    value: UniPoly

    @property
    def identically_zero(self) -> bool:
        return self.value.is_zero()


def integrate_cycle(rm: RectifyingMap, coeffs: Dict[Tuple[int, int], GaussRat],
                    cycle: CanonicalCycle) -> AbelianIntegral:
    """Sum of residues at the cycle's puncture, weighted by basis coefficients.

    Each basis form's integral, so each residue, is a polynomial in c.
    """
    factor = rm.factors[cycle.puncture]
    total = UniPoly()
    for (i, j), weight in coeffs.items():
        eta_t = rm.monomial_pushforward(i, j)
        value = residue(eta_t, factor)
        if value is None:
            numerator, divisors = _residue_fraction(eta_t, factor)
            over = " ".join(f"({UniPoly([-root, 1])!r})^{k}" for root, k in divisors)
            raise NonPolynomialResidue(
                f"residue of x^{i} y^{j} dx at puncture {cycle.puncture} is not "
                f"a polynomial in c: ({numerator!r})/({over})")
        total = total + value.scale(weight)
    return AbelianIntegral(cycle, total)


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
    if facts.family == "F2" and r == 1:
        return (n + 1) // (m + 1)
    if facts.family == "F1" and cycle.puncture == MOVING_PUNCTURE:
        if facts.sign_case == 1:
            return (n - 1) * ((m - r - 2) // 2)
        return n * (m - 1 - r) - r
    # family two of rank >= 2 and family one's other cycles share these rows
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


def bound_ledger(facts: FamilyFacts, nf: NormalForm, n_form: int, m: int, n: int,
                 integrals: List[AbelianIntegral],
                 zero_counts: List[Optional[int]],
                 mu: Optional[int] = None,
                 n_bc: Optional[int] = None) -> BoundLedger:
    """Instantiate and check every applicable bound; (m, n) are the original pair's."""
    entries: List[BoundEntry] = []
    rank = facts.homology_rank
    cap = zero_count_cap(m, n, rank)
    for ai, z in zip(integrals, zero_counts):
        degree = None if ai.identically_zero else int(ai.value.degree)
        entries.append(BoundEntry(
            "integral_degree_row", ai.cycle.index, degree,
            degree_row_bound(facts, nf, n_form, ai.cycle)))
        entries.append(BoundEntry("zero_count_cap", ai.cycle.index, z, cap))
    entries.append(BoundEntry(
        "transformed_form_degree", None, n_form,
        transformed_form_degree_cap(facts.family, rank, m, n)))
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
    """What ``full_report`` computed; ``form`` is the form it integrated."""

    integrals: Tuple[AbelianIntegral, ...]
    zero_counts: Tuple[Optional[int], ...]
    n_bc: Optional[int]
    bifurcation_set_used: Tuple[GaussRat, ...]
    ledger: BoundLedger
    rectifier: RectifyingMap
    basis_coeffs: Dict[Tuple[int, int], GaussRat]
    form: OneForm

    @property
    def facts(self) -> FamilyFacts:
        return self.rectifier.facts

    @property
    def nonconservative(self) -> bool:
        return self.n_bc is not None


def full_report(nf: NormalForm, w: OneForm,
                automorphism: Optional[PolyAutomorphism] = None,
                bifurcation_override: Optional[List[GaussRat]] = None,
                mu: Optional[int] = None,
                rectifier: Optional[RectifyingMap] = None) -> IntegralReport:
    """Run the whole pipeline: push forward, reduce, rectify, integrate, count, check.

    An ``automorphism`` pushes ``w`` forward, and the bounds on the original
    pair then read the degrees of ``w`` and of ``nf``'s H composed with its
    forward map; the report's ``form`` is the form integrated.  ``rectifier``
    is ``build_rectifier(nf)`` when the caller has built it.  Raises
    InvalidFamily when the normal form breaks a family constraint.
    """
    rm = build_rectifier(nf) if rectifier is None else rectifier
    facts = rm.facts
    m, n = facts.degree - 1, w.degree
    if automorphism is not None:
        m = hamiltonian(nf, facts, *automorphism.forward)[1].total_degree - 1
        w = pushforward_oneform(w, automorphism)
    coeffs, _ = reduce_to_nonexact_basis(w)

    bifurcation = list(dict.fromkeys(
        [*facts.bifurcation_candidates,
         *(GaussRat.parse(extra) for extra in bifurcation_override or [])]))

    integrals: List[AbelianIntegral] = []
    zero_counts: List[Optional[int]] = []
    for cycle in canonical_cycles(facts):
        ai = integrate_cycle(rm, coeffs, cycle)
        integrals.append(ai)
        zero_counts.append(None if ai.identically_zero
                           else count_zeros(ai, bifurcation))

    n_bc = None if None in zero_counts else sum(zero_counts)
    ledger = bound_ledger(facts, nf, w.degree, m, n,
                          integrals, zero_counts, mu=mu, n_bc=n_bc)
    return IntegralReport(tuple(integrals), tuple(zero_counts), n_bc,
                          tuple(bifurcation), ledger, rm, coeffs, w)
