"""Cycle integrals, zero counting, bounds and the end-to-end report."""

import contextlib
import io
import random
from pathlib import Path

import pytest

from abelint import (
    BiPoly,
    GaussRat,
    IdenticallyZero,
    NonPolynomialResidue,
    NormalForm,
    OneForm,
    PolyAutomorphism,
    RatFunc,
    RectifyingMap,
    UniPoly,
    build_rectifier,
    canonical_cycles,
    count_zeros,
    degree_row_bound,
    full_report,
    integrate_cycle,
    reduce_to_nonexact_basis,
    validate,
    zero_count_cap,
)
from abelint.algebra import C_FACTOR
from test_family import oscillator_form, septic_f1, septic_f2

from conftest import (
    cached_rectifier,
    random_bipoly,
    random_gauss,
    random_normal_form,
    random_oneform,
)
from reference import expand

README = Path(__file__).resolve().parent.parent / "README.md"


def form_dx(*terms):
    return OneForm(BiPoly({(i, j): GaussRat(v) for i, j, v in terms}), BiPoly())


SEPTIC_F2_FORM = form_dx((0, 3, 1), (1, 2, -108), (0, 1, -66))
SEPTIC_F1_FORM = form_dx((0, 3, 1), (2, 1, -96), (0, 1, 1008))


class TestGoldenIntegrals:
    def test_septic_f2_first_cycle(self):
        report = full_report(septic_f2(), SEPTIC_F2_FORM)
        # 3(c + 1)(4c^6 + 3c^5 - 36c - 58)
        expected = UniPoly([1, 1]).scale(GaussRat(3)) * \
            UniPoly([-58, -36, 0, 0, 0, 3, 4])
        assert report.integrals[0].value == expected

    def test_septic_f2_second_cycle(self):
        report = full_report(septic_f2(), SEPTIC_F2_FORM)
        # -3(c - 1)(c + 2)(4c^5 + 3c^4 + 8c^3 - 2c^2 + 18c - 58)
        expected = UniPoly([-1, 1]) * UniPoly([2, 1]) * \
            UniPoly([-58, 18, -2, 8, 3, 4]).scale(GaussRat(-3))
        assert report.integrals[1].value == expected

    def test_septic_f2_counts(self):
        report = full_report(septic_f2(), SEPTIC_F2_FORM)
        assert report.zero_counts == (6, 7)
        assert report.n_bc == 13
        assert report.nonconservative

    def test_septic_f1_moving_cycle(self):
        report = full_report(septic_f1(), SEPTIC_F1_FORM)
        # 96(2c + 5)(c - 4)
        expected = (UniPoly([5, 2]) * UniPoly([-4, 1])).scale(GaussRat(96))
        assert report.integrals[2].value == expected

    def test_septic_f1_counts(self):
        report = full_report(septic_f1(), SEPTIC_F1_FORM)
        assert report.zero_counts == (6, 7, 2)
        assert report.n_bc == 15

    def test_oscillator_extremal(self):
        # A(H) y dx with A = (H - 1)(H - 2) integrates to -c(c - 1)(c - 2)
        w = form_dx((0, 3, 1), (1, 3, -2), (2, 3, 1), (0, 2, -3),
                    (1, 2, 3), (0, 1, 2))
        report = full_report(oscillator_form(), w)
        expected = UniPoly([0, 1]) * UniPoly([-1, 1]) * UniPoly([-2, 1])
        assert report.integrals[0].value == expected.scale(GaussRat(-1))
        assert report.zero_counts == (2,)


    def test_non_polynomial_residue_names_its_monomial(self, monkeypatch):
        # Each basis form's integral is a polynomial in c.  Dividing the
        # pushforward of x y^2 dx by c^3 turns its residue c^2 into 1/c,
        # while the residue -c of y dx, taken first, stays a polynomial.
        original = RectifyingMap.monomial_pushforward
        over_c3 = RatFunc(BiPoly({(0, 0): GaussRat(1)}), {C_FACTOR: 3})
        monkeypatch.setattr(
            RectifyingMap, "monomial_pushforward", lambda self, i, j:
            original(self, i, j) * (over_c3 if (i, j) == (1, 2) else GaussRat(1)))
        with pytest.raises(NonPolynomialResidue, match=r"^residue of x\^1 y\^2 dx "
                           r"at puncture beta1 is not a polynomial in c: "):
            full_report(oscillator_form(), form_dx((1, 2, 1), (0, 1, 1)))


class TestZeroCounting:
    def test_multiplicity_subtraction(self):
        nf = oscillator_form()
        rm = build_rectifier(nf)
        coeffs, _ = reduce_to_nonexact_basis(form_dx((0, 1, 1)))
        ai = integrate_cycle(rm, coeffs, canonical_cycles(validate(nf))[0])
        # value is -c: one zero, at the bifurcation value 0
        assert count_zeros(ai, [GaussRat(0)]) == 0
        assert count_zeros(ai, []) == 1

    def test_identically_zero_raises(self):
        nf = oscillator_form()
        rm = build_rectifier(nf)
        ai = integrate_cycle(rm, {}, canonical_cycles(validate(nf))[0])
        assert ai.identically_zero
        with pytest.raises(IdenticallyZero):
            count_zeros(ai, [])

    def test_conservative_form_disables_total_count(self):
        report = full_report(oscillator_form(), form_dx((2, 0, 1)))
        assert not report.nonconservative
        assert report.n_bc is None

    def test_bifurcation_override_extends_candidates(self):
        # (H - 3) y dx integrates to -c(c - 3): one zero off the candidate set
        w = form_dx((0, 2, 1), (1, 2, -1), (0, 1, -3))
        base = full_report(oscillator_form(), w)
        assert base.integrals[0].value == \
            (UniPoly([0, 1]) * UniPoly([-3, 1])).scale(GaussRat(-1))
        assert base.zero_counts == (1,)
        overridden = full_report(oscillator_form(), w,
                                 bifurcation_override=[GaussRat(3)])
        assert overridden.zero_counts == (0,)
        assert GaussRat(3) in overridden.bifurcation_set_used


class TestBounds:
    def test_zero_count_cap_small_degrees(self):
        assert zero_count_cap(1, 5, 1) == 3
        assert zero_count_cap(2, 5, 1) == 5
        assert zero_count_cap(6, 3, 2) == 19

    def test_zero_count_cap_large_degree(self):
        m, n, rank = 12, 3, 2
        expected = ((n + 1) * ((m - rank) // rank) - 1) * (m - rank - 2) - rank + 1
        assert zero_count_cap(m, n, rank) == expected

    def test_degree_rows_match_observed_goldens(self):
        facts = validate(septic_f2())
        cycles = canonical_cycles(facts)
        assert degree_row_bound(facts, septic_f2(), 3, cycles[0]) == 7
        facts1 = validate(septic_f1())
        cycles1 = canonical_cycles(facts1)
        assert degree_row_bound(facts1, septic_f1(), 3, cycles1[2]) == 2

    @pytest.mark.parametrize("nf, rows", [
        (NormalForm("F3", a=(3,), beta=(1,), h=UniPoly([1])), [2]),
        (NormalForm("F3", a=(1, 2), beta=(1, 2)), [7, 7]),
        (NormalForm("F2", p1=1, p=2, k=2, P=UniPoly([1])), [1]),
        (NormalForm("F2", p1=0, p=1, q1=1, q=2, k=2, a=(1, 1), beta=(1, 2)),
         [33, 33, 33]),
        (NormalForm("F2", p1=1, p=2, q1=0, q=1, k=2, a=(2, 1), beta=(1, -1)),
         [12, 12, 12]),
        (NormalForm("F1", p1=0, p=1, q1=1, q=2, k=2, a=(1, 1), beta=(1, 2)),
         [33, 33, 33, 30]),
        (NormalForm("F1", p1=1, p=2, q1=0, q=1, k=2, a=(2, 1), beta=(1, -1)),
         [12, 12, 12, 74]),
    ], ids=["F3 r=2", "F3 r=3", "F2 rank one", "F2 +", "F2 -", "F1 +", "F1 -"])
    def test_degree_row_every_branch(self, nf, rows):
        # n = 7 on every cycle; the last F1 cycle is the moving puncture.
        facts = validate(nf)
        assert [degree_row_bound(facts, nf, 7, cycle)
                for cycle in canonical_cycles(facts)] == rows

    def test_all_bounds_satisfied_on_goldens(self):
        for nf, w in ((septic_f2(), SEPTIC_F2_FORM),
                      (septic_f1(), SEPTIC_F1_FORM)):
            report = full_report(nf, w)
            assert report.ledger.all_satisfied

    def test_vanishing_cycle_entry_present_with_mu(self):
        report = full_report(septic_f2(), SEPTIC_F2_FORM, mu=2)
        names = [e.name for e in report.ledger.entries]
        assert "total_count_cap_with_vanishing_cycles" in names

    def test_random_reports_satisfy_bounds(self):
        rng = random.Random(83)
        for _ in range(20):
            nf = random_normal_form(rng)
            w = random_oneform(rng, 4)
            report = full_report(nf, w)
            assert report.ledger.all_satisfied, (nf, w)


def test_relatively_exact_forms_add_nothing():
    # g dH vanishes on every level curve H = c, so adding it to w changes
    # no cycle integral: full_report(nf, w + g dH) has exactly the
    # integrals of full_report(nf, w).
    rng = random.Random(7)
    for _ in range(100):
        nf = random_normal_form(rng)
        h = expand(nf)
        rm = cached_rectifier(nf)
        w = random_oneform(rng, rng.randint(1, 4))
        g = random_bipoly(rng, 2)
        g_dh = OneForm(g * h.partial(0), g * h.partial(1))
        base = full_report(nf, w, rectifier=rm)
        moved = full_report(nf, w + g_dh, rectifier=rm)
        assert [ai.value for ai in moved.integrals] == [ai.value for ai in base.integrals], (nf, w, g)


def random_triangular_automorphism(rng: random.Random) -> PolyAutomorphism:
    """(x, y + a x^d) or (x + a y^d, y) for d in {2, 3}, with its inverse."""
    x, y = BiPoly.var(0), BiPoly.var(1)
    a, d = random_gauss(rng, nonzero=True), rng.choice((2, 3))
    if rng.random() < 0.5:
        shift = (x ** d).scale(a)
        return PolyAutomorphism((x, y + shift), (x, y - shift))
    shift = (y ** d).scale(a)
    return PolyAutomorphism((x + shift, y), (x - shift, y))


def random_elementary_map(rng: random.Random):
    """(map, inverse): an invertible affine map, or (x, y + q(x)) or
    (x + q(y), y) for a random q of degree 1 or 2."""
    x, y = BiPoly.var(0), BiPoly.var(1)
    one = BiPoly.const(GaussRat(1))
    if rng.random() < 0.5:
        a, b, c, d = (random_gauss(rng) for _ in range(4))
        while not a * d - b * c:
            a, b, c, d = (random_gauss(rng) for _ in range(4))
        e, f = random_gauss(rng), random_gauss(rng)
        forward = (x.scale(a) + y.scale(b) + one.scale(e),
                   x.scale(c) + y.scale(d) + one.scale(f))
        u, v = x - one.scale(e), y - one.scale(f)
        inv_det = (a * d - b * c).inverse()
        inverse = ((u.scale(d) - v.scale(b)).scale(inv_det),
                   (v.scale(a) - u.scale(c)).scale(inv_det))
        return forward, inverse
    var, d = rng.choice((x, y)), rng.randint(1, 2)
    q = sum(((var ** k).scale(random_gauss(rng)) for k in range(d)),
            (var ** d).scale(random_gauss(rng, nonzero=True)))
    if var is x:
        return (x, y + q), (x, y - q)
    return (x + q, y), (x - q, y)


def random_tame_automorphism(rng: random.Random) -> PolyAutomorphism:
    """Two or three elementary maps composed through BiPoly.compose: each
    step S makes forward S o forward and inverse inverse o S^-1."""
    forward = inverse = (BiPoly.var(0), BiPoly.var(1))
    for _ in range(rng.randint(2, 3)):
        step, step_inverse = random_elementary_map(rng)
        forward = tuple(p.compose(*forward) for p in step)
        inverse = tuple(p.compose(*step_inverse) for p in inverse)
    return PolyAutomorphism(forward, inverse)


def assert_metamorphic_identity(rng: random.Random, draw_automorphism, count: int):
    # With H_orig = H o psi, the forms w, w + dQ and w + g dH_orig on the
    # original side push forward to forms that differ by an exact and a
    # relatively exact form, so full_report gives the same integrals.
    for _ in range(count):
        nf = random_normal_form(rng)
        psi = draw_automorphism(rng)
        h_orig = expand(nf).compose(*psi.forward)
        rm = cached_rectifier(nf)
        w = random_oneform(rng, rng.randint(1, 3))
        q = random_bipoly(rng, 3)
        g = random_bipoly(rng, 2)
        g_dh = OneForm(g * h_orig.partial(0), g * h_orig.partial(1))
        base = [ai.value for ai in full_report(nf, w, psi, rectifier=rm).integrals]
        for moved in (w + OneForm.d(q), w + g_dh):
            report = full_report(nf, moved, psi, rectifier=rm)
            assert [ai.value for ai in report.integrals] == base, (nf, psi.forward, w, q, g)


def test_original_coordinates_metamorphic_identity():
    assert_metamorphic_identity(random.Random(11), random_triangular_automorphism, 100)


def test_tame_automorphisms_metamorphic_identity():
    # Compositions of affine and triangular maps, forward and inverse both
    # written through BiPoly.compose.
    assert_metamorphic_identity(random.Random(13), random_tame_automorphism, 60)


def test_readme_library_use_block_runs_as_written():
    # Each print whose line carries a "# value" comment prints that value.
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library use")) + len("```python\n")
    block = text[start:text.index("```", start)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)  # one line per print
    commented = [(line.split("#", 1)[1].strip(), shown)
                 for line, shown in zip(prints, printed) if "#" in line]
    assert commented
    for value, shown in commented:
        assert shown == value
