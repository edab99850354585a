"""Automorphisms, push-forwards and the non-exact basis reduction."""

import random

import pytest

from abelint import (
    BiPoly,
    GaussRat,
    OneForm,
    PolyAutomorphism,
    pushforward_oneform,
    reduce_to_nonexact_basis,
)
from abelint.transform import AutomorphismError

from conftest import random_bipoly, random_oneform
from reference import pushforward_polynomial


def shear_automorphism():
    """(u, v) -> (u, v + u^2), a polynomial shear."""
    x, y = BiPoly.var(0), BiPoly.var(1)
    return PolyAutomorphism((x, y + x * x), (x, y - x * x))


def oscillator_automorphism():
    """(u, v) -> (1 - u - iv, (u - iv)/2) carrying (u^2 + v^2)/2 to y(1 - x)."""
    x, y = BiPoly.var(0), BiPoly.var(1)
    i = GaussRat(0, 1)
    one = BiPoly.const(GaussRat(1))
    half = GaussRat(1) / GaussRat(2)
    forward = (one - x - y.scale(i), (x - y.scale(i)).scale(half))
    # Solve u + iv = 1 - x and u - iv = 2y:
    # u = (1 - x + 2y)/2, v = (1 - x - 2y)/(2i) = -i(1 - x - 2y)/2
    u = (one - x + y + y).scale(half)
    v = (one - x - y - y).scale(-i * half)
    return PolyAutomorphism(forward, (u, v))


class TestAutomorphism:
    def test_identity(self):
        x, y = BiPoly.var(0), BiPoly.var(1)
        aut = PolyAutomorphism((x, y), (x, y))
        poly = BiPoly({(2, 1): GaussRat(3)})
        assert pushforward_polynomial(poly, aut) == poly

    def test_bad_inverse_rejected(self):
        x, y = BiPoly.var(0), BiPoly.var(1)
        with pytest.raises(AutomorphismError):
            PolyAutomorphism((x, y + x * x), (x, y + x * x))

    def test_degree_cap_and_jacobian_reject_before_composing(self, monkeypatch):
        # x^k y over the affine (1 - x, y): the Jacobian is -x^k, and for
        # k = 64 the degrees 65 * 1 exceed the cap.  Neither pair is composed.
        x, y = BiPoly.var(0), BiPoly.var(1)
        one = BiPoly.const(GaussRat(1))
        monkeypatch.setattr(BiPoly, "compose", None)
        for k, message in ((2, "Jacobian"), (64, "cap")):
            with pytest.raises(AutomorphismError, match=message):
                PolyAutomorphism((one - x, x ** k * y), (one - x, y))
        with pytest.raises(AutomorphismError, match="Jacobian"):
            PolyAutomorphism((x, BiPoly()), (x, y))

    @pytest.mark.parametrize("make", [shear_automorphism, oscillator_automorphism])
    def test_valid_pair_composes_once_per_component(self, make, monkeypatch):
        # forward(inverse) = id alone proves the pair inverse to each other,
        # so a valid pair runs two compositions, not four.
        calls = []
        original = BiPoly.compose

        def counting(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(BiPoly, "compose", counting)
        make()
        assert len(calls) == 2

    def test_valid_pair_above_the_cap_is_refused(self):
        # The cap bounds degrees, not validity: the shear (x, y + x^8) is
        # accepted (8 * 8 = 64), and the equally valid (x, y + x^9) is
        # refused (81 > 64).
        x, y = BiPoly.var(0), BiPoly.var(1)
        PolyAutomorphism((x, y + x ** 8), (x, y - x ** 8))
        with pytest.raises(AutomorphismError, match="cap"):
            PolyAutomorphism((x, y + x ** 9), (x, y - x ** 9))

    def test_sigma_must_be_invertible(self):
        x, y = BiPoly.var(0), BiPoly.var(1)
        with pytest.raises(AutomorphismError):
            PolyAutomorphism((x, y), (x, y), GaussRat(0))

    def test_oscillator_pair_rectifies_hamiltonian(self):
        # (u^2 + v^2)/2 becomes y(1 - x) in the new coordinates
        aut = oscillator_automorphism()
        half = GaussRat(1) / GaussRat(2)
        h = BiPoly({(2, 0): half, (0, 2): half})
        x, y = BiPoly.var(0), BiPoly.var(1)
        assert pushforward_polynomial(h, aut) == \
            y * (BiPoly.const(GaussRat(1)) - x)

    def test_shear_carries_broughton_hamiltonian(self):
        # u(uv - 1) under (u, v) -> (1 - u, v) becomes y(1 - x)^2 + (x - 1)
        x, y = BiPoly.var(0), BiPoly.var(1)
        one = BiPoly.const(GaussRat(1))
        aut = PolyAutomorphism((one - x, y), (one - x, y))
        h = x * (x * y - one)
        assert pushforward_polynomial(h, aut) == y * (one - x) ** 2 + (x - one)

    def test_pushforward_respects_products(self):
        rng = random.Random(43)
        aut = shear_automorphism()
        for _ in range(15):
            f = random_bipoly(rng, 3)
            g = random_bipoly(rng, 3)
            assert pushforward_polynomial(f * g, aut) == \
                pushforward_polynomial(f, aut) * pushforward_polynomial(g, aut)

    def test_oneform_pushforward_inverts(self):
        rng = random.Random(47)
        aut = shear_automorphism()
        inverse_aut = PolyAutomorphism(aut.inverse, aut.forward)
        for _ in range(10):
            w = random_oneform(rng, 3)
            back = pushforward_oneform(pushforward_oneform(w, aut), inverse_aut)
            assert back.A == w.A and back.B == w.B


def complex_oneform(rng: random.Random, max_degree: int) -> OneForm:
    """w1 + i w2 for independent random real forms w1 and w2."""
    i = GaussRat(0, 1)
    w1, w2 = random_oneform(rng, max_degree), random_oneform(rng, max_degree)
    return w1 + OneForm(w2.A.scale(i), w2.B.scale(i))


class TestBasisReduction:
    def test_round_trip_identity(self):
        # Real and complex forms, the zero form, and an exact complex form
        # whose basis part cancels.
        rng = random.Random(53)
        forms = [random_oneform(rng, 5) for _ in range(40)]
        forms += [complex_oneform(rng, 5) for _ in range(40)]
        exact = random_bipoly(rng, 5) + random_bipoly(rng, 5).scale(GaussRat(0, 1))
        forms += [OneForm(BiPoly(), BiPoly()), OneForm.d(exact)]
        for w in forms:
            coeffs, q_poly = reduce_to_nonexact_basis(w)
            rebuilt = OneForm.d(q_poly) + OneForm(BiPoly(coeffs), BiPoly())
            assert rebuilt.A == w.A and rebuilt.B == w.B

    def test_basis_indices_valid(self):
        rng = random.Random(59)
        for _ in range(40):
            coeffs, _ = reduce_to_nonexact_basis(random_oneform(rng, 5))
            assert all(j >= 1 and i >= 0 for (i, j) in coeffs)

    def test_pure_dx_j0_terms_are_exact(self):
        w = OneForm(BiPoly({(3, 0): GaussRat(2)}), BiPoly())
        coeffs, q_poly = reduce_to_nonexact_basis(w)
        assert not coeffs
        assert q_poly == BiPoly({(4, 0): GaussRat(1) / GaussRat(2)})

    def test_exact_form_of_xy(self):
        # d(xy) = y dx + x dy reduces with no basis component
        coeffs, _ = reduce_to_nonexact_basis(OneForm.d(BiPoly({(1, 1): GaussRat(1)})))
        assert not coeffs
