"""The torsion radical t, its quotient partner u, Ext-projectivity,
almost split sequences and resolutions inside the polynomial category, and
the quasi-hereditary evidence report for the borel backend."""

import pytest

import reference_polynomial as RPY
from grquiver import constructions as C
from grquiver import polynomial as PY
from grquiver.grmod import decompose, dual, is_isomorphic, shift, validate

P = 3


class TestVerdict:
    def test_polynomial_module(self):
        v = PY.is_polynomial(C.w_hat(P, 6))
        assert v.is_polynomial
        assert v.degree == 6
        assert v.offending_weights == []

    def test_offending_weights_reported(self):
        v = PY.is_polynomial(shift(C.w_hat(P, 3), (-2, 0)))
        assert not v.is_polynomial
        assert all(w[0] < 0 or w[1] < 0 for w in v.offending_weights)


class TestTorsionRadical:
    def test_identity_on_polynomial(self):
        w = C.w_hat(P, 6)
        t, incl = PY.t_poly(w)
        assert t.dim == w.dim
        assert incl.check() == []

    def test_shifted_weyl_gives_w(self):
        t, _ = PY.t_poly(shift(C.weyl_hat(P, 6), (-P, 0)))
        assert is_isomorphic(t, C.w_hat(P, 3)) is not None

    def test_deep_shift_gives_dual_weyl(self):
        t, _ = PY.t_poly(shift(C.weyl_hat(P, 9), (-P, -P)))
        expected = shift(dual(C.weyl_hat(P, 1)), (1, 1))
        assert is_isomorphic(t, expected) is not None

    def test_idempotent(self):
        m = shift(C.weyl_hat(P, 6), (-P, 0))
        t1, _ = PY.t_poly(m)
        t2, _ = PY.t_poly(t1)
        assert t2.dim == t1.dim

    def test_output_is_polynomial(self):
        for d, mu in [(6, (-P, 0)), (9, (-P, -P)), (4, (0, -1))]:
            t, _ = PY.t_poly(shift(C.weyl_hat(P, d), mu))
            assert PY.is_polynomial(t).is_polynomial


class TestQuotientPartner:
    def test_identity_on_polynomial(self):
        w = C.w_hat(P, 3)
        u, proj = PY.u_poly(w)
        assert u.dim == w.dim
        assert proj.check() == []

    def test_duality_law(self):
        for d, mu in [(6, (-P, 0)), (9, (-P, -P)), (3, (1, -1))]:
            m = shift(C.weyl_hat(P, d), mu)
            lhs = PY.u_poly(m)[0]
            rhs = dual(PY.t_poly(dual(m))[0])
            assert is_isomorphic(lhs, rhs) is not None

    def test_output_is_polynomial(self):
        u, _ = PY.u_poly(shift(C.weyl_hat(P, 6), (0, -P)))
        assert PY.is_polynomial(u).is_polynomial


class TestExtProjective:
    # the tau test, kept as the reference for the flags of the block quivers
    def test_small_w_is_ext_projective(self):
        assert RPY.ext_projective_in_poly(C.w_hat(P, P))

    def test_large_w_is_not(self):
        assert not RPY.ext_projective_in_poly(C.w_hat(P, 2 * P))

    def test_ambient_projective_is(self):
        assert RPY.ext_projective_in_poly(C.projective_indec(P, 0))


class TestAlmostSplitInPoly:
    def test_non_polynomial_end_rejected(self):
        with pytest.raises(ValueError):
            PY.almost_split_in_poly(shift(C.w_hat(P, 3), (-1, 0)))

    def test_ext_projective_end_rejected(self):
        # t(tau W(p)) = 0: the ambient sequence is built, t of it is not
        with pytest.raises(ValueError, match="Ext-projective"):
            PY.almost_split_in_poly(C.w_hat(P, P))

    def test_ambient_projective_end_rejected(self):
        with pytest.raises(ValueError, match="Ext-projective"):
            PY.almost_split_in_poly(shift(C.projective_indec(P, 0), (2, 2)))

    def test_middle_of_v_sequence(self):
        # sequence ending at V(sp+a), s=2: middle W(sp+a) + its twist
        seq = PY.almost_split_in_poly(C.weyl_hat(P, 2 * P))
        assert seq.check() == []
        parts = decompose(seq.middle)
        found = [m for m, _ in parts]
        w = C.w_hat(P, 2 * P)
        assert any(is_isomorphic(m, w) is not None for m in found)
        assert any(is_isomorphic(m, C.w_hat_twisted(P, 2 * P)) is not None
                   for m in found)

    def test_left_term_indecomposable(self):
        seq = PY.almost_split_in_poly(C.weyl_hat(P, 2 * P))
        assert len(decompose(seq.left)) == 1


class TestResolutions:
    def test_cover_of_projective_object(self):
        # u(Q(0)) is projective in the polynomial category: its cover is an
        # isomorphism, so the second term of its resolution is 0
        uq, _ = PY.u_poly(C.projective_indec(P, 0))
        assert [t.dim for t in PY.poly_projective_resolution(uq, 2)] == [
            uq.dim, 0]

    def test_resolution_terms_validate(self):
        terms = PY.poly_projective_resolution(C.w_hat(P, 3), 3)
        assert all(validate(t) == [] for t in terms)

    def test_injective_resolution_runs(self):
        terms = RPY.poly_injective_resolution_by_duals(C.w_hat(P, 3), 2)
        assert len(terms) == 2
        assert all(PY.is_polynomial(t).is_polynomial for t in terms)


class TestQuasiHereditary:
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_small_degrees_pass(self, d):
        reports = PY.quasi_hereditary_check(P, 1, d)
        assert len(reports) == d + 1
        assert all(r.passed for r in reports)

    def test_maximal_weight_standard_is_free_image(self):
        alg = C.borel_algebra(P, 1)
        delta = PY.standard_module((2, 0), alg)
        assert delta.dim == P

    def test_report_fields(self):
        rep = PY.quasi_hereditary_check(P, 1, 2)[0]
        assert rep.weight == (2, 0)
        assert rep.unit_weight_space and rep.lower_weights_only
        assert rep.scalar_endos
