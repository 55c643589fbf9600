"""Projective covers, syzygies, the Auslander-Reiten translate, Ext groups,
almost split sequences, Betti numbers, complexity and freeness over a
nilpotent element."""

import pytest

from grquiver import constructions as C
from grquiver import homological as H
from grquiver.grmod import (character_module, decompose, dual, is_isomorphic,
                            shift, validate)

P = 3


class TestProjectiveCover:
    def test_cover_of_simple(self):
        for a in range(P - 1):
            p_mod, epi = H.projective_cover(C.simple_hat(P, a))
            assert p_mod.dim == 2 * P
            assert epi.is_surjective()
            assert epi.check() == []

    def test_steinberg_is_its_own_cover(self):
        st_mod = C.simple_hat(P, P - 1)
        p_mod, _ = H.projective_cover(st_mod)
        assert is_isomorphic(p_mod, st_mod) is not None
        assert H.is_projective(st_mod)

    def test_w_not_projective(self):
        assert not H.is_projective(C.w_hat(P, 4))

    def test_borel_cover_is_free(self):
        alg = C.borel_algebra(P, 1)
        k0 = character_module(alg, (0, 0))
        p_mod, epi = H.projective_cover(k0)
        assert p_mod.dim == P
        assert epi.is_surjective()

    def test_projectives_detected(self):
        assert H.is_projective(C.projective_indec(P, 1))


class TestOmega:
    def test_omega_of_projective_vanishes(self):
        assert H.omega(C.projective_indec(P, 0)).dim == 0

    def test_omega_dimension_count(self):
        m = C.simple_hat(P, 0)
        o = H.omega(m)
        assert o.dim == 2 * P - m.dim

    def test_omega_inv_inverts(self):
        w = C.w_hat(P, P)
        assert is_isomorphic(H.omega_pow(H.omega(w), -1), w) is not None

    def test_omega_pow_matches_iteration(self):
        m = C.simple_hat(P, 0)
        assert is_isomorphic(H.omega_pow(m, 2),
                             H.omega(H.omega(m))) is not None

    def test_validates(self):
        o = H.omega(C.w_hat(P, 6))
        assert validate(o) == []


class TestTau:
    def test_sl2_nakayama_is_identity(self):
        w = C.w_hat(P, 3)
        assert is_isomorphic(H.nakayama(w), w) is not None

    def test_borel_nakayama_shift(self):
        alg = C.borel_algebra(P, 1)
        k0 = character_module(alg, (0, 0))
        assert H.nakayama(k0).weights == ((P - 1, 1 - P),)

    def test_borel_tau_steps_down_one_root(self):
        # the unique non-vanishing Ext^1(k_0, k_mu) sits at mu = (-1, 1)
        alg = C.borel_algebra(P, 1)
        k0 = character_module(alg, (0, 0))
        assert H.tau(k0).weights == ((-1, 1),)
        seq = H.almost_split_sequence(k0)
        assert seq.check() == [] and not seq.is_split()

    @pytest.mark.parametrize("p,r,offset", [
        (3, 1, 1), (3, 2, 1), (5, 1, 1), (5, 2, 1), (3, 1, 2), (5, 1, 2)])
    def test_tau_on_duals_and_offsets(self, p, r, offset):
        # tau D = D tau^-1 for D the borel duality, which moves k to the
        # raising algebra; an offset scales the generators' weight shifts
        k = character_module(C.borel_algebra(p, r, offset), (0, 0))
        dk = dual(k)
        assert is_isomorphic(H.tau(dk), dual(H.tau_inv(k))) is not None
        assert is_isomorphic(H.tau_inv(dk), dual(H.tau(k))) is not None
        if r == 1:  # tau k_0 = k_s for s the weight shift of the generator
            assert H.tau(k).weights == (k.algebra.action_shift(f"X{offset}"),)
        for m in (k, dk):
            seq = H.almost_split_sequence(m)
            assert seq.check() == [] and not seq.is_split()

    def test_tau_tau_inv(self):
        v = C.weyl_hat(P, 3)
        assert is_isomorphic(H.tau_inv(H.tau(v)), v) is not None

    def test_tau_of_w(self):
        w = C.w_hat(P, 6)
        assert is_isomorphic(H.tau(w), shift(w, (P, -P))) is not None


class TestExtAndAlmostSplit:
    def test_ext_vanishes_against_projective(self):
        q = C.projective_indec(P, 0)
        dim, _ = H.ext1(q, C.w_hat(P, 3))
        assert dim == 0

    def test_self_extension_of_w(self):
        w = C.w_hat(P, 3)
        dim, _ = H.ext1(w, shift(w, (P, -P)))
        assert dim >= 1

    def test_sequence_is_exact_and_nonsplit(self):
        seq = H.almost_split_sequence(C.w_hat(P, 3))
        assert seq.check() == []
        assert not seq.is_split()

    def test_sequence_left_term_is_tau(self):
        v = C.weyl_hat(P, 3)
        seq = H.almost_split_sequence(v)
        assert is_isomorphic(seq.left, H.tau(v)) is not None

    def test_middle_of_w_sequence(self):
        seq = H.almost_split_sequence(shift(C.w_hat(P, 3), (0, 3)))
        assert is_isomorphic(seq.middle, C.w_hat(P, 6)) is not None

    def test_projective_end_term_rejected(self):
        with pytest.raises(ValueError):
            H.almost_split_sequence(C.projective_indec(P, 0))

    def test_zeta_prime_middle(self):
        # sequence starting at V(p+a): middle L(a)[(p,0)] + L(a)[(0,p)] + Q
        for a in (0, 1):
            end = C.weyl_hat_dual(P, P + a)
            seq = H.almost_split_sequence(end)
            parts = decompose(seq.middle)
            dims = sorted(m.dim for m, _ in parts)
            assert dims == [a + 1, a + 1, 2 * P]


class TestBettiAndComplexity:
    def test_short_request_raises(self):
        with pytest.raises(ValueError):
            H.betti(C.w_hat(P, 3), 2)

    def test_periodic_w(self):
        b = H.betti(C.w_hat(P, 3), 6).dims
        assert b == [6] * 6

    def test_linear_growth_simple(self):
        b = H.betti(C.simple_hat(P, 0), 6).dims
        assert b == [6 * (i + 1) for i in range(6)]

    def test_complexity_values(self):
        assert H.complexity(C.projective_indec(P, 0)) == 0
        assert H.complexity(C.w_hat(P, 3)) == 1
        assert H.complexity(C.simple_hat(P, 0)) == 2

    def test_complexity_refuses_r3(self):
        k = character_module(C.borel_algebra(P, 3), (0, 0))
        with pytest.raises(ValueError, match="r = 3"):
            H.complexity(k)


class TestRankProbe:
    # freeness over k[x]/(x^p), the test behind is_projective and complexity
    def test_w_free_over_f(self):
        w = C.w_hat(P, 3)
        assert H._free(w, w.action["F"])

    def test_twisted_w_not_free_over_f(self):
        w = C.w_hat_twisted(P, 3)
        assert not H._free(w, w.action["F"])
