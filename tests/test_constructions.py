"""Module families, the graded projective indecomposables, family labels
and outer tensor products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grquiver import constructions as C
from grquiver.grmod import (is_isomorphic, shift, socle, top, validate,
                            weyl_twist)
from grquiver.homological import is_projective


class TestWeylFamily:
    @pytest.mark.parametrize("p", [3, 5])
    def test_dims_and_weights(self, p):
        for d in range(0, 3 * p):
            v = C.weyl_hat(p, d)
            assert v.dim == d + 1
            assert v.weights == tuple((i, d - i) for i in range(d + 1))
            assert validate(v) == []

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            C.weyl_hat(3, -1)

    def test_simple_equals_small_weyl(self):
        for a in range(3):
            assert is_isomorphic(C.simple_hat(3, a),
                                 C.weyl_hat(3, a)) is not None

    def test_dual_weyl_support(self):
        assert C.weyl_hat_dual(3, 4).support() == C.weyl_hat(3, 4).support()


class TestWFamily:
    @pytest.mark.parametrize("p", [3, 5])
    def test_dimension_sp(self, p):
        for s in (1, 2, 3):
            for a in (0, 1):
                w = C.w_hat(p, s * p + a)
                assert w.dim == s * p
                assert validate(w) == []

    def test_weights_drop_lowest(self):
        # W(sp+a) sits inside V(sp+a) on the basis vectors above index a
        w = C.w_hat(3, 4)
        assert w.support() == {(i, 4 - i) for i in range(2, 5)}

    def test_socle_is_single_simple(self):
        # socle L(p-a-2) for a <= p-2
        w = C.w_hat(3, 3)
        soc, _ = socle(w)
        assert is_isomorphic(soc, shift(C.simple_hat(3, 1),
                                        (1, 1))) is not None

    def test_twisted_version(self):
        wt = C.w_hat_twisted(3, 3)
        assert is_isomorphic(wt, weyl_twist(C.w_hat(3, 3))) is not None


class TestProjectives:
    @pytest.mark.parametrize("p", [3, 5])
    def test_dim_2p(self, p):
        for a in range(p - 1):
            q = C.projective_indec(p, a)
            assert q.dim == 2 * p
            t, _ = top(q)
            assert is_isomorphic(t, C.simple_hat(p, a)) is not None

    def test_top_and_socle_agree(self):
        q = C.projective_indec(3, 1)
        t, _ = top(q)
        soc, _ = socle(q)
        assert is_isomorphic(t, soc) is not None

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_cached_projective_is_read_only(self, a):
        q = C.projective_indec(3, a)
        for g, mat in q.action.items():
            with pytest.raises(ValueError):
                mat[0, 0] = 1
        assert validate(C.projective_indec(3, a)) == []

    def test_steinberg_is_projective_simple(self):
        # St = L(p-1) is its own projective cover
        st_mod = C.simple_hat(3, 2)
        assert is_projective(st_mod)
        assert is_isomorphic(C.projective_indec(3, 2), st_mod) is not None


class TestBorel:
    def test_free_module_dim(self):
        alg = C.borel_algebra(3, 2)
        z = C.borel_projective((0, 0), alg)
        assert z.dim == 9
        assert validate(z) == []

    def test_generator_nilpotency_degree(self):
        alg = C.borel_algebra(3, 1)
        z = C.borel_projective((0, 0), alg)
        x = z.action["X1"]
        assert np.any(np.linalg.matrix_power(x, 2))
        assert not np.any(np.linalg.matrix_power(x, 3))

    def test_outer_tensor_of_frees_is_free(self):
        a1 = C.borel_algebra(3, 1)
        a2 = C.borel_algebra(3, 1, offset=2)
        t = C.outer_tensor(C.borel_projective((0, 0), a1),
                           C.borel_projective((0, 0), a2))
        assert t.dim == 9
        assert validate(t) == []

    def test_outer_tensor_rejects_overlapping_ranges(self):
        a1 = C.borel_algebra(3, 1)
        with pytest.raises(ValueError):
            C.outer_tensor(C.borel_projective((0, 0), a1),
                           C.borel_projective((0, 0), a1))


class TestLabels:
    @pytest.mark.parametrize("text", [
        "V(3)", "Vo(4)+(1,-2)", "W(6)w0", "L(1)+(0,3)", "Q(1)+(1,1)",
        "W(9)+(-3,0)",
    ])
    def test_roundtrip(self, text):
        lab = C.parse_label(text)
        assert str(lab) == text
        m = lab.build(3)
        assert validate(m) == []

    def test_unknown_family_raises(self):
        with pytest.raises(C.LabelParseError):
            C.parse_label("Nope(3)")

    def test_label_build_matches_construction(self):
        m = C.parse_label("W(6)+(1,2)").build(3)
        assert is_isomorphic(m, shift(C.w_hat(3, 6), (1, 2))) is not None

    @given(st.integers(0, 8), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_shift_composes(self, d, a, b):
        lab = C.FamilyLabel("V", d=d).shifted((a, b))
        assert is_isomorphic(lab.build(3),
                             shift(C.weyl_hat(3, d), (a, b))) is not None
