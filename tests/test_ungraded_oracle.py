"""Self-checks for the un-graded oracle: it must detect split sequences
and reproduce known resolution growth before it is trusted elsewhere."""

import numpy as np
import pytest

from grquiver import constructions as C
from grquiver import homological as H
from grquiver.grmod import ModuleMap, character_module, direct_sum, shift

from ungraded_oracle import (_projective_action, _top_content,
                             has_ungraded_section, hom_basis_ungraded,
                             ungraded_resolution_dims)

P = 3


def split_sequence(m):
    """The trivially split sequence 0 -> m -> m + m -> m -> 0."""
    s = direct_sum([m, m])
    ff = m.field
    inj = np.vstack([ff.eye(m.dim), ff.zeros(m.dim, m.dim)])
    surj = np.hstack([ff.zeros(m.dim, m.dim), ff.eye(m.dim)])
    return H.ShortExact(m, s, m, ModuleMap(m, s, inj), ModuleMap(s, m, surj))


class TestSectionDetector:
    def test_detects_split(self):
        assert has_ungraded_section(split_sequence(C.w_hat(P, 3)))

    def test_rejects_almost_split(self):
        seq = H.almost_split_sequence(C.w_hat(P, 3))
        assert not has_ungraded_section(seq)

    def test_detects_borel_split(self):
        alg = C.borel_algebra(P, 1)
        assert has_ungraded_section(
            split_sequence(character_module(alg, (0, 0))))


class TestResolutionOracle:
    def test_periodic_trivial_module(self):
        alg = C.borel_algebra(P, 1)
        k0 = character_module(alg, (0, 0))
        assert ungraded_resolution_dims(k0, 4) == [P] * 4

    def test_projective_resolves_in_one_step(self):
        q = C.projective_indec(P, 0)
        assert ungraded_resolution_dims(q, 4) == [2 * P, 0, 0, 0]

    @pytest.mark.parametrize("p", [3, 5])
    def test_own_projectives_have_dim_2p_and_top_la(self, p):
        # a quotient of Q(a) of dimension dim Q(a) is Q(a)
        alg = C.sl2_algebra(p)
        for a in range(p):
            act = _projective_action(p, a)
            dim = act["E"].shape[0]
            assert dim == (p if a == p - 1 else 2 * p)
            assert _top_content(alg, act, dim) == [int(b == a)
                                                   for b in range(p)]

    def test_shift_invariance(self):
        # forgetting the grading makes shifts irrelevant
        w = C.w_hat(P, 6)
        assert (ungraded_resolution_dims(w, 4)
                == ungraded_resolution_dims(shift(w, (5, -2)), 4))


class TestHomBasis:
    def test_schur_lemma_ungraded(self):
        s = C.simple_hat(P, 1)
        basis = hom_basis_ungraded(P, s.action, s.action,
                                   ["E", "F", "H"], s.dim, s.dim)
        assert len(basis) == 1

    def test_no_maps_between_distinct_simples(self):
        a, b = C.simple_hat(P, 0), C.simple_hat(P, 1)
        basis = hom_basis_ungraded(P, a.action, b.action,
                                   ["E", "F", "H"], a.dim, b.dim)
        assert basis == []
