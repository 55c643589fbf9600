"""Graded modules over the restricted enveloping algebra of sl2 and over
truncated polynomial rings: validation, shifts, dualities, radical layers,
hom spaces and decomposition."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grquiver import constructions as C
from grquiver.grmod import (GradedModule, ModuleMap, character_module,
                            decompose, degree_decompose, direct_sum, dual,
                            hom_space, is_isomorphic, quotient,
                            quotient_representatives, radical, shift, socle, submodule_from_subspace, submodule_span,
                            top, validate, weyl_twist, zero_module)


P = 3


@pytest.fixture
def v6():
    return C.weyl_hat(P, 6)


class TestValidate:
    def test_families_validate(self):
        for d in range(0, 10):
            assert validate(C.weyl_hat(P, d)) == []
        for a in range(P):
            assert validate(C.simple_hat(P, a)) == []

    def test_borel_free_validates(self):
        alg = C.borel_algebra(P, 2)
        assert validate(C.borel_projective((1, 1), alg)) == []

    def test_broken_grading_detected(self):
        m = C.weyl_hat(P, 2)
        bad = GradedModule(m.algebra, (m.weights[0],) * 3, m.action)
        assert validate(bad) != []

    def test_broken_relation_detected(self):
        m = C.weyl_hat(P, 2)
        action = dict(m.action)
        action["E"] = np.zeros_like(action["E"])
        bad = GradedModule(m.algebra, m.weights, action)
        assert validate(bad) != []


def grading_findings_loop(m):
    """The grading and H findings of `validate`, by the double loops over
    every entry that its masks replaced."""
    report = []
    for g in m.algebra.generators():
        d = m.algebra.action_shift(g)
        mat = m.action[g]
        for j in range(m.dim):
            tgt = (m.weights[j][0] + d[0], m.weights[j][1] + d[1])
            for i in range(m.dim):
                if mat[i, j] and m.weights[i] != tgt:
                    report.append(
                        f"grading: {g}*e_{j} hits weight {m.weights[i]}, "
                        f"expected {tgt}")
    if m.algebra.kind == "sl2r1":
        H = m.action["H"]
        for j in range(m.dim):
            a, b = m.weights[j]
            want = np.zeros(m.dim, dtype=np.int64)
            want[j] = (a - b) % m.algebra.p
            if not np.array_equal(H[:, j], want):
                report.append(f"H does not act as (a-b) mod p on basis "
                              f"vector {j} of weight {(a, b)}")
    return report


def planted_violations():
    """Modules with wrong weights, stray generator entries and wrong H
    entries planted, and two valid ones."""
    v = C.weyl_hat(5, 7)
    weights = list(v.weights)
    weights[1] = (weights[1][0] + 1, weights[1][1])
    weights[4] = (weights[4][0], weights[4][1] - 2)
    yield GradedModule(v.algebra, tuple(weights), v.action)
    action = {g: a.copy() for g, a in v.action.items()}
    action["E"][0, 0] = action["F"][5, 2] = 1
    action["H"][2, 6] = 3
    action["H"][3, 3] = (action["H"][3, 3] + 1) % 5
    yield GradedModule(v.algebra, v.weights, action)
    w = C.w_hat(3, 7)
    yield GradedModule(w.algebra, w.weights[::-1], w.action)
    z = C.borel_projective((1, 1), C.borel_algebra(3, 2))
    yield GradedModule(z.algebra, z.weights[1:] + z.weights[:1], z.action)
    yield v
    yield z


class TestValidateMasks:
    def test_findings_against_loops(self):
        planted = 0
        for m in planted_violations():
            found = [e for e in validate(m) if not e.startswith("relation")]
            assert found == grading_findings_loop(m)
            planted += len(found) > 1
        assert planted == 4


class TestShiftAndDuality:
    def test_shift_translates_support(self, v6):
        s = shift(v6, (2, -1))
        assert s.support() == {(a + 2, b - 1) for a, b in v6.support()}

    @given(st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=20, deadline=None)
    def test_shift_inverse(self, a, b):
        m = C.w_hat(P, 4)
        back = shift(shift(m, (a, b)), (-a, -b))
        assert back.weights == m.weights
        assert all(np.array_equal(back.action[g], m.action[g])
                   for g in back.action)

    def test_dual_involution(self, v6):
        dd = dual(dual(v6))
        assert is_isomorphic(dd, v6) is not None

    def test_dual_preserves_support(self, v6):
        assert dual(v6).support() == v6.support()

    def test_twist_involution(self, v6):
        tt = weyl_twist(weyl_twist(v6))
        assert is_isomorphic(tt, v6) is not None

    def test_twist_swaps_coordinates(self, v6):
        assert weyl_twist(v6).support() == {(b, a) for a, b in v6.support()}

    def test_simples_self_dual(self):
        for a in range(P):
            s = C.simple_hat(P, a)
            assert is_isomorphic(dual(s), s) is not None

    def test_borel_dual_involution(self):
        alg = C.borel_algebra(P, 1)
        z = C.borel_projective((2, 0), alg)
        assert is_isomorphic(dual(dual(z)), z) is not None


class TestLayers:
    def test_weyl_radical_socle(self, v6):
        # V(6) at p=3: the generator action leaves exactly the classes of
        # v_0, v_3, v_6 in the top, so the radical is 4-dimensional.
        rad, _ = radical(v6)
        t, _ = top(v6)
        assert rad.dim == 4
        assert t.dim == 3
        assert rad.dim + t.dim == v6.dim
        soc, _ = socle(v6)
        assert soc.dim == 4

    def test_simple_has_zero_radical(self):
        rad, _ = radical(C.simple_hat(P, 2))
        assert rad.dim == 0

    def test_borel_radical_is_augmentation(self):
        alg = C.borel_algebra(P, 1)
        z = C.borel_projective((0, 0), alg)
        rad, _ = radical(z)
        assert rad.dim == z.dim - 1

    def test_socle_of_w(self):
        w = C.w_hat(P, P + 1)  # s=1, a=1: socle L(p-a-2) = L(0)
        soc, _ = socle(w)
        assert soc.dim == 1


class TestSubquotients:
    def test_submodule_closure(self, v6):
        e = np.zeros(7, dtype=np.int64)
        e[0] = 1
        sub, incl = submodule_span(v6, [e])
        assert incl.check() == []
        assert validate(sub) == []

    def test_quotient_dims(self, v6):
        e = np.zeros(7, dtype=np.int64)
        e[0] = 1
        sub, incl = submodule_span(v6, [e])
        q, proj = quotient(v6, incl.matrix)
        assert q.dim == v6.dim - sub.dim
        assert proj.check() == []

    def test_quotient_representatives(self, v6):
        """The representatives are basis vectors of m sent to the basis of
        the quotient, at the weights of that basis."""
        e = np.zeros(7, dtype=np.int64)
        e[0] = 1
        sub, incl = submodule_span(v6, [e])
        for q, proj in (quotient(v6, incl.matrix), top(v6),
                        top(direct_sum([v6, shift(v6, (3, 0))]))):
            reps = quotient_representatives(proj)
            assert np.array_equal(proj.matrix[:, reps], np.eye(q.dim))
            assert [proj.source.weights[j] for j in reps] == list(q.weights)

    def test_non_graded_span_is_rejected(self):
        # e1 + e2 in L(0) + L(0)[(3, 0)] is killed by the action, so its
        # span is invariant, but its weight components are not in it
        m = direct_sum([C.simple_hat(P, 0),
                        shift(C.simple_hat(P, 0), (3, 0))])
        span = np.array([[1], [1]], dtype=np.int64)
        # e1 + e2 and e1 - e2 span all of m, a graded subspace, but neither
        # column is a weight vector
        mixed = np.array([[1, 1], [1, -1]], dtype=np.int64)
        for build in (quotient, submodule_from_subspace,
                      lambda mod, cols: submodule_span(mod, list(cols.T))):
            for columns in (span, mixed):
                with pytest.raises(ValueError,
                                   match="subspace is not graded"):
                    build(m, columns)

    def test_non_invariant_span_is_rejected(self, v6):
        # the lowest weight vector of V(6) is not killed by E
        low = v6.weights.index(min(v6.weights))
        span = np.eye(v6.dim, dtype=np.int64)[:, [low]]
        with pytest.raises(ValueError, match="submodule not closed under E"):
            quotient(v6, span)
        with pytest.raises(ValueError, match="basis not invariant"):
            submodule_from_subspace(v6, span)

    def test_degree_decompose(self):
        m = direct_sum([C.weyl_hat(P, 2), C.weyl_hat(P, 4)])
        parts = degree_decompose(m)
        assert sorted(parts) == [2, 4]
        assert parts[2].dim == 3 and parts[4].dim == 5


class TestHomAndIso:
    def test_schur_lemma(self):
        for a in range(P):
            s = C.simple_hat(P, a)
            assert len(hom_space(s, s)) == 1

    def test_no_hom_between_distinct_simples(self):
        assert hom_space(C.simple_hat(P, 0), C.simple_hat(P, 1)) == []

    def test_shifted_not_isomorphic(self, v6):
        assert is_isomorphic(v6, shift(v6, (1, -1))) is None

    def test_iso_is_certified(self, v6):
        phi = is_isomorphic(v6, v6)
        assert phi is not None
        ff = v6.field
        assert ff.rank(phi) == v6.dim
        for g in v6.action:
            assert np.array_equal(ff.matmul(v6.action[g], phi),
                                  ff.matmul(phi, v6.action[g]))

    def test_large_hom_non_isomorphic_is_fast(self):
        # dim Hom = 16: a search over combinations would try 3^16 of them
        v3, vo3 = C.weyl_hat(P, 3), C.weyl_hat_dual(P, 3)
        m, n = direct_sum([v3, v3, v3, vo3]), direct_sum([v3] * 4)
        assert len(hom_space(m, n)) == 16
        start = time.perf_counter()
        assert is_isomorphic(m, n) is None
        assert time.perf_counter() - start < 5

    def test_krull_schmidt_isomorphism_is_certified(self):
        v3, vo3 = C.weyl_hat(P, 3), C.weyl_hat_dual(P, 3)
        m, n = direct_sum([v3, vo3, v3]), direct_sum([vo3, v3, v3])
        phi = is_isomorphic(m, n)
        assert phi is not None
        iso = ModuleMap(m, n, phi)
        assert iso.check() == []  # keeps weights and intertwines
        assert m.field.rank(phi) == m.dim


class TestModuleMapCheck:
    def test_weight_violations_in_column_order(self):
        # entries (2,1) and (0,3) join different weights; they are reported
        # column by column, so (2,1) first, then the intertwining failures
        v3 = C.weyl_hat(P, 3)
        phi = np.eye(v3.dim, dtype=np.int64)
        phi[0, 3], phi[2, 1] = 1, 2
        errs = ModuleMap(v3, v3, phi).check()
        assert errs[:2] == ["entry (2,1) violates weight preservation",
                            "entry (0,3) violates weight preservation"]
        assert errs[2:] and all(e.startswith("does not intertwine")
                                for e in errs[2:])
        assert ModuleMap(v3, v3, np.eye(v3.dim, dtype=np.int64)).check() == []


class TestDecompose:
    def test_indecomposable_weyl(self, v6):
        parts = decompose(v6)
        assert len(parts) == 1 and parts[0][1] == 1

    def test_direct_sum_recovered(self):
        m = direct_sum([C.w_hat(P, 3), shift(C.w_hat(P, 3), (0, 3))])
        parts = decompose(m)
        assert sorted(x.dim for x, _ in parts for _ in range(_)) == [3, 3]

    def test_steinberg_shift_decomposition(self):
        # V(2p-1) splits into two Steinberg shifts
        v = C.weyl_hat(P, 2 * P - 1)
        parts = decompose(v)
        dims = sorted(x.dim * mult for x, mult in parts)
        assert sum(dims) == 2 * P
        assert all(x.dim == P for x, _ in parts)


class TestSerialization:
    def test_json_roundtrip_identity(self, v6):
        m = GradedModule.from_json(v6.to_json())
        assert m.weights == v6.weights
        assert all(np.array_equal(m.action[g], v6.action[g])
                   for g in m.action)

    def test_json_deterministic(self, v6):
        assert v6.to_json() == GradedModule.from_json(v6.to_json()).to_json()

    def test_zero_module_roundtrip(self):
        z = zero_module(C.sl2_algebra(P))
        assert GradedModule.from_json(z.to_json()).dim == 0

    @pytest.mark.parametrize("key", ["algebra", "dim", "weights", "action"])
    def test_missing_key_is_named(self, v6, key):
        d = {k: v for k, v in v6.to_json_dict().items() if k != key}
        with pytest.raises(ValueError, match=f"field '{key}' is missing"):
            GradedModule.from_json_dict(d)

    @pytest.mark.parametrize("key", ["kind", "p"])
    def test_missing_algebra_key_is_named(self, v6, key):
        d = v6.to_json_dict()
        del d["algebra"][key]
        with pytest.raises(ValueError,
                           match=f"field 'algebra.{key}' is missing"):
            GradedModule.from_json_dict(d)

    def test_dim_must_count_the_weights(self):
        d = {"algebra": {"kind": "sl2r1", "p": 3}, "dim": 2,
             "weights": [[0, 0]], "action": {}}
        with pytest.raises(ValueError, match="field 'dim' is 2, but there "
                                             "are 1 weights"):
            GradedModule.from_json_dict(d)

    @pytest.mark.parametrize("action", [
        {},
        {"E": [[0]], "F": [[0]]},
        {"E": [[0]], "F": [[0]], "H": [[0]], "X1": [[0]]},
    ], ids=["none", "missing-H", "extra-X1"])
    def test_action_keys_are_the_generators(self, action):
        d = {"algebra": {"kind": "sl2r1", "p": 3}, "dim": 1,
             "weights": [[0, 0]], "action": action}
        with pytest.raises(ValueError, match="field 'action' does not have "
                                             "exactly the keys"):
            GradedModule.from_json_dict(d)

    @pytest.mark.parametrize("bad", [[[0, 1], [0, 0]], [0] * 49, []])
    def test_matrix_must_be_dim_by_dim(self, v6, bad):
        d = v6.to_json_dict()
        d["action"]["F"] = bad
        with pytest.raises(ValueError,
                           match=r"field 'action.F' is not a 7 x 7 matrix"):
            GradedModule.from_json_dict(d)

    @pytest.mark.parametrize("field", ["r", "offset"])
    def test_borel_algebra_needs_a_generator(self, field):
        d = {"algebra": {"kind": "borel", "p": 3, field: 0}, "dim": 1,
             "weights": [[0, 0]], "action": {}}
        with pytest.raises(ValueError, match=f"needs {field} >= 1, got 0"):
            GradedModule.from_json_dict(d)

    def test_character_module_weights(self):
        alg = C.borel_algebra(P, 1)
        k = character_module(alg, (2, 1))
        assert k.weights == ((2, 1),)
        assert validate(k) == []
