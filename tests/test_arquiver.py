"""Canonical labeling, component exploration, wings, block enumeration,
template matching and quiver serialization."""

import itertools
import json

import pytest

import reference_blocks as RB
from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver import polynomial as PY
from grquiver.grmod import (GradedModule, character_module, dual,
                            is_isomorphic, shift)

P = 3


class TestIdentify:
    @pytest.mark.parametrize("text", [
        "V(3)", "W(6)", "W(4)w0+(1,-2)", "L(1)+(2,2)", "Vo(4)", "Q(1)+(1,1)",
    ])
    def test_families_recovered(self, text):
        lab = C.parse_label(text)
        got = AQ.identify(lab.build(P))
        assert got is not None
        assert str(got) == text or AQ.identify(got.build(P)) is not None

    def test_build_errors_propagate(self, monkeypatch):
        # every label identify forms builds, so an error raised by a build
        # is a broken invariant and reaches the caller
        real = C.FamilyLabel.build

        def build(lab, p):
            if lab.family == "W":
                raise RuntimeError("planted invariant violation")
            return real(lab, p)
        monkeypatch.setattr(C.FamilyLabel, "build", build)
        with pytest.raises(RuntimeError, match="planted"):
            AQ.identify(shift(C.w_hat(P, 6), (2, 1)))

    def test_identify_certifies_by_iso(self):
        m = shift(C.w_hat(P, 6), (2, 1))
        lab = AQ.identify(m)
        assert lab is not None
        assert lab.family == "W"
        assert lab.shift == (2, 1)

    def test_free_borel_modules_named_at_their_top(self):
        # over the raising algebra the top of a free module is its lowest
        # weight, not its highest
        lowering = C.borel_algebra(P, 1)
        raising = C.borel_algebra(P, 1, raising=True)
        cases = [(C.borel_projective((0, 0), lowering), "Z(0,0)@r=1"),
                 (C.borel_projective((0, 0), raising), "Z(0,0)@r=1,raising"),
                 (dual(C.borel_projective((0, 0), lowering)),
                  "Z(-2,2)@r=1,raising")]
        for m, text in cases:
            assert str(AQ.identify(m)) == text

    @pytest.mark.parametrize("p", [3, 5])
    def test_borel_labels_rebuild_their_module(self, p):
        # the label keeps the algebra's offset and weight convention
        mods = [dual(C.borel_projective((0, 0), C.borel_algebra(p, 1)))]
        for alg in (C.borel_algebra(p, 1, raising=True),
                    C.borel_algebra(p, 1, offset=2)):
            mods += [C.borel_projective((0, 0), alg),
                     character_module(alg, (1, -1))]
        for m in mods:
            lab = AQ.identify(m)
            assert is_isomorphic(m, lab.build(p)) is not None, str(lab)

    @pytest.mark.parametrize("r", [1, 2])
    def test_character_names_rebuild_their_module(self, r):
        # the names of a character and of a free module keep r, the offset
        # and the weight convention, so parsing one rebuilds the module over
        # the same algebra; names over the default algebra are unchanged
        for p, offset, raising in itertools.product((3, 5), (1, 2),
                                                    (False, True)):
            alg = C.borel_algebra(p, r, offset, raising)
            for w in ((0, 0), (1, -1), (2, 3)):
                for m in (character_module(alg, w),
                          C.borel_projective(w, alg)):
                    name = str(AQ.identify(m))
                    free = m.dim > 1
                    assert name.startswith("Z(" if free else "C(")
                    assert ("@r=" in name) == (
                        free or r != 1 or offset != 1 or raising)
                    assert (",offset=2" in name) == (offset == 2)
                    assert name.endswith(",raising") == raising
                    rebuilt = C.parse_label(name).build(p)
                    assert rebuilt.algebra == alg, name
                    assert is_isomorphic(m, rebuilt) is not None, name

    def test_unknown_returns_none(self):
        # a decomposable module matches no single family label
        from grquiver.grmod import direct_sum
        m = direct_sum([C.w_hat(P, 3), C.w_hat(P, 3)])
        assert AQ.identify(m) is None


class TestQuasiLengthAndWings:
    def test_quasi_length_of_w(self):
        assert AQ.quasi_length(C.w_hat(P, 3)) == 1
        assert AQ.quasi_length(C.w_hat(P, 6)) == 2

    def test_wing_sizes(self):
        for s in (1, 2, 3):
            mods = AQ.wing_modules(C.w_hat(P, s * P))
            assert len(mods) == s * (s + 1) // 2

    def test_wing_members_polynomial(self):
        for m in AQ.wing_modules(C.w_hat(P, 6)):
            assert PY.is_polynomial(m).is_polynomial

    def test_wing_of_w6_labels(self):
        labels = {str(AQ.identify(m)) for m in AQ.wing_modules(C.w_hat(P, 6))}
        assert labels == {"W(6)", "W(3)+(3,0)", "W(3)+(0,3)"}


@pytest.fixture(scope="module")
def w_patch():
    return AQ.explore_component(C.w_hat(P, 6), max_ql=2, max_tau=2)


@pytest.fixture(scope="module")
def q3():
    return AQ.schur_block_quiver(P, 3, "V(3)")


class TestExploreComponent:

    def test_seed_present(self, w_patch):
        assert w_patch.find_vertex(C.w_hat(P, 6)) is not None

    def test_mesh_relations_hold(self, w_patch):
        assert w_patch.mesh_violations() == []

    def test_polynomial_part_is_wing(self, w_patch):
        poly = {n for n, v in w_patch.vertices.items()
                if PY.is_polynomial(v.module).is_polynomial}
        assert poly == {"W(6)", "W(3)+(3,0)", "W(3)+(0,3)"}

    def test_tau_recorded(self, w_patch):
        name = w_patch.find_vertex(C.w_hat(P, 6))
        t = w_patch.tau.get(name)
        assert t is not None
        assert w_patch.vertices[t].module.dim == 6


class TestBlocks:
    def test_candidate_enumeration_degree3(self):
        cands = RB.enumerate_degree_candidates(P, 3)
        assert all(PY.is_polynomial(m).degree == 3 for _, m in cands)
        names = {str(lab) for lab, _ in cands}
        assert "V(3)" in names and "W(3)" in names

    def test_composition_factors(self):
        # V(4) = [L(1)+(3,0) | L(0)+(2,2) | L(1)+(0,3)]; Q(0) has L(0)
        # on top and in the socle, and L(1) twice in the heart
        assert AQ.composition_factors(C.weyl_hat(P, 4)) == [
            (4, 0), (2, 2), (1, 3)]
        assert sorted(AQ.composition_factors(C.projective_indec(P, 0))) == [
            (-1, 1), (0, 0), (0, 0), (2, -2)]

    def test_composition_factors_need_whole_characters(self):
        # weights (2, 0) and (0, 2) without (1, 1): no L(2) to peel
        m = GradedModule(C.sl2_algebra(P), ((2, 0), (0, 2)), {})
        with pytest.raises(ValueError, match=r"weight \(1, 1\)"):
            AQ.composition_factors(m)

    def test_nonsemisimple_block_count(self):
        assert RB.count_non_semisimple_blocks(P, 3) == 1
        assert RB.count_non_semisimple_blocks(P, 4) == 1

    def test_degree3_block_shape(self):
        q = AQ.schur_block_quiver(P, 3, "V(3)")
        assert len(q.vertices) == 10
        s = q.stable_part()
        assert len(s.vertices) == 9
        assert len(s.arrows) == 12

    def test_missing_ext_projective_names_its_simple(self, monkeypatch):
        # a truncated cover that is not a vertex of the block is an error
        # naming the simple and the step, not a vertex left unflagged
        real = PY.poly_projective_cover
        monkeypatch.setattr(PY, "poly_projective_cover",
                            lambda m: (shift(real(m)[0], (P, P)), None))
        with pytest.raises(RuntimeError,
                           match=r"^Ext-projective cover u\(P\(L\(\d\)"):
            AQ.schur_block_quiver(P, 3, "V(3)")

    def test_template_match_degree3(self):
        q = AQ.schur_block_quiver(P, 3, "V(3)")
        assert AQ.template_match(q.stable_part(), 3, 3) is not None

    def test_template_rejects_wrong_size(self):
        q = AQ.schur_block_quiver(P, 3, "V(3)")
        assert AQ.template_match(q.stable_part(), 5, 5) is None

    def test_morita_shift(self):
        rep = AQ.morita_shift_compare(P, 3, 1)
        assert rep["isomorphic"]
        assert rep["unmatched"] == []
        assert rep["dims_preserved"]


class TestTemplates:
    def test_template_vertex_count(self):
        t = AQ.build_template(3, 3)
        assert len(t.vertices) == 9
        t = AQ.build_template(5, 5)
        assert len(t.vertices) == 25

    def test_template_tau_total(self):
        t = AQ.build_template(3, 3)
        assert set(t.tau) == set(t.vertices)

    def test_self_match(self):
        t = AQ.build_template(3, 3)
        assert AQ.template_match(t, 3, 3) is not None


class TestSymmetry:
    def test_column_symmetry_on_v3_patch(self):
        q = AQ.explore_component(C.weyl_hat(P, 3), max_ql=2, max_tau=1)
        rep = AQ.column_symmetry_check(q)
        assert rep["applicable"]
        assert rep["passed"]
        assert rep["self_dual_vertices"]

    def test_borel_not_applicable(self):
        from grquiver.grmod import character_module
        alg = C.borel_algebra(P, 1)
        q = AQ.ARQuiver()
        q.add_module(character_module(alg, (0, 0)))
        assert not AQ.column_symmetry_check(q)["applicable"]


class TestSerialization:
    def test_dot_deterministic(self, q3):
        d1 = q3.to_dot()
        d2 = AQ.schur_block_quiver(P, 3, "V(3)").to_dot()
        assert d1 == d2
        assert d1.startswith("digraph")

    def test_json_shape(self, q3):
        d = q3.to_json_dict()
        assert set(d) >= {"vertices", "arrows"}
        json.dumps(d)  # must be serializable

    def test_dot_quotes_labels(self, q3):
        assert '"V(3)"' in q3.to_dot()
