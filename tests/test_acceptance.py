"""Acceptance suite: twelve verification criteria covering constructions,
the Auslander-Reiten translate, almost split sequences, the torsion
functor, block quivers, wings, dualities, the borel backend and coherence
with un-graded computations.

Each criterion is one test; on success it prints a single [PASS] line, and
a failure surfaces as the usual pytest [FAIL] for that criterion.
"""

from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver import homological as H
from grquiver import polynomial as PY
from grquiver.grmod import (character_module, contravariant_dual, decompose,
                            is_isomorphic, shift, validate, weyl_twist)

from ungraded_oracle import has_ungraded_section, ungraded_resolution_dims

P = 3


def ok(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def assert_iso(m, n, what: str) -> None:
    assert is_isomorphic(m, n) is not None, f"not isomorphic: {what}"


def match_summands(middle, expected, what: str) -> None:
    """Certified iso between the indecomposable summands of `middle` and
    the list of expected modules, with multiplicity."""
    parts = [m for m, mult in decompose(middle) for _ in range(mult)]
    remaining = list(expected)
    assert len(parts) == len(remaining), \
        f"{what}: {len(parts)} summands, expected {len(remaining)}"
    for piece in parts:
        hit = next((i for i, e in enumerate(remaining)
                    if is_isomorphic(piece, e) is not None), None)
        assert hit is not None, f"{what}: unmatched summand dim {piece.dim}"
        remaining.pop(hit)


def test_criterion_01_construction_fidelity():
    for p in (3, 5):
        for d in range(0, 4 * p + 1):
            assert validate(C.weyl_hat(p, d)) == []
        for a in range(p):
            assert validate(C.simple_hat(p, a)) == []
        for s in (1, 2, 3):
            for a in range(p - 1):
                w = C.w_hat(p, s * p + a)
                assert w.dim == s * p
                assert validate(w) == []
    ok(1, "weyl/w/simple families validate cell-exactly for d <= 4p, "
          "p in {3,5}")


def test_criterion_02_tau_on_w():
    for s in (1, 2, 3):
        for a in (0, 1):
            w = C.w_hat(P, s * P + a)
            assert_iso(H.tau(w), shift(w, (P, -P)), f"tau W({s * P + a})")
    ok(2, "tau(W(sp+a)) = W(sp+a)[(p,-p)] for s in {1,2,3}, a in {0,1}")


def test_criterion_03_tau_on_v():
    for s in (1, 2):
        for a in (0, 1):
            for i in (0, 1):
                v = shift(C.weyl_hat(P, s * P + a), (i, i))
                expected = shift(C.weyl_hat(P, (s + 2) * P + a),
                                 (i - P, i - P))
                assert_iso(H.tau(v), expected, f"tau V({s * P + a})[{i}]")
    ok(3, "tau(V(sp+a)[(i,i)]) = V((s+2)p+a)[(i-p,i-p)] on all 8 instances")


def test_criterion_04_almost_split_middles():
    seq = H.almost_split_sequence(shift(C.w_hat(P, 3), (0, 3)))
    assert seq.check() == [] and not seq.is_split()
    assert_iso(seq.middle, C.w_hat(P, 6), "middle of W-sequence")
    for a in (0, 1):
        end = contravariant_dual(C.weyl_hat(P, P + a))
        zeta = H.almost_split_sequence(end)
        assert zeta.check() == [] and not zeta.is_split()
        assert_iso(zeta.left, C.weyl_hat(P, P + a), "left of zeta'")
        la = C.simple_hat(P, a)
        parts = [m for m, mult in decompose(zeta.middle)
                 for _ in range(mult)]
        q_parts = [m for m in parts if m.dim == 2 * P]
        assert len(q_parts) == 1, "middle of zeta' has one 2p-dim summand"
        match_summands(zeta.middle,
                       [shift(la, (P, 0)), shift(la, (0, P)), q_parts[0]],
                       "middle of zeta'")
    ok(4, "W-sequence middle = W(6); zeta' middle = L(a)[(p,0)] + "
          "L(a)[(0,p)] + 2p-dim projective")


def test_criterion_05_torsion_identities():
    for s in (1, 2):
        for a in (0, 1):
            t1, _ = PY.t_poly(shift(C.weyl_hat(P, (s + 1) * P + a), (-P, 0)))
            assert_iso(t1, C.w_hat(P, s * P + a), "first torsion identity")
            t2, _ = PY.t_poly(shift(C.weyl_hat(P, (s + 2) * P + a),
                                    (-P, -P)))
            expected = contravariant_dual(
                shift(C.weyl_hat(P, s * P - a - 2), (a + 1, a + 1)))
            assert_iso(t2, expected, "second torsion identity")
    ok(5, "t(V((s+1)p+a)[(-p,0)]) = W(sp+a) and "
          "t(V((s+2)p+a)[(-p,-p)]) = V(sp-a-2)[(a+1,a+1)]^o")


def _check_poly_sequence(end, left, middles, what):
    seq = PY.almost_split_in_poly(end)
    assert seq.check() == [] and not seq.is_split()
    assert_iso(seq.left, left, f"{what}: left term")
    match_summands(seq.middle, middles, f"{what}: middle")


def test_criterion_06_induced_polynomial_sequences():
    s = 2
    dual = contravariant_dual
    for a in (0, 1):
        for l in range(0, s):  # sequences ending at a shifted Weyl module
            end = shift(C.weyl_hat(P, (s - l - 1) * P + a),
                        (0, (l + 1) * P))
            left = shift(C.w_hat(P, (s - l) * P + a), (0, l * P))
            mids = [shift(C.weyl_hat(P, (s - l) * P + a), (0, l * P))]
            if s - l - 1 >= 1:
                mids.append(shift(C.w_hat(P, (s - l - 1) * P + a),
                                  (0, (l + 1) * P)))
            _check_poly_sequence(end, left, mids, f"type-1 sequence a={a} l={l}")
            _check_poly_sequence(weyl_twist(end), weyl_twist(left),
                                 [weyl_twist(m) for m in mids],
                                 f"twisted type-1 sequence a={a} l={l}")
        for l in range(1, s):  # sequences ending at a shifted W-module
            end = shift(C.w_hat(P, (s - l + 1) * P + a), ((l - 1) * P, 0))
            left = dual(shift(C.weyl_hat(P, (s - l) * P - a - 2),
                              (a + 1 + l * P, a + 1)))
            mids = [shift(C.w_hat(P, (s - l) * P + a), (l * P, 0)),
                    dual(shift(C.weyl_hat(P, (s - l + 1) * P - a - 2),
                               (a + 1 + (l - 1) * P, a + 1)))]
            _check_poly_sequence(end, left, mids, f"type-2 sequence a={a} l={l}")
            _check_poly_sequence(weyl_twist(end), weyl_twist(left),
                                 [weyl_twist(m) for m in mids],
                                 f"twisted type-2 sequence a={a} l={l}")
        # sequence ending at V(sp+a)
        _check_poly_sequence(
            C.weyl_hat(P, s * P + a),
            dual(shift(C.weyl_hat(P, s * P - a - 2), (a + 1, a + 1))),
            [C.w_hat(P, s * P + a), C.w_hat_twisted(P, s * P + a)],
            f"V-sequence a={a}")
    ok(6, "induced sequences, their twists and the V-ending sequence "
          "reproduced for s=2, all admissible l, a in {0,1}")


def test_criterion_07_block_templates():
    for p, s_max in ((P, 4), (5, 3)):
        for s in range(1, s_max + 1):
            d, n = s * p, 2 * s + 1
            q = AQ.schur_block_quiver(p, d, f"V({d})").stable_part()
            assert len(q.vertices) == n * n, f"p={p} d={d}"
            assert AQ.template_match(q, n, n) is not None, f"p={p} d={d}"
    ok(7, "stable degree-sp block = Z[A_{2s+1}]/tau^{2s+1} with (2s+1)^2 "
          "vertices, for s = 1..4 at p=3 and s = 1..3 at p=5")


def test_criterion_08_morita_and_block_count():
    rep = AQ.morita_shift_compare(P, 3, 1)
    assert rep["isomorphic"] and rep["dims_preserved"]
    for d in range(3, 9):
        assert AQ.count_non_semisimple_blocks(P, d) == 1, f"degree {d}"
    ok(8, "(1,1)-shift induces a block-quiver isomorphism; exactly one "
          "non-semisimple block per degree for d in 3..8")


def test_criterion_09_wings_and_orbit_scan():
    for s in (1, 2, 3):
        for a in (0, 1):
            seed = C.w_hat(P, s * P + a)
            mods = AQ.wing_modules(seed)
            assert len(mods) == s * (s + 1) // 2
            assert all(PY.is_polynomial(m).is_polynomial for m in mods)
            cur = seed
            for i in range(1, 51):
                cur = H.tau(cur)
                assert not PY.is_polynomial(cur).is_polynomial, \
                    f"tau^{i} of W({s * P + a}) is polynomial"
            cur = seed
            for i in range(1, 51):
                cur = H.tau_inv(cur)
                assert not PY.is_polynomial(cur).is_polynomial, \
                    f"tau^-{i} of W({s * P + a}) is polynomial"
    ok(9, "wing size s(s+1)/2, all members polynomial, and no polynomial "
          "module in the tau-orbit for 0 < |i| <= 50")


def test_criterion_10_duality_laws():
    samples = [C.w_hat(P, 4), shift(C.weyl_hat(P, 6), (-P, 0)),
               C.weyl_hat(P, 5), shift(C.w_hat_twisted(P, 3), (1, 1))]
    for m in samples:
        assert_iso(contravariant_dual(contravariant_dual(m)), m,
                   "double dual")
        u, _ = PY.u_poly(m)
        t, _ = PY.t_poly(contravariant_dual(m))
        assert_iso(u, contravariant_dual(t), "u = (t dual)^o")
    for a in range(P):
        la = C.simple_hat(P, a)
        assert_iso(contravariant_dual(la), la, "simple self-dual")
    patch = AQ.explore_component(C.weyl_hat(P, 3), max_ql=2, max_tau=1)
    rep = AQ.column_symmetry_check(patch)
    assert rep["applicable"] and rep["passed"], rep
    ok(10, "double dual and u/t duality hold, simples self-dual, and the "
           "V(3)-component column symmetry check passes")


def test_criterion_11_borel_backend():
    for d in range(0, 9):
        reports = PY.quasi_hereditary_check(P, 1, d)
        assert len(reports) == d + 1
        assert all(r.passed for r in reports), f"degree {d}"
    for r in (1, 2):
        alg = C.borel_algebra(P, r)
        k0 = character_module(alg, (0, 0))
        assert H.nakayama(k0).weights == ((P ** r - 1, 1 - P ** r),)
    a1 = C.borel_algebra(P, 1)
    a2 = C.borel_algebra(P, 1, offset=2)
    z1 = C.borel_projective((0, 0), a1)
    z2 = C.borel_projective((0, 0), a2)
    two1, _ = PY.u_poly(H.omega(character_module(a1, (2, 0))))
    instances = [
        (character_module(a1, (0, 0)), character_module(a2, (0, 0))),
        (character_module(a1, (0, 0)), z2),
        (z1, character_module(a2, (1, 1))),
        (character_module(a1, (2, 1)), character_module(a2, (0, 2))),
        (H.omega(character_module(a1, (0, 0))),
         character_module(a2, (0, 0))),
    ]
    for m, n in instances:
        bm = H.betti(m, 6).dims
        bn = H.betti(n, 6).dims
        bt = H.betti(C.outer_tensor(m, n), 6).dims
        conv = [sum(bm[i] * bn[k - i] for i in range(k + 1))
                for k in range(6)]
        assert bt == conv, f"{bm} * {bn} -> {bt} != {conv}"
    ok(11, "quasi-hereditary evidence for d <= 8, nakayama shift "
           "(p^r-1)(1,-1), and Betti convolution on 5 outer tensors")


def test_criterion_12_forgetful_coherence():
    a1 = C.borel_algebra(P, 1)
    suite = [C.w_hat(P, 3), C.w_hat(P, 6), C.weyl_hat(P, 3),
             C.weyl_hat(P, 6), C.simple_hat(P, 0), C.simple_hat(P, 1),
             contravariant_dual(C.weyl_hat(P, 4)), C.projective_indec(P, 1),
             character_module(a1, (0, 0)), character_module(a1, (2, 1))]
    assert len(suite) == 10
    for m in suite:
        graded = H.betti(m, 4).dims
        ungraded = ungraded_resolution_dims(m, 4)
        assert graded == ungraded, f"dim {m.dim}: {graded} != {ungraded}"
        if not H.is_projective(m):
            seq = H.almost_split_sequence(m)
            assert not has_ungraded_section(seq), \
                f"sequence ending at dim-{m.dim} module splits un-graded"
    ok(12, "graded and un-graded minimal resolution dimensions agree and "
           "no constructed sequence splits un-graded, on 10 modules")
