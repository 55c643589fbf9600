"""Acceptance suite: twelve verification criteria covering constructions,
the Auslander-Reiten translate, almost split sequences, the torsion
functor, block quivers, wings, dualities, the borel backend and coherence
with un-graded computations.

Each criterion is one test; on success it prints a single [PASS] line, and
a failure surfaces as the usual pytest [FAIL] for that criterion.
"""

import itertools

from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver import homological as H
from grquiver import polynomial as PY
from grquiver.grmod import (character_module, decompose, dual,
                            is_isomorphic, shift, validate, weyl_twist)

from linkage_oracle import non_semisimple_count
from ungraded_oracle import has_ungraded_section, ungraded_resolution_dims

P = 3
PRIMES = (3, 5)


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
    for p in PRIMES:
        for s in (1, 2, 3):
            for a in (0, 1):
                w = C.w_hat(p, s * p + a)
                assert_iso(H.tau(w), shift(w, (p, -p)),
                           f"p={p}: tau W({s * p + a})")
    ok(2, "tau(W(sp+a)) = W(sp+a)[(p,-p)] for s in {1,2,3}, a in {0,1}, "
          "p in {3,5}")


def test_criterion_03_tau_on_v():
    for p in PRIMES:
        for s in (1, 2):
            for a in (0, 1):
                for i in (0, 1):
                    v = shift(C.weyl_hat(p, s * p + a), (i, i))
                    expected = shift(C.weyl_hat(p, (s + 2) * p + a),
                                     (i - p, i - p))
                    assert_iso(H.tau(v), expected,
                               f"p={p}: tau V({s * p + a})[{i}]")
    ok(3, "tau(V(sp+a)[(i,i)]) = V((s+2)p+a)[(i-p,i-p)] on all 8 instances "
          "at each p in {3,5}")


def test_criterion_04_almost_split_middles():
    for p in PRIMES:
        seq = H.almost_split_sequence(shift(C.w_hat(p, p), (0, p)))
        assert seq.check() == [] and not seq.is_split()
        assert_iso(seq.middle, C.w_hat(p, 2 * p),
                   f"p={p}: middle of W-sequence")
        for a in range(p - 1):
            what = f"p={p}: zeta' for V({p + a})"
            end = dual(C.weyl_hat(p, p + a))
            zeta = H.almost_split_sequence(end)
            assert zeta.check() == [] and not zeta.is_split()
            assert_iso(zeta.left, C.weyl_hat(p, p + a), f"{what}: left")
            la = C.simple_hat(p, a)
            parts = [m for m, mult in decompose(zeta.middle)
                     for _ in range(mult)]
            q_parts = [m for m in parts if m.dim == 2 * p]
            assert len(q_parts) == 1, f"{what}: one 2p-dim summand"
            match_summands(zeta.middle,
                           [shift(la, (p, 0)), shift(la, (0, p)),
                            q_parts[0]],
                           f"{what}: middle")
    ok(4, "W(p)[(0,p)]-sequence middle = W(2p); zeta' middle for V(p+a) = "
          "L(a)[(p,0)] + L(a)[(0,p)] + 2p-dim projective, a < p-1, "
          "p in {3,5}")


def test_criterion_05_torsion_identities():
    for p in PRIMES:
        for s in (1, 2):
            for a in (0, 1):
                t1, _ = PY.t_poly(shift(C.weyl_hat(p, (s + 1) * p + a),
                                        (-p, 0)))
                assert_iso(t1, C.w_hat(p, s * p + a),
                           f"p={p}: first torsion identity")
                t2, _ = PY.t_poly(shift(C.weyl_hat(p, (s + 2) * p + a),
                                        (-p, -p)))
                expected = dual(
                    shift(C.weyl_hat(p, s * p - a - 2), (a + 1, a + 1)))
                assert_iso(t2, expected, f"p={p}: second torsion identity")
    ok(5, "t(V((s+1)p+a)[(-p,0)]) = W(sp+a) and "
          "t(V((s+2)p+a)[(-p,-p)]) = V(sp-a-2)[(a+1,a+1)]^o, p in {3,5}")


def _check_poly_sequence(end, left, middles, what):
    seq = PY.almost_split_in_poly(end)
    assert seq.check() == [] and not seq.is_split()
    assert_iso(seq.left, left, f"{what}: left term")
    match_summands(seq.middle, middles, f"{what}: middle")


def test_criterion_06_induced_polynomial_sequences():
    s = 2
    for p, a in itertools.product(PRIMES, (0, 1)):
        for l in range(0, s):  # sequences ending at a shifted Weyl module
            end = shift(C.weyl_hat(p, (s - l - 1) * p + a),
                        (0, (l + 1) * p))
            left = shift(C.w_hat(p, (s - l) * p + a), (0, l * p))
            mids = [shift(C.weyl_hat(p, (s - l) * p + a), (0, l * p))]
            if s - l - 1 >= 1:
                mids.append(shift(C.w_hat(p, (s - l - 1) * p + a),
                                  (0, (l + 1) * p)))
            what = f"p={p}: type-1 sequence a={a} l={l}"
            _check_poly_sequence(end, left, mids, what)
            _check_poly_sequence(weyl_twist(end), weyl_twist(left),
                                 [weyl_twist(m) for m in mids],
                                 f"twisted {what}")
        for l in range(1, s):  # sequences ending at a shifted W-module
            end = shift(C.w_hat(p, (s - l + 1) * p + a), ((l - 1) * p, 0))
            left = dual(shift(C.weyl_hat(p, (s - l) * p - a - 2),
                              (a + 1 + l * p, a + 1)))
            mids = [shift(C.w_hat(p, (s - l) * p + a), (l * p, 0)),
                    dual(shift(C.weyl_hat(p, (s - l + 1) * p - a - 2),
                               (a + 1 + (l - 1) * p, a + 1)))]
            what = f"p={p}: type-2 sequence a={a} l={l}"
            _check_poly_sequence(end, left, mids, what)
            _check_poly_sequence(weyl_twist(end), weyl_twist(left),
                                 [weyl_twist(m) for m in mids],
                                 f"twisted {what}")
        # sequence ending at V(sp+a)
        _check_poly_sequence(
            C.weyl_hat(p, s * p + a),
            dual(shift(C.weyl_hat(p, s * p - a - 2), (a + 1, a + 1))),
            [C.w_hat(p, s * p + a), C.w_hat_twisted(p, s * p + a)],
            f"p={p}: V-sequence a={a}")
    ok(6, "induced sequences, their twists and the V-ending sequence "
          "reproduced for s=2, all admissible l, a in {0,1}, p in {3,5}")


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
    for p, d in [(P, d) for d in range(3, 9)] + [(5, d) for d in range(5, 13)]:
        blocks = [q for q in AQ.schur_blocks(p, d) if len(q.vertices) > 1]
        if p == P:
            assert len(blocks) == 1, f"degree {d}"
        assert len(blocks) == non_semisimple_count(p, d), f"p={p} d={d}"
        for q in blocks:
            e = max(v.label.d for v in q.vertices.values()
                    if v.label.family in ("V", "Vo", "L"))
            n = 2 * (e // p) + 1
            assert len(q.vertices) == n * n + n - 2, f"p={p} d={d}"
    ok(8, "(1,1)-shift induces a block-quiver isomorphism; exactly one "
          "non-semisimple block per degree for d in 3..8 at p=3; the "
          "linkage oracle's count of them and n^2 + n - 2 vertices each "
          "for d in 5..12 at p=5")


def test_criterion_09_wings_and_orbit_scan():
    for p, s, a in itertools.product(PRIMES + (7,), (1, 2, 3), (0, 1)):
        what = f"p={p}: W({s * p + a})"
        seed = C.w_hat(p, s * p + a)
        mods = AQ.wing_modules(seed)
        assert len(mods) == s * (s + 1) // 2, what
        assert all(PY.is_polynomial(m).is_polynomial for m in mods), what
        # the theorem's hypothesis: the component has complexity 1
        assert [H.complexity(m) for m in [seed] + mods] \
            == [1] * (len(mods) + 1), what
        cur = seed
        for i in range(1, 51):
            cur = H.tau(cur)
            assert not PY.is_polynomial(cur).is_polynomial, \
                f"tau^{i} of {what} is polynomial"
        cur = seed
        for i in range(1, 51):
            cur = H.tau_inv(cur)
            assert not PY.is_polynomial(cur).is_polynomial, \
                f"tau^-{i} of {what} is polynomial"
    ok(9, "wing size s(s+1)/2, all members polynomial of complexity 1, and "
          "no polynomial module in the tau-orbit for 0 < |i| <= 50, "
          "p in {3,5,7}")


def test_criterion_10_duality_laws():
    for p in PRIMES:
        samples = [C.w_hat(p, p + 1), shift(C.weyl_hat(p, 2 * p), (-p, 0)),
                   C.weyl_hat(p, p + 2), shift(C.w_hat_twisted(p, p), (1, 1))]
        for m in samples:
            assert_iso(dual(dual(m)), m, f"p={p}: double dual")
            u, _ = PY.u_poly(m)
            t, _ = PY.t_poly(dual(m))
            assert_iso(u, dual(t), f"p={p}: u = (t dual)^o")
        for a in range(p):
            la = C.simple_hat(p, a)
            assert_iso(dual(la), la, f"p={p}: simple self-dual")
        patch = AQ.explore_component(C.weyl_hat(p, p), max_ql=2, max_tau=1)
        rep = AQ.column_symmetry_check(patch)
        assert rep["applicable"] and rep["passed"], (p, rep)
    ok(10, "double dual and u/t duality hold, simples self-dual, and the "
           "V(p)-component column symmetry check passes, p in {3,5}")


def test_criterion_11_borel_backend():
    for p in PRIMES:
        for d in range(0, 9):
            reports = PY.quasi_hereditary_check(p, 1, d)
            assert len(reports) == d + 1
            assert all(r.passed for r in reports), f"p={p}: degree {d}"
        for r in (1, 2):
            alg = C.borel_algebra(p, r)
            k0 = character_module(alg, (0, 0))
            assert H.nakayama(k0).weights == ((p ** r - 1, 1 - p ** r),)
        a1 = C.borel_algebra(p, 1)
        a2 = C.borel_algebra(p, 1, offset=2)
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
            assert bt == conv, f"p={p}: {bm} * {bn} -> {bt} != {conv}"
    ok(11, "quasi-hereditary evidence for d <= 8, nakayama shift "
           "(p^r-1)(1,-1), and Betti convolution on 5 outer tensors, "
           "p in {3,5}")


def test_criterion_12_forgetful_coherence():
    a1 = C.borel_algebra(P, 1)
    suite = [C.w_hat(P, 3), C.w_hat(P, 6), C.weyl_hat(P, 3),
             C.weyl_hat(P, 6), C.simple_hat(P, 0), C.simple_hat(P, 1),
             dual(C.weyl_hat(P, 4)), C.projective_indec(P, 1),
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
