"""The block builds and partitions that `arquiver.schur_block_quiver` and
`arquiver.schur_blocks` replaced, kept as references.

`ext_closure_blocks` closes the candidates of a degree under nonzero Hom in
either direction and then under nonzero Ext^1 over every ordered pair, and
`block_is_semisimple` calls a block semisimple when it has one member whose
endomorphisms are the scalars and which has no self-extension.
`hom_linkage_blocks` is the Hom-only linkage that followed them.  All
three group the candidates with `_UnionFind`.

`identify` names a module by testing isomorphism against every family
candidate that shares its weights, where `arquiver.identify` first drops
the candidates whose `kernel_profile` differs.  `mesh_violations` lists
the failed mesh relations of a quiver; only tests check them.

`partition_blocks` is the composition-factor partition that replaced the
Hom linkage, over the candidates of `enumerate_degree_candidates`: every
indecomposable polynomial module of the degree, built from the
classification families.  `schur_block_quiver` builds one block from that
enumeration: it finds the seed among the candidates, takes the seed's
class of the partition as the vertices and then adds the arrows.
"""

from __future__ import annotations

from grquiver import constructions, homological, polynomial
from grquiver.arquiver import (ARQuiver, VertexLabel, _weight_key,
                               composition_factors)
from grquiver.constructions import FamilyLabel
from grquiver.grmod import (GradedModule, Weight, decompose, dual, hom_space,
                            is_isomorphic, quotient, radical, socle, validate)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def groups(self):
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def ext_closure_blocks(cands) -> list[list[int]]:
    """Linkage-closure blocks (nonzero Hom or Ext^1) on candidate indices."""
    n = len(cands)
    uf = _UnionFind(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if uf.find(i) == uf.find(j):
                continue
            mi, mj = cands[i][1], cands[j][1]
            if hom_space(mi, mj) or hom_space(mj, mi):
                uf.union(i, j)
    for i in range(n):
        for j in range(n):
            if i == j or uf.find(i) == uf.find(j):
                continue
            if homological.ext1(cands[i][1], cands[j][1])[0] > 0:
                uf.union(i, j)
    return sorted(uf.groups(), key=lambda g: str(cands[min(g)][0]))


def block_is_semisimple(cands, block) -> bool:
    if len(block) > 1:
        return False
    i = block[0]
    m = cands[i][1]
    if len(hom_space(m, m)) > 1:
        return False
    return homological.ext1(m, m)[0] == 0


def hom_linkage_blocks(cands) -> list[list[int]]:
    """Blocks on candidate indices: the classes of the linkage
    Hom(m_i, m_j) != 0 or Hom(m_j, m_i) != 0."""
    n = len(cands)
    uf = _UnionFind(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if uf.find(i) == uf.find(j):
                continue
            mi, mj = cands[i][1], cands[j][1]
            if hom_space(mi, mj) or hom_space(mj, mi):
                uf.union(i, j)
    return sorted(uf.groups(), key=lambda g: str(cands[min(g)][0]))


def identify(m: GradedModule) -> FamilyLabel | None:
    """The family label of an indecomposable, or None: the first shifted
    family candidate of m's dimension and support that is isomorphic to
    m."""
    if m.dim == 0:
        return None
    p = m.algebra.p
    if m.algebra.kind == "borel":
        alg = m.algebra
        over = {"r": alg.r, "offset": alg.offset, "raising": alg.raising}
        if m.dim == 1:
            return FamilyLabel("Char", weight=m.weights[0], **over)
        if m.dim == p ** alg.r:
            lam = min(m.weights) if alg.raising else max(m.weights)
            cand = constructions.borel_projective(lam, alg)
            if is_isomorphic(m, cand) is not None:
                return FamilyLabel("Z", weight=lam, **over)
        return None
    mn = m.support_min()
    candidates: list[FamilyLabel] = []
    e = m.dim - 1
    if e <= p - 1:
        candidates.append(FamilyLabel("L", d=e, shift=mn))
    else:
        candidates.append(FamilyLabel("V", d=e, shift=mn))
        candidates.append(FamilyLabel("Vo", d=e, shift=mn))
    if m.dim % p == 0:
        s = m.dim // p
        for a in range(p - 1):
            d = s * p + a
            candidates.append(FamilyLabel(
                "W", d=d, shift=(mn[0] - (a + 1), mn[1])))
            candidates.append(FamilyLabel(
                "Wwo", d=d, shift=(mn[0], mn[1] - (a + 1))))
    if m.dim == 2 * p:
        for a in range(p - 1):
            q = constructions.projective_indec(p, a)
            qmn = q.support_min()
            candidates.append(FamilyLabel(
                "Q", d=a, shift=(mn[0] - qmn[0], mn[1] - qmn[1])))
    for lab in candidates:
        if is_isomorphic(m, lab.build(p)) is not None:
            return lab
    return None


def mesh_violations(q: ARQuiver) -> list[str]:
    """The mesh relations of q that fail: for each tau entry v -> tau v,
    the arrows into v, with multiplicity, must start where the arrows out
    of tau v end."""
    errs = []
    for v, tv in q.tau.items():
        into_v = sorted(s for (s, t), mult in q.arrows.items()
                        if t == v for _ in range(mult))
        out_tv = sorted(t for (s, t), mult in q.arrows.items()
                        if s == tv for _ in range(mult))
        if into_v != out_tv:
            errs.append(f"mesh fails at {v}: in {into_v} vs out of "
                        f"tau={tv} {out_tv}")
    return errs


def _legal_shifts(mn: tuple[int, int], base_degree: int, d: int,
                  p: int) -> list[tuple[int, int]]:
    """Polynomial shifts mu with mu1 = mu2 mod p and degree d."""
    total = d - base_degree
    lo = -mn[0]
    out = []
    inv2 = pow(2, p - 2, p)
    start = (total * inv2) % p  # 2*mu1 = total (mod p)
    mu1 = lo + ((start - lo) % p)  # smallest admissible representative
    while total - mu1 >= -mn[1]:
        out.append((mu1, total - mu1))
        mu1 += p
    return out


def enumerate_degree_candidates(p: int, d: int
                                ) -> list[tuple[FamilyLabel, GradedModule]]:
    """All indecomposable polynomial modules of weight degree d, as shifted
    members of the classification families."""
    out: list[tuple[FamilyLabel, GradedModule]] = []
    kept: dict[tuple[Weight, ...], list[GradedModule]] = {}

    def push(lab: FamilyLabel):
        try:
            m = lab.build(p)
        except (ValueError, RuntimeError):
            return
        verdict = polynomial.is_polynomial(m)
        if not verdict.is_polynomial or verdict.degree != d:
            return
        if [mult for _, mult in decompose(m)] != [1]:
            return  # e.g. V(sp + p - 1) splits into Steinberg shifts
        same_weights = kept.setdefault(_weight_key(m), [])
        if any(is_isomorphic(other, m) is not None for other in same_weights):
            return
        same_weights.append(m)
        out.append((lab, m))

    for e in range(d + 1):
        fams = ["L"] if e <= p - 1 else ["V", "Vo"]
        base_mn = (0, 0)
        for mu in _legal_shifts(base_mn, e, d, p):
            for fam in fams:
                push(FamilyLabel(fam, d=e, shift=mu))
    for dd in range(p, d + p):  # shifts may lower the degree by up to a+1
        s, a = divmod(dd, p)
        if s < 1 or a > p - 2:
            continue
        for mu in _legal_shifts((a + 1, 0), dd, d, p):
            push(FamilyLabel("W", d=dd, shift=mu))
        for mu in _legal_shifts((0, a + 1), dd, d, p):
            push(FamilyLabel("Wwo", d=dd, shift=mu))
    for a in range(p - 1):
        qm = constructions.projective_indec(p, a)
        for mu in _legal_shifts(qm.support_min(), qm.degree(), d, p):
            push(FamilyLabel("Q", d=a, shift=mu))
    out.sort(key=lambda t: str(t[0]))
    return out


def partition_blocks(cands: list[tuple[FamilyLabel, GradedModule]]
                     ) -> list[list[int]]:
    """Blocks on candidate indices: the classes of "the two candidates share
    a composition factor".

    `cands` must list every indecomposable of its degree, as
    `enumerate_degree_candidates` returns it (`schur_block_quiver` raises
    when a piece of its block is not a candidate).  These are the classes of
    the linkage Hom(m_i, m_j) != 0 or Hom(m_j, m_i) != 0: a nonzero map has
    a common composition factor as its image, and an indecomposable with
    composition factor S lies in the block of S.  Ext^1 then links nothing
    more: every indecomposable has a nonzero map from an indecomposable
    projective, and the projectives of one block are Hom-linked.
    """
    uf = _UnionFind(range(len(cands)))
    holder: dict[Weight, int] = {}
    for i, (_, m) in enumerate(cands):
        for f in composition_factors(m):
            uf.union(i, holder.setdefault(f, i))
    return sorted(uf.groups(), key=lambda g: str(cands[min(g)][0]))


def count_non_semisimple_blocks(p: int, d: int) -> int:
    """Blocks of degree d with more than one indecomposable.  A block whose
    only indecomposable is M also holds M's projective cover and its top,
    so M is simple and projective: a block is semisimple exactly when it
    has one member."""
    return sum(len(b) > 1
               for b in partition_blocks(enumerate_degree_candidates(p, d)))


def schur_block_quiver(p: int, d: int,
                       block_seed: FamilyLabel | str) -> ARQuiver:
    """AR quiver of the block of the degree-d polynomial category
    containing the seed."""
    if isinstance(block_seed, str):
        block_seed = constructions.parse_label(block_seed)
    seed_mod = block_seed.build(p)
    if seed_mod.algebra.kind != "sl2r1":
        raise ValueError(f"seed {block_seed} is a borel module; the degree-d "
                         "blocks are those of G1T-modules")
    errs = validate(seed_mod)
    if errs:
        raise ValueError(f"seed {block_seed} is not a G1T-module: {errs[0]}")
    verdict = polynomial.is_polynomial(seed_mod)
    if not verdict.is_polynomial or verdict.degree != d:
        raise ValueError("seed is not polynomial of the requested degree")
    if [mult for _, mult in decompose(seed_mod)] != [1]:
        raise ValueError(f"seed {block_seed} is decomposable; choose an "
                         "indecomposable seed with --seed-label")
    cands = enumerate_degree_candidates(p, d)
    key = _weight_key(seed_mod)
    seed_idx = next((i for i, (_, m) in enumerate(cands)
                     if _weight_key(m) == key
                     and is_isomorphic(m, seed_mod) is not None), None)
    if seed_idx is None:
        raise RuntimeError("seed not found among enumerated candidates")
    block = next(b for b in partition_blocks(cands) if seed_idx in b)

    q = ARQuiver()
    for i in sorted(block, key=lambda i: str(cands[i][0])):
        lab, m = cands[i]
        q.add_vertex(VertexLabel(str(lab), lab, m, simple=lab.family == "L",
                                 ql=lab.ql(p)))

    def vertex(piece: GradedModule, step: str = "block closure") -> str:
        found = q.find_vertex(piece)
        if found is None:  # the enumeration lists every indecomposable
            raise RuntimeError(f"{step}: piece of dim {piece.dim} and "
                               f"support {sorted(piece.support())} not in block")
        return found

    # The polynomial modules of degree d form a Serre subcategory, so the
    # projective cover there of a simple L of the block is u(P(L)), the
    # largest polynomial quotient of its ambient cover, and the injective
    # hull of L is dual(u(P(dual L))): these are the Ext-projective and the
    # Ext-injective vertices.
    cover = polynomial.poly_projective_cover
    for name, v in q.vertices.items():
        if v.simple:
            proj = vertex(cover(v.module)[0],
                          f"Ext-projective cover u(P({name}))")
            inj = vertex(dual(cover(dual(v.module))[0]),
                         f"Ext-injective hull dual(u(P(dual {name})))")
            q.vertices[proj].projective_in_poly = True
            q.vertices[inj].injective_in_poly = True

    for name, v in q.vertices.items():
        if v.projective_in_poly:
            # arrows rad(P)-summands -> P; and P -> P/soc summands when P is
            # also injective
            r, _ = radical(v.module)
            for piece, mult in decompose(r):
                q.add_arrow(vertex(piece), name, mult)
            if v.injective_in_poly:
                _, sincl = socle(v.module)
                qs, _ = quotient(v.module, sincl.matrix)
                for piece, mult in decompose(qs):
                    q.add_arrow(name, vertex(piece), mult)
        else:
            q.add_mesh(polynomial.almost_split_in_poly(v.module), name, vertex)
    return q
