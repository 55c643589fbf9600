"""Assembly and analysis of AR quivers: component exploration, wings,
polynomial parts, degree-d block quivers, template matching against the mesh
quivers Z[A_n]/<tau^m>, symmetry and shift-equivalence reports, DOT output."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import constructions, homological, polynomial
from .constructions import FamilyLabel
from .grmod import (GradedModule, contravariant_dual, decompose, hom_space,
                    is_isomorphic, shift, weight_degree)


# ---------------------------------------------------------------------------
# canonical identification


def identify(m: GradedModule) -> FamilyLabel | None:
    """Canonical family label of an indecomposable, or None.

    Matches by dimension and support against shifted family candidates, then
    certifies with an isomorphism search.
    """
    if m.dim == 0:
        return None
    p = m.algebra.p
    if m.algebra.kind == "borel":
        if m.dim == 1:
            return FamilyLabel("Char", weight=m.weights[0], r=m.algebra.r)
        if m.dim == p ** m.algebra.r:
            lam = max(m.weights)
            cand = constructions.borel_projective(lam, m.algebra)
            if is_isomorphic(m, cand) is not None:
                return FamilyLabel("Z", weight=lam, r=m.algebra.r)
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
        try:
            cand = lab.build(p)
        except (ValueError, RuntimeError):
            continue
        if cand.dim != m.dim or sorted(cand.weights) != sorted(m.weights):
            continue
        if is_isomorphic(m, cand) is not None:
            return lab
    return None


# ---------------------------------------------------------------------------
# quiver container


@dataclass
class VertexLabel:
    name: str
    label: FamilyLabel | None
    module: GradedModule
    projective_in_poly: bool = False
    injective_in_poly: bool = False
    simple: bool = False
    ql: int | None = None


@dataclass
class ARQuiver:
    vertices: dict[str, VertexLabel] = field(default_factory=dict)
    arrows: dict[tuple[str, str], int] = field(default_factory=dict)
    tau: dict[str, str] = field(default_factory=dict)
    sequences: list[tuple[str, tuple[str, ...], str]] = field(
        default_factory=list)
    _opaque_count: int = 0

    def find_vertex(self, m: GradedModule) -> str | None:
        sw = sorted(m.weights)
        for name, v in self.vertices.items():
            if v.module.dim == m.dim and sorted(v.module.weights) == sw \
                    and is_isomorphic(v.module, m) is not None:
                return name
        return None

    def add_module(self, m: GradedModule) -> str:
        found = self.find_vertex(m)
        if found is not None:
            return found
        lab = identify(m)
        if lab is not None:
            name = str(lab)
        else:
            self._opaque_count += 1
            name = f"M{m.dim}d{m.degree()}#{self._opaque_count}"
        if name in self.vertices:  # same label, non-isomorphic: never merge
            self._opaque_count += 1
            name = f"{name}#{self._opaque_count}"
        simple = (m.algebra.kind == "sl2r1" and m.dim <= m.algebra.p
                  and lab is not None and lab.family == "L")
        self.vertices[name] = VertexLabel(name, lab, m, simple=simple)
        return name

    def add_arrow(self, src: str, tgt: str, mult: int = 1) -> None:
        key = (src, tgt)
        self.arrows[key] = max(self.arrows.get(key, 0), mult)

    def mesh_violations(self) -> list[str]:
        errs = []
        for v, tv in self.tau.items():
            into_v = sorted(s for (s, t), mult in self.arrows.items()
                            if t == v for _ in range(mult))
            out_tv = sorted(t for (s, t), mult in self.arrows.items()
                            if s == tv for _ in range(mult))
            if into_v != out_tv:
                errs.append(f"mesh fails at {v}: in {into_v} vs out of "
                            f"tau={tv} {out_tv}")
        return errs

    def induced(self, names: set[str]) -> "ARQuiver":
        q = ARQuiver()
        q.vertices = {n: v for n, v in self.vertices.items() if n in names}
        q.arrows = {(s, t): mult for (s, t), mult in self.arrows.items()
                    if s in names and t in names}
        q.tau = {v: t for v, t in self.tau.items()
                 if v in names and t in names}
        q.sequences = [s for s in self.sequences
                       if s[0] in names and s[2] in names
                       and all(x in names for x in s[1])]
        return q

    def stable_part(self) -> "ARQuiver":
        """Delete the projective-injective vertices."""
        keep = {n for n, v in self.vertices.items()
                if not (v.projective_in_poly and v.injective_in_poly)}
        return self.induced(keep)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"name": n, "dim": v.module.dim,
                 "projective_in_poly": v.projective_in_poly,
                 "injective_in_poly": v.injective_in_poly,
                 "simple": v.simple, "ql": v.ql}
                for n, v in sorted(self.vertices.items())],
            "arrows": [{"source": s, "target": t, "multiplicity": mult}
                       for (s, t), mult in sorted(self.arrows.items())],
            "tau": [{"from": v, "to": t} for v, t in sorted(self.tau.items())],
        }

    def to_dot(self) -> str:
        lines = ["digraph ARQuiver {"]
        for n, v in sorted(self.vertices.items()):
            attrs = []
            if v.projective_in_poly:
                attrs.append("peripheries=2")
            if v.injective_in_poly:
                attrs.append("style=bold")
            if v.simple:
                attrs.append("shape=box")
            a = (" [" + ", ".join(attrs) + "]") if attrs else ""
            lines.append(f'  "{n}"{a};')
        for (s, t), mult in sorted(self.arrows.items()):
            lab = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(f'  "{s}" -> "{t}"{lab};')
        for v, t in sorted(self.tau.items()):
            lines.append(f'  "{v}" -> "{t}" [style=dashed, constraint=false];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# component exploration


def explore_component(seed: GradedModule, max_ql: int = 3,
                      max_tau: int = 3) -> ARQuiver:
    """Breadth-first patch of the AR component of the seed.

    Expands almost split sequences ending at known vertices, walking both
    the tau and tau-inverse directions up to max_tau steps and climbing at
    most max_ql quasi-length levels above the seed.
    """
    if seed.dim == 0 or homological.is_projective(seed):
        raise ValueError("seed must be indecomposable non-projective")
    q = ARQuiver()
    name0 = q.add_module(seed)
    coords = {name0: (0, 0)}  # (tau steps, ql climb)
    frontier = [name0]
    expanded: set[str] = set()
    while frontier:
        name = frontier.pop(0)
        if name in expanded:
            continue
        expanded.add(name)
        t, lvl = coords[name]
        v = q.vertices[name].module
        if homological.is_projective(v):
            continue
        seq = homological.almost_split_sequence(v)
        left = q.add_module(seq.left)
        coords.setdefault(left, (t + 1, lvl))
        q.tau[name] = left
        mids = []
        for piece, mult in decompose(seq.middle):
            mn = q.add_module(piece)
            coords.setdefault(mn, (t, lvl + 1))
            q.add_arrow(mn, name, mult)
            q.add_arrow(left, mn, mult)
            mids.extend([mn] * mult)
        q.sequences.append((left, tuple(sorted(mids)), name))
        if len(mids) == 1:
            q.vertices[name].ql = 1
        # enqueue within bounds
        if abs(t + 1) <= max_tau:
            frontier.append(left)
        for mn in mids:
            if coords[mn][1] <= max_ql and abs(coords[mn][0]) <= max_tau:
                frontier.append(mn)
        # tau-inverse direction
        if abs(t - 1) <= max_tau:
            back = homological.tau_inv(v)
            bn = q.add_module(back)
            coords.setdefault(bn, (t - 1, lvl))
            frontier.append(bn)
    return q


# ---------------------------------------------------------------------------
# quasi-length and wings


def quasi_length(v: GradedModule, _depth: int = 0) -> int:
    """1 + quasi-length of the lower middle summand; quasi-simple modules
    have an indecomposable middle."""
    if _depth > 20:
        raise RuntimeError("quasi-length recursion exceeded bound")
    seq = homological.almost_split_sequence(v)
    pieces = [piece for piece, mult in decompose(seq.middle)
              for _ in range(mult)]
    if len(pieces) == 1:
        return 1
    low = min(pieces, key=lambda x: x.dim)
    return 1 + quasi_length(low, _depth + 1)


def wing_modules(v: GradedModule, _depth: int = 0) -> list[GradedModule]:
    """The wing under v: {v} plus the wings of the lower middle summand and
    of its tau-inverse translate."""
    if _depth > 20:
        raise RuntimeError("wing recursion exceeded bound")
    seq = homological.almost_split_sequence(v)
    pieces = [piece for piece, mult in decompose(seq.middle)
              for _ in range(mult)]
    if len(pieces) == 1:
        return [v]
    c1 = min(pieces, key=lambda x: x.dim)
    c2 = homological.tau_inv(c1)
    out = [v]
    for w in wing_modules(c1, _depth + 1) + wing_modules(c2, _depth + 1):
        if all(is_isomorphic(w, u) is None for u in out):
            out.append(w)
    return out


def polynomial_part(q: ARQuiver) -> ARQuiver:
    keep = {n for n, v in q.vertices.items()
            if polynomial.is_polynomial(v.module).is_polynomial}
    return q.induced(keep)


# ---------------------------------------------------------------------------
# degree-d block enumeration (sl2r1 backend)


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
        for _, other in out:
            if other.dim == m.dim and sorted(other.weights) == \
                    sorted(m.weights) and is_isomorphic(other, m) is not None:
                return
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


def partition_blocks(cands: list[tuple[FamilyLabel, GradedModule]]
                     ) -> list[list[int]]:
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


def count_non_semisimple_blocks(p: int, d: int) -> int:
    cands = enumerate_degree_candidates(p, d)
    blocks = partition_blocks(cands)
    return sum(0 if block_is_semisimple(cands, b) else 1 for b in blocks)


def _ext_injective_in_poly(v: GradedModule) -> bool:
    """Dual criterion: v is Ext-injective iff v^o is Ext-projective."""
    return polynomial.ext_projective_in_poly(contravariant_dual(v))


def schur_block_quiver(p: int, d: int,
                       block_seed: FamilyLabel | str) -> ARQuiver:
    """AR quiver of the block of the degree-d polynomial category
    containing the seed."""
    if isinstance(block_seed, str):
        block_seed = constructions.parse_label(block_seed)
    seed_mod = block_seed.build(p)
    verdict = polynomial.is_polynomial(seed_mod)
    if not verdict.is_polynomial or verdict.degree != d:
        raise ValueError("seed is not polynomial of the requested degree")
    if [mult for _, mult in decompose(seed_mod)] != [1]:
        raise ValueError(f"seed {block_seed} is decomposable; choose an "
                         "indecomposable seed with --seed-label")
    cands = enumerate_degree_candidates(p, d)
    seed_idx = None
    for i, (_, m) in enumerate(cands):
        if m.dim == seed_mod.dim and is_isomorphic(m, seed_mod) is not None:
            seed_idx = i
            break
    if seed_idx is None:
        raise RuntimeError("seed not found among enumerated candidates")
    blocks = partition_blocks(cands)
    block = next(b for b in blocks if seed_idx in b)

    q = ARQuiver()
    names = []
    for i in sorted(block, key=lambda i: str(cands[i][0])):
        lab, m = cands[i]
        name = str(lab)
        simple = lab.family == "L"
        q.vertices[name] = VertexLabel(name, lab, m, simple=simple,
                                       ql=lab.ql(p))
        names.append(name)

    for _round in range(3):
        new_modules: list[GradedModule] = []
        for name in list(q.vertices):
            v = q.vertices[name]
            v.projective_in_poly = polynomial.ext_projective_in_poly(v.module)
            v.injective_in_poly = _ext_injective_in_poly(v.module)
        for name in list(q.vertices):
            v = q.vertices[name]
            if v.projective_in_poly:
                # arrows rad(P)-summands -> P; and P -> P/soc summands when
                # P is also injective
                from .grmod import quotient, radical, socle
                r, _ = radical(v.module)
                for piece, mult in decompose(r):
                    pn = q.find_vertex(piece)
                    if pn is None:
                        new_modules.append(piece)
                        continue
                    q.add_arrow(pn, name, mult)
                if v.injective_in_poly:
                    s, sincl = socle(v.module)
                    qs, _ = quotient(v.module, sincl.matrix)
                    for piece, mult in decompose(qs):
                        pn = q.find_vertex(piece)
                        if pn is None:
                            new_modules.append(piece)
                            continue
                        q.add_arrow(name, pn, mult)
            else:
                seq = polynomial.almost_split_in_poly(v.module)
                ln = q.find_vertex(seq.left)
                if ln is None:
                    new_modules.append(seq.left)
                    continue
                q.tau[name] = ln
                mids = []
                for piece, mult in decompose(seq.middle):
                    pn = q.find_vertex(piece)
                    if pn is None:
                        new_modules.append(piece)
                        continue
                    q.add_arrow(pn, name, mult)
                    q.add_arrow(ln, pn, mult)
                    mids.extend([pn] * mult)
                q.sequences.append((ln, tuple(sorted(mids)), name))
        if not new_modules:
            break
        for m in new_modules:
            if q.find_vertex(m) is None:
                q.add_module(m)
        q.arrows.clear()
        q.tau.clear()
        q.sequences.clear()
    else:
        raise RuntimeError("block closure did not stabilize; diagnostic: "
                           + ", ".join(sorted(q.vertices)))
    return q


# ---------------------------------------------------------------------------
# template matching


def build_template(n: int, m: int) -> ARQuiver:
    """The translation quiver Z[A_n]/<tau^m>: n*m vertices."""
    q = ARQuiver()
    from .grmod import AlgebraKind, GradedModule as GM
    dummy_alg = AlgebraKind("sl2r1", 3)
    for i in range(m):
        for j in range(1, n + 1):
            name = f"({i},{j})"
            q.vertices[name] = VertexLabel(
                name, None, GM(dummy_alg, (), {g: np.zeros((0, 0),
                                                           dtype=np.int64)
                                               for g in "EFH"}))
    for i in range(m):
        for j in range(1, n):
            q.add_arrow(f"({i},{j})", f"({i},{j + 1})")
            q.add_arrow(f"({i},{j + 1})", f"({(i - 1) % m},{j})")
    for i in range(m):
        for j in range(1, n + 1):
            q.tau[f"({i},{j})"] = f"({(i + 1) % m},{j})"
    return q


def template_match(q: ARQuiver, n: int, m: int) -> dict | None:
    """Directed-graph isomorphism onto Z[A_n]/<tau^m> compatible with tau
    (where tau is defined on q); None when there is none."""
    t = build_template(n, m)
    if len(q.vertices) != len(t.vertices):
        return None
    if len(q.arrows) != len(t.arrows) or \
            sorted(q.arrows.values()) != sorted(t.arrows.values()):
        return None
    q_names = sorted(q.vertices)
    t_names = sorted(t.vertices)
    q_out = {v: sorted([w for (s, w) in q.arrows if s == v]) for v in q_names}
    q_in = {v: sorted([s for (s, w) in q.arrows if w == v]) for v in q_names}
    t_out = {v: {w for (s, w) in t.arrows if s == v} for v in t_names}
    t_in = {v: {s for (s, w) in t.arrows if w == v} for v in t_names}

    assign: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v: str, tv: str) -> bool:
        if len(q_out[v]) > len(t_out[tv]) or len(q_in[v]) > len(t_in[tv]):
            return False
        for w in q_out[v]:
            if w in assign and assign[w] not in t_out[tv]:
                return False
        for w in q_in[v]:
            if w in assign and assign[w] not in t_in[tv]:
                return False
        for s, im in assign.items():
            if v in q_out[s] and tv not in t_out[im]:
                return False
            if v in q_in[s] and tv not in t_in[im]:
                return False
        tq = q.tau.get(v)
        if tq is not None and tq in assign and \
                assign[tq] != t.tau[tv]:
            return False
        for s, im in assign.items():
            if q.tau.get(s) == v and t.tau[im] != tv:
                return False
        return True

    order = sorted(q_names, key=lambda v: -(len(q_out[v]) + len(q_in[v])))

    def backtrack(k: int) -> bool:
        if k == len(order):
            # final check: arrow counts must coincide exactly
            mapped = {(assign[s], assign[w]) for (s, w) in q.arrows}
            return mapped == set(t.arrows)
        v = order[k]
        for tv in t_names:
            if tv in used:
                continue
            if not consistent(v, tv):
                continue
            assign[v] = tv
            used.add(tv)
            if backtrack(k + 1):
                return True
            del assign[v]
            used.discard(tv)
        return False

    if backtrack(0):
        return dict(assign)
    return None


# ---------------------------------------------------------------------------
# symmetry and shift-equivalence reports


def column_symmetry_check(q: ARQuiver) -> dict:
    """Verify contravariant duality maps the quiver to itself reversing
    sides, and that the columns through self-dual vertices are fixed."""
    dual_of: dict[str, str | None] = {}
    for name, v in q.vertices.items():
        if v.module.algebra.kind != "sl2r1":
            return {"applicable": False, "reason": "borel backend"}
        dual_of[name] = q.find_vertex(contravariant_dual(v.module))
    self_dual = sorted(n for n, d in dual_of.items() if d == n)
    if not self_dual:
        return {"applicable": False, "reason": "no self-dual vertex"}
    # columns: middle summands of one sequence are column-mates
    uf = _UnionFind(list(q.vertices))
    for left, mids, right in q.sequences:
        for a in mids:
            uf.union(mids[0], a)
    columns = uf.groups()
    fixed_columns = []
    failures = []
    for col in columns:
        if any(n in self_dual for n in col):
            bad = [n for n in col if dual_of[n] != n]
            if bad:
                failures.append({"column": sorted(col), "not_self_dual": bad})
            else:
                fixed_columns.append(sorted(col))
    arrows_reversed = all(
        dual_of[s] is None or dual_of[t] is None
        or (dual_of[t], dual_of[s]) in q.arrows
        for (s, t) in q.arrows)
    return {"applicable": True, "self_dual_vertices": self_dual,
            "fixed_columns": fixed_columns, "failures": failures,
            "arrows_reversed": arrows_reversed,
            "passed": not failures and arrows_reversed}


def morita_shift_compare(p: int, d: int, i: int) -> dict:
    """Compare the V(d)-block of degree d with its (i,i)-shift in degree
    d+2i: the shift functor should induce a quiver isomorphism."""
    fam = "V" if d > p - 1 else "L"
    q1 = schur_block_quiver(p, d, FamilyLabel(fam, d=d))
    q2 = schur_block_quiver(p, d + 2 * i,
                            FamilyLabel(fam, d=d, shift=(i, i)))
    mapping = {}
    unmatched = []
    for name, v in q1.vertices.items():
        target = q2.find_vertex(shift(v.module, (i, i)))
        if target is None:
            unmatched.append(name)
        else:
            mapping[name] = target
    arrows_ok = (len(mapping) == len(q1.vertices) == len(q2.vertices)
                 and all((mapping[s], mapping[t]) in q2.arrows
                         and q2.arrows[(mapping[s], mapping[t])] == mult
                         for (s, t), mult in q1.arrows.items())
                 and len(q1.arrows) == len(q2.arrows))
    dims_ok = all(q1.vertices[s].module.dim == q2.vertices[t].module.dim
                  for s, t in mapping.items())
    return {"isomorphic": arrows_ok and not unmatched,
            "vertex_map": {k: mapping[k] for k in sorted(mapping)},
            "unmatched": unmatched, "dims_preserved": dims_ok}
