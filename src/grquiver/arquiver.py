"""Assembly and analysis of AR quivers: component exploration, wings,
degree-d block quivers, template matching against the mesh quivers
Z[A_n]/<tau^m>, symmetry and shift-equivalence reports, DOT output."""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import constructions, homological, polynomial
from .constructions import FamilyLabel
from .grmod import (AlgebraKind, GradedModule, Weight, decompose, dual,
                    is_isomorphic, kernel_profile, radical, shift, validate,
                    zero_module)


# ---------------------------------------------------------------------------
# canonical identification


def _weight_key(m: GradedModule) -> tuple[Weight, ...]:
    """The sorted weights: isomorphic modules share them."""
    return tuple(sorted(m.weights))


def _iso_key(m: GradedModule) -> tuple:
    """The sorted weights and the `kernel_profile`: isomorphic modules
    share them."""
    return _weight_key(m), kernel_profile(m)


def identify(m: GradedModule) -> FamilyLabel | None:
    """Canonical family label of an indecomposable, or None.

    Forms the shifted family candidates of m's dimension and support, and
    returns the first one isomorphic to m: `is_isomorphic` certifies it
    with an invertible intertwiner.  Only the candidates with m's
    `_iso_key` are tested, so a candidate dropped before the test is not
    isomorphic to m.
    """
    if m.dim == 0:
        return None
    p = m.algebra.p
    if m.algebra.kind == "borel":
        alg = m.algebra
        over = {"r": alg.r, "offset": alg.offset, "raising": alg.raising}
        if m.dim == 1:
            return FamilyLabel("Char", weight=m.weights[0], **over)
        if m.dim == p ** alg.r:
            # the top weight: the generators lower weights, or raise them
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
    weights, profile = _iso_key(m)
    for lab in candidates:
        cand = lab.build(p)
        if (_weight_key(cand) == weights and kernel_profile(cand) == profile
                and is_isomorphic(m, cand) is not None):
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
    arrows: dict[tuple[str, str], int] = field(default_factory=dict)
    tau: dict[str, str] = field(default_factory=dict)
    sequences: list[tuple[str, tuple[str, ...], str]] = field(
        default_factory=list)
    _opaque_count: int = 0
    _vertices: dict[str, VertexLabel] = field(default_factory=dict)
    # vertex names by the `_weight_key`, then the `kernel_profile` of their
    # module, in insertion order
    _by_key: dict[tuple, dict[tuple, list[str]]] = field(
        default_factory=dict, repr=False)

    @property
    def vertices(self) -> Mapping[str, VertexLabel]:
        """The vertices by name, read-only: `add_vertex` inserts them."""
        return MappingProxyType(self._vertices)

    def add_vertex(self, v: VertexLabel) -> None:
        """Insert v into the vertices and the `_iso_key` index."""
        self._vertices[v.name] = v
        weights, profile = _iso_key(v.module)
        self._by_key.setdefault(weights, {}).setdefault(profile, []).append(
            v.name)

    def find_vertex(self, m: GradedModule) -> str | None:
        """The first vertex isomorphic to m; only vertices with m's
        `_iso_key` are tested, and m's profile is taken only when some
        vertex has m's weights."""
        same_weights = self._by_key.get(_weight_key(m))
        if not same_weights:
            return None
        for name in same_weights.get(kernel_profile(m), ()):
            if is_isomorphic(self._vertices[name].module, m) is not None:
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
        self.add_vertex(VertexLabel(name, lab, m, simple=simple))
        return name

    def add_arrow(self, src: str, tgt: str, mult: int = 1) -> None:
        key = (src, tgt)
        self.arrows[key] = max(self.arrows.get(key, 0), mult)

    def add_mesh(self, seq: homological.ShortExact, name: str,
                 vertex: Callable[[GradedModule], str]
                 ) -> tuple[str, list[str]]:
        """Record the almost split sequence seq ending at vertex `name`: its
        tau entry, the arrows into and out of each middle summand, and the
        sequence. `vertex` names a term, left term first, then the middle
        summands in the order of `decompose`. Returns the name of the left
        term and the middle names, repeated by multiplicity."""
        left = vertex(seq.left)
        self.tau[name] = left
        mids = []
        for piece, mult in decompose(seq.middle):
            mn = vertex(piece)
            self.add_arrow(mn, name, mult)
            self.add_arrow(left, mn, mult)
            mids.extend([mn] * mult)
        self.sequences.append((left, tuple(sorted(mids)), name))
        return left, mids

    def induced(self, names: set[str]) -> "ARQuiver":
        q = ARQuiver()
        for n, v in self.vertices.items():
            if n in names:
                q.add_vertex(v)
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
    if max_ql < 0 or max_tau < 0:
        raise ValueError(f"bounds must be >= 0, got max_ql={max_ql} and "
                         f"max_tau={max_tau}")
    if ([mult for _, mult in decompose(seed)] != [1]
            or homological.is_projective(seed)):
        raise ValueError(f"seed of dim {seed.dim} and support "
                         f"{sorted(seed.support())} must be indecomposable "
                         "and non-projective")
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
        left, mids = q.add_mesh(homological.almost_split_sequence(v), name,
                                q.add_module)
        coords.setdefault(left, (t + 1, lvl))
        for mn in mids:
            coords.setdefault(mn, (t, lvl + 1))
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


def _lower_middle(v: GradedModule) -> GradedModule | None:
    """The smallest middle summand of the almost split sequence ending at v,
    or None when the middle is indecomposable (v is quasi-simple)."""
    seq = homological.almost_split_sequence(v)
    pieces = [piece for piece, mult in decompose(seq.middle)
              for _ in range(mult)]
    if len(pieces) == 1:
        return None
    return min(pieces, key=lambda x: x.dim)


def quasi_length(v: GradedModule, _depth: int = 0) -> int:
    """1 + quasi-length of the lower middle summand; quasi-simple modules
    have an indecomposable middle."""
    if _depth > 20:
        raise RuntimeError("quasi-length recursion exceeded bound")
    low = _lower_middle(v)
    return 1 if low is None else 1 + quasi_length(low, _depth + 1)


def wing_modules(v: GradedModule, _depth: int = 0) -> list[GradedModule]:
    """The wing under v: {v} plus the wings of the lower middle summand and
    of its tau-inverse translate."""
    if _depth > 20:
        raise RuntimeError("wing recursion exceeded bound")
    c1 = _lower_middle(v)
    if c1 is None:
        return [v]
    c2 = homological.tau_inv(c1)
    out = [v]
    for w in wing_modules(c1, _depth + 1) + wing_modules(c2, _depth + 1):
        if all(is_isomorphic(w, u) is None for u in out):
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# degree-d blocks (sl2r1 backend)


def composition_factors(m: GradedModule) -> list[Weight]:
    """Highest weights of the composition factors of a G1T-module over sl2r1
    (H acts on weight (x, y) by x - y), read off its weight multiset.

    The characters of the simple G1T-modules are unitriangular (Jantzen,
    II.9): the highest remaining weight (x, y) of the largest degree is the
    highest weight of a factor L(a), a = x - y mod p, with the weights
    (x - i, y + i) for i = 0..a, which are peeled off in turn.
    """
    p = m.algebra.p
    left = Counter(m.weights)
    out = []
    while left:
        x, y = max(left, key=lambda w: (w[0] + w[1], w[0]))
        for i in range((x - y) % p + 1):
            w = (x - i, y + i)
            if not left[w]:
                raise ValueError(f"support {sorted(m.support())}: no weight "
                                 f"{w} for the factor at {(x, y)}")
            left[w] -= 1
            if not left[w]:
                del left[w]
        out.append((x, y))
    return out


def _simple_label(p: int, w: Weight) -> FamilyLabel:
    """The simple L(a), a = x - y mod p, shifted to highest weight
    w = (x, y)."""
    a = (w[0] - w[1]) % p
    return FamilyLabel("L", d=a, shift=(w[0] - a, w[1]))


def schur_block_quiver(p: int, d: int,
                       block_seed: FamilyLabel | str) -> ARQuiver:
    """AR quiver of the block of the degree-d polynomial category
    containing the seed, closed from the block's simples.

    The block is representation-finite, so every vertex has a path of
    irreducible maps to the simple on its top (Auslander-Reiten-Smalo,
    Ch. VI), and walking arrows backwards from the simples reaches every
    vertex: into an Ext-projective from its radical summands, into any
    other vertex from the middle of the almost split sequence ending there.
    """
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

    # The polynomial modules of degree d form a Serre subcategory, so the
    # projective cover there of a simple L of the block is u(P(L)), the
    # largest polynomial quotient of its ambient cover, and the injective
    # hull of L is dual(u(P(dual L))): these are the Ext-projective and the
    # Ext-injective vertices.  The dual fixes simples, so the Cartan matrix
    # is symmetric and the covers alone close the block's simples.
    cover = polynomial.poly_projective_cover
    simples: dict[Weight, tuple[FamilyLabel, GradedModule, GradedModule]] = {}
    todo = composition_factors(seed_mod)
    while todo:
        w = todo.pop()
        if w in simples:
            continue
        lab = _simple_label(p, w)
        s = lab.build(p)
        proj = cover(s)[0]
        if proj.degree() != d:
            raise RuntimeError(
                f"Ext-projective cover u(P({lab})): piece of dim {proj.dim} "
                f"and support {sorted(proj.support())} has degree "
                f"{proj.degree()}, not {d}")
        simples[w] = (lab, s, proj)
        todo += composition_factors(proj)

    q = ARQuiver()
    unexpanded: list[str] = []

    def vertex(piece: GradedModule, step: str = "block closure") -> str:
        name = q.find_vertex(piece)
        if name is not None:
            return name
        where = (f"{step}: piece of dim {piece.dim} and support "
                 f"{sorted(piece.support())}")
        if not set(composition_factors(piece)) <= simples.keys():
            raise RuntimeError(f"{where} leaves the block's simples")
        lab = identify(piece)
        if lab is None:
            raise RuntimeError(f"{where} has no family label")
        # the family member, not the piece: the almost split sequences of
        # shifted family members hit the shift-class caches
        name = str(lab)
        q.add_vertex(VertexLabel(name, lab, lab.build(p),
                                 simple=lab.family == "L", ql=lab.ql(p)))
        unexpanded.append(name)
        return name

    for lab, s, proj in simples.values():
        vertex(s, f"simple {lab}")
        ext_proj = vertex(proj, f"Ext-projective cover u(P({lab}))")
        ext_inj = vertex(dual(cover(dual(s))[0]),
                         f"Ext-injective hull dual(u(P(dual {lab})))")
        q.vertices[ext_proj].projective_in_poly = True
        q.vertices[ext_inj].injective_in_poly = True

    while unexpanded:
        name = unexpanded.pop()
        v = q.vertices[name]
        if v.projective_in_poly:
            # arrows rad(P)-summands -> P; the arrows out of P come from the
            # almost split sequences with P in the middle
            r, _ = radical(v.module)
            for piece, mult in decompose(r):
                q.add_arrow(vertex(piece), name, mult)
        else:
            q.add_mesh(polynomial.almost_split_in_poly(v.module), name, vertex)
    return q


def schur_blocks(p: int, d: int) -> list[ARQuiver]:
    """The AR quivers of the blocks of degree d, one per linkage class of
    the polynomial simples L(x, d - x), x >= (2x - d) mod p, ordered by
    their least vertex name."""
    blocks: list[ARQuiver] = []
    reached: set[str] = set()
    for x in range(d + 1):
        lab = _simple_label(p, (x, d - x))
        if lab.shift[0] < 0 or str(lab) in reached:
            continue
        q = schur_block_quiver(p, d, lab)
        reached.update(n for n, v in q.vertices.items() if v.simple)
        blocks.append(q)
    return sorted(blocks, key=lambda q: min(q.vertices))


# ---------------------------------------------------------------------------
# template matching


def build_template(n: int, m: int) -> ARQuiver:
    """The translation quiver Z[A_n]/<tau^m>: n*m vertices."""
    q = ARQuiver()
    dummy_alg = AlgebraKind("sl2r1", 3)
    for i in range(m):
        for j in range(1, n + 1):
            name = f"({i},{j})"
            q.add_vertex(VertexLabel(name, None, zero_module(dummy_alg)))
            q.tau[name] = f"({(i + 1) % m},{j})"
            if j < n:
                q.add_arrow(name, f"({i},{j + 1})")
                q.add_arrow(f"({i},{j + 1})", f"({(i - 1) % m},{j})")
    return q


def template_match(q: ARQuiver, n: int, m: int) -> dict | None:
    """Isomorphism of translation quivers onto Z[A_n]/<tau^m>, compatible
    with tau where q defines it, as a map to `build_template` names; None
    when there is none.

    Template vertex (i, j), i mod m and 1 <= j <= n, has arrows to (i, j+1)
    and (i-1, j-1) and tau (i, j) = (i+1, j).  The coordinates are read off
    q (Riedtmann, Comment. Math. Helv. 55, 1980) from a boundary vertex (one
    arrow in and one out at most) put at (0, 1), which loses nothing: the
    rotations and the reflection (i, j) -> (i-j, n+1-j) reach every boundary
    vertex.  t = j - 2i - 1 (mod 2m) rises by one along arrows and falls by
    two along tau.  The distance h to the boundary gives j in {1+h, n-h}; a
    2-colouring picks the side: an arrow keeps it unless its ends have equal
    h, tau keeps it, vertices with equal (t, h) differ, and the middle row
    (2h = n-1) has none.  A last pass checks every vertex, arrow and tau
    entry, so no wrong reading can match.
    """
    if len(q.vertices) != n * m or len(q.arrows) != 2 * (n - 1) * m \
            or any(mult != 1 for mult in q.arrows.values()):
        return None
    outs: dict[str, list[str]] = {v: [] for v in q.vertices}
    ins: dict[str, list[str]] = {v: [] for v in q.vertices}
    for s, w in q.arrows:
        outs[s].append(w)
        ins[w].append(s)
    # vertices that are not tau-images first: with n = 1 (no arrows) the
    # tau-paths from them are laid end to end
    images = set(q.tau.values())
    boundary = sorted((v for v in outs if len(outs[v]) <= 1
                       and len(ins[v]) <= 1), key=lambda v: (v in images, v))
    h = dict.fromkeys(boundary, 0)
    queue = deque(boundary)
    while queue:
        v = queue.popleft()
        for w in outs[v] + ins[v]:
            if w not in h:
                h[w] = h[v] + 1
                queue.append(w)
    t = _potential([(s, w, 1) for s, w in q.arrows]
                   + [(v, tv, -2) for v, tv in q.tau.items()],
                   boundary, 2 * m, gap=-2)
    if t is None or len(h) < len(outs):  # t is defined wherever h is
        return None
    sided = {v for v in outs if 2 * h[v] != n - 1}
    same_th: dict[tuple[int, int], list[str]] = {}
    for v in sorted(sided):
        same_th.setdefault((t[v], h[v]), []).append(v)
    edges = [(s, w, int(h[s] == h[w])) for s, w in q.arrows] \
        + [(v, tv, 0) for v, tv in q.tau.items()] \
        + [(a, b, 1) for g in same_th.values() for a, b in zip(g, g[1:])]
    # a part not linked to the anchor may take either side
    upper = _potential([e for e in edges if {e[0], e[1]} <= sided],
                       boundary[:1] + sorted(sided), 2)
    if upper is None:
        return None
    j = {v: n - h[v] if upper.get(v) else 1 + h[v] for v in outs}
    coords = {v: ((j[v] - 1 - t[v]) % (2 * m) // 2, j[v]) for v in outs}
    if sorted(coords.values()) != [
            (i, j) for i in range(m) for j in range(1, n + 1)]:
        return None
    for s, w in q.arrows:
        i, j = coords[s]
        if coords[w] not in ((i, j + 1), ((i - 1) % m, j - 1)):
            return None
    for v, tv in q.tau.items():
        i, j = coords[v]
        if coords[tv] != ((i + 1) % m, j):
            return None
    return {v: f"({i},{j})" for v, (i, j) in coords.items()}


def _potential(edges: list[tuple[str, str, int]], roots: list[str],
               modulus: int, gap: int = 0) -> dict | None:
    """Values x with x[b] = x[a] + k (mod modulus) on every edge (a, b, k),
    spread from each root in turn not yet reached, which starts at gap times
    the number of values so far; None on a contradiction."""
    adj: dict[str, list[tuple[str, int]]] = {}
    for a, b, k in edges:
        adj.setdefault(a, []).append((b, k))
        adj.setdefault(b, []).append((a, -k))
    x: dict[str, int] = {}
    for root in roots:
        if root in x:
            continue
        x[root] = gap * len(x) % modulus
        stack = [root]
        while stack:
            a = stack.pop()
            for b, k in adj.get(a, []):
                y = (x[a] + k) % modulus
                if b not in x:
                    x[b] = y
                    stack.append(b)
                elif x[b] != y:
                    return None
    return x


# ---------------------------------------------------------------------------
# symmetry and shift-equivalence reports


def column_symmetry_check(q: ARQuiver) -> dict:
    """Verify contravariant duality maps the quiver to itself reversing
    sides, and that the columns through self-dual vertices are fixed."""
    dual_of: dict[str, str | None] = {}
    for name, v in q.vertices.items():
        if v.module.algebra.kind != "sl2r1":
            return {"applicable": False, "reason": "borel backend"}
        dual_of[name] = q.find_vertex(dual(v.module))
    self_dual = sorted(n for n, d in dual_of.items() if d == n)
    if not self_dual:
        return {"applicable": False, "reason": "no self-dual vertex"}
    # columns: middle summands of one sequence are column-mates
    mates: dict[str, set[str]] = {n: set() for n in q.vertices}
    for _, mids, _ in q.sequences:
        for a in mids:
            mates[a].update(mids)
    columns, seen = [], set()
    for name in q.vertices:
        if name in seen:
            continue
        col, stack = {name}, [name]
        while stack:
            new = mates[stack.pop()] - col
            col |= new
            stack += new
        seen |= col
        columns.append([n for n in q.vertices if n in col])
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
