"""Factories for the named graded modules.

Families over restricted sl2: V(d) and its contravariant dual Vo(d), the
submodules W(sp+a) and their coordinate-swapped twists, the simples L(r),
the graded projective indecomposables Q(a); over the truncated polynomial
ring: the free rank-one modules Z_r(lambda), characters, and outer tensor
products.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grmod import (AlgebraKind, GradedModule, Weight, character_module,
                    dual, is_isomorphic, shift, submodule_from_subspace,
                    submodule_span, top, weyl_twist)


def sl2_algebra(p: int) -> AlgebraKind:
    return AlgebraKind("sl2r1", p)


def borel_algebra(p: int, r: int, offset: int = 1,
                  raising: bool = False) -> AlgebraKind:
    return AlgebraKind("borel", p, r, offset, raising)


# ---------------------------------------------------------------------------
# sl2 families


def weyl_hat(p: int, d: int) -> GradedModule:
    """V(d): basis v_0..v_d, weight of v_i is (i, d-i).

    Action: E.v_i = (i+1) v_{i+1}, F.v_i = (d-i+1) v_{i-1},
    H.v_i = (2i-d) v_i.
    """
    if d < 0:
        raise ValueError("highest weight must be non-negative")
    n = d + 1
    E = np.zeros((n, n), dtype=np.int64)
    F = np.zeros((n, n), dtype=np.int64)
    H = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        if i + 1 < n:
            E[i + 1, i] = (i + 1) % p
        if i - 1 >= 0:
            F[i - 1, i] = (d - i + 1) % p
        H[i, i] = (2 * i - d) % p
    weights = tuple((i, d - i) for i in range(n))
    return GradedModule(sl2_algebra(p), weights, {"E": E, "F": F, "H": H})


def weyl_hat_dual(p: int, d: int) -> GradedModule:
    return dual(weyl_hat(p, d))


def simple_hat(p: int, r: int) -> GradedModule:
    """L(r) = V(r) for 0 <= r <= p-1."""
    if not 0 <= r <= p - 1:
        raise ValueError(f"simple highest weight must lie in [0, {p - 1}]")
    return weyl_hat(p, r)


def _w_shape(p: int, d: int) -> tuple[int, int]:
    s, a = divmod(d, p)
    if s < 1 or a > p - 2:
        raise ValueError(f"d={d} is not of the form sp+a with s>=1, "
                         f"0<=a<=p-2 at p={p}")
    return s, a


def w_hat(p: int, d: int) -> GradedModule:
    """W(sp+a): the submodule of V(sp+a) spanned by v_{a+1}, ..., v_d.

    The span is action-invariant because f.v_{a+1} = sp * v_a = 0 mod p;
    closure is checked by the span construction, not transcribed.
    """
    s, a = _w_shape(p, d)
    v = weyl_hat(p, d)
    gens = []
    for i in range(a + 1, d + 1):
        e = np.zeros(v.dim, dtype=np.int64)
        e[i] = 1
        gens.append(e)
    sub, _ = submodule_span(v, gens)
    if sub.dim != s * p:
        raise RuntimeError(f"W({d}) closure has dim {sub.dim}, expected {s * p}")
    return sub


def w_hat_twisted(p: int, d: int) -> GradedModule:
    return weyl_twist(w_hat(p, d))


def sl2_tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Tensor product over the comultiplication g -> g x 1 + 1 x g."""
    if m.algebra != n.algebra or m.algebra.kind != "sl2r1":
        raise ValueError("sl2_tensor needs two modules over the same sl2r1")
    Im = np.eye(m.dim, dtype=np.int64)
    In = np.eye(n.dim, dtype=np.int64)
    action = {}
    for g in ("E", "F", "H"):
        action[g] = (np.kron(m.action[g], In) + np.kron(Im, n.action[g]))
    weights = tuple((wm[0] + wn[0], wm[1] + wn[1])
                    for wm in m.weights for wn in n.weights)
    return GradedModule(m.algebra, weights, action)


def _read_only(m: GradedModule) -> GradedModule:
    for arr in m.action.values():
        arr.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def projective_indec(p: int, a: int) -> GradedModule:
    """Q(a): graded projective indecomposable, normalized to top L(a)[(0,0)].

    For a <= p-2, the generalized eigenspace of the Casimir C = EF + FE +
    H^2/2 for ((a+1)^2 - 1)/2 on the projective module St (x) L(b),
    b = p-1-a.  That module is the sum of the tilting modules
    T(p-1+b-2j), 0 <= j < b/2, and of St when b is even; C acts on
    T(p-1+b-2j) with the single eigenvalue ((b-2j)^2 - 1)/2, distinct for
    distinct j as 0 < b-2j < p, and T(2p-2-a) restricts to Q(a) (Jantzen,
    II.E).  The dimension and the top are checked.  The result is cached,
    so its arrays are read-only.
    """
    if not 0 <= a <= p - 1:
        raise ValueError(f"a must lie in [0, {p - 1}]")
    if a == p - 1:
        return _read_only(simple_hat(p, p - 1))
    big = sl2_tensor(simple_hat(p, p - 1), simple_hat(p, p - 1 - a))
    ff, E, F, H = big.field, big.action["E"], big.action["F"], big.action["H"]
    half = pow(2, p - 2, p)
    casimir = (ff.matmul(E, F) + ff.matmul(F, E) + half * ff.matmul(H, H)
               - ((a + 1) ** 2 - 1) * half * ff.eye(big.dim))
    piece, _ = submodule_from_subspace(
        big, ff.kernel_basis(ff.matpow(casimir, big.dim)))
    t, _ = top(piece)
    lam = (-t.support_min()[0], -t.support_min()[1])
    if piece.dim != 2 * p or is_isomorphic(shift(t, lam),
                                           simple_hat(p, a)) is None:
        raise RuntimeError(f"the Casimir eigenspace of St (x) L({p - 1 - a}) "
                           f"for L({a}) is not Q({a})")
    return _read_only(shift(piece, lam))


# ---------------------------------------------------------------------------
# borel families


def borel_projective(lam: Weight, algebra: AlgebraKind) -> GradedModule:
    """Z_r(lambda): free of rank one with generator in weight lambda."""
    if algebra.kind != "borel":
        raise ValueError("borel_projective needs the borel backend")
    p, r = algebra.p, algebra.r
    gens = algebra.generators()
    shifts = [algebra.action_shift(g) for g in gens]
    exps = [tuple(c) for c in np.ndindex(*([p] * r))]  # lexicographic
    index = {c: t for t, c in enumerate(exps)}
    n = len(exps)
    weights = []
    for c in exps:
        w = lam
        for t, ct in enumerate(c):
            w = (w[0] + ct * shifts[t][0], w[1] + ct * shifts[t][1])
        weights.append(w)
    action = {}
    for t, g in enumerate(gens):
        mat = np.zeros((n, n), dtype=np.int64)
        for c in exps:
            if c[t] < p - 1:
                up = list(c)
                up[t] += 1
                mat[index[tuple(up)], index[c]] = 1
        action[g] = mat
    return GradedModule(algebra, tuple(weights), action)


def outer_tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Outer tensor of borel modules over disjoint consecutive variable
    ranges; the result lives over the union of the ranges."""
    am, an = m.algebra, n.algebra
    if am.kind != "borel" or an.kind != "borel":
        raise ValueError("outer_tensor needs borel modules")
    if am.p != an.p or am.raising != an.raising:
        raise ValueError("incompatible borel factors")
    if an.offset != am.offset + am.r:
        raise ValueError("variable ranges must be consecutive and disjoint")
    combined = AlgebraKind("borel", am.p, am.r + an.r, am.offset, am.raising)
    Im = np.eye(m.dim, dtype=np.int64)
    In = np.eye(n.dim, dtype=np.int64)
    action = {}
    for g in am.generators():
        action[g] = np.kron(m.action[g], In)
    for g in an.generators():
        action[g] = np.kron(Im, n.action[g])
    weights = tuple((wm[0] + wn[0], wm[1] + wn[1])
                    for wm in m.weights for wn in n.weights)
    return GradedModule(combined, weights, action)


# ---------------------------------------------------------------------------
# family labels


_LABEL_RE = re.compile(
    r"^(?P<fam>Vo|V|W|L|Q)\((?P<d>\d+)\)(?P<w0>w0)?"
    r"(?P<shift>\+\(-?\d+,-?\d+\))?$")
_ALGEBRA = r"r=(?P<r>\d+)(,offset=(?P<offset>\d+))?(?P<raising>,raising)?"
_Z_RE = re.compile(
    r"^Z\((?P<a>-?\d+),(?P<b>-?\d+)\)@" + _ALGEBRA
    + r"(?P<shift>\+\(-?\d+,-?\d+\))?$")
_C_RE = re.compile(
    r"^C\((?P<a>-?\d+),(?P<b>-?\d+)\)(@" + _ALGEBRA + r")?"
    r"(?P<shift>\+\(-?\d+,-?\d+\))?$")
_SHIFT_RE = re.compile(r"^\+\((-?\d+),(-?\d+)\)$")


@dataclass(frozen=True)
class FamilyLabel:
    """Canonical name of a classified module: family + parameter + shift."""

    family: str  # V | Vo | W | Wwo | L | Q | Z | Char
    d: int = 0
    weight: Weight = (0, 0)  # for Z / Char
    # for Z / Char: the borel algebra's number of variables, first variable
    # and weight convention, named as "@r=k[,offset=o][,raising]"; a Char
    # name leaves out the default "@r=1"
    r: int = 1
    shift: Weight = (0, 0)
    offset: int = 1
    raising: bool = False

    def __str__(self) -> str:
        sh = ""
        if self.shift != (0, 0):
            sh = f"+({self.shift[0]},{self.shift[1]})"
        over = f"@r={self.r}"
        if self.offset != 1:
            over += f",offset={self.offset}"
        if self.raising:
            over += ",raising"
        if self.family == "Z":
            return f"Z({self.weight[0]},{self.weight[1]}){over}{sh}"
        if self.family == "Char":
            over = "" if over == "@r=1" else over
            return f"C({self.weight[0]},{self.weight[1]}){over}{sh}"
        fam = {"Wwo": "W"}.get(self.family, self.family)
        w0 = "w0" if self.family == "Wwo" else ""
        return f"{fam}({self.d}){w0}{sh}"

    def shifted(self, lam: Weight) -> "FamilyLabel":
        return replace(self, shift=(self.shift[0] + lam[0],
                                    self.shift[1] + lam[1]))

    def ql(self, p: int) -> int | None:
        """Quasi-length bookkeeping: s for W(sp+a); None otherwise."""
        if self.family in ("W", "Wwo"):
            return self.d // p
        return None

    def build(self, p: int) -> GradedModule:
        """The module of the label: a shifted copy of the cached unshifted
        family member."""
        return shift(_build_unshifted(replace(self, shift=(0, 0)), p),
                     self.shift)


@lru_cache(maxsize=256)
def _build_unshifted(lab: FamilyLabel, p: int) -> GradedModule:
    if lab.family == "V":
        m = weyl_hat(p, lab.d)
    elif lab.family == "Vo":
        m = weyl_hat_dual(p, lab.d)
    elif lab.family == "W":
        m = w_hat(p, lab.d)
    elif lab.family == "Wwo":
        m = w_hat_twisted(p, lab.d)
    elif lab.family == "L":
        m = simple_hat(p, lab.d)
    elif lab.family == "Q":
        m = projective_indec(p, lab.d)
    elif lab.family == "Z":
        m = borel_projective(lab.weight, borel_algebra(
            p, lab.r, lab.offset, lab.raising))
    elif lab.family == "Char":
        m = character_module(borel_algebra(
            p, lab.r, lab.offset, lab.raising), lab.weight)
    else:
        raise ValueError(f"unknown family {lab.family!r}")
    return _read_only(m)


class LabelParseError(ValueError):
    pass


def _parse_shift(s: str | None) -> Weight:
    if not s:
        return (0, 0)
    mm = _SHIFT_RE.match(s)
    if not mm:
        raise LabelParseError(f"bad shift syntax {s!r}")
    return (int(mm.group(1)), int(mm.group(2)))


def parse_label(s: str) -> FamilyLabel:
    """Parse strings like "V(7)", "Vo(7)+(1,2)", "W(6)w0+(0,3)", "L(2)",
    "Q(0)", "Z(2,0)@r=1", "Z(0,0)@r=1,offset=2,raising", "C(1,1)",
    "C(0,0)@r=2", "C(0,0)@r=1,raising"."""
    s = s.strip()
    mm = _LABEL_RE.match(s)
    if mm:
        fam = mm.group("fam")
        if mm.group("w0"):
            if fam != "W":
                raise LabelParseError(
                    f"w0 twist only applies to the W family (at {s!r})")
            fam = "Wwo"
        return FamilyLabel(fam, d=int(mm.group("d")),
                           shift=_parse_shift(mm.group("shift")))
    for fam, regex in (("Z", _Z_RE), ("Char", _C_RE)):
        mm = regex.match(s)
        if mm:
            return FamilyLabel(fam,
                               weight=(int(mm.group("a")), int(mm.group("b"))),
                               r=int(mm.group("r") or 1),
                               shift=_parse_shift(mm.group("shift")),
                               offset=int(mm.group("offset") or 1),
                               raising=mm.group("raising") is not None)
    raise LabelParseError(f"cannot parse family label {s!r} (position 0)")
