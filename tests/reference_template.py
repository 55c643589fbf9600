"""The backtracking template matcher that `arquiver.template_match`
replaced, kept as the reference for its coordinate recognizer.

It assigns the vertices of q one by one, most arrows first, to template
vertices consistent with the arrows and tau entries among those already
assigned, and backtracks on failure.  Its tau test compares q.tau[v] only
with vertices assigned before v, so a tau self-loop passes unnoticed; the
comparison tests account for that.

The search can take time exponential in the number of vertices (n = 1 has
no arrows to prune it), so the copy kept here takes a budget of search
nodes and raises `BudgetExceeded` past it; apart from that it is the old
code.
"""

from __future__ import annotations

from grquiver.arquiver import ARQuiver, build_template


class BudgetExceeded(Exception):
    pass


def template_match(q: ARQuiver, n: int, m: int,
                   budget: int = 10 ** 9) -> dict | None:
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
    nodes = [0]

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
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExceeded
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
