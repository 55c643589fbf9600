"""The coordinate recognizer `arquiver.template_match` against the
backtracking matcher it replaced (`tests/reference_template.py`).

Inputs: relabelled templates Z[A_n]/<tau^m> with n*m <= 16 and tau partly
deleted, the stable parts of real blocks, and mutants of both.  Every map
either matcher returns is judged by `is_template_iso`, which calls neither.
The reference backtracks, so it runs only where it finishes within a
budget of search nodes: on nine in ten template inputs, and on every block
input.
"""

import random

import pytest

import reference_template as RT
from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver.grmod import zero_module

TEMPLATE_SHAPES = [(n, m) for n in range(1, 17) for m in range(1, 17)
                   if n * m <= 16]
BLOCKS = [(3, d) for d in (3, 4, 6, 7)] + \
    [(5, d) for d in (5, 6, 7, 8, 10, 11, 12, 13)]
NO_MODULE = zero_module(C.sl2_algebra(3))  # a vertex only the shape reads


def quiver(vertices, arrows, tau) -> AQ.ARQuiver:
    q = AQ.ARQuiver()
    for v in vertices:
        q.add_vertex(AQ.VertexLabel(v, None, NO_MODULE))
    q.arrows = dict(arrows)
    q.tau = dict(tau)
    return q


def relabelled(t: AQ.ARQuiver, rng: random.Random) -> AQ.ARQuiver:
    """t under a random renaming, so that sorted order carries no hint."""
    names = sorted(t.vertices)
    new = [f"v{k}" for k in rng.sample(range(len(names)), len(names))]
    ren = dict(zip(names, new))
    return quiver(new, {(ren[s], ren[w]): mult
                        for (s, w), mult in t.arrows.items()},
                  {ren[v]: ren[tv] for v, tv in t.tau.items()})


def is_template_iso(q: AQ.ARQuiver, n: int, m: int, mapping) -> bool:
    """mapping is a bijection of q onto Z[A_n]/<tau^m> that carries the
    arrows, with multiplicities, onto the template's and every tau entry of
    q to the template's tau."""
    t = AQ.build_template(n, m)
    if set(mapping) != set(q.vertices) or \
            sorted(mapping.values()) != sorted(t.vertices):
        return False
    image = {(mapping[s], mapping[w]): mult
             for (s, w), mult in q.arrows.items()}
    return image == t.arrows and all(
        t.tau[mapping[v]] == mapping[tv] for v, tv in q.tau.items())


def has_tau_self_loop(q: AQ.ARQuiver) -> bool:
    return any(v == tv for v, tv in q.tau.items())


def mutants(q: AQ.ARQuiver, rng: random.Random) -> list[AQ.ARQuiver]:
    """Nine kinds of small damage to q, each applied once where it applies."""
    names = sorted(q.vertices)
    taus = sorted(q.tau)
    out = []
    if q.arrows:
        a = rng.choice(sorted(q.arrows))
        rest = {k: v for k, v in q.arrows.items() if k != a}
        out.append(quiver(names, rest, q.tau))  # drop an arrow
        out.append(quiver(names, {**rest, (a[1], a[0]): 1}, q.tau))  # reverse
        free = [w for w in names if (a[0], w) not in q.arrows]
        if free:  # retarget
            out.append(quiver(names, {**rest, (a[0], rng.choice(free)): 1},
                              q.tau))
        out.append(quiver(names, {**q.arrows, a: 2}, q.tau))  # double
    if taus:
        v = rng.choice(taus)
        others = [w for w in names if w not in (v, q.tau[v])]
        if others:  # redirect a tau entry
            out.append(quiver(names, q.arrows,
                              {**q.tau, v: rng.choice(others)}))
        if q.tau[v] != v:  # a tau self-loop
            out.append(quiver(names, q.arrows, {**q.tau, v: v}))
        if len(taus) > 1:  # swap two tau targets
            u, w = rng.sample(taus, 2)
            out.append(quiver(names, q.arrows,
                              {**q.tau, u: q.tau[w], w: q.tau[u]}))
    out.append(quiver(names + ["extra"], q.arrows, q.tau))  # extra vertex
    if len(names) > 1:  # drop a vertex
        out.append(q.induced(set(names) - {rng.choice(names)}))
    return out


def compare(q: AQ.ARQuiver, n: int, m: int,
            budget: int) -> tuple[bool, bool]:
    """Check the recognizer on one input, and against the reference where
    the reference finishes within budget; returns (matched, compared)."""
    got = AQ.template_match(q, n, m)
    assert got is None or is_template_iso(q, n, m, got)
    if m > 1 and has_tau_self_loop(q):
        assert got is None
    try:
        ref = RT.template_match(q, n, m, budget=budget)
    except RT.BudgetExceeded:
        return got is not None, False
    if ref is None or is_template_iso(q, n, m, ref):
        assert (got is None) == (ref is None)
    else:
        # the reference ignores a tau self-loop (see its docstring)
        assert has_tau_self_loop(q) and got is None
    return got is not None, True


def inputs_from(q: AQ.ARQuiver, n: int, m: int, rng: random.Random):
    """q itself, q asked for the wrong shape, and the mutants of q."""
    yield q, n, m
    for shape in sorted({(n + 1, m), (n, m + 1), (m, n)} - {(n, m)}):
        yield (q, *shape)
    for _ in range(2):
        for mq in mutants(q, rng):
            yield mq, n, m


def test_templates_and_mutants():
    results = []
    for n, m in TEMPLATE_SHAPES:
        rng = random.Random(100 * n + m)
        t = AQ.build_template(n, m)
        for kept in (1.0, 0.5, 0.0):  # the share of tau entries kept
            q = relabelled(t, rng)
            q.tau = {v: tv for v, tv in q.tau.items() if rng.random() < kept}
            verdicts = [compare(*x, budget=1000)
                        for x in inputs_from(q, n, m, rng)]
            assert verdicts[0][0]  # the template itself
            results += verdicts
    compared = [matched for matched, ran in results if ran]
    assert len(compared) >= 0.9 * len(results)
    assert True in compared and False in compared


@pytest.mark.parametrize("p,d", BLOCKS, ids=str)
def test_real_blocks_and_mutants(p, d):
    s = AQ.schur_block_quiver(p, d, f"V({d})").stable_part()
    n = 2 * (d // p) + 1
    rng = random.Random(p * 100 + d)
    results = [compare(*x, budget=10 ** 5) for x in inputs_from(s, n, n, rng)]
    assert results[0] == (True, True)  # the stable part itself
    assert all(ran for _, ran in results)


def test_tau_self_loop_regression():
    t = AQ.build_template(3, 3)
    v = sorted(t.tau)[0]
    t.tau[v] = v
    assert RT.template_match(t, 3, 3) is not None
    assert AQ.template_match(t, 3, 3) is None

