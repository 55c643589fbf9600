"""The block closure of `arquiver.schur_block_quiver` and the census of
`arquiver.schur_blocks` against the enumeration build they replaced
(`tests/reference_blocks.py`) and against the linkage oracle
(`tests/linkage_oracle.py`), and the errors the closure raises instead of
leaving a vertex out or unnamed.
"""

import ast
import dataclasses
import functools
import json
import pathlib

import pytest

import linkage_oracle as LO
import reference_blocks as RB
from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver import polynomial as PY

DEGREES = [(3, d) for d in range(13)] + [(5, d) for d in range(13)]


@functools.lru_cache(maxsize=None)
def closures(p, d):
    return AQ.schur_blocks(p, d)


def view(q):
    """Everything a block quiver shows: DOT and JSON bytes, the flags and
    quasi-lengths, the arrows and tau."""
    return (q.to_dot(), json.dumps(q.to_json_dict()),
            {n: (v.projective_in_poly, v.injective_in_poly, v.simple, v.ql)
             for n, v in q.vertices.items()}, q.arrows, q.tau)


@pytest.mark.parametrize("p,d", DEGREES, ids=str)
def test_closure_against_enumeration(p, d, monkeypatch):
    # every block of the degree, semisimple ones included: the same
    # vertices as the composition-factor partition of the enumeration, and
    # the same quiver as the enumeration build
    cands = RB.enumerate_degree_candidates(p, d)
    blocks = RB.partition_blocks(cands)
    assert [sorted(q.vertices) for q in closures(p, d)] == [
        sorted(str(cands[i][0]) for i in b) for b in blocks]
    # the reference would enumerate the degree again for every block
    monkeypatch.setattr(RB, "enumerate_degree_candidates",
                        lambda p_, d_: cands)
    for b, q in zip(blocks, closures(p, d)):
        assert view(q) == view(RB.schur_block_quiver(
            p, d, str(cands[b[0]][0]))), f"block of {cands[b[0]][0]}"


@pytest.mark.parametrize("p,d", DEGREES, ids=str)
def test_linkage_oracle_against_closure_simples(p, d):
    simples = sorted(sorted(max(v.module.weights)
                            for v in q.vertices.values() if v.simple)
                     for q in closures(p, d))
    assert simples == LO.linkage_classes(p, d)
    assert sum(len(q.vertices) > 1 for q in closures(p, d)) == \
        LO.non_semisimple_count(p, d)


def test_linkage_oracle_imports_nothing():
    tree = ast.parse(pathlib.Path(LO.__file__).read_text())
    imports = [n for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [n.module for n in imports] == ["__future__"]


def test_closure_rejects_an_off_block_piece(monkeypatch):
    # at p=3, d=4 the Steinberg shift L(2)+(1,1) is a block of its own; a
    # mesh that reaches it from the block of V(4) is an error naming the
    # piece, not a vertex of the wrong block
    real = PY.almost_split_in_poly
    steinberg = C.parse_label("L(2)+(1,1)").build(3)

    def leaking(v):
        return dataclasses.replace(real(v), left=steinberg)
    monkeypatch.setattr(PY, "almost_split_in_poly", leaking)
    with pytest.raises(RuntimeError, match=r"^block closure: piece of dim 3 "
                       r"and support \[\(1, 3\), \(2, 2\), \(3, 1\)\] leaves "
                       r"the block's simples$"):
        AQ.schur_block_quiver(3, 4, "V(4)")


def test_closure_rejects_an_unnamed_piece(monkeypatch):
    monkeypatch.setattr(AQ, "identify", lambda m: None)
    with pytest.raises(RuntimeError, match=r"^simple L\(\d\)\+\(\d,\d\): "
                       r"piece of dim \d and support .* has no family label$"):
        AQ.schur_block_quiver(3, 3, "V(3)")

