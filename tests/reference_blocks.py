"""The block partition that `arquiver.partition_blocks` replaced, kept as
the reference for the Hom-only linkage.

It closes the candidates of a degree under nonzero Hom in either
direction and then under nonzero Ext^1 over every ordered pair, and calls
a block semisimple when it has one member whose endomorphisms are the
scalars and which has no self-extension.
"""

from __future__ import annotations

from grquiver import homological
from grquiver.arquiver import _UnionFind
from grquiver.grmod import hom_space


def partition_blocks(cands) -> list[list[int]]:
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
