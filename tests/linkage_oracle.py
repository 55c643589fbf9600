"""Independent linkage oracle for the blocks of degree d.

Computed from (p, d) alone, with no module built and nothing imported from
grquiver.  The polynomial simple G1T-modules of degree d are the
L(x, d - x) of highest weight (x, d - x) with x >= (2x - d) mod p: the
weights of L(a), a = (2x - d) mod p, are (x - i, d - x + i) for i = 0..a.
By the linkage principle (Jantzen, Representations of Algebraic Groups,
II.9), a p-singular simple, x - y = -1 mod p, is a block on its own, and
the others are linked exactly when they share the pair
{x mod p, (d - x - 1) mod p}, that is lambda and s.lambda taken mod p.
"""

from __future__ import annotations


def polynomial_simples(p: int, d: int) -> list[tuple[int, int]]:
    """Highest weights of the polynomial simples of degree d."""
    return [(x, d - x) for x in range(d + 1) if x >= (2 * x - d) % p]


def linkage_classes(p: int, d: int) -> list[list[tuple[int, int]]]:
    """The highest weights of the simples of each block of degree d, each
    class sorted, the classes in sorted order."""
    classes: dict = {}
    for x, y in polynomial_simples(p, d):
        key = ((x, y) if (x - y) % p == p - 1
               else frozenset({x % p, (d - x - 1) % p}))
        classes.setdefault(key, []).append((x, y))
    return sorted(sorted(c) for c in classes.values())


def non_semisimple_count(p: int, d: int) -> int:
    """Blocks of degree d with more than one simple.  A block with one
    simple L is semisimple: Ext^1(L, L) = 0 for G1T-modules at p > 2."""
    return sum(len(c) > 1 for c in linkage_classes(p, d))
