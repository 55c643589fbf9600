"""Walk through the degree-3 blocks at p = 3.

Builds the AR quiver of every block of degree 3, one per linkage class of
the polynomial simples, lists their indecomposables, and matches the
stable part of the block containing V(3) against the Z[A_3]/<tau^3>
template.
"""

from grquiver import arquiver as AQ

P, D = 3, 3


def main() -> None:
    blocks = AQ.schur_blocks(P, D)
    mods = sorted(((n, v.module) for b in blocks
                   for n, v in b.vertices.items()), key=lambda t: t[0])
    print(f"{len(mods)} indecomposable polynomial modules of degree {D}:")
    for name, m in mods:
        print(f"  {name:18} dim {m.dim}")

    print(f"\n{len(blocks)} linkage blocks; "
          f"{sum(len(b.vertices) > 1 for b in blocks)} non-semisimple")

    q = next(b for b in blocks if "V(3)" in b.vertices)
    print(f"\nblock quiver of V(3): {len(q.vertices)} vertices, "
          f"{len(q.arrows)} arrows")
    for name, v in sorted(q.vertices.items()):
        flags = []
        if v.projective_in_poly:
            flags.append("proj")
        if v.injective_in_poly:
            flags.append("inj")
        print(f"  {name:18} dim {v.module.dim:2} {' '.join(flags)}")

    s = q.stable_part()
    match = AQ.template_match(s, 3, 3)
    print(f"\nstable part: {len(s.vertices)} vertices, "
          f"{len(s.arrows)} arrows")
    print("template Z[A_3]/tau^3:", "MATCH" if match else "NO MATCH")


if __name__ == "__main__":
    main()
