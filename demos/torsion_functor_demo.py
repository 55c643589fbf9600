"""The torsion radical t in action.

Shifted Weyl modules stop being polynomial; t extracts their largest
polynomial submodule, which is again a member of the known families.
"""

from grquiver import arquiver as AQ
from grquiver import constructions as C
from grquiver import polynomial as PY
from grquiver.grmod import dual, shift

P = 3


def show(m, name: str) -> None:
    verdict = PY.is_polynomial(m)
    t, _ = PY.t_poly(m)
    print(f"{name}: dim {m.dim}, polynomial: {verdict.is_polynomial}")
    print(f"  t -> dim {t.dim}, identified as {AQ.identify(t)}")


def main() -> None:
    show(shift(C.weyl_hat(P, 6), (-P, 0)), "V(6)+(-3,0)")
    show(shift(C.weyl_hat(P, 9), (-P, -P)), "V(9)+(-3,-3)")
    show(C.w_hat(P, 6), "W(6)")

    # the duality law u(m) = (t(m^o))^o
    m = shift(C.weyl_hat(P, 6), (0, -P))
    u, _ = PY.u_poly(m)
    t, _ = PY.t_poly(dual(m))
    print("\nu(V(6)+(0,-3)) identified as", AQ.identify(u))
    print("(t(dual))^o identified as", AQ.identify(dual(t)))


if __name__ == "__main__":
    main()
