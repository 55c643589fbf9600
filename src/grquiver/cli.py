"""Command-line surface: construct and inspect modules, apply functors,
assemble AR quivers, and run the verification suites.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 internal error
(an invariant violation or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import arquiver, constructions, homological, polynomial
from .grmod import (GradedModule, character_module, contravariant_dual, dual,
                    is_isomorphic, shift, socle, top, validate, weyl_twist)


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GRQ_SEED")
    return int(env) if env else 0


def _load_module(source: str, p: int) -> GradedModule:
    """The module of a JSON file, checked against --p, or of a family label;
    validated either way, and bad input raises ValueError."""
    if not os.path.exists(source):
        m = constructions.parse_label(source).build(p)
    else:
        try:
            with open(source) as fh:
                m = GradedModule.from_json(fh.read())
        except (OSError, TypeError, ValueError) as e:
            raise ValueError(f"{source}: malformed module file "
                             f"({type(e).__name__}: {e})") from e
        if m.algebra.p != p:
            raise ValueError(f"{source}: module is over p={m.algebra.p}, "
                             f"but --p is {p}")
    errs = validate(m)
    if errs:
        raise ValueError(f"{source}: invalid module: " + "; ".join(errs))
    return m


def _header(args) -> str:
    return f"# p={args.p} seed={_seed_from(args)}"


def _emit_module(m: GradedModule, emit: str, out) -> None:
    if emit == "json":
        out.write(m.to_json() + "\n")
    else:
        verdict = polynomial.is_polynomial(m)
        out.write(f"dim {m.dim}\n")
        out.write("support " + " ".join(
            f"({a},{b})" for a, b in sorted(m.support())) + "\n")
        out.write(f"degree {verdict.degree}\n")
        out.write("polynomial: " + ("yes" if verdict.is_polynomial else "no")
                  + "\n")


def cmd_module(args, out) -> int:
    _emit_module(_load_module(args.source, args.p), args.emit, out)
    return 0


_FUNCTORS = {
    "t": lambda m: polynomial.t_poly(m)[0],
    "u": lambda m: polynomial.u_poly(m)[0],
    "dual": dual,
    "w0": weyl_twist,
    "omega": homological.omega,
    "tau": homological.tau,
    "socle": lambda m: socle(m)[0],
    "top": lambda m: top(m)[0],
}


def cmd_functor(args, out) -> int:
    m = _load_module(args.input, args.p)
    result = _FUNCTORS[args.op](m)
    _emit_module(result, args.emit, out)
    lab = arquiver.identify(result)
    out.write(f"identified: {lab if lab is not None else 'unknown'}\n")
    return 0


def cmd_ar(args, out) -> int:
    seed_mod = _load_module(args.seed_module, args.p)
    q = arquiver.explore_component(seed_mod, max_ql=args.max_ql,
                                  max_tau=args.max_tau)
    out.write(q.to_dot() if args.emit == "dot"
              else json.dumps(q.to_json_dict()) + "\n")
    return 0


def cmd_schur(args, out) -> int:
    q = arquiver.schur_block_quiver(args.p, args.d, args.seed_label)
    if args.drop_projective_injective:
        s = q.stable_part()
        n = 2 * (args.d // args.p) + 1
        match = arquiver.template_match(s, n, n)
        out.write(s.to_dot() if args.emit == "dot"
                  else json.dumps(s.to_json_dict()) + "\n")
        out.write(f"template Z[A_{n}]/tau^{n}: "
                  + ("MATCH" if match is not None else "NO MATCH") + "\n")
    else:
        out.write(q.to_dot() if args.emit == "dot"
                  else json.dumps(q.to_json_dict()) + "\n")
    return 0


def cmd_borel(args, out) -> int:
    reports = polynomial.quasi_hereditary_check(args.p, args.r, args.d)
    ok = True
    for rep in reports:
        ok = ok and rep.passed
        out.write(f"lambda=({rep.weight[0]},{rep.weight[1]}) dim={rep.dim} "
                  f"unit_weight_space={rep.unit_weight_space} "
                  f"lower_weights_only={rep.lower_weights_only} "
                  f"scalar_endos={rep.scalar_endos}\n")
    out.write("quasi-hereditary evidence: "
              + ("PASS" if ok else "FAIL") + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# check suites


def _suite_core(p: int) -> list[tuple[str, bool]]:
    C = constructions
    checks = []
    ok = all(validate(C.weyl_hat(p, d)) == [] for d in range(4 * p + 1))
    checks.append(("weyl-family validates", ok))
    w = C.w_hat(p, p)
    checks.append(("dual involution",
                   is_isomorphic(contravariant_dual(contravariant_dual(w)), w)
                   is not None))
    checks.append(("twist involution",
                   is_isomorphic(weyl_twist(weyl_twist(w)), w) is not None))
    checks.append(("omega vanishes on projectives",
                   homological.omega(C.projective_indec(p, 0)).dim == 0))
    checks.append(("tau on W-family",
                   is_isomorphic(homological.tau(C.w_hat(p, p)),
                                 shift(C.w_hat(p, p), (p, -p))) is not None))
    return checks


def _suite_schur(p: int) -> list[tuple[str, bool]]:
    C = constructions
    checks = []
    seq = homological.almost_split_sequence(shift(C.w_hat(p, p), (0, p)))
    checks.append(("W-sequence middle",
                   is_isomorphic(seq.middle, C.w_hat(p, 2 * p)) is not None))
    checks.append(("tau on V-family",
                   is_isomorphic(homological.tau(C.weyl_hat(p, p)),
                                 shift(C.weyl_hat(p, 3 * p), (-p, -p)))
                   is not None))
    t, _ = polynomial.t_poly(shift(C.weyl_hat(p, 2 * p), (-p, 0)))
    checks.append(("torsion identity", is_isomorphic(t, C.w_hat(p, p))
                   is not None))
    q = arquiver.schur_block_quiver(p, p, constructions.FamilyLabel("V", d=p))
    s = q.stable_part()
    checks.append(("degree-p block template",
                   arquiver.template_match(s, 3, 3) is not None))
    return checks


def _suite_borel(p: int) -> list[tuple[str, bool]]:
    checks = []
    for d in range(0, 5):
        reports = polynomial.quasi_hereditary_check(p, 1, d)
        checks.append((f"standard modules degree {d}",
                       all(r.passed for r in reports)))
    k0 = character_module(constructions.borel_algebra(p, 1), (0, 0))
    checks.append(("nakayama shift",
                   homological.nakayama(k0).weights == ((p - 1, 1 - p),)))
    return checks


def cmd_check(args, out) -> int:
    suites = (["core", "schur", "borel"] if args.suite == "all"
              else [args.suite])
    run = {"core": _suite_core, "schur": _suite_schur, "borel": _suite_borel}
    results = []
    for s in suites:
        for name, passed in run[s](args.p):
            results.append({"suite": s, "name": name, "passed": passed})
    all_ok = all(r["passed"] for r in results)
    out.write(json.dumps({"p": args.p, "seed": _seed_from(args),
                          "checks": results, "passed": all_ok}) + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grq",
        description="exact graded-module and AR-quiver computations")
    ap.add_argument("--p", type=int, default=3,
                    help="odd prime modulus (never inferred)")
    ap.add_argument("--seed", type=int, default=None,
                    help="PRNG seed (fallback: GRQ_SEED env, then 0)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("module", help="construct and print a module")
    sp.add_argument("source", help="family label or JSON file")
    sp.add_argument("--emit", choices=["json", "summary"], default="summary")

    sp = sub.add_parser("functor", help="apply a functor to a module")
    sp.add_argument("op", choices=sorted(_FUNCTORS))
    sp.add_argument("input", help="family label or JSON file")
    sp.add_argument("--emit", choices=["json", "summary"], default="json")

    sp = sub.add_parser("ar", help="explore an AR component patch")
    sp.add_argument("seed_module", help="family label or JSON file")
    sp.add_argument("--max-ql", type=int, default=2)
    sp.add_argument("--max-tau", type=int, default=2)
    sp.add_argument("--emit", choices=["dot", "json"], default="dot")

    sp = sub.add_parser("schur", help="degree-d block AR quiver")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--seed-label", default=None)
    sp.add_argument("--emit", choices=["dot", "json"], default="dot")
    sp.add_argument("--drop-projective-injective", action="store_true")

    sp = sub.add_parser("borel", help="quasi-hereditary evidence report")
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("check", help="run verification suites")
    sp.add_argument("--suite", choices=["core", "schur", "borel", "all"],
                    default="all")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    out = sys.stdout
    out.write(_header(args) + "\n")
    try:
        if args.cmd == "module":
            return cmd_module(args, out)
        if args.cmd == "functor":
            return cmd_functor(args, out)
        if args.cmd == "ar":
            return cmd_ar(args, out)
        if args.cmd == "schur":
            if args.seed_label is None:
                fam = "V" if args.d > args.p - 1 else "L"
                args.seed_label = f"{fam}({args.d})"
            return cmd_schur(args, out)
        if args.cmd == "borel":
            return cmd_borel(args, out)
        if args.cmd == "check":
            return cmd_check(args, out)
        return 2
    except (ValueError, constructions.LabelParseError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except RuntimeError as e:
        sys.stderr.write(f"internal invariant violation: {e}\n")
        return 3
    except Exception as e:
        msg = " ".join(str(e).split())
        sys.stderr.write(f"internal error: {type(e).__name__}: {msg}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
