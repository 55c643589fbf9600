"""The four benchmark workloads: their tasks, inputs and output checks.

A task is one closed-loop step. Its callable computes with grquiver, checks
the result against facts verified without the code under test (checks.py,
known dimensions, template sizes) and returns the output as text. The
stdout of every task the `grq` CLI can express is also compared with the
sha256 recorded in expected.json; those tasks pass `--seed 0`, so the
header line does not depend on GRQ_SEED.

The workload seed fixes the task order and, in each isomorphism task, a
diagonal shift (i, i) of both modules; the expected verdicts do not depend
on it. Run `python3 perfbench/workloads.py --record` to rewrite
expected.json from the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (CheckFailed, check_exact, check_isomorphism,
                    is_polynomial_support, require, word_ranks)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Task:
    name: str
    fn: Callable[[], str]
    cli: bool = False  # stdout is compared with the recorded digest


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def _cli_task(lib, name: str, argv: list[str],
              check: Callable[[str], None] | None = None) -> Task:
    def fn() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        out = buf.getvalue()
        require(code == 0, f"grq exited {code}")
        if check is not None:
            check(out)
        return out
    return Task(name, fn, cli=True)


# ---------------------------------------------------------------------------
# block_quiver: the degree-d block quivers, the paper's headline result


def _check_template(n: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        lines = out.splitlines()
        require(lines[-1] == f"template Z[A_{n}]/tau^{n}: MATCH",
                f"template line {lines[-1]!r}")
        vertices = [ln for ln in lines
                    if ln.startswith('  "') and "->" not in ln]
        require(len(vertices) == n * n,
                f"{len(vertices)} stable vertices, expected {n * n}")
    return check


def block_quiver(lib, rng: random.Random) -> list[Task]:
    # V(d) is decomposable when d = p-1 mod p, so degree 5 at p=3 needs an
    # explicit seed (see README.md, findings)
    runs = [(3, 3, None), (3, 4, None), (3, 5, "L(0)+(1,4)"), (3, 6, None),
            (5, 5, None)]
    tasks = []
    for p, d, label in runs:
        argv = ["--p", str(p), "--seed", "0", "schur", "--d", str(d),
                "--drop-projective-injective"]
        if label is not None:
            argv += ["--seed-label", label]
        tasks.append(_cli_task(lib, f"schur-p{p}-d{d}", argv,
                               _check_template(2 * (d // p) + 1)))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# ar_patch: AR-component patches, dominated by isomorphism tests


def ar_patch(lib, rng: random.Random) -> list[Task]:
    C, G, AQ = lib.constructions, lib.grmod, lib.arquiver
    p = 3
    tasks = []
    for seed in ("V(3)", "V(4)", "W(6)"):
        argv = ["--p", str(p), "--seed", "0", "ar", seed, "--max-ql", "1",
                "--max-tau", "1", "--emit", "dot"]
        tasks.append(_cli_task(lib, f"ar-{seed}", argv))

    def symmetry() -> str:
        patch = AQ.explore_component(C.weyl_hat(p, 3), max_ql=1, max_tau=1)
        rep = AQ.column_symmetry_check(patch)
        require(rep.get("applicable") and rep.get("passed"),
                f"column symmetry report {rep}")
        return json.dumps(rep, sort_keys=True)
    tasks.append(Task("symmetry-V(3)", symmetry))

    v3, vo3 = C.weyl_hat(p, 3), C.weyl_hat_dual(p, 3)
    i = rng.randrange(-3, 4)
    left = G.shift(G.direct_sum([v3, v3, vo3]), (i, i))
    right = G.shift(G.direct_sum([v3, v3, v3]), (i, i))

    def iso() -> str:
        # dim Hom = 9: the exhaustive search tries up to 3^9 candidates
        phi = G.is_isomorphic(left, right)
        require(phi is None, "V(3)^2+Vo(3) reported isomorphic to V(3)^3")
        require(word_ranks(left) != word_ranks(right),
                "rank invariants do not separate the two modules")
        return "None"
    tasks.append(Task("iso-V(3)^2+Vo(3)-vs-V(3)^3", iso))

    j = rng.randrange(-3, 4)
    mixed = G.shift(G.direct_sum([v3, v3, vo3]), (j, j))
    refs = {"V(3)": G.shift(v3, (j, j)), "Vo(3)": G.shift(vo3, (j, j))}

    def decompose() -> str:
        found: Counter = Counter()
        for piece, mult in G.decompose(mixed):
            for name, ref in refs.items():
                if word_ranks(piece) == word_ranks(ref):
                    check_isomorphism(G.is_isomorphic(piece, ref), piece, ref,
                                      f"summand {name}")
                    found[name] += mult
                    break
            else:
                raise CheckFailed(f"unexpected summand of dim {piece.dim}")
        require(found == Counter({"V(3)": 2, "Vo(3)": 1}),
                f"summands {dict(found)}")
        return json.dumps(sorted(found.items()))
    tasks.append(Task("decompose-V(3)^2+Vo(3)", decompose))

    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# tau_orbit: tau and tau^-1 walks from W(sp+a); every input is a shift of
# an earlier one


def _walk(lib, p: int, d: int, steps: int, sign: int) -> list[Task]:
    C, G, H = lib.constructions, lib.grmod, lib.homological
    start = C.w_hat(p, d)
    end = G.shift(start, (sign * steps * p, -sign * steps * p))
    state = {"cur": start}
    arrow = "tau" if sign > 0 else "tau-"

    def make(k: int) -> Task:
        def fn() -> str:
            prev = state.pop("cur", None)
            require(prev is not None, "an earlier step of this walk failed")
            # looked up per call, so a traced pass sees the wrapper
            cur = H.tau(prev) if sign > 0 else H.tau_inv(prev)
            require(cur.dim == start.dim, f"dim {cur.dim} != {start.dim}")
            require(not is_polynomial_support(cur.weights),
                    f"{arrow}^{k} of W({d}) is polynomial")
            if k == steps:
                check_isomorphism(G.is_isomorphic(cur, end), cur, end,
                                  f"{arrow}^{k} W({d}) vs W({d}) shifted")
            state["cur"] = cur
            return cur.to_json()
        return Task(f"{arrow}{k}-p{p}-W({d})", fn)
    return [make(k) for k in range(1, steps + 1)]


def tau_orbit(lib, rng: random.Random) -> list[Task]:
    walks = [_walk(lib, p, d, steps, sign)
             for p, ds, steps in ((3, (3, 4, 6, 7, 9, 10), 8),
                                  (5, (5, 8, 10, 13), 4))
             for d in ds for sign in (1, -1)]
    # interleave the walks at random, keeping each walk's own order
    turns = [w for w, walk in enumerate(walks) for _ in walk]
    rng.shuffle(turns)
    nxt = [0] * len(walks)
    tasks = []
    for w in turns:
        tasks.append(walks[w][nxt[w]])
        nxt[w] += 1
    return tasks


# ---------------------------------------------------------------------------
# borel: the truncated polynomial ring backend


def _check_qh(d: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        lines = out.splitlines()[1:]
        require(len(lines) == d + 2, f"{len(lines) - 1} reports, "
                f"expected {d + 1}")
        for ln in lines[:-1]:
            require("unit_weight_space=True lower_weights_only=True "
                    "scalar_endos=True" in ln, f"failing report {ln!r}")
        require(lines[-1] == "quasi-hereditary evidence: PASS", lines[-1])
    return check


def _outer_tensors(lib, p: int) -> list[tuple]:
    """The five outer tensors of the acceptance battery at prime p."""
    C, G, H = lib.constructions, lib.grmod, lib.homological
    a1 = C.borel_algebra(p, 1)
    a2 = C.borel_algebra(p, 1, offset=2)
    char = G.character_module
    return [
        (char(a1, (0, 0)), char(a2, (0, 0))),
        (char(a1, (0, 0)), C.borel_projective((0, 0), a2)),
        (C.borel_projective((0, 0), a1), char(a2, (1, 1))),
        (char(a1, (2, 1)), char(a2, (0, 2))),
        (H.omega(char(a1, (0, 0))), char(a2, (0, 0))),
    ]


def _factor_betti(m, n_terms: int) -> list[int]:
    """Betti dimensions of an indecomposable k[X]/(X^p)-module k[X]/(X^j):
    free (j = p) has one term; otherwise every syzygy is again cyclic."""
    p = m.algebra.p
    if len(m.weights) == p:
        return [p] + [0] * (n_terms - 1)
    return [p] * n_terms


def borel(lib, rng: random.Random) -> list[Task]:
    C, H = lib.constructions, lib.homological
    tasks = []
    for p in (3, 5):
        for r in (1, 2):
            for d in range(9):
                argv = ["--p", str(p), "--seed", "0", "borel", "--r", str(r),
                        "--d", str(d)]
                tasks.append(_cli_task(lib, f"qh-p{p}-r{r}-d{d}", argv,
                                       _check_qh(d)))
    for p in (3, 5):
        for k, (m, n) in enumerate(_outer_tensors(lib, p), start=1):
            tensor = C.outer_tensor(m, n)
            bm, bn = _factor_betti(m, 6), _factor_betti(n, 6)
            conv = [sum(bm[i] * bn[t - i] for i in range(t + 1))
                    for t in range(6)]

            def betti(tensor=tensor, conv=conv) -> str:
                dims = H.betti(tensor, 6).dims
                require(dims == conv, f"betti {dims} != convolution {conv}")
                return json.dumps(dims)

            def ass(tensor=tensor, k=k) -> str:
                seq = H.almost_split_sequence(tensor)
                require(seq.right is tensor, "sequence ends elsewhere")
                check_exact(seq, f"almost split sequence {k}")
                return seq.left.to_json() + "\n" + seq.middle.to_json()

            tasks.append(Task(f"betti-p{p}-t{k}", betti))
            tasks.append(Task(f"ass-p{p}-t{k}", ass))
    rng.shuffle(tasks)
    return tasks


BUILDERS = {"block_quiver": block_quiver, "ar_patch": ar_patch,
            "tau_orbit": tau_orbit, "borel": borel}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, lib) -> list[Task]:
    """The workload's tasks in run order, with their inputs generated."""
    return BUILDERS[workload](lib, random.Random(seed))


def record(lib) -> dict[str, str]:
    """Run every CLI task once and return the sha256 of its stdout."""
    digests = {}
    for workload in WORKLOADS:
        for task in build(workload, 0, lib):
            if task.cli:
                digests[task.name] = sha256(task.fn())
    return dict(sorted(digests.items()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/workloads.py --record")
    from worker import import_library
    EXPECTED_PATH.write_text(json.dumps(record(import_library()), indent=1)
                             + "\n")
