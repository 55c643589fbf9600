"""The Betti-window heuristic that `homological.complexity` replaced, kept
as the reference for its exact rank-variety rule.

It computes `window` terms of the minimal resolution and compares the two
halves of the Betti sequence, then of its first differences; it may answer
"unknown".
"""

from __future__ import annotations

from grquiver.grmod import GradedModule
from grquiver.homological import betti


def complexity_estimate(m: GradedModule, window: int = 12) -> int | str:
    """Bounded-window heuristic: 0, 1, 2 or "unknown"."""
    b = betti(m, window).dims
    if 0 in b:
        return 0
    half = window // 2
    if max(b[half:]) <= max(b[:half]):
        return 1
    d = [b[i + 1] - b[i] for i in range(len(b) - 1)]
    if max(d[half:]) <= max(d[:half]):
        return 2
    return "unknown"
