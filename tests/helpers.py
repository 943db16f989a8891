"""Checks shared by the test modules."""

import numpy as np


def adjoint_residual(op, rng: np.random.Generator, probes: int = 4) -> float:
    """max |<u, A v> - <A* u, v>| over random unit probes u, v, for a
    TruncatedOperator A."""
    n = op.basis.size
    worst = 0.0
    for _ in range(probes):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        lhs = np.vdot(u, op.apply(v))
        rhs = np.vdot(op.adjoint_apply(u), v)
        worst = max(worst, abs(lhs - rhs))
    return worst
