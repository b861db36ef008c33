"""Exact laws by dynamic programming over walk states.

The DP runs in integer arithmetic and is deliberately ignorant of the
closed forms in :mod:`condrand.distributions`: it carries the exact path
weight of every reachable (count, statistic) state, so its laws are exact.
It backs ``condrand pvalue --exact``, the exact column of table 2 and,
run over zero scores, every count law of ``dist --backend exact``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .design import DesignSpec
from .errors import InfeasibleError

MAX_DP = 40


def _integerize_scores(values) -> tuple[list[int], int]:
    """Represent scores exactly as integers over a common scale.

    Rank-based scores are halves, so small denominators are expected;
    anything that does not collapse to a modest rational scale is refused
    rather than silently approximated.
    """
    fracs = []
    for v in map(float, values):
        f = Fraction(v).limit_denominator(10**4)
        if abs(f - Fraction(v)) > Fraction(1, 10**9):
            raise ValueError(
                f"score {v!r} is not representable on a small rational lattice"
            )
        fracs.append(f)
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    if scale > 10**6:
        raise ValueError(f"scores need scale {scale}, beyond the exact DP's range")
    return [int(f * scale) for f in fracs], scale


def _forward(design: DesignSpec, ints, j0: int = 0, m0: int = 0, n1: int | None = None):
    """From N1(j0) = m0 through the scores ``ints[j0:]``, ``states[m]``
    maps each statistic reached at count m to its integer path weight,
    each step probability scaled by 2 * denominator(p); complete
    randomization is the coin at p = 1/2.  Given ``n1``, only the states
    that can still end at count ``n1`` are kept."""
    n = len(ints)
    p = design.exact_p()
    den = 2 * p.denominator
    w_half = den // 2
    w_p = int(p * den)
    w_q = den - w_p

    def weights(j: int, m: int) -> tuple[int, int]:
        if 2 * m == j:
            return w_half, w_half
        if 2 * m < j:
            return w_p, w_q
        return w_q, w_p

    top = n if n1 is None else n1
    states: list[dict[int, int]] = [{} for _ in range(m0)] + [{0: 1}]
    for j in range(j0, n):
        step: list[dict[int, int]] = [{} for _ in range(min(len(states), top) + 1)]
        a = ints[j]
        for m, row in enumerate(states):
            if not row:
                continue
            w1, w0 = weights(j, m)
            # counts are visited upwards, so step[m + 1] is still empty here
            if w1 and m < top:
                step[m + 1] = {s + a: w * w1 for s, w in row.items()}
            # prune a stay that can no longer hit the target count
            if w0 and (n1 is None or n - j - 1 >= n1 - m):
                stay = step[m]
                for s, w in row.items():
                    stay[s] = stay.get(s, 0) + w * w0
        states = step
    return states


def exact_count_law(design: DesignSpec, n: int, j: int = 0, m: int = 0) -> list[Fraction]:
    """P(N1(n) = n1 | N1(j) = m) for n1 = 0..n, in rationals: the DP over
    zero scores, at any horizon."""
    if not 0 <= m <= j <= n:
        raise ValueError(f"need 0 <= m <= j <= n, got m = {m}, j = {j}, n = {n}")
    weights = [row.get(0, 0) for row in _forward(design, [0] * n, j, m)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights] + [Fraction(0)] * (n + 1 - len(weights))


def _exact_law(design: DesignSpec, scores, n1: int) -> tuple[dict[int, int], int, int]:
    """The conditional law of the statistic given N1(n) = n1, in integers:
    (path weight by statistic times ``scale``, ``scale``, total weight)."""
    values = list(getattr(scores, "values", scores))
    n = len(values)
    if not 1 <= n <= MAX_DP:
        raise ValueError(f"exact DP supports 1 <= n <= {MAX_DP}, got {n}")
    if not 0 <= n1 <= n:
        raise ValueError(f"count {n1} out of range for horizon {n}")
    ints, scale = _integerize_scores(values)
    dist = _forward(design, ints, n1=n1)[n1]
    total = sum(dist.values())
    if total == 0:
        raise InfeasibleError(
            f"N1({n}) = {n1} has probability zero under {design.label()}"
        )
    return dist, scale, total


def exact_statistic_distribution(
    design: DesignSpec, scores, n1: int
) -> tuple[np.ndarray, list[Fraction]]:
    """Exact conditional law of the linear statistic sum(scores[j] * T_j).

    Returns the sorted support (floats) and matching probabilities given
    N1(n) = n1.  Scores must sit on a small rational lattice.
    """
    dist, scale, total = _exact_law(design, scores, n1)
    support = sorted(dist)
    return np.asarray([s / scale for s in support]), [Fraction(dist[s], total) for s in support]


def exact_conditional_pvalue(design: DesignSpec, scores, n1: int, v_star: float) -> Fraction:
    """Exact P(V >= v* | N1(n) = n1) for the linear statistic of ``scores``."""
    dist, scale, total = _exact_law(design, scores, n1)
    # smallest lattice point >= v_star * scale; exact for on-lattice v_star
    threshold = math.ceil(float(v_star) * scale - 1e-9)
    return Fraction(sum(w for s, w in dist.items() if s >= threshold), total)
