"""Exact conditional p-values by dynamic programming over walk states.

The DP runs in integer arithmetic and is deliberately ignorant of the
closed forms in :mod:`condrand.distributions`: it carries the exact path
weight of every reachable (count, statistic) state, so its laws are exact
for small trials.  It backs ``condrand pvalue --exact`` and the exact
column of table 2.
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

    # Integer path weights: multiply every step probability by a common
    # denominator so states carry Python ints, not Fractions.  Complete
    # randomization is the coin at p = 1/2, whose weights are all equal.
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

    # states[m] maps each reachable statistic s to its path weight at count m
    states: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n1)]
    for j in range(n):
        step: list[dict[int, int]] = [{} for _ in range(n1 + 1)]
        a = ints[j]
        for m, row in enumerate(states):
            w1, w0 = weights(j, m)
            # counts are visited upwards, so step[m + 1] is still empty here
            if w1 and m < n1:
                step[m + 1] = {s + a: w * w1 for s, w in row.items()}
            # prune a stay that can no longer hit the target count
            if w0 and n - j - 1 >= n1 - m:
                stay = step[m]
                for s, w in row.items():
                    stay[s] = stay.get(s, 0) + w * w0
        states = step
    dist = states[n1]
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
