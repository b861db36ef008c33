"""Independent exact computations by exhaustive enumeration and dynamic
programming.

Everything here is rational arithmetic and deliberately ignorant of the
closed forms in :mod:`condrand.distributions`: it re-derives the same
quantities from first principles (walking every sequence, or running an
exact DP over walk states), which makes it the ground truth the formula
modules are tested against.  The DP also ships as a user-facing exact
p-value path for small trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .design import DesignSpec, assignment_probability_exact
from .errors import InfeasibleError

MAX_ENUM = 20
MAX_DP = 40


@dataclass
class EnumeratedLaw:
    """The full unconditional law f(t) over every sequence of length n."""

    design: DesignSpec
    n: int
    entries: dict[tuple[int, ...], Fraction] = field(repr=False)

    def probability(self, predicate) -> Fraction:
        """Total mass of sequences satisfying ``predicate(sequence_tuple)``."""
        return sum(
            (p for t, p in self.entries.items() if predicate(t)), start=Fraction(0)
        )

    def conditional_probability(self, event, given) -> Fraction:
        """P(event | given), both callables on sequence tuples."""
        denom = self.probability(given)
        if denom == 0:
            raise InfeasibleError("conditioning event has zero mass")
        num = self.probability(lambda t: given(t) and event(t))
        return num / denom


def _prefix_count(t: tuple[int, ...], j: int) -> int:
    return sum(t[:j])


def count_constraints_predicate(constraints) -> "callable":
    """Predicate for an intersection of interim count constraints."""
    cons = [(int(r), int(c)) for r, c in constraints]

    def pred(t):
        return all(_prefix_count(t, r) == c for r, c in cons)

    return pred


def enumerate_law(design: DesignSpec, n: int) -> EnumeratedLaw:
    """Materialize f(t) for all 2^n sequences in exact arithmetic."""
    if not 1 <= n <= MAX_ENUM:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUM}, got {n}")
    entries: dict[tuple[int, ...], Fraction] = {}
    bits = [0] * n

    def rec(j: int, m: int, prob: Fraction) -> None:
        if j == n:
            entries[tuple(bits)] = prob
            return
        phi = assignment_probability_exact(design, j, m)
        if phi:
            bits[j] = 1
            rec(j + 1, m + 1, prob * phi)
        if phi != 1:
            bits[j] = 0
            rec(j + 1, m, prob * (1 - phi))

    rec(0, 0, Fraction(1))
    return EnumeratedLaw(design, n, entries)


def oracle_conditional_pmf(law: EnumeratedLaw, n1: int, given=()) -> Fraction:
    """P(N1(n) = n1 | intersection of interim count constraints).

    Args:
        law: Enumerated law at horizon n.
        n1: Target final count.
        given: Iterable of (position, count) constraints; empty for the
            unconditional law.
    """
    given_pred = count_constraints_predicate(given)
    return law.conditional_probability(
        lambda t: _prefix_count(t, law.n) == n1, given_pred
    )


def oracle_sequence_law(law: EnumeratedLaw, constraints) -> dict[tuple[int, ...], Fraction]:
    """Normalized law over the sequences satisfying all count constraints."""
    pred = count_constraints_predicate(constraints)
    kept = {t: p for t, p in law.entries.items() if pred(t)}
    total = sum(kept.values(), start=Fraction(0))
    if total == 0:
        raise InfeasibleError("constraints have zero mass")
    return {t: p / total for t, p in kept.items()}


# ---------------------------------------------------------------------------
# Exact conditional p-values by dynamic programming over walk states.


def _integerize_scores(values) -> tuple[list[int], int]:
    """Represent scores exactly as integers over a common scale.

    Rank-based scores are halves, so small denominators are expected;
    anything that does not collapse to a modest rational scale is refused
    rather than silently approximated.
    """
    fracs = []
    for v in values:
        f = Fraction(float(v)).limit_denominator(10**4)
        if abs(f - Fraction(float(v))) > Fraction(1, 10**9):
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


def exact_statistic_distribution(
    design: DesignSpec, scores, n1: int
) -> tuple[np.ndarray, list[Fraction]]:
    """Exact conditional law of the linear statistic sum(scores[j] * T_j).

    Returns the sorted support (floats) and matching probabilities given
    N1(n) = n1.  Scores must sit on a small rational lattice.
    """
    values = list(getattr(scores, "values", scores))
    n = len(values)
    if not 1 <= n <= MAX_DP:
        raise ValueError(f"exact DP supports 1 <= n <= {MAX_DP}, got {n}")
    if not 0 <= n1 <= n:
        raise ValueError(f"count {n1} out of range for horizon {n}")
    ints, scale = _integerize_scores(values)

    # Integer path weights: multiply every step probability by a common
    # denominator so states carry Python ints, not Fractions.
    p = design.exact_p()
    den = 2 * p.denominator
    w_half = den // 2
    w_p = int(p * den)
    w_q = den - w_p

    def weights(j: int, m: int) -> tuple[int, int]:
        if design.kind == "complete" or 2 * m == j:
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
    support = sorted(dist)
    probs = [Fraction(dist[s], total) for s in support]
    return np.asarray([s / scale for s in support]), probs


def exact_conditional_pvalue(design: DesignSpec, scores, n1: int, v_star: float) -> Fraction:
    """Exact P(V >= v* | N1(n) = n1) for the linear statistic of ``scores``."""
    values = list(getattr(scores, "values", scores))
    ints, scale = _integerize_scores(values)
    # smallest lattice point >= v_star * scale; exact for on-lattice v_star
    threshold = math.ceil(float(v_star) * scale - 1e-9)
    support, probs = exact_statistic_distribution(design, values, n1)
    tail = Fraction(0)
    for s, pr in zip(support, probs):
        if round(s * scale) >= threshold:
            tail += pr
    return tail


def exact_statistic_quantile(design: DesignSpec, scores, n1: int, alpha: float) -> float:
    """Smallest support value whose strict upper tail is at most ``alpha``."""
    support, probs = exact_statistic_distribution(design, scores, n1)
    tail = Fraction(0)
    best = float(support[-1])
    for s, pr in zip(reversed(support), reversed(probs)):
        # tail is P(V > s) before adding this atom
        if tail <= Fraction(alpha).limit_denominator(10**9):
            best = float(s)
        tail += pr
    return best


def exact_covariance(law: EnumeratedLaw, constraints) -> np.ndarray:
    """Exact conditional covariance of T given count constraints.

    Returns an object array of Fractions, symmetric n x n.
    """
    cond_law = oracle_sequence_law(law, constraints)
    n = law.n
    first = [Fraction(0)] * n
    second = [[Fraction(0)] * n for _ in range(n)]
    for t, pr in cond_law.items():
        idx = [i for i, b in enumerate(t) if b]
        for i in idx:
            first[i] += pr
            for j in idx:
                second[i][j] += pr
    sigma = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            sigma[i, j] = second[i][j] - first[i] * first[j]
    return sigma


def exact_moments(law: EnumeratedLaw, constraints) -> list[Fraction]:
    """Exact conditional means E(T_i | constraints)."""
    cond_law = oracle_sequence_law(law, constraints)
    n = law.n
    first = [Fraction(0)] * n
    for t, pr in cond_law.items():
        for i, b in enumerate(t):
            if b:
                first[i] += pr
    return first
