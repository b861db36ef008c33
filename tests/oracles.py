"""Reference routes to the package's laws, transitions and moments.

The package computes transitions, means and covariances from one
conditional chain per segment, whose table ``condrand.sampling.chain_rows``
builds and the memo of ``condrand.distributions`` keeps.
The functions here reach the same quantities another way, so the tests
can hold the package to them.  None of them is fast.  In order:

* the coin rule one state at a time, in floats and in rationals, and
  the unconditional law of every sequence by enumeration, in rational
  arithmetic, with the laws, covariances and quantiles derived from it,
  and a sequence's probability under a sampler;
* the closed-form plans derived on both sides of balance, each with the
  name of its branch, against which the package's mirrored plans are
  held bit for bit;
* the package's own closed-form plans priced in rational arithmetic,
  against which both its float closed forms and its exact DP are held;
* the chain's transitions, one state at a time from the closed forms;
* its moments, one entry at a time as sums over the closed forms;
* the chain in rational arithmetic;
* the closed-form ballot series priced one ``math.comb`` per term,
  against which the package's stepped series is held bit for bit;
* the assignment probabilities one step at a time, from which
  unconditional sequences are drawn and the chain is built one row at a
  time, and the exact DP run over
  ``(count, statistic)`` pairs, against which the package's block passes
  and per-count DP are held bit for bit;
* a stage's conservative boundary by a walk over the distinct sample
  values;
* the builtin float ``sum`` of Python 3.12 and later;
* the monitored pipeline: the joint law of the look statistics given
  every look count, the staged boundaries it implies and the attained
  level of any boundary vector;
* the stratified statistic's law, as the convolution of its strata's;
* the interim information fraction's bootstrap denominator, averaged
  over every completion of the unseen responses.

``covariance_final`` alone is no other route: it is shorthand for the
package's own covariance under a one-look schedule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import condrand.distributions as distributions
import condrand.sampling as sampling
from condrand.bruteforce import MAX_DP, _integerize_scores, exact_statistic_distribution
from condrand.covariance import covariance_multilook, projected_final_count
from condrand.design import COMPLETE, DesignSpec
from condrand.distributions import (
    _NEG_INF,
    _ballot_terms,
    _correction_value,
    _PurePlan,
    _SeriesPlan,
    _validate_conditional_args,
    conditional_pmf,
    unconditional_pmf,
)
from condrand.errors import InfeasibleError
from condrand.monitoring import nonparametric_quantile
from condrand.sampling import LookSchedule

# ---------------------------------------------------------------------------
# The law of every sequence, by enumeration.

MAX_ENUM = 20


def assignment_probability(design: DesignSpec, j: int, m_j: int) -> float:
    """Probability the next subject is assigned treatment 1, one state at
    a time: the coin rule that ``condrand.design._imbalance_probabilities``
    tabulates.

    Args:
        design: The randomization procedure.
        j: Number of subjects already assigned (step index, >= 0).
        m_j: Treatment-1 count among the first ``j`` assignments.

    Returns:
        P(T_{j+1} = 1 | N1(j) = m_j).
    """
    if j < 0:
        raise ValueError(f"step index must be nonnegative, got {j}")
    if not 0 <= m_j <= j:
        raise ValueError(f"count {m_j} out of range for step {j}")
    if 2 * m_j == j:
        return 0.5
    return design.p if 2 * m_j < j else 1.0 - design.p


def assignment_probability_exact(design: DesignSpec, j: int, m_j: int) -> Fraction:
    """Rational-arithmetic version of ``assignment_probability``."""
    if j < 0 or not 0 <= m_j <= j:
        raise ValueError(f"invalid state (j={j}, m={m_j})")
    if design.kind == COMPLETE or 2 * m_j == j:
        return Fraction(1, 2)
    p = design.exact_p()
    return p if 2 * m_j < j else 1 - p


def sequence_probability(design: DesignSpec, bits) -> Fraction:
    """Unconditional probability of one full assignment sequence."""
    prob = Fraction(1)
    m = 0
    for j, t in enumerate(bits):
        phi = assignment_probability_exact(design, j, m)
        prob *= phi if t else 1 - phi
        m += int(t)
    return prob


def sampler_sequence_probability(sampler, bits) -> float:
    """Probability of one sequence under a ``MultilookSampler``: the
    product of its public transitions along the walk."""
    prob = 1.0
    m = 0
    for j, t in enumerate(bits):
        pr = sampler.transition(j, m)
        prob *= pr if t else 1.0 - pr
        m += int(t)
    return prob


@dataclass
class EnumeratedLaw:
    """The full unconditional law f(t) over every sequence of length n."""

    design: DesignSpec
    n: int
    entries: dict[tuple[int, ...], Fraction] = field(repr=False)

    def probability(self, predicate) -> Fraction:
        """Total mass of sequences satisfying ``predicate(sequence_tuple)``."""
        return sum((p for t, p in self.entries.items() if predicate(t)), start=Fraction(0))

    def conditional_probability(self, event, given) -> Fraction:
        """P(event | given), both callables on sequence tuples."""
        denom = self.probability(given)
        if denom == 0:
            raise InfeasibleError("conditioning event has zero mass")
        return self.probability(lambda t: given(t) and event(t)) / denom


def count_constraints_predicate(constraints):
    """Predicate for an intersection of interim count constraints
    ``(position, count)``; the empty intersection holds everywhere."""
    cons = [(int(r), int(c)) for r, c in constraints]
    return lambda t: all(sum(t[:r]) == c for r, c in cons)


def enumerate_law(design: DesignSpec, n: int) -> EnumeratedLaw:
    """Materialize f(t) for all 2^n sequences in exact arithmetic; paths
    of probability zero are left out."""
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


def oracle_sequence_law(law: EnumeratedLaw, constraints) -> dict[tuple[int, ...], Fraction]:
    """Normalized law over the sequences satisfying all count constraints."""
    pred = count_constraints_predicate(constraints)
    kept = {t: p for t, p in law.entries.items() if pred(t)}
    total = sum(kept.values(), start=Fraction(0))
    if total == 0:
        raise InfeasibleError("constraints have zero mass")
    return {t: p / total for t, p in kept.items()}


def exact_covariance(law: EnumeratedLaw, constraints) -> np.ndarray:
    """Exact conditional covariance of T given count constraints, a
    symmetric n x n object array of fractions."""
    cond = oracle_sequence_law(law, constraints)
    t = np.array(list(cond), dtype=object)
    pr = np.array(list(cond.values()), dtype=object)
    first = pr @ t
    return (t.T * pr) @ t - np.outer(first, first)


def exact_statistic_quantile(design: DesignSpec, scores, n1: int, alpha: float) -> float:
    """Smallest support value of the exact DP law whose strict upper tail
    is at most ``alpha``."""
    support, probs = exact_statistic_distribution(design, scores, n1)
    tail = Fraction(0)
    best = float(support[-1])
    for s, pr in zip(reversed(support), reversed(probs)):
        # tail is P(V > s) before adding this atom
        if tail <= Fraction(alpha).limit_denominator(10**9):
            best = float(s)
        tail += pr
    return best


# ---------------------------------------------------------------------------
# The closed-form plans on both sides of balance, each with its branch name.


def reference_plan_unconditional(n: int, n1: int):
    """(branch name, plan) for P(N1(n) = n1), derived for each side of n/2."""
    if 2 * n1 == n:
        return "end_balanced", _SeriesPlan(False, n1, n1, n1 - 1, 0)
    if 2 * n1 < n:
        return "end_below", _SeriesPlan(True, n1, n - n1, n1, n - 2 * n1 - 1)
    return "end_above", _SeriesPlan(True, n - n1, n1, n - n1, 2 * n1 - n - 1)


def reference_plan_conditional(n: int, n1: int, j: int, m: int):
    """(branch name, plan) for P(N1(n) = n1 | N1(j) = m), 1 <= j < n,
    feasible state off balance, derived for a start in deficit and a start
    in surplus alike."""
    if 2 * m < j:
        # start in deficit: imbalance 2m - j < 0
        if n1 < j - m:
            # too few future ones to ever reach balance
            return "deficit_no_return", _PurePlan(n - j, n1 - m, n1 - m, n - j - n1 + m)
        if 2 * n1 < n:
            corr = (n1 - m, n1 - j + m, n - j - n1 + m)
            return "deficit_end_below", _SeriesPlan(
                True, n1 - m, n - n1 - m, n1 + m - j, n - 2 * n1 - 1, n - j, corr
            )
        if 2 * n1 == n:
            return "deficit_end_balanced", _SeriesPlan(
                False, n1 - m, n1 - m, n - j - n1 + m, 0
            )
        return "deficit_end_above", _SeriesPlan(
            True, n - n1 - m, n1 - m, n - j - n1 + m, 2 * n1 - n - 1
        )
    # start in surplus: imbalance 2m - j > 0
    if 2 * n1 < n:
        return "surplus_end_below", _SeriesPlan(
            True, n1 + m - j, n - j - n1 + m, n1 - m, n - 2 * n1 - 1
        )
    if 2 * n1 == n:
        return "surplus_end_balanced", _SeriesPlan(
            False, n - j - n1 + m, n - j - n1 + m, n1 - m, 0
        )
    if n1 <= n - m:
        corr = (n1 - m, n1 - j + m, n1 - m)
        return "surplus_end_above", _SeriesPlan(
            True, n - j - n1 + m, n1 + m - j, n - n1 - m, 2 * n1 - n - 1, n - j, corr
        )
    # too few future zeros to ever reach balance
    return "surplus_no_return", _PurePlan(n - j, n1 - m, n - j - n1 + m, n1 - m)


def walk_branch(n: int, n1: int, j: int, m: int) -> str:
    """Name of the closed-form branch that prices P(N1(n)=n1 | N1(j)=m)."""
    _validate_conditional_args(n, n1, j, m)
    if j == n:
        return "certain" if n1 == m else "impossible"
    if m > n1 or n - j < n1 - m:
        return "impossible"
    if j == 0:
        return "unconditional"
    if 2 * m == j:
        return "balanced_restart"
    return reference_plan_conditional(n, n1, j, m)[0]


def _eval_plan_exact(plan, p: Fraction) -> Fraction:
    """Rational value of a closed-form plan at bias ``p``."""
    q = 1 - p
    if isinstance(plan, _PurePlan):
        return math.comb(plan.trials, plan.ones) * p**plan.p_exp * q**plan.q_exp
    total = Fraction(0)
    for l, c in _ballot_terms(plan.x, plan.l_max):
        total += c * q ** (plan.q_base + l)
    if plan.halved:
        total /= 2
    if plan.correction is not None:
        d = _correction_value(plan.trials, plan.correction)
        total += d * q ** plan.correction[2]
    return p**plan.p_exp * total


def closed_form_exact(design: DesignSpec, n: int, n1: int, j: int = 0, m: int = 0) -> Fraction:
    """P(N1(n) = n1 | N1(j) = m) in rationals, from the package's own
    plans, looked up on its module so that a patched plan is priced too,
    and with ``conditional_pmf``'s conventions."""
    _validate_conditional_args(n, n1, j, m)
    if j == n:
        return Fraction(int(n1 == m))
    if m > n1 or n - j < n1 - m:
        return Fraction(0)
    if design.kind == COMPLETE:
        return Fraction(math.comb(n - j, n1 - m), 2 ** (n - j))
    if 2 * m == j:
        # a balanced start, j = 0 among them, restarts the unconditional law
        plan = distributions._plan_unconditional(n - j, n1 - m)
    else:
        plan = distributions._plan_conditional(n, n1, j, m)
    return _eval_plan_exact(plan, design.exact_p())


# ---------------------------------------------------------------------------
# Transitions, one state at a time from the closed forms.


def conditional_transition(design: DesignSpec, n: int, n1: int, j: int, m: int) -> float:
    """P(T_{j+1} = 1 | N1(j) = m, N1(n) = n1).

    The assignment probability is reweighted by the ratio of conditional
    reach probabilities of the target; at ``j = 0`` the denominator is the
    unconditional law.
    """
    denom = conditional_pmf(design, n, n1, j, m)
    if denom <= 0.0:
        raise InfeasibleError(
            f"state (j={j}, m={m}) cannot reach N1({n}) = {n1} under {design.label()}"
        )
    numer = conditional_pmf(design, n, n1, j + 1, m + 1)
    # forced moves are exact: when one continuation cannot reach the target
    # the other happens with probability 1
    if numer == 0.0:
        return 0.0
    if conditional_pmf(design, n, n1, j + 1, m) == 0.0:
        return 1.0
    value = assignment_probability(design, j, m) * numer / denom
    if value > 1.0 + 1e-9:
        raise AssertionError(f"transition probability {value} exceeds 1")
    return min(max(value, 0.0), 1.0)


def segment_of(schedule: LookSchedule, j: int) -> tuple[int, int, int, int]:
    """Segment (start, start_count, end, end_count) with start <= j < end."""
    if not 0 <= j < schedule.horizon:
        raise ValueError(f"step {j} outside the schedule span")
    return next(seg for seg in schedule.segments() if seg[0] <= j < seg[2])


def multilook_transition(design: DesignSpec, schedule: LookSchedule, j: int, m: int) -> float:
    """Transition probability under a schedule: targets only the next look."""
    start, start_count, end, end_count = segment_of(schedule, j)
    if not start_count <= m <= j:
        raise InfeasibleError(f"count {m} at step {j} violates the look at {start}")
    return conditional_transition(design, end, end_count, j, m)


# ---------------------------------------------------------------------------
# Moments, one entry at a time as literal sums over the closed-form laws.


def _uncond_at(design: DesignSpec, j: int, m: int, exact: bool):
    """P(N1(j) = m) with the empty-prefix convention P(N1(0)=0) = 1."""
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    if j == 0:
        return one if m == 0 else zero
    backend = "exact" if exact else "float"
    return unconditional_pmf(design, j, m, backend)


def theta_single(design: DesignSpec, n: int, n1: int, i: int, backend: str = "float"):
    """E(T_i | N1(n) = n1) by averaging the assignment probability over the
    law of the preceding count and reweighting by target reachability."""
    exact = backend == "exact"
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range for horizon {n}")
    denom = unconditional_pmf(design, n, n1, backend)
    if denom == 0:
        raise InfeasibleError(f"N1({n}) = {n1} has probability zero")
    phi = assignment_probability_exact if exact else assignment_probability
    total = Fraction(0) if exact else 0.0
    for a in range(i):
        w = _uncond_at(design, i - 1, a, exact)
        if w == 0:
            continue
        total += w * phi(design, i - 1, a) * conditional_pmf(design, n, n1, i, a + 1, backend)
    return total / denom


def cross_moment_single(
    design: DesignSpec, n: int, n1: int, i: int, j: int, backend: str = "float"
):
    """E(T_i T_j | N1(n) = n1) for positions i < j, via the chain rule over
    the counts just before each of the two assignments."""
    exact = backend == "exact"
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) at horizon {n}")
    denom = unconditional_pmf(design, n, n1, backend)
    if denom == 0:
        raise InfeasibleError(f"N1({n}) = {n1} has probability zero")
    phi = assignment_probability_exact if exact else assignment_probability
    total = Fraction(0) if exact else 0.0
    for a in range(i):
        w_a = _uncond_at(design, i - 1, a, exact)
        if w_a == 0:
            continue
        w_a = w_a * phi(design, i - 1, a)
        inner = Fraction(0) if exact else 0.0
        for b in range(a + 1, j):
            reach = conditional_pmf(design, j - 1, b, i, a + 1, backend)
            if reach == 0:
                continue
            inner += (
                reach
                * phi(design, j - 1, b)
                * conditional_pmf(design, n, n1, j, b + 1, backend)
            )
        total += w_a * inner
    return total / denom


# ---------------------------------------------------------------------------
# The chain in rational arithmetic.


def backward_exact_table(
    design: DesignSpec, start: int, end: int, target: int
) -> list[list[Fraction]]:
    """Rational, linear-scale version of ``backward_log_table``."""
    if not 0 <= start < end:
        raise ValueError(f"need 0 <= start < end, got ({start}, {end})")
    if not 0 <= target <= end:
        raise ValueError(f"target {target} out of range for horizon {end}")
    steps = end - start
    zero = Fraction(0)
    table = [[zero] * (end + 2) for _ in range(steps + 1)]
    table[steps][target] = Fraction(1)
    for j in range(end - 1, start - 1, -1):
        idx = j - start
        nxt = table[idx + 1]
        row = table[idx]
        for m in range(j + 1):
            phi = assignment_probability_exact(design, j, m)
            row[m] = phi * nxt[m + 1] + (1 - phi) * nxt[m]
    return table


def _block_moments_exact(design: DesignSpec, r0: int, m0: int, r1: int, m1: int):
    """Rational version of ``condrand.covariance._block_moments_float``."""
    table = backward_exact_table(design, r0, r1, m1)
    if table[0][m0] == 0:
        raise InfeasibleError(
            f"count {m1} at position {r1} is unreachable from count {m0} at {r0}"
        )
    s = r1 - r0
    width = r1 + 2
    zero = Fraction(0)
    psi = [[zero] * width for _ in range(s)]
    for j in range(r0, r1):
        idx = j - r0
        for m in range(j + 1):
            cur = table[idx][m]
            if cur == 0:
                continue
            phi = assignment_probability_exact(design, j, m)
            psi[idx][m] = phi * table[idx + 1][m + 1] / cur
    rho = [[zero] * width for _ in range(s + 1)]
    rho[0][m0] = Fraction(1)
    for idx in range(s):
        nxt = [zero] * width
        for m in range(width):
            w = rho[idx][m]
            if w == 0:
                continue
            pr = psi[idx][m]
            if pr:
                nxt[m + 1] += w * pr
            if pr != 1:
                nxt[m] += w * (1 - pr)
        rho[idx + 1] = nxt
    theta = [
        sum((rho[idx][m] * psi[idx][m] for m in range(width)), start=zero)
        for idx in range(s)
    ]
    lam = [[zero] * s for _ in range(s)]
    for a in range(s - 1):
        g = [zero] * width
        for m in range(width - 1):
            g[m + 1] = rho[a][m] * psi[a][m]
        for b in range(a + 1, s):
            lam[a][b] = sum((g[m] * psi[b][m] for m in range(width)), start=zero)
            nxt = [zero] * width
            for m in range(width):
                w = g[m]
                if w == 0:
                    continue
                pr = psi[b][m]
                if pr:
                    nxt[m + 1] += w * pr
                if pr != 1:
                    nxt[m] += w * (1 - pr)
            g = nxt
    return theta, lam


def covariance_multilook_exact(design: DesignSpec, schedule) -> np.ndarray:
    """Exact covariance of the first r_L assignments given every look count,
    an object array of fractions, block diagonal across segments."""
    if not isinstance(schedule, LookSchedule):
        schedule = LookSchedule.from_pairs(schedule)
    sigma = np.full((schedule.horizon,) * 2, Fraction(0), dtype=object)
    for r0, m0, r1, m1 in schedule.segments():
        theta, lam = _block_moments_exact(design, r0, m0, r1, m1)
        for a in range(r1 - r0):
            sigma[r0 + a, r0 + a] = theta[a] * (1 - theta[a])
            for b in range(a + 1, r1 - r0):
                v = lam[a][b] - theta[a] * theta[b]
                sigma[r0 + a, r0 + b] = v
                sigma[r0 + b, r0 + a] = v
    return sigma


def covariance_final(design: DesignSpec, n: int, n1: int) -> np.ndarray:
    """The package's covariance given the final count alone: its one route,
    ``covariance_multilook``, under a one-look schedule."""
    return covariance_multilook(design, LookSchedule.single(n, n1))


def covariance_final_exact(design: DesignSpec, n: int, n1: int) -> np.ndarray:
    """Exact covariance of the full assignment vector given the final count."""
    return covariance_multilook_exact(design, LookSchedule.single(n, n1))


# ---------------------------------------------------------------------------
# Closed-form series, one fresh ballot coefficient per term.


def _ballot_int(x: int, l: int) -> int:
    """Ballot coefficient C(x, l) = (x - l)/(x + l) * binom(x + l, l) as an
    exact integer.

    C(x, l) counts lattice paths with ``x`` up-steps and ``l`` down-steps
    that never return to their starting level; C(0, 0) = 1 by convention.
    """
    if l < 0 or x < 0:
        raise ValueError(f"ballot coefficient needs nonnegative arguments, got ({x}, {l})")
    if l > x:
        raise ValueError(f"ballot coefficient undefined for l > x ({l} > {x})")
    if l == 0:
        return 1
    if l == x:
        return 0
    num = (x - l) * math.comb(x + l, l)
    if num % (x + l) != 0:
        raise AssertionError(f"ballot numerator {num} is not divisible by {x + l}")
    return num // (x + l)


def reference_eval_series_float(plan, p: float) -> float:
    """Float value of a closed-form series plan, each term's ballot
    coefficient computed on its own by ``_ballot_int``."""
    q = 1.0 - p
    logs: list[float] = []
    if q == 0.0:
        # permuted-block limit: only terms with a zero q-exponent survive
        l0 = -plan.q_base
        if 0 <= l0 <= plan.l_max:
            c = _ballot_int(plan.x, l0)
            if c > 0:
                logs.append(math.log(c))
    else:
        lq = math.log(q)
        for l in range(plan.l_max + 1):
            c = _ballot_int(plan.x, l)
            if c > 0:
                logs.append(math.log(c) + (plan.q_base + l) * lq)
    main = _NEG_INF
    if logs:
        top = max(logs)
        total = 0.0
        for v in logs:
            total += math.exp(v - top)
        main = top + math.log(total)
        if plan.halved:
            main += math.log(0.5)
    if plan.correction is not None:
        d = _correction_value(plan.trials, plan.correction)
        q_exp = plan.correction[2]
        if d > 0 and (q > 0.0 or q_exp == 0):
            ld = math.log(d) + (q_exp * math.log(q) if q_exp else 0.0)
            main = np.logaddexp(main, ld)
    if main == _NEG_INF:
        return 0.0
    return math.exp(plan.p_exp * math.log(p) + main)


# ---------------------------------------------------------------------------
# The chain one row at a time, and the exact DP keyed by (count, statistic).


def _probability_row(design: DesignSpec, j: int, m: np.ndarray) -> np.ndarray:
    """Vectorized assignment probabilities at steps ``j`` for counts ``m``,
    broadcast against each other."""
    if design.kind == COMPLETE:
        return np.full(np.broadcast_shapes(np.shape(j), np.shape(m)), 0.5)
    d = 2 * m - j
    return np.where(d == 0, 0.5, np.where(d < 0, design.p, 1.0 - design.p))


def unconditional_batch(design: DesignSpec, n: int, rng, size: int) -> np.ndarray:
    """A (size, n) int8 batch of unconditional draws from the package's
    own walk, as the rejection estimator draws them."""
    rows = sampling._unconditional_rows(design, n)
    return sampling._sequences(sampling._walk(rows, rng, size))


def reference_unconditional_draws(design: DesignSpec, n: int, seed: int, rows: int):
    """The unconditional walk's (rows, n) draws with the assignment
    probabilities of every step taken afresh."""
    rng = np.random.default_rng(seed)
    out = np.empty((rows, n), dtype=np.int8)
    m = np.zeros(rows, dtype=np.int64)
    for j in range(n):
        t = rng.random(rows) < _probability_row(design, j, m)
        out[:, j] = t
        m += t
    return out


def reference_backward_log_table(design: DesignSpec, start: int, end: int, target: int):
    """``backward_log_table`` with the assignment probabilities and their
    logs taken afresh for every row."""
    if not 0 <= start < end:
        raise ValueError(f"need 0 <= start < end, got ({start}, {end})")
    if not 0 <= target <= end:
        raise ValueError(f"target {target} out of range for horizon {end}")
    steps = end - start
    table = np.full((steps + 1, end + 2), _NEG_INF)
    table[steps, target] = 0.0
    with np.errstate(divide="ignore"):
        for j in range(end - 1, start - 1, -1):
            idx = j - start
            pr = _probability_row(design, j, np.arange(j + 1))
            nxt = table[idx + 1]
            table[idx, : j + 1] = np.logaddexp(
                np.log(pr) + nxt[1 : j + 2], np.log1p(-pr) + nxt[: j + 1]
            )
    return table


def reference_segment_chain(design: DesignSpec, r0: int, m0: int, r1: int, m1: int):
    """Transition table psi[j - r0, m] of one segment, row by row from
    :func:`reference_backward_log_table`.  A reachable count whose steps
    left must all be 1 (m1 - m = r1 - j) has psi exactly 1; one that may
    take no more 1s (m = m1) has psi exactly 0 by the -inf it reads."""
    table = reference_backward_log_table(design, r0, r1, m1)
    if table[0, m0] == _NEG_INF:
        raise InfeasibleError(f"count {m1} at {r1} is unreachable from {m0} at {r0}")
    psi = np.zeros((r1 - r0, r1 + 2))
    for j in range(r0, r1):
        idx = j - r0
        cur = table[idx, : j + 1]
        up = table[idx + 1, 1 : j + 2]
        with np.errstate(invalid="ignore"):
            ratio = np.where(cur > _NEG_INF, np.exp(up - cur), 0.0)
        row = _probability_row(design, j, np.arange(j + 1)) * ratio
        if row.max(initial=0.0) > 1.0 + 1e-9:
            raise AssertionError("transition probability exceeds 1")
        psi[idx, : j + 1] = np.clip(row, 0.0, 1.0)
        forced = m1 - (r1 - j)
        if 0 <= forced <= j and psi[idx, forced] > 0.0:
            psi[idx, forced] = 1.0
    return psi


def bands(start: int, end: int, target: int, rows: int) -> list[tuple[int, int]]:
    """(lo, hi) of the first ``rows`` steps from ``start``: the counts
    lo <= m < hi that can still reach N1(end) = target, written out apart
    from ``distributions._reach``; at ``end`` itself, the target alone."""
    out = [(max(0, target - (end - j)), min(j, target) + 1) for j in range(start, end)]
    return (out + [(target, target + 1)])[:rows]


def on_band(table, start: int, end: int, target: int) -> np.ndarray:
    """The band entries of ``table``, dense or count-indexed rows, row after row."""
    spans = bands(start, end, target, len(table))
    return np.concatenate([np.asarray(row[lo:hi]) for row, (lo, hi) in zip(table, spans)])


def off_band(table: np.ndarray, start: int, end: int, target: int) -> np.ndarray:
    """The entries of a dense ``table`` off its band."""
    keep = np.ones(table.shape, dtype=bool)
    for row, (lo, hi) in zip(keep, bands(start, end, target, len(table))):
        row[lo:hi] = False
    return table[keep]


def dense_table(rows, start: int, end: int, target: int, fill: float) -> np.ndarray:
    """Count-indexed band rows laid out full width, ``fill`` off the band."""
    out = np.full((len(rows), end + 2), fill)
    for row, dense, (lo, hi) in zip(rows, out, bands(start, end, target, len(rows))):
        dense[lo:hi] = row[lo:hi]
    return out


def _step_weights(design: DesignSpec):
    """The design's step probabilities as integer weights over one
    denominator: ``weights(j, m)`` gives those of T = 1 and T = 0 at step
    ``j`` from count ``m``."""
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

    return weights


def reference_statistic_distribution(design: DesignSpec, scores, n1: int):
    """``exact_statistic_distribution`` with one dict over ``(m, s)`` pairs
    and the step weights looked up for every pair."""
    values = list(getattr(scores, "values", scores))
    n = len(values)
    if not 1 <= n <= MAX_DP:
        raise ValueError(f"exact DP supports 1 <= n <= {MAX_DP}, got {n}")
    if not 0 <= n1 <= n:
        raise ValueError(f"count {n1} out of range for horizon {n}")
    ints, scale = _integerize_scores(values)
    weights = _step_weights(design)
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for j in range(n):
        step: dict[tuple[int, int], int] = {}
        a = ints[j]
        for (m, s), w in states.items():
            w1, w0 = weights(j, m)
            if w1 and m + 1 <= n1 and n - j - 1 >= n1 - m - 1:
                key = (m + 1, s + a)
                step[key] = step.get(key, 0) + w * w1
            if w0 and n - j - 1 >= n1 - m:
                key = (m, s)
                step[key] = step.get(key, 0) + w * w0
        states = step
    total = sum(w for (m, _), w in states.items() if m == n1)
    if total == 0:
        raise InfeasibleError(f"N1({n}) = {n1} has probability zero under {design.label()}")
    dist: dict[int, int] = {}
    for (m, s), w in states.items():
        if m == n1:
            dist[s] = dist.get(s, 0) + w
    support = sorted(dist)
    probs = [Fraction(dist[s], total) for s in support]
    return np.asarray([s / scale for s in support]), probs


def lattice_statistic_distribution(design: DesignSpec, scores, n1: int):
    """The conditional law of the statistic given N1(n) = n1 by a float DP
    over (count, 2 * statistic), for scores that are halves.

    Each step moves the mass with the design's unconditional assignment
    probabilities; only the end conditions on N1(n) = n1, so the law does
    not lean on the conditional chain.  Returns the support points of
    positive mass and their probabilities, as floats.
    """
    values = np.asarray(getattr(scores, "values", scores), dtype=float)
    steps = np.rint(2 * values).astype(np.int64)
    if not (steps == 2 * values).all():
        raise ValueError("the lattice DP needs scores that are halves")
    low, width = int(steps[steps < 0].sum()), int(np.abs(steps).sum()) + 1
    # mass[m, 2s - low]: count m and statistic s after the steps so far
    mass = np.zeros((n1 + 1, width))
    mass[0, -low] = 1.0
    counts = np.arange(n1 + 1)
    for j, a in enumerate(steps):
        p1 = _probability_row(design, j, counts)[:, None]
        moved = mass[:-1] * p1[:-1]
        mass *= 1.0 - p1
        if a >= 0:
            mass[1:, a:] += moved[:, : width - a]
        else:
            mass[1:, :a] += moved[:, -a:]
    law = mass[n1]
    if law.sum() == 0.0:
        raise InfeasibleError(f"N1({values.size}) = {n1} has probability zero under {design.label()}")
    (support,) = np.nonzero(law)
    return (support + low) / 2, law[support] / law.sum()


# ---------------------------------------------------------------------------
# The conservative boundary by a walk over the distinct sample values.


def conservative_boundary_reference(values: np.ndarray, level: float, method: str) -> float:
    """The quantile estimate, or if its strict upper tail is over the
    ``1 - level`` budget, the smallest distinct sample value above it
    whose strict upper tail fits."""
    d = nonparametric_quantile(values, level, method)
    budget = (1.0 - level) * values.size
    if (values > d).sum() <= budget:
        return d
    for v in np.unique(values):
        if v >= d and (values > v).sum() <= budget:
            return float(v)
    return float(values.max())


# ---------------------------------------------------------------------------
# The builtin float sum of Python 3.12 and later.


def compensated_sum(values, start=0):
    """``sum`` as Python 3.12 computes it for floats: Neumaier's
    compensated summation, whose result can differ in the last bits from
    the left-to-right sum of earlier versions.  Patched over a module's
    ``sum``, it shows whether that module's floats depend on the version.
    """
    total, c = float(start), 0.0
    for x in values:
        x = float(x)
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


# ---------------------------------------------------------------------------
# The monitored pipeline: the joint law of the look statistics, the staged
# boundaries and the attained level of any boundary vector.


def monitored_joint_law(design: DesignSpec, schedule: LookSchedule, prefix_scores):
    """The joint law of the look statistics (S_1, ..., S_L) given every look
    count, by a DP over (count, scaled partial statistics).

    ``prefix_scores[l]`` scores the first r_l subjects and must lie on a
    small rational lattice.  Each step moves the mass with the design's
    integer path weights (p, q and 1/2 over a common denominator), kept as
    Python ints: 4^24 times the number of paths overflows int64.  A state
    that misses a look count is dropped there, so the law does not lean on
    the conditional chain.  Returns an (K, L) array of the support points,
    exact when each lattice's scale is a power of two, and their K integer
    weights.
    """
    lattices = [_integerize_scores(getattr(a, "values", a)) for a in prefix_scores]
    ints = [a for a, _ in lattices]
    weights = _step_weights(design)
    looks = {look.position: look.count for look in schedule.looks}
    states: dict[tuple[int, ...], int] = {(0,) * (len(ints) + 1): 1}
    for j in range(schedule.horizon):
        step: dict[tuple[int, ...], int] = {}
        for key, w in states.items():
            w1, w0 = weights(j, key[0])
            if w0:
                step[key] = step.get(key, 0) + w * w0
            if w1:
                up = (key[0] + 1,) + tuple(
                    s + a[j] if j < len(a) else s for s, a in zip(key[1:], ints)
                )
                step[up] = step.get(up, 0) + w * w1
        states = step
        if j + 1 in looks:
            states = {k: w for k, w in states.items() if k[0] == looks[j + 1]}
    if not states:
        raise InfeasibleError(f"the schedule has probability zero under {design.label()}")
    keys = np.array(list(states), dtype=float)[:, 1:]
    return keys / [scale for _, scale in lattices], list(states.values())


def _weighted_upper_tail(values: np.ndarray, weights: list[int], v: float) -> int:
    return sum((w for x, w in zip(values, weights) if x > v), start=0)


def exact_staged_boundaries(values: np.ndarray, weights: list[int], alphas) -> list[float]:
    """The staged boundaries of an exact joint law under the estimator's
    rule: at look l, among the sequences inside every earlier boundary,
    the smallest support value of S_l whose strict upper tail weighs at
    most alpha_l of theirs; infinite where alpha_l is 0."""
    inside = np.ones(len(weights), dtype=bool)
    bounds: list[float] = []
    for l, alpha_l in enumerate(alphas):
        if alpha_l <= 0.0:
            bounds.append(math.inf)
            continue
        col = values[inside, l]
        kept = [w for w, keep in zip(weights, inside) if keep]
        budget = Fraction(alpha_l) * sum(kept)
        d = next(
            float(v) for v in np.unique(col) if _weighted_upper_tail(col, kept, v) <= budget
        )
        bounds.append(d)
        inside &= values[:, l] <= d
    return bounds


def exact_attained_level(values: np.ndarray, weights: list[int], bounds) -> Fraction:
    """The probability that some look statistic strictly exceeds its
    boundary, under an exact joint law."""
    crossed = (values > np.asarray(bounds, dtype=float)).any(axis=1)
    return Fraction(sum((w for w, c in zip(weights, crossed) if c), start=0), sum(weights))


# ---------------------------------------------------------------------------
# The stratified statistic's law.


def stratified_statistic_distribution(data):
    """The law of the stratified statistic given every stratum's count: the
    convolution of each stratum's ``reference_statistic_distribution``.
    Returns the sorted support points and their probabilities (Fractions).
    """
    law = {0.0: Fraction(1)}
    for stratum in data.strata:
        support, probs = reference_statistic_distribution(
            stratum.design, stratum.scores, stratum.n1
        )
        step: dict[float, Fraction] = {}
        for v, w in law.items():
            for s, p in zip(support, probs):
                step[v + float(s)] = step.get(v + float(s), 0) + w * p
        law = step
    support = sorted(law)
    return np.asarray(support), [law[v] for v in support]


# ---------------------------------------------------------------------------
# The interim information fraction's bootstrap denominator.


def _reference_centered(x: np.ndarray, kind: str) -> np.ndarray:
    """Centered midranks (ties share the mean of their ranks) or centered
    raw values along the last axis, by counting pairs."""
    if kind == "raw":
        return x - x.mean(axis=-1, keepdims=True)
    below = (x[..., :, None] > x[..., None, :]).sum(axis=-1)
    ties = (x[..., :, None] == x[..., None, :]).sum(axis=-1)
    return below + (ties + 1) / 2 - (x.shape[-1] + 1) / 2


def exact_interim_denominator(
    design: DesignSpec, schedule: LookSchedule, responses, look: int, kind: str
):
    """Mean and standard deviation of a . Sigma a over every ordered
    completion of the responses seen through ``look``.

    Each of the n - r unseen responses is one of the r seen ones, so the
    r^(n - r) completions are equally likely, as the bootstrap draws them.
    a scores a completion; Sigma is the exact covariance given the look
    counts through ``look`` and the final count that
    ``projected_final_count`` gives.  The enumeration is complete; only the
    float sums round.
    """
    r = schedule.looks[look - 1].position
    n = schedule.horizon
    final = projected_final_count(design, schedule, look, n)
    looks = [(l.position, l.count) for l in schedule.looks[:look]] + [(n, final)]
    sigma = covariance_multilook_exact(design, LookSchedule.from_pairs(looks)).astype(float)
    seen = np.asarray(responses, dtype=float)[:r]
    fill = np.array(list(itertools.product(range(r), repeat=n - r)), dtype=int).reshape(-1, n - r)
    full = np.concatenate([np.broadcast_to(seen, (len(fill), r)), seen[fill]], axis=1)
    scores = _reference_centered(full, kind)
    forms = np.einsum("ki,ij,kj->k", scores, sigma, scores)
    return float(forms.mean()), float(forms.std())
