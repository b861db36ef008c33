"""Monte Carlo p-value estimation and sample-size planning.

Two estimators target the same upper-tailed conditional p-value
P(V >= v* | N1(n) = n1): a direct estimator that samples strictly from
the conditional reference set, and a rejection estimator that samples
unconditionally and keeps the sequences meeting the constraint.  Both
draw through the one walk of :mod:`condrand.sampling`, but the rejection
route reads only the design's assignment probabilities, never the
conditional chain's tables, so it stays an independent cross-check of
them.  Its cost is governed by a negative binomial law, which also powers
the planning helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignSpec
from .distributions import unconditional_pmf
from .errors import InfeasibleError, InsufficientAcceptancesError
from .sampling import LookSchedule, MultilookSampler, _unconditional_rows, _walk
from .scores import ScoreVector, StratifiedData, Stratum, step_sums
from .streams import as_generator

DIRECT = "direct-conditional"
REJECTION = "rejection"

# Below this acceptance probability the negative binomial quantile is
# computed through its Poisson limit; the switch point keeps the exact
# inversion wherever scipy evaluates it reliably.
_POISSON_LIMIT = 1e-8


@dataclass(frozen=True)
class PValueEstimate:
    """A Monte Carlo p-value with its binomial standard error."""

    estimate: float
    standard_error: float
    n_effective: int
    method: str

    @classmethod
    def from_indicators(cls, hits: int, total: int, method: str) -> "PValueEstimate":
        est = hits / total
        se = math.sqrt(est * (1.0 - est) / total)
        return cls(est, se, total, method)


def estimate_pvalue_conditional(
    design: DesignSpec,
    n: int,
    n1: int,
    scores: ScoreVector,
    v_star: float,
    n_c: int,
    rng: np.random.Generator | int | None = None,
) -> PValueEstimate:
    """Estimate P(V >= v* | N1(n) = n1) from ``n_c`` conditional draws:
    the stratified estimate over one stratum."""
    if len(scores) != n:
        raise ValueError(f"scores have length {len(scores)}, expected {n}")
    data = StratifiedData((Stratum(scores, n1, design),))
    return estimate_pvalue_stratified(data, v_star, n_c, rng)


def estimate_pvalue_rejection(
    design: DesignSpec,
    n: int,
    n1: int,
    scores: ScoreVector,
    v_star: float,
    attempts: int,
    rng: np.random.Generator | int | None = None,
) -> PValueEstimate:
    """Ratio estimator over ``attempts`` unconditional draws.

    The effective sample size is the number of accepted sequences;
    raises :class:`InsufficientAcceptancesError` if none satisfy the
    conditioning count.
    """
    if attempts < 1:
        raise ValueError(f"need at least one attempt, got {attempts}")
    if len(scores) != n:
        raise ValueError(f"scores have length {len(scores)}, expected {n}")
    steps = _walk(_unconditional_rows(design, n), rng, int(attempts))
    accepted = steps.sum(axis=0) == n1
    kept = int(accepted.sum())
    if kept == 0:
        raise InsufficientAcceptancesError(
            f"none of {attempts} unconditional draws hit N1({n}) = {n1}; "
            "the conditioning event may be rare or infeasible"
        )
    v = step_sums([scores.values], steps[:, accepted])[:, 0]
    hits = int((v >= v_star).sum())
    return PValueEstimate.from_indicators(hits, kept, REJECTION)


def estimate_pvalue_stratified(
    data: StratifiedData,
    v_star: float,
    n_c: int,
    rng: np.random.Generator | int | None = None,
) -> PValueEstimate:
    """Stratified test: per-stratum conditional draws, statistics summed."""
    if n_c < 1:
        raise ValueError(f"need at least one draw, got {n_c}")
    rng = as_generator(rng)
    total = np.zeros(int(n_c))
    for stratum in data.strata:
        schedule = LookSchedule.single(len(stratum.scores), stratum.n1)
        sampler = MultilookSampler(stratum.design, schedule)
        total += sampler.accumulate_statistics(rng, int(n_c), [stratum.scores])[:, 0]
    hits = int((total >= v_star).sum())
    return PValueEstimate.from_indicators(hits, int(n_c), DIRECT)


def negative_binomial_quantile(successes: int, pi: float, level: float) -> int:
    """Smallest total draw count whose probability of containing
    ``successes`` acceptances is at least ``level``.

    The count includes the successes themselves.  For acceptance
    probabilities below ``1e-8`` the Poisson-limit inversion is used;
    its relative error is of order ``pi``.
    """
    if not 0 < pi <= 1:
        raise ValueError(f"acceptance probability must lie in (0, 1], got {pi}")
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if successes < 1:
        raise ValueError(f"need at least one success, got {successes}")
    if pi == 1.0:
        return int(successes)
    if pi >= _POISSON_LIMIT:
        # scipy.stats takes about a second to import and scipy.special about
        # a third of one, so each is imported only where it is evaluated
        from scipy import stats

        failures = stats.nbinom.ppf(level, successes, pi)
        return int(successes + failures)
    from scipy import special

    lam = float(special.gammaincinv(successes, level))
    return math.ceil(lam / pi)


def k_percentile(design: DesignSpec, n: int, n1: int, n_c: int, level: float) -> int:
    """Planning quantile for rejection sampling: the ``level`` percentile of
    the total number of unconditional draws needed to collect ``n_c``
    sequences with N1(n) = n1."""
    pi = unconditional_pmf(design, n, n1)
    if pi <= 0.0:
        raise InfeasibleError(f"N1({n}) = {n1} has probability zero under {design.label()}")
    return negative_binomial_quantile(int(n_c), pi, level)


def mc_sample_size(p_c: float, rel_error: float = 0.1, confidence: float = 0.99) -> int:
    """Draws needed to estimate a p-value near ``p_c`` to within a relative
    error ``rel_error`` with the given confidence."""
    if not 0 < p_c < 1:
        raise ValueError(f"anticipated p-value must lie in (0, 1), got {p_c}")
    if rel_error <= 0:
        raise ValueError(f"relative error must be positive, got {rel_error}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    from scipy import special

    z = float(special.ndtri((1.0 + confidence) / 2.0))
    return math.ceil((z / rel_error) ** 2 * (1.0 - p_c) / p_c)
