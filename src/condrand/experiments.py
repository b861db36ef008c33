"""Benchmark experiments binding the modules into full workflows.

Three reproducible studies, exposed through the command line as
``tables --which 1|2|3``:

1. planning grid: 95th percentiles of the rejection-sampling cost for a
   grid of horizons and allocation imbalances;
2. repeatability of direct conditional tail estimates around the 0.1
   tail, with exact values for small horizons;
3. attained type I error of the full sequentially monitored conditional
   test on self-generated null data.
"""

from __future__ import annotations

import math

import numpy as np

from .bruteforce import MAX_DP, exact_conditional_pvalue, exact_statistic_distribution
from .design import DesignSpec, simulate_unconditional
from .montecarlo import k_percentile
from .monitoring import OBRIEN_FLEMING, SpendingFunction, estimate_boundaries
from .sampling import LookSchedule, MultilookSampler
from .scores import centered_scores, statistic_batch
from .streams import map_replicates, substream

# (n, n1) rows of the repeatability study; paper scale adds n = 500
TAIL_ROWS = ((30, 15), (30, 12), (40, 20), (40, 16), (100, 50), (100, 40))
TAIL_FULL_ROWS = TAIL_ROWS + ((500, 250), (500, 200))


def sample_size_grid(n_c: int = 2500) -> list[dict]:
    """Rejection-sampling cost percentiles over a (design, n, n1) grid.

    The grid is fixed: biases 2/3 and 3/4, horizons 100, 200 and 500, and
    n1 = round(n * ratio) for ratios 0.45, 0.48 and 0.50.  Each cell is
    the 95th percentile of the draws needed for ``n_c`` acceptances.
    """
    rows = []
    for p in (2.0 / 3.0, 3.0 / 4.0):
        design = DesignSpec.bcd(p)
        for n in (100, 200, 500):
            for ratio in (0.45, 0.48, 0.50):
                n1 = round(n * ratio)
                rows.append(
                    {
                        "design": design.label(),
                        "n": n,
                        "n1": n1,
                        "ratio": ratio,
                        "k": k_percentile(design, n, n1, n_c, 0.95),
                    }
                )
    return rows


def _inclusive_tail_threshold(design, scores, n1: int, target: float) -> float:
    """Smallest support value whose inclusive upper tail is at most target."""
    support, probs = exact_statistic_distribution(design, scores, n1)
    tail = 0.0
    best = float(support[-1])
    for s, pr in zip(reversed(support), reversed(probs)):
        tail += float(pr)
        if tail <= target:
            best = float(s)
        else:
            break
    return best


def tail_estimate_repeatability(
    rows=TAIL_ROWS, runs: int = 200, n_c: int = 2500, seed: int = 2012
) -> list[dict]:
    """Spread of repeated conditional tail estimates near the 0.1 tail.

    The design is ``bcd:0.6``.  Each row generates its own standard-normal
    responses, calibrates a threshold whose true upper tail is close to
    0.1 (exactly, via the DP, when the horizon allows; otherwise from
    200,000 constrained draws), then repeats the ``n_c``-draw estimate
    ``runs`` times.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c}")
    design = DesignSpec.bcd(0.6)
    out = []
    for r_idx, (n, n1) in enumerate(rows):
        responses = substream(seed, r_idx, 0).standard_normal(n)
        scores = centered_scores(responses)
        sampler = MultilookSampler(design, LookSchedule.single(n, n1))
        if n <= MAX_DP:
            v_star = _inclusive_tail_threshold(design, scores, n1, 0.1)
            exact_tail = float(exact_conditional_pvalue(design, scores, n1, v_star))
        else:
            calib = statistic_batch(
                scores, sampler.draw_batch(substream(seed, r_idx, 1), 200_000)
            )
            calib.sort()
            v_star = float(calib[math.ceil(calib.size * 0.9) - 1])
            exact_tail = None
        estimates = np.empty(runs)
        for k in range(runs):
            batch = sampler.draw_batch(substream(seed, r_idx, 2, k), n_c)
            estimates[k] = float((statistic_batch(scores, batch) >= v_star).mean())
        out.append(
            {
                "n": n,
                "n1": n1,
                "v_star": v_star,
                "exact": exact_tail,
                "mean": float(estimates.mean()),
                "sd": float(estimates.std(ddof=1)) if runs > 1 else 0.0,
                "runs": runs,
                "n_c": n_c,
            }
        )
    return out


def monitored_trial_type_i_error(
    n: int = 350,
    look_positions=(250, 300, 350),
    p: float = 0.75,
    alpha: float = 0.05,
    n_c: int = 2500,
    replications: int = 1000,
    seed: int = 2012,
    *,
    spending_kind: str = OBRIEN_FLEMING,
    bootstrap: int = 100,
    info_mode: str = "interim",
) -> dict:
    """Attained level of the monitored conditional test under the null.

    One null dataset (responses N(1, 0.9)) and one observed assignment
    sequence fix the look counts; boundaries are estimated once by the
    staged algorithm, with simple-rank scores and the smooth quantile; then
    each replication draws ``n_c`` fresh sequences from the fully
    constrained reference set and records how often any look statistic
    crosses its boundary.  Replication r uses substream (3, r) of the
    seed, so the result does not depend on how replications are batched;
    they run on every CPU this process may use (:func:`map_replicates`).
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if look_positions[-1] != n:
        raise ValueError("the last look must sit at the horizon")
    design = DesignSpec.bcd(p)
    responses = 1.0 + math.sqrt(0.9) * substream(seed, 0).standard_normal(n)
    observed = simulate_unconditional(design, n, substream(seed, 1))
    counts = observed.running_counts()
    schedule = LookSchedule.from_pairs((r, int(counts[r - 1])) for r in look_positions)
    sf = SpendingFunction(spending_kind, alpha)
    result = estimate_boundaries(
        design,
        schedule,
        responses,
        sf,
        n_c,
        substream(seed, 2),
        info_mode=info_mode,
        bootstrap=bootstrap,
    )
    sampler = MultilookSampler(design, schedule)
    prefix_scores = [centered_scores(responses[:r]) for r in look_positions]
    bounds = np.asarray(result.d)

    def crossing_rates(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo)
        for rep in range(lo, hi):
            stats_rep = sampler.accumulate_statistics(substream(seed, 3, rep), n_c, prefix_scores)
            out[rep - lo] = float((stats_rep > bounds).any(axis=1).mean())
        return out

    rates = map_replicates(crossing_rates, replications)
    return {
        "alpha": alpha,
        "alpha_hat": float(rates.mean()),
        "alpha_hat_sd": float(rates.std(ddof=1)) if replications > 1 else 0.0,
        "replications": replications,
        "n_c": n_c,
        "schedule": schedule.to_json(),
        "design": design.label(),
        "boundaries": result.to_json(),
        "seed": seed,
    }
