"""Exact conditional moments of the assignment vector and the
randomization-based information fraction.

Conditioning the randomization procedure on interim counts turns it into
a Markov chain whose transitions are the sampler's; conditional means and
cross moments then come from forward sweeps of that chain against its
occupancy law.  Its tables are the sampler's, from :func:`chain_rows`; the
memo of :mod:`condrand.distributions` keeps each swept block under (design,
segment), as does a caller's dict across looks.

Covariances under a schedule are block diagonal across look segments:
assignments in different segments are conditionally uncorrelated.

The information fraction at a look is the ratio of the statistic's
conditional variance at that look to its conditional variance at the end
of the trial, with unknown responses filled in by bootstrap resampling of
the observed ones when the trial is still in progress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignSpec
from .distributions import _memoized, _reach, conditional_pmf
from .errors import DegenerateScoresError, InfeasibleError
from .sampling import Look, LookSchedule, chain_rows
from .scores import SIMPLE_RANK, ScoreVector, _centered, _counted_midranks, centered_scores
from .streams import as_generator


@dataclass(frozen=True)
class InformationFraction:
    """Progress measure in (0, 1]: variance observed so far over total."""

    t: float
    look: int | None
    numerator: float
    denominator: float


# ---------------------------------------------------------------------------
# Whole blocks by conditional-chain sweeps.


def _block_moments_float(design: DesignSpec, r0: int, m0: int, r1: int, m1: int):
    """Conditional means and cross moments of T within one segment.

    One pass over the steps.  Row b of ``rho`` is the law of the count
    before step b; row a of ``g`` is the forward sweep started by T_a = 1:
    the law of the count before step b jointly with that event.  At step b
    the open sweeps give their cross moments with T_b and advance through
    psi[b] together; then the chain step rho[b] * psi[b] opens sweep b and
    gives rho[b + 1].  psi[b] is laid out full width from the band for its
    step alone.  Each entry of ``lam`` keeps its own full-width dot product:
    the stacked (b, 1, w) @ (w, 1) matmul hands every 1 x 1 item to the same
    BLAS dot as ``ndarray.dot``, so the result equals a sweep per pair bit
    for bit; theta[b], one row's full-width einsum, has the bits of the
    whole table's.  The sweep updates touch only the counts m0 + b can
    still reach on the way to m1; off that band psi is 0 or no mass is held.
    """
    rows = chain_rows(design, r0, m0, r1, m1)
    s, width = len(rows), r1 + 2
    rho = np.zeros((s, width))
    rho[0, m0] = 1.0
    theta = np.empty(s)
    lam = np.zeros((s, s))
    g = np.zeros((s, width))
    move = np.empty((s, min(m1 - m0, s - (m1 - m0)) + 1))
    for b, psi_b, lo_b, hi_b in zip(range(s), rows, *_reach(r0, r1, m1)):
        row = np.zeros(width)
        row[lo_b:hi_b] = psi_b[lo_b:hi_b]
        np.matmul(g[:b, None, :], row[:, None], out=lam[:b, b, None, None])
        lo, hi = max(m0, m1 - (s - b)), min(m0 + b, m1) + 1
        band = move[:b, : hi - lo]
        np.multiply(g[:b, lo:hi], row[lo:hi], out=band)
        g[:b, lo:hi] -= band
        g[:b, lo + 1 : hi + 1] += band
        theta[b] = np.einsum("m,m->", rho[b], row)
        step = rho[b] * row
        g[b, 1:] = step[:-1]
        if b + 1 < s:
            np.subtract(rho[b], step, out=rho[b + 1])
            rho[b + 1, 1:] += step[:-1]
    return theta, lam


def covariance_multilook(
    design: DesignSpec, schedule: LookSchedule, *, _blocks: dict | None = None
) -> np.ndarray:
    """Covariance of the first r_L assignments given every look count.

    The matrix is block diagonal with one block per segment, read from the
    memo of :mod:`condrand.distributions` under (design, segment) once swept.
    ``_blocks``, a dict keyed alike, keeps them too, so a caller that passes
    one dict to several calls sweeps each segment once, even past the memo.
    """
    blocks = {} if _blocks is None else _blocks

    def sweep(segment) -> np.ndarray:
        theta, lam = _block_moments_float(design, *segment)
        block = lam + lam.T - np.outer(theta, theta)
        np.fill_diagonal(block, theta * (1.0 - theta))
        return block

    for segment in schedule.segments():
        if (design, segment) not in blocks:
            blocks[design, segment] = _memoized((design, segment), lambda: sweep(segment))
    # allocated after the sweeps, so that it does not add to their peak
    sigma = np.zeros((schedule.horizon,) * 2)
    for segment in schedule.segments():
        r0, _, r1, _ = segment
        sigma[r0:r1, r0:r1] = blocks[design, segment]
    return sigma


# ---------------------------------------------------------------------------
# Information fractions.


def _ratio(num: float, den: float, look: int | None) -> InformationFraction:
    if den <= 0.0:
        raise DegenerateScoresError("final-statistic variance is zero")
    t = num / den
    if t > 1.0 + 1e-6:
        raise ValueError(f"information fraction {t} exceeds 1")
    if t <= 0.0:
        raise DegenerateScoresError("interim-statistic variance is zero")
    return InformationFraction(min(t, 1.0), look, num, den)


def interpolate_scores(
    observed,
    n: int,
    rng: np.random.Generator | int | None,
    replicates: int,
    kind: str = SIMPLE_RANK,
) -> np.ndarray:
    """Complete a partially observed response vector ``replicates`` times.

    Each completion keeps the observed prefix and fills the other places
    with observed values drawn with replacement, in one ``integers`` call
    that draws what one ``choice`` call per row would.  Returns the
    (replicates, n) scores, each row with the bits of :func:`centered_scores`;
    a NaN response, or an infinite one under raw scores, raises.
    """
    x = np.asarray(observed, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("observed responses must form a nonempty 1-D sequence")
    if not x.size <= n:
        raise ValueError(f"{x.size} observed responses exceed horizon {n}")
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    full = np.tile(np.arange(n), (replicates, 1))  # which observed response fills each place
    full[:, x.size :] = as_generator(rng).integers(0, x.size, (replicates, n - x.size))
    if kind == SIMPLE_RANK:  # each place holds an observed value: rank by counting codes
        values, codes = np.unique(x, return_inverse=True)
        full = _counted_midranks(values, np.take(codes, full, out=full))
    else:
        full = x[full]
    scores = _centered(full)
    ScoreVector(scores[0], kind)  # refuses a bad kind or response: each row holds them all
    return scores


def projected_final_count(design: DesignSpec, schedule: LookSchedule, look: int, horizon: int) -> int:
    """Nearest feasible final count to the rate observed through ``look``."""
    r_l = schedule.looks[look - 1].position
    n1l = schedule.looks[look - 1].count
    guess = round(horizon * n1l / r_l)
    lo, hi = n1l, n1l + (horizon - r_l)
    guess = min(max(guess, lo), hi)
    for offset in range(0, hi - lo + 1):
        for cand in (guess + offset, guess - offset):
            if lo <= cand <= hi and conditional_pmf(design, horizon, cand, r_l, n1l) > 0.0:
                return int(cand)
    raise InfeasibleError(
        f"no feasible final count at horizon {horizon} from look {look}"
    )


def _check_info_options(mode: str, bootstrap: int, resamples: bool) -> None:
    """Refuse an unknown information mode, and in interim mode a bootstrap
    without replicates when ``resamples``, before any work."""
    if mode not in ("interim", "full"):
        raise ValueError(f"mode must be 'interim' or 'full', got {mode!r}")
    if mode == "interim" and resamples and bootstrap < 1:
        raise ValueError(f"need at least one replicate, got {bootstrap}")


def information_at_look(
    design: DesignSpec,
    schedule: LookSchedule,
    responses,
    look: int,
    *,
    mode: str = "interim",
    bootstrap: int = 100,
    rng: np.random.Generator | int | None = None,
    kind: str = SIMPLE_RANK,
    _blocks: dict | None = None,
) -> InformationFraction:
    """Information fraction at ``look`` from the responses seen so far.

    The numerator conditions on the look counts observed through ``look``.
    The denominator conditions on the same counts plus a final-count
    constraint at the schedule's horizon: the schedule's final count when
    the trial is complete (``mode="full"``), or its projection from the
    current allocation rate mid-trial.  At the last look the two
    conditionings coincide and the fraction is exactly 1.  One covariance
    serves both: the numerator reads the prefix's blocks in place.  The
    completions' forms a' sigma a are one stacked matmul, whose items run the
    gemv and dot of ``a @ sigma @ a``, so every value keeps its bits.

    Args:
        mode: ``"interim"`` fills unknown responses by bootstrap
            resampling (``bootstrap`` replicates, averaging the variance
            across completions); ``"full"`` uses the complete response
            vector as given.
        _blocks: Segment blocks to reuse and extend, as in
            :func:`covariance_multilook`.
    """
    # only a look before the last resamples the unseen responses
    _check_info_options(mode, bootstrap, look < len(schedule))
    prefix = schedule.prefix(look)
    horizon = schedule.horizon
    r_l = prefix.horizon
    x = np.asarray(responses, dtype=float)
    if x.size < r_l:
        raise ValueError(f"need at least {r_l} responses for look {look}")
    if mode == "full" and x.size < horizon:
        raise ValueError(f"full mode needs {horizon} responses, got {x.size}")
    scores_l = centered_scores(x[:r_l], kind).values
    den_schedule = prefix
    if r_l < horizon:
        final_count = schedule.final_count
        if mode != "full":
            final_count = projected_final_count(design, prefix, look, horizon)
        den_schedule = LookSchedule(prefix.looks + (Look(horizon, final_count),))
    sigma_n = covariance_multilook(design, den_schedule, _blocks=_blocks)
    num = float(scores_l @ sigma_n[:r_l, :r_l] @ scores_l)  # the prefix's blocks, in place
    if r_l == horizon:
        if num <= 0.0:
            raise DegenerateScoresError("interim-statistic variance is zero")
        return InformationFraction(1.0, look, num, num)

    if mode == "full":
        den_scores = centered_scores(x[:horizon], kind).values[None]
    else:
        den_scores = interpolate_scores(x[:r_l], horizon, rng, bootstrap, kind)
    # one B x n temporary, below the peak of interpolate_scores
    forms = np.matmul(den_scores[:, None, :] @ sigma_n, den_scores[:, :, None])
    return _ratio(num, float(forms.mean()), look)
