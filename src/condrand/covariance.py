"""Exact conditional moments of the assignment vector and the
randomization-based information fraction.

Conditioning the randomization procedure on interim counts turns it into
a Markov chain whose transitions are the sampler's; conditional means and
cross moments then come from forward sweeps of that chain against its
occupancy law.  The per-entry functions evaluate the same moments as
literal sums over closed-form laws, which gives an internal dual route in
addition to the enumeration oracle.

Covariances under a schedule are block diagonal across look segments:
assignments in different segments are conditionally uncorrelated.

The information fraction at a look is the ratio of the statistic's
conditional variance at that look to its conditional variance at the end
of the trial, with unknown responses filled in by bootstrap resampling of
the observed ones when the trial is still in progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .design import DesignSpec, assignment_probability, assignment_probability_exact
from .distributions import (
    backward_exact_table,
    conditional_pmf,
    unconditional_pmf,
)
from .errors import DegenerateScoresError, InfeasibleError
from .sampling import Look, LookSchedule, _fill_segment_chain
from .scores import SIMPLE_RANK, ScoreVector, centered_scores
from .streams import as_generator


@dataclass(frozen=True)
class ConditionalCovariance:
    """Covariance of the assignment vector given one or many look counts."""

    sigma: np.ndarray = field(repr=False)
    conditioning: LookSchedule

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def as_float(self) -> np.ndarray:
        if self.sigma.dtype == object:
            return self.sigma.astype(float)
        return self.sigma

    def quadratic_form(self, scores: ScoreVector | np.ndarray) -> float:
        a = np.asarray(getattr(scores, "values", scores), dtype=float)
        if a.size != self.n:
            raise ValueError(f"scores have length {a.size}, expected {self.n}")
        return float(a @ self.as_float() @ a)


@dataclass(frozen=True)
class InformationFraction:
    """Progress measure in (0, 1]: variance observed so far over total."""

    t: float
    look: int | None
    numerator: float
    denominator: float


# ---------------------------------------------------------------------------
# Per-entry moments as literal sums over the closed-form laws.


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
# Whole blocks by conditional-chain sweeps.


def _block_moments_float(design: DesignSpec, r0: int, m0: int, r1: int, m1: int):
    """Conditional means and cross moments of T within one segment.

    Row a of ``g`` is the forward sweep started by T_a = 1: the law of the
    count before step b jointly with that event.  All open sweeps advance
    together by the same elementwise updates, and each entry of ``lam``
    keeps its own dot product, so the result equals a sweep per pair bit
    for bit; a matrix-vector product would sum in another order.
    """
    s = r1 - r0
    width = r1 + 2
    psi = np.zeros((s, width))
    _fill_segment_chain(design, r0, m0, r1, m1, psi)
    rho = np.zeros((s + 1, width))
    rho[0, m0] = 1.0
    for idx in range(s):
        move = rho[idx] * psi[idx]
        nxt = rho[idx] - move
        nxt[1:] += move[:-1]
        rho[idx + 1] = nxt
    theta = np.einsum("im,im->i", rho[:s], psi)
    lam = np.zeros((s, s))
    g = np.zeros((s, width))
    g_rows = list(g)  # row views made once; the loop below dots each with psi[b]
    move = np.empty_like(g)
    for b in range(1, s):
        g[b - 1, 1:] = (rho[b - 1] * psi[b - 1])[:-1]
        row = psi[b]
        lam[:b, b] = list(map(row.dot, g_rows[:b]))
        np.multiply(g[:b], row, out=move[:b])
        g[:b] -= move[:b]
        g[:b, 1:] += move[:b, :-1]
    return theta, lam


def _block_moments_exact(design: DesignSpec, r0: int, m0: int, r1: int, m1: int):
    """Rational-arithmetic version of :func:`_block_moments_float`."""
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


def _as_schedule(conditioning) -> LookSchedule:
    if isinstance(conditioning, LookSchedule):
        return conditioning
    return LookSchedule.from_pairs(conditioning)


def multilook_covariances(
    design: DesignSpec, schedule: LookSchedule, backend: str = "float", *, _blocks: dict | None = None
) -> list[ConditionalCovariance]:
    """Covariance matrices for every look prefix of ``schedule``.

    Blocks are shared across prefixes: the covariance through look l is
    block diagonal with one block per segment, and earlier blocks do not
    change as later looks are added.  ``_blocks`` maps a segment (start,
    start_count, end, end_count) to its block; a caller that passes one
    dict to several calls with the same design and backend builds each
    segment once.
    """
    schedule = _as_schedule(schedule)
    exact = backend == "exact"
    if backend not in ("float", "exact"):
        raise ValueError(f"backend must be 'float' or 'exact', got {backend!r}")
    cache = {} if _blocks is None else _blocks
    for r0, m0, r1, m1 in schedule.segments():
        if (r0, m0, r1, m1) in cache:
            continue
        if exact:
            theta, lam = _block_moments_exact(design, r0, m0, r1, m1)
            s = r1 - r0
            block = np.empty((s, s), dtype=object)
            for a in range(s):
                block[a, a] = theta[a] * (1 - theta[a])
                for b in range(a + 1, s):
                    v = lam[a][b] - theta[a] * theta[b]
                    block[a, b] = v
                    block[b, a] = v
        else:
            theta, lam = _block_moments_float(design, r0, m0, r1, m1)
            block = lam + lam.T - np.outer(theta, theta)
            np.fill_diagonal(block, theta * (1.0 - theta))
        cache[r0, m0, r1, m1] = block
    blocks = [cache[seg] for seg in schedule.segments()]
    out = []
    for l in range(1, len(schedule) + 1):
        r_l = schedule.looks[l - 1].position
        if exact:
            sigma = np.full((r_l, r_l), Fraction(0), dtype=object)
        else:
            sigma = np.zeros((r_l, r_l))
        pos = 0
        for block in blocks[:l]:
            s = block.shape[0]
            sigma[pos : pos + s, pos : pos + s] = block
            pos += s
        out.append(ConditionalCovariance(sigma, schedule.prefix(l)))
    return out


def covariance_multilook(
    design: DesignSpec, schedule: LookSchedule, backend: str = "float", *, _blocks: dict | None = None
) -> ConditionalCovariance:
    """Covariance of the first r_L assignments given every look count."""
    return multilook_covariances(design, _as_schedule(schedule), backend, _blocks=_blocks)[-1]


def covariance_final(
    design: DesignSpec, n: int, n1: int, backend: str = "float"
) -> ConditionalCovariance:
    """Covariance of the full assignment vector given the final count."""
    return covariance_multilook(design, LookSchedule.single(n, n1), backend)


# ---------------------------------------------------------------------------
# Information fractions.


def information_fraction(
    scores_l: ScoreVector,
    scores_n: ScoreVector,
    sigma_l: ConditionalCovariance,
    sigma_n: ConditionalCovariance,
    look: int | None = None,
) -> InformationFraction:
    """Ratio of conditional statistic variances at a look and at the end."""
    num = sigma_l.quadratic_form(scores_l)
    den = sigma_n.quadratic_form(scores_n)
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
) -> list[ScoreVector]:
    """Complete a partially observed response vector ``replicates`` times.

    Each completion keeps the observed prefix, fills the remaining
    ``n - len(observed)`` entries by resampling the observed values with
    replacement, and re-ranks the full vector.
    """
    x = np.asarray(observed, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("observed responses must form a nonempty 1-D sequence")
    if not x.size <= n:
        raise ValueError(f"{x.size} observed responses exceed horizon {n}")
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    if x.size == n:
        return [centered_scores(x, kind)] * replicates
    rng = as_generator(rng)
    out = []
    for _ in range(replicates):
        fill = rng.choice(x, size=n - x.size, replace=True)
        out.append(centered_scores(np.concatenate([x, fill]), kind))
    return out


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


def information_at_look(
    design: DesignSpec,
    schedule: LookSchedule,
    responses,
    look: int,
    *,
    horizon: int | None = None,
    mode: str = "interim",
    bootstrap: int = 100,
    rng: np.random.Generator | int | None = None,
    final_count: int | None = None,
    kind: str = SIMPLE_RANK,
    _blocks: dict | None = None,
) -> InformationFraction:
    """Information fraction at ``look`` from the responses seen so far.

    The numerator conditions on the look counts observed through ``look``.
    The denominator conditions on the same counts plus a final-count
    constraint: the observed final count when the trial is complete
    (``mode="full"``), or its projection from the current allocation rate
    mid-trial.  At the last look the two conditionings coincide and the
    fraction is exactly 1.

    Args:
        mode: ``"interim"`` fills unknown responses by bootstrap
            resampling (``bootstrap`` replicates, averaging the variance
            across completions); ``"full"`` uses the complete response
            vector as given.
        final_count: Override for the final-count constraint.
        _blocks: Segment blocks to reuse and extend, as in
            :func:`multilook_covariances`.
    """
    schedule = _as_schedule(schedule)
    if mode not in ("interim", "full"):
        raise ValueError(f"mode must be 'interim' or 'full', got {mode!r}")
    if horizon is None:
        horizon = schedule.horizon
    r_l = schedule.looks[look - 1].position
    x = np.asarray(responses, dtype=float)
    if x.size < r_l:
        raise ValueError(f"need at least {r_l} responses for look {look}")
    prefix = schedule.prefix(look)
    scores_l = centered_scores(x[:r_l], kind)
    sigma_l = covariance_multilook(design, prefix, _blocks=_blocks)
    if r_l == horizon:
        num = sigma_l.quadratic_form(scores_l)
        if num <= 0.0:
            raise DegenerateScoresError("interim-statistic variance is zero")
        return InformationFraction(1.0, look, num, num)

    if final_count is None:
        if mode == "full":
            if schedule.horizon != horizon:
                raise ValueError("full mode needs the completed schedule or final_count")
            final_count = schedule.final_count
        else:
            final_count = projected_final_count(design, prefix, look, horizon)
    den_schedule = LookSchedule(prefix.looks + (Look(horizon, int(final_count)),))
    sigma_n = covariance_multilook(design, den_schedule, _blocks=_blocks)

    if mode == "full":
        if x.size < horizon:
            raise ValueError(f"full mode needs {horizon} responses, got {x.size}")
        den_scores = [centered_scores(x[:horizon], kind)]
    else:
        den_scores = interpolate_scores(x[:r_l], horizon, rng, bootstrap, kind)
    num = sigma_l.quadratic_form(scores_l)
    den = float(np.mean([sigma_n.quadratic_form(sv) for sv in den_scores]))
    if den <= 0.0:
        raise DegenerateScoresError("final-statistic variance is zero")
    t = num / den
    if t > 1.0 + 1e-6:
        raise ValueError(f"information fraction {t} exceeds 1")
    if t <= 0.0:
        raise DegenerateScoresError("interim-statistic variance is zero")
    return InformationFraction(min(t, 1.0), look, num, den)
