"""Output checks that are computed apart from condrand.

Nothing here imports condrand.  Exact laws are recomputed by a forward
recursion over the treatment-1 count, spending increments from their
closed formulas (normal quantiles from the standard library), and the
remaining checks are properties the method must have whatever the seed.
Every check raises :class:`CheckFailed` with a message naming what was
wrong; ``bench/test_checks.py`` shows each one rejecting a wrong output.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Exact laws must match the recursion, and sum to one, to this absolute
# tolerance.
LAW_TOL = 1e-12
# Spending increments are closed formulas; both sides evaluate them in
# double precision.
SPEND_TOL = 1e-10
# Monte Carlo agreement is judged in standard errors.
Z_AGREE = 4.0
# Every stage of the boundary algorithm must keep this share of n_c.
MIN_RETAINED_SHARE = 0.8
# Attained level of the monitored trial: at most alpha + 0.013 (the
# acceptance test's criterion, on the side that matters for validity) and
# at least alpha - 0.02.  The estimator sits on the conservative side (mean
# 0.0486, sd 0.0039 over 24 seeds), where 0.013 would fail a sound program
# on about one seed in 700; 0.02 is 5 sd from that mean.
LEVEL_ABOVE = 0.013
LEVEL_BELOW = 0.02


class CheckFailed(AssertionError):
    """A program output is wrong."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def assignment_probability_row(p: float, j: int, m: np.ndarray) -> np.ndarray:
    """Efron's biased coin: P(next = 1) given m of the first j on arm 1.

    ``p = 0.5`` is complete randomization.
    """
    d = 2 * m - j
    return np.where(d == 0, 0.5, np.where(d < 0, p, 1.0 - p))


def forward_law(p: float, n: int, j: int = 0, m: int = 0) -> np.ndarray:
    """P(N1(n) = k | N1(j) = m) for k = 0..n, by forward recursion."""
    if not 0 <= m <= j <= n:
        raise ValueError(f"invalid state (j={j}, m={m}) for horizon {n}")
    dist = np.zeros(n + 1)
    dist[m] = 1.0
    for step in range(j, n):
        counts = np.arange(step + 1)
        up = dist[: step + 1] * assignment_probability_row(p, step, counts)
        dist[: step + 1] -= up
        dist[1 : step + 2] += up
    return dist


def check_law(values, expected, what: str) -> None:
    """An exact law matches the recursion and sums to one."""
    got = np.asarray(values, dtype=float)
    want = np.asarray(expected, dtype=float)
    if got.shape != want.shape:
        _fail(f"{what}: {got.shape[0]} values, expected {want.shape[0]}")
    err = float(np.max(np.abs(got - want)))
    if not err <= LAW_TOL:
        _fail(f"{what}: differs from the forward recursion by {err:.3g}")
    total = float(got.sum())
    if not abs(total - 1.0) <= LAW_TOL:
        _fail(f"{what}: sums to {total!r}")


def cumulative_spend(kind: str, alpha: float, t: float) -> float:
    """O'Brien-Fleming-like or Pocock-like alpha spent by fraction t."""
    if t <= 0.0:
        return 0.0
    if kind == "obf":
        norm = NormalDist()
        z = norm.inv_cdf(1.0 - alpha / 2.0)
        return 2.0 - 2.0 * norm.cdf(z / math.sqrt(t))
    if kind == "pocock":
        return alpha * math.log1p((math.e - 1.0) * t)
    raise ValueError(f"unknown spending kind {kind!r}")


def spending_increments(kind: str, alpha: float, fractions) -> list[float]:
    """alpha_l = (s(t_l) - s(t_{l-1})) / (1 - s(t_{l-1}))."""
    out = []
    prev = 0.0
    for t in fractions:
        cur = cumulative_spend(kind, alpha, float(t))
        out.append((cur - prev) / (1.0 - prev))
        prev = cur
    return out


def check_boundaries(result: dict, kind: str, alpha: float, n_c: int, stages=None) -> None:
    """Boundary output of the staged algorithm.

    Args:
        result: ``BoundaryResult.to_json()``.
        stages: Optional list of the (m_l, l) statistic arrays drawn at
            each stage; when given, the share of retained stage-l
            statistics strictly above d_l must be at most alpha_l.
    """
    t = [float(v) for v in result["info_fractions"]]
    if any(b <= a for a, b in zip(t, t[1:])) or not t[0] > 0.0:
        _fail(f"information fractions do not strictly increase: {t}")
    if t[-1] != 1.0:
        _fail(f"last information fraction is {t[-1]!r}, not 1")
    want = spending_increments(kind, alpha, t)
    got = [float(v) for v in result["incremental_alpha"]]
    if len(got) != len(want) or any(abs(a - b) > SPEND_TOL for a, b in zip(got, want)):
        _fail(f"spending increments {got} differ from {want}")
    used = [int(v) for v in result["n_used"]]
    if any(u < MIN_RETAINED_SHARE * n_c for u in used):
        _fail(f"a stage retained fewer than {MIN_RETAINED_SHARE} * {n_c}: {used}")
    if stages is None:
        return
    d = [float(v) for v in result["d"]]
    if len(stages) != len(d):
        _fail(f"{len(stages)} sampled stages for {len(d)} looks")
    for l, stats in enumerate(stages):
        stats = np.asarray(stats, dtype=float)
        if stats.shape[0] != int(result["n_generated"][l]):
            _fail(f"stage {l + 1} drew {stats.shape[0]}, reported {result['n_generated'][l]}")
        keep = np.ones(stats.shape[0], dtype=bool)
        for i in range(l):
            keep &= stats[:, i] <= d[i]
        retained = stats[keep, l]
        if retained.size != used[l]:
            _fail(f"stage {l + 1} retains {retained.size}, reported {used[l]}")
        above = int((retained > d[l]).sum())
        if above > got[l] * retained.size * (1.0 + 1e-9):
            _fail(
                f"stage {l + 1}: {above} of {retained.size} retained statistics exceed "
                f"d = {d[l]}, more than alpha_l = {got[l]:.6g}"
            )


def check_attained_level(alpha_hat: float, alpha: float) -> None:
    """The monitored test keeps its level on null data."""
    if not alpha - LEVEL_BELOW <= alpha_hat <= alpha + LEVEL_ABOVE:
        _fail(
            f"attained level {alpha_hat:.5f} outside "
            f"[{alpha - LEVEL_BELOW:.3f}, {alpha + LEVEL_ABOVE:.3f}]"
        )


def check_pooled_agreement(estimates, exacts, n_c: int) -> None:
    """Direct estimates agree with the exact values within Z_AGREE standard errors.

    The differences are pooled: their sum is judged against its own
    standard error.  A run makes some 60 pairs; judged one by one at 4
    standard errors (binomial tails, exact values spread over (0, 1)), a
    sound program would fail about one run in 230.
    """
    est = np.asarray(estimates, dtype=float)
    exact = np.asarray(exacts, dtype=float)
    se = math.sqrt(float((exact * (1.0 - exact)).sum()) / n_c)
    diff = float((est - exact).sum())
    if not abs(diff) <= Z_AGREE * se:
        _fail(
            f"{est.size} direct estimates differ from their exact p-values by {diff:.4g} "
            f"in sum, {abs(diff) / se if se else math.inf:.2f} standard errors"
        )


def check_null_share(pvalues, level: float = 0.1) -> None:
    """Null p-values are valid: P(p <= level) <= level, up to Z_AGREE SE."""
    p = np.asarray(pvalues, dtype=float)
    if p.size == 0:
        _fail("no null p-values to check")
    share = float((p <= level).mean())
    limit = level + Z_AGREE * math.sqrt(level * (1.0 - level) / p.size)
    if share > limit:
        _fail(f"{share:.3f} of {p.size} null p-values are <= {level}, above {limit:.3f}")


def check_pvalue(estimate: float, n_effective: int, n_c: int) -> None:
    """A Monte Carlo p-value is a share of the n_c draws."""
    if n_effective != n_c:
        _fail(f"p-value from {n_effective} draws, asked for {n_c}")
    hits = estimate * n_c
    if not 0.0 <= estimate <= 1.0 or abs(hits - round(hits)) > 1e-6:
        _fail(f"p-value {estimate} is not a share of {n_c} draws")


def check_look_counts(batch, looks) -> None:
    """Every sampled sequence meets every (position, count) constraint."""
    arr = np.asarray(batch)
    if arr.ndim != 2 or arr.shape[1] != looks[-1][0]:
        _fail(f"sample of shape {arr.shape} for horizon {looks[-1][0]}")
    if not np.isin(arr, (0, 1)).all():
        _fail("sampled sequences hold values other than 0 and 1")
    counts = np.cumsum(arr, axis=1, dtype=np.int64)
    for r, c in looks:
        bad = int((counts[:, r - 1] != c).sum())
        if bad:
            _fail(f"{bad} sequences miss the count {c} at position {r}")
