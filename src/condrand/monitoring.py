"""Alpha-spending boundaries for sequentially monitored randomization tests.

The overall one-sided level is rationed across interim looks by a
nondecreasing spending function of the information fraction.  Writing the
crossing conditions look by look turns the joint boundary problem into a
sequence of univariate quantile problems: at look l the boundary is the
(1 - alpha_l) quantile of the look statistic among sequences that stayed
inside all earlier boundaries, where alpha_l is the conditional spending
increment.  Each stage draws fresh sequences from the reference set
constrained by every look count seen so far, inflated so that at least
the nominal number survive the earlier boundaries in expectation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .covariance import _check_info_options, information_at_look
from .design import DesignSpec
from .errors import UnderSampleError
from .sampling import LookSchedule, MultilookSampler
from .scores import SIMPLE_RANK, centered_scores
from .streams import as_generator

OBRIEN_FLEMING = "obf"
POCOCK = "pocock"

_KINDS = (OBRIEN_FLEMING, POCOCK)

# fewest sequences a stage may keep before its boundary is refused
MIN_RETAINED = 100


@dataclass(frozen=True)
class SpendingFunction:
    """Cumulative type I error spent by information fraction t.

    ``"obf"`` is the O'Brien-Fleming-like shape 2 - 2*Phi(z_{a/2}/sqrt(t));
    ``"pocock"`` is the Pocock-like shape a*ln(1 + (e-1)t).  Both are 0 at
    t = 0 and reach the full level at t = 1.
    """

    kind: str = OBRIEN_FLEMING
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"spending kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def spend(sf: SpendingFunction, t: float) -> float:
    """Cumulative spend at information fraction ``t`` in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"information fraction must lie in [0, 1], got {t}")
    if t == 0.0:
        return 0.0
    if sf.kind == OBRIEN_FLEMING:
        from scipy import special

        z = float(special.ndtri(1.0 - sf.alpha / 2.0))
        return float(2.0 - 2.0 * special.ndtr(z / math.sqrt(t)))
    return float(sf.alpha * math.log1p((math.e - 1.0) * t))


def incremental_alpha(sf: SpendingFunction, fractions) -> list[float]:
    """Conditional spending levels alpha_l at each look.

    alpha_l = (spend(t_l) - spend(t_{l-1})) / (1 - spend(t_{l-1})), the
    level of the look-l test among sequences surviving earlier looks.
    """
    ts = [float(t) for t in fractions]
    if not ts:
        raise ValueError("need at least one information fraction")
    if any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] <= 0.0:
        raise ValueError(f"information fractions must be increasing in (0, 1], got {ts}")
    if abs(ts[-1] - 1.0) > 1e-9:
        raise ValueError(f"the last information fraction must be 1, got {ts[-1]}")
    ts[-1] = 1.0
    out = []
    prev = 0.0
    for t in ts:
        cur = spend(sf, t)
        out.append((cur - prev) / (1.0 - prev))
        prev = cur
    return out


def _check_quantile_method(method: str) -> None:
    if method not in ("smooth", "ecdf"):
        raise ValueError(f"method must be 'smooth' or 'ecdf', got {method!r}")


def nonparametric_quantile(samples, level: float, method: str = "smooth") -> float:
    """Quantile estimate from a sample.

    ``"smooth"`` is the Harrell-Davis estimator, a beta-weighted average of
    order statistics (bandwidth-free, deterministic); ``"ecdf"`` inverts the
    empirical upper tail conservatively, returning the smallest sample value
    whose strict upper tail proportion is at most ``1 - level``.

    The smooth weights are differences of a beta CDF at k / n, exactly 0.0
    below a window of k and 1.0 above it: ``betainc`` runs on a coarse grid,
    whose own nondecreasing values bracket the window, then inside it alone,
    so each weight and the full-length dot product keep their bits.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("need a nonempty sample")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    _check_quantile_method(method)
    if method == "ecdf":
        k = max(int(np.ceil(x.size * level)) - 1, 0)
        # with ties, step up until the strict upper tail is small enough
        while k < x.size - 1 and (x > x[k]).sum() > (1.0 - level) * x.size:
            k += 1
        return float(x[k])
    n = x.size
    if n == 1:
        return float(x[0])
    return float(np.diff(_beta_edges(n, level)) @ x)


def _beta_edges(n: int, level: float) -> np.ndarray:
    """The Harrell-Davis weights' edges betainc(a, b, k / n), k = 0..n."""
    from scipy import special

    a, b = (n + 1) * level, (n + 1) * (1.0 - level)
    coarse = np.append(np.arange(0, n, math.isqrt(n)), n)
    c = special.betainc(a, b, coarse / n)  # nondecreasing, from 0.0 to 1.0
    lo, hi = coarse[np.searchsorted(c, 0.0, "right") - 1], coarse[np.searchsorted(c, 1.0)]
    edges = (np.arange(n + 1) >= hi).astype(float)
    edges[lo + 1 : hi] = special.betainc(a, b, np.arange(lo + 1, hi) / n)
    return edges


@dataclass(frozen=True)
class BoundaryResult:
    """Estimated boundaries with the spending profile that produced them."""

    d: list[float]
    incremental_alpha: list[float]
    info_fractions: list[float]
    n_used: list[int]
    n_generated: list[int]
    alpha: float
    spending: str

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MonitoringDecision:
    """Outcome of comparing observed look statistics to boundaries."""

    rejected: bool
    look: int | None


def _conservative_boundary(values: np.ndarray, level: float, method: str) -> float:
    """Quantile estimate raised, if ties demand it, to the smallest sample
    value whose strict upper tail fits inside ``1 - level``: the ``ecdf``
    quantile."""
    ecdf = nonparametric_quantile(values, level, "ecdf")
    if method == "ecdf":
        return ecdf
    return max(nonparametric_quantile(values, level, method), ecdf)


def estimate_boundaries(
    design: DesignSpec,
    schedule: LookSchedule,
    responses,
    spending: SpendingFunction,
    n_c: int,
    rng: np.random.Generator | int | None = None,
    *,
    info_fractions=None,
    info_mode: str = "full",
    bootstrap: int = 100,
    quantile_method: str = "smooth",
    score_kind: str = SIMPLE_RANK,
) -> BoundaryResult:
    """Estimate upper-tailed boundaries d_1..d_L for a monitored trial.

    Stage l draws ``n_c / prod_{i<l}(1 - alpha_i)`` sequences constrained
    by the counts of looks 1..l, keeps those inside all earlier
    boundaries, and sets d_l to the (1 - alpha_l) quantile of the look-l
    statistic among the survivors; fewer than ``MIN_RETAINED`` (100)
    survivors at a look that spends alpha raise :class:`UnderSampleError`.
    Look statistics re-rank the responses within each look prefix.

    Args:
        responses: Outcomes through the last scheduled look.
        info_fractions: Information fractions per look; computed from the
            conditional covariances (mode ``info_mode``) when omitted.
    """
    if n_c < 1:
        raise ValueError(f"need at least one sequence per stage, got {n_c}")
    _check_quantile_method(quantile_method)
    rng = as_generator(rng)
    x = np.asarray(responses, dtype=float)
    looks = schedule.looks
    if x.size < looks[-1].position:
        raise ValueError(
            f"need {looks[-1].position} responses, got {x.size}"
        )
    if info_fractions is None:
        _check_info_options(info_mode, bootstrap, len(looks) > 1)
    elif len(info_fractions) != len(looks):
        raise ValueError(f"got {len(info_fractions)} information fractions for {len(looks)} looks")
    # ranking first refuses an unknown score kind before any table is built
    prefix_scores = [centered_scores(x[: l.position], score_kind) for l in looks]
    # the whole schedule first, so that an unreachable look is refused before any work
    MultilookSampler(design, schedule)
    blocks: dict = {}  # each covariance block swept once across the looks
    if info_fractions is None:
        info_fractions = [
            information_at_look(
                design, schedule, x, l, mode=info_mode, bootstrap=bootstrap,
                rng=rng, kind=score_kind, _blocks=blocks,
            ).t
            for l in range(1, len(looks) + 1)
        ]
    info_fractions = [float(t) for t in info_fractions]
    alphas = incremental_alpha(spending, info_fractions)

    bounds: list[float] = []
    used: list[int] = []
    generated: list[int] = []
    inflation = 1.0
    for l, look in enumerate(looks, start=1):
        alpha_l = alphas[l - 1]
        m_l = math.ceil(n_c / inflation)
        stage = MultilookSampler(design, schedule.prefix(l))
        stats_l = stage.accumulate_statistics(rng, m_l, prefix_scores[:l])
        keep = np.ones(m_l, dtype=bool)
        for i in range(l - 1):
            keep &= stats_l[:, i] <= bounds[i]
        retained = stats_l[keep, l - 1]
        generated.append(m_l)
        used.append(int(retained.size))
        if alpha_l <= 0.0:
            bounds.append(math.inf)
            continue
        if retained.size < MIN_RETAINED:
            raise UnderSampleError(
                f"stage {l} retained {retained.size} sequences "
                f"(< {MIN_RETAINED}); increase the per-stage sample size {n_c}"
            )
        bounds.append(_conservative_boundary(retained, 1.0 - alpha_l, quantile_method))
        inflation *= 1.0 - alpha_l
    return BoundaryResult(
        bounds, alphas, info_fractions, used, generated, spending.alpha, spending.kind
    )


def sequential_decision(observed, bounds: BoundaryResult | list[float]) -> MonitoringDecision:
    """First look whose statistic strictly exceeds its boundary, if any."""
    d = bounds.d if isinstance(bounds, BoundaryResult) else list(bounds)
    observed = [float(v) for v in observed]
    if len(observed) > len(d):
        raise ValueError(f"{len(observed)} statistics but only {len(d)} boundaries")
    for l, (v, b) in enumerate(zip(observed, d), start=1):
        if v > b:
            return MonitoringDecision(True, l)
    return MonitoringDecision(False, None)
