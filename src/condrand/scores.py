"""Score vectors and linear rank statistics.

The test statistic throughout the package is the inner product of a
centered score vector with the 0/1 assignment vector.  Scores are either
centered midranks of the responses ("simple-rank", the default; ties get
midranks) or the centered raw responses.  Interim statistics re-rank and
re-center within the observed prefix, so scores at a look depend only on
the responses seen by that look.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import DesignSpec, TreatmentSequence

SIMPLE_RANK = "simple-rank"
RAW = "raw"

_KINDS = (SIMPLE_RANK, RAW)


@dataclass(frozen=True)
class ScoreVector:
    """Centered scores; their sum is zero by construction."""

    values: np.ndarray = field(repr=False)
    kind: str = SIMPLE_RANK

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scores must form a nonempty 1-D vector")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        peak = float(np.abs(arr).max())  # NaN if any entry is NaN
        if not np.isfinite(peak):
            raise ValueError("scores must be finite: a response is NaN, or infinite with raw scores")
        scale = max(1.0, peak)
        if abs(float(arr.sum())) > 1e-9 * scale * arr.size:
            raise ValueError("scores must be centered (sum to zero)")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n along the last axis, each tie group sharing the mean of
    its ranks, counted over the codes of :func:`np.unique`.

    The values are half-integers, hence exact; a NaN anywhere in a row
    makes every rank of that row NaN, as in ``scipy.stats.rankdata``.
    R rows of u distinct values in all take R * u counts.
    """
    values, codes = np.unique(x, return_inverse=True)
    return _counted_midranks(values, codes.reshape(-1, x.shape[-1])).reshape(x.shape)


def _counted_midranks(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Midranks of each row of ``values[codes]``, for ``values`` sorted and
    distinct with any NaN last, as :func:`np.unique` gives them.  The
    (rows, n) integer ``codes`` are overwritten.

    One ``bincount`` counts each value in each row: a value counted c
    times whose tie group ends at rank k has midrank k - (c - 1) / 2.
    That is O(rows * (n + u)) for u values, with no sort.
    """
    u = values.size
    codes += u * np.arange(len(codes))[:, None]  # each row counts in its own u cells
    counts = np.bincount(codes.ravel(), minlength=u * len(codes)).reshape(-1, u).astype(float)
    # in place, so that a bootstrap matrix's temporaries stay small
    mid = counts.cumsum(axis=1)
    mid -= counts / 2
    mid += 0.5
    mid[(counts[:, -1] > 0) & np.isnan(values[-1])] = np.nan
    return mid.ravel()[codes]


def _centered(a: np.ndarray) -> np.ndarray:
    """Scores less their mean along the last axis."""
    with np.errstate(invalid="ignore"):  # infinite raw values; ScoreVector rejects them
        return a - a.mean(axis=-1, keepdims=True)


def centered_scores(responses, kind: str = SIMPLE_RANK) -> ScoreVector:
    """Build a centered score vector from raw responses.

    Args:
        responses: Nonempty sequence of outcomes.
        kind: ``"simple-rank"`` for centered midranks, ``"raw"`` for
            centered raw values.
    """
    x = np.asarray(responses, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("responses must be a nonempty 1-D sequence")
    # ScoreVector refuses an unknown kind
    return ScoreVector(_centered(_midranks(x) if kind == SIMPLE_RANK else x), kind)


def _assignment_array(t) -> np.ndarray:
    if isinstance(t, TreatmentSequence):
        return t.assignments
    return np.asarray(t)


def linear_rank_statistic(scores: ScoreVector, t) -> float:
    """V = scores . t for one assignment vector, summed by :func:`step_sums`."""
    arr = _assignment_array(t)
    if arr.shape != (len(scores),):
        raise ValueError(f"length mismatch: {len(scores)} scores vs assignment shape {arr.shape}")
    return float(step_sums([scores.values], arr[:, None])[0, 0])


def sums_exactly(values: np.ndarray, dtype) -> bool:
    """Whether every sum of a subset of ``values`` is exact in ``dtype``,
    whatever the order of the additions.

    It holds when every value is a multiple of 1/2 and the absolute values
    add up to less than 2^(p-1), where p is the bits of ``dtype``'s
    significand (53 for float64, 24 for float32): every partial sum is
    then a multiple of 1/2 that the float holds exactly.  The check is
    exact too: a float64 sum of integers stays below 2^53 only when it
    has not rounded.
    """
    twice = 2.0 * np.asarray(values, dtype=float)
    limit = 2.0 ** (np.finfo(dtype).nmant + 1)
    return bool((twice == np.rint(twice)).all()) and float(np.abs(twice).sum()) < limit


def step_sums(weights, steps: np.ndarray) -> np.ndarray:
    """The (size, L) statistics of an (n, size) 0/1 step matrix, one column
    per draw, under 1-D score arrays ``weights`` that each cover a prefix.

    This is the package's one summation rule, so a sequence scores the
    same float whether observed or drawn: entry (k, l) equals bit for bit
    the step-order sum of ``weights[l][j] * steps[j, k]``.  Each look is
    one ``einsum``, which casts the steps in a small buffer of its own: in
    float32, where any order gives those bits, when every vector's sums
    are exact there (:func:`sums_exactly`; midranks are up to n of about
    5800), else in float64 over the steps outermost.  Neither calls BLAS,
    and the result is always fresh.
    """
    size = steps.shape[1]
    if steps.dtype == bool:
        steps = steps.view(np.uint8)  # einsum casts bytes to float32 faster than bools
    dtype = np.float32
    if not all(sums_exactly(w, np.float32) for w in weights):
        # einsum keeps the steps outermost only over C-ordered rows of two or
        # more draws; it sums a single column with split accumulators
        dtype = np.float64
        steps = np.ascontiguousarray(steps if size > 1 else np.repeat(steps, 2, axis=1))
    stats = np.empty((size, len(weights)))
    for l, w in enumerate(weights):
        stats[:, l] = np.einsum("jk,j->k", steps[: w.size], w.astype(dtype))[:size]
    return stats


def interim_statistic(responses, t, cut: int, kind: str = SIMPLE_RANK) -> float:
    """Statistic at an interim look: scores re-ranked over the first ``cut``
    responses, against the first ``cut`` assignments."""
    arr = _assignment_array(t)
    x = np.asarray(responses, dtype=float)
    if not 1 <= cut <= x.size:
        raise ValueError(f"cut {cut} out of range for {x.size} responses")
    if arr.shape[-1] < cut:
        raise ValueError(f"need at least {cut} assignments, got {arr.shape[-1]}")
    return linear_rank_statistic(centered_scores(x[:cut], kind), arr[:cut])


@dataclass(frozen=True)
class Stratum:
    """One independent stratum of a stratified test."""

    scores: ScoreVector
    n1: int
    design: DesignSpec

    def __post_init__(self) -> None:
        if not 0 <= self.n1 <= len(self.scores):
            raise ValueError(
                f"stratum count {self.n1} out of range for {len(self.scores)} subjects"
            )


@dataclass(frozen=True)
class StratifiedData:
    """Disjoint strata, each with its own design and observed group size."""

    strata: tuple[Stratum, ...]

    def __post_init__(self) -> None:
        if not self.strata:
            raise ValueError("need at least one stratum")
        object.__setattr__(self, "strata", tuple(self.strata))

    def __len__(self) -> int:
        return len(self.strata)


def stratified_statistic(data: StratifiedData, sequences) -> float:
    """Sum of per-stratum linear rank statistics, added in stratum order
    from 0.0 (the builtin sum compensates since Python 3.12)."""
    sequences = list(sequences)
    if len(sequences) != len(data):
        raise ValueError(
            f"got {len(sequences)} sequences for {len(data)} strata"
        )
    total = 0.0
    for s, t in zip(data.strata, sequences):
        total += linear_rank_statistic(s.scores, t)
    return total
