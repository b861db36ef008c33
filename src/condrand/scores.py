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
from .distributions import BLOCK_ENTRIES

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
    its ranks.

    The values are half-integers, hence exact; a NaN anywhere in a row
    makes every rank of that row NaN, as in ``scipy.stats.rankdata``.
    """
    n = x.shape[-1]
    order = np.argsort(x, axis=-1, kind="stable")
    xs = np.take_along_axis(x, order, axis=-1)
    first = np.ones(x.shape, dtype=bool)
    first[..., 1:] = xs[..., 1:] != xs[..., :-1]
    del xs
    last = np.ones(x.shape, dtype=bool)
    last[..., :-1] = first[..., 1:]
    # each position's tie group runs from its last start to its next end;
    # int32 steps in place keep the temporaries of a bootstrap matrix small
    pos = np.arange(n, dtype=np.int32)
    twice = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
    twice += np.minimum.accumulate(np.where(last, pos + 1, n)[..., ::-1], axis=-1)[..., ::-1]
    twice += 1
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, twice, axis=-1)
    ranks /= 2.0
    ranks[np.isnan(x).any(axis=-1)] = np.nan
    return ranks


def _centered(x: np.ndarray, kind: str) -> np.ndarray:
    """Centered scores along the last axis of a response array."""
    if kind == SIMPLE_RANK:
        a = _midranks(x)
    elif kind == RAW:
        a = x
    else:
        raise ValueError(f"unknown score kind {kind!r}")
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
    return ScoreVector(_centered(x, kind), kind)


def _assignment_array(t) -> np.ndarray:
    if isinstance(t, TreatmentSequence):
        return t.assignments
    return np.asarray(t)


def linear_rank_statistic(scores: ScoreVector, t) -> float:
    """V = scores . t for one assignment vector."""
    arr = _assignment_array(t)
    if arr.shape[-1] != len(scores):
        raise ValueError(
            f"length mismatch: {len(scores)} scores vs {arr.shape[-1]} assignments"
        )
    return float(scores.values @ arr)


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


def statistic_batch(scores: ScoreVector, batch: np.ndarray) -> np.ndarray:
    """V for every row of a (draws, n) assignment matrix."""
    if batch.shape[1] != len(scores):
        raise ValueError("assignment matrix width does not match scores")
    values = scores.values
    if not sums_exactly(values, np.float64):
        return batch @ values
    # sums of 0/1 draws times halves are exact in any order, so row chunks
    # keep the bits and convert only a chunk of the draws to float at a time
    out = np.empty(len(batch))
    rows = max(1, BLOCK_ENTRIES // len(values))
    for lo in range(0, len(batch), rows):
        out[lo : lo + rows] = batch[lo : lo + rows].astype(float) @ values
    return out


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
    """Sum of per-stratum linear rank statistics."""
    sequences = list(sequences)
    if len(sequences) != len(data):
        raise ValueError(
            f"got {len(sequences)} sequences for {len(data)} strata"
        )
    return float(
        sum(
            linear_rank_statistic(s.scores, t)
            for s, t in zip(data.strata, sequences)
        )
    )
