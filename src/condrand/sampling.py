"""Direct sampling from the unconditional and the conditional reference sets.

Sequences are generated one assignment at a time by one walk.  For the
unconditional set it reads the design's assignment probabilities; for a
conditional set, transition probabilities that condition on the running
count and on the next count constraint, which by a Bayes/Markov argument
reproduces exactly the law of the procedure restricted to the
constrained set, with no rejection step.
A schedule of several interim constraints is handled segment by segment:
within segment k only the next look's constraint enters the transition.

Segment tables come from :func:`chain_rows`, one call of the process-wide
memo of :mod:`condrand.distributions`, which builds a table on a miss and
keeps it under (design, start, start_count, end, end_count) as its band and
the walk's row views, so a sampler, a covariance sweep or a later stage that
finds its table there reads it at once; above 5 MiB one is never kept.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .design import DesignSpec, TreatmentSequence, _imbalance_probabilities
from .distributions import _memoized, _reach, backward_log_table
from .errors import InfeasibleError, NumericalError
from .scores import step_sums
from .streams import as_generator

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Look:
    """One interim constraint: ``count`` subjects on treatment 1 after
    ``position`` assignments."""

    position: int
    count: int


@dataclass(frozen=True)
class LookSchedule:
    """Ordered interim constraints; the last position is the horizon."""

    looks: tuple[Look, ...]

    def __post_init__(self) -> None:
        looks = tuple(self.looks)
        if not looks:
            raise ValueError("a schedule needs at least one look")
        prev = Look(0, 0)
        for l in looks:
            if l.position <= prev.position:
                raise ValueError(
                    f"look positions must increase, got {l.position} after {prev.position}"
                )
            gain = l.count - prev.count
            if not 0 <= gain <= l.position - prev.position:
                raise ValueError(
                    f"count {l.count} at position {l.position} is not reachable "
                    f"from count {prev.count} at position {prev.position}"
                )
            prev = l
        object.__setattr__(self, "looks", looks)

    @property
    def horizon(self) -> int:
        return self.looks[-1].position

    @property
    def final_count(self) -> int:
        return self.looks[-1].count

    def __len__(self) -> int:
        return len(self.looks)

    def prefix(self, through_look: int) -> "LookSchedule":
        """Schedule truncated to the first ``through_look`` looks (1-based)."""
        if not 1 <= through_look <= len(self.looks):
            raise ValueError(f"look index {through_look} out of range for {len(self.looks)} looks")
        return LookSchedule(self.looks[:through_look])

    def segments(self) -> Iterable[tuple[int, int, int, int]]:
        """Yield (start, start_count, end, end_count) per segment."""
        prev = Look(0, 0)
        for l in self.looks:
            yield prev.position, prev.count, l.position, l.count
            prev = l

    @classmethod
    def single(cls, n: int, n1: int) -> "LookSchedule":
        return cls((Look(int(n), int(n1)),))

    @classmethod
    def from_pairs(cls, pairs) -> "LookSchedule":
        return cls(tuple(Look(int(r), int(c)) for r, c in pairs))

    @classmethod
    def from_json(cls, obj: dict) -> "LookSchedule":
        pairs = [(l["r"], l["n1"]) for l in obj["looks"]]
        for v in (v for pair in pairs for v in pair if type(v) is not int):
            raise ValueError(f"look fields must be JSON integers, got {v!r}")
        return cls.from_pairs(pairs)

    def to_json(self) -> dict:
        return {"looks": [{"r": l.position, "n1": l.count} for l in self.looks]}


class _Rows(list):
    """A segment's transition rows, read-only views of one band indexed by
    count: ``row[m]`` is psi[j, m] for m on the band.  ``nbytes`` counts the
    band, the list and its views, all that the memo keeps of them."""

    __slots__ = ("nbytes",)


def chain_rows(design: DesignSpec, start: int, start_count: int, end: int, end_count: int):
    """The design's chain conditioned on look counts over one segment: its
    transition table psi[j - start, m] = P(T_{j+1} = 1 | N1(j) = m,
    N1(end) = end_count) as :class:`_Rows`, built on first use in the band
    of its backward log table (at step j, the counts that can still reach
    ``end_count``), then read from the memo under the arguments.  A count
    whose steps left must all be 1 has psi exactly 1, and one that may take
    no more 1s exactly 0, so a walk never leaves its band."""
    key = (design, start, start_count, end, end_count)
    return _memoized(key, lambda: _build_rows(*key))


def _build_rows(design: DesignSpec, start: int, start_count: int, end: int, end_count: int):
    rows = backward_log_table(design, start, end, end_count)
    lows, highs = _reach(start, end, end_count)
    if not lows[0] <= start_count < highs[0] or rows[0][start_count] == _NEG_INF:
        raise InfeasibleError(
            f"look (position {end}, count {end_count}) is unreachable "
            f"from count {start_count} at position {start} under {design.label()}"
        )
    # from the top, each log row turns into psi in place, its up moves read from
    # row j + 1, still a log row, where the -inf after a band gives a forced 0
    band, pr = rows[0].base, _imbalance_probabilities(design, end)
    with np.errstate(invalid="ignore"):
        for j, row, nxt, lo, hi in zip(range(start, end), rows, rows[1:], lows, highs):
            cur = row[lo:hi]
            np.subtract(nxt[lo + 1 : hi + 1], cur, out=cur)
            np.exp(cur, out=cur)
            cur *= pr[end + 2 * lo - j : end + 2 * hi - j : 2]
        if not np.isfinite(band.max()):  # nan or inf where a log row is -inf
            band[~np.isfinite(band)] = 0.0
    if band.max() > 1.0 + 1e-9:
        raise NumericalError("transition probability exceeds 1")
    np.clip(band, 0.0, 1.0, out=band)
    up = max(end - end_count - start, 0)  # from here on the lowest count must step up:
    for row, lo in zip(rows[up:-1], lows[up:]):
        row[lo] = row[lo] > 0.0  # exactly 1 where it can be reached
    band.setflags(write=False)
    for row in rows:
        row.setflags(write=False)
    out = _Rows(rows[:-1])
    out.nbytes = band.nbytes + sys.getsizeof(out) + sum(map(sys.getsizeof, out))
    return out


# the walk draws its uniforms about this many at a time, in whole steps
BLOCK_ENTRIES = 1 << 16


def _walk_buffers(n: int, size: int) -> tuple[np.ndarray, ...]:
    """Fresh (steps, m, prob, uniforms) for :func:`_walk`: (n, size) steps,
    ``size`` counts and probabilities, and a block of whole steps' uniforms."""
    if size < 0:
        raise ValueError(f"number of draws must be >= 0, got {size}")
    block = min(n, max(1, BLOCK_ENTRIES // max(size, 1)))
    return (np.empty((n, size), dtype=bool), np.empty(size, dtype=np.intp),
            np.empty(size), np.empty((block, size)))


def _walk(rows, rng: np.random.Generator | int | None, size: int, *, _buffers=()) -> np.ndarray:
    """An (n, size) bool matrix whose row j holds step j of every draw, given
    ``rows[j][m]`` = P(T_{j+1} = 1 | N1(j) = m) for the n = len(rows) steps.
    Every assignment the package draws comes from here.

    Uniforms come in blocks of whole steps; ``rng.random(out=u)`` for a
    (k, size) ``u`` consumes the stream exactly as ``k`` calls of
    ``rng.random(size)``, so the draws do not depend on the block length.
    ``_buffers``, from :func:`_walk_buffers` for the same (n, size), are
    written over instead of allocated, and the steps returned are its
    first; without them every array is fresh.
    """
    steps, m, prob, uniforms = _buffers or _walk_buffers(len(rows), size)
    rng = as_generator(rng)
    n, block = len(rows), max(1, len(uniforms))
    m.fill(0)
    for start in range(0, n, block):
        u = rng.random(out=uniforms[: n - start])
        for row, u_j, step in zip(rows[start : start + block], u, steps[start:]):
            # counts never leave their band, so clipping skips a bounds check only
            row.take(m, out=prob, mode="clip")
            np.less(u_j, prob, out=step)
            m += step
    return steps


def _sequences(steps: np.ndarray) -> np.ndarray:
    """The (size, n) int8 sequences of a walk's (n, size) steps."""
    return np.ascontiguousarray(steps.T).view(np.int8)


def _unconditional_rows(design: DesignSpec, n: int) -> list[np.ndarray]:
    """The walk's rows for the unconditional law: row j holds the design's
    probabilities at the imbalances 2m - j for m = 0..j, a stride-2 view."""
    pr = _imbalance_probabilities(design, n)
    return [pr[n - j : n + j + 1 : 2] for j in range(n)]


class MultilookSampler:
    """Draws sequences satisfying every constraint of a schedule.

    The walk reads the rows of :func:`chain_rows`, one table per segment,
    so repeated draws and batch draws cost O(n) lookups per sequence.
    """

    def __init__(self, design: DesignSpec, schedule: LookSchedule):
        self.design = design
        self.schedule = schedule
        self.n = schedule.horizon
        # row j of the walk is a count-indexed view into its segment's band
        self._rows = [row for seg in schedule.segments() for row in chain_rows(design, *seg)]
        self._work = ()  # accumulate_statistics' buffers, kept for the next call

    def transition(self, j: int, m: int) -> float:
        """Tabulated P(T_{j+1} = 1 | state, constraints ahead), 0.0 off the band."""
        if not 0 <= j < self.n or not 0 <= m <= j:
            raise ValueError(f"invalid state (j={j}, m={m})")
        _, _, end, count = next(seg for seg in self.schedule.segments() if j < seg[2])
        lows, highs = _reach(j, end, count)
        return float(self._rows[j][m]) if lows[0] <= m < highs[0] else 0.0

    def draw_batch(self, rng: np.random.Generator | int | None, size: int) -> np.ndarray:
        """A (size, n) int8 matrix of independent constrained sequences."""
        return _sequences(_walk(self._rows, rng, int(size)))

    def accumulate_statistics(
        self,
        rng: np.random.Generator | int | None,
        size: int,
        score_vectors,
    ) -> np.ndarray:
        """Statistics at each look for ``size`` draws, without storing sequences.

        The walk's buffers stay with the sampler, which writes over them on
        the next call of the same size and sums the steps where they lie, so
        a replicate loop touches no fresh pages.  They are never returned; do
        not share a sampler between threads.

        Args:
            score_vectors: One centered score array per look, the l-th
                covering the first r_l positions.

        Returns:
            Array of shape (size, L) of look statistics, each summed by
            :func:`~condrand.scores.step_sums` and so equal bit for bit to
            its sum over the steps in step order.
        """
        ends = [l.position for l in self.schedule.looks]
        score_vectors = list(score_vectors)
        if len(score_vectors) != len(ends):
            raise ValueError(f"need {len(ends)} score vectors, got {len(score_vectors)}")
        weights = []
        for r, sv in zip(ends, score_vectors):
            vals = np.asarray(getattr(sv, "values", sv), dtype=float)
            if vals.size != r:
                raise ValueError(f"score vector for look at {r} has length {vals.size}")
            weights.append(vals)
        size = int(size)
        if not self._work or self._work[0].shape != (self.n, size):
            self._work = _walk_buffers(self.n, size)
        return step_sums(weights, _walk(self._rows, rng, size, _buffers=self._work))


def sample_multilook(
    design: DesignSpec,
    schedule: LookSchedule,
    rng: np.random.Generator | int | None = None,
    size: int | None = None,
):
    """Draw from the reference set satisfying every look of ``schedule``
    ({N1(n) = n1} under ``LookSchedule.single(n, n1)``): one
    :class:`TreatmentSequence` when ``size`` is None, else a (size, n) matrix."""
    batch = MultilookSampler(design, schedule).draw_batch(rng, 1 if size is None else size)
    return TreatmentSequence(batch[0]) if size is None else batch


def simulate_unconditional(
    design: DesignSpec, n: int, rng: np.random.Generator | int | None = None
) -> TreatmentSequence:
    """Draw one sequence from the unconditional reference set: the design's
    own law, each step taken with its assignment probability."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    return TreatmentSequence(_sequences(_walk(_unconditional_rows(design, n), rng, 1))[0])
