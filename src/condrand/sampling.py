"""Direct sampling from conditional reference sets.

Sequences are generated one assignment at a time with transition
probabilities that condition on the running count and on the next count
constraint; by a Bayes/Markov argument this reproduces exactly the law of
the procedure restricted to the constrained set, with no rejection step.
A schedule of several interim constraints is handled segment by segment:
within segment k only the next look's constraint enters the transition.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .design import DesignSpec, TreatmentSequence, _imbalance_probabilities
from .distributions import BLOCK_ENTRIES, backward_log_table
from .errors import InfeasibleError
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
        return cls.from_pairs((l["r"], l["n1"]) for l in obj["looks"])

    def to_json(self) -> dict:
        return {"looks": [{"r": l.position, "n1": l.count} for l in self.looks]}


def _fill_segment_chain(
    design: DesignSpec, start: int, start_count: int, end: int, end_count: int, psi: np.ndarray
) -> None:
    """Set ``psi[j - start, m]`` to P(T_{j+1} = 1 | N1(j) = m, N1(end) =
    end_count) for start <= j < end, a block of rows at a time.  A block
    computes only the counts from the first that can reach ``end_count``
    in its first row up to ``end_count``; the rest of a zeroed ``psi``
    stays 0."""
    if not 0 <= start_count <= start:
        raise InfeasibleError(f"count {start_count} at position {start} is outside 0..{start}")
    table = backward_log_table(design, start, end, end_count)
    if table[0, start_count] == _NEG_INF:
        raise InfeasibleError(
            f"look (position {end}, count {end_count}) is unreachable "
            f"from count {start_count} at position {start} under {design.label()}"
        )
    pr = _imbalance_probabilities(design, end)
    rows = max(1, BLOCK_ENTRIES // (end + 1))
    for lo in range(start, end, rows):
        hi = min(lo + rows, end)
        a, b = lo - start, hi - start
        c0, c1 = max(0, end_count - (end - lo)), min(hi, end_count + 1)
        cur, up = table[a:b, c0:c1], table[a + 1 : b + 1, c0 + 1 : c1 + 1]
        with np.errstate(invalid="ignore"):
            ratio = np.where(cur > _NEG_INF, np.exp(up - cur), 0.0)
        # P(T_{j+1} = 1 | N1(j) = m) is pr[end + 2m - j]: a read-only view of pr
        view = (b - a, c1 - c0), (-pr.itemsize, 2 * pr.itemsize)
        box = np.lib.stride_tricks.as_strided(pr[end + 2 * c0 - lo :], *view, writeable=False)
        block = box * ratio
        if block.max(initial=0.0) > 1.0 + 1e-9:
            raise AssertionError("transition probability exceeds 1")
        np.clip(block, 0.0, 1.0, out=psi[a:b, c0:c1])


class ConditionalChain:
    """The design's chain conditioned on look counts, one segment at a time.

    ``table(start, start_count, end, end_count)`` is the segment's
    transition table psi[j - start, m] = P(T_{j+1} = 1 | N1(j) = m,
    N1(end) = end_count), of shape (end - start, end + 2).  It is built on
    first use and then read by every sampler and covariance that holds
    this chain.  ``blocks`` keeps each segment's conditional covariance
    block under the same key, filled by :mod:`condrand.covariance`.
    """

    def __init__(self, design: DesignSpec):
        self.design = design
        self._tables: dict[tuple[int, int, int, int], np.ndarray] = {}
        self.blocks: dict[tuple[int, int, int, int], np.ndarray] = {}

    def table(self, start: int, start_count: int, end: int, end_count: int) -> np.ndarray:
        key = (start, start_count, end, end_count)
        psi = self._tables.get(key)
        if psi is None:
            psi = np.zeros((end - start, end + 2))
            _fill_segment_chain(self.design, *key, psi)
            self._tables[key] = psi
        return psi


class MultilookSampler:
    """Draws sequences satisfying every constraint of a schedule.

    The walk reads the rows of its :class:`ConditionalChain`, one table
    per segment, so repeated draws and batch draws cost O(n) lookups per
    sequence.
    """

    def __init__(self, design: DesignSpec, schedule: LookSchedule):
        self.design = design
        self.schedule = schedule
        self.n = schedule.horizon
        self.chain = ConditionalChain(design)
        # row j of the walk is a view into its segment's table
        self._rows = [row for seg in schedule.segments() for row in self.chain.table(*seg)]

    def prefix(self, through_look: int) -> "MultilookSampler":
        """This sampler cut to the first ``through_look`` looks; it shares
        the chain, so nothing is rebuilt."""
        out = copy.copy(self)
        out.schedule = self.schedule.prefix(through_look)
        out.n = out.schedule.horizon
        out._rows = self._rows[: out.n]
        return out

    def transition(self, j: int, m: int) -> float:
        """Tabulated P(T_{j+1} = 1 | state, constraints ahead)."""
        if not 0 <= j < self.n or not 0 <= m <= j:
            raise ValueError(f"invalid state (j={j}, m={m})")
        return float(self._rows[j][m])

    def draw_batch(self, rng: np.random.Generator | int | None, size: int) -> np.ndarray:
        """A (size, n) int8 matrix of independent constrained sequences."""
        return np.ascontiguousarray(self._walk(rng, int(size)).T).view(np.int8)

    def draw(self, rng: np.random.Generator | int | None = None) -> TreatmentSequence:
        return TreatmentSequence(self.draw_batch(rng, 1)[0])

    def accumulate_statistics(
        self,
        rng: np.random.Generator | int | None,
        size: int,
        score_vectors,
    ) -> np.ndarray:
        """Statistics at each look for ``size`` draws, without storing sequences.

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
        return step_sums(weights, self._walk(rng, int(size)))

    def _walk(self, rng: np.random.Generator | int | None, size: int) -> np.ndarray:
        """An (n, size) bool matrix whose row j holds step j of every draw.

        Uniforms come in blocks of whole steps; ``rng.random((k, size))``
        consumes the stream exactly as ``k`` calls of ``rng.random(size)``,
        so the draws do not depend on the block length.
        """
        if size < 0:
            raise ValueError(f"number of draws must be >= 0, got {size}")
        rng = as_generator(rng)
        steps = np.empty((self.n, size), dtype=bool)
        m = np.zeros(size, dtype=np.intp)
        prob = np.empty(size)
        block = max(1, BLOCK_ENTRIES // max(size, 1))
        for start in range(0, self.n, block):
            uniforms = rng.random((min(block, self.n - start), size))
            for row, u, step in zip(self._rows[start : start + block], uniforms, steps[start:]):
                # counts never leave 0..j, so clipping skips a bounds check only
                row.take(m, out=prob, mode="clip")
                np.less(u, prob, out=step)
                m += step
        return steps


def sample_conditional(
    design: DesignSpec,
    n: int,
    n1: int,
    rng: np.random.Generator | int | None = None,
    size: int | None = None,
):
    """Draw from the reference set {N1(n) = n1}.

    Returns a :class:`TreatmentSequence` when ``size`` is None, else a
    (size, n) int8 matrix.
    """
    sampler = MultilookSampler(design, LookSchedule.single(n, n1))
    if size is None:
        return sampler.draw(rng)
    return sampler.draw_batch(rng, size)


def sample_multilook(
    design: DesignSpec,
    schedule: LookSchedule,
    rng: np.random.Generator | int | None = None,
    size: int | None = None,
):
    """Draw from the reference set satisfying every look of ``schedule``."""
    sampler = MultilookSampler(design, schedule)
    if size is None:
        return sampler.draw(rng)
    return sampler.draw_batch(rng, size)
