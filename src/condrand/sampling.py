"""Direct sampling from the unconditional and the conditional reference sets.

Sequences are generated one assignment at a time by one walk.  For the
unconditional set it reads the design's assignment probabilities; for a
conditional set, transition probabilities that condition on the running
count and on the next count constraint, which by a Bayes/Markov argument
reproduces exactly the law of the procedure restricted to the
constrained set, with no rejection step.
A schedule of several interim constraints is handled segment by segment:
within segment k only the next look's constraint enters the transition.

Segment tables are kept across calls in the process-wide memo of
:mod:`condrand.distributions`, beside the float laws and covariance
blocks, within its ``MEMO_BYTES`` (4 MiB); a larger entry is never kept.
A table is kept as its band alone, under (design, start, start_count,
end, end_count).  A chain that finds its table there copies the band
into zeros, in about a fifth of a build's time at n = 250.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .design import DesignSpec, TreatmentSequence, _imbalance_probabilities
from . import distributions
from .distributions import BLOCK_ENTRIES, _reach, _recall, _remember, backward_log_table
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
        return cls.from_pairs((l["r"], l["n1"]) for l in obj["looks"])

    def to_json(self) -> dict:
        return {"looks": [{"r": l.position, "n1": l.count} for l in self.looks]}


class ConditionalChain:
    """The design's chain conditioned on look counts, one segment at a time.

    ``table(start, start_count, end, end_count)`` is the segment's
    transition table psi[j - start, m] = P(T_{j+1} = 1 | N1(j) = m,
    N1(end) = end_count), of shape (end - start, end + 2).  It is built on
    first use, in the segment's backward log table itself, and then read
    by every sampler and covariance that holds this chain.  Row j is
    exactly 0 off its band, the counts that can still reach ``end_count``,
    so a table the memo keeps as its bands has the bytes of a build.
    ``blocks`` keeps each segment's conditional covariance block under the
    same key, filled by :mod:`condrand.covariance`.
    """

    def __init__(self, design: DesignSpec):
        self.design = design
        self._tables: dict[tuple[int, int, int, int], np.ndarray] = {}
        self.blocks: dict[tuple[int, int, int, int], np.ndarray] = {}

    def table(self, start: int, start_count: int, end: int, end_count: int) -> np.ndarray:
        key = (start, start_count, end, end_count)
        if key in self._tables:
            return self._tables[key]
        if not 0 <= start < end:
            raise ValueError(f"need 0 <= start < end, got positions {start} and {end}")
        if not 0 <= start_count <= start:
            raise InfeasibleError(f"count {start_count} at position {start} is outside 0..{start}")
        lows, highs = _reach(start, end, end_count)
        band = _recall((self.design, *key))
        if band is not None:
            psi = self._tables[key] = np.zeros((end - start, end + 2))
            at = 0
            for row, lo, hi in zip(psi, lows, highs):
                row[lo:hi] = band[at : at + hi - lo]
                at += hi - lo
            return psi
        table = backward_log_table(self.design, start, end, end_count)
        if table[0, start_count] == _NEG_INF:
            raise InfeasibleError(
                f"look (position {end}, count {end_count}) is unreachable "
                f"from count {start_count} at position {start} under {self.design.label()}"
            )
        # Rows turn from log probabilities into psi a block at a time, from
        # the top: the block of rows a..b-1 reads log rows a..b, and row b
        # stays a log row until its own block.  A block computes only the
        # counts from the first of its first row's band to the last of its
        # last row's, and writes 0 over the rest of its rows; inside those
        # counts, a state off its row's band has a log row of -inf, so 0.
        pr = _imbalance_probabilities(self.design, end)
        rows = max(1, BLOCK_ENTRIES // (end + 1))
        for lo in range(start, end, rows):
            hi = min(lo + rows, end)
            a, b = lo - start, hi - start
            c0, c1 = lows[a], highs[b - 1]
            cur, up = table[a:b, c0:c1], table[a + 1 : b + 1, c0 + 1 : c1 + 1]
            with np.errstate(invalid="ignore"):
                ratio = np.where(cur > _NEG_INF, np.exp(up - cur), 0.0)
            # P(T_{j+1} = 1 | N1(j) = m) is pr[end + 2m - j]: a read-only view of pr
            view = (b - a, c1 - c0), (-pr.itemsize, 2 * pr.itemsize)
            box = np.lib.stride_tricks.as_strided(pr[end + 2 * c0 - lo :], *view, writeable=False)
            block = box * ratio
            if block.max(initial=0.0) > 1.0 + 1e-9:
                raise NumericalError("transition probability exceeds 1")
            table[a:b, :c0] = table[a:b, c1:] = 0.0
            np.clip(block, 0.0, 1.0, out=table[a:b, c0:c1])
        psi = self._tables[key] = table[:-1]
        if (sum(highs) - sum(lows)) * psi.itemsize <= distributions.MEMO_BYTES:
            band = np.concatenate([row[lo:hi] for row, lo, hi in zip(psi, lows, highs)])
            _remember((self.design, *key), band)
        return psi


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
            # counts never leave 0..j, so clipping skips a bounds check only
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
        self._work = ()  # accumulate_statistics' buffers, kept for the next call

    def prefix(self, through_look: int) -> "MultilookSampler":
        """This sampler cut to the first ``through_look`` looks; it shares
        the chain, so nothing is rebuilt."""
        out = copy.copy(self)
        out.schedule = self.schedule.prefix(through_look)
        out.n = out.schedule.horizon
        out._rows = self._rows[: out.n]
        out._work = ()
        return out

    def transition(self, j: int, m: int) -> float:
        """Tabulated P(T_{j+1} = 1 | state, constraints ahead)."""
        if not 0 <= j < self.n or not 0 <= m <= j:
            raise ValueError(f"invalid state (j={j}, m={m})")
        return float(self._rows[j][m])

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
        the next call of the same size, so a replicate loop touches no fresh
        pages.  They are never returned; do not share a sampler between threads.

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
        steps = _walk(self._rows, rng, size, _buffers=self._work)
        # the walk is done with its uniforms, so step_sums' float32 steps take their bytes
        uniforms = self._work[3]
        block = uniforms.reshape(-1).view(np.float32).reshape(2 * len(uniforms), size)
        return step_sums(weights, steps, _block=block)


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
