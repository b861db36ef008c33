"""Restricted randomization procedures and treatment sequences.

Two procedures are supported: Efron's biased coin design, which assigns
the under-represented treatment with probability ``p`` and tosses a fair
coin at perfect balance, and complete randomization (a fair coin at every
step).  Both are closed under the conditional machinery implemented in
the rest of the package; other designs are intentionally not accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .streams import as_generator

BCD = "bcd"
COMPLETE = "complete"


@dataclass(frozen=True)
class DesignSpec:
    """A randomization procedure: ``bcd`` with bias ``p`` or ``complete``.

    Args:
        kind: ``"bcd"`` or ``"complete"``.
        p: Biased-coin parameter in [1/2, 1].  ``p = 1/2`` behaves like
            complete randomization, ``p = 1`` is a permuted block of two.
            Ignored (fixed at 1/2) for complete randomization.
    """

    kind: str
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in (BCD, COMPLETE):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == COMPLETE:
            object.__setattr__(self, "p", 0.5)
        elif not 0.5 <= self.p <= 1.0:
            raise ValueError(f"biased-coin parameter must lie in [1/2, 1], got {self.p}")

    @classmethod
    def bcd(cls, p: float) -> "DesignSpec":
        return cls(BCD, float(p))

    @classmethod
    def complete(cls) -> "DesignSpec":
        return cls(COMPLETE)

    @classmethod
    def parse(cls, text: str) -> "DesignSpec":
        """Parse a command-line design string, ``bcd:<p>`` or ``complete``."""
        text = text.strip().lower()
        if text == COMPLETE:
            return cls.complete()
        if text.startswith("bcd:"):
            return cls.bcd(float(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse design {text!r}; expected 'bcd:<p>' or 'complete'")

    @classmethod
    def from_json(cls, obj: dict) -> "DesignSpec":
        kind = obj["kind"].lower()
        if kind == COMPLETE:
            return cls.complete()
        return cls.bcd(float(obj["p"]))

    def to_json(self) -> dict:
        if self.kind == COMPLETE:
            return {"kind": COMPLETE}
        return {"kind": BCD, "p": self.p}

    def exact_p(self) -> Fraction:
        """The bias as an exact rational (small denominators recovered)."""
        return Fraction(self.p).limit_denominator(10**6)

    def label(self) -> str:
        return COMPLETE if self.kind == COMPLETE else f"bcd:{self.p:g}"


@dataclass(frozen=True)
class TreatmentSequence:
    """An ordered 0/1 vector of treatment assignments."""

    assignments: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.assignments, dtype=np.int8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignments must be a nonempty 1-D sequence")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("assignments must contain only 0 and 1")
        object.__setattr__(self, "assignments", arr)

    def __len__(self) -> int:
        return int(self.assignments.size)

    def __iter__(self):
        return iter(int(t) for t in self.assignments)

    def running_counts(self) -> np.ndarray:
        """Treatment-1 totals after 1, 2, ..., n assignments."""
        return np.cumsum(self.assignments, dtype=np.int64)

    def count(self, upto: int | None = None) -> int:
        """Treatment-1 total after the first ``upto`` assignments (all by default)."""
        if upto is None:
            upto = len(self)
        if not 0 <= upto <= len(self):
            raise ValueError(f"prefix length {upto} out of range")
        return int(self.assignments[:upto].sum())

    def imbalances(self) -> np.ndarray:
        """Running differences between group sizes, 2*N1(j) - j."""
        j = np.arange(1, len(self) + 1)
        return 2 * self.running_counts() - j

    @classmethod
    def from_string(cls, text: str) -> "TreatmentSequence":
        bits = text.strip()
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"expected a 0/1 string, got {text!r}")
        return cls(np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0"))

    def to_string(self) -> str:
        return "".join("1" if t else "0" for t in self.assignments)

    def __repr__(self) -> str:
        return f"TreatmentSequence({self.to_string()!r})"


def assignment_probability(design: DesignSpec, j: int, m_j: int) -> float:
    """Probability the next subject is assigned treatment 1.

    Args:
        design: The randomization procedure.
        j: Number of subjects already assigned (step index, >= 0).
        m_j: Treatment-1 count among the first ``j`` assignments.

    Returns:
        P(T_{j+1} = 1 | N1(j) = m_j).
    """
    if j < 0:
        raise ValueError(f"step index must be nonnegative, got {j}")
    if not 0 <= m_j <= j:
        raise ValueError(f"count {m_j} out of range for step {j}")
    if design.kind == COMPLETE:
        return 0.5
    if 2 * m_j == j:
        return 0.5
    return design.p if 2 * m_j < j else 1.0 - design.p


def _probability_row(design: DesignSpec, j: int, m: np.ndarray) -> np.ndarray:
    """Vectorized assignment probabilities at steps ``j`` for counts ``m``,
    broadcast against each other."""
    if design.kind == COMPLETE:
        return np.full(np.broadcast_shapes(np.shape(j), np.shape(m)), 0.5)
    d = 2 * m - j
    return np.where(d == 0, 0.5, np.where(d < 0, design.p, 1.0 - design.p))


def _imbalance_probabilities(design: DesignSpec, end: int) -> np.ndarray:
    """Assignment probabilities at the imbalances d = 2m - j = -end..2 end,
    the one at d at index d + end (count 0 at step -d has imbalance d)."""
    return _probability_row(design, np.arange(end, -2 * end - 1, -1), 0)


def simulate_unconditional(
    design: DesignSpec,
    n: int,
    rng: np.random.Generator | int | None = None,
    size: int | None = None,
):
    """Draw assignment sequences from the unconditional reference set.

    Args:
        design: The randomization procedure.
        n: Sequence length (>= 1).
        rng: Generator or seed.
        size: If None, return a single :class:`TreatmentSequence`;
            otherwise return a ``(size, n)`` int8 array of sequences.

    Each sequence t has probability
    ``(1/2) * prod_j phi_{j+1}^{t_{j+1}} (1 - phi_{j+1})^{1 - t_{j+1}}``.
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    rng = as_generator(rng)
    rows = 1 if size is None else int(size)
    out = np.empty((rows, n), dtype=np.int8)
    m = np.zeros(rows, dtype=np.int64)
    for j in range(n):
        pr = _probability_row(design, j, m)
        t = rng.random(rows) < pr
        out[:, j] = t
        m += t
    if size is None:
        return TreatmentSequence(out[0])
    return out
