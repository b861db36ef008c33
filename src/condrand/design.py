"""Restricted randomization procedures and treatment sequences.

Two procedures are supported: Efron's biased coin design, which assigns
the under-represented treatment with probability ``p`` and tosses a fair
coin at perfect balance, and complete randomization (a fair coin at every
step, the coin at ``p = 1/2``).  This module defines the procedures and
their assignment probabilities; :mod:`condrand.sampling` draws from them.
Other designs are intentionally not accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
        if kind == BCD:
            p = obj["p"]
            if type(p) not in (int, float):
                raise ValueError(f"design field p must be a JSON number, got {p!r}")
            return cls.bcd(float(p))
        return cls(kind)  # complete, or the unknown-kind error

    def to_json(self) -> dict:
        if self.kind == COMPLETE:
            return {"kind": COMPLETE}
        return {"kind": BCD, "p": self.p}

    def exact_p(self) -> Fraction:
        """The bias as an exact rational, a small one (2/3) only if the same float."""
        small = Fraction(self.p).limit_denominator(10**6)
        return small if float(small) == self.p else Fraction(self.p)

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

    def count(self) -> int:
        """Treatment-1 total N1(n)."""
        return int(self.assignments.sum())

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


def _imbalance_probabilities(design: DesignSpec, end: int) -> np.ndarray:
    """The coin rule P(T_{j+1} = 1 | N1(j) = m), 1/2 at balance, p behind and 1 - p
    ahead, at the imbalances d = 2m - j = -end..2 end, the one at d at index d + end."""
    d = np.arange(-end, 2 * end + 1)
    return np.where(d == 0, 0.5, np.where(d < 0, design.p, 1.0 - design.p))
