"""Exact laws by dynamic programming over walk states.

The DP runs in integer arithmetic and is deliberately ignorant of the
closed forms in :mod:`condrand.distributions`: it carries the exact path
weight of every reachable (count, statistic) state, so its laws are exact.
It backs ``condrand pvalue --exact``, the exact column of table 2 and,
run over zero scores, every count law of ``dist --backend exact``.

Each count's law of the statistic is a polynomial packed into one Python
integer, a fixed-width slot per lattice point, so a step costs one
multiply, one shift and one add per count; zero scores are the one-slot
case.  A lattice too wide to pack keeps one dict per count.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from .design import DesignSpec
from .errors import InfeasibleError

MAX_DP = 40


def _integerize_scores(values) -> tuple[list[int], int]:
    """Represent scores exactly as integers over a common scale.

    Rank-based scores are halves, so small denominators are expected;
    anything that does not collapse to a modest rational scale is refused
    rather than silently approximated.
    """
    fracs = []
    for v in map(float, values):
        f = Fraction(v).limit_denominator(10**4)
        if abs(f - Fraction(v)) > Fraction(1, 10**9):
            raise ValueError(
                f"score {v!r} is not representable on a small rational lattice"
            )
        fracs.append(f)
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    if scale > 10**6:
        raise ValueError(f"scores need scale {scale}, beyond the exact DP's range")
    return [int(f * scale) for f in fracs], scale


# A count's packed statistic law may take up to this many bits (32 MiB);
# a wider lattice keeps one dict per count.
PACK_BITS = 1 << 28


def _forward(design: DesignSpec, ints, j0: int = 0, m0: int = 0, n1: int | None = None):
    """From N1(j0) = m0 through the scores ``ints[j0:]``, ``states[m]``
    maps each statistic reached at count m to its integer path weight,
    each step probability scaled by 2 * denominator(p); complete
    randomization is the coin at p = 1/2.  Given ``n1``, only the states
    that can still end at count ``n1`` are kept.

    Each count's law is one packed integer with a slot per lattice point
    (``_forward_packed``).  A lattice too wide for that keeps one dict per
    count (``_forward_sparse``): one past ``PACK_BITS`` bits per count, or
    one with more than twice as many points as the widest count has
    subsets of the steps, which bound a dict's entries.
    """
    n = len(ints)
    p = design.exact_p()
    den = 2 * p.denominator
    w_p = int(p * den)
    # the weights of T = 1 and of T = 0 from imbalance d = 2m - j, at
    # d + n + 1; d runs from -n to n + 1
    w_one = [w_p] * (n + 1) + [den // 2] + [den - w_p] * (n + 1)
    w_zero = w_one[::-1]

    steps = ints[j0:]
    low = min(steps, default=0)
    unit = math.gcd(*(a - low for a in steps)) or 1
    # a weight is at most den**len(steps), so a slot one bit wider never
    # carries; whole bytes let the slots be read back by slicing
    slot = 8 * ((den ** len(steps)).bit_length() // 8 + 1)
    points = sum(a - low for a in steps) // unit + 1
    if slot * points > PACK_BITS or points > 2 * math.comb(len(steps), len(steps) // 2):
        return _forward_sparse(w_one, w_zero, ints, j0, m0, n1)
    shifts = [(a - low) // unit * slot for a in steps]
    packed = _forward_packed(w_one, w_zero, shifts, j0, m0, n1, n)
    # given n1, the law of that count alone is unpacked; the others stay empty
    return [_unpack(w, slot // 8, low * m, unit) if n1 in (None, m) else {} for m, w in enumerate(packed)]


def _forward_packed(w_one, w_zero, shifts, j0: int, m0: int, n1: int | None, n: int) -> list[int]:
    """``_forward`` with each count's law as one integer: the weight of
    statistic s at count m sits in the slot at bit shifts of
    (s - low * m) / unit, and step j moves a count up by ``shifts[j - j0]``
    bits.  The counts are updated in place, downwards, over the range
    ``lo..hi`` outside which every count is empty."""
    top = n if n1 is None else n1
    states = [0] * (top + 1)
    states[m0] = 1
    lo = hi = m0
    for j, shift in enumerate(shifts, j0):
        # a stay below this count can no longer hit the target count
        reach = 0 if n1 is None else n1 - (n - j - 1)
        hi = min(hi + 1, top)
        for m in range(hi, lo, -1):
            d = 2 * m - j + n + 1
            kept = states[m] * w_zero[d] if m >= reach else 0
            states[m] = kept + (states[m - 1] * w_one[d - 2] << shift)
        states[lo] = states[lo] * w_zero[2 * lo - j + n + 1] if lo >= reach else 0
        while lo < hi and not states[lo]:
            lo += 1
        while hi > lo and not states[hi]:
            hi -= 1
    return states


def _unpack(packed: int, size: int, base: int, unit: int) -> dict[int, int]:
    """The nonzero slots of ``size`` bytes in ``packed``, slot i keyed by
    the statistic ``base + unit * i``."""
    raw = packed.to_bytes(-(-packed.bit_length() // 8), "little")
    slots = (int.from_bytes(raw[at : at + size], "little") for at in range(0, len(raw), size))
    return {base + unit * i: w for i, w in enumerate(slots) if w}


def _forward_sparse(w_one, w_zero, ints, j0: int, m0: int, n1: int | None) -> list[dict[int, int]]:
    """``_forward`` with one dict per count, for lattices too wide to pack."""
    n = len(ints)
    top = n if n1 is None else n1
    states: list[dict[int, int]] = [{} for _ in range(m0)] + [{0: 1}]
    for j in range(j0, n):
        step: list[dict[int, int]] = [{} for _ in range(min(len(states), top) + 1)]
        a = ints[j]
        for m, row in enumerate(states):
            if not row:
                continue
            w1, w0 = w_one[2 * m - j + n + 1], w_zero[2 * m - j + n + 1]
            # counts are visited upwards, so step[m + 1] is still empty here
            if w1 and m < top:
                step[m + 1] = {s + a: w * w1 for s, w in row.items()}
            # prune a stay that can no longer hit the target count
            if w0 and (n1 is None or n - j - 1 >= n1 - m):
                stay = step[m]
                for s, w in row.items():
                    stay[s] = stay.get(s, 0) + w * w0
        states = step
    return states


def exact_count_law(design: DesignSpec, n: int, j: int = 0, m: int = 0) -> list[Fraction]:
    """P(N1(n) = n1 | N1(j) = m) for n1 = 0..n, in rationals: the DP over
    zero scores, at any horizon."""
    if not 0 <= m <= j <= n:
        raise ValueError(f"need 0 <= m <= j <= n, got m = {m}, j = {j}, n = {n}")
    weights = [row.get(0, 0) for row in _forward(design, [0] * n, j, m)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights] + [Fraction(0)] * (n + 1 - len(weights))


def _exact_law(design: DesignSpec, scores, n1: int) -> tuple[dict[int, int], list[int], int, int]:
    """The conditional law of the statistic given N1(n) = n1, in integers:
    (path weight by statistic times ``scale``, the scores times ``scale``,
    ``scale``, total weight)."""
    values = list(getattr(scores, "values", scores))
    n = len(values)
    if not 1 <= n <= MAX_DP:
        raise ValueError(f"exact DP supports 1 <= n <= {MAX_DP}, got {n}")
    if not 0 <= n1 <= n:
        raise ValueError(f"count {n1} out of range for horizon {n}")
    ints, scale = _integerize_scores(values)
    dist = _forward(design, ints, n1=n1)[n1]
    total = sum(dist.values())
    if total == 0:
        raise InfeasibleError(
            f"N1({n}) = {n1} has probability zero under {design.label()}"
        )
    return dist, ints, scale, total


def exact_statistic_distribution(
    design: DesignSpec, scores, n1: int
) -> tuple[np.ndarray, list[Fraction]]:
    """Exact conditional law of the linear statistic sum(scores[j] * T_j).

    Returns the sorted support (floats) and matching probabilities given
    N1(n) = n1.  Scores must sit on a small rational lattice.
    """
    dist, _, scale, total = _exact_law(design, scores, n1)
    support = sorted(dist)
    return np.asarray([s / scale for s in support]), [Fraction(dist[s], total) for s in support]


def exact_conditional_pvalue(design: DesignSpec, scores, n1: int, v_star: float) -> Fraction:
    """Exact P(V >= v* | N1(n) = n1) for the linear statistic of ``scores``."""
    dist, ints, scale, total = _exact_law(design, scores, n1)
    # A float sum of the scores errs by up to n * eps * sum|scores|, so a
    # v_star that close to a lattice point is that point; any other takes
    # the smallest lattice point above it.
    scaled = float(v_star) * scale
    nearest = round(scaled)
    slack = max(1e-9, len(ints) * sys.float_info.epsilon * sum(map(abs, ints)))
    threshold = nearest if abs(scaled - nearest) <= slack else math.ceil(scaled)
    return Fraction(sum(w for s, w in dist.items() if s >= threshold), total)
