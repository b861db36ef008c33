"""Exact laws of the treatment-1 count under restricted randomization.

The biased coin design drives a reflected random walk on the group-size
imbalance, so both the unconditional law of N1(n) and the law of N1(n)
conditional on an interim count N1(j) have closed forms built from
ballot coefficients.  Every probability is available from two backends:

* ``"float"``: the closed forms, evaluated on the log scale with exact
  integer combinatorics, tested to horizon 2000, where each
  log-probability is within 1e-12 of the rational value.  Each value
  steps its ballot series out exactly, and a table is its single values,
  so the two keep the same bits;
* ``"exact"``: rationals from the integer DP of :mod:`condrand.bruteforce`,
  which prices a whole count law per call, in whole-integer passes, for
  verification and exact work (n = 300 in tens of milliseconds, n = 2000
  in seconds).

The coin treats the two arms alike, so P(N1(n) = n1 | N1(j) = m) =
P(N1(n) = n - n1 | N1(j) = j - m).  Every law is therefore priced from
below balance: a start in surplus (2m > j) is mirrored into a start in
deficit, and from balance a count above the midpoint into one below.
From a deficit the walk ends below, at or above balance, or never returns
to balance; from balance it restarts, the unconditional law being the one
from N1(0) = 0.  The mirror only turns a binomial argument k into t - k,
and binom(t, k) = binom(t, t - k), so every value keeps its bits.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .bruteforce import exact_count_law
from .design import COMPLETE, DesignSpec, _imbalance_probabilities
from .errors import NumericalError

__all__ = [
    "unconditional_pmf",
    "conditional_pmf",
    "pmf_table",
    "backward_log_table",
]

_NEG_INF = float("-inf")

# One process-wide memo of read-only float laws, chain tables (row views
# counted) and covariance blocks, at most MEMO_BYTES, least recently used out.
# Only _memoized reads or writes it.
MEMO_BYTES = 5 << 20


class _Memo(OrderedDict):
    """Entries, least recently used first, and their running byte total."""

    nbytes = 0

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_memo = _Memo()


def _memoized(key: tuple, build):
    """The memo's entry under ``key``, now the most recently used.  On a
    miss it is ``build()``, made read-only if an ndarray, and kept unless
    its ``nbytes`` exceed the budget, the least recently used out first."""
    entry = _memo.pop(key, None)
    if entry is None:
        entry = build()
        if isinstance(entry, np.ndarray):
            entry.flags.writeable = False
        if entry.nbytes > MEMO_BYTES:
            return entry
        _memo.nbytes += entry.nbytes
        while _memo.nbytes > MEMO_BYTES:
            _memo.nbytes -= _memo.popitem(last=False)[1].nbytes
    _memo[key] = entry
    return entry


def _ballot_terms(x: int, l_max: int):
    """Yield ``(l, C(x, l))`` for each ``l <= l_max`` with ``C(x, l) > 0``.

    C(x, l) = (x - l)/(x + l) * binom(x + l, l) counts lattice paths with
    ``x`` up-steps and ``l`` down-steps that never return to their starting
    level; C(0, 0) = 1 by convention.  Each is stepped exactly from the
    previous binomial ``binom(x + l, l)`` instead of a fresh ``math.comb``,
    so a whole series costs one pass over its digits.
    """
    if l_max < 0:
        return
    if l_max > x:
        raise ValueError(f"ballot coefficient undefined for l > x ({l_max} > {x})")
    yield 0, 1
    b = 1  # binom(x + l, l)
    for l in range(1, min(l_max, x - 1) + 1):
        b = b * (x + l) // l
        num = (x - l) * b
        c, rem = divmod(num, x + l)
        if rem:
            raise NumericalError(f"ballot numerator {num} is not divisible by {x + l}")
        yield l, c


# ---------------------------------------------------------------------------
# Branch plans for the closed-form laws.


@dataclass(frozen=True)
class _SeriesPlan:
    """One closed-form branch: optionally halved ballot series plus an
    optional no-return correction term, all times a power of p."""

    halved: bool
    p_exp: int
    x: int
    l_max: int
    q_base: int
    trials: int = 0
    correction: tuple[int, int, int] | None = None  # (k1, k2, q_exp)


@dataclass(frozen=True)
class _PurePlan:
    """A branch where the walk never returns to balance: a single binomial
    term ``binom(trials, ones) p^p_exp q^q_exp``."""

    trials: int
    ones: int
    p_exp: int
    q_exp: int


def _plan_unconditional(n: int, n1: int):
    n1 = min(n1, n - n1)  # the mirror: end at or below balance
    if 2 * n1 == n:
        return _SeriesPlan(False, n1, n1, n1 - 1, 0)
    return _SeriesPlan(True, n1, n - n1, n1, n - 2 * n1 - 1)


def _plan_conditional(n: int, n1: int, j: int, m: int):
    """Branch plan for P(N1(n) = n1 | N1(j) = m), 1 <= j < n, feasible state
    off balance."""
    if 2 * m > j:
        # the mirror: a start in surplus is the other arm's start in deficit
        n1, m = n - n1, j - m
    if n1 < j - m:
        # too few future ones to ever reach balance
        return _PurePlan(n - j, n1 - m, n1 - m, n - j - n1 + m)
    if 2 * n1 < n:
        corr = (n1 - m, n1 - j + m, n - j - n1 + m)
        return _SeriesPlan(True, n1 - m, n - n1 - m, n1 + m - j, n - 2 * n1 - 1, n - j, corr)
    if 2 * n1 == n:
        return _SeriesPlan(False, n1 - m, n1 - m, n - j - n1 + m, 0)
    return _SeriesPlan(True, n - n1 - m, n1 - m, n - j - n1 + m, 2 * n1 - n - 1)


# ---------------------------------------------------------------------------
# Float evaluation of the plans.


def _correction_value(trials: int, corr: tuple[int, int, int]) -> int:
    """No-return path count: difference of a binomial and its reflection.

    k2 may be negative, in which case the reflected term is empty.
    """
    k1, k2, _ = corr
    d = math.comb(trials, k1)
    if 0 <= k2 <= trials:
        d -= math.comb(trials, k2)
    if d < 0:
        raise NumericalError(f"negative no-return path count {d}")
    return d


def _eval_series_float(plan: _SeriesPlan, p: float) -> float:
    """The plan's value, its ballot series summed left to right on the log scale."""
    q = 1.0 - p
    logs: list[float] = []
    if q == 0.0:
        # permuted-block limit: only a zero q-exponent survives; q_base >= 0,
        # so that is the l = 0 term when q_base == 0, and log C(x, 0) = 0
        if plan.q_base == 0 and plan.l_max >= 0:
            logs.append(0.0)
    else:
        lq = math.log(q)
        terms = _ballot_terms(plan.x, plan.l_max)
        logs = [math.log(c) + (plan.q_base + l) * lq for l, c in terms]
    main = _NEG_INF
    if logs:
        top = max(logs)
        # left to right from 0.0: the builtin sum compensates since Python 3.12
        total = 0.0
        for v in logs:
            total += math.exp(v - top)
        main = top + math.log(total)
        if plan.halved:
            main += math.log(0.5)
    if plan.correction is not None:
        d = _correction_value(plan.trials, plan.correction)
        q_exp = plan.correction[2]
        if d > 0 and (q > 0.0 or q_exp == 0):
            ld = math.log(d) + (q_exp * math.log(q) if q_exp else 0.0)
            main = np.logaddexp(main, ld)
    if main == _NEG_INF:
        return 0.0
    return math.exp(plan.p_exp * math.log(p) + main)


def _eval_pure_float(plan: _PurePlan, p: float) -> float:
    q = 1.0 - p
    if q == 0.0 and plan.q_exp > 0:
        return 0.0
    log_val = math.log(math.comb(plan.trials, plan.ones)) + plan.p_exp * math.log(p)
    if plan.q_exp:
        log_val += plan.q_exp * math.log(q)
    return math.exp(log_val)


def _complete_pmf(trials: int, ones: int) -> float:
    return math.exp(math.log(math.comb(trials, ones)) - trials * math.log(2.0))


# ---------------------------------------------------------------------------
# Public laws.


def _validate_backend(backend: str) -> bool:
    if backend not in ("float", "exact"):
        raise ValueError(f"backend must be 'float' or 'exact', got {backend!r}")
    return backend == "exact"


def unconditional_pmf(design: DesignSpec, n: int, n1: int, backend: str = "float"):
    """P(N1(n) = n1) under the design: the law given N1(0) = 0.

    Args:
        design: Randomization procedure.
        n: Horizon, >= 1.
        n1: Treatment-1 count, 0 <= n1 <= n.
        backend: ``"float"`` (log-scale) or ``"exact"`` (rational).
    """
    return conditional_pmf(design, n, n1, 0, 0, backend)


def _validate_conditional_args(n: int, n1: int, j: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    if not 0 <= n1 <= n:
        raise ValueError(f"target count {n1} out of range for horizon {n}")
    if not 0 <= j <= n:
        raise ValueError(f"step {j} out of range for horizon {n}")
    if not 0 <= m <= j:
        raise ValueError(f"interim count {m} out of range for step {j}")


def conditional_pmf(
    design: DesignSpec, n: int, n1: int, j: int, m: int, backend: str = "float"
):
    """P(N1(n) = n1 | N1(j) = m) under the design.

    Conventions: equals 1 when ``j == n`` and ``n1 == m``; equals 0 when the
    target is unreachable; equals the unconditional law when ``j == 0``.
    """
    exact = _validate_backend(backend)
    _validate_conditional_args(n, n1, j, m)
    if exact:
        return exact_count_law(design, n, j, m)[n1]
    if j == n:
        return 1.0 if n1 == m else 0.0
    if m > n1 or n - j < n1 - m:
        return 0.0
    if design.kind == COMPLETE:
        return _complete_pmf(n - j, n1 - m)
    if 2 * m == j:
        # balanced interim state, j = 0 among them: the walk restarts afresh
        return _eval_series_float(_plan_unconditional(n - j, n1 - m), design.p)
    plan = _plan_conditional(n, n1, j, m)
    evaluate = _eval_series_float if isinstance(plan, _SeriesPlan) else _eval_pure_float
    return min(evaluate(plan, design.p), 1.0)


def pmf_table(design: DesignSpec, n: int, backend: str = "float", *, given=None):
    """The full vector of P(N1(n) = n1) for n1 = 0..n, or, given
    ``(j, m)``, of P(N1(n) = n1 | N1(j) = m).

    The exact backend prices the whole law in one DP and returns a list
    of Fractions.  The float backend returns an array, a fresh copy of the
    law that the memo keeps under (design, n, given) once it is priced.
    Each count is its :func:`conditional_pmf`, but from balance (2m = j)
    n1 and n - n1 take one plan, so the upper half is mirrored.
    """
    exact = _validate_backend(backend)
    j, m = (0, 0) if given is None else given
    _validate_conditional_args(n, 0, j, m)
    if exact:
        return exact_count_law(design, n, j, m)

    def law() -> np.ndarray:
        mirror = 2 * m == j
        counts = range(n // 2 + 1 if mirror else n + 1)
        half = [conditional_pmf(design, n, n1, j, m) for n1 in counts]
        return np.asarray(half + half[(n - 1) // 2 :: -1] if mirror else half)

    # three items: a chain table's key has five, a covariance block's two
    return _memoized((design, n, None if given is None else (j, m)), law).copy()


# ---------------------------------------------------------------------------
# Bulk tables by backward recursion.
#
# The closed forms above price one state at a time.  Samplers and
# covariance assembly need every reachable state for a fixed target, which
# the one-step backward recursion over the assignment probabilities
# delivers in O(horizon^2); tests pin it to the closed forms.


def _reach(start: int, end: int, target: int) -> tuple[list[int], list[int]]:
    """The bands of steps j = start..end, as lists of lo and hi: at step j,
    the counts lo <= m < hi from which N1(end) = target can still be
    reached, at most ``target`` and short of it by no more than the end - j
    steps left, so at ``end`` the target alone."""
    j = np.arange(start, end + 1)
    return np.maximum(target - (end - j), 0).tolist(), (np.minimum(j, target) + 1).tolist()


def backward_log_table(design: DesignSpec, start: int, end: int, target: int) -> list[np.ndarray]:
    """log P(N1(end) = target | N1(j) = m) on the band of each step j =
    start..end (:func:`_reach`) as ``rows[j - start][m]``: count-indexed
    views of one array that follows each band with a -inf, which is all a
    row gives one count off its band.  The log assignment probabilities are
    taken once, by imbalance, so row j reads them as a stride-2 slice and
    costs two adds and one logaddexp.
    """
    if not 0 <= start < end:
        raise ValueError(f"need 0 <= start < end, got ({start}, {end})")
    if not 0 <= target <= end:
        raise ValueError(f"target {target} out of range for horizon {end}")
    lows, highs = _reach(start, end, target)
    # lows[0] entries of -inf, so that row 0 too starts at count 0, then each band and a -inf
    tops = np.cumsum(np.subtract(highs, lows) + 1) + lows[0]
    band = np.empty(int(tops[-1]))
    band[: lows[0]] = _NEG_INF
    band[tops - 1] = _NEG_INF
    rows = [band[top - hi - 1 : top] for top, hi in zip(tops.tolist(), highs)]
    rows[-1][target] = 0.0
    pr = _imbalance_probabilities(design, end)
    with np.errstate(divide="ignore"):
        lp1, lp0 = np.log(pr), np.log1p(-pr)
        for j in range(end - 1, start - 1, -1):
            idx = j - start
            lo, hi, nxt = lows[idx], highs[idx], rows[idx + 1]
            d = slice(end + 2 * lo - j, end + 2 * hi - j, 2)
            up, down = lp1[d] + nxt[lo + 1 : hi + 1], lp0[d] + nxt[lo:hi]
            np.logaddexp(up, down, out=rows[idx][lo:hi])
    return rows
