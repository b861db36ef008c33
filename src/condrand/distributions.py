"""Exact laws of the treatment-1 count under restricted randomization.

The biased coin design drives a reflected random walk on the group-size
imbalance, so both the unconditional law of N1(n) and the law of N1(n)
conditional on an interim count N1(j) have closed forms built from
ballot coefficients.  Every probability is available from two backends:

* ``"float"``: log-scale evaluation with exact integer combinatorics,
  tested to horizon 2000, where each log-probability is within 1e-12 of
  the rational value;
* ``"exact"``: arbitrary-precision rational arithmetic, intended for
  verification and small-sample exact work (horizons up to a few dozen).

Branches of the conditional law are classified by the walk geometry
(start in deficit / balanced / surplus; end below / at / above balance;
or no return to balance at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design import COMPLETE, DesignSpec, _imbalance_probabilities
from .errors import InfeasibleError

__all__ = [
    "unconditional_pmf",
    "conditional_pmf",
    "pmf_table",
    "backward_log_table",
]

_NEG_INF = float("-inf")

# Whole-array passes over a table (the transition fill, the walk and
# ``scores.step_sums``) take this many entries at a time, so their
# temporaries stay small next to the table.
BLOCK_ENTRIES = 1 << 16


def _ballot_int(x: int, l: int) -> int:
    """Ballot coefficient C(x, l) = (x - l)/(x + l) * binom(x + l, l) as an
    exact integer.

    C(x, l) counts lattice paths with ``x`` up-steps and ``l`` down-steps
    that never return to their starting level; C(0, 0) = 1 by convention.
    """
    if l < 0 or x < 0:
        raise ValueError(f"ballot coefficient needs nonnegative arguments, got ({x}, {l})")
    if l > x:
        raise ValueError(f"ballot coefficient undefined for l > x ({l} > {x})")
    if l == 0:
        return 1
    if l == x:
        return 0
    num = (x - l) * math.comb(x + l, l)
    if num % (x + l) != 0:
        raise AssertionError(f"ballot numerator {num} is not divisible by {x + l}")
    return num // (x + l)


def _ballot_terms(x: int, l_max: int):
    """Yield ``(l, C(x, l))`` for each ``l <= l_max`` with ``C(x, l) > 0``.

    The same integers as :func:`_ballot_int`, each stepped exactly from
    the previous binomial ``binom(x + l, l)`` instead of a fresh
    ``math.comb``, so a whole series costs one pass over its digits.
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
            raise AssertionError(f"ballot numerator {num} is not divisible by {x + l}")
        yield l, c


# ---------------------------------------------------------------------------
# Branch plans for the closed-form laws.


@dataclass(frozen=True)
class _SeriesPlan:
    """One closed-form branch: optionally halved ballot series plus an
    optional no-return correction term, all times a power of p."""

    label: str
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

    label: str
    trials: int
    ones: int
    p_exp: int
    q_exp: int


def _plan_unconditional(n: int, n1: int):
    if 2 * n1 == n:
        return _SeriesPlan("end_balanced", False, n1, n1, n1 - 1, 0)
    if 2 * n1 < n:
        return _SeriesPlan("end_below", True, n1, n - n1, n1, n - 2 * n1 - 1)
    return _SeriesPlan("end_above", True, n - n1, n1, n - n1, 2 * n1 - n - 1)


def _plan_conditional(n: int, n1: int, j: int, m: int):
    """Branch plan for P(N1(n) = n1 | N1(j) = m), 1 <= j < n, feasible state."""
    if 2 * m < j:
        # start in deficit: imbalance 2m - j < 0
        if n1 < j - m:
            # too few future ones to ever reach balance
            return _PurePlan("deficit_no_return", n - j, n1 - m, n1 - m, n - j - n1 + m)
        if 2 * n1 < n:
            corr = (n1 - m, n1 - j + m, n - j - n1 + m)
            return _SeriesPlan(
                "deficit_end_below", True, n1 - m, n - n1 - m, n1 + m - j,
                n - 2 * n1 - 1, n - j, corr,
            )
        if 2 * n1 == n:
            return _SeriesPlan("deficit_end_balanced", False, n1 - m, n1 - m, n - j - n1 + m, 0)
        return _SeriesPlan(
            "deficit_end_above", True, n - n1 - m, n1 - m, n - j - n1 + m, 2 * n1 - n - 1
        )
    # start in surplus: imbalance 2m - j > 0 (the balanced start is handled
    # by restarting the unconditional law, see conditional_pmf)
    if 2 * n1 < n:
        return _SeriesPlan(
            "surplus_end_below", True, n1 + m - j, n - j - n1 + m, n1 - m, n - 2 * n1 - 1
        )
    if 2 * n1 == n:
        return _SeriesPlan("surplus_end_balanced", False, n - j - n1 + m, n - j - n1 + m, n1 - m, 0)
    if n1 <= n - m:
        corr = (n1 - m, n1 - j + m, n1 - m)
        return _SeriesPlan(
            "surplus_end_above", True, n - j - n1 + m, n1 + m - j, n - n1 - m,
            2 * n1 - n - 1, n - j, corr,
        )
    # too few future zeros to ever reach balance
    return _PurePlan("surplus_no_return", n - j, n1 - m, n - j - n1 + m, n1 - m)


# ---------------------------------------------------------------------------
# Evaluation backends.


def _correction_value(trials: int, corr: tuple[int, int, int]) -> int:
    """No-return path count: difference of a binomial and its reflection.

    k2 may be negative, in which case the reflected term is empty.
    """
    k1, k2, _ = corr
    d = math.comb(trials, k1)
    if 0 <= k2 <= trials:
        d -= math.comb(trials, k2)
    if d < 0:
        raise AssertionError(f"negative no-return path count {d}")
    return d


def _eval_series_float(plan: _SeriesPlan, p: float) -> float:
    q = 1.0 - p
    logs: list[float] = []
    if q == 0.0:
        # permuted-block limit: only terms with a zero q-exponent survive
        l0 = -plan.q_base
        if 0 <= l0 <= plan.l_max:
            c = _ballot_int(plan.x, l0)
            if c > 0:
                logs.append(math.log(c))
    else:
        lq = math.log(q)
        for l, c in _ballot_terms(plan.x, plan.l_max):
            logs.append(math.log(c) + (plan.q_base + l) * lq)
    main = _NEG_INF
    if logs:
        top = max(logs)
        main = top + math.log(sum(math.exp(v - top) for v in logs))
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


def _eval_series_exact(plan: _SeriesPlan, p: Fraction) -> Fraction:
    q = 1 - p
    total = Fraction(0)
    for l, c in _ballot_terms(plan.x, plan.l_max):
        total += c * q ** (plan.q_base + l)
    if plan.halved:
        total /= 2
    if plan.correction is not None:
        d = _correction_value(plan.trials, plan.correction)
        total += d * q ** plan.correction[2]
    return p**plan.p_exp * total


def _eval_pure_float(plan: _PurePlan, p: float) -> float:
    q = 1.0 - p
    if q == 0.0 and plan.q_exp > 0:
        return 0.0
    log_val = math.log(math.comb(plan.trials, plan.ones)) + plan.p_exp * math.log(p)
    if plan.q_exp:
        log_val += plan.q_exp * math.log(q)
    return math.exp(log_val)


def _eval_pure_exact(plan: _PurePlan, p: Fraction) -> Fraction:
    q = 1 - p
    return math.comb(plan.trials, plan.ones) * p**plan.p_exp * q**plan.q_exp


def _eval_plan(plan, p, exact: bool):
    if isinstance(plan, _SeriesPlan):
        return _eval_series_exact(plan, p) if exact else _eval_series_float(plan, p)
    return _eval_pure_exact(plan, p) if exact else _eval_pure_float(plan, p)


def _complete_pmf(trials: int, ones: int, exact: bool):
    if ones < 0 or ones > trials:
        return Fraction(0) if exact else 0.0
    if exact:
        return Fraction(math.comb(trials, ones), 2**trials)
    return math.exp(math.log(math.comb(trials, ones)) - trials * math.log(2.0))


# ---------------------------------------------------------------------------
# Public laws.


def _validate_backend(backend: str) -> bool:
    if backend not in ("float", "exact"):
        raise ValueError(f"backend must be 'float' or 'exact', got {backend!r}")
    return backend == "exact"


def unconditional_pmf(design: DesignSpec, n: int, n1: int, backend: str = "float"):
    """P(N1(n) = n1) under the design.

    Args:
        design: Randomization procedure.
        n: Horizon, >= 1.
        n1: Treatment-1 count, 0 <= n1 <= n.
        backend: ``"float"`` (log-scale) or ``"exact"`` (rational).
    """
    exact = _validate_backend(backend)
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    if not 0 <= n1 <= n:
        raise ValueError(f"count {n1} out of range for horizon {n}")
    if design.kind == COMPLETE:
        return _complete_pmf(n, n1, exact)
    p = design.exact_p() if exact else design.p
    return _eval_plan(_plan_unconditional(n, n1), p, exact)


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
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    if j == n:
        return one if n1 == m else zero
    if m > n1 or n - j < n1 - m:
        return zero
    if j == 0:
        return unconditional_pmf(design, n, n1, backend)
    if design.kind == COMPLETE:
        return _complete_pmf(n - j, n1 - m, exact)
    if 2 * m == j:
        # balanced interim state: the walk restarts afresh
        return unconditional_pmf(design, n - j, n1 - m, backend)
    p = design.exact_p() if exact else design.p
    value = _eval_plan(_plan_conditional(n, n1, j, m), p, exact)
    if not exact:
        value = min(value, 1.0)
    return value


def pmf_table(design: DesignSpec, n: int, backend: str = "float"):
    """The full vector of P(N1(n) = n1) for n1 = 0..n.

    The law is symmetric, P(N1(n) = n1) = P(N1(n) = n - n1), and both
    counts are priced by the same plan, so the upper half is mirrored.
    """
    exact = _validate_backend(backend)
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    half = [unconditional_pmf(design, n, n1, backend) for n1 in range(n // 2 + 1)]
    values = half + half[(n - 1) // 2 :: -1]
    if exact:
        return values
    return np.asarray(values)


# ---------------------------------------------------------------------------
# Bulk tables by backward recursion.
#
# The closed forms above price one state at a time.  Samplers and
# covariance assembly need every reachable state for a fixed target, which
# the one-step backward recursion over the assignment probabilities
# delivers in O(horizon^2); tests pin it to the closed forms.


def backward_log_table(
    design: DesignSpec, start: int, end: int, target: int
) -> np.ndarray:
    """Log-probability table B[idx, m] = log P(N1(end) = target | N1(start+idx) = m).

    Rows run over steps ``start..end``; entries for unreachable states
    are ``-inf``.  The log assignment probabilities are taken once, by
    imbalance, so row j reads them as a stride-2 slice and computes only
    the counts that can still reach the target, with two adds and one
    logaddexp; the entries off that band stay ``-inf``.
    """
    if not 0 <= start < end:
        raise ValueError(f"need 0 <= start < end, got ({start}, {end})")
    if not 0 <= target <= end:
        raise ValueError(f"target {target} out of range for horizon {end}")
    steps = end - start
    table = np.full((steps + 1, end + 2), _NEG_INF)
    table[steps, target] = 0.0
    pr = _imbalance_probabilities(design, end)
    with np.errstate(divide="ignore"):
        lp1, lp0 = np.log(pr), np.log1p(-pr)
        for j in range(end - 1, start - 1, -1):
            lo, hi = max(0, target - (end - j)), min(j, target) + 1
            idx, d = j - start, slice(end + 2 * lo - j, end + 2 * hi - j, 2)
            up, down = lp1[d] + table[idx + 1, lo + 1 : hi + 1], lp0[d] + table[idx + 1, lo:hi]
            np.logaddexp(up, down, out=table[idx, lo:hi])
    return table


def require_feasible(design: DesignSpec, n: int, n1: int) -> float:
    """Return P(N1(n) = n1), raising if the conditioning event is null."""
    pi = unconditional_pmf(design, n, n1)
    if pi <= 0.0:
        raise InfeasibleError(
            f"N1({n}) = {n1} has probability zero under {design.label()}"
        )
    return pi
