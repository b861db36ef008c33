"""Each output check accepts a right answer and rejects a wrong one.

    python3 -m pytest -q bench

The right answers here come from enumeration or from the formulas, not
from condrand, so these tests run without the program.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import checks
from checks import CheckFailed


def enumerated_law(p: Fraction, n: int, j: int = 0, m: int = 0) -> list[Fraction]:
    """P(N1(n) = k | N1(j) = m) by summing over every continuation."""
    law = [Fraction(0)] * (n + 1)
    for tail in itertools.product((0, 1), repeat=n - j):
        prob, count = Fraction(1), m
        for step, t in enumerate(tail, start=j):
            d = 2 * count - step
            up = Fraction(1, 2) if d == 0 else p if d < 0 else 1 - p
            prob *= up if t else 1 - up
            count += t
        law[count] += prob
    return law


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)])
@pytest.mark.parametrize("n, j, m", [(9, 0, 0), (10, 3, 1), (10, 4, 2), (11, 5, 4)])
def test_forward_law_matches_enumeration(p, n, j, m):
    want = [float(v) for v in enumerated_law(p, n, j, m)]
    np.testing.assert_allclose(checks.forward_law(float(p), n, j, m), want, rtol=0, atol=1e-15)


def test_check_law_rejects_a_perturbed_value_and_a_short_table():
    law = checks.forward_law(0.75, 400)
    checks.check_law(law, law, "law")
    wrong = law.copy()
    wrong[200] += 1e-11
    wrong[201] -= 1e-11  # still sums to one
    with pytest.raises(CheckFailed, match="recursion"):
        checks.check_law(wrong, law, "law")
    with pytest.raises(CheckFailed, match="values"):
        checks.check_law(law[:-1], law, "law")


def test_check_law_rejects_a_table_that_does_not_sum_to_one():
    law = checks.forward_law(0.75, 50, 20, 9)
    scaled = law * (1.0 + 1e-11)
    with pytest.raises(CheckFailed):
        checks.check_law(scaled, scaled, "law")


def boundary_result(kind="obf", alpha=0.05, fractions=(0.36, 0.63, 1.0)):
    inc = checks.spending_increments(kind, alpha, fractions)
    return {
        "d": [40.0, 35.0, 30.0],
        "incremental_alpha": inc,
        "info_fractions": list(fractions),
        "n_used": [2500, 2490, 2480],
        "n_generated": [2500, 2500, 2500],
    }


def test_spending_formulas_at_known_points():
    # OBF spends 2 - 2 Phi(1.959964 / sqrt(t)); at t = 1 it spends alpha
    assert checks.cumulative_spend("obf", 0.05, 1.0) == pytest.approx(0.05, abs=1e-15)
    assert checks.cumulative_spend("obf", 0.05, 0.25) == pytest.approx(
        2.0 - 2.0 * 0.5 * math.erfc(-3.919927969080108 / math.sqrt(2.0)), abs=1e-12
    )
    assert checks.cumulative_spend("pocock", 0.05, 1.0) == pytest.approx(0.05, abs=1e-15)
    inc = checks.spending_increments("pocock", 0.05, (0.5, 1.0))
    s1 = 0.05 * math.log(1.0 + (math.e - 1.0) * 0.5)
    assert inc == pytest.approx([s1, (0.05 - s1) / (1.0 - s1)], abs=1e-15)


@pytest.mark.parametrize("kind", ["obf", "pocock"])
def test_check_boundaries_accepts_its_own_increments(kind):
    checks.check_boundaries(boundary_result(kind), kind, 0.05, 2500)


def test_check_boundaries_rejects_the_other_spending_shape():
    with pytest.raises(CheckFailed, match="increments"):
        checks.check_boundaries(boundary_result("pocock"), "obf", 0.05, 2500)


def test_check_boundaries_rejects_an_increment_off_by_a_little():
    res = boundary_result()
    res["incremental_alpha"][1] += 1e-8
    with pytest.raises(CheckFailed, match="increments"):
        checks.check_boundaries(res, "obf", 0.05, 2500)


@pytest.mark.parametrize("fractions", [(0.5, 0.5, 1.0), (0.7, 0.6, 1.0), (0.3, 0.6, 0.9999999)])
def test_check_boundaries_rejects_bad_fractions(fractions):
    res = boundary_result(fractions=(0.3, 0.6, 1.0))
    res["info_fractions"] = list(fractions)
    with pytest.raises(CheckFailed, match="fraction"):
        checks.check_boundaries(res, "obf", 0.05, 2500)


def test_check_boundaries_rejects_a_stage_that_kept_too_few():
    res = boundary_result()
    res["n_used"][2] = 1999
    with pytest.raises(CheckFailed, match="retained fewer"):
        checks.check_boundaries(res, "obf", 0.05, 2500)


def staged(alpha_l, size=2500, seed=0):
    """Stage statistics with boundaries set at the conservative quantile."""
    rng = np.random.default_rng(seed)
    stages, d, used = [], [], []
    for l, a in enumerate(alpha_l):
        stats = rng.integers(0, 400, size=(size, l + 1)).astype(float)
        keep = np.ones(size, dtype=bool)
        for i in range(l):
            keep &= stats[:, i] <= d[i]
        retained = np.sort(stats[keep, l])
        k = retained.size - int(math.floor(a * retained.size))
        bound = retained[k - 1] if k >= 1 else retained[-1]
        while (retained > bound).sum() > a * retained.size:
            bound += 1.0
        stages.append(stats)
        d.append(float(bound))
        used.append(int(retained.size))
    return stages, d, used


def test_check_boundaries_counts_the_retained_share():
    alpha_l = checks.spending_increments("obf", 0.05, (0.36, 0.63, 1.0))
    stages, d, used = staged(alpha_l)
    res = boundary_result()
    res.update(d=d, n_used=used, n_generated=[2500] * 3)
    checks.check_boundaries(res, "obf", 0.05, 2000, stages)
    # a boundary one lattice step too low lets too many statistics above it
    low = dict(res, d=[d[0], d[1], d[2] - 5.0])
    with pytest.raises(CheckFailed, match="exceed"):
        checks.check_boundaries(low, "obf", 0.05, 2000, stages)
    # a miscounted stage
    with pytest.raises(CheckFailed, match="retains"):
        checks.check_boundaries(dict(res, n_used=[used[0], used[1] + 1, used[2]]), "obf",
                                0.05, 2000, stages)
    with pytest.raises(CheckFailed, match="drew"):
        checks.check_boundaries(dict(res, n_generated=[2500, 2501, 2500]), "obf", 0.05,
                                2000, stages)


@pytest.mark.parametrize("alpha_hat, ok", [(0.05, True), (0.0486, True), (0.0629, True),
                                           (0.0631, False), (0.0299, False), (0.0, False)])
def test_check_attained_level(alpha_hat, ok):
    if ok:
        checks.check_attained_level(alpha_hat, 0.05)
    else:
        with pytest.raises(CheckFailed, match="attained"):
            checks.check_attained_level(alpha_hat, 0.05)


def test_check_pooled_agreement():
    exact = np.array([0.3, 0.6, 1.0, 0.05])
    se = math.sqrt(float((exact * (1 - exact)).sum()) / 2500)
    checks.check_pooled_agreement(exact + np.array([3.9 * se, 0, 0, 0]), exact, 2500)
    checks.check_pooled_agreement([1.0], [1.0], 2500)
    with pytest.raises(CheckFailed, match="standard errors"):
        checks.check_pooled_agreement(exact - np.array([2.1 * se, 2.0 * se, 0, 0]), exact, 2500)
    with pytest.raises(CheckFailed, match="standard errors"):
        checks.check_pooled_agreement([0.9996], [1.0], 2500)


def test_check_null_share():
    uniform = (np.arange(63) + 0.5) / 63
    checks.check_null_share(uniform)
    skewed = uniform.copy()
    skewed[:16] = 0.05  # 16 of 63 at or below 0.1: above 0.1 + 4 SE = 0.251
    with pytest.raises(CheckFailed, match="null p-values"):
        checks.check_null_share(skewed)
    with pytest.raises(CheckFailed, match="no null p-values"):
        checks.check_null_share([])


def test_check_pvalue():
    checks.check_pvalue(0.1236, 2500, 2500)
    with pytest.raises(CheckFailed, match="draws"):
        checks.check_pvalue(0.1236, 2499, 2500)
    with pytest.raises(CheckFailed, match="share"):
        checks.check_pvalue(0.12345, 2500, 2500)
    with pytest.raises(CheckFailed, match="share"):
        checks.check_pvalue(1.5, 2500, 2500)


def test_check_look_counts():
    batch = np.array([[1, 0, 1, 0, 1, 1], [0, 1, 1, 0, 1, 1], [1, 1, 0, 0, 1, 1]], dtype=np.int8)
    looks = [(4, 2), (6, 4)]
    checks.check_look_counts(batch, looks)
    wrong = batch.copy()
    wrong[1, 3] = 1
    with pytest.raises(CheckFailed, match="miss the count"):
        checks.check_look_counts(wrong, looks)
    with pytest.raises(CheckFailed, match="values other"):
        checks.check_look_counts(batch * 2, [(4, 4), (6, 8)])
    with pytest.raises(CheckFailed, match="shape"):
        checks.check_look_counts(batch[:, :5], looks)
