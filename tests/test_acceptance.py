"""Acceptance suite: every criterion from the build contract, one test per
criterion, each printing a PASS line with its measured numbers (run with
``pytest -s tests/test_acceptance.py`` to see them)."""

import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats

from condrand import (
    DesignSpec,
    LookSchedule,
    SpendingFunction,
    centered_scores,
    conditional_pmf,
    covariance_multilook,
    estimate_pvalue_conditional,
    estimate_pvalue_rejection,
    exact_conditional_pvalue,
    incremental_alpha,
    information_at_look,
    k_percentile,
    linear_rank_statistic,
    sample_multilook,
    simulate_unconditional,
    unconditional_pmf,
)
from condrand.experiments import monitored_trial_type_i_error, tail_estimate_repeatability
from condrand.scores import step_sums
from condrand.streams import substream
from oracles import (
    covariance_final,
    covariance_final_exact,
    covariance_multilook_exact,
    enumerate_law,
    exact_covariance,
    oracle_sequence_law,
    walk_branch,
)

BIASES = (0.5, 0.6, 2 / 3, 0.75, 1.0)


def _joint_count_masses(law):
    """masses[(j, m)][n1] = P(N1(j) = m, N1(n) = n1), exactly."""
    masses: dict[tuple[int, int], dict[int, Fraction]] = {}
    n = law.n
    for bits, pr in law.entries.items():
        running = 0
        final = sum(bits)
        for j in range(n + 1):
            if j > 0:
                running += bits[j - 1]
            cell = masses.setdefault((j, running), {})
            cell[final] = cell.get(final, Fraction(0)) + pr
    return masses


def test_criterion_01_planning_grid_values():
    start = time.monotonic()
    for n in (100, 200, 500):
        assert abs(k_percentile(DesignSpec.bcd(2 / 3), n, n // 2, 2500, 0.95) - 5117) <= 1
        assert abs(k_percentile(DesignSpec.bcd(0.75), n, n // 2, 2500, 0.95) - 3822) <= 1
    k45 = k_percentile(DesignSpec.bcd(2 / 3), 100, 45, 2500, 0.95)
    assert abs(k45 - 3_531_344) / 3_531_344 <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\n[PASS] 01 planning grid: 5117/3822 exact, n1=45 cell {k45}, {elapsed:.2f}s")


def test_criterion_02_unconditional_law_oracle():
    start = time.monotonic()
    checked = 0
    for p in BIASES:
        design = DesignSpec.bcd(p)
        for n in range(1, 15):
            law = enumerate_law(design, n)
            marginal: dict[int, Fraction] = {}
            for bits, pr in law.entries.items():
                k = sum(bits)
                marginal[k] = marginal.get(k, Fraction(0)) + pr
            for n1 in range(n + 1):
                want = marginal.get(n1, Fraction(0))
                assert unconditional_pmf(design, n, n1, "exact") == want
                assert abs(unconditional_pmf(design, n, n1) - float(want)) <= 1e-12
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"[PASS] 02 unconditional law: {checked} values exact, {elapsed:.1f}s")


def test_criterion_03_conditional_law_oracle():
    start = time.monotonic()
    checked = 0
    branches_seen = set()
    for p in BIASES:
        design = DesignSpec.bcd(p)
        for n in range(2, 13):
            law = enumerate_law(design, n)
            masses = _joint_count_masses(law)
            for (j, m), cell in masses.items():
                total = sum(cell.values(), start=Fraction(0))
                if total == 0:
                    continue
                for n1 in range(max(0, m), min(n, n - j + m) + 1):
                    want = cell.get(n1, Fraction(0)) / total
                    got = conditional_pmf(design, n, n1, j, m, "exact")
                    assert got == want, (p, n, n1, j, m)
                    branches_seen.add(walk_branch(n, n1, j, m))
                    checked += 1
    required = {
        "deficit_no_return",
        "deficit_end_below",
        "deficit_end_balanced",
        "deficit_end_above",
        "balanced_restart",
        "surplus_end_below",
        "surplus_end_balanced",
        "surplus_end_above",
        "surplus_no_return",
        "unconditional",
        "certain",
    }
    assert required <= branches_seen
    elapsed = time.monotonic() - start
    print(
        f"[PASS] 03 conditional law: {checked} states exact, "
        f"{len(branches_seen)} branches covered, {elapsed:.1f}s"
    )


def _chi_square_gof(batch: np.ndarray, cond_law: dict) -> tuple[float, float]:
    n = batch.shape[1]
    codes = batch.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    observed = np.bincount(codes, minlength=2**n)
    keys = sorted(cond_law)
    expected = np.array([float(cond_law[k]) * batch.shape[0] for k in keys])
    obs = np.array([observed[sum(b << i for i, b in enumerate(k))] for k in keys])
    assert obs.sum() == batch.shape[0], "a draw fell outside the reference set"
    stat = float(((obs - expected) ** 2 / expected).sum())
    return stat, float(stats.chi2.ppf(0.999, len(keys) - 1))


def test_criterion_04_sampler_law_chi_square():
    design = DesignSpec.bcd(2 / 3)
    draws = 1_000_000

    law8 = enumerate_law(design, 8)
    cond = oracle_sequence_law(law8, [(8, 4)])
    batch = sample_multilook(design, LookSchedule.single(8, 4), rng=substream(41, 0), size=draws)
    stat1, crit1 = _chi_square_gof(batch, cond)
    assert stat1 < crit1

    schedule = LookSchedule.from_pairs([(4, 2), (8, 4)])
    cond2 = oracle_sequence_law(law8, [(4, 2), (8, 4)])
    batch2 = sample_multilook(design, schedule, rng=substream(41, 1), size=draws)
    stat2, crit2 = _chi_square_gof(batch2, cond2)
    assert stat2 < crit2
    print(
        f"[PASS] 04 sampler law: chi2 {stat1:.1f} < {crit1:.1f} (single), "
        f"{stat2:.1f} < {crit2:.1f} (two looks), 10^6 draws each"
    )


def test_criterion_05_estimator_consistency():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(5, 13))
        n1 = int(rng.integers((n + 2) // 3, 2 * n // 3 + 1))
        p = float(rng.choice([0.5, 0.6, 2 / 3, 0.75]))
        design = DesignSpec.bcd(p)
        scores = centered_scores(rng.standard_normal(n))
        batch = sample_multilook(design, LookSchedule.single(n, n1), rng, 200)
        support = np.sort(step_sums([scores.values], batch.T)[:, 0])
        v_star = float(support[int(0.8 * support.size)])
        exact = float(exact_conditional_pvalue(design, scores, n1, v_star))

        direct = estimate_pvalue_conditional(
            design, n, n1, scores, v_star, 40_000, substream(90, case, 0)
        )
        se_d = math.sqrt(exact * (1 - exact) / direct.n_effective)
        assert abs(direct.estimate - exact) <= 3 * se_d + 1e-12

        rej = estimate_pvalue_rejection(
            design, n, n1, scores, v_star, 120_000, substream(90, case, 1)
        )
        se_r = math.sqrt(exact * (1 - exact) / rej.n_effective)
        assert abs(rej.estimate - exact) <= 3 * se_r + 1e-12
        if se_d > 0:
            worst = max(
                worst,
                abs(direct.estimate - exact) / se_d,
                abs(rej.estimate - exact) / max(se_r, 1e-30),
            )
    print(f"[PASS] 05 estimator consistency: 20 instances, worst deviation {worst:.2f} SE")


def test_criterion_06_univariate_reformulation_identity():
    design = DesignSpec.bcd(0.6)
    n = 8
    schedule = [(4, 2), (8, 5)]
    responses = np.random.default_rng(64).standard_normal(n)
    law = enumerate_law(design, n)

    def v_at(t, cut):
        return linear_rank_statistic(centered_scores(responses[:cut]), np.array(t[:cut]))

    both = lambda t: sum(t[:4]) == 2 and sum(t) == 5
    first = lambda t: sum(t[:4]) == 2
    v4 = sorted({v_at(t, 4) for t in law.entries if both(t)})
    v8 = sorted({v_at(t, 8) for t in law.entries if both(t)})
    grid1 = v4 + [v - 0.25 for v in v4]
    grid2 = v8 + [v + 0.25 for v in v8]
    checked = 0
    for d1 in grid1:
        inside = law.probability(lambda t: first(t) and v_at(t, 4) <= d1) / law.probability(first)
        alpha1 = 1 - inside
        survivors = lambda t: both(t) and v_at(t, 4) <= d1
        surv_mass = law.probability(survivors)
        if surv_mass == 0:
            continue
        for d2 in grid2:
            joint = law.conditional_probability(
                lambda t: v_at(t, 4) <= d1 and v_at(t, 8) > d2, both
            )
            alpha2 = law.probability(lambda t: survivors(t) and v_at(t, 8) > d2) / surv_mass
            recombined = (1 - alpha1) * alpha2
            assert abs(float(joint - recombined)) <= 1e-12
            checked += 1
    assert checked > 100
    print(f"[PASS] 06 look-wise reformulation: {checked} boundary pairs, exact agreement")


def test_criterion_07_tail_estimate_spread():
    rows = tail_estimate_repeatability(rows=((30, 15), (40, 20)), runs=200, n_c=2500, seed=2012)
    for row in rows:
        assert 0.0050 <= row["sd"] <= 0.0072, row
        se_mean = row["sd"] / math.sqrt(row["runs"])
        assert abs(row["mean"] - row["exact"]) <= 4 * se_mean, row
    msg = ", ".join(
        f"(n={r['n']}: sd={r['sd']:.4f}, mean={r['mean']:.4f} vs exact={r['exact']:.4f})"
        for r in rows
    )
    print(f"[PASS] 07 tail estimate spread: {msg}")


def test_criterion_08_monitored_trial_type_i_error_full_scale():
    out = monitored_trial_type_i_error(
        n=350,
        look_positions=(250, 300, 350),
        p=0.75,
        alpha=0.05,
        n_c=2500,
        replications=1000,
        seed=2012,
    )
    assert abs(out["alpha_hat"] - 0.05) <= 0.013, out["alpha_hat"]
    assert all(used >= 0.8 * 2500 for used in out["boundaries"]["n_used"])
    print(
        f"[PASS] 08a monitored trial (full scale): alpha_hat={out['alpha_hat']:.4f} "
        f"(sd {out['alpha_hat_sd']:.4f}), boundaries={['%.0f' % d for d in out['boundaries']['d']]}"
    )


def test_criterion_08_monitored_trial_smoke_scale():
    start = time.monotonic()
    out = monitored_trial_type_i_error(
        n=100,
        look_positions=(71, 86, 100),
        p=0.75,
        alpha=0.05,
        n_c=2500,
        replications=200,
        seed=2013,
    )
    elapsed = time.monotonic() - start
    assert abs(out["alpha_hat"] - 0.05) <= 0.03, out["alpha_hat"]
    assert elapsed < 600.0
    print(
        f"[PASS] 08b monitored trial (smoke): alpha_hat={out['alpha_hat']:.4f}, {elapsed:.0f}s"
    )


def test_criterion_09_covariance_oracle_and_psd():
    designs = [DesignSpec.bcd(p) for p in BIASES] + [DesignSpec.complete()]
    checked = 0
    worst = 0.0  # production float covariance against the enumeration
    for design in designs:
        for n in (4, 6, 8, 10):
            law = enumerate_law(design, n)
            for n1 in {n // 2, n // 3, n // 2 + 1}:
                if unconditional_pmf(design, n, n1, "exact") == 0:
                    continue
                want = exact_covariance(law, [(n, n1)])
                got = covariance_final_exact(design, n, n1)
                assert (got == want).all(), (design.label(), n, n1)
                got = covariance_final(design, n, n1)
                worst = max(worst, np.abs(got - want.astype(float)).max())
                checked += 1
            mid, k = n // 2, n // 4
            if unconditional_pmf(design, mid, k, "exact") != 0:
                pairs = [(mid, k), (n, n // 2)]
                try:
                    sched = LookSchedule.from_pairs(pairs)
                except ValueError:
                    continue
                if conditional_pmf(design, n, n // 2, mid, k, "exact") == 0:
                    continue
                want = exact_covariance(law, pairs)
                got = covariance_multilook_exact(design, sched)
                assert (got == want).all(), (design.label(), pairs)
                got = covariance_multilook(design, sched)
                worst = max(worst, np.abs(got - want.astype(float)).max())
                checked += 1
    for n, n1 in ((50, 25), (50, 21)):
        sigma = covariance_final(DesignSpec.bcd(0.7), n, n1)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-8
    sigma = covariance_multilook(
        DesignSpec.bcd(0.75), LookSchedule.from_pairs([(25, 13), (50, 26)])
    )
    assert np.linalg.eigvalsh(sigma).min() >= -1e-8
    assert worst <= 1e-12, worst
    print(
        f"[PASS] 09 covariance: {checked} matrices exact vs enumeration, float within "
        f"{worst:.1e}, PSD at n=50"
    )


def test_criterion_10_information_fraction():
    # final look is exactly 1
    rng = np.random.default_rng(77)
    x = rng.standard_normal(12)
    small = LookSchedule.from_pairs([(6, 3), (12, 7)])
    assert information_at_look(DesignSpec.bcd(2 / 3), small, x, 2, mode="full").t == 1.0

    # interim interpolation tracks the full-data value on a trial-sized run
    seed, n = 2012, 350
    design = DesignSpec.bcd(0.75)
    responses = 1.0 + math.sqrt(0.9) * substream(seed, 0).standard_normal(n)
    counts = simulate_unconditional(design, n, substream(seed, 1)).running_counts()
    schedule = LookSchedule.from_pairs((r, int(counts[r - 1])) for r in (250, 300, 350))
    gaps = []
    fulls = []
    for look in (1, 2):
        full = information_at_look(design, schedule, responses, look, mode="full")
        interim = information_at_look(
            design,
            schedule,
            responses[: schedule.looks[look - 1].position],
            look,
            mode="interim",
            bootstrap=100,
            rng=substream(seed, 7, look),
        )
        fulls.append(full.t)
        gaps.append(abs(full.t - interim.t))
        assert gaps[-1] <= 0.02, (look, full.t, interim.t)
    # fractions grow through the trial on this run
    assert fulls[0] < fulls[1] < 1.0

    # conditional spending increments at the reference fractions
    sf = SpendingFunction("obf", 0.05)
    alphas = incremental_alpha(sf, [0.3617, 0.6248, 1.0])
    for got, want in zip(alphas, (0.0011, 0.0121, 0.0373)):
        assert abs(got - want) <= 5e-4
    print(
        f"[PASS] 10 information fraction: t_L=1 exact, interim gaps "
        f"{['%.4f' % g for g in gaps]}, spending increments "
        f"{['%.4f' % a for a in alphas]}"
    )
