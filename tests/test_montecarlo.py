import math

import numpy as np
import pytest

from condrand import (
    DesignSpec,
    InfeasibleError,
    InsufficientAcceptancesError,
    StratifiedData,
    Stratum,
    centered_scores,
    estimate_pvalue_conditional,
    estimate_pvalue_rejection,
    estimate_pvalue_stratified,
    exact_conditional_pvalue,
    k_percentile,
    mc_sample_size,
    negative_binomial_quantile,
    stratified_statistic,
    unconditional_pmf,
)

BCD23 = DesignSpec.bcd(2 / 3)


class TestConditionalEstimator:
    def test_threshold_below_support_is_one(self):
        scores = centered_scores(np.arange(8.0))
        est = estimate_pvalue_conditional(BCD23, 8, 4, scores, -1e9, 500, rng=1)
        assert est.estimate == 1.0 and est.standard_error == 0.0

    def test_se_formula(self):
        scores = centered_scores(np.arange(10.0))
        est = estimate_pvalue_conditional(BCD23, 10, 5, scores, 2.0, 2500, rng=2)
        want = math.sqrt(est.estimate * (1 - est.estimate) / est.n_effective)
        assert est.standard_error == pytest.approx(want)
        assert est.n_effective == 2500

    def test_tracks_exact_value(self):
        rng = np.random.default_rng(5)
        responses = rng.standard_normal(12)
        scores = centered_scores(responses)
        v_star = 4.0
        exact = float(exact_conditional_pvalue(BCD23, scores, 6, v_star))
        est = estimate_pvalue_conditional(BCD23, 12, 6, scores, v_star, 40_000, rng=6)
        se = math.sqrt(exact * (1 - exact) / 40_000)
        assert abs(est.estimate - exact) <= 3 * se

    def test_infeasible_condition(self):
        scores = centered_scores(np.arange(5.0))
        with pytest.raises(InfeasibleError):
            estimate_pvalue_conditional(DesignSpec.bcd(1.0), 5, 5, scores, 0.0, 100, rng=1)


class TestRejectionEstimator:
    def test_agrees_with_enumeration(self):
        scores = centered_scores(np.array([0.1, 0.9, 0.4, 0.6]))
        exact = float(exact_conditional_pvalue(DesignSpec.complete(), scores, 2, 1.0))
        est = estimate_pvalue_rejection(DesignSpec.complete(), 4, 2, scores, 1.0, 60_000, rng=7)
        se = math.sqrt(exact * (1 - exact) / est.n_effective)
        assert abs(est.estimate - exact) <= 3 * se

    def test_cross_method_consistency(self):
        rng = np.random.default_rng(11)
        scores = centered_scores(rng.standard_normal(10))
        v_star = 3.0
        direct = estimate_pvalue_conditional(BCD23, 10, 5, scores, v_star, 30_000, rng=12)
        rej = estimate_pvalue_rejection(BCD23, 10, 5, scores, v_star, 120_000, rng=13)
        combined = math.hypot(direct.standard_error, rej.standard_error)
        assert abs(direct.estimate - rej.estimate) <= 3 * combined

    def test_impossible_count_raises(self):
        scores = centered_scores(np.arange(4.0))
        with pytest.raises(InsufficientAcceptancesError):
            estimate_pvalue_rejection(DesignSpec.bcd(1.0), 4, 4, scores, 0.0, 2000, rng=3)

    def test_effective_size_counts_acceptances(self):
        scores = centered_scores(np.arange(6.0))
        est = estimate_pvalue_rejection(BCD23, 6, 3, scores, 0.0, 5000, rng=9)
        assert 0 < est.n_effective < 5000
        assert est.method == "rejection"


class TestStratifiedEstimator:
    def test_two_strata(self):
        rng = np.random.default_rng(21)
        d = DesignSpec.bcd(0.6)
        xs1, xs2 = rng.standard_normal(8), rng.standard_normal(6)
        t1 = np.array([1, 0, 1, 0, 1, 0, 0, 1])
        t2 = np.array([0, 1, 1, 0, 0, 1])
        data = StratifiedData(
            (
                Stratum(centered_scores(xs1), int(t1.sum()), d),
                Stratum(centered_scores(xs2), int(t2.sum()), d),
            )
        )
        v_star = stratified_statistic(data, [t1, t2])
        est = estimate_pvalue_stratified(data, v_star, 20_000, rng=22)
        assert 0.0 < est.estimate <= 1.0
        assert est.n_effective == 20_000


class TestNegativeBinomialQuantile:
    def test_matches_planning_values(self):
        assert k_percentile(BCD23, 100, 50, 2500, 0.95) == 5117
        assert k_percentile(DesignSpec.bcd(0.75), 200, 100, 2500, 0.95) == 3822

    def test_certain_acceptance(self):
        assert negative_binomial_quantile(2500, 1.0, 0.95) == 2500
        assert k_percentile(DesignSpec.bcd(1.0), 10, 5, 321, 0.9) == 321

    def test_nonincreasing_in_pi(self):
        values = [
            negative_binomial_quantile(250, pi, 0.95)
            for pi in (1e-9, 1e-6, 1e-4, 0.01, 0.2, 0.5, 0.9, 1.0)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 250

    def test_poisson_limit_continuity(self):
        # the small-pi branch agrees with the exact inversion near the switch
        from scipy.special import gammaincinv

        exact = negative_binomial_quantile(2500, 2e-8, 0.95)
        approx = math.ceil(float(gammaincinv(2500, 0.95)) / 2e-8)
        assert abs(exact - approx) / approx < 1e-6

    def test_zero_mass_conditioning(self):
        with pytest.raises(InfeasibleError):
            k_percentile(DesignSpec.bcd(1.0), 10, 4, 100, 0.95)
        assert unconditional_pmf(DesignSpec.bcd(1.0), 10, 4) == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            negative_binomial_quantile(100, 0.0, 0.95)
        with pytest.raises(ValueError):
            negative_binomial_quantile(100, 0.5, 1.0)
        with pytest.raises(ValueError):
            negative_binomial_quantile(0, 0.5, 0.9)


class TestSampleSizePlanning:
    def test_relative_precision_examples(self):
        assert mc_sample_size(0.04, 0.1, 0.99) == 15_924
        assert mc_sample_size(0.5, 0.1, 0.99) == 664

    def test_smaller_pvalues_need_more(self):
        sizes = [mc_sample_size(p) for p in (0.2, 0.1, 0.05, 0.01)]
        assert sizes == sorted(sizes)

    def test_degenerate_inputs(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                mc_sample_size(bad)
