import math

import numpy as np
import pytest

from condrand import (
    DesignSpec,
    InfeasibleError,
    InsufficientAcceptancesError,
    LookSchedule,
    MultilookSampler,
    StratifiedData,
    Stratum,
    centered_scores,
    estimate_pvalue_conditional,
    estimate_pvalue_rejection,
    estimate_pvalue_stratified,
    exact_conditional_pvalue,
    k_percentile,
    linear_rank_statistic,
    mc_sample_size,
    negative_binomial_quantile,
    simulate_unconditional,
    stratified_statistic,
    unconditional_pmf,
)
from oracles import (
    reference_statistic_distribution,
    stratified_statistic_distribution,
    unconditional_batch,
)

BCD23 = DesignSpec.bcd(2 / 3)


def exact_tail_near(support, probs, level):
    """A threshold between two support points and its exact upper tail,
    the first such tail at or below ``level``; no statistic ties it."""
    tail = sum(probs)
    for lo, hi, p in zip(support, support[1:], probs):
        tail -= p
        if tail <= level:
            return (lo + hi) / 2, float(tail)
    raise ValueError(f"no upper tail at or below {level}")


def within_four_standard_errors(est, exact: float) -> bool:
    return abs(est.estimate - exact) <= 4 * math.sqrt(exact * (1 - exact) / est.n_effective)


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

    def test_score_length_checked(self):
        scores = centered_scores(np.arange(4.0))
        with pytest.raises(ValueError, match="scores have length 4, expected 5"):
            estimate_pvalue_conditional(BCD23, 5, 2, scores, 0.0, 100, rng=1)


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

    @pytest.mark.parametrize(
        "p, n, n1",
        [(2 / 3, 10, 5), (2 / 3, 11, 4), (3 / 4, 12, 6), (3 / 4, 9, 5)],
    )
    def test_biased_coin_against_exact_law(self, p, n, n1):
        design = DesignSpec.bcd(p)
        scores = centered_scores(np.random.default_rng(n).standard_normal(n))
        v_star, exact = exact_tail_near(*reference_statistic_distribution(design, scores, n1), 0.2)
        est = estimate_pvalue_rejection(design, n, n1, scores, v_star, 40_000, rng=n1)
        assert est.n_effective > 2000
        assert within_four_standard_errors(est, exact)

    def test_impossible_count_raises(self):
        scores = centered_scores(np.arange(4.0))
        with pytest.raises(InsufficientAcceptancesError):
            estimate_pvalue_rejection(DesignSpec.bcd(1.0), 4, 4, scores, 0.0, 2000, rng=3)

    def test_effective_size_counts_acceptances(self):
        scores = centered_scores(np.arange(6.0))
        est = estimate_pvalue_rejection(BCD23, 6, 3, scores, 0.0, 5000, rng=9)
        assert 0 < est.n_effective < 5000
        assert est.method == "rejection"

    def test_score_length_checked(self):
        scores = centered_scores(np.arange(4.0))
        with pytest.raises(ValueError, match="scores have length 4, expected 5"):
            estimate_pvalue_rejection(BCD23, 5, 2, scores, 0.0, 100, rng=1)

    def test_zero_attempts_rejected(self):
        scores = centered_scores(np.arange(4.0))
        with pytest.raises(ValueError, match="need at least one attempt, got 0"):
            estimate_pvalue_rejection(BCD23, 4, 2, scores, 0.0, 0, rng=1)


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

    @pytest.mark.parametrize("level", [0.05, 0.3])
    def test_against_convolved_exact_laws(self, level):
        rng = np.random.default_rng(23)
        data = StratifiedData(
            (
                Stratum(centered_scores(rng.standard_normal(8)), 4, DesignSpec.bcd(0.6)),
                Stratum(centered_scores(rng.standard_normal(6)), 2, DesignSpec.complete()),
            )
        )
        v_star, exact = exact_tail_near(*stratified_statistic_distribution(data), level)
        est = estimate_pvalue_stratified(data, v_star, 20_000, rng=24)
        assert within_four_standard_errors(est, exact)


    def test_zero_draws_rejected(self):
        d = DesignSpec.bcd(0.6)
        data = StratifiedData((Stratum(centered_scores([1.0, 3.0, 2.0]), 1, d),))
        with pytest.raises(ValueError, match="need at least one draw, got 0"):
            estimate_pvalue_stratified(data, 0.0, 0, rng=1)


class TestTiedDrawsCount:
    """A draw equal to the observed sequence has V = v* and must count.

    Raw scores sum inexactly, so this holds only when the observed and
    the drawn statistics are summed by one rule.  Each dataset's hits
    are recounted from a replay of the estimator's draws: a draw counts
    when it is the observed sequence or when its exact statistic exceeds
    v* by far more than any rounding.
    """

    DESIGN = DesignSpec.bcd(0.75)
    N = 10
    DATASETS = 100

    def _dataset(self, seed, n=N):
        rng = np.random.default_rng(seed)
        observed = simulate_unconditional(self.DESIGN, n, rng)
        return centered_scores(rng.standard_normal(n), "raw"), observed.assignments

    @staticmethod
    def _expected_hits(draws, observed, values):
        """Hits over (strata, draws, n) draws of (strata, n) observed sequences."""
        exact = lambda t: math.fsum(v for tt, vv in zip(t, values) for v in vv[tt == 1])
        v_obs = exact(observed)
        hits = 0
        for draw in zip(*draws):
            same = all((d == o).all() for d, o in zip(draw, observed))
            gap = exact(draw) - v_obs
            assert same or abs(gap) > 1e-9  # no distinct sequence ties v*
            hits += same or gap > 0
        return hits

    @pytest.mark.parametrize("method", ["direct", "rejection"])
    def test_single_stratum(self, method):
        for seed in range(self.DATASETS):
            scores, observed = self._dataset(seed)
            n1 = int(observed.sum())
            v_star = linear_rank_statistic(scores, observed)
            if method == "direct":
                est = estimate_pvalue_conditional(
                    self.DESIGN, self.N, n1, scores, v_star, 400, rng=seed
                )
                sampler = MultilookSampler(self.DESIGN, LookSchedule.single(self.N, n1))
                draws = sampler.draw_batch(seed, 400)
            else:
                est = estimate_pvalue_rejection(
                    self.DESIGN, self.N, n1, scores, v_star, 2000, rng=seed
                )
                draws = unconditional_batch(self.DESIGN, self.N, seed, 2000)
                draws = draws[draws.sum(axis=1) == n1]
            want = self._expected_hits([draws], [observed], [scores.values])
            assert round(est.estimate * est.n_effective) == want, seed

    def test_stratified(self):
        # two strata of 5 subjects, so that both draws often equal the observed
        for seed in range(self.DATASETS):
            (a, t_a), (b, t_b) = self._dataset(2 * seed, 5), self._dataset(2 * seed + 1, 5)
            data = StratifiedData(
                (Stratum(a, int(t_a.sum()), self.DESIGN), Stratum(b, int(t_b.sum()), self.DESIGN))
            )
            v_star = stratified_statistic(data, [t_a, t_b])
            est = estimate_pvalue_stratified(data, v_star, 400, rng=seed)
            rng = np.random.default_rng(seed)
            draws = [
                MultilookSampler(s.design, LookSchedule.single(5, s.n1)).draw_batch(rng, 400)
                for s in data.strata
            ]
            want = self._expected_hits(draws, [t_a, t_b], [a.values, b.values])
            assert round(est.estimate * est.n_effective) == want, seed


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
        with pytest.raises(ValueError, match="relative error must be positive, got 0"):
            mc_sample_size(0.05, rel_error=0.0)
        with pytest.raises(ValueError, match=r"confidence must lie in \(0, 1\), got 1"):
            mc_sample_size(0.05, confidence=1.0)
