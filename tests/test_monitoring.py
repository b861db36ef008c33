import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from condrand import (
    DesignSpec,
    InfeasibleError,
    LookSchedule,
    MultilookSampler,
    SpendingFunction,
    UnderSampleError,
    centered_scores,
    estimate_boundaries,
    incremental_alpha,
    nonparametric_quantile,
    sequential_decision,
    spend,
)
from condrand.bruteforce import exact_statistic_distribution
from condrand.experiments import monitored_trial_type_i_error
from condrand.monitoring import _conservative_boundary
import condrand.covariance as covariance
import condrand.experiments as experiments
import condrand.monitoring as monitoring
import condrand.sampling as sampling
from oracles import (
    conservative_boundary_reference,
    enumerate_law,
    exact_attained_level,
    exact_staged_boundaries,
    exact_statistic_quantile,
    monitored_joint_law,
    oracle_sequence_law,
)

OBF = SpendingFunction("obf", 0.05)


class TestSpend:
    def test_endpoints(self):
        assert spend(OBF, 0.0) == 0.0
        assert spend(OBF, 1.0) == pytest.approx(0.05, abs=1e-12)

    def test_reported_value_at_first_look(self):
        assert spend(OBF, 0.3617) == pytest.approx(0.0011, abs=5e-4)

    def test_monotone_on_grid(self):
        for sf in (OBF, SpendingFunction("pocock", 0.05)):
            grid = np.linspace(0.0, 1.0, 1001)
            values = [spend(sf, t) for t in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_pocock_form(self):
        sf = SpendingFunction("pocock", 0.04)
        assert spend(sf, 1.0) == pytest.approx(0.04, abs=1e-12)
        assert spend(sf, 0.5) == pytest.approx(0.04 * math.log1p((math.e - 1) * 0.5))

    def test_domain(self):
        with pytest.raises(ValueError):
            spend(OBF, 1.5)
        with pytest.raises(ValueError):
            SpendingFunction("obf", 0.0)
        with pytest.raises(ValueError):
            SpendingFunction("wang-tsiatis", 0.05)


class TestIncrementalAlpha:
    def test_reported_trio(self):
        got = incremental_alpha(OBF, [0.3617, 0.6248, 1.0])
        assert got == pytest.approx([0.0011, 0.0121, 0.0373], abs=5e-4)

    def test_single_look_spends_everything(self):
        assert incremental_alpha(OBF, [1.0]) == [pytest.approx(0.05, abs=1e-12)]

    def test_levels_are_probabilities(self):
        got = incremental_alpha(SpendingFunction("pocock", 0.1), [0.2, 0.5, 0.8, 1.0])
        assert all(0.0 <= a <= 1.0 for a in got)

    def test_nonmonotone_rejected(self):
        with pytest.raises(ValueError):
            incremental_alpha(OBF, [0.5, 0.3, 1.0])
        with pytest.raises(ValueError):
            incremental_alpha(OBF, [0.5, 0.9])

    def test_no_fractions_rejected(self):
        with pytest.raises(ValueError, match="need at least one information fraction"):
            incremental_alpha(OBF, [])


class TestNonparametricQuantile:
    def test_uniform_grid_median(self):
        assert nonparametric_quantile(np.arange(1.0, 101.0), 0.5) == pytest.approx(50.5, abs=0.5)

    def test_constant_sample(self):
        assert nonparametric_quantile(np.full(40, 3.25), 0.9) == 3.25

    def test_uniform_draws(self):
        u = np.random.default_rng(3).random(100_000)
        assert nonparametric_quantile(u, 0.9) == pytest.approx(0.9, abs=0.005)
        assert nonparametric_quantile(u, 0.9, method="ecdf") == pytest.approx(0.9, abs=0.005)

    def test_ecdf_is_conservative(self):
        x = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0])
        d = nonparametric_quantile(x, 0.75, method="ecdf")
        assert (x > d).sum() / x.size <= 0.25

    def test_errors(self):
        with pytest.raises(ValueError):
            nonparametric_quantile([], 0.5)
        with pytest.raises(ValueError):
            nonparametric_quantile([1.0], 1.0)
        with pytest.raises(ValueError):
            nonparametric_quantile([1.0], 0.5, method="kernel")


class TestConservativeBoundary:
    @settings(max_examples=300, deadline=None)
    @given(
        ints=st.lists(st.integers(-6, 6), min_size=1, max_size=80),
        scale=st.sampled_from([1.0, 0.5, 0.1, 3.7]),
        level=st.floats(0.01, 0.999),
        method=st.sampled_from(["smooth", "ecdf"]),
    )
    def test_matches_the_walk_over_distinct_values(self, ints, scale, level, method):
        # small integer ranges force ties, where the walk steps past the estimate
        values = np.asarray(ints, dtype=float) * scale
        got = _conservative_boundary(values, level, method)
        want = conservative_boundary_reference(values, level, method)
        assert type(got) is type(want) and got == want

    def test_ecdf_sorts_the_sample_once(self, monkeypatch):
        # under "ecdf" the estimate is the ecdf quantile the rule raises it to
        methods = []
        real = monitoring.nonparametric_quantile
        monkeypatch.setattr(
            monitoring, "nonparametric_quantile", lambda *args: methods.append(args[2]) or real(*args)
        )
        values = np.repeat(np.arange(20.0), 3)
        assert _conservative_boundary(values, 0.9, "ecdf") == real(values, 0.9, "ecdf")
        assert methods == ["ecdf"]


class TestSequentialDecision:
    def test_first_crossing_wins(self):
        d = [2.0, 4.0, 6.0]
        assert sequential_decision([3.0, 0.0, 0.0], d).look == 1
        assert sequential_decision([1.0, 5.0, 0.0], d).look == 2

    def test_strict_inequality(self):
        dec = sequential_decision([2.0, 4.5], [2.0, 4.0])
        assert dec.rejected and dec.look == 2

    def test_no_rejection(self):
        dec = sequential_decision([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert not dec.rejected and dec.look is None

    def test_more_statistics_than_boundaries_rejected(self):
        with pytest.raises(ValueError, match="3 statistics but only 2 boundaries"):
            sequential_decision([1.0, 2.0, 3.0], [2.0, 4.0])


class TestEstimateBoundaries:
    def _setup(self, n=12, seed=4):
        rng = np.random.default_rng(seed)
        design = DesignSpec.bcd(2 / 3)
        responses = rng.standard_normal(n)
        return design, responses

    def test_single_look_matches_exact_quantile(self):
        design, responses = self._setup()
        n, n1 = 12, 6
        schedule = LookSchedule.single(n, n1)
        sf = SpendingFunction("obf", 0.10)
        result = estimate_boundaries(design, schedule, responses, sf, 20_000, rng=5)
        scores = centered_scores(responses)
        exact_d = exact_statistic_quantile(design, scores, n1, 0.10)
        support, _ = exact_statistic_distribution(design, scores, n1)
        gaps = np.diff(support)
        # estimated boundary within one support step of the exact one
        assert abs(result.d[0] - exact_d) <= gaps.max() + 1e-9
        # and conservative: strict tail at d is within the budget, by MC
        _, probs = exact_statistic_distribution(design, scores, n1)
        tail = sum(float(p) for s, p in zip(support, probs) if s > result.d[0])
        assert tail <= 0.10 + 3 * math.sqrt(0.1 * 0.9 / 20_000)

    def test_degenerate_spend_gives_sentinel(self):
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs([(6, 3), (12, 6)])
        sf = SpendingFunction("obf", 0.05)
        # the first fraction is so small the spend underflows to zero
        result = estimate_boundaries(
            design, schedule, responses, sf, 2000, rng=6, info_fractions=[0.01, 1.0]
        )
        assert math.isinf(result.d[0])
        assert result.incremental_alpha[0] == 0.0
        assert math.isfinite(result.d[1])

    def test_zero_sequences_per_stage_rejected(self):
        design, responses = self._setup()
        with pytest.raises(ValueError, match="need at least one sequence per stage, got 0"):
            estimate_boundaries(design, LookSchedule.single(12, 6), responses, OBF, 0, rng=6)

    def test_too_few_responses_rejected(self):
        design, responses = self._setup()
        with pytest.raises(ValueError, match="need 16 responses, got 12"):
            estimate_boundaries(design, LookSchedule.single(16, 8), responses, OBF, 200, rng=6)

    @pytest.mark.parametrize("fractions", [[0.5, 1.0], [0.3, 0.6, 0.9, 1.0]])
    def test_fraction_count_checked_before_any_draw(self, fractions, monkeypatch):
        # before the check, two fractions raised IndexError after two
        # stages, and four ran through and spent less than alpha
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs([(4, 2), (8, 4), (12, 6)])
        walks = []
        monkeypatch.setattr(sampling, "_walk", lambda *args: walks.append(args))
        with pytest.raises(ValueError, match=f"{len(fractions)} information fractions for 3 looks"):
            estimate_boundaries(
                design, schedule, responses, OBF, 2000, rng=6, info_fractions=fractions
            )
        assert walks == []

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"quantile_method": "bogus"}, "method must be 'smooth' or 'ecdf', got 'bogus'"),
            ({"score_kind": "bogus"}, "unknown score kind 'bogus'"),
            ({"info_mode": "bogus"}, "mode must be 'interim' or 'full', got 'bogus'"),
            ({"info_mode": "interim", "bootstrap": 0}, "need at least one replicate, got 0"),
        ],
    )
    def test_options_checked_before_any_table(self, options, message, monkeypatch, empty_memo):
        # before the checks, each of these was refused only after the chain
        # and the covariance blocks of the information fractions were built
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs([(4, 2), (8, 4), (12, 6)])

        def never(*args, **kwargs):
            raise AssertionError("built a table before checking the options")

        monkeypatch.setattr(sampling, "backward_log_table", never)
        monkeypatch.setattr(covariance, "_block_moments_float", never)
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_boundaries(design, schedule, responses, OBF, 2000, rng=6, **options)

    @pytest.mark.parametrize(
        "pairs, options",
        [
            # info_mode and bootstrap are read only to compute the fractions,
            ([(6, 3), (12, 6)], {"info_fractions": [0.5, 1.0], "info_mode": "bogus", "bootstrap": 0}),
            # and the bootstrap only to resample the responses after an interim look
            ([(6, 3), (12, 6)], {"info_mode": "full", "bootstrap": 0}),
            ([(12, 6)], {"info_mode": "interim", "bootstrap": 0}),
        ],
    )
    def test_unread_information_options_pass(self, pairs, options):
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs(pairs)
        result = estimate_boundaries(design, schedule, responses, OBF, 2000, rng=6, **options)
        assert len(result.d) == len(pairs)

    def test_every_stage_is_drawn_through_the_module_sampler(self, monkeypatch):
        # a subclass patched in at monitoring's own name sees every stage,
        # as the bench's retained-share recount needs: a fresh sampler over
        # each look prefix, drawing from the one generator in turn
        stages = []

        class Recording(MultilookSampler):
            def accumulate_statistics(self, *args, **kwargs):
                stages.append(super().accumulate_statistics(*args, **kwargs))
                return stages[-1]

        monkeypatch.setattr(monitoring, "MultilookSampler", Recording)
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs([(4, 2), (8, 4), (12, 6)])
        sf = SpendingFunction("pocock", 0.2)
        result = estimate_boundaries(design, schedule, responses, sf, 2000, rng=6)
        generated = result.n_generated
        assert [s.shape for s in stages] == [(m, l) for l, m in enumerate(generated, start=1)]
        rng = np.random.default_rng(6)  # the full-mode fractions draw nothing
        scores = [centered_scores(responses[: l.position]) for l in schedule.looks]
        for l, (stage, m) in enumerate(zip(stages, generated), start=1):
            fresh = MultilookSampler(design, schedule.prefix(l))
            assert stage.tobytes() == fresh.accumulate_statistics(rng, m, scores[:l]).tobytes()

    def test_unreachable_look_refused_before_any_sweep(self, monkeypatch):
        # the whole schedule's tables are built before the information
        # fractions; here the first look's block would be swept first
        design, responses = DesignSpec.bcd(1.0), self._setup()[1]
        schedule = LookSchedule.from_pairs([(4, 2), (9, 2)])

        def never(*args, **kwargs):
            raise AssertionError("swept a block before refusing the schedule")

        monkeypatch.setattr(covariance, "_block_moments_float", never)
        with pytest.raises(InfeasibleError, match=r"look \(position 9, count 2\) is unreachable"):
            estimate_boundaries(design, schedule, responses, OBF, 2000, rng=6)

    def test_under_sample_error(self):
        design, responses = self._setup()
        schedule = LookSchedule.single(12, 6)
        with pytest.raises(UnderSampleError):
            estimate_boundaries(
                design, schedule, responses, SpendingFunction("obf", 0.05), 50, rng=7
            )

    def test_deterministic_given_seed(self):
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs([(6, 3), (12, 6)])
        sf = SpendingFunction("obf", 0.05)
        a = estimate_boundaries(design, schedule, responses, sf, 3000, rng=42)
        b = estimate_boundaries(design, schedule, responses, sf, 3000, rng=42)
        assert a.d == b.d and a.info_fractions == b.info_fractions

    def test_stage_counts_reported(self):
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs([(6, 3), (12, 6)])
        sf = SpendingFunction("obf", 0.05)
        result = estimate_boundaries(design, schedule, responses, sf, 2000, rng=8)
        assert len(result.n_used) == 2 and len(result.n_generated) == 2
        assert result.n_generated[1] >= 2000
        assert result.n_used[1] <= result.n_generated[1]

    def test_spend_reconstruction(self):
        design, responses = self._setup()
        schedule = LookSchedule.from_pairs([(6, 3), (12, 6)])
        sf = SpendingFunction("obf", 0.05)
        result = estimate_boundaries(design, schedule, responses, sf, 2000, rng=9)
        # alphas recombine to the total level
        total = 0.0
        survive = 1.0
        for a in result.incremental_alpha:
            total += survive * a
            survive *= 1 - a
        assert total == pytest.approx(0.05, abs=1e-12)

    def test_quantile_method_flag(self):
        design, responses = self._setup()
        schedule = LookSchedule.single(12, 6)
        sf = SpendingFunction("obf", 0.2)
        smooth = estimate_boundaries(design, schedule, responses, sf, 5000, rng=10)
        ecdf = estimate_boundaries(
            design, schedule, responses, sf, 5000, rng=10, quantile_method="ecdf"
        )
        scores = centered_scores(responses)
        support, _ = exact_statistic_distribution(design, scores, 6)
        assert abs(smooth.d[0] - ecdf.d[0]) <= np.diff(support).max() + 1e-9


def _lattice_responses(seed, positions):
    """Integer responses whose every look prefix has an integer mean, so
    that centered raw scores are integers and every sum of them is exact."""
    x = np.random.default_rng(seed).integers(0, 10, positions[-1]).astype(float)
    for r in positions:
        x[r - 1] -= x[:r].sum() % r
    return x


PIPELINE_DESIGN = DesignSpec.bcd(0.75)
PIPELINE_SCHEDULES = {
    "2 looks": LookSchedule.from_pairs([(12, 5), (20, 10)]),
    "3 looks": LookSchedule.from_pairs([(16, 9), (20, 10), (24, 12)]),
}


@functools.cache
def _pipeline_case(name, kind):
    schedule = PIPELINE_SCHEDULES[name]
    positions = [look.position for look in schedule.looks]
    x = _lattice_responses(len(positions), positions)
    scores = [centered_scores(x[:r], kind) for r in positions]
    values, weights = monitored_joint_law(PIPELINE_DESIGN, schedule, scores)
    return schedule, x, values, weights


class TestMonitoredPipelineOracle:
    """The staged boundaries, their attained level and the decision rule
    against the exact joint law of the look statistics, at n <= 24."""

    N_C = 20000
    CASES = [(name, kind) for name in PIPELINE_SCHEDULES for kind in ("simple-rank", "raw")]

    @pytest.mark.parametrize("design", [DesignSpec.bcd(2 / 3), DesignSpec.complete()])
    def test_joint_law_matches_enumeration(self, design):
        pairs = [(3, 1), (6, 3), (9, 5)]
        x = _lattice_responses(3, [r for r, _ in pairs])
        scores = [centered_scores(x[:r]) for r, _ in pairs]
        want: dict[tuple, Fraction] = {}
        for t, pr in oracle_sequence_law(enumerate_law(design, 9), pairs).items():
            key = tuple(
                float(sum(Fraction(float(a)) * b for a, b in zip(sv.values, t))) for sv in scores
            )
            want[key] = want.get(key, Fraction(0)) + pr
        values, weights = monitored_joint_law(design, LookSchedule.from_pairs(pairs), scores)
        got = {tuple(v): Fraction(w, sum(weights)) for v, w in zip(values.tolist(), weights)}
        assert got == {k: pr for k, pr in want.items() if pr}

    @pytest.mark.parametrize("name, kind", CASES)
    def test_boundaries_within_one_support_step_and_level(self, name, kind):
        schedule, x, values, weights = _pipeline_case(name, kind)
        fractions = [look.position / schedule.horizon for look in schedule.looks]
        got = estimate_boundaries(
            PIPELINE_DESIGN, schedule, x, OBF, self.N_C, np.random.default_rng(len(fractions)),
            info_fractions=fractions, score_kind=kind,
        )
        want = exact_staged_boundaries(values, weights, got.incremental_alpha)
        assert exact_attained_level(values, weights, want) <= OBF.alpha + 1e-12
        for l, (d, e) in enumerate(zip(got.d, want)):
            support = np.unique(values[:, l])
            i = int(np.searchsorted(support, e))
            assert support[i] == e
            assert support[max(i - 1, 0)] <= d <= support[min(i + 1, support.size - 1)], (l, d, e)
        se = math.sqrt(OBF.alpha * (1.0 - OBF.alpha) / self.N_C)
        assert exact_attained_level(values, weights, got.d) <= OBF.alpha + 4 * se

    @pytest.mark.parametrize("name, kind", CASES)
    def test_decision_agrees_on_every_support_point(self, name, kind):
        schedule, _, values, weights = _pipeline_case(name, kind)
        fractions = [look.position / schedule.horizon for look in schedule.looks]
        bounds = exact_staged_boundaries(values, weights, incremental_alpha(OBF, fractions))
        crossed = values > np.asarray(bounds)
        for row, cross in zip(values, crossed):
            decision = sequential_decision(row, bounds)
            first = int(np.argmax(cross)) + 1 if cross.any() else None
            assert (decision.rejected, decision.look) == (bool(cross.any()), first)

    def test_type_i_error_study_matches_the_exact_level(self, monkeypatch, empty_memo):
        # the study's boundaries come from interim information fractions,
        # so the covariance path runs; its expected alpha_hat is exactly
        # the attained level of the boundaries it returns
        seen, tables = [], []
        real, build = experiments.estimate_boundaries, sampling.backward_log_table
        monkeypatch.setattr(
            sampling, "backward_log_table", lambda *a: tables.append(a) or build(*a)
        )

        def recording(design, schedule, responses, *args, **kwargs):
            seen.append((design, schedule, np.array(responses)))
            return real(design, schedule, responses, *args, **kwargs)

        monkeypatch.setattr(experiments, "estimate_boundaries", recording)
        out = monitored_trial_type_i_error(
            n=24, look_positions=(16, 20, 24), n_c=2500, replications=200, seed=2012
        )
        ((design, schedule, x),) = seen
        # the replicates' sampler reads the boundary sampler's tables from the memo
        assert len(tables) == len(set(tables))
        assert {(design, r0, r1, m1) for r0, _, r1, m1 in schedule.segments()} <= set(tables)
        scores = [centered_scores(x[: look.position]) for look in schedule.looks]
        values, weights = monitored_joint_law(design, schedule, scores)
        level = float(exact_attained_level(values, weights, out["boundaries"]["d"]))
        tolerance = 4 * out["alpha_hat_sd"] / math.sqrt(out["replications"])
        assert abs(out["alpha_hat"] - level) <= tolerance, (out["alpha_hat"], level)
