import tracemalloc
from contextlib import suppress
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from condrand import (
    DesignSpec,
    InfeasibleError,
    InsufficientAcceptancesError,
    LookSchedule,
    MultilookSampler,
    estimate_pvalue_rejection,
    sample_multilook,
    simulate_unconditional,
)
import condrand.distributions as distributions
import condrand.montecarlo as montecarlo
import condrand.sampling as sampling
from condrand.experiments import tail_estimate_repeatability
from condrand.sampling import chain_rows
from condrand.scores import (
    RAW,
    SIMPLE_RANK,
    ScoreVector,
    centered_scores,
    linear_rank_statistic,
    step_sums,
    sums_exactly,
)
from oracles import (
    bands,
    conditional_transition,
    enumerate_law,
    multilook_transition,
    off_band,
    on_band,
    oracle_sequence_law,
    reference_backward_log_table,
    reference_segment_chain,
    sampler_sequence_probability,
    segment_of,
    sequence_probability,
)

BCD23 = DesignSpec.bcd(2 / 3)
COMPLETE = DesignSpec.complete()


class TestLookSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            LookSchedule.from_pairs([(4, 2), (2, 1)])
        with pytest.raises(ValueError):
            LookSchedule.from_pairs([(2, 3)])
        with pytest.raises(ValueError):
            LookSchedule.from_pairs([(2, 0), (4, 3)])  # gain of 3 in 2 steps
        with pytest.raises(ValueError, match="a schedule needs at least one look"):
            LookSchedule(())

    def test_segments_and_prefix(self):
        sch = LookSchedule.from_pairs([(2, 1), (4, 2), (7, 4)])
        assert list(sch.segments()) == [(0, 0, 2, 1), (2, 1, 4, 2), (4, 2, 7, 4)]
        assert sch.prefix(2).horizon == 4
        assert sch.horizon == 7 and sch.final_count == 4

    def test_json_round_trip(self):
        sch = LookSchedule.from_pairs([(3, 1), (6, 4)])
        assert LookSchedule.from_json(sch.to_json()) == sch


class TestConditionalTransition:
    def test_complete_is_random_allocation(self):
        # (n1 - m) / (n - j) for every reachable state
        n, n1 = 7, 3
        for j in range(n):
            for m in range(max(0, n1 - (n - j)), min(j, n1) + 1):
                want = (n1 - m) / (n - j)
                assert conditional_transition(COMPLETE, n, n1, j, m) == pytest.approx(want)

    def test_biased_coin_hand_value(self):
        assert conditional_transition(BCD23, 4, 2, 1, 1) == pytest.approx(0.25)

    def test_forced_assignments(self):
        for j in range(5):
            assert conditional_transition(BCD23, 5, 5, j, j) == 1.0

    def test_unreachable_target_raises(self):
        # under the permuted-block limit, N1(4) = 3 is parity-blocked from (2, 1)
        with pytest.raises(InfeasibleError):
            conditional_transition(DesignSpec.bcd(1.0), 4, 3, 2, 1)
        with pytest.raises(InfeasibleError):
            conditional_transition(BCD23, 4, 4, 2, 1)


class TestMultilookTransition:
    def test_complete_targets_next_look(self):
        sch = LookSchedule.from_pairs([(4, 2), (8, 5)])
        assert multilook_transition(COMPLETE, sch, 1, 1) == pytest.approx((2 - 1) / (4 - 1))
        assert multilook_transition(COMPLETE, sch, 5, 3) == pytest.approx((5 - 3) / (8 - 5))

    def test_single_look_equals_conditional(self):
        sch = LookSchedule.single(6, 4)
        for j in range(6):
            for m in range(max(0, 4 - (6 - j)), min(j, 4) + 1):
                assert multilook_transition(BCD23, sch, j, m) == pytest.approx(
                    conditional_transition(BCD23, 6, 4, j, m)
                )

    def test_hand_value_between_looks(self):
        sch = LookSchedule.from_pairs([(2, 1), (4, 2)])
        assert multilook_transition(BCD23, sch, 2, 1) == pytest.approx(0.5)

    def test_sampler_table_matches_function(self):
        sch = LookSchedule.from_pairs([(4, 2), (10, 5)])
        sampler = MultilookSampler(BCD23, sch)
        for j in range(10):
            start, start_count, end, end_count = segment_of(sch, j)
            lo = max(start_count, end_count - (end - j))
            for m in range(lo, min(j, end_count) + 1):
                want = multilook_transition(BCD23, sch, j, m)
                assert sampler.transition(j, m) == pytest.approx(want, abs=1e-12)

    def test_every_state_of_three_looks(self):
        # off its band a state reads 0.0 by the check alone: the rows are
        # swapped for arrays that hold nan off the band
        sch = LookSchedule.from_pairs([(4, 2), (10, 5), (15, 9)])
        sampler = MultilookSampler(BCD23, sch)
        rows, poisoned = sampler._rows, []
        for j, row in enumerate(rows):
            _, _, end, end_count = segment_of(sch, j)
            (lo, hi), = bands(j, end, end_count, 1)
            poisoned.append(np.full(j + 1, np.nan))
            poisoned[-1][lo:hi] = row[lo:hi]
        sampler._rows = poisoned
        for j in range(sch.horizon):
            _, start_count, end, end_count = segment_of(sch, j)
            (lo, hi), = bands(j, end, end_count, 1)
            for m in range(j + 1):
                got = sampler.transition(j, m)
                if not lo <= m < hi:
                    assert got == 0.0, (j, m)
                    continue
                assert got == rows[j][m]
                if start_count <= m:
                    assert got == pytest.approx(multilook_transition(BCD23, sch, j, m), abs=1e-12)

    @pytest.mark.parametrize("j, m", [(10, 5), (3, 4), (-1, 0)])
    def test_sampler_refuses_an_invalid_state(self, j, m):
        sampler = MultilookSampler(BCD23, LookSchedule.from_pairs([(4, 2), (10, 5)]))
        with pytest.raises(ValueError, match=rf"invalid state \(j={j}, m={m}\)"):
            sampler.transition(j, m)

    def test_accumulate_refuses_a_score_vector_of_the_wrong_length(self):
        sampler = MultilookSampler(BCD23, LookSchedule.from_pairs([(4, 2), (10, 5)]))
        scores = [centered_scores(np.arange(4.0)), centered_scores(np.arange(9.0))]
        with pytest.raises(ValueError, match="score vector for look at 10 has length 9"):
            sampler.accumulate_statistics(1, 5, scores)


class TestSamplers:
    def test_constraints_always_hold(self):
        sch = LookSchedule.from_pairs([(3, 2), (7, 4), (11, 5)])
        batch = sample_multilook(DesignSpec.bcd(0.9), sch, rng=5, size=4000)
        counts = batch.cumsum(axis=1)
        for look in sch.looks:
            assert (counts[:, look.position - 1] == look.count).all()

    def test_single_constraint_batch(self):
        batch = sample_multilook(BCD23, LookSchedule.single(6, 3), rng=11, size=100_000)
        assert (batch.sum(axis=1) == 3).all()

    def test_negative_draw_count_raises(self):
        sampler = MultilookSampler(BCD23, LookSchedule.single(10, 5))
        with pytest.raises(ValueError, match="number of draws must be >= 0, got -1"):
            sampler.draw_batch(1, -1)

    def test_single_draw_type(self):
        seq = sample_multilook(BCD23, LookSchedule.single(9, 4), rng=13)
        assert seq.count() == 4

    def test_complete_two_look_uniform(self):
        # 2x2 admissible sequences, each with probability 1/4
        sch = LookSchedule.from_pairs([(2, 1), (4, 2)])
        sampler = MultilookSampler(COMPLETE, sch)
        for bits in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)):
            assert sampler_sequence_probability(sampler, bits) == pytest.approx(0.25)

    def test_sequence_law_is_conditional_law(self):
        # h(t) = f(t) / P(all constraints): the telescoping identity
        design = DesignSpec.bcd(0.7)
        sch = LookSchedule.from_pairs([(3, 1), (6, 3)])
        sampler = MultilookSampler(design, sch)
        law = enumerate_law(design, 6)
        cond = oracle_sequence_law(law, [(3, 1), (6, 3)])
        for bits, want in cond.items():
            got = sampler_sequence_probability(sampler, bits)
            assert got == pytest.approx(float(want), rel=1e-10)

    def test_empirical_law_chi_square(self):
        design = BCD23
        sch = LookSchedule.from_pairs([(3, 2), (6, 3)])
        law = oracle_sequence_law(enumerate_law(design, 6), [(3, 2), (6, 3)])
        draws = 100_000
        batch = sample_multilook(design, sch, rng=21, size=draws)
        codes = batch @ (1 << np.arange(6))
        observed = np.bincount(codes, minlength=64)
        keys = sorted(law)
        expected = np.array([float(law[k]) * draws for k in keys])
        obs = np.array([observed[sum(b << i for i, b in enumerate(k))] for k in keys])
        assert obs.sum() == draws
        stat = ((obs - expected) ** 2 / expected).sum()
        assert stat < stats.chi2.ppf(0.999, len(keys) - 1)

    def test_matches_direct_ratio_of_laws(self):
        # single-look sampler law equals f(t) / P(N1(n) = n1)
        design = BCD23
        n, n1 = 5, 2
        sampler = MultilookSampler(design, LookSchedule.single(n, n1))
        law = enumerate_law(design, n)
        total = law.probability(lambda t: sum(t) == n1)
        for bits, f in law.entries.items():
            if sum(bits) != n1:
                continue
            got = sampler_sequence_probability(sampler, bits)
            want = float(sequence_probability(design, bits) / total)
            assert got == pytest.approx(want, rel=1e-10)
            assert Fraction(f) == sequence_probability(design, bits)

    def test_infeasible_schedule_names_look(self):
        design = DesignSpec.bcd(1.0)
        with pytest.raises(InfeasibleError, match="position 2"):
            MultilookSampler(design, LookSchedule.from_pairs([(2, 2), (4, 2)]))

    def test_infeasible_final_count(self):
        with pytest.raises(InfeasibleError):
            sample_multilook(DesignSpec.bcd(1.0), LookSchedule.single(4, 4), rng=1)

    def test_accumulate_statistics_matches_batch(self):
        design = DesignSpec.bcd(0.75)
        sch = LookSchedule.from_pairs([(4, 2), (9, 5)])
        sampler = MultilookSampler(design, sch)
        rng = np.random.default_rng(42)
        scores = [np.arange(4.0) - 1.5, np.arange(9.0) - 4.0]
        got = sampler.accumulate_statistics(np.random.default_rng(42), 500, scores)
        batch = sampler.draw_batch(rng, 500)
        want = np.stack([batch[:, :4] @ scores[0], batch @ scores[1]], axis=1)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="need 2 score vectors"):
            sampler.accumulate_statistics(rng, 5, scores[:1])

    def test_extra_score_vectors_raise(self):
        schedule = LookSchedule.from_pairs([(4, 2), (9, 5), (12, 6)])
        sampler = MultilookSampler(DesignSpec.bcd(0.75), schedule)
        scores = [np.arange(float(l.position)) - (l.position - 1) / 2 for l in schedule.looks]
        with pytest.raises(ValueError, match="need 3 score vectors, got 4"):
            sampler.accumulate_statistics(1, 5, scores + scores[-1:])
        assert sampler.accumulate_statistics(1, 5, scores).shape == (5, 3)

    def test_a_stage_sampler_reads_the_whole_schedules_rows(self, empty_memo):
        # the sampler over a look prefix finds every table of the sampler
        # over the whole schedule in the memo, and draws as the reference walk
        design = DesignSpec.bcd(0.7)
        sch = LookSchedule.from_pairs([(5, 3), (11, 5), (16, 9)])
        full = MultilookSampler(design, sch)
        scores = [np.arange(float(l.position)) for l in sch.looks]
        for l in (1, 2, 3):
            stage = MultilookSampler(design, sch.prefix(l))
            assert stage.schedule == sch.prefix(l) and stage.n == sch.looks[l - 1].position
            assert list(map(id, stage._rows)) == list(map(id, full._rows[: stage.n]))
            want = reference_draw_batch(stage, np.random.default_rng(7), 300)
            assert np.array_equal(stage.draw_batch(7, 300), want)
            assert np.array_equal(
                stage.accumulate_statistics(8, 300, scores[:l]),
                reference_accumulate_statistics(stage, np.random.default_rng(8), 300, scores[:l]),
            )
        assert len(empty_memo) == 3 and full.n == 16

    def test_transition_probabilities_in_range(self):
        sch = LookSchedule.from_pairs([(5, 1), (12, 6)])
        for segment in sch.segments():
            r0, _, r1, m1 = segment
            psi = on_band(chain_rows(DesignSpec.bcd(0.95), *segment), r0, r1, m1)
            assert (psi >= 0).all() and (psi <= 1).all()


# Step-by-step reference walks: one ``rng.random(size)`` call per step and,
# for the statistics, one running sum per look added in step order.


def reference_draw_batch(sampler, rng, size):
    out = np.empty((size, sampler.n), dtype=np.int8)
    m = np.zeros(size, dtype=np.int64)
    for j in range(sampler.n):
        t = rng.random(size) < sampler._rows[j][m]
        out[:, j] = t
        m += t
    return out


def reference_accumulate_statistics(sampler, rng, size, score_vectors):
    ends = [l.position for l in sampler.schedule.looks]
    weights = [np.asarray(getattr(sv, "values", sv), dtype=float) for sv in score_vectors]
    stats_ = np.zeros((size, len(ends)))
    m = np.zeros(size, dtype=np.int64)
    for j in range(sampler.n):
        t = rng.random(size) < sampler._rows[j][m]
        m += t
        for l, r in enumerate(ends):
            if j < r:
                stats_[:, l] += t * weights[l][j]
    return stats_


@st.composite
def sampler_cases(draw):
    """A feasible schedule of 1-3 looks, taken from one unconditional path."""
    design = DesignSpec.bcd(draw(st.floats(0.5, 1.0)))
    n = draw(st.integers(1, 40))
    looks = draw(st.integers(1, min(3, n)))
    cuts = st.lists(st.integers(1, max(n - 1, 1)), min_size=looks - 1, max_size=looks - 1, unique=True)
    positions = sorted(draw(cuts)) + [n]
    path = simulate_unconditional(design, n, draw(st.integers(0, 2**32 - 1)))
    counts = path.running_counts()
    schedule = LookSchedule.from_pairs((r, int(counts[r - 1])) for r in positions)
    responses = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    responses = np.round(responses, draw(st.integers(0, 3)))  # rounding makes ties
    return MultilookSampler(design, schedule), responses


class TestBlockedWalkMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        sampler_cases(),
        st.sampled_from([SIMPLE_RANK, RAW]),
        st.sampled_from([1, 3, 2500]),
        st.integers(0, 2**32 - 1),
    )
    def test_statistics_and_draws(self, case, kind, size, seed):
        sampler, responses = case
        scores = [centered_scores(responses[: l.position], kind) for l in sampler.schedule.looks]
        self._check(sampler, scores, size, seed)

    @pytest.mark.parametrize("size", [1, 9000])
    def test_three_looks_at_horizon_60(self, size):
        # one sequence is where a plain einsum would split its sum over the
        # steps; 9000 sequences make blocks of 7 steps, nine of them over
        # the horizon, and exceed einsum's 8192-element buffer
        design = DesignSpec.bcd(0.7)
        schedule = LookSchedule.from_pairs([(25, 12), (41, 20), (60, 31)])
        responses = np.random.default_rng(3).standard_normal(60)
        sampler = MultilookSampler(design, schedule)
        for kind in (SIMPLE_RANK, RAW):
            scores = [centered_scores(responses[: l.position], kind) for l in schedule.looks]
            for seed in range(5):
                self._check(sampler, scores, size, seed)

    @staticmethod
    def _check(sampler, scores, size, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sampler.accumulate_statistics(rng, size, scores)
        want = reference_accumulate_statistics(sampler, ref, size, scores)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        got = sampler.draw_batch(rng, size)
        want = reference_draw_batch(sampler, ref, size)
        assert got.dtype == np.int8 and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


@st.composite
def scored_single_looks(draw):
    """A single-look sampler with n <= 60, and raw, tied-rank or
    half-integer scores for it."""
    design = DesignSpec.bcd(draw(st.floats(0.5, 1.0)))
    n = draw(st.integers(1, 60))
    path = simulate_unconditional(design, n, draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["raw", "tied-rank", "halves"]))
    if kind == "raw":
        sv = centered_scores(rng.standard_normal(n), RAW)
    elif kind == "tied-rank":
        sv = centered_scores(np.round(rng.standard_normal(n), 1))
    else:
        halves = rng.integers(-9, 10, n) / 2.0
        halves[-1] -= halves.sum()
        sv = ScoreVector(halves, RAW)
    return MultilookSampler(design, LookSchedule.single(n, path.count())), sv


class TestOneSummationRule:
    """The observed statistic, a batch of rows and the walk's statistics
    are one sum, so a sequence scores the same float on every route."""

    @settings(max_examples=40, deadline=None)
    @given(scored_single_looks(), st.sampled_from([1, 2, 2500]), st.integers(0, 2**32 - 1))
    def test_routes_agree_bit_for_bit(self, case, size, seed):
        sampler, sv = case
        walked = sampler.accumulate_statistics(np.random.default_rng(seed), size, [sv])
        want = reference_accumulate_statistics(sampler, np.random.default_rng(seed), size, [sv])
        assert walked.tobytes() == want.tobytes()
        batch = sampler.draw_batch(np.random.default_rng(seed), size)
        assert step_sums([sv.values], batch.T)[:, 0].tobytes() == walked[:, 0].tobytes()
        rows = np.array([linear_rank_statistic(sv, row) for row in batch])
        assert rows.tobytes() == walked[:, 0].tobytes()

    def test_calibration_never_copies_the_draws(self):
        # table 2's n = 100 rows score 200000 draws; the walk's bool steps
        # (20 MB) are all it holds, where a (draws, n) copy would add 20 MB
        tracemalloc.start()
        try:
            tail_estimate_repeatability(rows=((100, 50),), runs=1, n_c=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000 * 100 + 10e6, peak


class TestReusedWalkBuffers:
    """``accumulate_statistics`` writes over one set of walk buffers per
    sampler; nothing else may see them."""

    DESIGN = DesignSpec.bcd(0.7)
    SCHEDULE = LookSchedule.from_pairs([(25, 12), (41, 20), (60, 31)])

    def _scores(self, kind, looks=3):
        responses = np.round(np.random.default_rng(3).standard_normal(60), 1)
        return [centered_scores(responses[: l.position], kind) for l in self.SCHEDULE.looks[:looks]]

    def test_returned_arrays_keep_their_bytes(self):
        sampler = MultilookSampler(self.DESIGN, self.SCHEDULE)
        scores = self._scores(SIMPLE_RANK)
        walked = []

        def recording_walk(*args, **kwargs):
            walked.append(sampling._walk(*args, **kwargs))
            return walked[-1]

        def rejection_steps(seed, size):
            # one attempt seldom hits the count; its walk is recorded anyway
            with mock.patch.object(montecarlo, "_walk", recording_walk), suppress(
                InsufficientAcceptancesError
            ):
                estimate_pvalue_rejection(self.DESIGN, 60, 31, scores[-1], 0.0, size, seed)
            return walked[-1]

        single = LookSchedule.single(60, 31)
        makers = [
            (1, lambda seed: sampler.accumulate_statistics(seed, 1, scores)),
            (1, lambda seed: sample_multilook(self.DESIGN, self.SCHEDULE, seed).assignments),
            (1, lambda seed: sampler.draw_batch(seed, 1)),
            (2500, lambda seed: sampler.draw_batch(seed, 2500)),
            (1, lambda seed: sample_multilook(self.DESIGN, single, seed).assignments),
            (1, lambda seed: simulate_unconditional(self.DESIGN, 60, seed).assignments),
            (2500, lambda seed: sampler.accumulate_statistics(seed, 2500, scores)),
            (2500, lambda seed: rejection_steps(seed, 2500)),
        ]
        kept = []
        for seed, (size, make) in enumerate(makers):
            out = make(seed)
            kept.append((out, out.tobytes()))
            # walks of the same shape come first, where shared buffers would be
            for later, later_size in enumerate((size, 1, 2500, size), start=100 * seed):
                sampler.accumulate_statistics(later, later_size, scores)
                MultilookSampler(self.DESIGN, self.SCHEDULE).accumulate_statistics(
                    later, later_size, scores
                )
                simulate_unconditional(self.DESIGN, 60, later)
                rejection_steps(later, later_size)
        for out, before in kept:
            assert out.tobytes() == before

    @pytest.mark.parametrize("kind", [SIMPLE_RANK, RAW])
    def test_reuse_equals_fresh_work(self, kind):
        sampler = MultilookSampler(self.DESIGN, self.SCHEDULE)
        # the stage samplers share the tables but keep buffers of their own
        stages = {l: MultilookSampler(self.DESIGN, self.SCHEDULE.prefix(l)) for l in (1, 2, 3)}
        for seed, size in enumerate([2500, 1, 2500, 3000, 0]):
            for l, stage in [(3, sampler), *stages.items()]:
                scores = self._scores(kind, l)
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                fresh = MultilookSampler(self.DESIGN, self.SCHEDULE.prefix(l))
                got = stage.accumulate_statistics(rng, size, scores)
                want = fresh.accumulate_statistics(ref, size, scores)
                assert got.shape == (size, l) and got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_second_call_allocates_no_steps(self):
        # a repeated call at n = 350 and 2500 draws peaked at 96,136 bytes
        # (the float32 and float64 statistics); a fresh one at 1,535,136,
        # the 875,000-byte step matrix and a 520,000-byte block among them
        schedule = LookSchedule.from_pairs([(250, 126), (300, 148), (350, 174)])
        sampler = MultilookSampler(DesignSpec.bcd(0.75), schedule)
        responses = np.random.default_rng(1).standard_normal(350)
        scores = [centered_scores(responses[: l.position]) for l in schedule.looks]
        sampler.accumulate_statistics(1, 2500, scores)
        tracemalloc.start()
        try:
            sampler.accumulate_statistics(2, 2500, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000, peak


class TestExactContraction:
    """Scores whose sums are exact in float32 take one float32 contraction;
    either path must equal the step-order reference bit for bit."""

    @staticmethod
    def _check(sampler, scores, size, seed=5):
        got = sampler.accumulate_statistics(np.random.default_rng(seed), size, scores)
        want = reference_accumulate_statistics(sampler, np.random.default_rng(seed), size, scores)
        assert got.dtype == np.float64 and got.shape == (size, len(sampler.schedule))
        assert np.array_equal(got, want)
        return got

    @pytest.fixture
    def three_looks(self):
        schedule = LookSchedule.from_pairs([(25, 12), (41, 20), (60, 31)])
        return MultilookSampler(DesignSpec.bcd(0.7), schedule)

    @pytest.mark.parametrize("size", [0, 1, 2, 2500])
    def test_tied_rank_scores(self, three_looks, size):
        responses = np.round(np.random.default_rng(8).standard_normal(60), 1)
        scores = [centered_scores(responses[: l.position]) for l in three_looks.schedule.looks]
        assert all(sums_exactly(sv.values, np.float32) for sv in scores)
        assert len(np.unique(responses)) < 60  # midranks of ties are halves
        self._check(three_looks, scores, size)

    @pytest.mark.parametrize("size", [0, 1, 2500])
    def test_raw_scores(self, three_looks, size):
        responses = np.random.default_rng(9).standard_normal(60)
        scores = [centered_scores(responses[: l.position], RAW) for l in three_looks.schedule.looks]
        assert not any(sums_exactly(sv.values, np.float32) for sv in scores)
        self._check(three_looks, scores, size)

    def test_guard_at_float32_significand(self):
        # every draw takes both steps; 2^23 + 1/2 has no float32, so a
        # float32 sum of the vector just over the guard would round
        sampler = MultilookSampler(DesignSpec.bcd(0.75), LookSchedule.single(2, 2))
        under_guard = np.array([2.0**23 - 1.0, 0.5])  # sum of |2 score| is 2^24 - 1
        over_guard = np.array([2.0**23, 0.5])  # 2^24 + 1
        assert sums_exactly(under_guard, np.float32)
        assert not sums_exactly(over_guard, np.float32)
        assert np.float32(over_guard.sum()) != over_guard.sum()
        assert (self._check(sampler, [under_guard], 3) == 2.0**23 - 0.5).all()
        assert (self._check(sampler, [over_guard], 3) == 2.0**23 + 0.5).all()

    def test_predicate(self):
        assert sums_exactly(np.array([2.0**51, -0.5]), np.float64)
        # 2^53 + 1 rounds to 2^53 in the guard's own sum, which still fails it
        assert not sums_exactly(np.array([2.0**52, 0.5]), np.float64)
        assert not sums_exactly(np.array([2.0**22, -(2.0**22)]), np.float32)
        assert not sums_exactly(np.array([0.25, -0.25]), np.float32)
        assert not sums_exactly(np.array([np.nan, 0.5]), np.float32)
        assert not sums_exactly(np.array([np.inf, -np.inf]), np.float64)


@st.composite
def segment_cases(draw):
    """A design (bias 0.5 and 1.0 included, or complete) and a segment
    (r0, m0, r1, m1), reachable or not."""
    p = draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.5, 1.0)))
    design = draw(st.sampled_from([DesignSpec.bcd(p), COMPLETE]))
    r1 = draw(st.integers(1, 300))
    r0 = draw(st.integers(0, r1 - 1))
    return design, (r0, draw(st.integers(0, r0)), r1, draw(st.integers(0, r1)))


def forced_segments():
    """Segments whose start counts sit at both edges of their reach (0 and
    r0) and between, each with end counts at both edges of its own (every
    step a 0, every step a 1), next to them and between; and single looks."""
    for r0, s in ((0, 60), (10, 50), (41, 60)):
        for m0 in sorted({0, r0 // 2, r0}):
            for m1 in sorted({m0, m0 + 1, m0 + s // 2, m0 + s - 1, m0 + s}):
                yield r0, m0, r0 + s, m1
    yield from ((0, 0, 201, 100), (0, 0, 350, 175), (0, 0, 350, 176))


class TestForcedTransitions:
    """A count whose steps left must all be 1 steps up with probability
    exactly 1, and one that may take no more 1s with exactly 0, so a walk
    never leaves its band.  CI runs this under other numpy and BLAS kernels
    too, as psi's exp takes another path there."""

    @pytest.mark.parametrize(
        "design",
        [DesignSpec.bcd(p) for p in (0.55, 0.6, 2 / 3, 0.75, 0.8, 0.9, 1.0)] + [COMPLETE],
        ids=lambda design: design.label(),
    )
    def test_forced_entries_are_exact(self, design, empty_memo):
        seen = np.zeros(2, dtype=int)
        for r0, m0, r1, m1 in forced_segments():
            try:
                rows = chain_rows(design, r0, m0, r1, m1)
            except InfeasibleError:
                continue
            logs = distributions.backward_log_table(design, r0, r1, m1)
            for j, row, log, (lo, hi) in zip(range(r0, r1), rows, logs, bands(r0, r1, m1, r1 - r0)):
                m = np.arange(lo, hi)
                live = np.isfinite(log[lo:hi])  # the look can still be reached
                up, down = live & (m1 - m == r1 - j), live & (m == m1)
                assert (row[lo:hi][up] == 1.0).all(), (r0, m0, r1, m1, j)
                assert (row[lo:hi][down] == 0.0).all(), (r0, m0, r1, m1, j)
                seen += up.sum(), down.sum()
        assert (seen > 100).all(), seen


def assert_band_bits(rows, want, segment, off):
    """``rows``' band entries have the bytes of the dense reference
    ``want``'s, and every entry of ``want`` off the band is ``off``."""
    r0, _, r1, m1 = segment
    assert on_band(rows, r0, r1, m1).tobytes() == on_band(want, r0, r1, m1).tobytes()
    assert (off_band(want, r0, r1, m1) == off).all()


class TestBlockedChainMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(segment_cases())
    # a start count above 0, and end counts at both edges of its reach
    @example((DesignSpec.bcd(0.6), (10, 4, 60, 4)))
    @example((DesignSpec.bcd(0.75), (10, 4, 60, 54)))
    @example((DesignSpec.bcd(1.0), (41, 20, 101, 51)))
    @example((COMPLETE, (20, 3, 70, 53)))
    def test_table_and_psi_are_the_row_by_row_bits(self, case):
        design, segment = case
        r0, m0, r1, m1 = segment
        # a second chain reads the first one's rows from the memo
        with mock.patch.object(distributions, "_memo", distributions._Memo()):
            table = distributions.backward_log_table(design, r0, r1, m1)
            assert len(table) == r1 - r0 + 1
            reference = reference_backward_log_table(design, r0, r1, m1)
            assert_band_bits(table, reference, segment, -np.inf)
            try:
                want = reference_segment_chain(design, r0, m0, r1, m1)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    chain_rows(design, r0, m0, r1, m1)
                assert not distributions._memo
            else:
                built = chain_rows(design, r0, m0, r1, m1)
                (rows,) = distributions._memo.values()
                assert rows is built and len(rows) == r1 - r0
                assert not rows[0].base.flags.writeable
                assert not any(row.flags.writeable for row in rows)
                assert chain_rows(design, r0, m0, r1, m1) is built
                assert_band_bits(built, want, segment, 0.0)

    @pytest.mark.parametrize(
        "design, segment",
        [
            (DesignSpec.bcd(1.0), (0, 0, 10, 0)),
            (DesignSpec.bcd(1.0), (4, 2, 9, 2)),
            (DesignSpec.bcd(0.75), (10, 3, 20, 2)),
            (COMPLETE, (5, 1, 8, 5)),
        ],
    )
    def test_unreachable_segments_raise(self, design, segment):
        with pytest.raises(InfeasibleError):
            reference_segment_chain(design, *segment)
        with pytest.raises(InfeasibleError):
            chain_rows(design, *segment)

    def test_band_entries_that_cannot_reach_the_look_are_zero(self, empty_memo):
        # under bcd:1, 8 zeros must step up twice, so counts 1 and 2 at step 8
        # lie on the band of count 2 at step 10 and cannot reach it: their log
        # rows are -inf there, and psi is nan until the build zeroes it
        design, segment = DesignSpec.bcd(1.0), (8, 0, 10, 2)
        assert np.isneginf(distributions.backward_log_table(design, 8, 10, 2)[0][1:3]).all()
        rows = chain_rows(design, *segment)
        assert_band_bits(rows, reference_segment_chain(design, *segment), segment, 0.0)
        assert np.isfinite(rows[0].base).all()

    @pytest.mark.parametrize(
        "design, segment",
        [
            *[
                (DesignSpec.bcd(p), (0, 0, 500, n1))
                for p in (2 / 3, 0.75)
                for n1 in (225, 240, 250)
            ],
            # the n = 350 trial's three looks, and an interim denominator
            (DesignSpec.bcd(0.75), (0, 0, 250, 126)),
            (DesignSpec.bcd(0.75), (250, 126, 300, 148)),
            (DesignSpec.bcd(0.75), (300, 148, 350, 174)),
            (DesignSpec.bcd(0.75), (250, 126, 350, 176)),
        ],
    )
    def test_bench_and_golden_horizons_are_the_row_by_row_bits(self, design, segment, empty_memo):
        r0, m0, r1, m1 = segment
        table = distributions.backward_log_table(design, r0, r1, m1)
        assert_band_bits(table, reference_backward_log_table(design, r0, r1, m1), segment, -np.inf)
        want = reference_segment_chain(design, *segment)
        for _ in ("build", "hit"):
            assert_band_bits(chain_rows(design, *segment), want, segment, 0.0)
        assert list(empty_memo) == [(design, *segment)]

    @pytest.mark.parametrize("segment", [(5, -10, 10, 3), (5, 20, 10, 8), (5, 6, 10, 8)])
    def test_start_count_outside_its_range_raises(self, segment):
        with pytest.raises(InfeasibleError, match=f"count {segment[1]} at position 5"):
            chain_rows(DesignSpec.bcd(0.75), *segment)

    @pytest.mark.parametrize("segment", [(5, 2, 3, 1), (5, 2, 5, 2), (5, 2, 5, 3)])
    def test_empty_or_reversed_segment_raises(self, segment):
        # the backward log table refuses it before any array is sized, so a
        # reversed segment is not NumPy's "negative dimensions" error
        message = rf"need 0 <= start < end, got \(5, {segment[2]}\)$"
        with pytest.raises(ValueError, match=message):
            chain_rows(DesignSpec.bcd(0.75), *segment)

    # (0, 0, 2000, 1000) has 1,002,000 band entries; its array adds one -inf
    # after each of the 2001 rows, the last row being the target alone
    BAND_2000 = (1_002_000 + 2001 + 1) * 8

    def test_build_memory_is_one_table(self):
        # psi overwrites the backward log rows in their band, 8 MB where the
        # dense table took 32 MB; above the memo's budget, it is not kept.
        # The temporaries are a row long, and the row views 3% of the band
        n = 2000
        tracemalloc.start()
        try:
            sampler = MultilookSampler(DesignSpec.bcd(0.75), LookSchedule.single(n, n // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band = sampler._rows[0].base.nbytes
        assert band == self.BAND_2000 and peak <= 1.2 * band, (peak, band)

    def test_build_memory_is_one_table_and_its_band(self, monkeypatch, empty_memo):
        # under a budget that holds it, the memo keeps that same band and its
        # views, with no copy
        monkeypatch.setattr(distributions, "MEMO_BYTES", 16 << 20)
        n, n1 = 2000, 1000
        tracemalloc.start()
        try:
            sampler = MultilookSampler(DesignSpec.bcd(0.75), LookSchedule.single(n, n1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = empty_memo[DesignSpec.bcd(0.75), 0, 0, n, n1]
        assert rows[0].base is sampler._rows[0].base
        assert rows[0].base.nbytes == self.BAND_2000 and peak <= 1.2 * self.BAND_2000, peak

    @pytest.mark.parametrize("n", [250, 1000])
    def test_a_hit_allocates_almost_nothing(self, n, empty_memo):
        design, segment = DesignSpec.bcd(0.75), (0, 0, n, n // 2)
        built = chain_rows(design, *segment)
        tracemalloc.start()
        try:
            hit = chain_rows(design, *segment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hit is built and peak < 0.01 * built[0].base.nbytes, peak

    @pytest.mark.parametrize(
        "design, pairs",
        [
            (DesignSpec.bcd(0.75), [(350, 174)]),
            (DesignSpec.bcd(0.75), [(250, 126), (300, 148), (350, 174)]),
            (COMPLETE, [(40, 25), (90, 40), (120, 61)]),
        ],
    )
    def test_a_walk_reads_a_hit_as_a_build(self, design, pairs, empty_memo):
        schedule = LookSchedule.from_pairs(pairs)
        scores = [np.arange(float(r)) - (r - 1) / 2 for r, _ in pairs]
        draws, stats = [], []
        for state in ("build", "hit"):
            assert bool(empty_memo) == (state == "hit")
            sampler = MultilookSampler(design, schedule)
            draws.append(sampler.draw_batch(21, 400))
            stats.append(sampler.accumulate_statistics(22, 400, scores))
        assert draws[0].tobytes() == draws[1].tobytes()
        assert stats[0].tobytes() == stats[1].tobytes()
        want = reference_draw_batch(sampler, np.random.default_rng(21), 400)
        assert np.array_equal(draws[0], want)
