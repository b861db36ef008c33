import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from condrand import (
    DesignSpec,
    InfeasibleError,
    LookSchedule,
    MultilookSampler,
    sample_conditional,
    sample_multilook,
)
import condrand.distributions as distributions
import condrand.sampling as sampling
from condrand.design import simulate_unconditional
from condrand.experiments import tail_estimate_repeatability
from condrand.sampling import ConditionalChain
from condrand.scores import (
    RAW,
    SIMPLE_RANK,
    ScoreVector,
    centered_scores,
    linear_rank_statistic,
    statistic_batch,
    sums_exactly,
)
from oracles import (
    conditional_transition,
    enumerate_law,
    multilook_transition,
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


class TestSamplers:
    def test_constraints_always_hold(self):
        sch = LookSchedule.from_pairs([(3, 2), (7, 4), (11, 5)])
        batch = sample_multilook(DesignSpec.bcd(0.9), sch, rng=5, size=4000)
        counts = batch.cumsum(axis=1)
        for look in sch.looks:
            assert (counts[:, look.position - 1] == look.count).all()

    def test_single_constraint_batch(self):
        batch = sample_conditional(BCD23, 6, 3, rng=11, size=100_000)
        assert (batch.sum(axis=1) == 3).all()

    def test_single_draw_type(self):
        seq = sample_conditional(BCD23, 9, 4, rng=13)
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
            sample_conditional(DesignSpec.bcd(1.0), 4, 4, rng=1)

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

    def test_prefix_draws_as_a_fresh_sampler(self):
        design = DesignSpec.bcd(0.7)
        sch = LookSchedule.from_pairs([(5, 3), (11, 5), (16, 9)])
        full = MultilookSampler(design, sch)
        scores = [np.arange(float(l.position)) for l in sch.looks]
        for l in (1, 2, 3):
            cut, fresh = full.prefix(l), MultilookSampler(design, sch.prefix(l))
            assert cut.chain is full.chain and cut.schedule == sch.prefix(l)
            assert np.array_equal(cut.draw_batch(7, 300), fresh.draw_batch(7, 300))
            assert np.array_equal(
                cut.accumulate_statistics(8, 300, scores[:l]),
                fresh.accumulate_statistics(8, 300, scores[:l]),
            )
        assert full.n == 16

    def test_prefix_keeps_the_subclass(self):
        class Recording(MultilookSampler):
            pass

        sampler = Recording(BCD23, LookSchedule.from_pairs([(2, 1), (4, 2)]))
        assert type(sampler.prefix(1)) is Recording

    def test_transition_probabilities_in_range(self):
        sch = LookSchedule.from_pairs([(5, 1), (12, 6)])
        chain = MultilookSampler(DesignSpec.bcd(0.95), sch).chain
        for segment in sch.segments():
            psi = chain.table(*segment)
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
        assert statistic_batch(sv, batch).tobytes() == walked[:, 0].tobytes()
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


class TestBlockedChainMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(segment_cases(), st.sampled_from([1, 7, 300, distributions.BLOCK_ENTRIES]))
    def test_table_and_psi_are_the_row_by_row_bits(self, case, block):
        design, (r0, m0, r1, m1) = case
        # the backward table works row by row; only the fill is blocked
        with mock.patch.object(sampling, "BLOCK_ENTRIES", block):
            table = distributions.backward_log_table(design, r0, r1, m1)
            assert table.tobytes() == reference_backward_log_table(design, r0, r1, m1).tobytes()
            try:
                want = reference_segment_chain(design, r0, m0, r1, m1)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    ConditionalChain(design).table(r0, m0, r1, m1)
            else:
                assert ConditionalChain(design).table(r0, m0, r1, m1).tobytes() == want.tobytes()

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
            ConditionalChain(design).table(*segment)

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
    def test_bench_and_golden_horizons_are_the_row_by_row_bits(self, design, segment):
        r0, m0, r1, m1 = segment
        table = distributions.backward_log_table(design, r0, r1, m1)
        assert table.tobytes() == reference_backward_log_table(design, r0, r1, m1).tobytes()
        want = reference_segment_chain(design, *segment)
        assert ConditionalChain(design).table(*segment).tobytes() == want.tobytes()

    @pytest.mark.parametrize("segment", [(5, -10, 10, 3), (5, 20, 10, 8), (5, 6, 10, 8)])
    def test_start_count_outside_its_range_raises(self, segment):
        with pytest.raises(InfeasibleError, match=f"count {segment[1]} at position 5"):
            ConditionalChain(DesignSpec.bcd(0.75)).table(*segment)

    def test_build_memory_is_the_two_tables(self):
        # the table and psi of n = 2000 take 61 MiB; the block passes add
        # temporaries of about BLOCK_ENTRIES entries, not of table size
        n = 2000
        tables = ((n + 1) + n) * (n + 2) * 8
        tracemalloc.start()
        try:
            MultilookSampler(DesignSpec.bcd(0.75), LookSchedule.single(n, n // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * tables, (peak, tables)
