import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import rankdata

from condrand import (
    DesignSpec,
    ScoreVector,
    StratifiedData,
    Stratum,
    TreatmentSequence,
    centered_scores,
    interim_statistic,
    linear_rank_statistic,
    stratified_statistic,
)
import condrand.scores as scores_module
from condrand.scores import _midranks, step_sums, sums_exactly
from oracles import compensated_sum


class TestCenteredScores:
    def test_simple_rank_example(self):
        sv = centered_scores([0.3, 1.2, 0.7])
        assert sv.values.tolist() == [-1.0, 1.0, 0.0]

    def test_midranks_for_ties(self):
        sv = centered_scores([1, 1, 2])
        assert sv.values.tolist() == [-0.5, -0.5, 1.0]

    def test_raw_centering(self):
        sv = centered_scores([1.0, 2.0, 6.0], kind="raw")
        assert sv.values.tolist() == [-2.0, -1.0, 3.0]

    def test_always_centered(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(1, 40))
            assert abs(centered_scores(x).values.sum()) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            centered_scores([])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="scores must form a nonempty 1-D vector"):
            ScoreVector(np.array([]))

    def test_uncentered_vector_rejected(self):
        with pytest.raises(ValueError):
            ScoreVector(np.array([1.0, 2.0]))

    @given(st.lists(st.integers(-3, 3).map(lambda k: k / 2), min_size=1, max_size=40))
    def test_midranks_equal_scipy_rankdata_on_ties(self, xs):
        x = np.array(xs)
        want = rankdata(x, method="average")
        assert np.array_equal(centered_scores(x).values, want - want.mean())

    def test_nan_response_makes_every_rank_nan(self):
        assert np.isnan(_midranks(np.array([1.0, np.nan, 2.0]))).all()

    def test_midranks_rank_each_row_as_a_vector(self):
        rng = np.random.default_rng(3)
        for x in (rng.standard_normal((50, 37)), rng.integers(0, 4, (50, 37)) / 2.0):
            x[4, 9] = np.nan
            got = _midranks(x)
            assert np.isnan(got[4]).all()
            assert got.tobytes() == np.array([_midranks(row) for row in x]).tobytes()
            want = np.array([rankdata(row, method="average") for row in np.delete(x, 4, 0)])
            assert np.array_equal(np.delete(got, 4, 0), want)

    @pytest.mark.parametrize("kind", ["simple-rank", "raw"])
    def test_nan_response_rejected(self, kind):
        with pytest.raises(ValueError, match="finite"):
            centered_scores([1.0, np.nan, 2.0], kind)

    def test_infinite_response(self):
        # an infinite response still has a rank, but no finite raw score
        assert np.isfinite(centered_scores([1.0, np.inf, -np.inf]).values).all()
        with pytest.raises(ValueError, match="finite"):
            centered_scores([1.0, np.inf, 2.0], "raw")
        with pytest.raises(ValueError, match="finite"):
            ScoreVector(np.array([np.inf, -np.inf]))

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
        st.floats(-50, 50),
    )
    def test_rank_scores_shift_invariant(self, xs, shift):
        # integer-valued responses keep their tie structure under a float shift
        base = centered_scores([float(x) for x in xs])
        shifted = centered_scores([x + shift for x in xs])
        assert np.allclose(base.values, shifted.values)


class TestLinearRankStatistic:
    def test_arithmetic(self):
        sv = ScoreVector(np.array([-1.0, 0.0, 1.0]))
        assert linear_rank_statistic(sv, np.array([1, 0, 1])) == 0.0
        assert linear_rank_statistic(sv, np.array([0, 0, 1])) == 1.0

    def test_all_ones_is_zero(self):
        sv = centered_scores(np.random.default_rng(1).standard_normal(9))
        assert linear_rank_statistic(sv, np.ones(9, dtype=int)) == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_rank_statistic(ScoreVector(np.array([-1.0, 1.0])), np.array([1, 0, 1]))

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16), st.data())
    def test_flip_antisymmetry(self, xs, data):
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs))))
        sv = centered_scores(xs)
        v = linear_rank_statistic(sv, bits)
        v_flip = linear_rank_statistic(sv, 1 - bits)
        assert v + v_flip == pytest.approx(0.0, abs=1e-7)

    def test_accepts_treatment_sequence(self):
        sv = ScoreVector(np.array([-0.5, -0.5, 1.0]))
        assert linear_rank_statistic(sv, TreatmentSequence.from_string("001")) == 1.0


class TestStepSums:
    @pytest.mark.parametrize("layout", ["walk", "transpose", "column"])
    @pytest.mark.parametrize("kind", ["simple-rank", "raw", "halves"])
    def test_every_layout_gives_the_step_order_bits(self, kind, layout):
        rng = np.random.default_rng(12)
        batch = (rng.random((5001, 37)) < 0.5).astype(np.int8)
        if kind == "halves":
            halves = rng.integers(-4, 5, 37) / 2.0
            halves[-1] -= halves.sum()
            sv = ScoreVector(halves, "raw")
        else:
            sv = centered_scores(np.round(rng.standard_normal(37), 1), kind)
        # rank scores and halves take the float32 route, raw scores the float64 one
        assert sums_exactly(sv.values, np.float32) == (kind != "raw")
        if layout == "walk":  # the C-ordered bool steps the walk writes
            got = step_sums([sv.values], batch.T.astype(bool, order="C"))[:, 0]
        elif layout == "transpose":  # the F-ordered int8 transpose of the sequences
            got = step_sums([sv.values], batch.T)[:, 0]
        else:  # one sequence at a time, as linear_rank_statistic passes it
            batch = batch[:200]
            got = np.array([step_sums([sv.values], t[:, None])[0, 0] for t in batch])
        # the oracle adds the steps in order, as reference_accumulate_statistics
        want = np.zeros(len(batch))
        for j in range(batch.shape[1]):
            want += batch[:, j] * sv.values[j]
        assert got.tobytes() == want.tobytes()

    def test_rank_scores_never_copy_the_whole_batch(self):
        # the single product converts all 200000 x 100 draws to float64, 160 MB
        rng = np.random.default_rng(13)
        batch = (rng.random((200_000, 100)) < 0.5).astype(np.int8)
        sv = centered_scores(rng.standard_normal(100))
        tracemalloc.start()
        try:
            step_sums([sv.values], batch.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak


class TestInterimStatistic:
    def test_full_cut_equals_final(self):
        x = np.array([0.3, 1.2, 0.7, 0.1])
        t = np.array([1, 0, 1, 0])
        assert interim_statistic(x, t, 4) == linear_rank_statistic(centered_scores(x), t)

    def test_prefix_reranked(self):
        x = np.array([0.3, 1.2, 0.7, 0.1])
        assert interim_statistic(x, np.array([1, 0, 1, 0]), 2) == pytest.approx(-0.5)

    def test_first_look_is_zero(self):
        x = np.array([0.3, 1.2, 0.7])
        assert interim_statistic(x, np.array([1, 1, 0]), 1) == 0.0

    def test_depends_only_on_prefix(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(10)
        t = rng.integers(0, 2, 10)
        y = x.copy()
        y[6:] = 99.0
        assert interim_statistic(x, t, 6) == interim_statistic(y, t, 6)

    def test_cut_out_of_range(self):
        with pytest.raises(ValueError):
            interim_statistic([1.0, 2.0], [1, 0], 3)

    def test_too_few_assignments_for_the_cut(self):
        with pytest.raises(ValueError, match="need at least 3 assignments, got 2"):
            interim_statistic([1.0, 2.0, 3.0], [1, 0], 3)


class TestStratified:
    def _data(self):
        d = DesignSpec.bcd(0.6)
        s1 = Stratum(centered_scores([1.0, 3.0, 2.0]), 1, d)
        s2 = Stratum(centered_scores([5.0, 4.0]), 1, d)
        return StratifiedData((s1, s2))

    def test_single_stratum_reduces(self):
        d = DesignSpec.bcd(0.6)
        sv = centered_scores([1.0, 3.0, 2.0])
        data = StratifiedData((Stratum(sv, 1, d),))
        t = np.array([0, 1, 0])
        assert stratified_statistic(data, [t]) == linear_rank_statistic(sv, t)

    def test_sums_across_strata(self):
        data = self._data()
        t1 = np.array([0, 1, 0])  # rank 3 centered: +1
        t2 = np.array([1, 0])  # rank 2 centered: +0.5
        assert stratified_statistic(data, [t1, t2]) == pytest.approx(1.5)

    def test_no_strata_rejected(self):
        with pytest.raises(ValueError, match="need at least one stratum"):
            StratifiedData(())

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            stratified_statistic(self._data(), [np.array([0, 1, 0])])

    def test_strata_add_in_order_under_a_compensated_sum(self, monkeypatch):
        # Python 3.12's builtin sum would give -0.5 here, not the 0.0 of
        # adding 1e16, -0.5 and -1e16 left to right
        d = DesignSpec.complete()
        strata = [
            Stratum(centered_scores(x, "raw"), 1, d)
            for x in ([1e16, -1e16], [1.0, 2.0], [-1e16, 1e16])
        ]
        t = [np.array([1, 0])] * 3
        parts = [linear_rank_statistic(s.scores, ti) for s, ti in zip(strata, t)]
        assert parts == [1e16, -0.5, -1e16] and compensated_sum(parts) == -0.5
        monkeypatch.setattr(scores_module, "sum", compensated_sum, raising=False)
        assert stratified_statistic(StratifiedData(strata), t) == 0.0

    def test_stratum_count_validated(self):
        with pytest.raises(ValueError):
            Stratum(centered_scores([1.0, 2.0]), 3, DesignSpec.complete())
