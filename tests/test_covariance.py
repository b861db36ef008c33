import gc
import json
import math
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import rankdata

from condrand import (
    DegenerateScoresError,
    DesignSpec,
    LookSchedule,
    ScoreVector,
    centered_scores,
    covariance_multilook,
    information_at_look,
    interpolate_scores,
    pmf_table,
)
import condrand.covariance as covariance
import condrand.distributions as distributions
import condrand.sampling as sampling
from condrand.cli import main
from condrand.covariance import _block_moments_float, _ratio, projected_final_count
from condrand.errors import InfeasibleError
from condrand.monitoring import SpendingFunction, estimate_boundaries
from condrand.sampling import MultilookSampler, chain_rows
from condrand.scores import _midranks
from oracles import (
    count_constraints_predicate,
    covariance_final,
    covariance_final_exact,
    covariance_multilook_exact,
    cross_moment_single,
    enumerate_law,
    exact_covariance,
    exact_interim_denominator,
    off_band,
    on_band,
    oracle_sequence_law,
    reference_segment_chain,
    theta_single,
)

BCD23 = DesignSpec.bcd(2 / 3)
DESIGNS = [DesignSpec.bcd(p) for p in (0.5, 2 / 3, 0.75, 1.0)] + [DesignSpec.complete()]


def reference_block_moments(design, r0, m0, r1, m1):
    """Segment means and cross moments with one forward sweep per pair (a, b)."""
    s = r1 - r0
    width = r1 + 2
    psi = reference_segment_chain(design, r0, m0, r1, m1)
    rho = np.zeros((s + 1, width))
    rho[0, m0] = 1.0
    for idx in range(s):
        move = rho[idx] * psi[idx]
        nxt = rho[idx] - move
        nxt[1:] += move[:-1]
        rho[idx + 1] = nxt
    theta = np.einsum("im,im->i", rho[:s], psi)
    lam = np.zeros((s, s))
    for a in range(s - 1):
        g = np.zeros(width)
        g[1:] = (rho[a] * psi[a])[:-1]
        for b in range(a + 1, s):
            lam[a, b] = g @ psi[b]
            move = g * psi[b]
            g = g - move
            g[1:] += move[:-1]
    return theta, lam


class TestThetaSingle:
    def test_two_subject_case(self):
        assert theta_single(BCD23, 2, 1, 1, "exact") == Fraction(1, 2)
        assert theta_single(BCD23, 2, 1, 1) == pytest.approx(0.5)

    def test_conserves_total(self):
        for design in (BCD23, DesignSpec.bcd(0.75)):
            for n, n1 in ((6, 2), (7, 4)):
                total = sum(theta_single(design, n, n1, i) for i in range(1, n + 1))
                assert total == pytest.approx(n1, abs=1e-10)

    def test_complete_is_exchangeable(self):
        for i in range(1, 7):
            assert theta_single(DesignSpec.complete(), 6, 2, i, "exact") == Fraction(1, 3)

    def test_matches_enumeration(self):
        law = enumerate_law(BCD23, 7)
        given = count_constraints_predicate([(7, 3)])
        for i in range(1, 8):
            want = law.conditional_probability(lambda t: t[i - 1] == 1, given)
            assert theta_single(BCD23, 7, 3, i, "exact") == want


class TestCrossMomentSingle:
    def test_exclusive_assignments(self):
        assert cross_moment_single(BCD23, 2, 1, 1, 2, "exact") == 0

    def test_saturated_count(self):
        assert cross_moment_single(BCD23, 5, 5, 2, 4, "exact") == 1

    def test_hand_value(self):
        assert cross_moment_single(BCD23, 4, 2, 1, 2, "exact") == Fraction(1, 8)
        assert cross_moment_single(BCD23, 4, 2, 1, 2) == pytest.approx(0.125)

    def test_matches_enumeration(self):
        law = enumerate_law(DesignSpec.bcd(0.75), 6)
        cond = oracle_sequence_law(law, [(6, 3)])
        for i, j in ((1, 2), (2, 5), (3, 6)):
            want = sum(
                (pr for t, pr in cond.items() if t[i - 1] and t[j - 1]),
                start=Fraction(0),
            )
            assert cross_moment_single(DesignSpec.bcd(0.75), 6, 3, i, j, "exact") == want


class TestCovarianceFinal:
    def test_two_subject_matrix(self):
        cov = covariance_final(BCD23, 2, 1)
        assert cov == pytest.approx(np.array([[0.25, -0.25], [-0.25, 0.25]]))

    def test_rows_sum_to_zero(self):
        for design in (BCD23, DesignSpec.complete()):
            cov = covariance_final(design, 9, 4)
            assert np.abs(cov.sum(axis=1)).max() < 1e-9

    def test_diagonal_bounded(self):
        cov = covariance_final(DesignSpec.bcd(0.8), 12, 5)
        diag = np.diag(cov)
        assert (diag >= 0).all() and (diag <= 0.25 + 1e-12).all()

    def test_exact_equals_enumeration(self):
        for design in DESIGNS:
            for n, n1 in ((4, 2), (6, 3), (7, 2)):
                law = enumerate_law(design, n)
                if law.probability(lambda t, k=n1: sum(t) == k) == 0:
                    continue
                want = exact_covariance(law, [(n, n1)])
                got = covariance_final_exact(design, n, n1)
                assert (got == want).all(), (design.label(), n, n1)
                got = covariance_final(design, n, n1)
                assert np.abs(got - want.astype(float)).max() < 1e-12, (design.label(), n, n1)

    def test_float_tracks_exact(self):
        got = covariance_final(BCD23, 8, 3)
        want = covariance_final_exact(BCD23, 8, 3).astype(float)
        assert np.abs(got - want).max() < 1e-12

    def test_entries_match_single_moment_functions(self):
        design = DesignSpec.bcd(0.7)
        n, n1 = 7, 3
        cov = covariance_final(design, n, n1)
        thetas = [theta_single(design, n, n1, i) for i in range(1, n + 1)]
        for i in range(n):
            assert cov[i, i] == pytest.approx(thetas[i] * (1 - thetas[i]), abs=1e-12)
        for i, j in ((0, 1), (2, 5), (1, 6)):
            lam = cross_moment_single(design, n, n1, i + 1, j + 1)
            assert cov[i, j] == pytest.approx(lam - thetas[i] * thetas[j], abs=1e-12)

    def test_positive_semidefinite(self):
        cov = covariance_final(DesignSpec.bcd(0.7), 30, 13)
        assert np.linalg.eigvalsh(cov).min() >= -1e-8


class TestCovarianceMultilook:
    SCHEDULE = LookSchedule.from_pairs([(2, 1), (4, 2)])

    def test_cross_block_entries_vanish(self):
        cov = covariance_multilook(BCD23, self.SCHEDULE)
        assert cov[:2, 2:] == pytest.approx(np.zeros((2, 2)))

    def test_single_look_equals_final(self):
        a = covariance_multilook(BCD23, LookSchedule.single(6, 3))
        b = covariance_final(BCD23, 6, 3)
        assert a == pytest.approx(b)

    def test_exact_equals_enumeration(self):
        for design in DESIGNS:
            law = enumerate_law(design, 4)
            want = exact_covariance(law, [(2, 1), (4, 2)])
            got = covariance_multilook_exact(design, self.SCHEDULE)
            assert (got == want).all(), design.label()
            got = covariance_multilook(design, self.SCHEDULE)
            assert np.abs(got - want.astype(float)).max() < 1e-12, design.label()

    def test_three_look_enumeration(self):
        design = DesignSpec.bcd(0.6)
        schedule = LookSchedule.from_pairs([(3, 1), (5, 3), (8, 4)])
        law = enumerate_law(design, 8)
        want = exact_covariance(law, [(3, 1), (5, 3), (8, 4)])
        assert (covariance_multilook_exact(design, schedule) == want).all()
        got = covariance_multilook(design, schedule)
        assert np.abs(got - want.astype(float)).max() < 1e-12

    def test_prefix_is_top_left_corner(self):
        prefix = covariance_multilook(BCD23, self.SCHEDULE.prefix(1))
        full = covariance_multilook(BCD23, self.SCHEDULE)
        assert np.array_equal(prefix, full[:2, :2])

    def test_block_rows_sum_to_zero(self):
        cov = covariance_multilook(DesignSpec.bcd(0.75), LookSchedule.from_pairs([(5, 3), (11, 6)]))
        assert np.abs(cov.sum(axis=1)).max() < 1e-9


class TestInformationFraction:
    def test_final_look_is_one(self):
        a = centered_scores([1.0, 3.0, 2.0, 4.0]).values
        q = float(a @ covariance_final(BCD23, 4, 2) @ a)
        assert _ratio(q, q, None).t == 1.0

    def test_matches_oracle_ratio(self):
        design = BCD23
        schedule = LookSchedule.from_pairs([(2, 1), (4, 2)])
        scores4 = ScoreVector(np.array([-1.5, -0.5, 0.5, 1.5]))
        scores2 = centered_scores([0.3, 0.9])
        law = enumerate_law(design, 4)
        sig2 = exact_covariance(law, [(2, 1)])[:2, :2].astype(float)
        sig4 = exact_covariance(law, [(2, 1), (4, 2)]).astype(float)
        want = (scores2.values @ sig2[:2, :2] @ scores2.values) / (
            scores4.values @ sig4 @ scores4.values
        )
        a2, a4 = scores2.values, scores4.values
        got = _ratio(
            float(a2 @ covariance_multilook(design, schedule.prefix(1)) @ a2),
            float(a4 @ covariance_multilook(design, schedule) @ a4),
            None,
        )
        assert got.t == pytest.approx(want, abs=1e-12)

    def test_degenerate_scores_raise(self):
        a = centered_scores([2.0, 2.0, 2.0, 2.0]).values
        q = float(a @ covariance_final(BCD23, 4, 2) @ a)
        with pytest.raises(DegenerateScoresError):
            _ratio(q, q, None)


class TestInterpolateScores:
    def test_complete_data_returned_unchanged(self):
        x = [0.3, 1.2, 0.7]
        out = interpolate_scores(x, 3, rng=1, replicates=5)
        assert out.shape == (5, 3)
        assert (out == centered_scores(x).values).all()

    def test_fills_from_observed_values(self):
        x = np.array([1.0, 2.0, 4.0])
        rng = np.random.default_rng(2)
        out = interpolate_scores(x, 8, rng, replicates=3)
        assert out.shape == (3, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            interpolate_scores([], 4, rng=1, replicates=2)
        with pytest.raises(ValueError):
            interpolate_scores([1.0, 2.0], 1, rng=1, replicates=2)
        with pytest.raises(ValueError):
            interpolate_scores([1.0], 4, rng=1, replicates=0)

    @pytest.mark.parametrize("kind", ["simple-rank", "raw"])
    @pytest.mark.parametrize("ties", [False, True])
    def test_stacked_completions_equal_one_vector_at_a_time(self, kind, ties):
        rng = np.random.default_rng(17)
        for k, n in ((1, 9), (40, 41), (120, 350), (250, 350)):
            x = rng.integers(0, 6, k) / 2.0 if ties else rng.standard_normal(k) * 1e3 + 7.0
            want_rng = np.random.default_rng(k)
            want = [
                centered_scores(
                    np.concatenate([x, want_rng.choice(x, size=n - k, replace=True)]), kind
                )
                for _ in range(30)
            ]
            got = interpolate_scores(x, n, np.random.default_rng(k), 30, kind)
            assert got.shape == (30, n)
            assert [a.tobytes() for a in got] == [sv.values.tobytes() for sv in want]

    @settings(deadline=None)
    @given(
        xs=st.one_of(
            st.lists(st.integers(-2, 2).map(lambda k: k / 2), min_size=1, max_size=30),
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        ),
        unseen=st.integers(0, 25),
        replicates=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["simple-rank", "raw"]),
    )
    @example(xs=[0.5], unseen=3, replicates=1, seed=0, kind="simple-rank")  # r = 1, B = 1
    @example(xs=[1.0, 1.0, 0.0], unseen=0, replicates=4, seed=1, kind="simple-rank")  # r = n
    @example(xs=[-0.0, 0.0, 2.0], unseen=5, replicates=3, seed=2, kind="raw")
    def test_equals_one_choice_per_row_and_leaves_the_same_stream(
        self, xs, unseen, replicates, seed, kind
    ):
        x = np.array(xs)
        n = x.size + unseen
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [
            centered_scores(np.concatenate([x, want_rng.choice(x, size=unseen)]), kind).values
            for _ in range(replicates)
        ]
        got = interpolate_scores(x, n, got_rng, replicates, kind)
        assert got.shape == (replicates, n)
        assert got.tobytes() == np.array(want).tobytes()
        assert got_rng.random() == want_rng.random()
        assert got_rng.integers(0, 7) == want_rng.integers(0, 7)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("kind", ["simple-rank", "raw"])
    def test_nan_response_raises(self, kind, n):
        with pytest.raises(ValueError, match="finite"):
            interpolate_scores([1.0, np.nan, 2.0], n, rng=1, replicates=4, kind=kind)

    @pytest.mark.parametrize("n", [3, 6])
    def test_infinite_response_ranks_but_has_no_raw_score(self, n):
        x = [1.0, np.inf, -np.inf]
        with pytest.raises(ValueError, match="finite"):
            interpolate_scores(x, n, rng=1, replicates=4, kind="raw")
        got = interpolate_scores(x, n, np.random.default_rng(5), 4)
        rng = np.random.default_rng(5)
        want = [centered_scores(np.concatenate([x, rng.choice(x, n - 3)])).values for _ in range(4)]
        assert got.tobytes() == np.array(want).tobytes()


class TestCountedMidranks:
    """The counting rule that ranks the bootstrap completions ranks every
    response array too."""

    @settings(deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 12)),
        data=st.data(),
    )
    def test_equal_rankdata_along_the_last_axis(self, shape, data):
        size = math.prod(shape)
        values = st.one_of(st.integers(-2, 2).map(lambda k: k / 2), st.just(np.nan), st.floats(-9, 9))
        x = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
        got = _midranks(x)
        want = rankdata(x, method="average", axis=-1)
        assert np.array_equal(got, want, equal_nan=True)
        assert (np.isnan(got) == np.isnan(x).any(axis=-1, keepdims=True)).all()
        rows = x.reshape(-1, shape[-1])
        assert got.tobytes() == np.array([_midranks(row) for row in rows]).tobytes()


class TestInformationAtLook:
    def test_last_look_exactly_one(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(12)
        schedule = LookSchedule.from_pairs([(6, 3), (12, 7)])
        frac = information_at_look(BCD23, schedule, x, 2, mode="full")
        assert frac.t == 1.0

    def test_interim_between_zero_and_one(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(12)
        schedule = LookSchedule.from_pairs([(6, 3), (12, 7)])
        frac = information_at_look(BCD23, schedule, x[:6], 1, rng=11, bootstrap=40)
        assert 0.0 < frac.t < 1.0

    def test_full_mode_uses_all_responses(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(12)
        schedule = LookSchedule.from_pairs([(6, 3), (12, 7)])
        a = information_at_look(BCD23, schedule, x, 1, mode="full")
        b = information_at_look(BCD23, schedule, x, 1, mode="full")
        assert a.t == b.t
        assert 0.0 < a.t <= 1.0

    def test_projection_respects_parity(self):
        design = DesignSpec.bcd(1.0)
        schedule = LookSchedule.from_pairs([(4, 2)])
        cnt = projected_final_count(design, schedule, 1, 8)
        from condrand import conditional_pmf

        assert conditional_pmf(design, 8, cnt, 4, 2) > 0.0

    def test_degenerate_responses(self):
        schedule = LookSchedule.from_pairs([(4, 2), (8, 4)])
        final, interim = (f"^{kind}-statistic variance is zero$" for kind in ("final", "interim"))
        for mode in ("interim", "full"):  # no completion of constant responses varies
            with pytest.raises(DegenerateScoresError, match=final):
                information_at_look(BCD23, schedule, np.ones(8), 1, mode=mode, rng=3, bootstrap=10)
        with pytest.raises(DegenerateScoresError, match=interim):
            information_at_look(BCD23, schedule, np.ones(8), 2)
        # a constant prefix: the look's scores are all zero, the final ones not
        x = [1.0, 1.0, 1.0, 1.0, 0.3, 2.0, -1.0, 0.7]
        with pytest.raises(DegenerateScoresError, match=interim):
            information_at_look(BCD23, schedule, x, 1, mode="full")

    def test_inputs_checked_before_any_covariance(self, monkeypatch):
        built = []
        real = covariance.covariance_multilook

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(covariance, "covariance_multilook", counting)
        schedule = LookSchedule.from_pairs([(10, 5), (20, 10), (40, 20)])
        x = np.random.default_rng(14).standard_normal(40)
        for look in (0, 4):
            with pytest.raises(ValueError, match=f"look index {look} out of range for 3 looks"):
                information_at_look(BCD23, schedule, x, look)
        with pytest.raises(ValueError, match="full mode needs 40 responses, got 30"):
            information_at_look(BCD23, schedule, x[:30], 1, mode="full")
        with pytest.raises(ValueError, match="need at least 20 responses for look 2"):
            information_at_look(BCD23, schedule, x[:15], 2)
        assert built == []
        information_at_look(BCD23, schedule, x, 1, mode="full")
        assert len(built) == 1  # the numerator reads the denominator's covariance

    def test_bootstrap_checked_before_any_table(self, monkeypatch, empty_memo):
        def never(*args, **kwargs):
            raise AssertionError("built a table before checking the bootstrap")

        monkeypatch.setattr(sampling, "backward_log_table", never)
        monkeypatch.setattr(covariance, "_block_moments_float", never)
        schedule = LookSchedule.from_pairs([(10, 5), (20, 10), (40, 20)])
        x = np.random.default_rng(14).standard_normal(20)
        for bootstrap in (0, -2):
            with pytest.raises(ValueError, match=f"need at least one replicate, got {bootstrap}"):
                information_at_look(BCD23, schedule, x, 2, bootstrap=bootstrap, rng=3)
        with pytest.raises(ValueError, match="mode must be 'interim' or 'full', got 'bogus'"):
            information_at_look(BCD23, schedule, x, 2, mode="bogus")

    def test_last_look_reads_no_bootstrap(self):
        # the last look's fraction is 1 without resampling the unseen responses
        schedule = LookSchedule.from_pairs([(6, 3), (12, 7)])
        x = np.random.default_rng(9).standard_normal(12)
        frac = information_at_look(BCD23, schedule, x, 2, bootstrap=0)
        assert frac.t == 1.0


class TestBlockMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.just(None), st.floats(0.5, 1.0)),
        st.integers(0, 120),
        st.integers(1, 90),
        st.data(),
    )
    def test_vectorised_sweep_equals_per_pair_loop(self, bias, r0, s, data):
        design = DesignSpec.complete() if bias is None else DesignSpec.bcd(bias)
        r1 = r0 + s
        m0 = data.draw(st.integers(0, r0))
        m1 = data.draw(st.integers(m0, m0 + s))
        try:
            want = reference_block_moments(design, r0, m0, r1, m1)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                _block_moments_float(design, r0, m0, r1, m1)
            assume(False)
        theta, lam = _block_moments_float(design, r0, m0, r1, m1)
        assert np.array_equal(theta, want[0])
        assert np.array_equal(lam, want[1])

    @pytest.mark.parametrize(
        "bias, segment",
        [
            (0.75, (0, 0, 250, 126)),  # the bench's segments
            (0.75, (250, 126, 350, 176)),
            (0.75, (10, 4, 60, 4)),  # m1 = m0: every step is forced to 0
            (0.75, (10, 4, 60, 54)),  # m1 - m0 = r1 - r0: every step forced to 1
            (0.75, (0, 0, 40, 35)),  # the band narrows to the forced diagonal
            (None, (20, 3, 70, 3)),
            (None, (20, 3, 70, 53)),
            (1.0, (0, 0, 60, 30)),  # p = 1: forced off balance, psi clipped to [0, 1]
            (1.0, (40, 20, 100, 50)),
            (1.0, (41, 20, 101, 51)),
            (1.0, (10, 5, 11, 5)),
            (1.0, (10, 5, 11, 6)),
        ],
    )
    def test_fixed_segments_equal_per_pair_loop(self, bias, segment):
        design = DesignSpec.complete() if bias is None else DesignSpec.bcd(bias)
        theta, lam = _block_moments_float(design, *segment)
        want = reference_block_moments(design, *segment)
        assert theta.tobytes() == want[0].tobytes()
        assert lam.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("width", [1, 2, 7, 33, 252, 1002])
    def test_stacked_matmul_is_the_per_row_dot(self, width):
        rng = np.random.default_rng(width)
        g = rng.standard_normal((60, width)) * 10.0 ** rng.integers(-8, 8, (60, 1))
        row = rng.uniform(0.0, 1.0, width)
        lam = np.zeros((60, 61))
        np.matmul(g[:, None, :], row[:, None], out=lam[:, 7, None, None])
        want = np.array(list(map(row.dot, g)))
        assert lam[:, 7].tobytes() == want.tobytes()

    def test_sweep_memory_holds_a_band_wide_move(self, empty_memo):
        # g is 1000 x 1002 and lam 1000 x 1000, while rho and psi are one
        # full-width row each; the update buffer is only as wide as the
        # reachable band, here 501 counts; the table's own band, 251,000
        # entries and a -inf after each of its 1001 rows, stays in the memo
        # with its row views.  The block is then assembled in lam's place
        n, n1 = 1000, 500
        band = sum(min(j, n1) + 1 - max(0, n1 - n + j) for j in range(n))
        covariance_final(DesignSpec.bcd(0.75), 40, 20)
        tracemalloc.start()
        try:
            covariance_final(DesignSpec.bcd(0.75), n, n1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = empty_memo[DesignSpec.bcd(0.75), 0, 0, n, n1]
        arrays = (n * (n + 2) + n * n + n * (min(n1, n - n1) + 1)) * 8 + rows.nbytes
        assert peak <= 1.05 * arrays, (peak, arrays)
        assert rows[0].base.size == band + n + 2 and band == 251_000

    def test_sweep_holds_one_occupancy_row(self, empty_memo):
        # with its table built, a sweep holds lam, g and move and otherwise
        # rows of one width: an s x width occupancy history would add 8 MB
        design, n, n1 = DesignSpec.bcd(0.75), 1000, 500
        chain_rows(design, 0, 0, n, n1)
        tracemalloc.start()
        try:
            _block_moments_float(design, 0, 0, n, n1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = (n * n + n * (n + 2) + n * (min(n1, n - n1) + 1)) * 8
        assert peak <= 1.05 * arrays, (peak, arrays)

    def test_sampler_and_covariance_share_the_tables(self, empty_memo):
        design = DesignSpec.bcd(0.75)
        schedule = LookSchedule.from_pairs([(25, 13), (40, 19), (61, 30)])
        sampler = MultilookSampler(design, schedule)
        covariance_multilook(design, schedule)  # its sweeps read the sampler's tables
        for segment in schedule.segments():
            r0, _, r1, m1 = segment
            want = reference_segment_chain(design, *segment)
            rows = chain_rows(design, *segment)
            assert list(map(id, rows)) == list(map(id, sampler._rows[r0:r1]))
            assert np.array_equal(on_band(rows, r0, r1, m1), on_band(want, r0, r1, m1))
            assert not off_band(want, r0, r1, m1).any()
        assert len(empty_memo) == 2 * len(schedule)


class TestBlockSharing:
    DESIGN = DesignSpec.bcd(0.75)
    SCHEDULE = LookSchedule.from_pairs([(20, 11), (40, 19), (60, 31)])

    def responses(self):
        return np.random.default_rng(5).standard_normal(60)

    def boundaries(self, seed, **kwargs):
        return estimate_boundaries(
            self.DESIGN, self.SCHEDULE, self.responses(), SpendingFunction("obf", 0.05),
            400, np.random.default_rng(seed), info_mode="interim", bootstrap=20, **kwargs,
        )

    def swept_segments(self):
        """Every segment whose block an interim information fraction asks
        for: each look prefix's, and the projected denominator's last."""
        want = set()
        for l in range(1, len(self.SCHEDULE) + 1):
            prefix = self.SCHEDULE.prefix(l)
            want.update(prefix.segments())
            if l < len(self.SCHEDULE):
                n1 = projected_final_count(self.DESIGN, prefix, l, self.SCHEDULE.horizon)
                want.add((prefix.horizon, prefix.final_count, self.SCHEDULE.horizon, n1))
        return want

    def count_sweeps(self, monkeypatch):
        calls = []
        inner = covariance._block_moments_float

        def counting(design, *segment):
            calls.append(segment)
            return inner(design, *segment)

        monkeypatch.setattr(covariance, "_block_moments_float", counting)
        return calls

    def test_each_segment_built_once(self, monkeypatch, empty_memo):
        calls = self.count_sweeps(monkeypatch)
        backward, table = [], sampling.backward_log_table
        monkeypatch.setattr(
            sampling, "backward_log_table", lambda *a: backward.append(a) or table(*a)
        )
        builds, init = [], MultilookSampler.__init__
        monkeypatch.setattr(
            MultilookSampler, "__init__", lambda self, *a: builds.append(a) or init(self, *a)
        )
        self.boundaries(8)
        want = self.swept_segments()
        assert sorted(calls) == sorted(want)
        # the whole schedule's sampler, then one per stage, each reading the
        # tables from the memo, which the covariance sweeps read too
        assert len(builds) == 1 + len(self.SCHEDULE) and len(backward) == len(want)
        assert [len(schedule) for _, schedule in builds] == [3, 1, 2, 3]

    def test_blocks_past_the_memo_are_swept_once_per_call(self, monkeypatch, tmp_path, empty_memo):
        # the memo keeps no block, or table, so only the caller's dict of
        # blocks spares a second sweep: one estimate, one info run, each
        # sweeping every segment once
        monkeypatch.setattr(distributions, "MEMO_BYTES", 8 * 20 * 20 - 1)
        calls = self.count_sweeps(monkeypatch)
        want = sorted(self.swept_segments())
        self.boundaries(8)
        assert sorted(calls) == want and not empty_memo
        calls.clear()
        schedule, responses = tmp_path / "schedule.json", tmp_path / "responses.csv"
        schedule.write_text(json.dumps(self.SCHEDULE.to_json()))
        responses.write_text("".join(f"{v!r}\n" for v in self.responses().tolist()))
        argv = ["info", "--design", self.DESIGN.label(), "--schedule", str(schedule),
                "--responses", str(responses), "--bootstrap", "20", "--seed", "1"]
        assert main(argv) == 0
        assert sorted(calls) == want and not empty_memo

    def test_shared_blocks_leave_the_result_unchanged(self):
        rng = np.random.default_rng(8)
        fractions = [
            information_at_look(
                self.DESIGN, self.SCHEDULE, self.responses(), l, bootstrap=20, rng=rng
            ).t
            for l in range(1, len(self.SCHEDULE) + 1)
        ]
        separate = estimate_boundaries(
            self.DESIGN, self.SCHEDULE, self.responses(), SpendingFunction("obf", 0.05),
            400, rng, info_fractions=fractions,
        )
        assert self.boundaries(8) == separate

    def test_repeated_estimate_makes_no_sweep(self, monkeypatch, empty_memo):
        first = self.boundaries(8)
        calls = []
        inner = covariance._block_moments_float
        monkeypatch.setattr(
            covariance, "_block_moments_float", lambda *a: calls.append(a) or inner(*a)
        )
        assert self.boundaries(8) == first
        assert calls == []


# one-look horizons 1585 and 1586 at n1 = n // 2: the last table that fits
# the default memo budget, band and row views together, and the first that
# does not
BAND_EDGE = ((1585, 792), (1586, 793))


class TestBlockMemo:
    """Float laws, chain tables and covariance blocks share the memo of
    :mod:`condrand.distributions`: one least-recently-used order, one budget."""

    DESIGN = DesignSpec.bcd(0.75)

    def entries(self, memo):
        # a law is kept under (design, n, given), a table under
        # (design, *segment), a block under (design, segment)
        kinds = {2: "block", 3: "law", 5: "table"}
        return [(kinds[len(key)], key[1] if len(key) == 2 else key[1:]) for key in memo]

    def test_evicts_least_recently_used_by_bytes(self, monkeypatch, empty_memo):
        # the 10-, 12- and 14-step tables take 1640, 2000 and 2376 bytes with
        # their row views; their blocks 800, 1152 and 1568
        monkeypatch.setattr(distributions, "MEMO_BYTES", 6000)
        covariance_final(self.DESIGN, 10, 5)
        covariance_final(self.DESIGN, 12, 6)
        covariance_final(self.DESIGN, 10, 5)  # a block hit, which asks for no table
        assert [e.nbytes for e in empty_memo.values()] == [1640, 2000, 1152, 800]
        assert self.entries(empty_memo) == [
            ("table", (0, 0, 10, 5)), ("table", (0, 0, 12, 6)),
            ("block", (0, 0, 12, 6)), ("block", (0, 0, 10, 5)),
        ]
        covariance_final(self.DESIGN, 14, 7)  # its table evicts two, its block none
        assert self.entries(empty_memo) == [
            ("block", (0, 0, 12, 6)), ("block", (0, 0, 10, 5)),
            ("table", (0, 0, 14, 7)), ("block", (0, 0, 14, 7)),
        ]
        MultilookSampler(self.DESIGN, LookSchedule.single(10, 5))  # 7536 bytes: the two oldest go
        MultilookSampler(self.DESIGN, LookSchedule.single(14, 7))  # a table hit
        assert self.entries(empty_memo) == [
            ("block", (0, 0, 14, 7)), ("table", (0, 0, 10, 5)), ("table", (0, 0, 14, 7)),
        ]

    def test_laws_count_their_bytes_in_the_same_order(self, monkeypatch, empty_memo):
        # a law of horizon n takes 8(n + 1) bytes: 800 at n = 99, 200 at
        # n = 24 and 600 at n = 74
        monkeypatch.setattr(distributions, "MEMO_BYTES", 4600)
        pmf_table(self.DESIGN, 99)
        covariance_final(self.DESIGN, 10, 5)
        pmf_table(self.DESIGN, 24, given=(10, 4))
        pmf_table(self.DESIGN, 99)  # a law hit
        assert self.entries(empty_memo) == [
            ("table", (0, 0, 10, 5)), ("block", (0, 0, 10, 5)),
            ("law", (24, (10, 4))), ("law", (99, None)),
        ]
        covariance_final(self.DESIGN, 12, 6)  # 5440 bytes, then its block evicts one more
        assert self.entries(empty_memo) == [
            ("law", (24, (10, 4))), ("law", (99, None)),
            ("table", (0, 0, 12, 6)), ("block", (0, 0, 12, 6)),
        ]
        pmf_table(self.DESIGN, 74)  # 4752 bytes: the oldest law goes
        assert self.entries(empty_memo) == [
            ("law", (99, None)), ("table", (0, 0, 12, 6)), ("block", (0, 0, 12, 6)),
            ("law", (74, None)),
        ]
        assert sum(e.nbytes for e in empty_memo.values()) == 4552
        pmf_table(self.DESIGN, 600)  # 4808 bytes, above the budget: never kept
        assert sum(e.nbytes for e in empty_memo.values()) == 4552 and len(empty_memo) == 4

    def test_byte_total_follows_inserts_hits_and_evictions(self, monkeypatch, empty_memo):
        # every call of the memo is replayed on a second OrderedDict under
        # the memo's rule: a hit moves its key to the end; a miss within the
        # budget inserts it, then the oldest go while the summed bytes of
        # every entry exceed the budget.  A call is logged as it returns,
        # after the calls that its build made
        monkeypatch.setattr(distributions, "MEMO_BYTES", 6000)
        calls = []
        memoized = distributions._memoized

        def logged(key, build):
            hit = key in empty_memo
            entry = memoized(key, build)
            calls.append((key, hit, entry.nbytes))
            return entry

        for module in (distributions, sampling, covariance):
            monkeypatch.setattr(module, "_memoized", logged)
        reference, seen = OrderedDict(), set()

        def check():
            for key, hit, nbytes in calls:
                if hit:
                    reference.move_to_end(key)
                    seen.add("hit")
                elif nbytes <= 6000:
                    reference[key] = nbytes
                    seen.add("miss")
                    while sum(reference.values()) > 6000:
                        reference.popitem(last=False)
                        seen.add("eviction")
                else:
                    seen.add("above the budget")
            calls.clear()
            assert list(empty_memo) == list(reference)

        rng = np.random.default_rng(28)
        three_looks = LookSchedule.from_pairs([(4, 2), (10, 5), (14, 7)])
        for n in rng.integers(2, 60, 150):  # laws of 24 to 480 bytes, and tables between
            pmf_table(self.DESIGN, int(n), given=(1, 1) if n % 3 == 0 else None)
            if n % 10 == 0:
                MultilookSampler(self.DESIGN, three_looks.prefix(1 + n % 3))
            check()
        covariance_final(self.DESIGN, 12, 6)  # a table and a block
        check()
        pmf_table(self.DESIGN, 800)  # above the budget: never kept
        MultilookSampler(self.DESIGN, LookSchedule.single(12, 6))  # a table hit
        MultilookSampler(self.DESIGN, three_looks)
        pmf_table(self.DESIGN, 30, given=(1, 1))
        check()
        kinds = {kind for kind, _ in self.entries(empty_memo)}
        assert kinds == {"law", "table", "block"}
        assert 0 < sum(e.nbytes for e in empty_memo.values()) <= 6000
        assert seen == {"hit", "miss", "eviction", "above the budget"}
        empty_memo.clear()
        reference.clear()
        pmf_table(self.DESIGN, 99)
        check()
        assert sum(e.nbytes for e in empty_memo.values()) == 800

    @pytest.mark.parametrize("n", [500, 1000])
    def test_a_table_counts_what_it_holds(self, n, empty_memo):
        # the band, the list and its row views: what the build leaves
        # behind, but for each view's small shape and strides allocation
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chain_rows(self.DESIGN, 0, 0, n, n // 2)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        (rows,) = empty_memo.values()
        assert rows.nbytes > rows[0].base.nbytes + 100 * len(rows)
        assert abs(held - rows.nbytes) <= 0.02 * rows.nbytes, (held, rows.nbytes)

    def test_entry_above_the_budget_is_never_kept(self, monkeypatch, empty_memo):
        # at the default budget, the first horizon whose block is never kept
        # is 810; the first whose table is never kept (n1 = n // 2), 1586
        assert 809**2 * 8 <= distributions.MEMO_BYTES == 5 << 20 < 810**2 * 8
        for (n, n1), kept in zip(BAND_EDGE, (True, False)):
            chain_rows(self.DESIGN, 0, 0, n, n1)
            assert ((self.DESIGN, 0, 0, n, n1) in empty_memo) is kept
        empty_memo.clear()
        monkeypatch.setattr(distributions, "MEMO_BYTES", 3000)
        covariance_final(self.DESIGN, 10, 5)
        calls, tables = [], []
        inner, build = covariance._block_moments_float, sampling.backward_log_table
        monkeypatch.setattr(
            covariance, "_block_moments_float", lambda *a: calls.append(a) or inner(*a)
        )
        monkeypatch.setattr(
            sampling, "backward_log_table", lambda *a: tables.append(a) or build(*a)
        )
        for _ in range(2):
            covariance_final(self.DESIGN, 20, 10)  # a 3600-byte table, a 3200-byte block
            MultilookSampler(self.DESIGN, LookSchedule.single(40, 20))  # an 8720-byte table
        assert self.entries(empty_memo) == [("table", (0, 0, 10, 5)), ("block", (0, 0, 10, 5))]
        assert len(calls) == 2 and len(tables) == 4

    def test_memo_entries_are_read_only(self, empty_memo):
        covariance_final(self.DESIGN, 12, 6)
        rows, block = empty_memo[self.DESIGN, 0, 0, 12, 6], empty_memo[self.DESIGN, (0, 0, 12, 6)]
        for entry in (rows[0].base, *rows, block):
            with pytest.raises(ValueError, match="read-only"):
                entry[0] = 1.0

    def test_block_from_the_memo_equals_a_fresh_sweep(self, empty_memo):
        schedule = LookSchedule.from_pairs([(250, 126), (300, 148), (350, 174)])
        cold = covariance_multilook(self.DESIGN, schedule)
        warm = covariance_multilook(self.DESIGN, schedule)
        assert warm.tobytes() == cold.tobytes()
        for r0, m0, r1, m1 in schedule.segments():
            theta, lam = _block_moments_float(self.DESIGN, r0, m0, r1, m1)
            want = lam + lam.T - np.outer(theta, theta)
            np.fill_diagonal(want, theta * (1.0 - theta))
            assert warm[r0:r1, r0:r1].tobytes() == want.tobytes()

    def test_a_shared_dict_keeps_each_designs_own_blocks(self, monkeypatch, empty_memo):
        # with no memo to fall back on, every block read again comes from
        # the dict, under its own design, with the bits of a fresh sweep
        monkeypatch.setattr(distributions, "MEMO_BYTES", 0)
        other, schedule = DesignSpec.bcd(0.6), LookSchedule.from_pairs([(12, 6), (14, 7)])
        blocks, swept = {}, {}
        for design in (other, self.DESIGN, other, self.DESIGN):
            got = covariance_multilook(design, schedule, _blocks=blocks)
            fresh = swept.setdefault(design, covariance_multilook(design, schedule))
            assert got.tobytes() == fresh.tobytes()
        assert sorted(blocks, key=repr) == sorted(
            ((design, segment) for design in swept for segment in schedule.segments()), key=repr
        )
        assert not np.array_equal(swept[other], swept[self.DESIGN]) and not empty_memo


class TestInterimDenominatorOracle:
    """The bootstrap denominator against its mean over every completion."""

    DESIGN = DesignSpec.bcd(0.75)
    B = 400

    @pytest.mark.parametrize("kind", ["simple-rank", "raw"])
    @pytest.mark.parametrize("n", [9, 10])
    def test_against_every_completion(self, n, kind, empty_memo):
        schedule = LookSchedule.from_pairs([(3, 1), (6, 3), (n, n // 2)])
        x = np.random.default_rng(40 + n).standard_normal(n)
        mean, sd = exact_interim_denominator(self.DESIGN, schedule, x, 2, kind)
        # the first call sweeps into an empty memo, the second reads it
        cold, warm = (
            information_at_look(self.DESIGN, schedule, x, 2, bootstrap=self.B, rng=n, kind=kind)
            for _ in range(2)
        )
        assert empty_memo and warm == cold
        assert abs(cold.denominator - mean) <= 4 * sd / math.sqrt(self.B)
        a = [Fraction(v) for v in centered_scores(x[:6], kind).values]
        sigma = covariance_multilook_exact(self.DESIGN, schedule.prefix(2))
        num = sum(a[i] * sigma[i, j] * a[j] for i in range(6) for j in range(6))
        assert cold.numerator == pytest.approx(float(num), rel=1e-12)
