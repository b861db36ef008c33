from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import condrand.bruteforce as bruteforce
from condrand import (
    DesignSpec,
    InfeasibleError,
    ScoreVector,
    centered_scores,
    exact_conditional_pvalue,
    exact_statistic_distribution,
    linear_rank_statistic,
)
from condrand.bruteforce import MAX_DP, PACK_BITS, _integerize_scores
from condrand.experiments import TAIL_EXACT_N, TAIL_ROWS, tail_estimate_repeatability
from condrand.streams import substream
from oracles import (
    count_constraints_predicate,
    enumerate_law,
    exact_covariance,
    exact_statistic_quantile,
    lattice_statistic_distribution,
    oracle_sequence_law,
    reference_statistic_distribution,
)

BCD23 = DesignSpec.bcd(2 / 3)


class TestEnumerateLaw:
    def test_two_step_law(self):
        law = enumerate_law(BCD23, 2)
        assert law.entries == {
            (1, 1): Fraction(1, 6),
            (1, 0): Fraction(1, 3),
            (0, 1): Fraction(1, 3),
            (0, 0): Fraction(1, 6),
        }

    def test_mass_sums_to_one(self):
        for design in (BCD23, DesignSpec.bcd(1.0), DesignSpec.complete()):
            law = enumerate_law(design, 7)
            assert sum(law.entries.values()) == 1

    def test_hard_cap(self):
        with pytest.raises(ValueError):
            enumerate_law(BCD23, 21)

    def test_permuted_block_prunes_zero_paths(self):
        law = enumerate_law(DesignSpec.bcd(1.0), 4)
        assert all(pr > 0 for pr in law.entries.values())
        assert (1, 1, 0, 0) not in law.entries


class TestOracleConditional:
    def test_matches_hand_value(self):
        law = enumerate_law(BCD23, 4)
        given = count_constraints_predicate([(1, 1)])
        assert law.conditional_probability(lambda t: sum(t) == 2, given) == Fraction(16, 27)

    def test_no_constraints_is_unconditional(self):
        law = enumerate_law(BCD23, 4)
        total = law.probability(lambda t: sum(t) == 2)
        given = count_constraints_predicate([])
        assert law.conditional_probability(lambda t: sum(t) == 2, given) == total

    def test_zero_mass_conditioning(self):
        law = enumerate_law(DesignSpec.bcd(1.0), 4)
        with pytest.raises(InfeasibleError):
            law.conditional_probability(lambda t: sum(t) == 2, count_constraints_predicate([(2, 2)]))

    def test_sequence_law_normalizes(self):
        law = enumerate_law(BCD23, 6)
        cond = oracle_sequence_law(law, [(3, 2), (6, 3)])
        assert sum(cond.values()) == 1
        assert all(sum(t[:3]) == 2 and sum(t) == 3 for t in cond)


class TestExactPvalue:
    def test_hand_case(self):
        scores = ScoreVector(np.array([-1.5, -0.5, 0.5, 1.5]))
        assert exact_conditional_pvalue(DesignSpec.complete(), scores, 2, 2.0) == Fraction(1, 6)

    def test_threshold_below_support_gives_one(self):
        scores = ScoreVector(np.array([-1.5, -0.5, 0.5, 1.5]))
        assert exact_conditional_pvalue(BCD23, scores, 2, -100.0) == 1

    def test_matches_enumeration(self):
        rng = np.random.default_rng(8)
        for n, n1 in ((6, 3), (8, 3), (10, 5)):
            responses = rng.standard_normal(n)
            scores = centered_scores(responses)
            law = enumerate_law(BCD23, n)
            cond = oracle_sequence_law(law, [(n, n1)])
            for v_star in (-1.0, 0.0, 1.5):
                want = sum(
                    (pr for t, pr in cond.items()
                     if linear_rank_statistic(scores, np.array(t)) >= v_star - 1e-12),
                    start=Fraction(0),
                )
                got = exact_conditional_pvalue(BCD23, scores, n1, v_star)
                assert got == want

    def test_distribution_sums_to_one(self):
        scores = centered_scores(np.arange(9.0))
        support, probs = exact_statistic_distribution(BCD23, scores, 4)
        assert sum(probs) == 1
        assert (np.diff(support) > 0).all()

    def test_infeasible_count(self):
        scores = centered_scores(np.arange(4.0))
        with pytest.raises(InfeasibleError):
            exact_conditional_pvalue(DesignSpec.bcd(1.0), scores, 4, 0.0)

    def test_non_lattice_scores_rejected(self):
        values = np.array([np.pi, -np.pi / 3, 1.0, np.pi / 3 - 1 - np.pi])
        with pytest.raises(ValueError):
            exact_conditional_pvalue(BCD23, values, 2, 0.0)

    def test_horizon_above_the_cap_rejected(self):
        scores = centered_scores(np.arange(MAX_DP + 1.0))
        message = f"exact DP supports 1 <= n <= {MAX_DP}, got {MAX_DP + 1}"
        with pytest.raises(ValueError, match=message):
            exact_conditional_pvalue(BCD23, scores, 2, 0.0)

    def test_count_out_of_range_rejected(self):
        scores = centered_scores(np.arange(4.0))
        with pytest.raises(ValueError, match="count 5 out of range for horizon 4"):
            exact_conditional_pvalue(BCD23, scores, 5, 0.0)

    def test_scale_above_a_million_rejected(self):
        # each score is on the lattice, but their common denominator is not small
        values = [1 / 9973, 1 / 9967]
        with pytest.raises(ValueError, match=r"scores need scale \d+, beyond the exact DP's range"):
            exact_conditional_pvalue(BCD23, values, 1, 0.0)

    def test_quantile_tail_property(self):
        scores = centered_scores(np.arange(10.0))
        for alpha in (0.05, 0.1, 0.25):
            q = exact_statistic_quantile(BCD23, scores, 5, alpha)
            support, probs = exact_statistic_distribution(BCD23, scores, 5)
            tail = sum(pr for s, pr in zip(support, probs) if s > q)
            assert tail <= Fraction(alpha).limit_denominator(10**6)


@st.composite
def dp_cases(draw):
    """A design, a count and scores on the lattice: midranks of rounded
    normal responses (ties included), or tied raw halves centered."""
    p = draw(st.sampled_from([0.5, 0.6, 2 / 3, 0.75, 0.9, 1.0]))
    design = draw(st.sampled_from([DesignSpec.bcd(p), DesignSpec.complete()]))
    n = draw(st.integers(1, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scores = centered_scores(np.round(rng.standard_normal(n), draw(st.integers(0, 2))))
    else:
        scores = centered_scores(rng.integers(-3, 4, n) / 2.0, "raw")
    return design, scores, draw(st.integers(0, n))


class TestPerCountDPMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(dp_cases())
    def test_support_and_fractions_are_the_pair_keyed_ones(self, case):
        design, scores, n1 = case
        try:
            want_support, want_probs = reference_statistic_distribution(design, scores, n1)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                exact_statistic_distribution(design, scores, n1)
            return
        support, probs = exact_statistic_distribution(design, scores, n1)
        assert support.tobytes() == want_support.tobytes()
        assert probs == want_probs

    @pytest.mark.parametrize("n1", [0, 1, 3, 5, 6])
    def test_permuted_block_counts(self, n1):
        # p = 1 forces every other step: only n1 = 3 is reachable at n = 6
        scores = centered_scores(np.arange(6.0))
        design = DesignSpec.bcd(1.0)
        if n1 != 3:
            for dp in (reference_statistic_distribution, exact_statistic_distribution):
                with pytest.raises(InfeasibleError):
                    dp(design, scores, n1)
        else:
            support, probs = exact_statistic_distribution(design, scores, n1)
            want_support, want_probs = reference_statistic_distribution(design, scores, n1)
            assert support.tobytes() == want_support.tobytes() and probs == want_probs


class TestOneLawPerQuestion:
    @settings(max_examples=60, deadline=None)
    @given(dp_cases(), st.integers(0, 2**32 - 1))
    def test_pvalue_is_the_reference_tail(self, case, seed):
        design, scores, n1 = case
        try:
            support, probs = reference_statistic_distribution(design, scores, n1)
        except InfeasibleError:
            return
        # thresholds on the support, halfway between its points and beyond
        # its ends, so that none is within rounding of a support point
        rng = np.random.default_rng(seed)
        between = (support[1:] + support[:-1]) / 2
        for v_star in (*rng.choice(support, 3), *rng.choice(between, min(3, between.size)),
                       support[0] - 0.25, support[-1] + 0.25):
            want = sum((pr for s, pr in zip(support, probs) if s >= v_star), start=Fraction(0))
            assert exact_conditional_pvalue(design, scores, n1, v_star) == want

    def test_repeatability_study_runs_one_dp_per_exact_row(self, monkeypatch):
        # the threshold and the exact tail of a row come from one law; a
        # wider DP does not make the n = 100 rows exact
        monkeypatch.setattr(bruteforce, "MAX_DP", 100)
        calls = []
        integerize = bruteforce._integerize_scores
        monkeypatch.setattr(
            bruteforce, "_integerize_scores", lambda v: calls.append(1) or integerize(v)
        )
        out = tail_estimate_repeatability(rows=TAIL_ROWS, runs=1, n_c=10, seed=3)
        exact_rows = sum(n <= TAIL_EXACT_N for n, _ in TAIL_ROWS)
        assert exact_rows == 4 and len(calls) == exact_rows
        assert all((r["exact"] is None) == (r["n"] > TAIL_EXACT_N) for r in out)


class TestObservedPointInItsTail:
    def test_raw_pvalue_is_the_tail_of_the_integer_statistic(self):
        # two-decimal responses up to 1e5: the float v_star sits within
        # rounding of its lattice point, on either side, in about a third
        # of these cases
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 13))
            x = np.round(rng.uniform(0, 1e5, n), int(rng.integers(1, 3)))
            t = np.zeros(n, dtype=int)
            t[rng.permutation(n)[: n // 2]] = 1
            scores = centered_scores(x, "raw")
            ints, scale = _integerize_scores(scores.values)
            observed = sum(a for a, b in zip(ints, t) if b) / scale
            support, probs = reference_statistic_distribution(BCD23, scores, n // 2)
            want = sum((pr for s, pr in zip(support, probs) if s >= observed), start=Fraction(0))
            v_star = linear_rank_statistic(scores, t)
            assert exact_conditional_pvalue(BCD23, scores, n // 2, v_star) == want, seed


@st.composite
def lattice_cases(draw):
    """A design, a count and integer scores: 8 to 12 negative, zero and
    repeated values times a common factor, a lattice dense enough to
    pack.  A wide case adds 0, 1 and 10**7 times the factor, a lattice
    too wide to pack."""
    p = draw(st.sampled_from([0.5, 0.6, 2 / 3, 0.75, 0.9, 1.0]))
    design = draw(st.sampled_from([DesignSpec.bcd(p), DesignSpec.complete()]))
    base = draw(st.lists(st.integers(-4, 4), min_size=8, max_size=12))
    wide = draw(st.booleans())
    if wide:
        base += [0, 1, 10**7]
    factor = draw(st.sampled_from([1, 3, 10]))
    scores = np.array(base, dtype=float) * factor
    return design, scores, draw(st.integers(0, len(base))), wide


def _spy_forms(mp) -> list[str]:
    """Record which form of the DP each call runs."""
    forms = []
    for name in ("_forward_packed", "_forward_sparse"):
        inner = getattr(bruteforce, name)
        mp.setattr(bruteforce, name, lambda *a, _f=inner, _n=name: forms.append(_n) or _f(*a))
    return forms


class TestPackedDP:
    @settings(max_examples=150, deadline=None)
    @given(lattice_cases())
    def test_both_forms_are_the_pair_keyed_law(self, case):
        design, scores, n1, wide = case
        with pytest.MonkeyPatch.context() as mp:
            forms = _spy_forms(mp)
            try:
                want_support, want_probs = reference_statistic_distribution(design, scores, n1)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    exact_statistic_distribution(design, scores, n1)
                assert forms == ["_forward_sparse" if wide else "_forward_packed"]
                return
            support, probs = exact_statistic_distribution(design, scores, n1)
        assert forms == ["_forward_sparse" if wide else "_forward_packed"]
        assert support.tobytes() == want_support.tobytes()
        assert probs == want_probs

    def test_form_follows_the_span(self):
        # at n = 3 under complete randomization a path weighs 2**3 and a
        # weight is at most 4**3, 7 bits, so a slot is one byte; scores 0,
        # 1 and a reach statistics 0 to a + 1, a lattice of a + 2 points,
        # against 3 subsets at the widest count
        design = DesignSpec.complete()
        for a, bits, form in (
            (4, PACK_BITS, "_forward_packed"),
            (5, PACK_BITS, "_forward_sparse"),
            (4, 6 * 8, "_forward_packed"),
            (4, 6 * 8 - 1, "_forward_sparse"),
        ):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bruteforce, "PACK_BITS", bits)
                forms = _spy_forms(mp)
                dist = bruteforce._forward(design, [0, 1, a], n1=2)[2]
            assert forms == [form], (a, bits)
            assert dist == {1: 8, a: 8, a + 1: 8}

    def test_a_given_count_unpacks_its_law_alone(self, monkeypatch):
        # an exact p-value reads one count's law, so the DP unpacks that
        # one; every count unpacked, with no count given, has the same law there
        calls = []
        unpack = bruteforce._unpack
        monkeypatch.setattr(bruteforce, "_unpack", lambda *a: calls.append(1) or unpack(*a))
        x = np.random.default_rng(40).standard_normal(MAX_DP)
        ints, _ = _integerize_scores(centered_scores(x).values)
        for design, n1 in ((BCD23, 20), (DesignSpec.bcd(0.75), 17), (DesignSpec.complete(), 23)):
            calls.clear()
            law = bruteforce._forward(design, ints, n1=n1)
            assert len(calls) == 1 and [m for m, row in enumerate(law) if row] == [n1]
            calls.clear()
            assert bruteforce._forward(design, ints)[n1] == law[n1]
            assert len(calls) == MAX_DP + 1
            calls.clear()
            v_star = linear_rank_statistic(centered_scores(x), np.arange(MAX_DP) < n1)
            exact_conditional_pvalue(design, centered_scores(x), n1, v_star)
            assert len(calls) == 1

    def test_rank_scores_at_the_largest_horizon_pack(self):
        for design in (DesignSpec.bcd(0.6), DesignSpec.bcd(0.7123456789), DesignSpec.complete()):
            scores = centered_scores(np.arange(MAX_DP, dtype=float))
            with pytest.MonkeyPatch.context() as mp:
                forms = _spy_forms(mp)
                exact_statistic_distribution(design, scores, MAX_DP // 2)
            assert forms == ["_forward_packed"]


def _tail_row_scores(r_idx: int, n: int):
    """The scores of a default repeatability row, drawn as the study draws them."""
    return centered_scores(substream(2012, r_idx, 0).standard_normal(n))


class TestLatticeOracle:
    @pytest.mark.parametrize(
        "design", [DesignSpec.bcd(0.5), BCD23, DesignSpec.bcd(1.0), DesignSpec.complete()]
    )
    @pytest.mark.parametrize("n1", [0, 5, 6, 12])
    def test_small_laws_are_the_exact_dp(self, design, n1):
        scores = centered_scores(np.array([3.0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]))
        try:
            want_support, want_probs = exact_statistic_distribution(design, scores, n1)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                lattice_statistic_distribution(design, scores, n1)
            return
        support, probs = lattice_statistic_distribution(design, scores, n1)
        assert support.tobytes() == want_support.tobytes()
        assert np.abs(probs - [float(pr) for pr in want_probs]).max() <= 1e-12

    def test_exact_rows_are_the_exact_dp(self):
        design = DesignSpec.bcd(0.6)
        rows = [(r_idx, n, n1) for r_idx, (n, n1) in enumerate(TAIL_ROWS) if n <= MAX_DP]
        assert len(rows) == 4
        for r_idx, n, n1 in rows:
            scores = _tail_row_scores(r_idx, n)
            want_support, want_probs = exact_statistic_distribution(design, scores, n1)
            support, probs = lattice_statistic_distribution(design, scores, n1)
            assert support.tobytes() == want_support.tobytes()
            assert np.abs(probs - [float(pr) for pr in want_probs]).max() <= 1e-12

    def test_repeatability_means_sit_on_the_lattice_tails(self):
        # the n = 100 rows have no exact DP; the lattice gives their tails
        # (0.100082 and 0.100554), against which each mean is z = 0.77, 0.70
        rows = tail_estimate_repeatability()
        assert [(r["n"], r["n1"]) for r in rows] == list(TAIL_ROWS)
        assert any(r["exact"] is None for r in rows)
        for r_idx, row in enumerate(rows):
            scores = _tail_row_scores(r_idx, row["n"])
            support, probs = lattice_statistic_distribution(DesignSpec.bcd(0.6), scores, row["n1"])
            tail = probs[support >= row["v_star"]].sum()
            if row["exact"] is not None:
                assert tail == pytest.approx(row["exact"], abs=1e-12)
            assert abs(row["mean"] - tail) <= 4 * row["sd"] / np.sqrt(row["runs"]), row


class TestExactCovariance:
    def test_two_subject_matrix(self):
        law = enumerate_law(BCD23, 2)
        sigma = exact_covariance(law, [(2, 1)])
        assert sigma[0, 0] == Fraction(1, 4)
        assert sigma[0, 1] == Fraction(-1, 4)

    def test_unconstrained_complete_is_independent(self):
        law = enumerate_law(DesignSpec.complete(), 2)
        sigma = exact_covariance(law, [])
        assert sigma[0, 0] == Fraction(1, 4)
        assert sigma[0, 1] == 0
