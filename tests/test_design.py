import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from condrand import (
    DesignSpec,
    TreatmentSequence,
    simulate_unconditional,
    unconditional_pmf,
)
from condrand.design import _imbalance_probabilities
from oracles import (
    assignment_probability,
    enumerate_law,
    reference_unconditional_draws,
    sequence_probability,
    unconditional_batch,
)


class TestDesignSpec:
    def test_parse_round_trip(self):
        d = DesignSpec.parse("bcd:0.6667")
        assert d.kind == "bcd" and d.p == pytest.approx(0.6667)
        assert DesignSpec.parse("complete").kind == "complete"
        assert DesignSpec.from_json({"kind": "bcd", "p": 0.6667}) == d

    def test_complete_json_round_trip(self):
        d = DesignSpec.complete()
        assert DesignSpec.from_json({"kind": "complete"}) == d

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown design kind 'urn'"):
            DesignSpec("urn")
        with pytest.raises(ValueError, match="cannot parse design 'urn:0.7'"):
            DesignSpec.parse("urn:0.7")

    @pytest.mark.parametrize("obj", [{"kind": "urn", "p": 0.8}, {"kind": "urn"}])
    def test_from_json_refuses_an_unknown_kind(self, obj):
        # the kind is checked before p is read: an urn with a p is not a coin
        with pytest.raises(ValueError, match="unknown design kind 'urn'"):
            DesignSpec.from_json(obj)

    @pytest.mark.parametrize("p", [True, "0.75", None, [0.75]])
    def test_from_json_takes_p_only_as_a_number(self, p):
        # true and "0.75" were once read as their float(), bcd:1 and bcd:0.75
        with pytest.raises(ValueError, match=re.escape(f"must be a JSON number, got {p!r}")):
            DesignSpec.from_json({"kind": "bcd", "p": p})
        assert DesignSpec.from_json({"kind": "bcd", "p": 1}) == DesignSpec.bcd(1.0)

    def test_bias_validated_at_construction(self):
        with pytest.raises(ValueError):
            DesignSpec.bcd(0.4)
        with pytest.raises(ValueError):
            DesignSpec.bcd(1.2)
        DesignSpec.bcd(0.5)
        DesignSpec.bcd(1.0)

    def test_complete_forces_half(self):
        assert DesignSpec(kind="complete", p=0.9).p == 0.5

    def test_exact_p_recovers_small_rationals(self):
        assert DesignSpec.bcd(2 / 3).exact_p() == Fraction(2, 3)
        assert DesignSpec.bcd(0.6).exact_p() == Fraction(3, 5)
        assert DesignSpec.bcd(0.75).exact_p() == Fraction(3, 4)

    def test_exact_p_keeps_a_bias_no_small_rational_equals(self):
        # the nearest small rational, 577/810, is another float
        design = DesignSpec.bcd(0.7123456789)
        assert design.exact_p() == Fraction(0.7123456789)
        value = unconditional_pmf(design, 10, 5)
        assert abs(float(unconditional_pmf(design, 10, 5, "exact")) - value) <= np.spacing(value)


class TestTreatmentSequence:
    def test_string_round_trip(self):
        t = TreatmentSequence.from_string("0110")
        assert t.to_string() == "0110"
        assert len(t) == 4 and t.count() == 2

    def test_running_counts_unit_steps(self):
        t = TreatmentSequence.from_string("10110")
        counts = t.running_counts()
        assert counts.tolist() == [1, 1, 2, 3, 3]
        steps = np.diff(np.concatenate([[0], counts]))
        assert set(steps.tolist()) <= {0, 1}

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            TreatmentSequence(np.array([0, 2, 1]))
        with pytest.raises(ValueError):
            TreatmentSequence.from_string("01x")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="assignments must be a nonempty 1-D sequence"):
            TreatmentSequence([])


class TestAssignmentProbability:
    def test_balanced_state_is_fair_coin(self):
        assert assignment_probability(DesignSpec.bcd(2 / 3), 0, 0) == 0.5

    def test_deficit_gets_bias(self):
        assert assignment_probability(DesignSpec.bcd(2 / 3), 3, 1) == pytest.approx(2 / 3)

    def test_complete_always_half(self):
        assert assignment_probability(DesignSpec.complete(), 7, 6) == 0.5

    def test_permuted_block_limit(self):
        assert assignment_probability(DesignSpec.bcd(1.0), 1, 1) == 0.0

    def test_count_out_of_range(self):
        with pytest.raises(ValueError):
            assignment_probability(DesignSpec.bcd(0.6), 3, 4)
        with pytest.raises(ValueError):
            assignment_probability(DesignSpec.bcd(0.6), 3, -1)

    @given(
        p=st.floats(0.5, 1.0),
        j=st.integers(0, 60),
        data=st.data(),
    )
    def test_always_a_probability(self, p, j, data):
        m = data.draw(st.integers(0, j))
        pr = assignment_probability(DesignSpec.bcd(p), j, m)
        assert 0.0 <= pr <= 1.0

    @pytest.mark.parametrize(
        "design", [DesignSpec.bcd(0.6), DesignSpec.bcd(1.0), DesignSpec.complete()]
    )
    def test_package_table_states_the_same_rule(self, design):
        # the package's one statement of the coin rule, indexed by imbalance
        end = 12
        table = _imbalance_probabilities(design, end)
        for j in range(end + 1):
            for m in range(j + 1):
                assert table[2 * m - j + end] == assignment_probability(design, j, m)


class TestSimulateUnconditional:
    def test_sequence_probability_hand_product(self):
        d = DesignSpec.bcd(2 / 3)
        assert sequence_probability(d, TreatmentSequence.from_string("11")) == Fraction(1, 6)

    def test_law_matches_product_weights(self):
        # per-cell agreement with the exact law at 4 standard errors
        d = DesignSpec.bcd(2 / 3)
        n, draws = 5, 200_000
        batch = unconditional_batch(d, n, 101, draws)
        codes = batch @ (1 << np.arange(n))
        observed = np.bincount(codes, minlength=2**n)
        law = enumerate_law(d, n)
        for bits, prob in law.entries.items():
            code = sum(b << i for i, b in enumerate(bits))
            f = float(prob)
            se = np.sqrt(draws * f * (1 - f))
            assert abs(observed[code] - draws * f) <= 4 * se + 1e-9

    def test_bcd_half_is_uniform(self):
        law = enumerate_law(DesignSpec.bcd(0.5), 6)
        assert all(pr == Fraction(1, 64) for pr in law.entries.values())

    def test_complete_n3_uniform(self):
        law = enumerate_law(DesignSpec.complete(), 3)
        assert sorted(law.entries.values()) == [Fraction(1, 8)] * 8

    def test_two_step_balance_frequency(self):
        # P(N1(2) = 1) = p for the biased coin
        d = DesignSpec.bcd(2 / 3)
        draws = 1_000_000
        batch = unconditional_batch(d, 2, 77, draws)
        freq = (batch.sum(axis=1) == 1).mean()
        se = np.sqrt((2 / 3) * (1 / 3) / draws)
        assert abs(freq - 2 / 3) <= 4 * se

    @pytest.mark.parametrize(
        "design",
        [DesignSpec.bcd(0.75), DesignSpec.bcd(1.0), DesignSpec.bcd(0.5), DesignSpec.complete()],
        ids=str,
    )
    @pytest.mark.parametrize("size", [None, 2500, 80_000])
    def test_draws_are_the_step_by_step_bits(self, design, size):
        if size is None:
            got = simulate_unconditional(design, 30, rng=16).assignments[None, :]
        else:
            got = unconditional_batch(design, 30, 16, size)
        want = reference_unconditional_draws(design, 30, 16, size or 1)
        assert got.tobytes() == want.tobytes()

    def test_single_draw_type(self):
        t = simulate_unconditional(DesignSpec.bcd(0.75), 12, rng=3)
        assert isinstance(t, TreatmentSequence) and len(t) == 12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simulate_unconditional(DesignSpec.complete(), 0)
