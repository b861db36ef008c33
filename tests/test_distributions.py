import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from condrand import (
    DesignSpec,
    conditional_pmf,
    distributions,
    pmf_table,
    unconditional_pmf,
)
from condrand.bruteforce import exact_count_law
from condrand.distributions import (
    _ballot_terms,
    _correction_value,
    backward_log_table,
)
from condrand.errors import NumericalError
from oracles import (
    _ballot_int,
    backward_exact_table,
    closed_form_exact,
    count_constraints_predicate,
    dense_table,
    enumerate_law,
    reference_eval_series_float,
    reference_plan_conditional,
    reference_plan_unconditional,
    walk_branch,
)

BCD23 = DesignSpec.bcd(2 / 3)
DESIGNS = [DesignSpec.bcd(p) for p in (0.5, 0.6, 2 / 3, 0.75, 1.0)]


class TestBallotCoefficient:
    def test_zero_downsteps(self):
        for x in (0, 1, 5, 40):
            assert _ballot_int(x, 0) == 1

    def test_small_value(self):
        assert _ballot_int(2, 1) == 1
        assert _ballot_int(4, 2) == 5

    def test_diagonal_vanishes(self):
        for x in (1, 3, 10):
            assert _ballot_int(x, x) == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            _ballot_int(2, 3)
        with pytest.raises(ValueError):
            _ballot_int(-1, 0)

    def test_float_matches_exact(self):
        # the float ratio (x - l)/(x + l) * binom(x + l, l) rounds to the integer
        for x in range(1, 12):
            for l in range(x + 1):
                assert round((x - l) / (x + l) * math.comb(x + l, l)) == _ballot_int(x, l)


class TestBallotTerms:
    def test_matches_per_term_integers(self):
        for x in range(301):
            full = [(l, c) for l in range(x + 1) if (c := _ballot_int(x, l)) > 0]
            for l_max in {-1, 0, x // 3, x - 1, x}:
                assert list(_ballot_terms(x, l_max)) == [t for t in full if t[0] <= l_max]

    def test_remainder_raises(self, monkeypatch):
        # the guard is an error, not an assert that python -O strips
        monkeypatch.setattr(distributions, "divmod", lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(NumericalError, match="ballot numerator 8 is not divisible by 4"):
            list(_ballot_terms(3, 1))

    def test_negative_no_return_count_raises(self):
        # binom(10, 1) - binom(10, 5) counts no paths
        with pytest.raises(NumericalError, match="negative no-return path count -242"):
            _correction_value(10, (1, 5, 0))

    def test_l_max_above_x_raises(self):
        for x, l_max in ((0, 1), (3, 4), (10, 20)):
            with pytest.raises(ValueError):
                list(_ballot_terms(x, l_max))


class TestUnconditionalPmf:
    def test_fair_coin_reduces_to_binomial(self):
        assert unconditional_pmf(DesignSpec.bcd(0.5), 4, 2) == pytest.approx(0.375)

    def test_two_step_values(self):
        assert unconditional_pmf(BCD23, 2, 1, "exact") == Fraction(2, 3)
        assert unconditional_pmf(BCD23, 2, 2, "exact") == Fraction(1, 6)

    def test_normalization_large_n(self):
        for design in (BCD23, DesignSpec.bcd(0.75), DesignSpec.complete()):
            for n in (17, 128, 500):
                assert abs(pmf_table(design, n).sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("p", [0.55, 2 / 3, 0.75])
    def test_float_law_holds_at_horizon_2000(self, p):
        design, n = DesignSpec.bcd(p), 2000
        table = pmf_table(design, n)
        assert abs(table.sum() - 1.0) < 1e-12
        for n1 in (1000, 995, 960, 900):
            exact = closed_form_exact(design, n, n1)
            want = math.log(exact.numerator) - math.log(exact.denominator)
            assert abs(math.log(table[n1]) - want) < 1e-12, n1
            # the backward recursion drifts further, up to 1.3e-11 here at
            # log P = -88, so it is held to the exact value relatively
            backward = backward_log_table(design, 0, n, n1)[0][0]
            assert abs(backward - want) < 1e-12 * abs(want), n1

    def test_table_at_horizon_2000_is_the_per_count_law(self):
        # its ballot numbers pass 2**1024, where math.log takes big integers
        design, n = DesignSpec.bcd(0.75), 2000
        per_count = np.array([unconditional_pmf(design, n, n1) for n1 in range(n + 1)])
        assert pmf_table(design, n).tobytes() == per_count.tobytes()

    def test_table_small(self):
        assert pmf_table(DesignSpec.bcd(0.5), 2) == pytest.approx([0.25, 0.5, 0.25])
        table = pmf_table(BCD23, 2, "exact")
        assert table == [Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)]

    @pytest.mark.parametrize(
        "design",
        [DesignSpec.bcd(p) for p in (0.5, 0.55, 0.6, 2 / 3, 0.75, 0.9, 1.0)] + [DesignSpec.complete()],
        ids=str,
    )
    def test_table_is_mirror_of_per_count_law(self, design):
        for n in (*range(1, 61), 99, 100, 101, 301, 500):
            table = pmf_table(design, n)
            per_count = np.array([unconditional_pmf(design, n, n1) for n1 in range(n + 1)])
            assert table.tobytes() == table[::-1].tobytes() == per_count.tobytes(), n
            if design.kind == "bcd" and n <= 101:
                plans = [reference_plan_unconditional(n, n1)[1] for n1 in range(n + 1)]
                reference = np.array([reference_eval_series_float(pl, design.p) for pl in plans])
                assert table.tobytes() == reference.tobytes(), n
        for n in (1, 2, 9, 24):
            table = pmf_table(design, n, "exact")
            per_count = [unconditional_pmf(design, n, n1, "exact") for n1 in range(n + 1)]
            assert table == table[::-1] == per_count

    def test_table_horizon_below_one_raises(self):
        for backend in ("float", "exact"):
            for n in (0, -3):
                with pytest.raises(ValueError, match="horizon must be >= 1"):
                    pmf_table(BCD23, n, backend)

    def test_components_nonnegative(self):
        for design in DESIGNS:
            assert (pmf_table(design, 21) >= 0).all()

    def test_symmetry(self):
        for design in DESIGNS:
            for n in (5, 8, 13):
                for n1 in range(n + 1):
                    lhs = unconditional_pmf(design, n, n1, "exact")
                    rhs = unconditional_pmf(design, n, n - n1, "exact")
                    assert lhs == rhs
                    assert abs(
                        unconditional_pmf(design, n, n1) - unconditional_pmf(design, n, n - n1)
                    ) < 1e-12

    def test_matches_enumeration_small(self):
        for design in DESIGNS:
            for n in range(1, 9):
                law = enumerate_law(design, n)
                for n1 in range(n + 1):
                    want = law.probability(lambda t, k=n1: sum(t) == k)
                    assert unconditional_pmf(design, n, n1, "exact") == want
                    assert abs(unconditional_pmf(design, n, n1) - float(want)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            unconditional_pmf(BCD23, 4, 5)
        with pytest.raises(ValueError):
            unconditional_pmf(BCD23, 0, 0)
        with pytest.raises(ValueError):
            unconditional_pmf(BCD23, 4, 2, backend="decimal")


class TestConditionalPmf:
    def test_hand_enumerated_value(self):
        assert conditional_pmf(BCD23, 4, 2, 1, 1, "exact") == Fraction(16, 27)
        assert conditional_pmf(BCD23, 4, 2, 1, 1) == pytest.approx(16 / 27, abs=1e-14)

    def test_boundary_conventions(self):
        assert conditional_pmf(BCD23, 5, 3, 5, 3) == 1.0
        assert conditional_pmf(BCD23, 5, 2, 3, 3) == 0.0  # m > n1
        assert conditional_pmf(BCD23, 5, 5, 3, 1) == 0.0  # too few steps left
        assert conditional_pmf(BCD23, 6, 2, 0, 0) == unconditional_pmf(BCD23, 6, 2)

    def test_normalizes_over_targets(self):
        n = 11
        for j, m in ((3, 1), (4, 2), (7, 6)):
            total = sum(conditional_pmf(BCD23, n, n1, j, m) for n1 in range(m, n - j + m + 1))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_constrained_enumeration_small(self):
        for design in DESIGNS:
            for n in range(2, 8):
                law = enumerate_law(design, n)
                for j in range(1, n):
                    for m in range(j + 1):
                        mass = law.probability(lambda t, jj=j, mm=m: sum(t[:jj]) == mm)
                        if mass == 0:
                            continue
                        for n1 in range(n + 1):
                            want = law.conditional_probability(
                                lambda t, k=n1: sum(t) == k, count_constraints_predicate([(j, m)])
                            )
                            got = conditional_pmf(design, n, n1, j, m, "exact")
                            assert got == want, (design.p, n, n1, j, m)

    def test_chapman_kolmogorov(self):
        design = DesignSpec.bcd(0.7)
        n, j, jp, m = 14, 3, 8, 1
        for n1 in range(m, n - j + m + 1):
            direct = conditional_pmf(design, n, n1, j, m)
            via = sum(
                conditional_pmf(design, n, n1, jp, k) * conditional_pmf(design, jp, k, j, m)
                for k in range(m, jp - j + m + 1)
            )
            assert direct == pytest.approx(via, abs=1e-10)

    def test_chapman_kolmogorov_exact(self):
        design = BCD23
        n, j, jp, m = 9, 2, 5, 2
        for n1 in range(m, n - j + m + 1):
            direct = conditional_pmf(design, n, n1, j, m, "exact")
            via = sum(
                conditional_pmf(design, n, n1, jp, k, "exact")
                * conditional_pmf(design, jp, k, j, m, "exact")
                for k in range(m, jp - j + m + 1)
            )
            assert direct == via

    def test_float_tracks_exact(self):
        for design in (DesignSpec.bcd(0.6), DesignSpec.bcd(1.0)):
            n = 13
            for j in range(0, n + 1, 3):
                for m in range(0, j + 1, 2):
                    for n1 in range(n + 1):
                        want = float(conditional_pmf(design, n, n1, j, m, "exact"))
                        assert conditional_pmf(design, n, n1, j, m) == pytest.approx(
                            want, abs=1e-12
                        )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            conditional_pmf(BCD23, 5, 2, 6, 1)
        with pytest.raises(ValueError):
            conditional_pmf(BCD23, 5, 2, 3, 4)


# the branches of the reference plans, and the cases conditional_pmf
# settles before it takes a plan
UNCONDITIONAL_PLANS = ("end_below", "end_balanced", "end_above")
CONDITIONAL_PLANS = (
    "deficit_no_return",
    "deficit_end_below",
    "deficit_end_balanced",
    "deficit_end_above",
    "surplus_end_below",
    "surplus_end_balanced",
    "surplus_end_above",
    "surplus_no_return",
)
BRANCHES = ("certain", "impossible", "unconditional", "balanced_restart") + CONDITIONAL_PLANS
# a random bias, the fair coin, the permuted block of two, and complete
DESIGN_DRAWS = st.one_of(
    st.just(DesignSpec.complete()),
    st.sampled_from((0.5, 1.0)).map(DesignSpec.bcd),
    st.floats(0.5, 1.0).map(DesignSpec.bcd),
)


@st.composite
def _count_in_plan(draw, label):
    """(n, n1) at n <= 600 whose unconditional law takes the named plan."""
    n = draw(st.integers(1, 600))
    targets = [n1 for n1 in range(n + 1) if reference_plan_unconditional(n, n1)[0] == label]
    assume(targets)
    return n, draw(st.sampled_from(targets))


def _laws(design, n, n1, j=None, m=None):
    """The float values, as an array, and the rational closed-form values
    of the unconditional law at (n, n1) and, given (j, m), the conditional
    one."""
    floats, exact = [unconditional_pmf(design, n, n1)], [closed_form_exact(design, n, n1)]
    if j is not None:
        floats.append(conditional_pmf(design, n, n1, j, m))
        exact.append(closed_form_exact(design, n, n1, j, m))
    return np.array(floats), exact


@st.composite
def _state_in_branch(draw, label):
    """(n, n1, j, m) at n <= 600 whose conditional law takes the named branch."""
    n = draw(st.integers(2, 600))
    if label == "unconditional":
        j = 0
    elif label == "certain":
        j = n
    else:
        j = draw(st.integers(1, n - 1))
    if label.startswith("deficit"):
        m = draw(st.integers(0, (j - 1) // 2))
    elif label.startswith("surplus"):
        m = draw(st.integers(j // 2 + 1, j))
    elif label == "balanced_restart":
        assume(j % 2 == 0)
        m = j // 2
    else:
        m = draw(st.integers(0, j))
    targets = [n1 for n1 in range(n + 1) if walk_branch(n, n1, j, m) == label]
    assume(targets)
    return n, draw(st.sampled_from(targets)), j, m


class TestWalkBranches:
    def test_every_branch_reachable(self):
        seen = set()
        n = 12
        for j in range(n + 1):
            for m in range(j + 1):
                for n1 in range(n + 1):
                    seen.add(walk_branch(n, n1, j, m))
        assert seen >= set(BRANCHES)

    @pytest.mark.parametrize("label", BRANCHES)
    @settings(max_examples=10, deadline=None)
    @given(design=DESIGN_DRAWS, data=st.data())
    def test_stepped_series_equals_per_term_oracle(self, label, design, data):
        n, n1, j, m = data.draw(_state_in_branch(label))
        assert walk_branch(n, n1, j, m) == label
        got = [unconditional_pmf(design, n, n1), conditional_pmf(design, n, n1, j, m)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "_eval_series_float", reference_eval_series_float)
            want = [unconditional_pmf(design, n, n1), conditional_pmf(design, n, n1, j, m)]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("label", UNCONDITIONAL_PLANS + CONDITIONAL_PLANS)
    @settings(max_examples=10, deadline=None)
    @given(design=DESIGN_DRAWS, data=st.data())
    def test_mirrored_plans_equal_the_two_sided_reference(self, label, design, data):
        if label in UNCONDITIONAL_PLANS:
            state = data.draw(_count_in_plan(label))
        else:
            state = data.draw(_state_in_branch(label))
        got_float, got_exact = _laws(design, *state)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "_plan_unconditional",
                       lambda *a: reference_plan_unconditional(*a)[1])
            mp.setattr(distributions, "_plan_conditional",
                       lambda *a: reference_plan_conditional(*a)[1])
            want_float, want_exact = _laws(design, *state)
        assert got_float.tobytes() == want_float.tobytes()
        assert all(isinstance(v, Fraction) for v in got_exact)
        assert got_exact == want_exact

    def test_correction_branches_priced_correctly(self):
        # spot-check the two branches carrying the no-return correction term
        design = DesignSpec.bcd(0.6)
        n = 10
        law = enumerate_law(design, n)
        checked = 0
        for j in range(1, n):
            for m in range(j + 1):
                for n1 in range(n + 1):
                    if walk_branch(n, n1, j, m) not in (
                        "deficit_end_below",
                        "surplus_end_above",
                    ):
                        continue
                    if law.probability(lambda t, jj=j, mm=m: sum(t[:jj]) == mm) == 0:
                        continue
                    want = law.conditional_probability(
                        lambda t, k=n1: sum(t) == k, count_constraints_predicate([(j, m)])
                    )
                    assert conditional_pmf(design, n, n1, j, m, "exact") == want
                    checked += 1
        assert checked > 20


class TestLawMemo:
    """A float law is priced once per process and kept in the memo of
    :mod:`condrand.distributions`; every call returns a fresh array."""

    DESIGNS = [DesignSpec.bcd(p) for p in (0.6, 2 / 3, 0.75, 1.0)] + [DesignSpec.complete()]
    # unconditional; from deficit, surplus and balance at step 25 of 60
    GIVEN = [None, (25, 10), (25, 15), (24, 12)]
    PRICERS = ("_eval_series_float", "_eval_pure_float", "_complete_pmf",
               "unconditional_pmf", "conditional_pmf")

    def count_pricing(self, monkeypatch):
        calls = []
        for name in self.PRICERS:
            inner = getattr(distributions, name)
            monkeypatch.setattr(
                distributions, name, lambda *a, _f=inner, **k: calls.append(a) or _f(*a, **k)
            )
        return calls

    @pytest.mark.parametrize("given", GIVEN, ids=str)
    @pytest.mark.parametrize("design", DESIGNS, ids=str)
    def test_warm_law_is_the_cold_bytes_with_no_closed_form(
        self, design, given, monkeypatch, empty_memo
    ):
        if given is None:
            want = [unconditional_pmf(design, 60, n1) for n1 in range(61)]
        else:
            want = [conditional_pmf(design, 60, n1, *given) for n1 in range(61)]
        calls = self.count_pricing(monkeypatch)
        cold = pmf_table(design, 60, given=given)
        assert calls and list(empty_memo) == [(design, 60, given)]
        calls.clear()
        warm = pmf_table(design, 60, given=given)
        assert calls == [] and warm.tobytes() == cold.tobytes() == np.array(want).tobytes()

    def test_a_written_table_leaves_the_next_hit_alone(self, empty_memo):
        for given in (None, (25, 10)):
            first = pmf_table(BCD23, 60, given=given)
            want = first.copy()
            assert first.flags.writeable
            first[:] = -1.0
            second = pmf_table(BCD23, 60, given=given)
            assert second.flags.writeable and second.tobytes() == want.tobytes()
            assert not empty_memo[BCD23, 60, given].flags.writeable

    def test_designs_never_share_an_entry(self, empty_memo):
        # bcd:0.5 is the complete design's law under another design
        designs = [DesignSpec.bcd(0.5), DesignSpec.complete(), DesignSpec.bcd(0.6)]
        laws = [pmf_table(design, 40, given=(15, 6)) for design in designs]
        assert list(empty_memo) == [(design, 40, (15, 6)) for design in designs]
        assert not np.array_equal(laws[0], laws[2])
        for design, law in zip(designs, laws):
            assert pmf_table(design, 40, given=(15, 6)).tobytes() == law.tobytes()

    def test_a_list_given_shares_the_tuple_entry(self, empty_memo):
        law = pmf_table(BCD23, 30, given=[10, 4])
        assert list(empty_memo) == [(BCD23, 30, (10, 4))]
        assert pmf_table(BCD23, 30, given=(10, 4)).tobytes() == law.tobytes()

    def test_bad_arguments_raise_before_the_memo(self, empty_memo):
        with pytest.raises(ValueError, match="interim count 11 out of range for step 10"):
            pmf_table(BCD23, 30, given=(10, 11))
        with pytest.raises(ValueError, match="backend must be"):
            pmf_table(BCD23, 30, "double")
        assert not empty_memo

    def test_exact_laws_are_fresh_lists_and_never_kept(self, empty_memo):
        for given in (None, (10, 4)):
            first = pmf_table(BCD23, 24, "exact", given=given)
            second = pmf_table(BCD23, 24, "exact", given=given)
            assert first is not second and first == second
            assert all(isinstance(v, Fraction) for v in first)
            first[0] = Fraction(7)
            assert pmf_table(BCD23, 24, "exact", given=given) == second
        assert not empty_memo


class TestOneLaw:
    """The unconditional law is the conditional law from N1(0) = 0, and a
    float law from balance prices its lower half and mirrors the rest."""

    DESIGNS = [DesignSpec.bcd(p) for p in (0.5, 0.55, 2 / 3, 0.75, 0.9, 1.0)]
    DESIGNS += [DesignSpec.complete()]

    @pytest.mark.parametrize("design", DESIGNS, ids=str)
    def test_unconditional_is_the_law_from_zero(self, design):
        for n in range(1, 41):
            for n1 in range(n + 1):
                got = unconditional_pmf(design, n, n1)
                assert got.hex() == conditional_pmf(design, n, n1, 0, 0).hex(), (n, n1)
        for n in (1, 2, 7, 12, 24, 40):
            for n1 in range(n + 1):
                got = unconditional_pmf(design, n, n1, "exact")
                assert got == conditional_pmf(design, n, n1, 0, 0, "exact"), (n, n1)

    @pytest.mark.parametrize(
        "n, given", [(1, None), (24, None), (25, None), (24, (0, 0)), (24, (2, 1)),
                     (24, (10, 5)), (24, (24, 12)), (25, (12, 6)), (2, (2, 1))],
        ids=str,
    )
    @pytest.mark.parametrize("design", DESIGNS, ids=str)
    def test_a_law_from_balance_prices_its_lower_half(
        self, design, n, given, monkeypatch, empty_memo
    ):
        j, m = given or (0, 0)
        want = np.array([conditional_pmf(design, n, n1, j, m) for n1 in range(n + 1)])
        priced, inner = [], distributions.conditional_pmf
        monkeypatch.setattr(
            distributions, "conditional_pmf", lambda *a: priced.append(a[2]) or inner(*a)
        )
        assert pmf_table(design, n, given=given).tobytes() == want.tobytes()
        assert priced == list(range(n // 2 + 1))


class TestExactEngine:
    """The exact backend is the integer DP; the rational closed forms
    check it."""

    @pytest.mark.parametrize("design", DESIGNS + [DesignSpec.complete()], ids=str)
    def test_dp_equals_closed_forms_on_every_state(self, design):
        for n in (1, 2, 7, 12, 24, 40):
            for j in range(n + 1):
                for m in range(j + 1):
                    law = exact_count_law(design, n, j, m)
                    assert len(law) == n + 1
                    for n1, value in enumerate(law):
                        assert value == closed_form_exact(design, n, n1, j, m), (n, n1, j, m)

    @pytest.mark.parametrize("design", DESIGNS + [DesignSpec.complete()], ids=str)
    def test_dp_equals_closed_forms_at_horizon_300(self, design):
        assert exact_count_law(design, 300)[143] == closed_form_exact(design, 300, 143)
        law = exact_count_law(design, 300, 101, 47)
        assert law[151] == closed_form_exact(design, 300, 151, 101, 47)

    @pytest.mark.parametrize("design", [DesignSpec.bcd(0.6), DesignSpec.bcd(1.0)], ids=str)
    def test_given_table_equals_per_target_values(self, design):
        n = 24
        for j, m in ((0, 0), (10, 4), (10, 5), (13, 9), (24, 11)):
            table = pmf_table(design, n, given=(j, m))
            per_target = np.array([conditional_pmf(design, n, n1, j, m) for n1 in range(n + 1)])
            assert table.tobytes() == per_target.tobytes(), (j, m)
            exact = [conditional_pmf(design, n, n1, j, m, "exact") for n1 in range(n + 1)]
            assert pmf_table(design, n, "exact", given=(j, m)) == exact, (j, m)

    def test_count_law_refuses_a_bad_state(self):
        with pytest.raises(ValueError, match="need 0 <= m <= j <= n"):
            exact_count_law(BCD23, 5, 6, 1)


class TestBackwardTables:
    def test_matches_closed_form(self):
        for design in (DesignSpec.bcd(0.6), DesignSpec.bcd(1.0), DesignSpec.complete()):
            n, n1 = 24, 10
            table = dense_table(backward_log_table(design, 0, n, n1), 0, n, n1, -np.inf)
            for j in range(n + 1):
                for m in range(j + 1):
                    want = conditional_pmf(design, n, n1, j, m)
                    got = math.exp(table[j, m]) if np.isfinite(table[j, m]) else 0.0
                    assert got == pytest.approx(want, abs=1e-12)

    def test_matches_closed_form_midsegment(self):
        design = DesignSpec.bcd(0.75)
        table = dense_table(backward_log_table(design, 5, 20, 9), 5, 20, 9, -np.inf)
        for j in range(5, 21):
            for m in range(j + 1):
                want = conditional_pmf(design, 20, 9, j, m)
                got = math.exp(table[j - 5, m]) if np.isfinite(table[j - 5, m]) else 0.0
                assert got == pytest.approx(want, abs=1e-12)

    def test_exact_table_matches_closed_form(self):
        design = BCD23
        table = backward_exact_table(design, 0, 9, 4)
        for j in range(10):
            for m in range(j + 1):
                assert table[j][m] == conditional_pmf(design, 9, 4, j, m, "exact")

    def test_root_equals_unconditional(self):
        design = DesignSpec.bcd(0.65)
        for n1 in (0, 3, 30, 60):
            table = backward_log_table(design, 0, 60, n1)
            assert math.exp(table[0][0]) == pytest.approx(
                unconditional_pmf(design, 60, n1), rel=1e-11
            )

    @pytest.mark.parametrize(
        "start, end, target, message",
        [
            (5, 5, 3, r"need 0 <= start < end, got \(5, 5\)"),
            (6, 5, 3, r"need 0 <= start < end, got \(6, 5\)"),
            (0, 5, 6, "target 6 out of range for horizon 5"),
        ],
    )
    def test_bad_span_or_target_rejected(self, start, end, target, message):
        with pytest.raises(ValueError, match=message):
            backward_log_table(BCD23, start, end, target)
