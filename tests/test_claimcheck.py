"""Tests for exhaustive contingency-table verification of the two
parity/precision claims."""

import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairod.claimcheck import (
    CELLS,
    MAX_N,
    ClaimVerdict,
    FinitePopulation,
    effectiveness_holds,
    enumerate_populations,
    group_beats_base_rate,
    group_precision_equals_base_rate,
    ratio_preserved,
    sp_holds,
    verify_claim1,
    verify_claim2,
)


def make_pop(a_cells, b_cells):
    """Build a population from two (y0o0, y0o1, y1o0, y1o1) group tuples."""
    return FinitePopulation(counts=tuple(a_cells) + tuple(b_cells))


def expected_table_count(n):
    # compositions of n into 8 parts, minus those with an empty group:
    # group a empty or group b empty each leave a composition into 4 parts.
    return comb(n + 7, 7) - 2 * comb(n + 3, 3)


# -- FinitePopulation ---------------------------------------------------------------------


class TestFinitePopulation:
    def test_cell_order_is_pv_major(self):
        assert CELLS[0] == (0, 0, 0)
        assert CELLS[3] == (0, 1, 1)
        assert CELLS[4] == (1, 0, 0)
        assert CELLS[7] == (1, 1, 1)

    def test_accessors_on_hand_table(self):
        pop = make_pop((5, 1, 2, 3), (7, 2, 1, 1))
        assert pop.n == 22
        assert pop.group_size(0) == 11
        assert pop.group_size(1) == 11
        assert pop.flagged(0) == 4
        assert pop.flagged(1) == 3
        assert pop.positives(0) == 5
        assert pop.positives(1) == 2
        assert pop.flagged_positives(0) == 3
        assert pop.flagged_positives(1) == 1
        assert pop.total_flagged == 7
        assert pop.total_positives == 7
        assert pop.total_flagged_positives == 4
        assert pop.count(1, 0, 1) == 2

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="8 nonnegative"):
            FinitePopulation(counts=(1, 2, 3))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="8 nonnegative"):
            FinitePopulation(counts=(1, 0, 0, 0, -1, 0, 0, 2))

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="both groups"):
            make_pop((0, 0, 0, 0), (1, 1, 1, 1))

    def test_dict_round_trip(self):
        pop = make_pop((5, 1, 2, 3), (7, 2, 1, 1))
        again = FinitePopulation.from_dict(pop.to_dict())
        assert again == pop

    def test_rates_are_exact_strings(self):
        pop = make_pop((1, 1, 0, 1), (1, 1, 0, 0))
        rates = pop.rates()
        assert rates["flag_rate_a"] == "2/3"
        assert rates["precision_a"] == "1/2"
        assert rates["base_rate_b"] == "0"
        assert rates["precision_b"] == "0"

    def test_undefined_precision_reported(self):
        pop = make_pop((1, 0, 1, 0), (2, 1, 0, 0))
        assert pop.rates()["precision_a"] == "undefined"


# -- enumeration --------------------------------------------------------------------------


class TestEnumeration:
    def test_n2_has_16_tables(self):
        assert sum(1 for _ in enumerate_populations(2)) == 16

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_count_matches_closed_form(self, n):
        assert sum(1 for _ in enumerate_populations(n)) == expected_table_count(n)

    def test_no_duplicates_and_totals(self):
        seen = set()
        for pop in enumerate_populations(6):
            assert pop.counts not in seen
            seen.add(pop.counts)
            assert pop.n == 6
            assert pop.group_size(0) >= 1 and pop.group_size(1) >= 1
        assert len(seen) == expected_table_count(6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="at most"):
            list(enumerate_populations(MAX_N + 1))
        with pytest.raises(ValueError, match="at least 2"):
            list(enumerate_populations(1))


# -- predicates ---------------------------------------------------------------------------


class TestPredicates:
    def test_sp_exact_rational_equality(self):
        # 2/4 vs 1/2: equal as rationals despite different counts
        assert sp_holds(make_pop((2, 2, 0, 0), (1, 1, 0, 0)))
        assert not sp_holds(make_pop((2, 2, 0, 0), (2, 1, 0, 0)))

    def test_sp_holds_with_zero_flags_everywhere(self):
        assert sp_holds(make_pop((3, 0, 1, 0), (2, 0, 0, 0)))

    def test_effectiveness_strict(self):
        # precision 1/2 vs base rate 1/4: holds
        assert effectiveness_holds(make_pop((3, 0, 0, 1), (3, 1, 0, 0)))
        # precision equals base rate: strict comparison fails
        assert not effectiveness_holds(make_pop((1, 1, 1, 1), (1, 1, 1, 1)))

    def test_effectiveness_false_without_flags(self):
        assert not effectiveness_holds(make_pop((1, 0, 1, 0), (1, 0, 1, 0)))

    def test_group_beats_base_rate(self):
        pop = make_pop((2, 0, 1, 1), (1, 1, 1, 1))
        # a: precision 1/1 > base 2/4; b: precision 1/2 == base 2/4
        assert group_beats_base_rate(pop, 0)
        assert not group_beats_base_rate(pop, 1)
        assert group_precision_equals_base_rate(pop, 1)
        assert not group_precision_equals_base_rate(pop, 0)

    def test_group_predicates_false_when_unflagged(self):
        pop = make_pop((1, 0, 1, 0), (1, 1, 0, 1))
        assert not group_beats_base_rate(pop, 0)
        assert not group_precision_equals_base_rate(pop, 0)

    def test_ratio_preserved_exact(self):
        # a: precision 1, base 1; b: precision 1/2, base 1/2 -> ratios equal
        pop = make_pop((0, 0, 1, 1), (1, 1, 1, 1))
        assert ratio_preserved(pop)
        # perturb b's unflagged labels: base moves, precision does not
        assert not ratio_preserved(make_pop((0, 0, 1, 1), (0, 1, 2, 1)))

    def test_ratio_needs_flags_and_positives_in_both_groups(self):
        assert not ratio_preserved(make_pop((0, 0, 1, 1), (1, 1, 0, 0)))
        assert not ratio_preserved(make_pop((0, 0, 1, 1), (1, 0, 1, 0)))

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_predicates_scale_invariant(self, cells, k):
        # every check compares rates, so multiplying all counts by k changes nothing
        if sum(cells[:4]) == 0 or sum(cells[4:]) == 0:
            return
        pop = FinitePopulation(counts=tuple(cells))
        big = FinitePopulation(counts=tuple(c * k for c in cells))
        assert sp_holds(pop) == sp_holds(big)
        assert effectiveness_holds(pop) == effectiveness_holds(big)
        assert ratio_preserved(pop) == ratio_preserved(big)
        for v in (0, 1):
            assert group_beats_base_rate(pop, v) == group_beats_base_rate(big, v)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_predicates_group_relabel_symmetry(self, cells):
        if sum(cells[:4]) == 0 or sum(cells[4:]) == 0:
            return
        pop = FinitePopulation(counts=tuple(cells))
        swapped = FinitePopulation(counts=tuple(cells[4:]) + tuple(cells[:4]))
        assert sp_holds(pop) == sp_holds(swapped)
        assert effectiveness_holds(pop) == effectiveness_holds(swapped)
        assert ratio_preserved(pop) == ratio_preserved(swapped)
        assert group_beats_base_rate(pop, 0) == group_beats_base_rate(swapped, 1)
        assert group_beats_base_rate(pop, 1) == group_beats_base_rate(swapped, 0)


# -- verdicts -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def verdict1():
    return verify_claim1(7)


@pytest.fixture(scope="module")
def verdict2():
    return verify_claim2(7)


def test_verdicts_pinned_at_seven(verdict1, verdict2):
    assert verdict1.premise_counts == {"checked": 5776, "effectiveness_failed": 3439,
                                       "sp_failed": 2278, "premises_met": 59}
    assert verdict1.witness["population"]["cells"] == [0, 0, 0, 1, 1, 1, 0, 0]
    assert verdict2.premise_counts == {"checked": 5776, "effectiveness_failed": 3439,
                                       "sp_failed": 2278, "ratio_failed": 48,
                                       "premises_met": 11}
    assert verdict2.witness["population"]["cells"] == [0, 0, 1, 1, 1, 0, 0, 1]


class TestClaim1:
    def test_no_counterexamples(self, verdict1):
        assert verdict1.holds
        assert verdict1.counterexamples == []

    def test_population_count(self, verdict1):
        assert verdict1.populations_checked == sum(
            expected_table_count(n) for n in range(2, 8))

    def test_premise_funnel_sums(self, verdict1):
        c = verdict1.premise_counts
        assert (c["effectiveness_failed"] + c["sp_failed"] + c["premises_met"]
                == c["checked"] == verdict1.populations_checked)
        assert c["premises_met"] > 0

    def test_witness_reverifies(self, verdict1):
        w = verdict1.witness
        assert w is not None and w["dropped_premise"] == "statistical_parity"
        pop = FinitePopulation.from_dict(w["population"])
        assert effectiveness_holds(pop)
        assert not sp_holds(pop)
        assert all(pop.flagged(v) > 0 for v in (0, 1))
        assert not any(group_beats_base_rate(pop, v) for v in (0, 1))

    def test_conclusion_on_premise_populations_directly(self):
        # independent of the verdict bookkeeping: re-scan one size by hand
        for pop in enumerate_populations(6):
            if effectiveness_holds(pop) and sp_holds(pop):
                assert any(group_beats_base_rate(pop, v) for v in (0, 1))

    def test_parity_makes_flags_span_groups(self):
        # under parity with any flags at all, both groups must have flags,
        # so the conclusion's conditional precision is always defined
        for pop in enumerate_populations(5):
            if effectiveness_holds(pop) and sp_holds(pop):
                assert pop.flagged(0) > 0 and pop.flagged(1) > 0


class TestClaim2:
    def test_no_counterexamples(self, verdict2):
        assert verdict2.holds
        assert verdict2.counterexamples == []

    def test_premise_funnel_sums(self, verdict2):
        c = verdict2.premise_counts
        assert (c["effectiveness_failed"] + c["sp_failed"] + c["ratio_failed"]
                + c["premises_met"] == c["checked"])
        assert c["premises_met"] > 0

    def test_every_group_beats_base_rate_directly(self):
        for pop in enumerate_populations(6):
            if (effectiveness_holds(pop) and sp_holds(pop)
                    and ratio_preserved(pop)):
                assert all(group_beats_base_rate(pop, v) for v in (0, 1))

    def test_witness_reverifies(self, verdict2):
        w = verdict2.witness
        assert w is not None and w["dropped_premise"] == "ratio_preservation"
        pop = FinitePopulation.from_dict(w["population"])
        assert effectiveness_holds(pop)
        assert sp_holds(pop)
        assert not ratio_preserved(pop)
        assert any(group_precision_equals_base_rate(pop, v) for v in (0, 1))
        # the exists-form conclusion still holds on such populations
        assert any(group_beats_base_rate(pop, v) for v in (0, 1))

    def test_stricter_premises_than_claim1(self, verdict1, verdict2):
        assert (verdict2.premise_counts["premises_met"]
                < verdict1.premise_counts["premises_met"])


class TestVerdictSerialization:
    def test_json_round_trip(self, verdict1):
        doc = json.loads(verdict1.to_json())
        assert doc["claim"] == "claim1"
        assert doc["holds"] is True
        assert doc["max_n"] == 7
        assert doc["populations_checked"] == verdict1.populations_checked
        assert doc["premise_counts"] == verdict1.premise_counts
        assert doc["counterexamples"] == []
        again = FinitePopulation.from_dict(doc["witness"]["population"])
        assert not sp_holds(again)

    def test_to_json_deterministic(self):
        assert verify_claim2(5).to_json() == verify_claim2(5).to_json()
        assert verify_claim2(5).to_json().endswith("\n")

    def test_rejects_bad_max_n(self):
        for bad in (1, MAX_N + 1):
            with pytest.raises(ValueError, match="max_n"):
                verify_claim1(bad)
            with pytest.raises(ValueError, match="max_n"):
                verify_claim2(bad)

    def test_holds_false_with_counterexample(self):
        v = ClaimVerdict(claim="claim1", max_n=2, populations_checked=1,
                         premise_counts={}, counterexamples=[{"cells": [0] * 8}])
        assert not v.holds
        assert json.loads(v.to_json())["holds"] is False
