"""Tests for the greedy (weighted) set cover of Algorithm 1."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.selection.set_cover import (
    coverage_value,
    greedy_cover_csr,
    greedy_set_cover,
    greedy_set_cover_eager,
)


class TestCoverageValue:
    def test_counts_distinct_items(self):
        assert coverage_value([{0, 1}, {1, 2}]) == 3
        assert coverage_value([]) == 0


class TestGreedySetCover:
    def test_simple_cover(self):
        coverage = [{0, 1}, {1, 2}, {3}]
        solution = greedy_set_cover(4, coverage)
        covered = set()
        for index in solution.selected:
            covered |= set(coverage[index])
        assert covered == {0, 1, 2, 3}
        assert not solution.uncovered_items

    def test_greedy_prefers_large_sets(self):
        coverage = [{0}, {1}, {2}, {0, 1, 2}]
        solution = greedy_set_cover(3, coverage)
        assert solution.selected == (3,)

    def test_weighted_cover_prefers_cheap_sets(self):
        # Candidate 0 covers everything but is very expensive; candidates 1-2
        # cover everything together at a lower combined efficiency per weight.
        coverage = [{0, 1, 2, 3}, {0, 1}, {2, 3}]
        weights = [100.0, 1.0, 1.0]
        solution = greedy_set_cover(4, coverage, weights)
        assert set(solution.selected) == {1, 2}
        assert solution.total_weight == pytest.approx(2.0)

    def test_uncoverable_items_reported(self):
        coverage = [{0}, {1}]
        solution = greedy_set_cover(3, coverage)
        assert 2 in solution.uncovered_items
        assert solution.covered_items == {0, 1}

    def test_zero_items(self):
        solution = greedy_set_cover(0, [{0, 1}])
        assert solution.selected == ()
        assert not solution.uncovered_items

    def test_no_candidates(self):
        solution = greedy_set_cover(3, [])
        assert solution.selected == ()
        assert solution.uncovered_items == {0, 1, 2}

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            greedy_set_cover(2, [{0}], weights=[1.0, 2.0])

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ValueError):
            greedy_set_cover(2, [{0}, {1}], weights=[1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("implementation", [greedy_set_cover, greedy_set_cover_eager])
    def test_non_finite_weights_rejected(self, implementation, bad):
        # A NaN weight used to slip past the positivity check and make the
        # array cover diverge from its oracle (selected=(1, 0), weight nan).
        with pytest.raises(ValueError, match="finite"):
            implementation(2, [{0, 1}, {1}], weights=[bad, 1.0])

    def test_coverage_outside_universe_ignored(self):
        solution = greedy_set_cover(2, [{0, 5, 9}, {1}])
        assert solution.covered_items == {0, 1}

    def test_greedy_matches_optimum_on_classic_instance(self):
        # Classic set cover instance where greedy happens to be optimal.
        coverage = [{0, 1, 2}, {2, 3}, {4, 5}, {0, 3, 4, 5}]
        solution = greedy_set_cover(6, coverage)
        assert len(solution.selected) == 2

    @given(
        num_items=st.integers(1, 25),
        candidates=st.lists(
            st.frozensets(st.integers(0, 24), max_size=6), min_size=1, max_size=30
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_all_coverable_items_covered(self, num_items, candidates):
        solution = greedy_set_cover(num_items, candidates)
        universe = set(range(num_items))
        coverable = set().union(*[set(c) & universe for c in candidates]) if candidates else set()
        covered = set()
        for index in solution.selected:
            covered |= set(candidates[index]) & universe
        assert covered == coverable
        assert solution.uncovered_items == universe - coverable
        # Selected candidates are distinct.
        assert len(solution.selected) == len(set(solution.selected))

    @given(
        candidates=st.lists(
            st.frozensets(st.integers(0, 14), min_size=1, max_size=5), min_size=1, max_size=15
        ),
        weights=st.lists(st.floats(0.1, 10.0), min_size=15, max_size=15),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_total_weight_is_sum_of_selected(self, candidates, weights):
        weights = weights[: len(candidates)]
        solution = greedy_set_cover(15, candidates, weights)
        expected = sum(weights[index] for index in solution.selected)
        assert solution.total_weight == pytest.approx(expected)


class TestDeterministicTieBreaking:
    def test_ties_resolve_to_lowest_candidate_index(self):
        # Candidates 1 and 3 tie exactly on (efficiency, gain); the lowest
        # index must win, deterministically.
        coverage = [{0}, {0, 1}, {2}, {0, 1}]
        solution = greedy_set_cover(3, coverage)
        assert solution.selected[0] == 1
        eager = greedy_set_cover_eager(3, coverage)
        assert eager.selected[0] == 1

    def test_weighted_efficiency_tie_prefers_higher_gain(self):
        # Equal efficiency (2/2 == 1/1) but different gain: the higher gain
        # wins; on a full tie the lower index wins.
        coverage = [{0}, {0, 1}, {0, 1}]
        weights = [1.0, 2.0, 2.0]
        for implementation in (greedy_set_cover, greedy_set_cover_eager):
            solution = implementation(2, coverage, weights)
            assert solution.selected[0] == 1


@st.composite
def cover_instances(draw):
    """Set cover instances for the differential test against the oracle.

    Candidate sets may be empty, repeat each other and name items at or
    beyond ``num_items`` (ignored by both implementations); ``num_items`` may
    be 0.  Integer weights make efficiencies tie exactly.
    """
    num_items = draw(st.integers(0, 25))
    candidates = draw(st.lists(st.frozensets(st.integers(0, 29), max_size=8), max_size=25))
    if candidates:
        repeats = draw(st.lists(st.sampled_from(candidates), max_size=5))
        candidates = draw(st.permutations(candidates + repeats))
    weighting = draw(st.sampled_from(["default", "unit", "integer", "float"]))
    if weighting == "default":
        weights = None
    elif weighting == "unit":
        weights = [1.0] * len(candidates)
    elif weighting == "integer":
        weights = draw(st.lists(st.integers(1, 4), min_size=len(candidates), max_size=len(candidates)))
    else:
        weights = draw(
            st.lists(
                st.sampled_from([0.25, 1.0, 2.0, 3.5, 7.0]),
                min_size=len(candidates),
                max_size=len(candidates),
            )
        )
    return num_items, candidates, weights


class TestArrayCoverMatchesEager:
    def test_known_instances(self):
        instances = [
            (4, [{0, 1}, {1, 2}, {3}], None),
            (4, [{0, 1, 2, 3}, {0, 1}, {2, 3}], [100.0, 1.0, 1.0]),
            (3, [{0}, {1}], None),
            (0, [{0, 1}], None),
            (5, [], None),
            (3, [set(), {0, 1}, {0, 1}, {2, 7}], [1, 2, 2, 1]),
        ]
        for num_items, coverage, weights in instances:
            assert greedy_set_cover(num_items, coverage, weights) == greedy_set_cover_eager(
                num_items, coverage, weights
            )

    @given(instance=cover_instances())
    @example(instance=(0, [], None))
    @example(instance=(0, [frozenset({0, 3})], [2]))
    @example(instance=(3, [frozenset(), frozenset({0, 1}), frozenset({0, 1}), frozenset({5})], [1, 1, 1, 1]))
    @settings(max_examples=300, deadline=None)
    def test_property_identical_solutions(self, instance):
        num_items, candidates, weights = instance
        array = greedy_set_cover(num_items, candidates, weights)
        eager = greedy_set_cover_eager(num_items, candidates, weights)
        assert array.selected == eager.selected
        assert array.covered_items == eager.covered_items
        assert array.uncovered_items == eager.uncovered_items
        assert array.total_weight == eager.total_weight

    def test_large_random_instances(self):
        # Many rounds of incremental gain updates on denser instances than
        # the hypothesis strategy draws.
        rng = np.random.default_rng(3)
        for _ in range(5):
            num_items = int(rng.integers(100, 300))
            coverage = [
                frozenset(rng.choice(num_items, size=int(rng.integers(0, 25)), replace=False).tolist())
                for _ in range(int(rng.integers(50, 200)))
            ]
            weights = rng.integers(1, 6, size=len(coverage)).astype(float).tolist()
            for instance_weights in (None, weights):
                assert greedy_set_cover(num_items, coverage, instance_weights) == (
                    greedy_set_cover_eager(num_items, coverage, instance_weights)
                )

    def test_csr_core_reports_picks_and_covered_mask(self):
        # Items 0..3; item i lists the candidates covering it.
        indptr = np.array([0, 2, 3, 3, 4])
        indices = np.array([0, 1, 1, 2])
        selected, covered = greedy_cover_csr(indptr, indices, 3)
        assert selected.tolist() == [1, 2]
        assert covered.tolist() == [True, True, False, True]

    def test_validation_matches(self):
        for implementation in (greedy_set_cover, greedy_set_cover_eager):
            with pytest.raises(ValueError):
                implementation(2, [{0}], weights=[1.0, 2.0])
            with pytest.raises(ValueError):
                implementation(2, [{0}], weights=[0.0])
