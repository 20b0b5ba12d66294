import random

import pytest

from helpers import naive_hamilton_power_exists
from hampower.core import (
    ColourPattern,
    GraphCollection,
    host_edges,
    power_cycle,
    verify_coloured_embedding,
)
from hampower.errors import InvalidInstanceError
from hampower.instances import (
    bijective_pattern,
    complete_collection,
    lowerbound_construction,
    random_pattern,
)
from hampower.oracle import (
    FOUND,
    NONE,
    UNKNOWN,
    count_coloured_hamilton_powers,
    find_coloured_hamilton_power,
)
from hampower.pipeline import PipelineConfig, solve


class TestFind:
    def test_complete_collection_found(self):
        rng = random.Random(90)
        coll = complete_collection(8, 4)
        pattern = random_pattern(power_cycle(8, 2), 4, rng)
        cycle, stats = find_coloured_hamilton_power(coll, pattern)
        assert stats.result == FOUND
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok

    def test_budget_gives_unknown(self):
        rng = random.Random(91)
        coll = complete_collection(9, 3)
        pattern = random_pattern(power_cycle(9, 2), 3, rng)
        cycle, stats = find_coloured_hamilton_power(coll, pattern, budget=3)
        assert cycle is None
        assert (stats.result, stats.nodes, stats.max_depth) == (UNKNOWN, 3, 3)

    def test_agrees_with_naive_permutation_scan(self):
        hits = 0
        for seed in range(100):
            rng = random.Random(10_000 + seed)
            n = rng.choice([5, 6, 7])
            k = rng.choice([1, 2])
            if n < 2 * k + 1:
                k = 1
            m = rng.randint(1, 3)
            density = rng.uniform(0.35, 0.9)
            edge_lists = [
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < density
                ]
                for _ in range(m)
            ]
            coll = GraphCollection.from_edge_lists(n, edge_lists)
            pattern = random_pattern(power_cycle(n, k), m, rng)
            cycle, stats = find_coloured_hamilton_power(coll, pattern)
            expected = naive_hamilton_power_exists(coll, pattern)
            assert (stats.result == FOUND) == expected
            if expected:
                hits += 1
                assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        assert 0 < hits < 100  # both outcomes exercised

    def test_wrong_host_rejected(self):
        rng = random.Random(92)
        coll = complete_collection(6, 2)
        from hampower.core import power_path

        pattern = random_pattern(power_path(6, 2), 2, rng)
        with pytest.raises(InvalidInstanceError):
            find_coloured_hamilton_power(coll, pattern)


class TestLowerBoundInstances:
    # (result, nodes, max_depth) pins the search itself: the candidate
    # order, the pruning and the node count are all part of its contract
    def test_k1_p3_none(self):
        for orientation in ("figure", "text"):
            coll, pattern = lowerbound_construction(1, 3, orientation)
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert stats.result == NONE

    def test_k2_p3_none_figure(self):
        coll, pattern = lowerbound_construction(2, 3, "figure")
        _, stats = find_coloured_hamilton_power(coll, pattern)
        assert (stats.result, stats.nodes, stats.max_depth) == (NONE, 4953, 8)

    def test_k2_p3_all_colour_one_found(self):
        coll, pattern = lowerbound_construction(2, 3)
        ones = ColourPattern(pattern.host, {e: 1 for e in host_edges(pattern.host)})
        cycle, stats = find_coloured_hamilton_power(coll, ones)
        assert (stats.result, stats.nodes, stats.max_depth) == (FOUND, 9, 9)
        assert cycle.vertices == (0, 3, 6, 1, 4, 7, 2, 5, 8)
        assert verify_coloured_embedding(coll, ones, cycle.vertices).ok

    def test_larger_family_members_also_none(self):
        pinned = {(3, 3): (214_992, 10), (1, 5): (55_620, 9), (2, 4): (281_532, 11)}
        for (k, p), (nodes, max_depth) in pinned.items():
            coll, pattern = lowerbound_construction(k, p, "figure")
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert (stats.result, stats.nodes, stats.max_depth) == (NONE, nodes, max_depth), (k, p)


class TestCount:
    def test_empty_collection_counts_zero(self):
        coll = GraphCollection.from_edge_lists(6, [[]])
        pattern = ColourPattern(
            power_cycle(6, 1), {e: 1 for e in host_edges(power_cycle(6, 1))}
        )
        count, stats = count_coloured_hamilton_powers(coll, pattern)
        assert count == 0 and stats.result == NONE

    def test_complete_tiny_closed_form(self):
        # n = 2k+1 makes the host complete: every one of the n! placements
        # works, i.e. (n-1)!/2 unlabelled cycles times the 2n anchorings
        rng = random.Random(93)
        coll = complete_collection(5, 3)
        pattern = random_pattern(power_cycle(5, 2), 3, rng)
        count, stats = count_coloured_hamilton_powers(coll, pattern)
        assert (count, stats.nodes, stats.max_depth, stats.result) == (120, 325, 5, FOUND)

    def test_lowerbound_counts_zero(self):
        coll, pattern = lowerbound_construction(2, 3, "figure")
        count, stats = count_coloured_hamilton_powers(coll, pattern)
        assert count == 0 and stats.result == NONE

    def test_budget_gives_unknown(self):
        coll = complete_collection(6, 2)
        rng = random.Random(94)
        pattern = random_pattern(power_cycle(6, 2), 2, rng)
        pinned = {1: (0, 1, 1), 10: (2, 10, 6), 100: (36, 100, 6)}
        for budget, (partial, nodes, max_depth) in pinned.items():
            count, stats = count_coloured_hamilton_powers(coll, pattern, budget=budget)
            assert (count, stats.nodes, stats.max_depth, stats.result) == (
                partial, nodes, max_depth, UNKNOWN
            ), budget


class TestLargeOrder:
    def test_budgeted_search_at_order_1200(self):
        # one stack frame per position: a search as deep as n needs no
        # recursion, so the budget, not the interpreter, ends it
        coll = complete_collection(1200, 1)
        pattern = random_pattern(power_cycle(1200, 2), 1, random.Random(96))
        cycle, stats = find_coloured_hamilton_power(coll, pattern, budget=2400)
        assert stats.result == FOUND and stats.max_depth == 1200
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        count, stats = count_coloured_hamilton_powers(coll, pattern, budget=2400)
        assert stats.result == UNKNOWN and stats.nodes == 2400 and count >= 1


class TestOraclePipelineConsistency:
    def test_pipeline_output_confirmed_by_oracle(self):
        n, k = 10, 2
        pattern = bijective_pattern(power_cycle(n, k))
        coll = complete_collection(n, pattern.max_colour)
        config = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=5)
        cycle, _ = solve(coll, pattern, config)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        found, stats = find_coloured_hamilton_power(coll, pattern)
        assert stats.result == FOUND


class TestInputValidation:
    def test_order_mismatch_rejected(self):
        coll = complete_collection(7, 2)
        pattern = random_pattern(power_cycle(6, 2), 2, random.Random(95))
        with pytest.raises(InvalidInstanceError):
            find_coloured_hamilton_power(coll, pattern)

    def test_colours_beyond_collection_rejected(self):
        coll = complete_collection(6, 2)
        pattern = ColourPattern(
            power_cycle(6, 2), {e: 3 for e in host_edges(power_cycle(6, 2))}
        )
        for search in (find_coloured_hamilton_power, count_coloured_hamilton_powers):
            with pytest.raises(InvalidInstanceError, match="pattern colours exceed"):
                search(coll, pattern)
