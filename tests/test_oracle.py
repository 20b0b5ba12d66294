import math
import random

import pytest

from helpers import naive_hamilton_power_count, naive_hamilton_power_exists
from hampower.core import (
    ColourPattern,
    GraphCollection,
    canonical_edge,
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
    _reflection_symmetric,
    _twin_classes,
    count_coloured_hamilton_powers,
    find_coloured_hamilton_power,
)
from hampower.pipeline import PipelineConfig, solve


def all_colour_one(pattern: ColourPattern) -> ColourPattern:
    return ColourPattern(pattern.host, {e: 1 for e in host_edges(pattern.host)})


def complete_minus_hamilton_cycle(n: int) -> GraphCollection:
    """K_n minus the cycle 0, 1, ..., n-1: dense, and without twins for
    n >= 5."""
    full = (1 << n) - 1
    return GraphCollection(
        n, [[full ^ (1 << v) ^ (1 << (v - 1) % n) ^ (1 << (v + 1) % n) for v in range(n)]]
    )


def planted_twin_collection(rng: random.Random, n: int, m: int) -> GraphCollection:
    """m graphs that blow up random graphs on one random set of blocks:
    in each graph a block is a clique or an independent set, and two blocks
    are either fully joined or not joined, so every block lies inside one
    twin class."""
    blocks = rng.randint(2, n - 1)
    block_of = [rng.randrange(blocks) for _ in range(n)]
    density = rng.uniform(0.4, 0.95)
    edge_lists = []
    for _ in range(m):
        clique = [rng.random() < 0.5 for _ in range(blocks)]
        joined = {
            (a, b): rng.random() < density
            for a in range(blocks)
            for b in range(a + 1, blocks)
        }
        edge_lists.append([
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (
                clique[block_of[u]]
                if block_of[u] == block_of[v]
                else joined[canonical_edge(block_of[u], block_of[v])]
            )
        ])
    return GraphCollection.from_edge_lists(n, edge_lists)


def reflection_symmetric_pattern(n: int, k: int, m: int, rng: random.Random) -> ColourPattern:
    """A random colouring of C_n^k that the reflection i -> -i mod n keeps."""
    colours: dict = {}
    for i, j in host_edges(power_cycle(n, k)):
        mirror = canonical_edge((-i) % n, (-j) % n)
        colours[(i, j)] = colours.get(mirror) or rng.randint(1, m)
    return ColourPattern(power_cycle(n, k), colours)


def orbit_size(collection: GraphCollection) -> int:
    return math.prod(math.factorial(len(c)) for c in _twin_classes(collection))


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
        assert (stats.result, stats.nodes, stats.max_depth) == (NONE, 997, 8)

    def test_k2_p3_all_colour_one_found(self):
        coll, pattern = lowerbound_construction(2, 3)
        ones = all_colour_one(pattern)
        cycle, stats = find_coloured_hamilton_power(coll, ones)
        assert (stats.result, stats.nodes, stats.max_depth) == (FOUND, 9, 9)
        assert cycle.vertices == (0, 3, 6, 1, 4, 7, 2, 5, 8)
        assert verify_coloured_embedding(coll, ones, cycle.vertices).ok

    def test_larger_family_members_also_none(self):
        pinned = {(3, 3): (214_992, 10), (1, 5): (55_620, 9), (2, 4): (15_521, 11)}
        for (k, p), (nodes, max_depth) in pinned.items():
            coll, pattern = lowerbound_construction(k, p, "figure")
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert (stats.result, stats.nodes, stats.max_depth) == (NONE, nodes, max_depth), (k, p)

    def test_k2_p5_none_without_budget(self):
        # n = 15: the unpaired part is one twin class of 5
        pinned = {"figure": 352_521, "text": 617_561}
        for orientation, nodes in pinned.items():
            coll, pattern = lowerbound_construction(2, 5, orientation)
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert (stats.result, stats.nodes, stats.max_depth) == (NONE, nodes, 14), orientation


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
        # works, i.e. (n-1)!/2 unlabelled cycles times the 2n anchorings;
        # K_5 is one twin class, so the search visits one placement
        rng = random.Random(93)
        coll = complete_collection(5, 3)
        pattern = random_pattern(power_cycle(5, 2), 3, rng)
        count, stats = count_coloured_hamilton_powers(coll, pattern)
        assert (count, stats.nodes, stats.max_depth, stats.result) == (120, 5, 5, FOUND)

    def test_lowerbound_counts_zero(self):
        coll, pattern = lowerbound_construction(2, 3, "figure")
        count, stats = count_coloured_hamilton_powers(coll, pattern)
        assert count == 0 and stats.result == NONE

    def test_budget_gives_unknown(self):
        # the unpaired part {6, 7, 8} is one twin class: a partial count is
        # the canonical placements so far times 3!
        coll, pattern = lowerbound_construction(2, 3)
        ones = all_colour_one(pattern)
        count, stats = count_coloured_hamilton_powers(coll, ones)
        assert (count, stats.nodes, stats.result) == (1296, 1189, FOUND)
        pinned = {1: (0, 1, 1), 10: (6, 10, 9), 100: (96, 100, 9)}
        for budget, (partial, nodes, max_depth) in pinned.items():
            count, stats = count_coloured_hamilton_powers(coll, ones, budget=budget)
            assert (count, stats.nodes, stats.max_depth, stats.result) == (
                partial, nodes, max_depth, UNKNOWN
            ), budget


class TestTwinClasses:
    def test_lowerbound_k2_unpaired_part_is_one_class(self):
        for p in (3, 4):
            coll, _ = lowerbound_construction(2, p)
            unpaired = list(range(2 * p, 3 * p))
            assert _twin_classes(coll) == [[v] for v in range(2 * p)] + [unpaired]

    def test_lowerbound_k1_and_k3_have_no_twins(self):
        for k in (1, 3):
            coll, _ = lowerbound_construction(k, 3)
            assert _twin_classes(coll) == [[v] for v in range(coll.n)], k

    def test_complete_collection_is_one_class(self):
        assert _twin_classes(complete_collection(7, 3)) == [list(range(7))]

    def test_adjacent_in_one_colour_non_adjacent_in_another(self):
        # N[0] = N[1] = {0, 1, 2} in graph 1, N(0) = N(1) = {2} in graph 2
        coll = GraphCollection.from_edge_lists(
            4, [[(0, 1), (0, 2), (1, 2)], [(0, 2), (1, 2), (2, 3)]]
        )
        assert _twin_classes(coll) == [[0, 1], [2], [3]]

    def test_twins_in_one_colour_only_are_not_twins(self):
        # 0 and 1 are twins in graph 1 only, 0 and 2 in graph 2 only
        coll = GraphCollection.from_edge_lists(3, [[(0, 1)], [(0, 2)]])
        assert _twin_classes(coll) == [[0], [1], [2]]


class TestTwinCut:
    def test_planted_twins_agree_with_permutation_scans(self):
        # odd seeds draw reflection-symmetric patterns, so the twin cut and
        # the reflection cut act in the same find
        outcomes, symmetric, twinned = set(), 0, 0
        for seed in range(60):
            rng = random.Random(20_000 + seed)
            n = rng.choice([5, 6, 7, 8])
            k = rng.choice([1, 2])
            m = rng.randint(1, 3)
            coll = planted_twin_collection(rng, n, m)
            if seed % 2:
                pattern = reflection_symmetric_pattern(n, k, m, rng)
                assert _reflection_symmetric(pattern)
            else:
                pattern = random_pattern(power_cycle(n, k), m, rng)
            orbit = orbit_size(coll)
            symmetric += _reflection_symmetric(pattern) and orbit > 1
            twinned += orbit > 1

            cycle, stats = find_coloured_hamilton_power(coll, pattern)
            expected = naive_hamilton_power_exists(coll, pattern)
            assert (stats.result == FOUND) == expected, seed
            if expected:
                assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
            outcomes.add(expected)

            exact = naive_hamilton_power_count(coll, pattern)
            count, stats = count_coloured_hamilton_powers(coll, pattern)
            assert count == exact and count % orbit == 0, seed
            if stats.nodes > 1:
                budget = rng.randrange(1, stats.nodes)
                partial, stats = count_coloured_hamilton_powers(coll, pattern, budget=budget)
                assert stats.result == UNKNOWN and stats.nodes == budget, seed
                assert partial % orbit == 0 and partial <= exact, seed
        assert outcomes == {True, False}
        assert symmetric >= 10 and twinned >= 40


class TestLargeOrder:
    def test_budgeted_search_at_order_1200(self):
        # one stack frame per position: a search as deep as n needs no
        # recursion, so the budget, not the interpreter, ends it
        coll = complete_minus_hamilton_cycle(1200)
        pattern = random_pattern(power_cycle(1200, 2), 1, random.Random(96))
        cycle, stats = find_coloured_hamilton_power(coll, pattern, budget=2400)
        assert stats.result == FOUND and stats.max_depth == 1200
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        count, stats = count_coloured_hamilton_powers(coll, pattern, budget=2400)
        assert stats.result == UNKNOWN and stats.nodes == 2400 and count >= 1

    def test_complete_collection_counted_within_budget(self):
        # K_1200 is one twin class: the one canonical placement stands for
        # all 1200! placements
        coll = complete_collection(1200, 1)
        pattern = random_pattern(power_cycle(1200, 2), 1, random.Random(96))
        count, stats = count_coloured_hamilton_powers(coll, pattern, budget=2400)
        assert stats.result == FOUND and stats.nodes == 1200
        assert count == math.factorial(1200)


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
