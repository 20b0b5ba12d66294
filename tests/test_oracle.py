import functools
import math
import random

import pytest

from helpers import (
    naive_hamilton_power_count,
    naive_hamilton_power_exists,
    reference_automorphisms,
)
from hampower import oracle
from hampower.bitset import mask_of, select
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
    multipartite_collection,
    random_min_degree_collection,
    random_pattern,
)
from hampower.oracle import (
    FOUND,
    NONE,
    UNKNOWN,
    _automorphisms,
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


def is_reflection_symmetric(pattern: ColourPattern) -> bool:
    n = pattern.host.order
    return all(pattern.colour_of(-i % n, -j % n) == c for (i, j), c in pattern.colours.items())


def circulant_collection(rng: random.Random, n: int, m: int) -> GraphCollection:
    """m circulant graphs on Z_n, each with its own random set of jumps: the
    rotations and the reflection v -> -v keep every graph."""
    edge_lists = []
    for _ in range(m):
        jumps = {d for d in range(1, n // 2 + 1) if rng.random() < 0.6}
        edge_lists.append([
            (u, v) for u in range(n) for v in range(u + 1, n) if min(v - u, n - v + u) in jumps
        ])
    return GraphCollection.from_edge_lists(n, edge_lists)


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
    # order, the pruning and the node count are all part of its contract.
    # symmetries counts the automorphisms found, up to relabelling twins:
    # the k + 1 parts of G1 may be permuted as long as the pairs of G2 stay
    # pairs, and the vertex indices within a pair together
    def test_k1_p3_none(self):
        for orientation in ("figure", "text"):
            coll, pattern = lowerbound_construction(1, 3, orientation)
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert stats.result == NONE

    def test_k2_p3_none_figure(self):
        coll, pattern = lowerbound_construction(2, 3, "figure")
        _, stats = find_coloured_hamilton_power(coll, pattern)
        assert (stats.result, stats.nodes, stats.max_depth, stats.symmetries) == (NONE, 88, 8, 12)

    def test_k2_p3_all_colour_one_found(self):
        coll, pattern = lowerbound_construction(2, 3)
        ones = all_colour_one(pattern)
        cycle, stats = find_coloured_hamilton_power(coll, ones)
        assert (stats.result, stats.nodes, stats.max_depth) == (FOUND, 9, 9)
        assert cycle.vertices == (0, 3, 6, 1, 4, 7, 2, 5, 8)
        assert verify_coloured_embedding(coll, ones, cycle.vertices).ok

    def test_larger_family_members_also_none(self):
        pinned = {(3, 3): (777, 10, 288), (1, 5): (243, 9, 240), (2, 4): (340, 11, 48)}
        for (k, p), (nodes, max_depth, symmetries) in pinned.items():
            coll, pattern = lowerbound_construction(k, p, "figure")
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert (stats.result, stats.nodes, stats.max_depth, stats.symmetries) == (
                NONE, nodes, max_depth, symmetries
            ), (k, p)

    def test_k3_p4_none_at_the_work_bound(self):
        # n = 16 has 4 608 automorphisms, and listing them would cost
        # 16 * 4 608 units, more than SYMMETRY_WORK: the search stops part
        # way, with a subset that still leaves the answer exact
        pinned = {"figure": 21_084, "text": 98_822}
        for orientation, nodes in pinned.items():
            coll, pattern = lowerbound_construction(3, 4, orientation)
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert (stats.result, stats.nodes, stats.max_depth, stats.symmetries) == (
                NONE, nodes, 14, 1_858
            ), orientation
            assert stats.symmetry_work <= oracle.SYMMETRY_WORK

    def test_k2_p5_none_without_budget(self):
        # n = 15: the unpaired part is one twin class of 5
        pinned = {"figure": 1_528, "text": 2_653}
        for orientation, nodes in pinned.items():
            coll, pattern = lowerbound_construction(2, 5, orientation)
            _, stats = find_coloured_hamilton_power(coll, pattern)
            assert (stats.result, stats.nodes, stats.max_depth, stats.symmetries) == (
                NONE, nodes, 14, 240
            ), orientation


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
        # the canonical placements so far, each weighted by the buckets it
        # stands for, times 3!
        coll, pattern = lowerbound_construction(2, 3)
        ones = all_colour_one(pattern)
        count, stats = count_coloured_hamilton_powers(coll, ones)
        assert (count, stats.nodes, stats.result) == (1296, 104, FOUND)
        pinned = {1: (0, 1, 1), 10: (72, 10, 9), 100: (1224, 100, 9)}
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
        # odd seeds draw reflection-symmetric patterns, so in half the finds
        # the mirror of every solution is a solution too
        outcomes, symmetric, twinned = set(), 0, 0
        for seed in range(60):
            rng = random.Random(20_000 + seed)
            n = rng.choice([5, 6, 7, 8])
            k = rng.choice([1, 2])
            m = rng.randint(1, 3)
            coll = planted_twin_collection(rng, n, m)
            if seed % 2:
                pattern = reflection_symmetric_pattern(n, k, m, rng)
                assert is_reflection_symmetric(pattern)
            else:
                pattern = random_pattern(power_cycle(n, k), m, rng)
            orbit = orbit_size(coll)
            symmetric += is_reflection_symmetric(pattern) and orbit > 1
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


@functools.cache
def symmetric_instances() -> tuple:
    """(collection, pattern, exact count, automorphisms found) for 48 seeded
    instances with symmetries beyond twins, n <= 8: circulants, K_n minus a
    Hamilton cycle, planted-twin blow-ups and lower-bound members, in turn.
    Odd seeds draw reflection-symmetric patterns; even seeds draw random
    ones, except that a lower-bound member keeps its own pattern."""
    cases = []
    for seed in range(48):
        rng = random.Random(30_000 + seed)
        n, k, m = rng.choice([5, 6, 7, 8]), rng.choice([1, 2]), rng.randint(1, 3)
        family = seed // 2 % 4
        pattern = None
        if family == 0:
            coll = circulant_collection(rng, n, m)
        elif family == 1:
            coll, m = complete_minus_hamilton_cycle(n), 1
        elif family == 2:
            coll = planted_twin_collection(rng, n, m)
        else:
            p, orientation = rng.choice([3, 4]), rng.choice(["figure", "text"])
            coll, pattern = lowerbound_construction(1, p, orientation)
            n, k, m = coll.n, 1, 2
        if seed % 2:
            pattern = reflection_symmetric_pattern(n, k, m, rng)
        elif pattern is None:
            pattern = random_pattern(power_cycle(n, k), m, rng)
        symmetries = len(_automorphisms(coll, _twin_classes(coll)))
        cases.append((coll, pattern, naive_hamilton_power_count(coll, pattern), symmetries))
    return tuple(cases)


class TestSymmetryCut:
    def test_instances_have_symmetries_beyond_twins(self):
        cases = symmetric_instances()
        assert sum(symmetries > 1 for *_, symmetries in cases) >= 30
        assert {exact > 0 for _, _, exact, _ in cases} == {True, False}
        assert sum(is_reflection_symmetric(pattern) for _, pattern, _, _ in cases) >= 24

    # 0, 1 and 3 leave the identity alone; 64 and 256 stop the automorphism
    # search part way, so a frame keeps a set that is not a group
    @pytest.mark.parametrize("work", [None, 0, 1, 3, 64, 256])
    def test_agrees_with_permutation_scans(self, monkeypatch, work):
        if work is not None:
            monkeypatch.setattr(oracle, "SYMMETRY_WORK", work)
        rng = random.Random(31_000)
        partial = 0
        for seed, (coll, pattern, exact, symmetries) in enumerate(symmetric_instances()):
            cycle, stats = find_coloured_hamilton_power(coll, pattern)
            assert (stats.result == FOUND) == (exact > 0), seed
            if cycle is not None:
                assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
            partial += 1 < stats.symmetries < symmetries
            assert stats.symmetries <= symmetries

            count, stats = count_coloured_hamilton_powers(coll, pattern)
            assert (count, stats.result) == (exact, FOUND if exact else NONE), seed
            if stats.nodes > 1:
                budget = rng.randrange(1, stats.nodes)
                part, stats = count_coloured_hamilton_powers(coll, pattern, budget=budget)
                assert (stats.result, stats.nodes) == (UNKNOWN, budget), seed
                assert part <= exact and part % orbit_size(coll) == 0, seed
        if work in (64, 256):
            assert partial >= 5

    def test_lifts_are_automorphisms_keeping_class_order(self):
        collections = [coll for coll, *_ in symmetric_instances()]
        collections += [
            lowerbound_construction(k, p)[0] for k, p in ((2, 3), (2, 4), (3, 3), (3, 4))
        ]
        for coll in collections:
            classes = _twin_classes(coll)
            lifts = _automorphisms(coll, classes)
            assert lifts[0] == list(range(coll.n))
            assert len({tuple(g) for g in lifts}) == len(lifts)
            for g in lifts:
                assert sorted(g) == list(range(coll.n))
                for rows in coll.masks:
                    for u, row in enumerate(rows):
                        assert rows[g[u]] == mask_of(g[v] for v in select(row, range(coll.n)))
                images = {tuple(g[v] for v in members) for members in classes}
                assert images == {tuple(members) for members in classes}
            if len(lifts) <= 64:
                # the search ran to the end, so the lifts form a group
                found = {tuple(g) for g in lifts}
                assert all(tuple(g[h[v]] for v in range(coll.n)) in found for g in lifts for h in lifts)


def multipartite_draws() -> list[GraphCollection]:
    """Ten seeded multipartite collections at n <= 12, at densities 0 and
    0.25 inside the parts."""
    draws = []
    for seed in range(10):
        rng = random.Random(40_000 + seed)
        n, parts, m = rng.choice([8, 9, 10, 12]), rng.choice([2, 3, 4]), rng.randint(1, 2)
        draws.append(multipartite_collection(n, parts, m, rng.choice([0.0, 0.25]), rng)[0])
    return draws


def chain_cases() -> list[GraphCollection]:
    members = [
        lowerbound_construction(k, p, orientation)[0]
        for k, p in ((1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3))
        for orientation in ("figure", "text")
    ]
    return [coll for coll, *_ in symmetric_instances()] + members + multipartite_draws()


class TestStabiliserChain:
    # the chain lists each automorphism once, as a product of coset
    # representatives; the reference finds each as its own leaf
    def test_lists_the_reference_group(self, monkeypatch):
        monkeypatch.setattr(oracle, "SYMMETRY_WORK", 1 << 40)
        nontrivial = 0
        for coll in chain_cases():
            classes = _twin_classes(coll)
            lifts = _automorphisms(coll, classes)
            assert lifts[0] == list(range(coll.n))
            assert len({tuple(g) for g in lifts}) == len(lifts)
            assert {tuple(g) for g in lifts} == {
                tuple(g) for g in reference_automorphisms(coll, classes)
            }
            nontrivial += len(lifts) > 1
        assert nontrivial >= 40

    def test_default_bound_lists_a_subset(self, monkeypatch):
        cases = chain_cases() + [lowerbound_construction(3, 4)[0]]
        lists = [_automorphisms(coll, _twin_classes(coll)) for coll in cases]
        monkeypatch.setattr(oracle, "SYMMETRY_WORK", 1 << 40)
        for coll, lifts in zip(cases, lists):
            group = {tuple(g) for g in reference_automorphisms(coll, _twin_classes(coll))}
            assert lifts[0] == list(range(coll.n))
            assert {tuple(g) for g in lifts} <= group
        # n = 16 is the one case the bound stops short of its 4 608
        assert [len(lifts) for lifts in lists[-1:]] == [1_858]

    def test_work_is_counted(self):
        # the k = 3, n = 12 member: the refinement, the searches for coset
        # representatives and the 287 products, 12 units each, take 5 521
        # units; finding all 288 automorphisms as leaves of one
        # backtracking search takes 14 580
        coll, pattern = lowerbound_construction(3, 3)
        _, stats = find_coloured_hamilton_power(coll, pattern)
        assert (stats.symmetries, stats.symmetry_work) == (288, 5_521)


class TestIdentityOnly:
    # twin-free random collections whose only automorphism is the identity:
    # the search is the plain one, so (result, nodes, max_depth, cycle)
    # equal those of a search with no symmetry cut; odd seeds draw
    # reflection-symmetric patterns, and a find returns the first leaf it
    # reaches on those too
    @pytest.mark.parametrize("seed, pinned", [
        (9, (NONE, 1442, 9, None)),
        (27, (FOUND, 5326, 12, (1, 5, 6, 7, 3, 8, 4, 0, 11, 2, 9, 10))),
        (35, (NONE, 4981, 11, None)),
        (36, (FOUND, 677, 9, (0, 4, 3, 1, 7, 8, 5, 2, 6))),
        (6, (NONE, 1571, 10, None)),
        (5, (FOUND, 13, 10, (3, 8, 4, 7, 2, 9, 5, 1, 0, 6))),
        (17, (FOUND, 140, 10, (1, 7, 9, 6, 2, 4, 5, 3, 8, 0))),
    ])
    def test_search_is_the_plain_one(self, seed, pinned):
        rng = random.Random(7000 + seed)
        n = 9 + seed % 4
        coll = random_min_degree_collection(n, 2, rng.uniform(0.3, 0.45), rng)
        if seed % 2:
            pattern = reflection_symmetric_pattern(n, 2, 2, rng)
        else:
            pattern = random_pattern(power_cycle(n, 2), 2, rng)
        assert len(_twin_classes(coll)) == n
        cycle, stats = find_coloured_hamilton_power(coll, pattern)
        assert stats.symmetries == 1
        vertices = cycle.vertices if cycle else None
        assert (stats.result, stats.nodes, stats.max_depth, vertices) == pinned


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
