import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bipartite,
    brute_count_perfect_matchings,
    brute_max_matching_size,
    chi_square_against,
    chi_square_critical,
    chi_square_statistic,
    colour_rows,
    extend_tiles,
    fast_sampler_law,
    is_clique_tiling,
    random_bipartite,
    reference_sample_fast,
    tiling_extension_instance,
)
from hampower import matching
from hampower.bitset import mask_of, pick_bit
from hampower.core import GraphCollection
from hampower.errors import InvalidInstanceError, NoPerfectMatchingError, SizeLimitError
from hampower.instances import complete_collection
from hampower.matching import (
    EXACT_SIDE_CAP,
    BipartiteGraph,
    count_perfect_matchings,
    max_matching,
    sample_perfect_matching,
    tiling_graph,
)


def complete_bipartite(n: int) -> BipartiteGraph:
    return bipartite([range(n)] * n, n)


def chain(n: int) -> BipartiteGraph:
    """Left i adjacent to right i-1 and i."""
    return bipartite([[i - 1, i] if i else [0] for i in range(n)], n)


class TestMaxMatching:
    def test_complete_k44(self):
        assert len(max_matching(complete_bipartite(4))) == 4

    def test_no_edges(self):
        b = bipartite([(), (), ()], 3)
        assert max_matching(b) == []

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(20)
        for _ in range(200):
            nl, nr = rng.randint(1, 8), rng.randint(1, 8)
            b = random_bipartite(rng, nl, nr, rng.random())
            assert len(max_matching(b)) == brute_max_matching_size(b)

    def test_output_is_a_matching(self):
        rng = random.Random(21)
        for _ in range(50):
            b = random_bipartite(rng, 6, 6, 0.4)
            pairs = max_matching(b)
            assert len({u for u, _ in pairs}) == len(pairs)
            assert len({v for _, v in pairs}) == len(pairs)
            assert all((b.rows[u] >> v) & 1 for (u, v) in pairs)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_edge_addition(self, hrng):
        rng = random.Random(hrng.getrandbits(32))
        n = 6
        present = [[False] * n for _ in range(n)]
        pairs = [(u, v) for u in range(n) for v in range(n)]
        rng.shuffle(pairs)
        last = 0
        for (u, v) in pairs[:18]:
            present[u][v] = True
            b = bipartite([[v for v in range(n) if present[u][v]] for u in range(n)], n)
            size = len(max_matching(b))
            assert size >= last
            last = size

    def test_deep_augmenting_path(self):
        # left i < n-1 sees right i and i+1, and the last left vertex only
        # right 0: its augmenting path runs through every other left vertex
        n = 1200
        b = bipartite([[i, i + 1] for i in range(n - 1)] + [[0]], n)
        pairs = max_matching(b)
        assert pairs == [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]

    def test_long_chain(self):
        assert max_matching(chain(1200)) == [(i, i) for i in range(1200)]


class TestBipartiteGraph:
    def test_sizes_and_edge_count(self):
        b = BipartiteGraph((mask_of([3, 5]), 1 << 5), mask_of([3, 5, 9]))
        assert (b.n_left, b.n_right, b.edge_count) == (2, 3, 3)

    def test_row_outside_right_rejected(self):
        with pytest.raises(InvalidInstanceError):
            BipartiteGraph((mask_of([1, 2]),), mask_of([1]))

    def test_negative_masks_rejected(self):
        with pytest.raises(InvalidInstanceError):
            BipartiteGraph((-1,), 1)
        with pytest.raises(InvalidInstanceError):
            BipartiteGraph((), -1)


class TestAuxiliaryGraph:
    def test_singleton_tiles_reproduce_bipartite_restriction(self):
        rng = random.Random(22)
        coll = GraphCollection.from_edge_lists(
            8, [[(u, v) for u in range(4) for v in range(4, 8) if rng.random() < 0.6]]
        )
        aux = tiling_graph(colour_rows(coll, [1]), [[u] for u in range(4)], mask_of(range(4, 8)))
        assert aux.right == mask_of([4, 5, 6, 7])
        for u in range(4):
            assert aux.rows[u] == coll.neighbour_mask(1, u)

    def test_complete_graph_gives_complete_bipartite(self):
        rows = colour_rows(complete_collection(6, 1), [1, 1])
        aux = tiling_graph(rows, [[0, 1], [2, 3]], mask_of([4, 5]))
        assert aux.rows == (mask_of([4, 5]), mask_of([4, 5]))

    def test_hand_instance(self):
        # tiles {0,1} and {2,3}; 4 sees all of the first tile, 5 all of the second
        coll = GraphCollection.from_edge_lists(
            6, [[(0, 1), (2, 3), (0, 4), (1, 4), (2, 5), (3, 5)]]
        )
        aux = tiling_graph(colour_rows(coll, [1, 1]), [[0, 1], [2, 3]], mask_of([4, 5]))
        assert aux.rows == (1 << 4, 1 << 5)

    def test_colour_per_tile_position(self):
        # graph 1 joins 4 to the first position of each tile and 5 to the
        # second; graph 2 the other way round
        g1 = [(0, 4), (2, 4), (1, 5), (3, 5)]
        g2 = [(0, 5), (2, 5), (1, 4), (3, 4)]
        coll = GraphCollection.from_edge_lists(6, [g1, g2])
        tiles = [[0, 1], [2, 3]]
        right = mask_of([4, 5])
        assert tiling_graph(colour_rows(coll, [1, 2]), tiles, right).rows == (1 << 4, 1 << 4)
        assert tiling_graph(colour_rows(coll, [2, 1]), tiles, right).rows == (1 << 5, 1 << 5)
        assert tiling_graph(colour_rows(coll, [1, 1]), tiles, right).rows == (0, 0)

    def test_right_vertices_keep_their_ids(self):
        coll = GraphCollection.from_edge_lists(5, [[(0, 4), (1, 2)]])
        aux = tiling_graph(colour_rows(coll, [1]), [[0], [1]], mask_of([4, 2, 3]))
        assert aux.rows == (1 << 4, 1 << 2)
        assert aux.right == mask_of([2, 3, 4])
        assert max_matching(aux) == [(0, 4), (1, 2)]


class TestCliqueTiling:
    def test_overlapping_tiles_rejected(self):
        rows = colour_rows(complete_collection(5, 1), [1, 1])
        with pytest.raises(InvalidInstanceError):
            tiling_graph(rows, [[0, 1], [1, 2]], mask_of([3, 4]))


class TestExtendTiling:
    def test_complete_graph_always_extends(self):
        rng = random.Random(23)
        for k in (1, 2, 3):
            n = 4
            total = (k + 1) * n
            coll = complete_collection(total, 1)
            tiles = [list(range(t * k, (t + 1) * k)) for t in range(n)]
            right = list(range(k * n, total))
            aux = tiling_graph(colour_rows(coll, [1] * k), tiles, mask_of(right))
            extended = extend_tiles(tiles, sample_perfect_matching(aux, rng, "fast"))
            assert all(len(c) == k + 1 for c in extended)
            assert is_clique_tiling(coll, extended, range(total))

    def test_degree_hypotheses_imply_success(self):
        rng = random.Random(24)
        for k in (1, 2, 3):
            for _ in range(25):
                n = rng.randint(2, 12)
                coll, tiles = tiling_extension_instance(rng, k, n)
                right = list(range(k * n, (k + 1) * n))
                aux = tiling_graph(colour_rows(coll, [1] * k), tiles, mask_of(right))
                extended = extend_tiles(tiles, sample_perfect_matching(aux, rng, "fast"))
                assert is_clique_tiling(coll, extended, range((k + 1) * n))

    def test_no_cross_edges_fails(self):
        coll = GraphCollection.from_edge_lists(3, [[(0, 1)]])
        aux = tiling_graph(colour_rows(coll, [1, 1]), [[0, 1]], mask_of([2]))
        for mode in ("exact", "fast"):
            with pytest.raises(NoPerfectMatchingError):
                sample_perfect_matching(aux, random.Random(0), mode)

    def test_size_precondition(self):
        coll = complete_collection(6, 1)
        with pytest.raises(InvalidInstanceError):
            # a tile needs one vertex per colour
            tiling_graph(colour_rows(coll, [1, 1]), [[0]], mask_of([3]))
        aux = tiling_graph(colour_rows(coll, [1, 1]), [[0, 1]], mask_of([2, 3, 4]))
        with pytest.raises(NoPerfectMatchingError):  # one tile cannot take three vertices
            sample_perfect_matching(aux, random.Random(0), "fast")


class TestCountPerfectMatchings:
    def test_k33(self):
        assert count_perfect_matchings(complete_bipartite(3)) == 6

    def test_unique_matching_graph(self):
        b = bipartite([(0,), (1,), (2,)], 3)
        assert count_perfect_matchings(b) == 1

    def test_c8_as_bipartite_cycle(self):
        # left i adjacent to right i and i+1 (mod 4): exactly two matchings
        b = bipartite([{i, (i + 1) % 4} for i in range(4)], 4)
        assert count_perfect_matchings(b) == 2

    def test_agrees_with_brute_force(self):
        rng = random.Random(25)
        for _ in range(100):
            n = rng.randint(1, 6)
            b = random_bipartite(rng, n, n, rng.random())
            assert count_perfect_matchings(b) == brute_count_perfect_matchings(b)

    def test_unequal_sides_rejected(self):
        with pytest.raises(SizeLimitError):
            count_perfect_matchings(bipartite([(0,), (1,)], 3))

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitError):
            count_perfect_matchings(complete_bipartite(EXACT_SIDE_CAP + 1))
        with pytest.raises(SizeLimitError):
            sample_perfect_matching(complete_bipartite(EXACT_SIDE_CAP + 1), random.Random(0), "exact")


class TestSamplePerfectMatching:
    def test_unique_matching_both_modes(self):
        b = bipartite([(2,), (0,), (1,)], 3)
        expected = [(0, 2), (1, 0), (2, 1)]
        rng = random.Random(26)
        for mode in ("exact", "fast"):
            for _ in range(5):
                assert sorted(sample_perfect_matching(b, rng, mode)) == expected

    def test_no_matching_raises(self):
        b = bipartite([(0,), (0,)], 2)
        rng = random.Random(27)
        for mode in ("exact", "fast"):
            with pytest.raises(NoPerfectMatchingError):
                sample_perfect_matching(b, rng, mode)

    def test_k22_frequencies(self):
        b = complete_bipartite(2)
        rng = random.Random(28)
        hits = sum(
            1 for _ in range(10_000)
            if sample_perfect_matching(b, rng, "exact")[0] == (0, 0)
        )
        assert abs(hits / 10_000 - 0.5) < 0.03

    def test_k33_chi_square_uniform(self):
        b = complete_bipartite(3)
        rng = random.Random(29)
        freq = Counter(tuple(sample_perfect_matching(b, rng, "exact")) for _ in range(6000))
        assert len(freq) == 6
        stat = chi_square_statistic(freq, 6000)
        assert stat < chi_square_critical(5, 0.01)
        assert all(0.12 * 6000 <= c <= 0.21 * 6000 for c in freq.values())

    def test_small_graph_uniformity_chi_square(self):
        # exact mode against the enumerated matching set, fixed seed schedule
        rng_instances = random.Random(30)
        tested = 0
        seed = 1000
        while tested < 12:
            n = rng_instances.randint(2, 5)
            b = random_bipartite(rng_instances, n, n, 0.7)
            total = count_perfect_matchings(b)
            if total == 0:
                continue
            tested += 1
            seed += 1
            rng = random.Random(seed)
            draws = 10_000
            freq = Counter(tuple(sample_perfect_matching(b, rng, "exact")) for _ in range(draws))
            assert len(freq) == total
            if total > 1:
                stat = chi_square_statistic(freq, draws)
                assert stat < chi_square_critical(total - 1, 0.01)

    def test_fast_mode_follows_its_law(self):
        # the fast sampler's exact law, by enumerating every left order and
        # every neighbour order, on two asymmetric 4x4 graphs
        graphs = [
            bipartite([(0, 1, 2), (0, 1), (1, 2, 3), (2, 3)], 4),
            bipartite([(0, 1), (0, 2, 3), (1, 3), (0, 1, 2)], 4),
        ]
        for seed, b in enumerate(graphs, start=32):
            law = fast_sampler_law(b)
            assert None not in law and len(law) == count_perfect_matchings(b)
            assert len(set(law.values())) > 1  # not the uniform law
            rng = random.Random(seed)
            draws = 20_000
            freq = Counter(tuple(sample_perfect_matching(b, rng, "fast")) for _ in range(draws))
            stat = chi_square_against(freq, law, draws)
            assert stat < chi_square_critical(len(law) - 1, 0.01)

    def test_fast_mode_uniform_on_k33(self):
        b = complete_bipartite(3)
        assert set(fast_sampler_law(b).values()) == {Fraction(1, 6)}
        rng = random.Random(34)
        freq = Counter(tuple(sample_perfect_matching(b, rng, "fast")) for _ in range(6000))
        assert len(freq) == 6
        assert chi_square_statistic(freq, 6000) < chi_square_critical(5, 0.01)

    def test_fast_mode_deep_augmenting_paths(self):
        b = chain(1200)
        pairs = sample_perfect_matching(b, random.Random(35), "fast")
        assert pairs == [(i, i) for i in range(1200)]

    def test_fast_mode_returns_valid_matchings(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 10)
            b = complete_bipartite(n)
            pairs = sample_perfect_matching(b, rng, "fast")
            assert len(pairs) == n
            assert len({v for _, v in pairs}) == n


def _planted(rng: random.Random, n: int, p: float, ids: list[int]) -> BipartiteGraph:
    """n x n graph on right ids ``ids``: a random perfect matching plus each
    other pair at density p."""
    perm = rng.sample(range(n), n)
    rows = tuple(
        mask_of(ids[v] for v in range(n) if v == perm[u] or rng.random() < p) for u in range(n)
    )
    return BipartiteGraph(rows, mask_of(ids))


def _outcome(sampler, b: BipartiteGraph, seed: int):
    rng = random.Random(seed)
    try:
        result = sampler(b, rng)
    except NoPerfectMatchingError as exc:
        result = (type(exc), str(exc))
    return result, rng.getstate()


class TestFastSamplerMatchesReference:
    """The fast sampler against ``helpers.reference_sample_fast``: equal
    pairs (or the same error) and equal rng state after the call."""

    def _agree(self, graphs):
        for seed, b in enumerate(graphs):
            assert _outcome(matching._sample_fast, b, seed) == _outcome(
                reference_sample_fast, b, seed
            )

    def test_dense_rows_take_the_rejection_branch(self):
        rng = random.Random(40)
        graphs = [
            _planted(rng, n, 0.9, list(range(n))) for n in (1, 2, 3, 7, 16, 33, 60) for _ in range(6)
        ]
        assert all(2 * row.bit_count() >= b.n_right for b in graphs[-6:] for row in b.rows)
        self._agree(graphs)

    def test_rows_below_half_the_side_take_pick_bit(self, monkeypatch):
        picks = []

        def counted(mask, rng):
            picks.append(mask)
            return pick_bit(mask, rng)

        monkeypatch.setattr(matching, "pick_bit", counted)
        rng = random.Random(41)
        graphs = [
            _planted(rng, n, 0.15, list(range(n))) for n in (4, 9, 20, 45, 61) for _ in range(6)
        ]
        self._agree(graphs)
        assert picks

    def test_right_ids_with_holes_up_to_1199(self):
        rng = random.Random(42)
        graphs = []
        for n in (1, 5, 24, 61, 150):
            for p in (0.1, 0.5, 0.95):
                ids = sorted(rng.sample(range(1199), n - 1)) + [1199]
                graphs.append(_planted(rng, n, p, ids))
        assert max(b.right.bit_length() for b in graphs) == 1200
        self._agree(graphs)

    def test_no_perfect_matching_gives_the_same_error(self):
        rng = random.Random(43)
        graphs = []
        for n in (2, 6, 17, 40):
            for p in (0.2, 0.6, 0.95):
                b = _planted(rng, n, p, sorted(rng.sample(range(300), n)))
                # two left vertices confined to one right vertex: Hall fails
                lone = b.rows[0] & -b.rows[0]
                graphs.append(BipartiteGraph((lone, lone) + b.rows[2:], b.right))
        for seed, b in enumerate(graphs):
            outcome = _outcome(matching._sample_fast, b, seed)
            assert outcome[0][0] is NoPerfectMatchingError
            assert outcome == _outcome(reference_sample_fast, b, seed)


class TestModeValidation:
    def test_unknown_sampling_mode_rejected(self):
        b = complete_bipartite(2)
        with pytest.raises(InvalidInstanceError):
            sample_perfect_matching(b, random.Random(0), "turbo")
