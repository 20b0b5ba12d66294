import random
from collections import Counter
from fractions import Fraction
from itertools import count
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import (
    EXACT_SIDE_CAP,
    bipartite,
    brute_count_perfect_matchings,
    brute_max_matching_size,
    chi_square_against,
    chi_square_critical,
    chi_square_statistic,
    colour_rows,
    count_perfect_matchings,
    extend_tiles,
    fast_sampler_law,
    is_clique_tiling,
    random_bipartite,
    reference_augment,
    reference_nth_bit,
    reference_sample_perfect_matching,
    reference_tiling_graph,
    sample_exact,
    tile_columns,
    tiling_extension_instance,
)
from hampower import matching
from hampower.bitset import lowest_bit, mask_of, nth_bit, pick_bit, select
from hampower.core import GraphCollection
from hampower.errors import InvalidInstanceError, NoPerfectMatchingError
from hampower.instances import complete_collection, random_min_degree_collection
from hampower.matching import (
    BipartiteGraph,
    augment,
    max_matching,
    sample_perfect_matching,
    tiling_graph,
)
from hampower.pathbuilder import _part_tables


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


def highest_bit(mask: int) -> int:
    return mask.bit_length() - 1


def recording(pick):
    """``pick`` wrapped to record every mask it is given."""
    masks = []

    def spy(mask):
        masks.append(mask)
        return pick(mask)

    return spy, masks


class TestAugment:
    """``augment`` takes the bit its ``pick`` chooses, both among free
    neighbours and when it descends through an owned one."""

    @pytest.mark.parametrize("pick, end, owner, masks", [
        (lowest_bit, 2, [2, 1, 0, -1], [0b0011, 0b0100]),
        (highest_bit, 3, [0, 2, -1, 1], [0b0011, 0b1000]),
    ], ids=["lowest", "highest"])
    def test_path_through_an_owned_vertex_follows_the_pick(self, pick, end, owner, masks):
        # lefts 0 and 1 own rights 0 and 1, rights 2 and 3 are free; root 2
        # sees only the owned rights, left 0 frees right 0 for right 2 and
        # left 1 frees right 1 for right 3
        rows = (mask_of([0, 2]), mask_of([1, 3]), mask_of([0, 1]))
        spy, seen = recording(pick)
        got = [0, 1, -1, -1]
        assert augment(rows, 2, got, mask_of([2, 3]), spy) == end
        assert (got, seen) == (owner, masks)

    def test_dead_end_backs_up_and_takes_the_next_pick(self):
        # left 1 frees nothing, so the highest pick backs up from it and
        # descends through right 0 instead
        rows = (mask_of([0, 2]), mask_of([1]), mask_of([0, 1]))
        spy, seen = recording(highest_bit)
        owner = [0, 1, -1]
        assert augment(rows, 2, owner, mask_of([2]), spy) == 2
        assert (owner, seen) == ([2, 1, 0], [0b011, 0b001, 0b100])


class TestAugmentMatchesReference:
    """``augment`` against ``helpers.reference_augment``, the loop that sets
    up its stack before the root's first pick: the same end vertex, owners
    and rng state after every root."""

    @staticmethod
    def _trail(search, b, order, make_pick, seed):
        rng = random.Random(seed)
        pick = make_pick(rng)
        owner = [-1] * b.right.bit_length()
        free = b.right
        trail = []
        for root in order:
            v = search(b.rows, root, owner, free, pick)
            if v >= 0:
                free ^= 1 << v
            trail.append((v, list(owner), rng.getstate()))
        return trail

    @pytest.mark.parametrize("make_pick", [
        lambda rng: lowest_bit,
        lambda rng: lambda mask: pick_bit(mask, rng),
    ], ids=["lowest", "uniform"])
    def test_same_ends_owners_and_draws(self, make_pick):
        gen = random.Random(46)
        for seed in range(60):
            n_left, n_right = gen.randint(1, 30), gen.randint(1, 30)
            b = random_bipartite(gen, n_left, n_right, gen.choice([0.05, 0.2, 0.5, 0.9]))
            order = gen.sample(range(n_left), n_left)
            ours = self._trail(augment, b, order, make_pick, seed)
            assert ours == self._trail(reference_augment, b, order, make_pick, seed)

    def test_sampler_pairs_are_the_sorted_owner_pairs(self, monkeypatch):
        # the sampler against helpers.reference_sample_perfect_matching,
        # which runs every root through the reference search, on every
        # random family below: the same pairs, or the same error, and the
        # same rng state; the reference's pairs, read out the old way, are
        # its owner list sorted into (left, right) pairs
        owners = []

        def spy(rows, root, owner, free, pick):
            owners.append(owner)
            return reference_augment(rows, root, owner, free, pick)

        monkeypatch.setattr(helpers, "reference_augment", spy)
        for b, seed in _sampler_cases(random.Random(47)):
            owners.clear()
            pairs, state = _outcome(b, seed, reference_sample_perfect_matching)
            assert _outcome(b, seed) == (pairs, state), (b.n_left, seed)
            if pairs is not None:
                assert pairs == sorted((u, v) for v, u in enumerate(owners[-1]) if u >= 0)

    def test_root_order_is_the_shuffle(self):
        # roots read their rows in rng.shuffle's order: on a complete graph
        # each root reads its row once, to take a free neighbour; draws and
        # state are then the reference sampler's
        sizes = sorted(set(range(1, 301)) | {(1 << j) + d for j in range(1, 11) for d in (-1, 1)})
        for seed in (0, 1, 90):
            ours, ref = random.Random(seed), random.Random(seed)
            for n in sizes:
                full = (1 << n) - 1
                want = list(range(n))
                shuffler = random.Random()
                shuffler.setstate(ours.getstate())
                shuffler.shuffle(want)
                reads = _ReadLog((full,) * n)
                pairs = sample_perfect_matching(BipartiteGraph(reads, full), ours)
                assert reads.log == want, (n, seed)
                complete = BipartiteGraph((full,) * n, full)
                assert pairs == reference_sample_perfect_matching(complete, ref)
                assert ours.getstate() == ref.getstate()


class _ReadLog(tuple):
    """Rows that log the index of every row read."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.log = []
        return self

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


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

    @pytest.mark.parametrize("bad", [mask_of([1, 4]), -2])
    def test_error_names_the_first_bad_row_after_valid_rows(self, bad):
        # rows 0-2 are valid, row 3 has a neighbour outside the right set or
        # is negative, and row 4 is bad too: the message names row 3
        right = mask_of([0, 1, 2])
        rows = (mask_of([0, 1]), 0, right, bad, 1 << 9)
        with pytest.raises(InvalidInstanceError, match=r"^left vertex 3: neighbour outside the right set$"):
            BipartiteGraph(rows, right)


class TestAuxiliaryGraph:
    def test_singleton_tiles_reproduce_bipartite_restriction(self):
        rng = random.Random(22)
        coll = GraphCollection.from_edge_lists(
            8, [[(u, v) for u in range(4) for v in range(4, 8) if rng.random() < 0.6]]
        )
        columns = tile_columns([[u] for u in range(4)])
        aux = tiling_graph(colour_rows(coll, [1]), columns, mask_of(range(4, 8)))
        assert aux.right == mask_of([4, 5, 6, 7])
        for u in range(4):
            assert aux.rows[u] == coll.neighbour_mask(1, u)

    def test_complete_graph_gives_complete_bipartite(self):
        rows = colour_rows(complete_collection(6, 1), [1, 1])
        aux = tiling_graph(rows, tile_columns([[0, 1], [2, 3]]), mask_of([4, 5]))
        assert aux.rows == (mask_of([4, 5]), mask_of([4, 5]))

    def test_hand_instance(self):
        # tiles {0,1} and {2,3}; 4 sees all of the first tile, 5 all of the second
        coll = GraphCollection.from_edge_lists(
            6, [[(0, 1), (2, 3), (0, 4), (1, 4), (2, 5), (3, 5)]]
        )
        columns = tile_columns([[0, 1], [2, 3]])
        aux = tiling_graph(colour_rows(coll, [1, 1]), columns, mask_of([4, 5]))
        assert aux.rows == (1 << 4, 1 << 5)

    def test_colour_per_tile_position(self):
        # graph 1 joins 4 to the first position of each tile and 5 to the
        # second; graph 2 the other way round
        g1 = [(0, 4), (2, 4), (1, 5), (3, 5)]
        g2 = [(0, 5), (2, 5), (1, 4), (3, 4)]
        coll = GraphCollection.from_edge_lists(6, [g1, g2])
        tiles = tile_columns([[0, 1], [2, 3]])
        right = mask_of([4, 5])
        assert tiling_graph(colour_rows(coll, [1, 2]), tiles, right).rows == (1 << 4, 1 << 4)
        assert tiling_graph(colour_rows(coll, [2, 1]), tiles, right).rows == (1 << 5, 1 << 5)
        assert tiling_graph(colour_rows(coll, [1, 1]), tiles, right).rows == (0, 0)

    def test_right_vertices_keep_their_ids(self):
        coll = GraphCollection.from_edge_lists(5, [[(0, 4), (1, 2)]])
        aux = tiling_graph(colour_rows(coll, [1]), tile_columns([[0], [1]]), mask_of([4, 2, 3]))
        assert aux.rows == (1 << 4, 1 << 2)
        assert aux.right == mask_of([2, 3, 4])
        assert max_matching(aux) == [(0, 4), (1, 2)]


class TestCliqueTiling:
    def test_overlapping_tiles_rejected(self):
        rows = colour_rows(complete_collection(5, 1), [1, 1])
        with pytest.raises(InvalidInstanceError):
            tiling_graph(rows, tile_columns([[0, 1], [1, 2]]), mask_of([3, 4]))


class TestTilingGraphMatchesReference:
    """``tiling_graph`` on level columns against
    ``helpers.reference_tiling_graph`` on the same tiles given one per row,
    with 1-4 window positions."""

    def test_collection_rows(self):
        gen = random.Random(48)
        for _ in range(60):
            w, n = gen.randint(1, 4), gen.randint(1, 8)
            total = (w + 1) * n + gen.randint(0, 6)
            coll = random_min_degree_collection(total, 3, gen.choice([0.3, 0.6, 0.9]), gen)
            verts = gen.sample(range(total), total)
            tiles = [verts[t * w:(t + 1) * w] for t in range(n)]
            right = mask_of(verts[w * n:])
            tables = colour_rows(coll, [gen.randint(1, 3) for _ in range(w)])
            want = reference_tiling_graph(tables, tiles, right)
            assert tiling_graph(tables, tile_columns(tiles), right) == want

    def test_part_rows(self):
        # the path builder's tables: rows gathered into the positions of the
        # last part, tiles drawn column by column from the parts before it
        gen = random.Random(49)
        coll = random_min_degree_collection(60, 3, 0.6, gen)
        for _ in range(40):
            w, n = gen.randint(1, 4), gen.randint(1, 10)
            verts = gen.sample(range(60), (w + 1) * n)
            parts = [sorted(verts[j * n:(j + 1) * n]) for j in range(w + 1)]
            rows_into = _part_tables(coll, parts, w)
            colours = [gen.randint(1, 3) for _ in range(w)]
            tables = [rows_into(c, w) for c in colours]
            for c, table in zip(colours, tables):  # rows of exactly the w parts before the last
                assert table.keys() == set(verts[:w * n])
                for u, row in table.items():
                    want = sum(1 << i for i, v in enumerate(parts[w]) if coll.has_edge(c, u, v))
                    assert row == want
            columns = [gen.sample(part, n) for part in parts[:w]]
            right = gen.getrandbits(n)  # a residual set of positions
            want = reference_tiling_graph(tables, list(zip(*columns)), right)
            assert tiling_graph(tables, columns, right) == want

    def test_unequal_columns_rejected(self):
        tables = colour_rows(complete_collection(6, 1), [1, 1])
        with pytest.raises(InvalidInstanceError, match="one per colour"):
            tiling_graph(tables, [[0, 1], [2]], mask_of([4, 5]))
        with pytest.raises(InvalidInstanceError, match="one per colour"):
            tiling_graph(tables, [[0, 1]], mask_of([4, 5]))

    @pytest.mark.parametrize("tiles", [[[0, 1], [2, 0]], [[0, 1], [0, 2]]], ids=["across", "along"])
    def test_shared_vertex_rejected_as_by_the_reference(self, tiles):
        tables = colour_rows(complete_collection(6, 1), [1, 1])
        for build, given in ((tiling_graph, tile_columns(tiles)), (reference_tiling_graph, tiles)):
            with pytest.raises(InvalidInstanceError, match="pairwise disjoint"):
                build(tables, given, mask_of([4, 5]))


class TestExtendTiling:
    def test_complete_graph_always_extends(self):
        rng = random.Random(23)
        for k in (1, 2, 3):
            n = 4
            total = (k + 1) * n
            coll = complete_collection(total, 1)
            tiles = [list(range(t * k, (t + 1) * k)) for t in range(n)]
            right = list(range(k * n, total))
            aux = tiling_graph(colour_rows(coll, [1] * k), tile_columns(tiles), mask_of(right))
            extended = extend_tiles(tiles, sample_perfect_matching(aux, rng))
            assert all(len(c) == k + 1 for c in extended)
            assert is_clique_tiling(coll, extended, range(total))

    def test_degree_hypotheses_imply_success(self):
        rng = random.Random(24)
        for k in (1, 2, 3):
            for _ in range(25):
                n = rng.randint(2, 12)
                coll, tiles = tiling_extension_instance(rng, k, n)
                right = list(range(k * n, (k + 1) * n))
                aux = tiling_graph(colour_rows(coll, [1] * k), tile_columns(tiles), mask_of(right))
                extended = extend_tiles(tiles, sample_perfect_matching(aux, rng))
                assert is_clique_tiling(coll, extended, range((k + 1) * n))

    def test_no_cross_edges_fails(self):
        coll = GraphCollection.from_edge_lists(3, [[(0, 1)]])
        aux = tiling_graph(colour_rows(coll, [1, 1]), tile_columns([[0, 1]]), mask_of([2]))
        with pytest.raises(NoPerfectMatchingError):
            sample_perfect_matching(aux, random.Random(0))

    def test_size_precondition(self):
        coll = complete_collection(6, 1)
        with pytest.raises(InvalidInstanceError):
            # a tile needs one vertex per colour
            tiling_graph(colour_rows(coll, [1, 1]), tile_columns([[0]]), mask_of([3]))
        aux = tiling_graph(colour_rows(coll, [1, 1]), tile_columns([[0, 1]]), mask_of([2, 3, 4]))
        with pytest.raises(NoPerfectMatchingError):  # one tile cannot take three vertices
            sample_perfect_matching(aux, random.Random(0))


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
        with pytest.raises(ValueError):
            count_perfect_matchings(bipartite([(0,), (1,)], 3))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            count_perfect_matchings(complete_bipartite(EXACT_SIDE_CAP + 1))
        with pytest.raises(ValueError):
            sample_exact(complete_bipartite(EXACT_SIDE_CAP + 1), random.Random(0))


class TestSamplePerfectMatching:
    def test_unique_matching_both_modes(self):
        b = bipartite([(2,), (0,), (1,)], 3)
        expected = [(0, 2), (1, 0), (2, 1)]
        rng = random.Random(26)
        for sampler in (sample_exact, sample_perfect_matching):
            for _ in range(5):
                assert sorted(sampler(b, rng)) == expected

    def test_no_matching_raises(self):
        b = bipartite([(0,), (0,)], 2)
        rng = random.Random(27)
        for sampler in (sample_exact, sample_perfect_matching):
            with pytest.raises(NoPerfectMatchingError):
                sampler(b, rng)

    def test_k22_frequencies(self):
        b = complete_bipartite(2)
        rng = random.Random(28)
        hits = sum(
            1 for _ in range(10_000)
            if sample_exact(b, rng)[0] == (0, 0)
        )
        assert abs(hits / 10_000 - 0.5) < 0.03

    def test_k33_chi_square_uniform(self):
        b = complete_bipartite(3)
        rng = random.Random(29)
        freq = Counter(tuple(sample_exact(b, rng)) for _ in range(6000))
        assert len(freq) == 6
        stat = chi_square_statistic(freq, 6000)
        assert stat < chi_square_critical(5, 0.01)
        assert all(0.12 * 6000 <= c <= 0.21 * 6000 for c in freq.values())

    def test_small_graph_uniformity_chi_square(self):
        # the exact reference sampler against the enumerated matching set,
        # fixed seed schedule
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
            freq = Counter(tuple(sample_exact(b, rng)) for _ in range(draws))
            assert len(freq) == total
            if total > 1:
                stat = chi_square_statistic(freq, draws)
                assert stat < chi_square_critical(total - 1, 0.01)

    def test_fast_mode_follows_its_law(self):
        # the sampler's exact law, by enumerating every root order and every
        # uniform pick of the search, on two asymmetric 4x4 graphs
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
            freq = Counter(tuple(sample_perfect_matching(b, rng)) for _ in range(draws))
            stat = chi_square_against(freq, law, draws)
            assert stat < chi_square_critical(len(law) - 1, 0.01)

    def test_fast_mode_law_uniform_on_complete_bipartite(self):
        # every root has a free neighbour and takes a uniform one
        for n in range(1, 5):
            law = fast_sampler_law(complete_bipartite(n))
            assert len(law) == factorial(n)
            assert set(law.values()) == {Fraction(1, factorial(n))}

    def test_fast_mode_uniform_on_k33(self):
        b = complete_bipartite(3)
        assert set(fast_sampler_law(b).values()) == {Fraction(1, 6)}
        rng = random.Random(34)
        freq = Counter(tuple(sample_perfect_matching(b, rng)) for _ in range(6000))
        assert len(freq) == 6
        assert chi_square_statistic(freq, 6000) < chi_square_critical(5, 0.01)

    def test_fast_mode_deep_augmenting_paths(self):
        b = chain(1200)
        pairs = sample_perfect_matching(b, random.Random(35))
        assert pairs == [(i, i) for i in range(1200)]

    def test_fast_mode_returns_valid_matchings(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 10)
            b = complete_bipartite(n)
            pairs = sample_perfect_matching(b, rng)
            assert len(pairs) == n
            assert len({v for _, v in pairs}) == n


def _right_ids(rng: random.Random, n: int, holes: bool) -> list[int]:
    """0..n-1, or n sorted ids with holes, the highest 1199."""
    return sorted(rng.sample(range(1199), n - 1)) + [1199] if holes else list(range(n))


def _random_graph(rng: random.Random, n: int, p: float, ids: list[int], planted: bool):
    """n x n graph on right ids ``ids`` at density p, plus a random perfect
    matching when ``planted``."""
    perm = rng.sample(range(n), n) if planted else [-1] * n
    rows = tuple(
        mask_of(ids[v] for v in range(n) if v == perm[u] or rng.random() < p) for u in range(n)
    )
    return BipartiteGraph(rows, mask_of(ids))


def _compact(b: BipartiteGraph) -> tuple[BipartiteGraph, list[int]]:
    """The same graph on right ids 0..n-1 in the same order, and the ids."""
    ids = list(select(b.right, count()))
    pos = {v: i for i, v in enumerate(ids)}
    rows = tuple(mask_of(pos[v] for v in select(row, count())) for row in b.rows)
    return BipartiteGraph(rows, (1 << len(ids)) - 1), ids


def _sampler_cases(rng: random.Random) -> list[tuple[BipartiteGraph, int]]:
    """(graph, seed) pairs: random graphs of sides 1-150 at densities
    0.04-0.95 on right ids with and without holes, each with a planted
    perfect matching and again spoilt so that Hall fails; K_{n,n}; and a
    dense graph and K_{n,n} on a part of 421, the builder's part size at
    n = 5000, k = 3."""
    graphs = []
    for n in (1, 2, 7, 24, 61, 150):
        for p in (0.04, 0.1, 0.5, 0.95):
            for holes in (False, True):
                b = _random_graph(rng, n, p, _right_ids(rng, n, holes), planted=True)
                graphs.append(b)
                if n > 1:  # two left vertices confined to one right vertex
                    lone = b.rows[0] & -b.rows[0]
                    graphs.append(BipartiteGraph((lone, lone) + b.rows[2:], b.right))
    graphs += [complete_bipartite(n) for n in (1, 2, 3, 7, 60, 61, 150, 421)]
    graphs.append(_random_graph(rng, 421, 0.9, list(range(421)), planted=True))
    return [(b, rng.getrandbits(32)) for b in graphs]


def _outcome(b: BipartiteGraph, seed: int, sampler=sample_perfect_matching):
    rng = random.Random(seed)
    try:
        pairs = sampler(b, rng)
    except NoPerfectMatchingError:
        pairs = None
    return pairs, rng.getstate()


def _check_sampler(b: BipartiteGraph, seed: int) -> None:
    """Raises exactly when ``max_matching`` is not perfect, otherwise returns
    a perfect matching on edges of b; draws and rng state equal those on the
    compacted ids."""
    n = b.n_left
    pairs, state = _outcome(b, seed)
    assert (pairs is not None) == (len(max_matching(b)) == n)
    if pairs is not None:
        assert [u for u, _ in pairs] == list(range(n))
        assert len({v for _, v in pairs}) == n
        assert all((b.rows[u] >> v) & 1 for u, v in pairs)
    compact, ids = _compact(b)
    compact_pairs, compact_state = _outcome(compact, seed)
    assert compact_state == state
    assert pairs == (None if compact_pairs is None else [(u, ids[v]) for u, v in compact_pairs])


class TestSamplerProperties:
    """Sparse, dense and hole-y right ids up to 1199, with and without a
    perfect matching: see ``_check_sampler``.  Both pick branches (rejection
    over right positions, ``pick_bit``) draw by rank, so renumbering the
    right ids in order changes no draw in either."""

    @given(
        st.randoms(use_true_random=False),
        st.integers(1, 60),
        st.sampled_from([0.03, 0.15, 0.5, 0.95]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, hrng, n, p, holes, planted):
        rng = random.Random(hrng.getrandbits(32))
        ids = _right_ids(rng, n, holes)
        _check_sampler(_random_graph(rng, n, p, ids, planted), rng.getrandbits(32))

    def test_families(self):
        rng = random.Random(40)
        seed = 0
        for n in (1, 2, 7, 24, 61, 150):
            for p in (0.1, 0.5, 0.95):
                for holes in (False, True):
                    b = _random_graph(rng, n, p, _right_ids(rng, n, holes), planted=True)
                    # two left vertices confined to one right vertex: Hall fails
                    lone = b.rows[0] & -b.rows[0]
                    spoilt = BipartiteGraph((lone, lone) + b.rows[2:], b.right) if n > 1 else b
                    for graph in (b, spoilt):
                        seed += 1
                        _check_sampler(graph, seed)


class TestFastSamplerMatchesReference:
    """The sampler against references, one test per branch of its uniform
    pick: rejection over right positions while a mask holds at least half
    the side, a rank draw and ``nth_bit`` below that, whether the pick is a
    root's free neighbour taken inline or one inside ``augment``."""

    @staticmethod
    def _count_nth_bit(monkeypatch, select_bit=nth_bit) -> list[int]:
        """The masks ``matching.nth_bit`` gets from now on, read by
        ``select_bit``."""
        masks = []

        def counted(mask, idx):
            masks.append(mask)
            return select_bit(mask, idx)

        monkeypatch.setattr(matching, "nth_bit", counted)
        return masks

    def test_dense_rows_take_the_rejection_branch(self, monkeypatch):
        # draws follow the exact law (helpers.fast_sampler_law); every root
        # picks at least once, so fewer nth_bit calls than roots means the
        # rest took the rejection branch
        masks = self._count_nth_bit(monkeypatch)
        b = bipartite([(0, 1, 2, 3), (0, 1, 2), (0, 1, 2, 3), (1, 2, 3)], 4)
        law = fast_sampler_law(b)
        rng = random.Random(42)
        draws = 20_000
        freq = Counter(tuple(sample_perfect_matching(b, rng)) for _ in range(draws))
        assert chi_square_against(freq, law, draws) < chi_square_critical(len(law) - 1, 0.01)
        assert len(masks) < 4 * draws
        assert all(2 * mask.bit_count() < 4 for mask in masks)
        # on K_{n,n} every root takes a free neighbour: by rejection while at
        # least half the side is free, by nth_bit after that
        masks.clear()
        n = 60
        sample_perfect_matching(complete_bipartite(n), random.Random(41))
        assert sorted(mask.bit_count() for mask in masks) == list(range(1, n // 2))

    def test_rows_below_half_the_side_take_pick_bit(self, monkeypatch):
        # rows of two of six right ids forming two 6-cycles: rotating either
        # one is an automorphism, so the law is uniform on the 4 matchings;
        # every pick is a rank draw read by nth_bit, at least one per root
        masks = self._count_nth_bit(monkeypatch)
        b = bipartite([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6)
        rng = random.Random(43)
        draws = 20_000
        freq = Counter(tuple(sample_perfect_matching(b, rng)) for _ in range(draws))
        assert len(freq) == count_perfect_matchings(b) == 4
        assert chi_square_statistic(freq, draws) < chi_square_critical(3, 0.01)
        assert len(masks) >= 6 * draws
        assert all(2 * mask.bit_count() < 6 for mask in masks)
        # sparse rows on hole-y right ids up to 1199: the same pairs and rng
        # state with nth_bit replaced by helpers.reference_nth_bit
        gen = random.Random(44)
        for n in (7, 24, 60):
            b = _random_graph(gen, n, 0.04, _right_ids(gen, n, holes=True), planted=True)
            monkeypatch.setattr(matching, "nth_bit", nth_bit)
            ours = _outcome(b, n)
            masks = self._count_nth_bit(monkeypatch, reference_nth_bit)
            assert _outcome(b, n) == ours
            assert len(masks) >= n
            assert all(2 * mask.bit_count() < n for mask in masks)
