import random

import pytest

from helpers import (
    min_pair_degree,
    reference_random_min_degree_collection,
    reference_random_rpartite_collection,
)
from hampower.bitset import mask_of
from hampower.core import (
    GraphCollection,
    collection_from_dict,
    collection_to_dict,
    host_edges,
    min_degree,
    pattern_from_dict,
    pattern_to_dict,
    power_cycle,
)
from hampower.errors import InvalidInstanceError
from hampower.instances import (
    _draw_flags,
    bijective_pattern,
    complete_collection,
    complete_rpartite_collection,
    lowerbound_construction,
    random_min_degree_collection,
    random_rpartite_collection,
)


class TestCompleteCollection:
    def test_two_triangles(self):
        coll = complete_collection(3, 2)
        assert coll.m == 2
        assert all(coll.neighbour_mask(c, v) == 0b111 ^ (1 << v)
                   for c in (1, 2) for v in range(3))

    def test_single_vertex_is_edgeless(self):
        coll = complete_collection(1, 1)
        assert coll.degree(1, 0) == 0

    def test_min_degree(self):
        assert min_degree(complete_collection(13, 7)) == 12


class TestMaskTables:
    def test_complete_collection_matches_listed_edges(self):
        for n in (1, 2, 7, 70):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
            assert complete_collection(n, 3) == GraphCollection.from_edge_lists(n, [edges] * 3)

    def test_complete_rpartite_matches_listed_edges(self):
        for r, part_size in ((2, 1), (3, 4), (5, 15)):
            n = r * part_size
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if u // part_size != v // part_size]
            coll, _ = complete_rpartite_collection(r, part_size, 2)
            assert coll == GraphCollection.from_edge_lists(n, [edges] * 2)


class TestRandomMinDegree:
    def test_degree_floor_enforced(self):
        for seed in range(20):
            rng = random.Random(seed)
            coll = random_min_degree_collection(60, 2, 0.8, rng)
            assert min_degree(coll) >= 48

    def test_zero_fraction_accepts_sparse(self):
        rng = random.Random(99)
        coll = random_min_degree_collection(10, 1, 0.0, rng)
        assert min_degree(coll) >= 0

    def test_full_fraction_gives_complete(self):
        rng = random.Random(100)
        n = 12
        coll = random_min_degree_collection(n, 1, (n - 1) / n, rng)
        assert min_degree(coll) == n - 1


class TestSizeErrors:
    """Sizes are checked before any draw, with a typed error."""

    @pytest.mark.parametrize("n, m", [(-1, 1), (0, 1), (3, 0), (3, -2)])
    def test_random_min_degree(self, n, m):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError):
            random_min_degree_collection(n, m, 0.5, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("r, part_size, m", [(0, 3, 1), (-1, 3, 1), (2, 0, 1), (2, -1, 1),
                                                 (2, 3, 0)])
    def test_rpartite(self, r, part_size, m):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError):
            random_rpartite_collection(r, part_size, m, 0.5, rng)
        assert rng.getstate() == state
        with pytest.raises(InvalidInstanceError):
            complete_rpartite_collection(r, part_size, m)

    @pytest.mark.parametrize("n, m", [(-1, 1), (0, 1), (3, 0)])
    def test_complete(self, n, m):
        with pytest.raises(InvalidInstanceError):
            complete_collection(n, m)


def _densities(size: int) -> list:
    # int and float forms of 0 and 1 both, and the fraction that makes the
    # floor size - 1
    return [0, 1, 0.0, 0.5, 0.95, 1.0, (size - 1) / size]


class TestDrawsMatchReference:
    """The generators make the reference loops' draws in the same order:
    equal collections and equal rng states after the call."""

    @pytest.mark.parametrize("n, ms, seeds", [
        *(pytest.param(n, (1, 3), range(5), id=str(n)) for n in (1, 2, 3, 17, 64, 150)),
        # 363 * 362 / 2 = 65 703 pairs: one graph's draws span two chunks
        pytest.param(363, (1,), range(2), id="363"),
    ])
    def test_random_min_degree(self, n, ms, seeds):
        for m in ms:
            for seed in seeds:
                for delta in _densities(n):
                    got_rng, want_rng = random.Random(seed), random.Random(seed)
                    got = random_min_degree_collection(n, m, delta, got_rng)
                    want = reference_random_min_degree_collection(n, m, delta, want_rng)
                    assert got == want, (n, m, seed, delta)
                    assert got_rng.getstate() == want_rng.getstate(), (n, m, seed, delta)

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_random_rpartite(self, r):
        for part_size in (1, 2, 7, 16):
            for m in (1, 3):
                for seed in range(5):
                    for delta in _densities(part_size):
                        got_rng, want_rng = random.Random(seed), random.Random(seed)
                        got = random_rpartite_collection(r, part_size, m, delta, got_rng)
                        want = reference_random_rpartite_collection(
                            r, part_size, m, delta, want_rng
                        )
                        case = (r, part_size, m, seed, delta)
                        assert got == want, case
                        assert got_rng.getstate() == want_rng.getstate(), case


CHUNK = 1 << 16


class TestDrawFlags:
    """``_draw_flags`` against one interpreted ``rng.random()`` per flag:
    equal bytes and equal rng states after the call."""

    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize(
        "density", [0, 1, 0.0, 1.0, 0.5, 0.25, 1e-12, 1 - 2**-53, 0.95, 149 / 150]
    )
    def test_matches_random_calls(self, size, density):
        for seed in range(2):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = _draw_flags(got_rng, size, density)
            want = bytes(want_rng.random() < density for _ in range(size))
            assert got == want, seed
            assert got_rng.getstate() == want_rng.getstate(), seed

    def test_threshold_at_a_draw(self):
        # a density equal to a draw ties on its top byte and must read 0 for
        # that draw; one draw's step above, 1
        reference = random.Random(7)
        draws = [reference.random() for _ in range(64)]
        for i in (0, 31, 63):
            for density, flag in ((draws[i], 0), (draws[i] + 2**-53, 1)):
                got_rng, want_rng = random.Random(7), random.Random(7)
                got = _draw_flags(got_rng, 64, density)
                assert got[i] == flag, (i, density)
                assert got == bytes(want_rng.random() < density for _ in range(64)), (i, density)
                assert got_rng.getstate() == want_rng.getstate(), (i, density)


class TestRPartite:
    def test_complete_rpartite_degrees(self):
        coll, parts = complete_rpartite_collection(4, 5, 3)
        assert min_degree(coll) == 15  # n - part_size
        assert [len(p) for p in parts] == [5, 5, 5, 5]

    def test_random_rpartite_pair_floor(self):
        rng = random.Random(101)
        coll, parts = random_rpartite_collection(4, 8, 2, 0.75, rng)
        for colour in (1, 2):
            for i in range(4):
                for j in range(i + 1, 4):
                    assert min_pair_degree(coll, colour, parts[i], parts[j]) >= 6

    def test_full_density_is_complete_rpartite(self):
        rng = random.Random(102)
        coll, parts = random_rpartite_collection(3, 4, 1, 1.0, rng)
        complete, _ = complete_rpartite_collection(3, 4, 1)
        assert coll == complete


class TestLowerBound:
    def test_k2_p3_degrees(self):
        coll, _ = lowerbound_construction(2, 3)
        assert coll.n == 9
        assert min_degree(coll) == 6  # 2/3 n = 2p

    def test_k2_colour2_edges_figure_orientation(self):
        _, pattern = lowerbound_construction(2, 3, "figure")
        colour2 = sorted(e for e, c in pattern.colours.items() if c == 2)
        assert colour2 == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4)]

    def test_k2_colour2_edges_text_orientation(self):
        _, pattern = lowerbound_construction(2, 3, "text")
        colour2 = sorted(e for e, c in pattern.colours.items() if c == 2)
        assert colour2 == [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]

    def test_k1_p3_structure(self):
        coll, pattern = lowerbound_construction(1, 3)
        assert coll.n == 6
        # G2 = two disjoint triangles plus a perfect matching between parts
        g2_degrees = [coll.degree(2, v) for v in range(6)]
        assert g2_degrees == [3] * 6
        edges_between = [(u, v) for u in range(3) for v in range(3, 6) if coll.has_edge(2, u, v)]
        assert len(edges_between) == 3  # matching, not K_{3,3}

    def test_paired_part_bipartite_is_matching(self):
        for k, p in ((2, 3), (3, 3), (2, 4)):
            coll, _ = lowerbound_construction(k, p)
            part_1 = mask_of(range(p, 2 * p))
            between = sum((coll.neighbour_mask(2, u) & part_1).bit_count() for u in range(p))
            assert between == p

    def test_min_degree_formula(self):
        for k, p in ((1, 3), (2, 3), (2, 4), (3, 3), (4, 3)):
            coll, _ = lowerbound_construction(k, p)
            assert min_degree(coll) == k * p

    def test_small_p_rejected(self):
        with pytest.raises(InvalidInstanceError):
            lowerbound_construction(2, 2)

    def test_orientations_agree_for_k1(self):
        _, fig = lowerbound_construction(1, 3, "figure")
        _, txt = lowerbound_construction(1, 3, "text")
        assert dict(fig.colours) == dict(txt.colours)

    def test_serialization_round_trip(self):
        coll, pattern = lowerbound_construction(2, 3)
        assert collection_from_dict(collection_to_dict(coll)) == coll
        again = pattern_from_dict(pattern_to_dict(pattern))
        assert dict(again.colours) == dict(pattern.colours)


class TestPatternGenerators:
    def test_bijective_pattern_uses_each_colour_once(self):
        host = power_cycle(9, 2)
        pattern = bijective_pattern(host)
        colours = sorted(pattern.colours.values())
        assert colours == list(range(1, 19))

    def test_bijective_pattern_shuffles_with_rng(self):
        host = power_cycle(9, 2)
        a = bijective_pattern(host, random.Random(1))
        b = bijective_pattern(host, random.Random(2))
        assert dict(a.colours) != dict(b.colours)
        assert sorted(a.colours.values()) == sorted(b.colours.values())

    def test_random_pattern_covers_host(self):
        rng = random.Random(103)
        host = power_cycle(8, 2)
        pattern = bijective_pattern(host)
        assert set(pattern.colours) == set(host_edges(host))
