import hashlib
import math
import random
import tracemalloc
from collections import Counter

import pytest

from helpers import (
    min_pair_degree,
    naive_hamilton_power_exists,
    reference_multipartite_edges,
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
from hampower import instances
from hampower.instances import (
    _draw_flags,
    bijective_pattern,
    complete_collection,
    complete_rpartite_collection,
    lowerbound_construction,
    multipartite_collection,
    random_min_degree_collection,
    random_pattern,
    random_rpartite_collection,
)
from hampower.oracle import FOUND, find_coloured_hamilton_power


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

    @pytest.mark.parametrize("n, parts, m, p", [(0, 1, 1, 0.5), (3, 0, 1, 0.5), (3, 4, 1, 0.5),
                                                (3, 2, 0, 0.5), (3, 2, 1, -0.1), (3, 2, 1, 1.5)])
    def test_multipartite(self, n, parts, m, p):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError):
            multipartite_collection(n, parts, m, p, rng)
        assert rng.getstate() == state

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

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
    @pytest.mark.parametrize("rows_per_block", ["1", "2", "3/2", "none"])
    def test_random_min_degree_in_row_blocks(self, monkeypatch, n, rows_per_block):
        # blocks of one row; of two rows, the last row alone when n is odd;
        # a bound between one and two rows (one row per block, two at n <= 2)
        # and one below a row (still one row per block)
        block_bytes = {"1": n, "2": 2 * n, "3/2": 3 * n // 2 + 1, "none": 1}[rows_per_block]
        monkeypatch.setattr(instances, "_BLOCK_BYTES", block_bytes)
        for seed in range(2):
            for delta in (0.5, 0.95, (n - 1) / n):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                got = random_min_degree_collection(n, 2, delta, got_rng)
                want = reference_random_min_degree_collection(n, 2, delta, want_rng)
                assert got == want, (seed, delta)
                assert got_rng.getstate() == want_rng.getstate(), (seed, delta)

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


    @pytest.mark.parametrize("generator", ["min-degree", "rpartite"])
    def test_repair_in_wide_rows(self, monkeypatch, generator):
        # rows of 700 bits: a vertex a few neighbours short draws ranks and
        # finds each with nth_bit, one short of many lists its non-neighbours;
        # both make the reference's draws
        paths = Counter()

        def counted(name):
            real = getattr(instances, name)

            def call(*args):
                paths[name] += 1
                return real(*args)
            return call

        for name in ("nth_bit", "select"):
            monkeypatch.setattr(instances, name, counted(name))
        for seed in range(3):
            for delta in (0.9, 0.97):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                if generator == "min-degree":
                    got = random_min_degree_collection(700, 1, delta, got_rng)
                    want = reference_random_min_degree_collection(700, 1, delta, want_rng)
                else:
                    got = random_rpartite_collection(2, 350, 1, delta, got_rng)
                    want = reference_random_rpartite_collection(2, 350, 1, delta, want_rng)
                assert got == want, (seed, delta)
                assert got_rng.getstate() == want_rng.getstate(), (seed, delta)
        assert paths["nth_bit"] and paths["select"], paths

def test_random_min_degree_memory_is_one_block_not_n_squared(monkeypatch):
    # 64-row blocks at n = 2400: one block's flags and bytes are 150 KB each,
    # against 8.6 MB for all pairs' flags and the n*n bytes at once.  The
    # rows (720 KB) and the collection's packed copy of them (720 KB) make
    # most of the rest
    n = 2400
    monkeypatch.setattr(instances, "_BLOCK_BYTES", 64 * n)
    rng = random.Random(0)
    tracemalloc.start()
    try:
        random_min_degree_collection(n, 1, 0.9, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


class TestMultipartite:
    SHAPES = [(1, 1), (5, 2), (7, 3), (8, 4), (12, 4), (30, 4), (31, 6), (9, 9)]

    def test_degree_floor_and_balanced_parts(self):
        for n, parts in self.SHAPES:
            for p in (0, 0.1, 0.5, 1):
                coll, partitions = multipartite_collection(n, parts, 3, p, random.Random(n))
                assert min_degree(coll) >= n - math.ceil(n / parts), (n, parts, p)
                assert len(partitions) == 3
                for split in partitions:
                    assert sorted(v for part in split for v in part) == list(range(n))
                    assert {len(part) for part in split} <= {n // parts, -(-n // parts)}
                    assert all(part == sorted(part) for part in split)

    def test_masks_equal_listed_edges(self):
        # equal rng states too: the generator makes the reference's draws
        for n, parts in self.SHAPES:
            for p in (0, 0.3, 1):
                for seed in range(3):
                    got_rng, want_rng = random.Random(seed), random.Random(seed)
                    got, _ = multipartite_collection(n, parts, 2, p, got_rng)
                    edges = reference_multipartite_edges(n, parts, 2, p, want_rng)
                    assert got == GraphCollection.from_edge_lists(n, edges), (n, parts, p, seed)
                    assert got_rng.getstate() == want_rng.getstate()

    def test_digest_pins_the_draw_order(self):
        coll, partitions = multipartite_collection(40, 4, 3, 0.1, random.Random(2026))
        blob = repr((coll.masks, partitions)).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "8d4ef0d35822a31e56a47dac56117affbe4afa45ad61bb6c2a3e660620e3d72b"
        )

    def test_oracle_agrees_with_permutation_scan(self):
        # at k = 2, four parts put every degree at the 1 - 1/2k threshold and
        # two parts put it at n/2, below it
        outcomes = set()
        for parts, p in ((4, 0.1), (2, 0.2)):
            for seed in range(4):
                rng = random.Random(seed)
                coll, _ = multipartite_collection(8, parts, 2, p, rng)
                pattern = random_pattern(power_cycle(8, 2), 2, rng)
                _, stats = find_coloured_hamilton_power(coll, pattern)
                expected = naive_hamilton_power_exists(coll, pattern)
                assert (stats.result == FOUND) == expected, (parts, seed)
                outcomes.add(expected)
        assert outcomes == {True, False}


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
