import hashlib
import random

import pytest

from hampower import pathbuilder
from hampower.core import (
    ColourPattern,
    GraphCollection,
    host_edges,
    power_path,
    verify_coloured_embedding,
)
from hampower.errors import HamPowerError, InvalidInstanceError, NoMatchingError
from hampower.instances import (
    complete_collection,
    complete_rpartite_collection,
    random_min_degree_collection,
    random_pattern,
    random_rpartite_collection,
)
from hampower.pathbuilder import _assert_window_tiling, _part_tables, build_path_collection


def _three_parts_with_sparse_pair(cross):
    """Parts {0..3}, {4..7}, {8..11}; colour 2 is complete 3-partite, colour 1
    the same except that parts 0 and 1 are joined by ``cross`` only."""
    parts = [list(range(4)), list(range(4, 8)), list(range(8, 12))]
    full = [
        (u, v)
        for i in range(3)
        for j in range(i + 1, 3)
        for u in parts[i]
        for v in parts[j]
    ]
    sparse = [e for e in full if not (e[0] < 4 and 4 <= e[1] < 8)] + list(cross)
    return parts, GraphCollection.from_edge_lists(12, [sparse, full])


def _pattern_with_sparse_pair():
    colours = {e: 2 for e in host_edges(power_path(3, 2))}
    colours[(0, 1)] = 1
    return ColourPattern(power_path(3, 2), colours)


class TestBuildPathCollection:
    def test_complete_rpartite_small(self):
        rng = random.Random(80)
        coll, parts = complete_rpartite_collection(4, 6, 5)
        patterns = [random_pattern(power_path(4, 2), 5, rng) for _ in range(4)]
        paths = build_path_collection(coll, parts, patterns, 4, rng)
        seen = set()
        for path, pattern in zip(paths, patterns):
            assert verify_coloured_embedding(coll, pattern, path.vertices).ok
            assert not (seen & set(path.vertices))
            seen |= set(path.vertices)

    def test_zero_paths(self):
        rng = random.Random(81)
        coll, parts = complete_rpartite_collection(3, 4, 2)
        assert build_path_collection(coll, parts, [], 0, rng) == []

    def test_each_path_takes_one_vertex_per_part(self):
        rng = random.Random(82)
        coll, parts = complete_rpartite_collection(5, 5, 3)
        patterns = [random_pattern(power_path(5, 2), 3, rng) for _ in range(3)]
        paths = build_path_collection(coll, parts, patterns, 3, rng)
        for path in paths:
            for j, part in enumerate(parts):
                assert path.vertices[j] in part

    def test_exhausting_all_parts(self):
        # s = n1 consumes the parts completely
        rng = random.Random(83)
        coll, parts = complete_rpartite_collection(3, 4, 3)
        patterns = [random_pattern(power_path(3, 2), 3, rng) for _ in range(4)]
        paths = build_path_collection(coll, parts, patterns, 4, rng)
        used = {v for p in paths for v in p.vertices}
        assert used == {v for part in parts for v in part}

    def test_abort_on_degraded_pair(self):
        # colour 1 between parts 0 and 1 is only a perfect matching, far
        # below the (2w-1)/2w degree bound; the matching exists, so the
        # builder does not abort and returns a verified path
        parts, coll = _three_parts_with_sparse_pair([(u, u + 4) for u in range(4)])
        pattern = _pattern_with_sparse_pair()
        [path] = build_path_collection(coll, parts, [pattern], 1, random.Random(84))
        assert verify_coloured_embedding(coll, pattern, path.vertices).ok
        assert path.vertices[1] - path.vertices[0] == 4

    def test_hall_violation_raises_no_matching(self):
        # in colour 1, part 0's vertices 0 and 1 both see only vertex 4 of
        # part 1: no perfect matching attaches level 1
        cross = [(0, 4), (1, 4), (2, 6), (3, 7), (2, 5)]
        parts, coll = _three_parts_with_sparse_pair(cross)
        with pytest.raises(NoMatchingError) as err:
            build_path_collection(coll, parts, [_pattern_with_sparse_pair()], 1, random.Random(85))
        assert (err.value.step, err.value.level) == (1, 1)

    def test_random_rpartite_high_density(self):
        rng = random.Random(85)
        ok = 0
        for seed in range(20):
            local = random.Random(9_000 + seed)
            coll, parts = random_rpartite_collection(5, 12, 4, 0.9, local)
            patterns = [random_pattern(power_path(5, 2), 4, local) for _ in range(6)]
            try:
                paths = build_path_collection(coll, parts, patterns, 6, local)
            except NoMatchingError:
                continue
            assert all(
                verify_coloured_embedding(coll, pat, p.vertices).ok
                for p, pat in zip(paths, patterns)
            )
            ok += 1
        assert ok >= 19

    def test_too_many_paths_rejected(self):
        rng = random.Random(86)
        coll, parts = complete_rpartite_collection(3, 2, 2)
        patterns = [random_pattern(power_path(3, 1), 2, rng) for _ in range(3)]
        with pytest.raises(InvalidInstanceError):
            build_path_collection(coll, parts, patterns, 3, rng)

    def test_overlapping_parts_rejected(self):
        # disjoint parts are what keeps a level's tiles off its right side
        coll = complete_collection(6, 1)
        patterns = [random_pattern(power_path(3, 2), 1, random.Random(88))]
        with pytest.raises(InvalidInstanceError, match="pairwise disjoint"):
            build_path_collection(coll, [[0, 1], [2, 3], [3, 4]], patterns, 1, random.Random(88))


class TestWindowTilingCheck:
    def test_names_the_first_broken_pair_of_the_first_broken_chain(self):
        # colour 2 misses 3-5 and 4-5 (chain 1's pairs (0,2) and (1,2)) and
        # 6-7 (chain 2's pair (0,1)); chains are checked one at a time
        full = [(u, v) for u in range(9) for v in range(u + 1, 9)]
        holes = {(3, 5), (4, 5), (6, 7)}
        coll = GraphCollection.from_edge_lists(9, [full, [e for e in full if e not in holes]])
        pattern = ColourPattern(power_path(3, 3), dict.fromkeys(host_edges(power_path(3, 3)), 2))
        chains = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        first = r"^internal error: step 7 tiling invariant broken at levels \(0,2\)$"
        with pytest.raises(HamPowerError, match=first):
            _assert_window_tiling(coll, pattern, chains, 2, 3, 7)
        _assert_window_tiling(coll, pattern, chains[:1], 2, 3, 7)
        # with k = 2 the window at level 2 is levels 1..2 only
        with pytest.raises(HamPowerError, match=r"levels \(1,2\)$"):
            _assert_window_tiling(coll, pattern, chains, 2, 2, 7)
        _assert_window_tiling(coll, pattern, chains[2:], 2, 2, 7)


class TestPartRows:
    def test_gathered_rows_are_neighbours_by_position(self):
        # parts with holes, including the lowest and the highest vertex id
        rng = random.Random(89)
        coll = random_min_degree_collection(40, 2, 0.5, rng)
        parts = [
            sorted(rng.sample(range(1, 39), 9)) + [39],
            [0] + sorted(rng.sample(range(1, 39), 9)),
        ]
        rows_into = _part_tables(coll, parts)
        for c in (1, 2):
            for j, part in enumerate(parts):
                table = rows_into(c, j)
                assert rows_into(c, j) is table
                for u in range(40):
                    want = sum(1 << i for i, v in enumerate(part) if coll.has_edge(c, u, v))
                    assert table[u] == want
                assert len(table) == 40


def _builder_digest(coll, r, k, n1, s, seed):
    """Digest of the paths and the rng state after one builder call on r
    random parts of n1 vertices drawn from the whole collection."""
    rng = random.Random(seed)
    pool = rng.sample(range(coll.n), r * n1)
    parts = [sorted(pool[j * n1:(j + 1) * n1]) for j in range(r)]
    patterns = [random_pattern(power_path(r, k), coll.m, rng) for _ in range(s)]
    paths = build_path_collection(coll, parts, patterns, s, rng)
    blob = repr(([p.vertices for p in paths], rng.getstate()))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestBuilderDigest:
    """Whole builder calls pinned by digest, paths and final rng state: a
    change to any draw or to which vertex a draw picks shows here."""

    def test_parts_of_60_in_copies_of_k1200(self):
        coll = complete_collection(1200, 4)
        assert _builder_digest(coll, 7, 3, 60, 40, 14) == (
            "97d74e5c02a216ccf4f89522e73b8a149f9d0a1f6d4cbe2c0155fe66bda8a1b4"
        )

    def test_random_collection_with_sparse_tiling_rows(self, monkeypatch):
        sparse = []

        def spy(aux, rng):
            sparse.append(any(2 * row.bit_count() < aux.n_right for row in aux.rows))
            return sample(aux, rng)

        sample = pathbuilder.sample_perfect_matching
        monkeypatch.setattr(pathbuilder, "sample_perfect_matching", spy)
        coll = random_min_degree_collection(150, 4, 0.8, random.Random(0))
        assert _builder_digest(coll, 5, 2, 24, 12, 0) == (
            "34dbc2074c01af3565069ce5e1436ccdd665c86995b0921eeae67d3f7d597e4f"
        )
        # both branches of the fast sampler ran: some levels have a row
        # below half the side, some do not
        assert any(sparse) and not all(sparse)

    def test_failure_names_the_same_step_and_level(self):
        coll = random_min_degree_collection(150, 4, 0.6, random.Random(1))
        with pytest.raises(NoMatchingError) as err:
            _builder_digest(coll, 5, 2, 24, 12, 1)
        assert (err.value.step, err.value.level) == (12, 2)
