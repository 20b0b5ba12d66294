import random

import pytest

from hampower.core import (
    ColourPattern,
    GraphCollection,
    host_edges,
    power_path,
    verify_coloured_embedding,
)
from hampower.errors import HamPowerError, InvalidInstanceError, NoMatchingError
from hampower.instances import (
    complete_rpartite_collection,
    random_pattern,
    random_rpartite_collection,
)
from hampower.pathbuilder import _assert_window_tiling, build_path_collection


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
        for mode in ("fast", "exact"):
            [path] = build_path_collection(
                coll, parts, [pattern], 1, random.Random(84), sampler_mode=mode
            )
            assert verify_coloured_embedding(coll, pattern, path.vertices).ok
            assert path.vertices[1] - path.vertices[0] == 4

    def test_hall_violation_raises_no_matching(self):
        # in colour 1, part 0's vertices 0 and 1 both see only vertex 4 of
        # part 1: no perfect matching attaches level 1
        cross = [(0, 4), (1, 4), (2, 6), (3, 7), (2, 5)]
        parts, coll = _three_parts_with_sparse_pair(cross)
        for mode in ("fast", "exact"):
            with pytest.raises(NoMatchingError) as err:
                build_path_collection(
                    coll, parts, [_pattern_with_sparse_pair()], 1, random.Random(85),
                    sampler_mode=mode,
                )
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

    def test_exact_sampler_mode(self):
        rng = random.Random(87)
        coll, parts = complete_rpartite_collection(4, 4, 3)
        patterns = [random_pattern(power_path(4, 2), 3, rng) for _ in range(2)]
        paths = build_path_collection(coll, parts, patterns, 2, rng, sampler_mode="exact")
        assert len(paths) == 2


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
