import random

import pytest

from helpers import without_certificate
from hampower.core import (
    ColourPattern,
    GraphCollection,
    host_edges,
    power_path,
    verify_coloured_embedding,
)
from hampower.errors import AbortError, InvalidInstanceError
from hampower.instances import (
    complete_rpartite_collection,
    random_pattern,
    random_rpartite_collection,
)
from hampower.pathbuilder import build_path_collection


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
        # colour 1 between parts 0 and 1 is a sparse matching: threshold breached
        part_size = 4
        parts = [list(range(4)), list(range(4, 8)), list(range(8, 12))]
        full = [
            (u, v)
            for i in range(3)
            for j in range(i + 1, 3)
            for u in parts[i]
            for v in parts[j]
        ]
        sparse = [e for e in full if not (e[0] < 4 and 4 <= e[1] < 8)]
        sparse += [(u, u + 4) for u in range(4)]  # only a perfect matching across (0,1)
        coll = GraphCollection.from_edge_lists(12, [sparse, full])
        rng = random.Random(84)
        pattern_colours = {e: 2 for e in host_edges(power_path(3, 2))}
        pattern_colours[(0, 1)] = 1
        pattern = ColourPattern(power_path(3, 2), pattern_colours)
        with pytest.raises(AbortError) as err:
            build_path_collection(coll, parts, [pattern], 1, rng)
        assert err.value.step == 1
        assert err.value.pair == (0, 1)

    def test_certificate_keeps_every_abort(self):
        # colour 1 is K_32, certified at every step; colour 2 is K_32 minus
        # a perfect matching across parts 0-1 and 2-3, certified while
        # n_i >= 4 and scanned after; colour 3 is a random 4-partite graph,
        # always scanned.  Aborts come at several steps, in colours 2 and 3.
        part_size, r = 8, 4
        n = part_size * r
        full = (1 << n) - 1
        rows = {
            1: [full ^ (1 << v) for v in range(n)],
            2: [full ^ (1 << v) ^ (1 << (v ^ 8)) for v in range(n)],
        }
        outcomes = []
        for seed in range(20):
            rng = random.Random(seed)
            density = 0.9 if seed % 2 else 0.8
            degraded, parts = random_rpartite_collection(r, part_size, 1, density, rng)
            coll = GraphCollection(n, [rows[1], rows[2], degraded.masks[0]])
            patterns = [random_pattern(power_path(r, 2), 3, rng) for _ in range(8)]
            runs = []
            for instance in (coll, without_certificate(coll)):
                local = random.Random(seed)
                try:
                    paths = build_path_collection(instance, parts, patterns, 8, local)
                    run = ("built", [p.vertices for p in paths])
                except AbortError as exc:
                    run = ("aborted", exc.step, exc.level, exc.pair, str(exc))
                runs.append((run, local.getstate()))
            assert runs[0] == runs[1]
            outcomes.append(runs[0][0])
        aborts = [run for run in outcomes if run[0] == "aborted"]
        assert len({run[1] for run in aborts}) >= 2
        assert {run[4].split(" colour ")[1].split()[0] for run in aborts} == {"2", "3"}
        assert any(run[0] == "built" for run in outcomes)

    def test_random_rpartite_high_density(self):
        rng = random.Random(85)
        ok = 0
        for seed in range(20):
            local = random.Random(9_000 + seed)
            coll, parts = random_rpartite_collection(5, 12, 4, 0.9, local)
            patterns = [random_pattern(power_path(5, 2), 4, local) for _ in range(6)]
            try:
                paths = build_path_collection(coll, parts, patterns, 6, local)
            except AbortError:
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
