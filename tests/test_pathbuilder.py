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
from hampower.pathbuilder import _part_tables, build_path_collection


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
        paths = build_path_collection(coll, parts, patterns, rng)
        seen = set()
        for path, pattern in zip(paths, patterns):
            assert verify_coloured_embedding(coll, pattern, path.vertices).ok
            assert not (seen & set(path.vertices))
            seen |= set(path.vertices)

    def test_zero_paths(self):
        rng = random.Random(81)
        coll, parts = complete_rpartite_collection(3, 4, 2)
        assert build_path_collection(coll, parts, [], rng) == []

    def test_each_path_takes_one_vertex_per_part(self):
        rng = random.Random(82)
        coll, parts = complete_rpartite_collection(5, 5, 3)
        patterns = [random_pattern(power_path(5, 2), 3, rng) for _ in range(3)]
        paths = build_path_collection(coll, parts, patterns, rng)
        for path in paths:
            for j, part in enumerate(parts):
                assert path.vertices[j] in part

    def test_exhausting_all_parts(self):
        # s = n1 consumes the parts completely
        rng = random.Random(83)
        coll, parts = complete_rpartite_collection(3, 4, 3)
        patterns = [random_pattern(power_path(3, 2), 3, rng) for _ in range(4)]
        paths = build_path_collection(coll, parts, patterns, rng)
        used = {v for p in paths for v in p.vertices}
        assert used == {v for part in parts for v in part}

    def test_abort_on_degraded_pair(self):
        # colour 1 between parts 0 and 1 is only a perfect matching, far
        # below the (2w-1)/2w degree bound; the matching exists, so the
        # builder does not abort and returns a verified path
        parts, coll = _three_parts_with_sparse_pair([(u, u + 4) for u in range(4)])
        pattern = _pattern_with_sparse_pair()
        [path] = build_path_collection(coll, parts, [pattern], random.Random(84))
        assert verify_coloured_embedding(coll, pattern, path.vertices).ok
        assert path.vertices[1] - path.vertices[0] == 4

    def test_hall_violation_raises_no_matching(self):
        # in colour 1, part 0's vertices 0 and 1 both see only vertex 4 of
        # part 1: no perfect matching attaches level 1
        cross = [(0, 4), (1, 4), (2, 6), (3, 7), (2, 5)]
        parts, coll = _three_parts_with_sparse_pair(cross)
        with pytest.raises(NoMatchingError) as err:
            build_path_collection(coll, parts, [_pattern_with_sparse_pair()], random.Random(85))
        assert (err.value.step, err.value.level) == (1, 1)

    def test_random_rpartite_high_density(self):
        rng = random.Random(85)
        ok = 0
        for seed in range(20):
            local = random.Random(9_000 + seed)
            coll, parts = random_rpartite_collection(5, 12, 4, 0.9, local)
            patterns = [random_pattern(power_path(5, 2), 4, local) for _ in range(6)]
            try:
                paths = build_path_collection(coll, parts, patterns, local)
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
            build_path_collection(coll, parts, patterns, rng)

    def test_overlapping_parts_rejected(self):
        # disjoint parts are what keeps a level's tiles off its right side
        coll = complete_collection(6, 1)
        patterns = [random_pattern(power_path(3, 2), 1, random.Random(88))]
        with pytest.raises(InvalidInstanceError, match=r"^part vertex 3 is repeated$"):
            build_path_collection(coll, [[0, 1], [2, 3], [3, 4]], patterns, random.Random(88))

    def test_vertex_repeated_within_a_part_rejected_before_any_draw(self):
        # a repeat inside one part would surface only later, in the tiling graph
        coll = complete_collection(12, 2)
        patterns = [random_pattern(power_path(3, 2), 2, random.Random(84))]
        rng = random.Random(84)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError, match=r"^part vertex 0 is repeated$"):
            build_path_collection(coll, [[0, 0], [2, 3], [4, 5]], patterns, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_part_vertex_outside_the_collection_rejected(self, bad):
        # -1 would index the gathered row string from its end and 12 would
        # raise a raw IndexError in the part-row gather
        coll = complete_collection(12, 2)
        patterns = [random_pattern(power_path(3, 2), 2, random.Random(87))]
        with pytest.raises(InvalidInstanceError, match=rf"^part vertex must be in \[0, 11\], got {bad}$"):
            build_path_collection(coll, [[0, 1], [2, 3], [4, bad]], patterns, random.Random(87))

    def test_no_parts_rejected(self):
        # no parts would index parts[0] and raise a raw IndexError
        coll = complete_collection(12, 2)
        patterns = [random_pattern(power_path(3, 2), 2, random.Random(86))]
        with pytest.raises(InvalidInstanceError, match="^no parts to build paths through$"):
            build_path_collection(coll, [], patterns, random.Random(86))

    @pytest.mark.parametrize("bad", [5.0, True, "5"])
    def test_part_vertex_that_is_not_an_int_rejected(self, bad):
        # 5.0 would raise a raw TypeError in the part-row gather, and True
        # would equal vertex 1 and be reported as a shared vertex
        coll = complete_collection(12, 2)
        patterns = [random_pattern(power_path(3, 2), 2, random.Random(85))]
        rng = random.Random(85)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError, match=rf"^part vertex must be an integer, got {bad!r}$"):
            build_path_collection(coll, [[0, 1], [2, 3], [4, bad]], patterns, rng)
        assert rng.getstate() == state  # rejected before any draw


class TestCorruptedPartTable:
    def test_the_kept_path_check_catches_a_table_with_false_edges(self, monkeypatch):
        # colour 2 has no edge between parts 0 and 1, but every gathered row
        # claims the whole part: the builder attaches level 1 through
        # non-edges, and the kept path's check against the collection's own
        # rows names the pair
        full = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        cut = [(u, v) for u, v in full if not (u < 4 <= v < 8)]
        coll = GraphCollection.from_edge_lists(12, [full, cut])
        colours = dict.fromkeys(host_edges(power_path(3, 2)), 1)
        colours[(0, 1)] = 2
        pattern = ColourPattern(power_path(3, 2), colours)
        parts = [list(range(4)), list(range(4, 8)), list(range(8, 12))]

        def full_tables(collection, ids, k):
            return lambda c, j: {
                u: (1 << len(ids[j])) - 1 for part in ids[max(0, j - k):j] for u in part
            }

        monkeypatch.setattr(pathbuilder, "_part_tables", full_tables)
        with pytest.raises(HamPowerError, match=r"^internal error: round 1 path fails at \(0, 1\)$"):
            build_path_collection(coll, parts, [pattern], random.Random(0))


class TestPartRows:
    def test_gathered_rows_are_neighbours_by_position(self):
        # parts with holes, including the lowest and the highest vertex id;
        # with k = 2, table (c, j) holds the rows of parts j - 2 and j - 1
        rng = random.Random(89)
        coll = random_min_degree_collection(40, 2, 0.5, rng)
        inner = rng.sample(range(1, 39), 34)
        parts = [sorted(inner[:8]) + [39], [0] + sorted(inner[8:16])] + [
            sorted(inner[16 + 9 * i:25 + 9 * i]) for i in range(2)
        ]
        rows_into = _part_tables(coll, parts, 2)
        for c in (1, 2):
            for j, part in enumerate(parts):
                table = rows_into(c, j)
                assert rows_into(c, j) is table
                assert sorted(table) == sorted(v for p in parts[max(0, j - 2):j] for v in p)
                for u, row in table.items():
                    assert row == sum(1 << i for i, v in enumerate(part) if coll.has_edge(c, u, v))


class TestSharedPartTables:
    """Part tables are keyed on the graph's row table, not on the colour."""

    def test_shared_and_equal_but_distinct_tables_give_the_same_paths(self):
        shared = complete_collection(300, 4)
        copies = GraphCollection(300, [list(t) for t in shared.masks])
        assert len(set(map(id, shared.masks))) == 1
        assert len(set(map(id, copies.masks))) == 4
        assert _builder_digest(shared, 5, 3, 20, 8, 3) == _builder_digest(copies, 5, 3, 20, 8, 3)

    @pytest.mark.parametrize("family", ["complete", "mixed", "random"])
    def test_colours_share_a_table_exactly_when_they_share_row_tables(self, family):
        # "mixed": colours 1 and 3 share one row table, 2 and 4 are equal
        # copies of it with a table each
        rows = complete_collection(40, 1).masks[0]
        coll = {
            "complete": lambda: complete_collection(40, 4),
            "mixed": lambda: GraphCollection(40, [rows, list(rows), rows, list(rows)]),
            "random": lambda: random_min_degree_collection(40, 4, 0.7, random.Random(5)),
        }[family]()
        parts = [list(range(10 * i, 10 * i + 10)) for i in range(4)]
        rows_into = _part_tables(coll, parts, 2)
        distinct_rows = len(set(map(id, coll.masks)))
        for j in range(1, 4):
            for c in (2, 3, 4):
                assert (rows_into(1, j) is rows_into(c, j)) == (coll.masks[0] is coll.masks[c - 1])
            assert len({id(rows_into(c, j)) for c in range(1, 5)}) == distinct_rows
        if family == "random":
            assert distinct_rows == 4  # one table per colour


def _builder_digest(coll, r, k, n1, s, seed):
    """Digest of the paths and the rng state after one builder call on r
    random parts of n1 vertices drawn from the whole collection."""
    rng = random.Random(seed)
    pool = rng.sample(range(coll.n), r * n1)
    parts = [sorted(pool[j * n1:(j + 1) * n1]) for j in range(r)]
    patterns = [random_pattern(power_path(r, k), coll.m, rng) for _ in range(s)]
    paths = build_path_collection(coll, parts, patterns, rng)
    blob = repr(([p.vertices for p in paths], rng.getstate()))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestBuilderDigest:
    """Whole builder calls pinned by digest, paths and final rng state: a
    change to any draw or to which vertex a draw picks shows here."""

    def test_parts_of_60_in_copies_of_k1200(self):
        coll = complete_collection(1200, 4)
        assert _builder_digest(coll, 7, 3, 60, 40, 14) == (
            "388ccf77bffbb44955ff1e6dfb0f06f86bdd5bcba74f2fc2c869b2628f1850c1"
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
            "0f60a4de1271225aaf4e367c5b8b5ec865f02a46ac741178e719349acec42567"
        )
        # both pick branches of the sampler ran: a level's first root picks
        # from its whole row, and some levels have a row below half the
        # side, some do not
        assert any(sparse) and not all(sparse)

    def test_sixty_parts_of_16_near_the_threshold(self):
        # 60 parts of 16 at k = 3 and delta = 1 - 1/2k + 0.02: the shape that
        # paper-shaped plans give the builder
        coll = random_min_degree_collection(960, 4, 0.853, random.Random(1))
        assert _builder_digest(coll, 60, 3, 16, 10, 1) == (
            "b623db887b9f3eaad8664afa80d84086c6e102d78d040dd3abd43f3e877879c5"
        )

    def test_failure_names_the_same_step_and_level(self):
        coll = random_min_degree_collection(150, 4, 0.6, random.Random(1))
        with pytest.raises(NoMatchingError) as err:
            _builder_digest(coll, 5, 2, 24, 12, 2)
        assert (err.value.step, err.value.level) == (12, 2)
