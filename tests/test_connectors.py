import random
from dataclasses import replace

import pytest

from helpers import reference_embed_connector, reference_gadget_blueprint
from hampower.absorber import build_gadget_blueprint, embed_by_degeneracy
from hampower.bitset import mask_of
from hampower.connectors import _connector_order, embed_connector, extend_by_one
from hampower.core import (
    GraphCollection,
    PowerPath,
    canonical_edge,
    connector,
    host_edges,
    power_path,
    verify_coloured_embedding,
)
from hampower.errors import ConnectionFailedError, InvalidInstanceError
from hampower.instances import complete_collection, random_min_degree_collection, random_pattern


def high_z_degree_collection(rng, n, z_size, m, floor):
    """Every vertex of every graph gets at least ``floor`` neighbours in Z = 0..z_size-1."""
    z_mask = (1 << z_size) - 1
    tables = []
    for _ in range(m):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.9:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for v in range(n):
            have = (rows[v] & z_mask).bit_count()
            if have < floor:
                missing = [u for u in range(z_size) if u != v and not (rows[v] >> u) & 1]
                for u in rng.sample(missing, floor - have):
                    rows[v] |= 1 << u
                    rows[u] |= 1 << v
        tables.append(rows)
    return GraphCollection(n, tables)


class TestEmbedConnector:
    def test_complete_collection_succeeds_and_verifies(self):
        rng = random.Random(40)
        coll = complete_collection(20, 4)
        for a, b, k in ((2, 2, 2), (1, 2, 2), (3, 1, 3), (1, 1, 2)):
            pattern = random_pattern(connector(a, b, k), 4, rng)
            w = PowerPath(k, tuple(range(a)))
            y = PowerPath(k, tuple(range(a, a + b)))
            reservoir = frozenset(range(10, 20))
            internals = embed_connector(coll, w.vertices, y.vertices, pattern, mask_of(reservoir), rng)
            assert len(internals) == k
            assert set(internals) <= reservoir
            sequence = list(w.vertices) + list(internals) + list(y.vertices)
            assert verify_coloured_embedding(coll, pattern, sequence).ok

    def test_pigeonhole_failure_when_reservoir_too_small(self):
        rng = random.Random(41)
        k = 2
        coll = complete_collection(10, 2)
        pattern = random_pattern(connector(2, 2, k), 2, rng)
        pool = mask_of({8})  # k - 1 vertices available
        with pytest.raises(ConnectionFailedError) as err:
            embed_connector(coll, (0, 1), (2, 3), pattern, pool, rng)
        assert err.value.position == 3  # the second internal position

    def test_avoid_set_respected(self):
        rng = random.Random(42)
        k = 2
        coll = complete_collection(12, 2)
        pattern = random_pattern(connector(2, 2, k), 2, rng)
        reservoir = frozenset(range(6, 12))
        avoid = frozenset(range(6, 10))
        pool = mask_of(reservoir) & ~mask_of(avoid)
        internals = embed_connector(coll, (0, 1), (2, 3), pattern, pool, rng)
        assert set(internals) == {10, 11}

    def test_end_vertices_never_candidates(self):
        rng = random.Random(45)
        k = 2
        coll = complete_collection(8, 2)
        pattern = random_pattern(connector(2, 2, k), 2, rng)
        for _ in range(20):
            internals = embed_connector(coll, (0, 1), (2, 3), pattern, mask_of(range(6)), rng)
            assert set(internals) == {4, 5}

    def test_random_collections_meeting_degree_hypotheses(self):
        # alpha = 0.2, k = 2, |Z| = 60, |U cap Z| < alpha |Z|
        k, z_size, n, m = 2, 60, 80, 4
        floor = 51  # ceil((1 - 1/2k + alpha/2) |Z|)
        successes = 0
        for seed in range(100):
            rng = random.Random(1_000 + seed)
            coll = high_z_degree_collection(rng, n, z_size, m, floor)
            pattern = random_pattern(connector(2, 2, k), m, rng)
            w = PowerPath(k, (60, 61))
            y = PowerPath(k, (62, 63))
            reservoir = frozenset(range(z_size))
            avoid = frozenset(rng.sample(range(z_size), 11))
            pool = mask_of(reservoir) & ~mask_of(avoid)
            internals = embed_connector(coll, w.vertices, y.vertices, pattern, pool, rng)
            sequence = list(w.vertices) + list(internals) + list(y.vertices)
            assert verify_coloured_embedding(coll, pattern, sequence).ok
            assert set(internals) <= reservoir - avoid
            successes += 1
        assert successes == 100

    def test_mismatched_host_rejected(self):
        rng = random.Random(43)
        coll = complete_collection(8, 2)
        pattern = random_pattern(connector(2, 2, 2), 2, rng)
        with pytest.raises(InvalidInstanceError):
            embed_connector(coll, (0,), (2, 3), pattern, mask_of(range(4, 8)), rng)
        path_pattern = random_pattern(power_path(6, 2), 2, rng)
        with pytest.raises(InvalidInstanceError):
            embed_connector(coll, (0, 1), (2, 3), path_pattern, mask_of(range(4, 8)), rng)


class TestExtendByOne:
    def test_complete_collection_deterministic_under_seed(self):
        coll = complete_collection(10, 3)
        path = PowerPath(2, (0, 1, 2))
        reservoir = frozenset(range(5, 10))
        a = extend_by_one(coll, path, [1, 2], mask_of(reservoir), random.Random(7))
        b = extend_by_one(coll, path, [1, 2], mask_of(reservoir), random.Random(7))
        assert a == b and a in reservoir

    def test_everything_avoided_fails(self):
        coll = complete_collection(8, 1)
        path = PowerPath(2, (0, 1))
        pool = mask_of({5, 6}) & ~mask_of({5, 6})
        with pytest.raises(ConnectionFailedError):
            extend_by_one(coll, path, [1, 1], pool, random.Random(8))
        # path vertices are never candidates, even inside the pool
        with pytest.raises(ConnectionFailedError):
            extend_by_one(coll, path, [1, 1], mask_of({0, 1}), random.Random(8))

    def test_unique_candidate_instance(self):
        # colours (1, 2) on the two new edges; only vertex 5 satisfies both
        n = 6
        g1 = [(0, v) for v in (3, 4, 5)]           # last-but-one vertex 0 in colour 1
        g2 = [(1, 5)]                              # last vertex 1 in colour 2
        coll = GraphCollection.from_edge_lists(n, [g1, g2])
        path = PowerPath(2, (0, 1))
        reservoir = frozenset({2, 3, 4, 5})
        chosen = extend_by_one(coll, path, [1, 2], mask_of(reservoir), random.Random(9))
        # cross-check by direct enumeration of the definition
        feasible = [
            z for z in reservoir
            if coll.has_edge(1, 0, z) and coll.has_edge(2, 1, z)
        ]
        assert feasible == [5]
        assert chosen == 5

    def test_colour_order_is_farthest_first(self):
        # edge to the farthest of the last k vertices takes colours[0]
        n = 5
        g1 = [(0, 4)]
        g2 = [(1, 4)]
        coll = GraphCollection.from_edge_lists(n, [g1, g2])
        path = PowerPath(2, (0, 1))
        chosen = extend_by_one(coll, path, [1, 2], mask_of({2, 3, 4}), random.Random(10))
        assert chosen == 4
        with pytest.raises(ConnectionFailedError):
            extend_by_one(coll, path, [2, 1], mask_of({2, 3, 4}), random.Random(10))


class TestRequestValidation:
    def test_overlapping_ends_rejected(self):
        rng = random.Random(44)
        coll = complete_collection(8, 2)
        pattern = random_pattern(connector(2, 2, 2), 2, rng)
        with pytest.raises(InvalidInstanceError):
            embed_connector(coll, (0, 1), (1, 2), pattern, mask_of(range(4, 8)), rng)

    def test_repeated_end_vertex_rejected(self):
        rng = random.Random(46)
        coll = complete_collection(8, 2)
        pattern = random_pattern(connector(2, 2, 2), 2, rng)
        with pytest.raises(InvalidInstanceError):
            embed_connector(coll, (0, 0), (2, 3), pattern, mask_of(range(4, 8)), rng)


def _outcome(embed, *args):
    try:
        return "placed", embed(*args)
    except ConnectionFailedError as exc:
        return "failed", exc.position


class TestMatchesReference:
    def test_every_connector_shape_draws_as_the_reference(self):
        # per shape and pool size, five random end pairs: pools of every
        # free vertex succeed, pools of k to k+2 vertices often fail
        rng = random.Random(47)
        n, m = 24, 3
        coll = random_min_degree_collection(n, m, 0.7, rng)
        outcomes = set()
        for k in (2, 3, 4):
            for a in range(1, k + 1):
                for b in range(1, k + 1):
                    pattern = random_pattern(connector(a, b, k), m, rng)
                    for size in (n, k + 2, k + 1, k):
                        for _ in range(5):
                            ends = rng.sample(range(n), a + b)
                            pool = mask_of(rng.sample(range(n), size))
                            seed = rng.getrandbits(32)
                            got, want = random.Random(seed), random.Random(seed)
                            args = (coll, ends[:a], ends[a:], pattern, pool)
                            out = _outcome(embed_connector, *args, got)
                            assert out == _outcome(reference_embed_connector, *args, want)
                            assert got.getstate() == want.getstate()
                            outcomes.add(out[0])
        assert outcomes == {"placed", "failed"}


# with m = 2, colour 0 would read graph 2 and colour -1 graph 1 (as
# masks[-1] and masks[-2]); colour 3 names no graph; the rest are not ints,
# and True would read graph 1
BAD_COLOURS = [0, -1, 3, "a", None, 1.5, True]


class TestColoursOutsideRange:
    @pytest.mark.parametrize("colour", BAD_COLOURS)
    def test_embed_connector(self, colour):
        coll = complete_collection(12, 2)
        pattern = random_pattern(connector(2, 2, 2), 2, random.Random(48))
        # forged in the pattern's colour tuple, which ColourPattern checks when made
        object.__setattr__(pattern, "_colours", (colour, *pattern._colours[1:]))
        assert pattern.colour_of(0, 2) == colour
        rng = random.Random(49)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError):
            embed_connector(coll, (0, 1), (2, 3), pattern, mask_of(range(4, 12)), rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("colour", BAD_COLOURS)
    def test_embed_by_degeneracy(self, colour):
        coll = complete_collection(40, 2)
        bp = build_gadget_blueprint(2, 2, random_pattern(power_path(10, 2), 2, random.Random(50)))
        # forged in the blueprint's colour tuple, which ColourPattern checks when made
        bp = replace(bp, colours=(colour, *bp.colours[1:]))
        rng = random.Random(51)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError):
            embed_by_degeneracy(coll, bp, (0, 1), mask_of(range(40)), rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("colour", BAD_COLOURS)
    def test_extend_by_one(self, colour):
        coll = complete_collection(10, 2)
        rng = random.Random(52)
        state = rng.getstate()
        with pytest.raises(InvalidInstanceError):
            extend_by_one(coll, PowerPath(2, (0, 1)), [colour, 2], mask_of(range(2, 10)), rng)
        assert rng.getstate() == state


class TestOrderSlots:
    def test_every_back_entry_reads_its_edge_colour(self):
        # each step of a placement order names the slot of its edge's colour
        # in the tuple the walk reads: the connector pattern's or the gadget's
        rng = random.Random(70)
        for k in range(1, 5):
            for a in range(1, k + 1):
                for b in range(1, k + 1):
                    pattern = random_pattern(connector(a, b, k), 9, rng)
                    colours = pattern.colours.values()
                    steps = [(u, v, slot) for v, back in _connector_order(a, b, k) for u, slot in back]
                    assert sorted(canonical_edge(u, v) for u, v, _ in steps) == host_edges(pattern.host)
                    for u, v, slot in steps:
                        assert colours[slot] == pattern.colour_of(u, v), (a, b, k, u, v)
        for k in (2, 3):
            for ell in range(2, 9):
                pattern = random_pattern(power_path((2 * k + 1) * ell, k), 9, rng)
                bp = build_gadget_blueprint(k, ell, pattern)
                ref = reference_gadget_blueprint(k, ell, pattern).edges
                assert sum(len(back) for _, back in bp.back_neighbours) == len(ref)
                for v, back in bp.back_neighbours:
                    for u, slot in back:
                        assert bp.colours[slot] == ref[canonical_edge(u, v)], (k, ell, u, v)
