import random

import pytest
from hypothesis import given, settings, strategies as st

from hampower.core import (
    ColourPattern,
    GraphCollection,
    PowerCycle,
    canonical_edge,
    collection_from_dict,
    collection_to_dict,
    connector,
    cycle_from_dict,
    cycle_to_dict,
    host_edges,
    min_bipartite_degree,
    min_degree,
    pattern_from_dict,
    pattern_to_dict,
    power_cycle,
    power_path,
    restrict_pattern,
    verify_coloured_embedding,
)
from hampower.errors import (
    InvalidHostError,
    InvalidInstanceError,
    InvalidPatternError,
    VerificationInputError,
)
from hampower.instances import complete_collection, lowerbound_construction, random_pattern


class TestHostEdges:
    def test_connector_2_2_2_exact_edges(self):
        # derived independently: P_6^2 edges minus the blocks {0,1} and {4,5}
        p62 = set(host_edges(power_path(6, 2)))
        expected = sorted(p62 - {(0, 1), (4, 5)})
        assert host_edges(connector(2, 2, 2)) == expected
        assert expected == [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5)]

    def test_connector_3_1_3_has_12_edges(self):
        # P_7^3 has 15 edges; the three inside the leading block of 3 go
        assert len(host_edges(power_path(7, 3))) == 15
        assert len(host_edges(connector(3, 1, 3))) == 12

    def test_power_cycle_9_2_has_kn_edges(self):
        assert len(host_edges(power_cycle(9, 2))) == 18

    def test_single_vertex_path_has_no_edges(self):
        for k in (1, 2, 5):
            assert host_edges(power_path(1, k)) == []

    def test_sorted_and_duplicate_free(self):
        for host in (power_cycle(7, 3), power_path(9, 2), connector(2, 1, 2)):
            edges = host_edges(host)
            assert edges == sorted(set(edges))

    def test_invalid_hosts_rejected(self):
        with pytest.raises(InvalidHostError):
            power_cycle(4, 2)  # needs n >= 2k+1
        with pytest.raises(InvalidHostError):
            connector(3, 1, 2)  # a > k
        with pytest.raises(InvalidHostError):
            connector(0, 1, 2)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=43))
    @settings(max_examples=60, deadline=None)
    def test_cycle_edge_count_formula(self, k, extra):
        n = 2 * k + 1 + extra
        assert len(host_edges(power_cycle(n, k))) == k * n

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_path_edge_count_formula(self, k, extra):
        r = k + 1 + extra
        assert len(host_edges(power_path(r, k))) == k * r - k * (k + 1) // 2


class TestCollectionValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstanceError):
            GraphCollection(3, [[[0], [], []]])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InvalidInstanceError):
            GraphCollection(3, [[[1], [], []]])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            GraphCollection.from_edge_lists(3, [[(0, 5)]])

    def test_rejects_duplicate_neighbour(self):
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            GraphCollection(3, [[[1, 1], [0], []]])

    def test_masks_hold_the_adjacency(self):
        coll = GraphCollection(3, [[[1, 2], [0], [0]]])
        assert coll.masks == ((0b110, 0b001, 0b001),)
        assert [coll.degree(1, v) for v in range(3)] == [2, 1, 1]
        assert coll.edge_lists() == [((0, 1), (0, 2))]

    def test_shared_adjacency_deduplicated(self):
        coll = complete_collection(20, 50)
        assert coll.masks[0] is coll.masks[49]
        edge_lists = coll.edge_lists()
        assert edge_lists[0] is edge_lists[49] and len(edge_lists[0]) == 190

    def test_rejects_self_loop_edge(self):
        with pytest.raises(InvalidInstanceError, match="self-loop"):
            GraphCollection.from_edge_lists(3, [[(0, 1), (2, 2)]])

    def test_rejects_negative_endpoint(self):
        with pytest.raises(InvalidInstanceError, match="out of range"):
            GraphCollection.from_edge_lists(3, [[(-1, 1)]])

    def test_edge_lists_build_masks(self):
        coll = GraphCollection.from_edge_lists(4, [[(0, 1), (2, 1), (1, 0)], [(3, 0)]])
        assert coll.masks == ((0b0010, 0b0101, 0b0010, 0), (0b1000, 0, 0, 0b0001))
        assert coll == GraphCollection(4, [[[1], [0, 2], [1], []], [[3], [], [], [0]]])

    def test_loaded_copies_share_one_table(self):
        original = complete_collection(12, 4)
        loaded = collection_from_dict(collection_to_dict(original))
        assert loaded == original
        assert len({id(table) for table in loaded.masks}) == 1
        distinct = GraphCollection.from_edge_lists(3, [[(0, 1)], [(1, 2)], [(0, 1)]])
        assert distinct.masks[0] is distinct.masks[2] and distinct.masks[0] != distinct.masks[1]


class TestPatternValidation:
    def test_domain_must_match_exactly(self):
        host = power_path(4, 2)
        edges = host_edges(host)
        with pytest.raises(InvalidPatternError):
            ColourPattern(host, {e: 1 for e in edges[:-1]})
        too_many = {e: 1 for e in edges}
        too_many[(0, 3)] = 1
        with pytest.raises(InvalidPatternError):
            ColourPattern(host, too_many)

    def test_colours_are_one_based(self):
        host = power_path(3, 1)
        with pytest.raises(InvalidPatternError):
            ColourPattern(host, {(0, 1): 0, (1, 2): 1})


class TestVerify:
    def test_complete_collection_accepts_everything(self):
        rng = random.Random(0)
        coll = complete_collection(9, 5)
        for _ in range(10):
            pattern = random_pattern(power_cycle(9, 2), 5, rng)
            vertices = rng.sample(range(9), 9)
            assert verify_coloured_embedding(coll, pattern, vertices).ok

    def test_single_edge_violation_reported(self):
        coll = GraphCollection.from_edge_lists(3, [[(1, 2)]])
        pattern = ColourPattern(power_path(2, 1), {(0, 1): 1})
        result = verify_coloured_embedding(coll, pattern, [0, 1])
        assert not result.ok
        assert result.violation == (0, 1)

    def test_length_mismatch_raises(self):
        coll = complete_collection(5, 1)
        pattern = random_pattern(power_path(4, 2), 1, random.Random(1))
        with pytest.raises(VerificationInputError):
            verify_coloured_embedding(coll, pattern, [0, 1, 2])

    def test_repeated_vertices_raise(self):
        coll = complete_collection(5, 1)
        pattern = random_pattern(power_path(3, 1), 1, random.Random(1))
        with pytest.raises(VerificationInputError):
            verify_coloured_embedding(coll, pattern, [0, 1, 1])

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_relabelling_invariance(self, hrng):
        n, m, k = 8, 3, 2
        rng = random.Random(hrng.getrandbits(32))
        edge_lists = [
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
            for _ in range(m)
        ]
        coll = GraphCollection.from_edge_lists(n, edge_lists)
        pattern = random_pattern(power_cycle(n, k), m, rng)
        vertices = rng.sample(range(n), n)
        perm = rng.sample(range(n), n)
        relabelled = GraphCollection.from_edge_lists(
            n, [[(perm[u], perm[v]) for (u, v) in edges] for edges in edge_lists]
        )
        before = verify_coloured_embedding(coll, pattern, vertices)
        after = verify_coloured_embedding(relabelled, pattern, [perm[v] for v in vertices])
        assert before.ok == after.ok

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_cycle_rotation_invariance(self, hrng):
        n, m, k = 9, 3, 2
        rng = random.Random(hrng.getrandbits(32))
        edge_lists = [
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
            for _ in range(m)
        ]
        coll = GraphCollection.from_edge_lists(n, edge_lists)
        host = power_cycle(n, k)
        pattern = random_pattern(host, m, rng)
        vertices = rng.sample(range(n), n)
        offset = rng.randrange(n)
        rotated_pattern = ColourPattern(
            host,
            {
                canonical_edge((i + offset) % n, (j + offset) % n): c
                for (i, j), c in pattern.colours.items()
            },
        )
        rotated_vertices = [vertices[(i - offset) % n] for i in range(n)]
        before = verify_coloured_embedding(coll, pattern, vertices)
        after = verify_coloured_embedding(coll, rotated_pattern, rotated_vertices)
        assert before.ok == after.ok


class TestDegrees:
    def test_complete_min_degree(self):
        assert min_degree(complete_collection(11, 4)) == 10

    def test_empty_graph_min_degree_zero(self):
        coll = GraphCollection.from_edge_lists(4, [[(0, 1)], []])
        assert min_degree(coll) == 0

    def test_lowerbound_2_3_min_degree(self):
        coll, _ = lowerbound_construction(2, 3)
        assert min_degree(coll) == 6  # 2p with p = 3

    def test_bipartite_degree_complete(self):
        coll = complete_collection(10, 2)
        assert min_bipartite_degree(coll, range(4), range(4, 10)) == 4

    def test_bipartite_degree_empty_side_raises(self):
        coll = complete_collection(4, 1)
        with pytest.raises(InvalidInstanceError):
            min_bipartite_degree(coll, [], [1, 2])
        with pytest.raises(InvalidInstanceError):
            min_bipartite_degree(coll, [0, 1], [1, 2])


class TestRestrictPattern:
    def test_window_of_cycle_is_identity_on_kept_edges(self):
        rng = random.Random(3)
        pattern = random_pattern(power_cycle(12, 2), 6, rng)
        sub = restrict_pattern(pattern, 3, power_path(5, 2))
        for (i, j), c in sub.colours.items():
            assert c == pattern.colour_of(3 + i, 3 + j)

    def test_wrapping_window(self):
        rng = random.Random(4)
        pattern = random_pattern(power_cycle(10, 2), 4, rng)
        sub = restrict_pattern(pattern, 8, power_path(5, 2))
        assert sub.colour_of(0, 2) == pattern.colour_of(8, 0)
        assert sub.colour_of(1, 3) == pattern.colour_of(9, 1)

    def test_window_of_size_k_plus_one_is_clique(self):
        rng = random.Random(5)
        pattern = random_pattern(power_cycle(11, 3), 4, rng)
        sub = restrict_pattern(pattern, 2, power_path(4, 3))
        assert len(sub.colours) == 6  # K_4 as a 3-power path

    def test_connector_window(self):
        rng = random.Random(6)
        pattern = random_pattern(power_cycle(11, 2), 4, rng)
        sub = restrict_pattern(pattern, 4, connector(2, 2, 2))
        assert (0, 1) not in sub.colours  # end-block edges dropped
        assert sub.colour_of(1, 2) == pattern.colour_of(5, 6)

    def test_out_of_range_window_rejected(self):
        rng = random.Random(7)
        pattern = random_pattern(power_path(8, 2), 4, rng)
        with pytest.raises(InvalidPatternError):
            restrict_pattern(pattern, 5, power_path(5, 2))


class TestSerialization:
    def test_collection_round_trip(self):
        rng = random.Random(8)
        edge_lists = [
            [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.5]
            for _ in range(3)
        ]
        coll = GraphCollection.from_edge_lists(7, edge_lists)
        assert collection_from_dict(collection_to_dict(coll)) == coll

    def test_pattern_round_trip(self):
        rng = random.Random(9)
        for host in (power_cycle(9, 2), power_path(6, 3), connector(2, 1, 2)):
            pattern = random_pattern(host, 5, rng)
            again = pattern_from_dict(pattern_to_dict(pattern))
            assert again.host == pattern.host
            assert dict(again.colours) == dict(pattern.colours)

    def test_cycle_round_trip(self):
        cycle = PowerCycle(2, tuple(range(7)))
        assert cycle_from_dict(cycle_to_dict(cycle)) == cycle

    def test_double_coloured_edge_rejected(self):
        rng = random.Random(10)
        payload = pattern_to_dict(random_pattern(power_path(4, 1), 2, rng))
        payload["colours"].append([0, 1, 2])
        with pytest.raises(InvalidPatternError):
            pattern_from_dict(payload)


class TestVerifyEdgeCases:
    def test_out_of_range_vertex_raises(self):
        import pytest as _pytest

        coll = complete_collection(4, 1)
        pattern = random_pattern(power_path(3, 1), 1, random.Random(11))
        with _pytest.raises(VerificationInputError):
            verify_coloured_embedding(coll, pattern, [0, 1, 9])

    def test_colour_beyond_m_reported_not_raised(self):
        coll = complete_collection(4, 1)
        pattern = ColourPattern(power_path(2, 1), {(0, 1): 3})
        result = verify_coloured_embedding(coll, pattern, [0, 1])
        assert not result.ok and result.violation == (0, 1)
