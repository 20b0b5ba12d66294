import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import min_pair_degree, reference_checked_table
from hampower import core
from hampower.core import (
    MAX_FILE_ORDER,
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
    min_degree,
    pattern_from_dict,
    pattern_to_dict,
    power_cycle,
    power_path,
    restrict_pattern,
    verify_coloured_embedding,
    _host_edge_count,
)
from hampower.errors import (
    HamPowerError,
    InvalidHostError,
    InvalidInstanceError,
    InvalidPatternError,
    VerificationInputError,
)
from hampower.instances import (
    complete_collection,
    lowerbound_construction,
    random_min_degree_collection,
    random_pattern,
)


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

    def test_returned_list_is_the_callers_own(self):
        for host in (power_cycle(9, 2), power_path(5, 2), connector(2, 2, 2)):
            first = host_edges(host)
            kept = list(first)
            first.append((0, 0))
            first.reverse()
            second = host_edges(host)
            assert second == kept and second is not first
            second.clear()
            assert host_edges(host) == kept

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

    def test_edge_count_without_listing(self):
        hosts = [power_cycle(n, k) for k in (1, 2, 3) for n in range(2 * k + 1, 12)]
        hosts += [power_path(n, k) for k in (1, 2, 3, 5) for n in range(1, 12)]
        hosts += [connector(a, b, k) for k in (1, 2, 3) for a in range(1, k + 1)
                  for b in range(1, k + 1)]
        for host in hosts:
            assert _host_edge_count(host) == len(host_edges(host)), host


class TestCollectionValidation:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ((0b010, 0b001), "2 mask rows, expected 3"),
            ((0b010, 0b001, -1), "out of range at vertex 2"),
            ((0b1010, 0b001, 0), "out of range at vertex 0"),
            ((0b011, 0b001, 0), "self-loop at vertex 0"),
            ((0b010, 0b000, 0), r"asymmetric adjacency on edge \(1,0\)"),
            ((0b010, 0b001, 0.0), "row 2 is not an int mask"),
            ((0b010, True, 0), "row 1 is not an int mask"),
        ],
        ids=["row-count", "negative", "bit-beyond-n", "self-loop", "asymmetric", "float", "bool"],
    )
    def test_rejects_bad_mask_rows(self, rows, message):
        with pytest.raises(InvalidInstanceError, match=message):
            GraphCollection(3, [rows])

    def test_rejects_self_loop(self):
        # a wide table: the looped bit lies past the first 64 bits of its row
        complete = complete_collection(70, 1).masks[0]
        rows = list(complete)
        rows[66] |= 1 << 66
        with pytest.raises(InvalidInstanceError, match="graph 2: self-loop at vertex 66"):
            GraphCollection(70, [complete, rows])

    def test_rejects_asymmetric_adjacency(self):
        # edge 68-3 listed only at vertex 68, far into a wide table
        rows = [0] * 70
        rows[68] = 1 << 3
        with pytest.raises(InvalidInstanceError, match=r"asymmetric adjacency on edge \(68,3\)"):
            GraphCollection(70, [rows])

    def test_matches_the_flat_string_reference(self):
        # every n up to 70 (each residue mod 8, rows past one machine word),
        # a random density, then 0-5 flipped bits, about one in five on the
        # diagonal: the same rows and minimum degree, or the same error
        rng = random.Random(2022)
        seen = Counter()
        for n in range(1, 71):
            for _ in range(30):
                # each bit above the diagonal is 1 with probability ones/256,
                # and the rows are completed by transposing those bits
                ones = rng.randrange(257)
                to_bits = b"1" * ones + b"0" * (256 - ones)
                upper = [
                    int(rng.randbytes(n).translate(to_bits), 2) >> v + 1 << v + 1 for v in range(n)
                ]
                columns = zip(*(format(row, f"0{n}b")[::-1] for row in upper))
                rows = [row | int("".join(column)[::-1], 2) for row, column in zip(upper, columns)]
                for _ in range(rng.randint(0, 5)):
                    u = rng.randrange(n)
                    rows[u] ^= 1 << (u if rng.random() < 0.2 else rng.randrange(n))
                outcomes = []
                for check in (core._checked_table, reference_checked_table):
                    try:
                        outcomes.append(check(n, 3, rows))
                    except Exception as e:
                        outcomes.append((type(e), str(e)))
                assert outcomes[0] == outcomes[1], (n, rows)
                first, second = outcomes[1]
                seen["ok" if type(first) is tuple else second.split()[2]] += 1
        assert min(seen[kind] for kind in ("ok", "self-loop", "asymmetric")) >= 300, seen

    def test_check_memory_is_the_rows_own_size(self):
        n = 4000
        full = (1 << n) - 1
        rows = [full ^ 1 << v for v in range(n)]
        # built before tracing starts, so the peak is the check's own: its
        # packed copy of the rows, n*ceil(n/8) bytes, and one stripe's strings
        tracemalloc.start()
        try:
            GraphCollection(n, [rows])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * ((n + 7) // 8) + 2**20

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            GraphCollection.from_edge_lists(3, [[(0, 5)]])

    def test_masks_hold_the_adjacency(self):
        coll = GraphCollection(3, [[0b110, 0b001, 0b001]])
        assert coll.masks == ((0b110, 0b001, 0b001),)
        assert [coll.degree(1, v) for v in range(3)] == [2, 1, 1]
        assert coll.edge_lists() == [((0, 1), (0, 2))]

    def test_table_passed_twice_is_shared(self):
        rows = [0b110, 0b001, 0b001]
        coll = GraphCollection(3, [rows, [0b010, 0b001, 0], rows])
        assert coll.masks[0] is coll.masks[2] and coll.masks[0] != coll.masks[1]

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
        assert coll == GraphCollection(4, [[0b0010, 0b0101, 0b0010, 0], [0b1000, 0, 0, 0b0001]])

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

    @pytest.mark.parametrize("host", [power_path(6, 2), power_cycle(9, 2), connector(2, 1, 2)])
    def test_domain_checked_against_a_cached_host(self, host):
        edges = host_edges(host)
        ColourPattern(host, dict.fromkeys(edges, 1))  # the host's edges are cached now
        outside = (0, host.order - 1) if host.kind != "power_cycle" else (0, 4)
        assert outside not in edges
        for colours in (
            dict.fromkeys(edges[1:], 1),                 # one edge missing
            dict.fromkeys(edges + [outside], 1),         # one edge extra
            dict.fromkeys(edges[1:] + [outside], 1),     # as many edges, one swapped
        ):
            with pytest.raises(InvalidPatternError, match="domain mismatch"):
                ColourPattern(host, colours)


def first_ints_fault(members, low, high, distinct, count):
    """The end of the message :func:`core.check_ints` must raise on
    ``members``, or None if it must accept them, by a naive scan."""
    for v in members:
        if type(v) is not int:
            return f"must be an integer, got {v!r}"
        if low is not None and v < low or high is not None and v > high:
            return f", got {v}"
    if count is not None and len(members) != count:
        return f"count must be {count}, got {len(members)}"
    if distinct and len(set(members)) != len(members):
        return f" {next(v for i, v in enumerate(members) if v in members[:i])} is repeated"
    return None


class TestCheckInts:
    @given(
        members=st.lists(st.integers(-3, 12) | st.booleans() | st.floats() | st.none(), max_size=8),
        kind=st.sampled_from([list, tuple, set, iter]),
        low=st.none() | st.integers(-2, 4),
        high=st.none() | st.integers(4, 10),
        distinct=st.booleans(),
        count=st.none() | st.integers(0, 6),
        error=st.sampled_from([InvalidInstanceError, VerificationInputError, InvalidPatternError]),
    )
    @settings(max_examples=600, deadline=None)
    def test_accepts_exactly_what_a_naive_scan_accepts(self, members, kind, low, high, distinct,
                                                       count, error):
        values = kind(members)
        if kind is set:
            members = list(values)  # what is checked first is what the set yields first
        fault = first_ints_fault(members, low, high, distinct, count)
        if fault is None:
            result = core.check_ints(values, "thing", low, high, error, distinct=distinct, count=count)
            assert list(result) == members
            assert result is values if kind in (list, tuple) else type(result) is tuple
        else:
            with pytest.raises(error) as info:
                core.check_ints(values, "thing", low, high, error, distinct=distinct, count=count)
            assert type(info.value) is error
            assert str(info.value).startswith("thing ") and str(info.value).endswith(fault)

    @pytest.mark.parametrize("values", [None, 5, 2.5])
    def test_a_value_that_is_not_iterable_is_rejected(self, values):
        with pytest.raises(VerificationInputError, match=rf"^thing values must be iterable, got {values}$"):
            core.check_ints(values, "thing", error=VerificationInputError)


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

    def test_result_is_false_exactly_when_it_fails(self):
        coll = GraphCollection.from_edge_lists(3, [[(1, 2)]])
        pattern = ColourPattern(power_path(2, 1), {(0, 1): 1})
        assert not verify_coloured_embedding(coll, pattern, [0, 1])
        assert verify_coloured_embedding(coll, pattern, [1, 2])

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
        for colour in (1, 2):
            assert min_pair_degree(coll, colour, range(4), range(4, 10)) == 4

    def test_min_degrees_match_vertex_counts(self):
        rng = random.Random(5)
        coll = random_min_degree_collection(40, 5, 0.7, rng)
        for colour in range(1, coll.m + 1):
            assert coll.min_degrees[colour - 1] == min(
                sum(coll.has_edge(colour, v, u) for u in range(40)) for v in range(40)
            )
        assert min_degree(coll) == min(coll.min_degrees)

    def test_shared_table_gives_one_computation(self, monkeypatch):
        calls = []
        checked_table = core._checked_table

        def counted(*args):
            calls.append(args[1])
            return checked_table(*args)

        monkeypatch.setattr(core, "_checked_table", counted)
        star = (0b11110,) + (0b00001,) * 4  # K_{1,4} centred at 0
        path = (0b00010, 0b00101, 0b01010, 0b10100, 0b01000)
        coll = GraphCollection(5, [star, path, star, star])
        assert calls == [1, 2]
        assert coll.min_degrees == (1, 1, 1, 1)
        assert coll.min_degrees == tuple(
            min(coll.degree(c, v) for v in range(5)) for c in range(1, 5)
        )


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

    @pytest.mark.parametrize(
        "source, start, target",
        [
            (power_cycle(12, 2), 3, power_path(5, 2)),
            (power_cycle(12, 2), 9, power_path(6, 2)),      # wraps
            (power_cycle(12, 2), -2, connector(2, 1, 2)),   # wraps from a negative start
            (power_cycle(11, 3), 5, connector(3, 3, 3)),
            (power_cycle(11, 3), 0, power_path(11, 3)),     # the whole cycle
            (power_path(10, 3), 2, connector(1, 3, 3)),
            (power_path(10, 3), 0, power_path(10, 3)),
        ],
    )
    def test_matches_a_build_from_listed_edges(self, source, start, target):
        pattern = random_pattern(source, 5, random.Random(start))
        n, k, a, b = target.order, target.k, target.a, target.b
        listed = [
            (i, j) for i in range(n) for j in range(i + 1, min(i + k + 1, n))
            if not (j < a or i >= n - b)  # a connector drops its end blocks
        ]
        colours = {
            (i, j): pattern.colour_of((start + i) % source.order, (start + j) % source.order)
            for (i, j) in listed
        }
        assert restrict_pattern(pattern, start, target) == ColourPattern(target, colours)

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

    @pytest.mark.parametrize("n", [MAX_FILE_ORDER + 1, 10**9])
    def test_instance_above_the_size_limit_rejected(self, n):
        with pytest.raises(InvalidInstanceError, match="exceeds the limit"):
            collection_from_dict({"n": n, "m": 1, "graphs": [[]]})

    @pytest.mark.parametrize("host", [
        {"kind": "path", "n_or_r": MAX_FILE_ORDER + 1, "k": 1, "a": 0, "b": 0},
        {"kind": "cycle", "n_or_r": 10**9, "k": 2, "a": 0, "b": 0},
        {"kind": "connector", "n_or_r": 0, "k": 10**9, "a": 1, "b": 1},
    ])
    def test_pattern_above_the_size_limit_rejected(self, host):
        with pytest.raises(InvalidPatternError, match="exceeds the limit"):
            pattern_from_dict({"host": host, "colours": [[0, 1, 1]]})

    def test_connector_order_must_match_its_ends(self):
        # n_or_r is a connector's order a + k + b; it used to be ignored
        host = {"kind": "connector", "n_or_r": 99, "k": 2, "a": 1, "b": 1}
        colours = [[i, j, 1] for i, j in host_edges(connector(1, 1, 2))]
        with pytest.raises(InvalidPatternError, match=r"connector n_or_r 99 != a \+ k \+ b = 4"):
            pattern_from_dict({"host": host, "colours": colours})
        del host["n_or_r"]  # a missing order is taken from the ends
        assert pattern_from_dict({"host": host, "colours": colours}).host == connector(1, 1, 2)

    def test_pattern_at_the_size_limit_loads(self):
        pattern = ColourPattern(
            power_path(MAX_FILE_ORDER, 1), {(i, i + 1): 1 for i in range(MAX_FILE_ORDER - 1)}
        )
        assert pattern_from_dict(pattern_to_dict(pattern)) == pattern

    def test_dense_host_without_its_colours_rejected(self):
        # power_path(10^4, 10^4 - 1) has ~5 * 10^7 edges: rejected by count
        host = {"kind": "path", "n_or_r": MAX_FILE_ORDER, "k": MAX_FILE_ORDER - 1, "a": 0, "b": 0}
        with pytest.raises(InvalidPatternError, match="49995000 host edges, 1 coloured"):
            pattern_from_dict({"host": host, "colours": [[0, 1, 1]]})

    def test_double_coloured_edge_rejected(self):
        rng = random.Random(10)
        payload = pattern_to_dict(random_pattern(power_path(4, 1), 2, rng))
        payload["colours"].append([0, 1, 2])
        with pytest.raises(InvalidPatternError):
            pattern_from_dict(payload)


    @pytest.mark.parametrize(
        "loader, doc, error",
        [
            (collection_from_dict, {"n": float("inf"), "m": 1, "graphs": [[]]}, InvalidInstanceError),
            (collection_from_dict, {"n": 3.0, "m": 1, "graphs": [[]]}, InvalidInstanceError),
            (collection_from_dict, {"n": 3, "m": True, "graphs": [[]]}, InvalidInstanceError),
            (collection_from_dict, {"n": 3, "m": 1, "graphs": [[[0, 1.5]]]}, InvalidInstanceError),
            (collection_from_dict, {"n": 3, "m": 1, "graphs": [["12"]]}, InvalidInstanceError),
            (pattern_from_dict, {"host": {"kind": "path", "n_or_r": float("inf"), "k": 1}},
             InvalidPatternError),
            (pattern_from_dict, {"host": {"kind": "path", "n_or_r": 2, "k": 1},
                                 "colours": [[0, 1, 1.0]]}, InvalidPatternError),
            (pattern_from_dict, {"host": {"kind": "path", "n_or_r": 2, "k": 1},
                                 "colours": ["011"]}, InvalidPatternError),
            (cycle_from_dict, {"k": float("nan"), "vertices": [0, 1, 2]}, InvalidInstanceError),
            (cycle_from_dict, {"k": 1, "vertices": [0, 1, "2"]}, InvalidInstanceError),
        ],
        ids=["n-infinity", "n-float", "m-bool", "edge-float", "edge-text", "n_or_r-infinity",
             "colour-float", "entry-text", "k-nan", "vertex-text"],
    )
    def test_non_integer_fields_rejected(self, loader, doc, error):
        with pytest.raises(error, match="integer"):
            loader(doc)


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(max_value=64)
    | st.integers(min_value=MAX_FILE_ORDER + 1) | st.floats() | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=20,
)


# values that are almost what a loader expects: non-integral numbers,
# booleans, numeric text, empty containers
NEAR_VALUES = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 1.5, 2.0, True, False, None, "1", "12", [], {}]
) | st.integers(-2, 64) | st.integers(MAX_FILE_ORDER + 1, 10**12) | JSON_VALUES


@st.composite
def instance_docs(draw):
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    graphs = draw(st.lists(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=8),
                           min_size=1, max_size=3))
    return {"n": n, "m": len(graphs), "graphs": graphs}


@st.composite
def pattern_docs(draw):
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["cycle", "path", "connector"]))
    if kind == "cycle":
        host = power_cycle(draw(st.integers(2 * k + 1, 12)), k)
    elif kind == "path":
        host = power_path(draw(st.integers(1, 12)), k)
    else:
        host = connector(draw(st.integers(1, k)), draw(st.integers(1, k)), k)
    return pattern_to_dict(random_pattern(host, 3, random.Random(draw(st.integers(0, 99)))))


@st.composite
def cycle_docs(draw):
    k = draw(st.integers(1, 3))
    vertices = draw(st.permutations(range(draw(st.integers(2 * k + 1, 12)))))
    return {"k": k, "vertices": list(vertices)}


@st.composite
def near_valid(draw, docs):
    """A valid document with up to three values, anywhere in it, replaced
    by near or arbitrary JSON values."""
    doc = draw(docs)
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            node[key] = draw(NEAR_VALUES)
            break
    return doc


LOADERS = {
    "collection": (collection_from_dict, instance_docs()),
    "pattern": (pattern_from_dict, pattern_docs()),
    "cycle": (cycle_from_dict, cycle_docs()),
}


class TestLoaderFuzz:
    """The loaders return or raise a HamPowerError, never anything else.
    Sizes and vertex ids are at most 64, or above ``MAX_FILE_ORDER``, which
    the loaders must reject before allocating by them."""

    @pytest.mark.parametrize("name", list(LOADERS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_json(self, name, data):
        loader, _ = LOADERS[name]
        try:
            loader(data.draw(JSON_VALUES))
        except HamPowerError:
            pass

    @pytest.mark.parametrize("name", list(LOADERS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_near_valid_documents(self, name, data):
        loader, docs = LOADERS[name]
        try:
            loader(data.draw(near_valid(docs)))
        except HamPowerError:
            pass


class TestVerifyEdgeCases:
    def test_out_of_range_vertex_raises(self):
        import pytest as _pytest

        coll = complete_collection(4, 1)
        pattern = random_pattern(power_path(3, 1), 1, random.Random(11))
        with _pytest.raises(VerificationInputError):
            verify_coloured_embedding(coll, pattern, [0, 1, 9])

    def test_first_offending_edge_in_canonical_order(self):
        # graph 2 misses every edge at vertex 5, graph 3 is empty
        n = 8
        full = [(u, v) for u in range(n) for v in range(u + 1, n)]
        coll = GraphCollection.from_edge_lists(n, [full, [e for e in full if 5 not in e], []])
        host = power_cycle(n, 2)
        rng = random.Random(12)
        for _ in range(30):
            pattern = random_pattern(host, 3, rng)
            vertices = rng.sample(range(n), n)
            bad = [
                (i, j) for (i, j) in host_edges(host)
                if not coll.has_edge(pattern.colours[(i, j)], vertices[i], vertices[j])
            ]
            result = verify_coloured_embedding(coll, pattern, vertices)
            assert result == (not bad, bad[0] if bad else None)

    def test_colour_beyond_m_reported_not_raised(self):
        coll = complete_collection(4, 1)
        pattern = ColourPattern(power_path(2, 1), {(0, 1): 3})
        result = verify_coloured_embedding(coll, pattern, [0, 1])
        assert not result.ok and result.violation == (0, 1)
