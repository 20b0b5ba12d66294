import itertools
import math
import random

import pytest

from helpers import (
    reference_gadget_blueprint,
    reference_robust_matching,
    template_edge_count_by_windows,
)
from hampower.absorber import (
    Template,
    absorb,
    absorber_layout,
    build_absorbing_structure,
    build_gadget_blueprint,
    build_template,
    embed_by_degeneracy,
    expected_absorbed_size,
    gadget_absorb_sequence,
    join_connector,
    template_edge_count,
)
from hampower.absorber import (
    _back_neighbours,
    _random_template_adjacency,
    _window_witness_present,
)
from hampower.bitset import mask_of
from hampower.core import (
    CONNECTOR,
    GraphCollection,
    canonical_edge,
    power_path,
    verify_coloured_embedding,
)
from hampower.connectors import embed_connector
from hampower.errors import (
    ConnectionFailedError,
    EmbeddingFailedError,
    HamPowerError,
    InvalidInstanceError,
    TemplateError,
)
from hampower.instances import complete_collection, random_pattern


def role_names(bp):
    names = {}
    for j, a in enumerate(bp.a_vertices):
        names[a] = f"a{j + 1}"
    for j, b in enumerate(bp.b_vertices):
        names[b] = f"b{j + 1}"
    for j, c in enumerate(bp.c_vertices):
        names[c] = f"c{j + 1}"
    return names


def edge_colours(bp):
    """The blueprint's colours by gadget edge, the reference gadget's form."""
    return {e: bp.colours[slot] for e, slot in bp.edges.items()}


def assert_valid_absorb_sequence(bp, pattern, seq):
    """The sequence must be a pattern-coloured k-power path inside the gadget."""
    k = bp.k
    for p in range(len(seq)):
        for q in range(p + 1, min(p + k, len(seq) - 1) + 1):
            e = canonical_edge(seq[p], seq[q])
            assert e in bp.edges, (p, q)
            assert bp.colours[bp.edges[e]] == pattern.colour_of(p, q)


class TestGadgetBlueprint:
    def test_f24_role_sizes(self):
        rng = random.Random(50)
        pattern = random_pattern(power_path(20, 2), 6, rng)
        bp = build_gadget_blueprint(2, 4, pattern)
        assert (len(bp.a_vertices), len(bp.b_vertices), len(bp.c_vertices)) == (4, 16, 3)
        assert len(bp.vertices) == 23
        assert len(bp.r_vertices) == 19  # (2k+1) ell - 1

    def test_base_sequence_k2_ell2(self):
        rng = random.Random(51)
        pattern = random_pattern(power_path(10, 2), 4, rng)
        bp = build_gadget_blueprint(2, 2, pattern)
        names = role_names(bp)
        assert [names[v] for v in bp.base_sequence] == [
            "b1", "b2", "a1", "b3", "b4", "b5", "b6", "a2", "b7", "b8",
        ]

    def test_k1_rejected(self):
        rng = random.Random(52)
        pattern = random_pattern(power_path(6, 1), 3, rng)
        with pytest.raises(InvalidInstanceError):
            build_gadget_blueprint(1, 2, pattern)

    def test_ell1_rejected(self):
        rng = random.Random(53)
        pattern = random_pattern(power_path(5, 2), 3, rng)
        with pytest.raises(InvalidInstanceError):
            build_gadget_blueprint(2, 1, pattern)

    def test_a_vertices_form_independent_set(self):
        rng = random.Random(54)
        pattern = random_pattern(power_path(15, 2), 4, rng)
        bp = build_gadget_blueprint(2, 3, pattern)
        a_set = set(bp.a_vertices)
        assert all(not (u in a_set and v in a_set) for (u, v) in bp.edges)

    def test_degeneracy_certificate(self):
        rng = random.Random(55)
        for k in (2, 3):
            for ell in (2, 3, 4, 5):
                pattern = random_pattern(power_path((2 * k + 1) * ell, k), 5, rng)
                bp = build_gadget_blueprint(k, ell, pattern)
                order = list(bp.a_vertices) + [v for v, _ in bp.back_neighbours]
                assert sorted(order) == sorted(bp.vertices)
                seen = set(bp.a_vertices)
                for v, back in bp.back_neighbours:
                    assert len(back) <= k + 2
                    assert all(bp.edges.get(canonical_edge(u, v)) == slot for u, slot in back)
                    earlier = {u for e in bp.edges if v in e for u in e if u in seen}
                    assert {u for u, _ in back} == earlier
                    seen.add(v)

    def test_back_neighbour_checks_raise(self):
        # k=2, ell=2: A = {0, 1}, nine more vertices 2..10
        order = list(range(11))
        with pytest.raises(HamPowerError):
            _back_neighbours(2, 2, order[:-1], {})  # order misses a vertex
        with pytest.raises(HamPowerError):
            _back_neighbours(2, 2, order[:-1] + [9], {})  # order repeats a vertex
        with pytest.raises(HamPowerError):
            _back_neighbours(2, 2, order, {(0, 1): 0})  # edge inside A
        star = {(u, 10): u for u in range(5)}  # each edge's slot is u
        with pytest.raises(HamPowerError):
            _back_neighbours(2, 2, order, star)  # 5 > k+2 earlier neighbours
        del star[(0, 10)]
        assert _back_neighbours(2, 2, order, star)[-1] == (10, tuple((u, u) for u in range(1, 5)))

    def test_matches_from_scratch_reference(self):
        rng = random.Random(58)
        for k in (2, 3, 4):
            for ell in range(2, 41):
                pattern = random_pattern(power_path((2 * k + 1) * ell, k), 5, rng)
                bp = build_gadget_blueprint(k, ell, pattern)
                ref = reference_gadget_blueprint(k, ell, pattern)
                assert list(edge_colours(bp).items()) == list(ref.edges.items()), (k, ell)
                assert bp.base_sequence == ref.base_sequence
                assert bp.back_neighbours == tuple(
                    (v, tuple((u, bp.edges[e]) for u, e in back)) for v, back in ref.back_neighbours
                )
                assert bp.vertices == ref.vertices

    def test_blueprints_of_one_shape_share_no_mutable_mapping(self):
        rng = random.Random(59)
        host = power_path(15, 2)
        first, second = random_pattern(host, 6, rng), random_pattern(host, 6, rng)
        assert first.colours != second.colours
        bp1 = build_gadget_blueprint(2, 3, first)
        bp2 = build_gadget_blueprint(2, 3, second)
        # one read-only edge-to-slot map per shape; each gadget has its own colours
        assert bp1.edges is bp2.edges
        with pytest.raises(TypeError):
            bp1.edges[next(iter(bp1.edges))] = 1
        assert type(bp1.colours) is tuple and bp1.colours == first.colours.values()
        assert type(bp2.colours) is tuple and bp2.colours == second.colours.values()
        assert edge_colours(bp1) == reference_gadget_blueprint(2, 3, first).edges
        assert edge_colours(bp2) == reference_gadget_blueprint(2, 3, second).edges


class TestAbsorbSequence:
    def test_k2_ell2_sequences(self):
        rng = random.Random(56)
        pattern = random_pattern(power_path(10, 2), 4, rng)
        bp = build_gadget_blueprint(2, 2, pattern)
        names = role_names(bp)
        s1 = [names[v] for v in gadget_absorb_sequence(bp, 1)]
        s2 = [names[v] for v in gadget_absorb_sequence(bp, 2)]
        assert s1 == ["b1", "b2", "a1", "b3", "b4", "b5", "b6", "c1", "b7", "b8"]
        assert s2 == ["b1", "b2", "c1", "b3", "b4", "b5", "b6", "a2", "b7", "b8"]

    def test_sequences_are_valid_coloured_paths(self):
        rng = random.Random(57)
        for k in (2, 3):
            for ell in (2, 3, 4, 5):
                pattern = random_pattern(power_path((2 * k + 1) * ell, k), 7, rng)
                bp = build_gadget_blueprint(k, ell, pattern)
                r_set = set(bp.r_vertices)
                for i in range(1, ell + 1):
                    seq = gadget_absorb_sequence(bp, i)
                    assert len(seq) == (2 * k + 1) * ell
                    assert set(seq) == r_set | {bp.a_vertices[i - 1]}
                    assert all(v in r_set for v in seq[:k])
                    assert all(v in r_set for v in seq[-k:])
                    assert_valid_absorb_sequence(bp, pattern, seq)

    def test_large_gadget_still_valid(self):
        rng = random.Random(157)
        k, ell = 2, 12
        pattern = random_pattern(power_path((2 * k + 1) * ell, k), 9, rng)
        bp = build_gadget_blueprint(k, ell, pattern)
        for i in (1, 6, 12):
            assert_valid_absorb_sequence(bp, pattern, gadget_absorb_sequence(bp, i))

    def test_colour_sequence_identical_across_absorbed_vertices(self):
        # forced by the inheritance rule: positions carry the colours
        rng = random.Random(58)
        pattern = random_pattern(power_path(10, 2), 4, rng)
        bp = build_gadget_blueprint(2, 2, pattern)
        colour_seqs = []
        for i in (1, 2):
            seq = gadget_absorb_sequence(bp, i)
            colour_seqs.append(
                [bp.colours[bp.edges[canonical_edge(seq[p], seq[p + 1])]] for p in range(len(seq) - 1)]
            )
        assert colour_seqs[0] == colour_seqs[1]

    def test_index_out_of_range(self):
        rng = random.Random(59)
        pattern = random_pattern(power_path(10, 2), 4, rng)
        bp = build_gadget_blueprint(2, 2, pattern)
        with pytest.raises(InvalidInstanceError):
            gadget_absorb_sequence(bp, 3)


class TestEmbedByDegeneracy:
    def test_single_edge(self):
        # one colour; A goes to the flexible images 0 and 1, and when 0 keeps
        # only 12 of its edges, a_1's gadget neighbours take their ends
        rng = random.Random(60)
        pattern = random_pattern(power_path(10, 2), 1, rng)
        bp = build_gadget_blueprint(2, 2, pattern)
        a1 = bp.a_vertices[0]
        n = 40
        edges = [(u, v) for u in range(2, n) for v in range(u + 1, n)]
        edges += [(0, v) for v in range(2, n)] + [(1, v) for v in range(2, n)]
        coll = GraphCollection.from_edge_lists(n, [edges])
        mapped = embed_by_degeneracy(coll, bp, (0, 1), mask_of(range(n)), rng)
        assert mapped[bp.a_vertices[0]] == 0 and mapped[bp.a_vertices[1]] == 1
        assert sorted(mapped.values()) == sorted(set(mapped.values()))
        for (u, v), c in edge_colours(bp).items():
            assert coll.has_edge(c, mapped[u], mapped[v])
        a1_nbrs = [u for e in bp.edges if a1 in e for u in e if u != a1]
        keep = set(range(7, 19))
        few = [(u, v) for (u, v) in edges if u != 0] + [(0, v) for v in keep]
        coll = GraphCollection.from_edge_lists(n, [few])
        for _ in range(10):
            mapped = embed_by_degeneracy(coll, bp, (0, 1), mask_of(range(n)), rng)
            assert {mapped[u] for u in a1_nbrs} <= keep

    def test_gadget_embeds_into_complete_collection(self):
        rng = random.Random(61)
        coll = complete_collection(100, 6)
        pattern = random_pattern(power_path(20, 2), 6, rng)
        bp = build_gadget_blueprint(2, 4, pattern)
        mapped = embed_by_degeneracy(coll, bp, (0, 1, 2, 3), mask_of(range(100)), rng)
        assert [mapped[a] for a in bp.a_vertices] == [0, 1, 2, 3]
        assert len(set(mapped.values())) == len(bp.vertices)
        for (u, v), c in edge_colours(bp).items():
            assert coll.has_edge(c, mapped[u], mapped[v])

    def test_pigeonhole_failure(self):
        # the pool holds the flexible images and one more vertex: the
        # second vertex after A finds no image
        rng = random.Random(62)
        coll = complete_collection(10, 2)
        bp = build_gadget_blueprint(2, 2, random_pattern(power_path(10, 2), 2, rng))
        with pytest.raises(EmbeddingFailedError) as err:
            embed_by_degeneracy(coll, bp, (8, 9), mask_of({7, 8, 9}), rng)
        assert err.value.vertex == bp.back_neighbours[1][0]


class TestTemplate:
    def test_exhaustive_s3(self):
        rng = random.Random(63)
        template = build_template(3, 1, rng)
        assert template.s == 3 and template.t == 1
        for chosen in itertools.combinations(range(4), 3):
            assert template.robust_matching(chosen) is not None

    def test_witness_certified_templates_match_every_subset(self):
        # the window witness certifies every (s, t); wherever C(s+t, s) <= 4096
        # the certified template matches each W' outright
        rng = random.Random(64)
        grid = [
            (s, t) for s in range(1, 11) for t in range(1, 40) if math.comb(s + t, s) <= 4096
        ]
        assert len(grid) > 150
        for s, t in grid:
            template = build_template(s, t, rng)
            for chosen in itertools.combinations(range(s + t), s):
                assert template.robust_matching(chosen) is not None, (s, t, chosen)

    def test_broken_copies_fail_the_certificate(self):
        s, t = 26, 9
        rows, layout = _random_template_adjacency(s, t, random.Random(72))
        x_m, perm, x_w, w_slots, xw_slots = layout
        assert _window_witness_present(s, t, rows, layout)
        window = list(rows)
        slot = 2 * s + w_slots[t]  # a slot with a full window of t + 1
        window[slot] &= ~(1 << x_w[xw_slots[0]])
        cycle = list(rows)
        cycle[5] &= ~(1 << x_m[perm[6]])  # u=5's second cyclic edge
        for broken in (window, cycle):
            assert broken != list(rows)
            assert not _window_witness_present(s, t, broken, layout)

    def test_window_witness_matches_every_sampled_subset(self):
        s, t = 26, 39
        rng = random.Random(73)
        rows, (x_m, perm, x_w, w_slots, xw_slots) = _random_template_adjacency(s, t, rng)
        slot_of = {w: i for i, w in enumerate(w_slots)}
        u_pairs = [(u, x_m[perm[u]]) for u in range(2 * s)]
        for _ in range(500):
            by_slot = sorted(rng.sample(range(s + t), s), key=slot_of.__getitem__)
            pairs = u_pairs + [(2 * s + w, x_w[xw_slots[m]]) for m, w in enumerate(by_slot)]
            assert sorted(x for _, x in pairs) == list(range(3 * s))
            assert all(rows[left] >> x & 1 for left, x in pairs)

    def test_degrees_within_bounds(self):
        rng = random.Random(65)
        for s, t in ((1, 1), (2, 1), (3, 2), (5, 1), (6, 3), (4, 10)):
            template = build_template(s, t, rng)
            assert all(2 <= d <= 40 for d in template.x_degrees())
            assert all(2 <= row.bit_count() <= 40 for row in template.rows)
            assert template.edge_count == template_edge_count(s, t)

    def test_edge_count_closed_form(self):
        for s in range(200):
            for t in range(80):
                assert template_edge_count(s, t) == template_edge_count_by_windows(s, t), (s, t)

    def test_isolated_x_vertex_rejected(self):
        # s=1, t=1: X = {0,1,2}; leave X-vertex 2 untouched
        rows = (0b011,) * 4
        with pytest.raises(TemplateError):
            Template(1, 1, rows)

    def test_oversized_t_rejected(self):
        with pytest.raises(TemplateError):
            build_template(2, 40, random.Random(66))

    def test_repeated_w_index_rejected(self):
        template = build_template(3, 2, random.Random(0))
        with pytest.raises(InvalidInstanceError):
            template.robust_matching([0, 0, 1])

    @pytest.mark.parametrize("w_locals", [[0.5, 1], None, [False, True], [0, 4], (1,)])
    def test_malformed_w_indices_rejected(self, w_locals):
        template = build_template(2, 2, random.Random(0))
        with pytest.raises(InvalidInstanceError, match="^W-local index "):
            template.robust_matching(w_locals)


def random_uncertified_template(s, t, rng):
    """Template with random rows of degree 2 or 3, robust or not."""
    while True:
        rows = tuple(
            mask_of(rng.sample(range(3 * s), min(3 * s, rng.randint(2, 3))))
            for _ in range(3 * s + t)
        )
        try:
            return Template(s, t, rows)
        except TemplateError:
            continue


class TestRobustMatchingWarmStart:
    """``robust_matching`` must equal a fresh ``max_matching`` of
    B[U + W', X], mapped back to template left indices."""

    def test_every_subset_of_small_templates(self):
        rng = random.Random(67)
        outcomes = set()
        for s in range(1, 7):
            for t in range(1, 7):
                certified = build_template(s, t, rng)
                for template in (certified, random_uncertified_template(s, t, rng)):
                    for chosen in itertools.combinations(range(s + t), s):
                        got = template.robust_matching(chosen)
                        assert got == reference_robust_matching(template, chosen), (s, t, chosen)
                        outcomes.add(got is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", [68, 69])
    def test_sampled_subsets_of_the_largest_template(self, seed):
        rng = random.Random(seed)
        template = build_template(26, 39, rng)
        for _ in range(2000):
            chosen = rng.sample(range(65), 26)
            assert template.robust_matching(chosen) == reference_robust_matching(template, chosen)

    def test_unsaturable_u_side(self):
        # s=2, t=1: the four U rows all lie inside X-vertices {0, 1, 2}
        rows = (0b011, 0b110, 0b101, 0b011) + (0b111000,) * 3
        template = Template(2, 1, rows)
        for chosen in itertools.combinations(range(3), 2):
            assert template.robust_matching(chosen) is None
            assert reference_robust_matching(template, chosen) is None


def small_structure(seed=70, s=3, k=2, m=5):
    rng = random.Random(seed)
    template = build_template(s, 1, rng)
    b = template.edge_count
    a = expected_absorbed_size(k, s, b)
    m_abs = a + s + 2
    n = m_abs + 40
    coll = complete_collection(n, m)
    pattern = random_pattern(power_path(m_abs, k), m, rng)
    reservoir = frozenset(range(s + 1 + 2))
    y = tuple(range(20, 20 + 2 * s))
    structure = build_absorbing_structure(
        coll, pattern, reservoir, 0, 1, y, template, rng
    )
    return structure, coll, pattern, reservoir


class TestAbsorbingStructure:
    def test_absorbed_size_formula(self):
        structure, _, _, _ = small_structure()
        k, s, b = 2, 3, structure.template.edge_count
        assert structure.a_size == (2 * k + 1) * b + (3 * s + 1) * k - s

    def test_absorb_every_admissible_subset(self):
        structure, coll, pattern, reservoir = small_structure()
        interior = sorted(reservoir - {structure.z1, structure.z2})
        firsts, lasts = set(), set()
        for chosen in itertools.combinations(interior, 3):
            path = absorb(structure, chosen)
            assert path.vertices[0] == structure.z1
            assert path.vertices[-1] == structure.z2
            assert set(path.vertices) == structure.absorbed_set | set(chosen) | {0, 1}
            assert verify_coloured_embedding(coll, pattern, path.vertices).ok
            firsts.add(path.vertices[:2])
            lasts.add(path.vertices[-2:])
        assert len(firsts) == 1 and len(lasts) == 1

    def test_absorb_is_deterministic(self):
        structure, _, _, reservoir = small_structure()
        interior = sorted(reservoir - {structure.z1, structure.z2})
        chosen = tuple(interior[:3])
        assert absorb(structure, chosen) == absorb(structure, chosen)

    def test_wrong_subset_size_rejected(self):
        structure, _, _, reservoir = small_structure()
        interior = sorted(reservoir - {structure.z1, structure.z2})
        with pytest.raises(InvalidInstanceError):
            absorb(structure, interior[:2])

    def test_matched_vertices_never_reused(self):
        structure, _, _, reservoir = small_structure()
        interior = sorted(reservoir - {structure.z1, structure.z2})
        for chosen in itertools.combinations(interior, 3):
            path = absorb(structure, chosen)
            assert len(set(path.vertices)) == len(path.vertices)

    def test_gadget_bodies_pairwise_disjoint(self):
        structure, _, _, _ = small_structure()
        seen = set()
        for gadget in structure.gadgets:
            body = set(gadget.images.values())
            assert not (seen & body)
            seen |= body

    def test_structure_with_wider_template_surplus(self):
        # t = 2: ten admissible reservoir subsets, all must absorb
        rng = random.Random(158)
        s, k, m = 3, 2, 5
        template = build_template(s, 2, rng)
        b = template.edge_count
        a = expected_absorbed_size(k, s, b)
        m_abs = a + s + 2
        coll = complete_collection(m_abs + 40, m)
        pattern = random_pattern(power_path(m_abs, k), m, rng)
        reservoir = frozenset(range(s + 2 + 2))
        y = tuple(range(30, 30 + 2 * s))
        structure = build_absorbing_structure(coll, pattern, reservoir, 0, 1, y, template, rng)
        interior = sorted(reservoir - {0, 1})
        paths = [absorb(structure, chosen) for chosen in itertools.combinations(interior, s)]
        assert len(paths) == 10
        assert len({p.vertices[:k] for p in paths}) == 1
        assert len({p.vertices[-k:] for p in paths}) == 1

    def test_structure_at_power_three(self):
        rng = random.Random(159)
        s, k, m = 2, 3, 4
        template = build_template(s, 1, rng)
        b = template.edge_count
        a = expected_absorbed_size(k, s, b)
        m_abs = a + s + 2
        coll = complete_collection(m_abs + 40, m)
        pattern = random_pattern(power_path(m_abs, k), m, rng)
        reservoir = frozenset(range(s + 1 + 2))
        y = tuple(range(20, 20 + 2 * s))
        structure = build_absorbing_structure(coll, pattern, reservoir, 0, 1, y, template, rng)
        assert structure.a_size == a
        interior = sorted(reservoir - {0, 1})
        for chosen in itertools.combinations(interior, s):
            path = absorb(structure, chosen)
            assert verify_coloured_embedding(coll, pattern, path.vertices).ok
            assert path.vertices[:k] == structure.placement[:k]
            assert path.vertices[-k:] == structure.placement[-k:]

    def test_degenerate_structure_without_gadgets(self):
        rng = random.Random(71)
        k = 2
        coll = complete_collection(12, 3)
        pattern = random_pattern(power_path(k + 2, k), 3, rng)
        reservoir = frozenset({0, 1, 2, 3})
        structure = build_absorbing_structure(
            coll, pattern, reservoir, 0, 1, (), Template.empty(), rng
        )
        assert structure.a_size == k
        path = absorb(structure, ())
        assert path.order == k + 2
        assert path.vertices[0] == 0 and path.vertices[-1] == 1

    def test_gadget_failure_names_its_segment_and_pool(self):
        # on 29 vertices, Y (6 vertices) and the reservoir (6) leave 17, and
        # gadget 0's body takes 9: gadget 1 draws from the 8 left and needs 9
        rng = random.Random(70)
        template = build_template(3, 1, rng)
        m_abs = expected_absorbed_size(2, 3, template.edge_count) + 3 + 2
        pattern = random_pattern(power_path(m_abs, 2), 5, rng)
        assert [len(x) for x in template.x_neighbourhoods()[:2]] == [2, 2]
        with pytest.raises(EmbeddingFailedError) as err:
            build_absorbing_structure(
                complete_collection(29, 5), pattern, frozenset(range(6)), 0, 1,
                tuple(range(20, 26)), template, random.Random(1),
            )
        cause = err.value.__cause__
        assert isinstance(cause, EmbeddingFailedError) and cause.segment is None
        assert vars(err.value) == {"vertex": cause.vertex, "segment": "gadget 1", "pool": 8}
        assert str(err.value) == f"{cause} at gadget 1, pool of 8"


def _absorber_layout(x_degrees, k):
    """The host, gadget window starts and connector internal starts of a
    chain of gadgets of the given X-degrees, by the closed forms: z1 at 0,
    then per gadget k connector internals and (2k+1) ell gadget positions,
    then k internals and z2."""
    gadget_starts, connector_starts = [], []
    cursor = 1
    for ell in x_degrees:
        connector_starts.append(cursor)
        gadget_starts.append(cursor + k)
        cursor += k + (2 * k + 1) * ell
    connector_starts.append(cursor)
    host = power_path(cursor + k + 1, k)
    return host, tuple(gadget_starts), tuple(connector_starts)


class TestAbsorberPartition:
    def test_sound_layout_passes(self):
        for k in (1, 2, 3):
            for x_degrees in ((2, 1, 3), (), (4,)):
                layout = absorber_layout(k, x_degrees)
                host, gadgets, connectors = _absorber_layout(x_degrees, k)
                assert layout.host == host
                starts = {seg.name: seg.start for seg in layout.segments}
                assert [starts[f"gadget {i}"] for i in range(len(gadgets))] == list(gadgets)
                # each connector's window begins at the last <= k vertices before its internals
                assert [
                    starts[f"connector {i}"] + (1 if i == 0 else k) for i in range(len(connectors))
                ] == list(connectors)
                assert (starts["z1"], starts["z2"]) == (0, host.order - 1)


class TestChainConnectors:
    def test_failure_names_its_segment_and_pool(self):
        # no gadgets: z1, one connector with k internals, z2; the pool holds
        # one vertex, so the connector's second internal has no candidate
        k = 2
        layout = absorber_layout(k, ())
        coll = complete_collection(10, 3)
        pattern = random_pattern(layout.host, 3, random.Random(72))
        placement = [0, None, None, 1]
        (seg,) = [seg for seg in layout.segments if seg.kind == CONNECTOR]
        with pytest.raises(ConnectionFailedError) as err:
            join_connector(
                coll, pattern, seg, placement, mask_of([5]), random.Random(73), embed_connector
            )
        cause = err.value.__cause__
        assert isinstance(cause, ConnectionFailedError) and cause.position in (1, 2)
        assert (err.value.position, err.value.segment, err.value.pool) == (
            cause.position, "connector 0", 1
        )
        assert str(err.value) == f"{cause} at connector 0, pool of 1"


class TestAbsorbValidation:
    def test_foreign_z_prime_rejected(self):
        structure, _, _, reservoir = small_structure()
        outside = [v for v in range(200) if v not in reservoir][:3]
        with pytest.raises(InvalidInstanceError):
            absorb(structure, outside)
