"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every tolerance and runtime cap is asserted here, not just
reported.
"""

import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager

from helpers import (
    brute_count_perfect_matchings,
    chi_square_critical,
    chi_square_statistic,
    colour_rows,
    count_perfect_matchings,
    extend_tiles,
    is_clique_tiling,
    random_bipartite,
    sample_exact,
    tile_columns,
    tiling_extension_instance,
)
from hampower.absorber import (
    absorb,
    build_absorbing_structure,
    build_gadget_blueprint,
    build_template,
    expected_absorbed_size,
    gadget_absorb_sequence,
)
from hampower.bitset import mask_of
from hampower.core import (
    ColourPattern,
    canonical_edge,
    connector,
    host_edges,
    power_cycle,
    power_path,
    verify_coloured_embedding,
)
from hampower.instances import (
    bijective_pattern,
    complete_collection,
    complete_rpartite_collection,
    lowerbound_construction,
    random_pattern,
    random_rpartite_collection,
)
from hampower.matching import BipartiteGraph, sample_perfect_matching, tiling_graph
from hampower.oracle import FOUND, NONE, find_coloured_hamilton_power
from hampower.pathbuilder import build_path_collection
from hampower.pipeline import PipelineConfig, solve


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s (limit {limit_s}s)"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_gadget_absorption_exhaustive():
    with criterion(1, "gadget absorption exhaustive, k in {2,3}, ell in {2..5}", 1.0):
        rng = random.Random(1001)
        for k in (2, 3):
            for ell in (2, 3, 4, 5):
                pattern = random_pattern(power_path((2 * k + 1) * ell, k), 9, rng)
                bp = build_gadget_blueprint(k, ell, pattern)
                r_set = set(bp.r_vertices)
                for i in range(1, ell + 1):
                    seq = gadget_absorb_sequence(bp, i)
                    assert set(seq) == r_set | {bp.a_vertices[i - 1]}
                    assert all(v in r_set for v in seq[:k])
                    assert all(v in r_set for v in seq[-k:])
                    for p in range(len(seq)):
                        for q in range(p + 1, min(p + k, len(seq) - 1) + 1):
                            e = canonical_edge(seq[p], seq[q])
                            assert bp.edges.get(e) == pattern.colour_of(p, q)


def test_criterion_2_connector_counts():
    with criterion(2, "connector(2,2,2) = 7 edges as drawn; connector(3,1,3) = 12", 1.0):
        assert host_edges(connector(2, 2, 2)) == [
            (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5),
        ]
        assert len(host_edges(connector(3, 1, 3))) == 12


def test_criterion_3_tiling_extension_guarantee():
    with criterion(3, "tiling extension succeeds on 200 bounded-degree instances per k", 10.0):
        for k in (1, 2, 3):
            successes = 0
            for seed in range(200):
                rng = random.Random(3_000 + 211 * k + seed)
                n = rng.randint(2, 40)
                collection, tiles = tiling_extension_instance(rng, k, n)
                right = list(range(k * n, (k + 1) * n))
                columns = tile_columns(tiles)
                aux = tiling_graph(colour_rows(collection, [1] * k), columns, mask_of(right))
                pairs = sample_perfect_matching(aux, rng)
                extended = extend_tiles(tiles, pairs)
                assert is_clique_tiling(collection, extended, range((k + 1) * n))
                successes += 1
            assert successes == 200


def test_criterion_4_path_builder():
    with criterion(4, "path builder: 50/50 complete r-partite; >= 49/50 random", 60.0):
        k, r, part, s = 2, 7, 30, 27
        for seed in range(50):
            rng = random.Random(4_000 + seed)
            coll, parts = complete_rpartite_collection(r, part, 8)
            patterns = [random_pattern(power_path(r, k), 8, rng) for _ in range(s)]
            paths = build_path_collection(coll, parts, patterns, rng)
            seen: set = set()
            for path, pattern in zip(paths, patterns):
                assert verify_coloured_embedding(coll, pattern, path.vertices).ok
                assert not (seen & set(path.vertices))
                seen |= set(path.vertices)

        # random collections at the stated fraction (1 - 1/2k + 0.25, capped at 1)
        frac = min(1.0, 1 - 1 / (2 * k) + 0.25)
        ok = 0
        for seed in range(50):
            rng = random.Random(4_500 + seed)
            coll, parts = random_rpartite_collection(r, part, 6, frac, rng)
            patterns = [random_pattern(power_path(r, k), 6, rng) for _ in range(s)]
            try:
                paths = build_path_collection(coll, parts, patterns, rng)
            except Exception:
                continue
            if all(
                verify_coloured_embedding(coll, pat, p.vertices).ok
                for p, pat in zip(paths, patterns)
            ):
                ok += 1
        assert ok >= 49


def test_criterion_5_lowerbound_nonexistence():
    with criterion(5, "lower-bound instances: NONE for (1,3),(1,4),(2,3); all-1 FOUND", 600.0):
        for (k, p) in ((1, 3), (1, 4), (2, 3)):
            results = {}
            for orientation in ("figure", "text"):
                coll, pattern = lowerbound_construction(k, p, orientation)
                _, stats = find_coloured_hamilton_power(coll, pattern)
                results[orientation] = stats.result
            # the criterion requires the drawn orientation to be NONE; both
            # orientations in fact yield NONE on all three instances, so the
            # stronger both-NONE branch is asserted outright
            assert results["figure"] == NONE, (k, p, results)
            assert results["text"] == NONE, (k, p, results)

            coll, pattern = lowerbound_construction(k, p, "figure")
            ones = ColourPattern(pattern.host, {e: 1 for e in host_edges(pattern.host)})
            cycle, stats = find_coloured_hamilton_power(coll, ones)
            assert stats.result == FOUND
            assert verify_coloured_embedding(coll, ones, cycle.vertices).ok


def test_criterion_6_template_certification():
    with criterion(6, "templates for s in {3..6}, eps*s = 1: exhaustive robustness", 30.0):
        rng = random.Random(6_000)
        for s in (3, 4, 5, 6):
            template = build_template(s, 1, rng)
            assert all(2 <= d <= 40 for d in template.x_degrees())
            for chosen in itertools.combinations(range(s + 1), s):
                assert template.robust_matching(chosen) is not None


def test_criterion_7_absorbing_structure_scaled():
    with criterion(7, "absorbing structure k=2, s=3: size formula, all Z' absorb", 10.0):
        k, s, m = 2, 3, 5
        rng = random.Random(7_000)
        template = build_template(s, 1, rng)
        b = template.edge_count
        a = expected_absorbed_size(k, s, b)
        m_abs = a + s + 2
        coll = complete_collection(m_abs + 40, m)
        pattern = random_pattern(power_path(m_abs, k), m, rng)
        reservoir = frozenset(range(s + 1 + 2))
        y = tuple(range(30, 30 + 2 * s))
        structure = build_absorbing_structure(coll, pattern, reservoir, 0, 1, y, template, rng)
        assert structure.a_size == (2 * k + 1) * b + (3 * s + 1) * k - s
        interior = sorted(reservoir - {0, 1})
        firsts, lasts = set(), set()
        for chosen in itertools.combinations(interior, s):
            path = absorb(structure, chosen)
            assert verify_coloured_embedding(coll, pattern, path.vertices).ok
            assert set(path.vertices) == structure.absorbed_set | set(chosen) | {0, 1}
            firsts.add(path.vertices[:k])
            lasts.add(path.vertices[-k:])
        assert len(firsts) == 1 and len(lasts) == 1


def test_criterion_8_end_to_end():
    with criterion(8, "pipeline 10/10 on complete n in {40,60}; oracle cross-check", 300.0):
        for n in (40, 60):
            for seed in range(10):
                pattern = bijective_pattern(power_cycle(n, 2))
                coll = complete_collection(n, pattern.max_colour)
                config = PipelineConfig(
                    alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7,
                    seed=seed, mode="best-effort",
                )
                cycle, _ = solve(coll, pattern, config)
                assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
                assert sorted(cycle.vertices) == list(range(n))

        n = 10
        pattern = bijective_pattern(power_cycle(n, 2))
        coll = complete_collection(n, pattern.max_colour)
        config = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=0)
        cycle, _ = solve(coll, pattern, config)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        found, stats = find_coloured_hamilton_power(coll, pattern)
        assert stats.result == FOUND


def test_criterion_9_sampler_uniformity():
    with criterion(9, "exact sampler: K33 chi-square; permanent vs brute force", 30.0):
        k33 = BipartiteGraph((0b111,) * 3, 0b111)
        assert count_perfect_matchings(k33) == 6
        rng = random.Random(9_000)
        freq = Counter(tuple(sample_exact(k33, rng)) for _ in range(6000))
        assert len(freq) == 6
        stat = chi_square_statistic(freq, 6000)
        assert stat < chi_square_critical(5, 0.01)

        rng = random.Random(9_001)
        for _ in range(100):
            n = rng.randint(1, 6)
            b = random_bipartite(rng, n, n, rng.random())
            assert count_perfect_matchings(b) == brute_count_perfect_matchings(b)
