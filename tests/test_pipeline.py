import random

import pytest

from helpers import sample_reservoir_by_scan, without_certificate
from hampower.core import (
    GraphCollection,
    power_cycle,
    verify_coloured_embedding,
)
from hampower.errors import (
    InfeasibleConfigError,
    InvalidInstanceError,
    ReservoirError,
)
from hampower.instances import (
    bijective_pattern,
    complete_collection,
    random_min_degree_collection,
    random_pattern,
)
from hampower.pipeline import (
    PipelineConfig,
    Plan,
    candidate_plans,
    derive_rng,
    feasibility_floor,
    layout_edge_partition,
    sample_reservoir,
    solve,
)

CONFIG = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=0)


class TestConfig:
    def test_hierarchy_enforced(self):
        with pytest.raises(InvalidInstanceError):
            PipelineConfig(alpha=0.2, beta=0.3, gamma=0.01, epsilon=0.1, r=7)
        with pytest.raises(InvalidInstanceError):
            PipelineConfig(alpha=0.2, beta=0.05, gamma=0.05, epsilon=0.1, r=7)
        with pytest.raises(InvalidInstanceError):
            PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=1.5, r=7)

    def test_mode_validation(self):
        with pytest.raises(InvalidInstanceError):
            PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, mode="yolo")


class TestPlan:
    def test_feasibility_floor_reported(self):
        pattern = random_pattern(power_cycle(5, 2), 1, random.Random(0))
        with pytest.raises(InfeasibleConfigError) as err:
            solve(complete_collection(5, 1), pattern, CONFIG)
        assert err.value.floor == 6

    def test_floor_matches_probe(self):
        assert feasibility_floor(2, CONFIG) == 6

    def test_plan_identities(self):
        for n in (6, 10, 23, 40, 60, 77, 120):
            plan = candidate_plans(n, 2, CONFIG)[0]
            # vertex conservation
            assert plan.n == plan.a + plan.z_size + plan.s * plan.r + plan.c
            # reservoir interior budget
            assert plan.s_t + plan.w_extra == (
                plan.s_t + (plan.s + plan.c + 1) * plan.k + plan.g
            )

    def test_layout_partition_exact_over_a_sweep(self):
        checked = 0
        for k in (1, 2, 3):
            cfg = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=k + 5)
            for n in range(2 * k + 1, 90):
                plans = candidate_plans(n, k, cfg)
                if not plans:
                    continue
                families = layout_edge_partition(plans[0])  # raises on any overlap/gap
                total = sum(len(f) for f in families.values())
                assert total == k * n
                checked += 1
        assert checked > 150


class TestSampleReservoir:
    def test_complete_collection_accepts_first_sample(self):
        coll = complete_collection(20, 3)
        rng = random.Random(1)
        z = sample_reservoir(coll, 6, 0.2, 2, rng, max_retries=1)
        assert len(z) == 6

    def test_isolated_vertex_always_rejected(self):
        edge_lists = [[(u, v) for u in range(1, 10) for v in range(u + 1, 10)]]
        coll = GraphCollection.from_edge_lists(10, edge_lists)  # vertex 0 isolated
        rng = random.Random(2)
        with pytest.raises(ReservoirError) as err:
            sample_reservoir(coll, 4, 0.2, 2, rng, max_retries=5)
        assert err.value.worst[0] == 0

    def test_dense_random_collections_accept_within_three_retries(self):
        # delta >= (1 - 1/2k + alpha) n with k=2, alpha=0.2: fraction 0.95
        accepted_fast = 0
        for seed in range(50):
            rng = random.Random(200 + seed)
            coll = random_min_degree_collection(200, 2, 0.95, rng)
            try:
                sample_reservoir(coll, 40, 0.2, 2, rng, max_retries=3)
                accepted_fast += 1
            except ReservoirError:
                pass
        assert accepted_fast >= 48


def _reservoir_outcome(sampler, collection, size, alpha, k, seed, retries):
    """What a reservoir call returns or raises, and the rng state after it."""
    rng = random.Random(seed)
    try:
        outcome = ("accepted", sampler(collection, size, alpha, k, rng, max_retries=retries))
    except ReservoirError as exc:
        outcome = ("rejected", exc.worst, str(exc))
    return outcome, rng.getstate()


def _complete_rows(n):
    full = (1 << n) - 1
    return [full ^ (1 << v) for v in range(n)]


def _reservoir_case(name):
    """(collection, size, alpha, k) of one named certificate case."""
    rng = random.Random(name)
    if name == "certified":
        return complete_collection(30, 4), 8, 0.2, 2
    if name == "uncertified":
        return random_min_degree_collection(30, 4, 0.8, rng), 8, 0.2, 2
    dense = random_min_degree_collection(30, 3, 0.9, rng).masks
    mixed = GraphCollection(30, [_complete_rows(30), *dense, _complete_rows(30)])
    if name == "mixed":
        return mixed, 8, 0.1, 2
    if name == "threshold above 1":  # 1 - 1/6 + 0.25: every colour fails
        return mixed, 8, 0.5, 3
    if name == "single-vertex reservoir":
        return mixed, 1, 0.1, 2
    if name.startswith("tight"):
        # K_12 minus a perfect matching, threshold 3/4: the bound passes at
        # capacities 4 and 8 but not 3, so the scan decides; a vertex fails
        # exactly when its one non-neighbour is on its side
        rows = [((1 << 12) - 1) ^ (1 << v) ^ (1 << (v ^ 1)) for v in range(12)]
        return GraphCollection(12, [rows] * 2), (4 if name == "tight" else 8), 0.0, 2
    # vertex 0 isolated in colour 3, after two certified colours
    isolated = [0] + [((1 << 10) - 2) ^ (1 << v) for v in range(1, 10)]
    return GraphCollection(10, [_complete_rows(10)] * 2 + [isolated]), 4, 0.2, 2


class TestReservoirCertificate:
    """The minimum-degree certificate only skips colours that cannot fail:
    the result, the error and the random stream are those of a full scan."""

    @pytest.mark.parametrize("name", [
        "certified", "uncertified", "mixed", "threshold above 1",
        "single-vertex reservoir", "isolated vertex", "tight", "tight complement",
    ])
    def test_matches_full_scan(self, name):
        collection, size, alpha, k = _reservoir_case(name)
        outcomes = set()
        for seed in range(10):
            for retries in (1, 3):
                expected = _reservoir_outcome(
                    sample_reservoir_by_scan, collection, size, alpha, k, seed, retries
                )
                assert _reservoir_outcome(
                    sample_reservoir, collection, size, alpha, k, seed, retries
                ) == expected
                assert _reservoir_outcome(
                    sample_reservoir, without_certificate(collection), size, alpha, k, seed, retries
                ) == expected
                outcomes.add(expected[0][0])
        if name == "certified":
            assert outcomes == {"accepted"}
        if name in ("threshold above 1", "isolated vertex"):
            assert outcomes == {"rejected"}
        if name.startswith("tight"):
            assert outcomes == {"accepted", "rejected"}

    def test_isolated_vertex_reported_in_its_colour(self):
        collection, size, alpha, k = _reservoir_case("isolated vertex")
        with pytest.raises(ReservoirError) as err:
            sample_reservoir(collection, size, alpha, k, random.Random(0), max_retries=2)
        assert err.value.worst[:2] == (0, 3)

    def test_matches_full_scan_near_the_bound(self):
        # small graphs whose minimum degree sits near the certificate's
        # bound, at every reservoir size
        rng = random.Random(17)
        both = set()
        for trial in range(400):
            n = rng.randint(3, 12)
            tables = [
                random_min_degree_collection(n, 1, rng.uniform(0.5, 1.0), rng).masks[0]
                for _ in range(rng.randint(1, 3))
            ]
            collection = GraphCollection(n, tables)
            args = (rng.randint(1, n - 1), rng.choice([0.0, 0.1, 0.2, 0.5]), rng.randint(1, 3))
            retries = rng.randint(1, 3)
            expected = _reservoir_outcome(sample_reservoir_by_scan, collection, *args, trial, retries)
            assert _reservoir_outcome(sample_reservoir, collection, *args, trial, retries) == expected
            both.add(expected[0][0])
        assert both == {"accepted", "rejected"}


class TestSolve:
    def test_complete_n60_verified(self):
        pattern = bijective_pattern(power_cycle(60, 2))
        coll = complete_collection(60, pattern.max_colour)
        cycle, trace = solve(coll, pattern, CONFIG)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        assert trace["verified"] is True
        assert sorted(cycle.vertices) == list(range(60))

    def test_same_seed_same_output(self):
        pattern = bijective_pattern(power_cycle(40, 2))
        coll = complete_collection(40, pattern.max_colour)
        cfg = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=99)
        a, _ = solve(coll, pattern, cfg)
        b, _ = solve(coll, pattern, cfg)
        assert a == b

    def test_different_seed_usually_differs(self):
        pattern = bijective_pattern(power_cycle(40, 2))
        coll = complete_collection(40, pattern.max_colour)
        cfg1 = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=1)
        cfg2 = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=2)
        a, _ = solve(coll, pattern, cfg1)
        b, _ = solve(coll, pattern, cfg2)
        assert a != b

    def test_strict_mode_on_complete(self):
        pattern = bijective_pattern(power_cycle(30, 2))
        coll = complete_collection(30, pattern.max_colour)
        cfg = PipelineConfig(
            alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=3, mode="strict"
        )
        cycle, trace = solve(coll, pattern, cfg)
        assert all(stage["attempts"] == 1 for stage in trace["stages"])
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok

    def test_infeasible_instance_rejected_before_work(self):
        pattern = bijective_pattern(power_cycle(5, 2))
        coll = complete_collection(5, pattern.max_colour)
        with pytest.raises(InfeasibleConfigError):
            solve(coll, pattern, CONFIG)

    def test_template_backed_absorber_in_pipeline(self):
        # n = 62 admits a template of size 1 inside the run
        pattern = bijective_pattern(power_cycle(62, 2))
        coll = complete_collection(62, pattern.max_colour)
        cycle, trace = solve(coll, pattern, CONFIG)
        assert trace["plan"]["s_t"] >= 1
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok

    def test_k1_instances(self):
        pattern = bijective_pattern(power_cycle(24, 1))
        coll = complete_collection(24, pattern.max_colour)
        cfg = PipelineConfig(alpha=0.3, beta=0.05, gamma=0.01, epsilon=0.1, r=4, seed=4)
        cycle, _ = solve(coll, pattern, cfg)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok

    def test_k1_never_plans_a_gadget_absorber(self):
        # gadgets need k >= 2; a k=1 strict run must not pick a template plan
        cfg = PipelineConfig(
            alpha=0.3, beta=0.05, gamma=0.01, epsilon=0.1, r=4, seed=0, mode="strict"
        )
        plans = candidate_plans(31, 1, cfg)
        assert all(p.s_t == 0 for p in plans)
        pattern = bijective_pattern(power_cycle(31, 1))
        coll = complete_collection(31, pattern.max_colour)
        cycle, _ = solve(coll, pattern, cfg)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok

    def test_k3_instances(self):
        pattern = bijective_pattern(power_cycle(50, 3))
        coll = complete_collection(50, pattern.max_colour)
        cfg = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=8, seed=5)
        cycle, _ = solve(coll, pattern, cfg)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok

    def test_dense_random_collection(self):
        rng = random.Random(42)
        n, k = 36, 2
        coll = random_min_degree_collection(n, 2 * n, 0.96, rng)
        pattern = bijective_pattern(power_cycle(n, k), rng)
        cfg = PipelineConfig(
            alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=6, max_retries=12
        )
        cycle, _ = solve(coll, pattern, cfg)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok

    def test_plan_fallback_on_random_collection(self):
        # the beta-sized absorber plan has a tiny reservoir that cannot pass
        # the degree check on a random instance; solve must back off to a
        # later plan instead of giving up
        rng = random.Random(43)
        n, k = 120, 2
        coll = random_min_degree_collection(n, 12, 0.96, rng)
        pattern = random_pattern(power_cycle(n, k), 12, rng)
        cfg = PipelineConfig(
            alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=7, max_retries=10
        )
        cycle, trace = solve(coll, pattern, cfg)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        assert trace["plan_index"] >= 1
        assert trace["plan_fallbacks"]

    def test_candidate_plans_ordering(self):
        plans = candidate_plans(300, 2, CONFIG)
        assert [p.s_t for p in plans[:2]] == sorted(
            {p.s_t for p in plans[:2]}, reverse=True
        )
        assert plans[-1].s == 0  # pure-sweep last resort
        assert all(p.n == 300 for p in plans)

    def test_trace_records_plan_and_stages(self):
        pattern = bijective_pattern(power_cycle(40, 2))
        coll = complete_collection(40, pattern.max_colour)
        cycle, trace = solve(coll, pattern, CONFIG)
        names = [s["name"] for s in trace["stages"]]
        assert names == [
            "reservoir", "endpoints", "absorber", "paths", "connect", "absorb",
        ]
        plan = trace["plan"]
        assert plan["n"] == 40 and plan["k"] == 2

    def test_pattern_colours_must_fit_collection(self):
        pattern = bijective_pattern(power_cycle(20, 2))
        coll = complete_collection(20, 3)
        with pytest.raises(InvalidInstanceError):
            solve(coll, pattern, CONFIG)

    def test_complete_sweep_small_sizes(self):
        # every feasible size below 35 solves on complete collections, for
        # all three powers; exercises all tail layout shapes (c, g, wrap)
        rng = random.Random(44)
        solved = 0
        for k, lo, hi in ((1, 3, 24), (2, 5, 34), (3, 7, 30)):
            cfg = PipelineConfig(
                alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=k + 5, seed=1
            )
            for n in range(lo, hi):
                pattern = random_pattern(power_cycle(n, k), 4, rng)
                coll = complete_collection(n, 4)
                try:
                    cycle, _ = solve(coll, pattern, cfg)
                except InfeasibleConfigError:
                    continue
                assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
                solved += 1
        assert solved > 60


class TestMoreValidation:
    def test_r_below_k_plus_one_rejected(self):
        pattern = bijective_pattern(power_cycle(20, 3))
        coll = complete_collection(20, pattern.max_colour)
        cfg = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=3)
        with pytest.raises(InvalidInstanceError):
            solve(coll, pattern, cfg)
