import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from helpers import fallback_instance, reference_candidate_plans, reference_segment_starts
from hampower.core import (
    ColourPattern,
    GraphCollection,
    Layout,
    host_edges,
    power_cycle,
    verify_coloured_embedding,
)
from hampower import pipeline
from hampower.errors import (
    ConnectionFailedError,
    HamPowerError,
    InfeasibleConfigError,
    InvalidInstanceError,
    StageFailedError,
)
from hampower.instances import (
    bijective_pattern,
    complete_collection,
    multipartite_collection,
    random_min_degree_collection,
    random_pattern,
)
from hampower.pipeline import (
    PipelineConfig,
    Plan,
    candidate_plans,
    feasibility_floor,
    sample_reservoir,
    solve,
)

CONFIG = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=0)
CONFIG_K3 = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=8, seed=0)


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

    @pytest.mark.parametrize("sampler", ["exact", "turbo"])
    def test_fast_is_the_only_sampler_mode(self, sampler):
        with pytest.raises(InvalidInstanceError, match="sampler mode must be 'fast'"):
            replace(CONFIG, sampler_mode=sampler)


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
        for plan in _sweep_first_plans():
            plan.layout()  # raises on any overlap or gap
            checked += 1
        assert checked > 150

    def test_layout_starts_match_the_closed_forms(self):
        plans = _sweep_first_plans()
        for k in (2, 3):
            for n in PLANNER_NS:
                plans += candidate_plans(n, k, CONFIG)[:1]
        assert len(plans) > 900
        for plan in plans:
            segments = plan.layout().segments
            assert [(seg.name, seg.start) for seg in segments] == reference_segment_starts(plan)

    def test_layout_checked_once_per_plan(self):
        plan = candidate_plans(200, 3, CONFIG)[0]
        plan.layout()
        hits = Plan.layout.cache_info().hits
        replace(plan).layout()
        assert Plan.layout.cache_info().hits == hits + 1

    @pytest.mark.parametrize(
        "dg, message",
        [
            (1, r"host edge \(\d+, \d+\) assigned twice \(at final\)"),
            (-1, "^layout error: 3 "),
            (7, r"host edge \(0, 1\) assigned twice \(at greedy\)"),
        ],
    )
    def test_broken_layout_raises_on_every_call(self, dg, message):
        # one greedy extension too many runs into the final connector, one
        # too few leaves the last greedy position's k back-edges uncovered,
        # and 2k+1 too many run past position n-1, wrap and meet the absorber
        plan = candidate_plans(200, 3, CONFIG)[0]
        assert plan.g == 2
        plan.layout()
        broken = replace(plan, g=plan.g + dg)
        for _ in range(2):
            with pytest.raises(HamPowerError, match=message):
                broken.layout()

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_shifted_leftover_raises(self, shift):
        # a leftover has no edges of its own, so only its position shows
        # the shift: it lands on an internal of the connector beside it
        layout = candidate_plans(200, 3, CONFIG)[0].layout()
        shifted = tuple(
            replace(seg, start=seg.start + shift) if seg.name == "leftover 2" else seg
            for seg in layout.segments
        )
        with pytest.raises(HamPowerError, match="^layout error: host position .* placed twice"):
            Layout(layout.host, shifted)


def _sweep_first_plans() -> list[Plan]:
    """The first plan at every feasible n < 90 for k = 1, 2, 3."""
    plans = []
    for k in (1, 2, 3):
        cfg = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=k + 5)
        for n in range(2 * k + 1, 90):
            plans += candidate_plans(n, k, cfg)[:1]
    return plans


# every n up to 400, then the sizes the benchmarks and sweeps use
PLANNER_NS = [*range(3, 401), 500, 777, 1000, 1200, 1500, 2000, 3000, 5000]


def _planner_configs(k: int) -> list[PipelineConfig]:
    return [
        CONFIG,
        replace(CONFIG, r=k + 1),
        replace(CONFIG, epsilon=0.5, r=8),
        # t_target = 0.3 n is past t's cap of 39 for n >= 133, and at k = 1
        # past the first feasible t of s_t = 0, so that several t tie on s
        PipelineConfig(alpha=0.5, beta=0.32, gamma=0.3, epsilon=0.1, r=7),
    ]


class TestPlannerScan:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bounded_scan_matches_the_full_scan(self, k):
        for config in _planner_configs(k):
            for n in PLANNER_NS:
                full = reference_candidate_plans(n, k, config)
                assert candidate_plans(n, k, config) == full, (n, config)


class TestSampleReservoir:
    def test_complete_collection_accepts_first_sample(self):
        # one uniform draw: the first rng.sample, whatever the graphs
        z = sample_reservoir(20, 6, random.Random(1))
        assert z == frozenset(random.Random(1).sample(range(20), 6))

    @pytest.mark.parametrize("size", [0, 20, 21])
    def test_size_must_give_a_proper_subset(self, size):
        with pytest.raises(InvalidInstanceError):
            sample_reservoir(20, size, random.Random(1))

    def test_isolated_vertex_always_rejected(self):
        # vertex 0 has no edge in any colour, so no Hamilton power exists:
        # the draw does not look at the graphs, and the stages that use it
        # must reject every attempt instead of returning a cycle
        coll = GraphCollection(60, [_isolated_vertex_rows(60)] * 3)
        for seed in range(3):
            rng = random.Random(seed)
            pattern = random_pattern(power_cycle(60, 2), 3, rng)
            for mode in ("strict", "best-effort"):
                cfg = replace(CONFIG, seed=seed, mode=mode)
                with pytest.raises(StageFailedError):
                    solve(coll, pattern, cfg)

    def test_dense_random_collections_accept_within_three_retries(self):
        # delta >= (1 - 1/2k + alpha) n with k=2, alpha=0.2: fraction 0.95;
        # with three attempts per stage, the first plan's reservoir serves
        accepted_fast = 0
        cfg = replace(CONFIG, max_retries=3)
        for seed in range(50):
            rng = random.Random(200 + seed)
            coll = random_min_degree_collection(200, 2, 0.95, rng)
            pattern = random_pattern(power_cycle(200, 2), 2, rng)
            cycle, trace = solve(coll, pattern, replace(cfg, seed=seed))
            assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
            if trace["plan_index"] == 0:
                accepted_fast += 1
        assert accepted_fast >= 48


def _isolated_vertex_rows(n):
    """Mask rows of K_n with vertex 0 made isolated."""
    rest = ((1 << n) - 1) ^ 1
    return [0] + [rest ^ (1 << v) for v in range(1, n)]


class TestReservoirCertificate:
    """No degree scan certifies the reservoir: the attempts of the stages
    that use it do, so a degree defect counts only where the pattern needs it."""

    def test_isolated_vertex_reported_in_its_colour(self):
        # vertex 0 is isolated in colour 3 only, after two complete colours:
        # a pattern that needs colour 3 everywhere is rejected, one that
        # avoids colour 3 solves on its first plan, and a mixed pattern keeps
        # colour 3 away from vertex 0
        n = 60
        complete = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
        coll = GraphCollection(n, [complete, complete, _isolated_vertex_rows(n)])
        host = power_cycle(n, 2)
        only_3 = ColourPattern(host, {e: 3 for e in host_edges(host)})
        with pytest.raises(StageFailedError):
            solve(coll, only_3, CONFIG)
        for seed in range(3):
            rng = random.Random(seed)
            for colours in (2, 3):
                pattern = random_pattern(host, colours, rng)
                cycle, trace = solve(coll, pattern, replace(CONFIG, seed=seed))
                assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
                if colours == 2:
                    assert trace["plan_index"] == 0
                at = cycle.vertices.index(0)
                assert all(
                    pattern.colours[e] != 3
                    for e in host_edges(host) if at in e
                )


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
        assert all(e["attempt"] == 0 and "error" not in e for e in trace["events"])
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
        # at min degree 0.8n with one attempt per stage, plan 0's absorber
        # finds no connector image and the path-builder plans that follow
        # meet levels without a perfect matching; solve must back off to a
        # later plan instead of giving up
        coll, pattern, cfg = fallback_instance()
        cycle, trace = solve(coll, pattern, cfg)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        # one attempt per stage: each abandoned plan failed exactly once
        failed = [e for e in trace["events"] if "error" in e]
        assert [e["plan_index"] for e in failed] == list(range(trace["plan_index"]))
        assert trace["plan_index"] >= 2
        stages = [e["stage"] for e in failed]
        assert stages[0] == "absorber" and "paths" in stages[1:]
        assert all(
            "no perfect matching" in e["message"] and e["error"] == "NoMatchingError"
            and e["fields"].keys() == {"step", "level"}
            for e in failed if e["stage"] == "paths"
        )
        json.dumps(trace)  # every event, its fields too, is plain JSON

    def test_dense_random_solves_on_first_plan(self):
        # min degree 0.9n in 300 graphs on 150 vertices: no reservoir passes
        # a per-vertex degree gate over 45 000 vertex-colour pairs, but the
        # first plan's connectors and absorber embed
        rng = random.Random(0)
        coll = random_min_degree_collection(150, 300, 0.9, rng)
        pattern = bijective_pattern(power_cycle(150, 2), rng)
        cycle, trace = solve(coll, pattern, CONFIG)
        assert verify_coloured_embedding(coll, pattern, cycle.vertices).ok
        assert trace["plan_index"] == 0
        assert {e["plan_index"] for e in trace["events"]} == {0}

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
        names = [e["stage"] for e in trace["events"] if "error" not in e]
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


STAGES = ["reservoir", "endpoints", "absorber", "paths", "connect", "absorb"]


class TestEventLog:
    """One event per stage attempt, over every plan a solve tries."""

    def test_schema_and_values_under_a_fixed_clock(self, fixed_clock):
        pattern = bijective_pattern(power_cycle(40, 2))
        coll = complete_collection(40, pattern.max_colour)
        _, trace = solve(coll, pattern, CONFIG)
        assert trace.keys() == {"seed", "mode", "plan", "plan_index", "verified", "events"}
        assert trace["events"] == [
            {"plan_index": 0, "stage": stage, "attempt": 0, "elapsed_ms": 1.0}
            for stage in STAGES
        ]
        coll, pattern, cfg = fallback_instance()
        _, trace = solve(coll, pattern, cfg)
        assert trace["events"][2] == {
            "plan_index": 0, "stage": "absorber", "attempt": 0, "elapsed_ms": 1.0,
            "error": "ConnectionFailedError",
            "message": "no candidate for connector position 3 (internal 2 of 2) "
                       "at connector 6, pool of 2",
            "fields": {"position": 3, "segment": "connector 6", "pool": 2},
        }

    def test_attempts_count_up_within_a_stage(self):
        # a stage's events are its attempts 0, 1, ... in order, and only the
        # last of a stage that succeeds is not a failure
        rng = random.Random(2)
        coll = random_min_degree_collection(150, 4, 0.9, rng)
        pattern = random_pattern(power_cycle(150, 3), 4, rng)
        _, trace = solve(coll, pattern, replace(CONFIG, seed=2, r=8))
        runs = Counter((e["plan_index"], e["stage"]) for e in trace["events"])
        assert max(runs.values()) > 1
        for key, tries in runs.items():
            run = [e for e in trace["events"] if (e["plan_index"], e["stage"]) == key]
            assert [e["attempt"] for e in run] == list(range(tries))
            assert all("error" in e for e in run[:-1])

    def test_failed_solve_carries_every_plans_events(self):
        coll = GraphCollection(60, [_isolated_vertex_rows(60)] * 3)
        pattern = random_pattern(power_cycle(60, 2), 3, random.Random(0))
        with pytest.raises(StageFailedError) as err:
            solve(coll, pattern, CONFIG)
        events = err.value.events
        plan_indices = [e["plan_index"] for e in events]
        assert plan_indices == sorted(plan_indices)
        assert set(plan_indices) == set(range(len(candidate_plans(60, 2, CONFIG))))
        for plan_index in set(plan_indices):  # each plan ends in a failed attempt
            assert "error" in [e for e in events if e["plan_index"] == plan_index][-1]
        assert events[-1]["stage"] == err.value.stage
        assert events[-1]["message"] == str(err.value.cause)

    def test_greedy_padding_failure_names_its_position_segment_and_pool(self, monkeypatch):
        # the second of two greedy steps sees an empty pool: the failure
        # names that step's host position and the pool its draw saw
        plan = candidate_plans(200, 3, CONFIG)[0]
        (greedy,) = [seg for seg in plan.layout().segments if seg.name == "greedy"]
        assert plan.g == 2
        extend, pools = pipeline.extend_by_one, []

        def dry_second_step(collection, path, colours, pool, rng):
            pools.append(pool.bit_count())
            return extend(collection, path, colours, pool if len(pools) == 1 else 0, rng)

        monkeypatch.setattr(pipeline, "extend_by_one", dry_second_step)
        coll = complete_collection(200, 4)
        pattern = random_pattern(power_cycle(200, 3), 4, random.Random(1))
        with pytest.raises(StageFailedError) as err:
            solve(coll, pattern, replace(CONFIG, mode="strict"))
        cause = err.value.cause
        assert isinstance(cause, ConnectionFailedError)
        assert pools == [5, 4]  # g + k + s_t = 5 reservoir vertices left at the first step
        fields = {"position": greedy.start + 1, "segment": "greedy", "pool": 4}
        assert vars(cause) == fields == err.value.events[-1]["fields"]
        assert str(cause) == "no candidate vertex extends the path at greedy, pool of 4"
        assert str(cause.__cause__) == "no candidate vertex extends the path"


def _multipartite_instance(n, k, p, seed, r):
    rng = random.Random(seed)
    coll, _ = multipartite_collection(n, 2 * k, 3, p, rng)
    return coll, random_pattern(power_cycle(n, k), 3, rng), replace(CONFIG, seed=seed, r=r)


def _sweep_instance(seed):
    rng = random.Random(seed)
    coll = random_min_degree_collection(150, 450, 0.85, rng)
    return coll, bijective_pattern(power_cycle(150, 3), rng), replace(CONFIG, seed=seed, r=8)


EVENT_LOG_SOLVES = {
    # gadget, builder, sweep and final connector failures; 3-6 plans a solve
    "multipartite-600": lambda: [
        _multipartite_instance(600, 2, p, seed, 7) for p in (0, 0.1) for seed in (0, 1)
    ],
    "fallback": lambda: [fallback_instance()],
    # at the threshold with r = k + 1; three end in StageFailedError
    "multipartite-12": lambda: [
        _multipartite_instance(12, k, 0, seed, k + 1) for k in (2, 3) for seed in range(6)
    ],
    "sweep-k3": lambda: [_sweep_instance(seed) for seed in (200, 201)],
}


class TestEventLogDigest:
    """Each solve's cycle, or the stage it failed at, with its events less
    ``elapsed_ms``, pinned by digest: a change to a failed attempt's error,
    message or fields, or to the order of attempts, shows here."""

    @staticmethod
    def _record(coll, pattern, config):
        try:
            cycle, trace = solve(coll, pattern, config)
            outcome, events = cycle.vertices, trace["events"]
        except StageFailedError as exc:
            outcome, events = exc.stage, exc.events
        return outcome, [{key: v for key, v in e.items() if key != "elapsed_ms"} for e in events]

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("multipartite-600", "10cab8bc0b83c3afde8d6974526b7084afbf83229fe752df8f7c2ca9834d3765"),
            ("fallback", "548c0bee8ae146f9ebad21c0d9c5eb3ae8befef85c3579b677f295671017635d"),
            ("multipartite-12", "9c93446d37100810186a888e32e869393a3e6392738e2348f5567805de5e43b4"),
            ("sweep-k3", "16e60a34eb80fe434b6b343b0cb78019e02da4d36db7e7ef6b08c2bdca693df9"),
        ],
    )
    def test_outcomes_and_events_digest(self, family, digest):
        records = [self._record(*instance) for instance in EVENT_LOG_SOLVES[family]()]
        assert hashlib.sha256(repr(records).encode()).hexdigest() == digest


class TestGoldenOutput:
    """Cycles pinned by digest, on plans with a real template absorber
    (s_t >= 1): a change to any stage's output or random draws shows here
    as a different cycle."""

    @pytest.mark.parametrize(
        "k, seed, digest",
        [
            (2, 7, "08c5fe6262f4809ea7f0c31a727d5905c26b5185a485be86404b5ba7af7e89f9"),
            (3, 8, "aad775984742c72546cbd0529c899c286a6af8299a7337372ef06e0aac619822"),
        ],
    )
    def test_cycle_digest_with_template_absorber(self, k, seed, digest):
        coll = complete_collection(600, 4)
        pattern = random_pattern(power_cycle(600, k), 4, random.Random(seed))
        cycle, trace = solve(coll, pattern, replace(CONFIG, seed=seed))
        assert trace["plan"]["s_t"] >= 1
        assert hashlib.sha256(repr(cycle.vertices).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "k, delta, seed, r, digest",
        [
            (2, 0.95, 1, 7, "b77c32b27bd5102aad4e0cd3fe703df2f0feb8b45a68c89d679c4552b51dcd84"),
            (3, 0.9, 2, 8, "f65fad77114713dd3c29a36e674f7ad7e851e1430b6c728a06136c0abca94a05"),
        ],
    )
    def test_cycle_digest_on_random_collection(self, k, delta, seed, r, digest):
        # in copies of K_n every neighbour mask is full, so a dropped colour
        # constraint only changes the output on a collection with non-edges
        rng = random.Random(seed)
        coll = random_min_degree_collection(150, 4, delta, rng)
        pattern = random_pattern(power_cycle(150, k), 4, rng)
        cycle, trace = solve(coll, pattern, replace(CONFIG, seed=seed, r=r))
        attempts = Counter(
            e["stage"] for e in trace["events"] if e["plan_index"] == trace["plan_index"]
        )
        if k == 2:
            assert trace["plan"]["s_t"] == 1
        else:
            assert trace["plan"]["s"] == 9 and attempts["connect"] > 1
        assert hashlib.sha256(repr(cycle.vertices).encode()).hexdigest() == digest


class TestMoreValidation:
    def test_r_below_k_plus_one_rejected(self):
        pattern = bijective_pattern(power_cycle(20, 3))
        coll = complete_collection(20, pattern.max_colour)
        cfg = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=3)
        with pytest.raises(InvalidInstanceError):
            solve(coll, pattern, cfg)
