"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions
by module attribute.  A hook whose target is renamed or removed must fail
here, not first in ``perfbench/run.py --trace 1``."""

import functools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from helpers import fallback_instance  # noqa: E402
from hampower import instances, oracle, pipeline  # noqa: E402
from hampower.core import power_cycle  # noqa: E402
from hampower.instances import complete_collection, random_pattern  # noqa: E402

CONFIG = pipeline.PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7, seed=3)


def test_every_hook_resolves_and_is_restored():
    hooks = spans._hooks()
    originals = [getattr(owner, attr) for owner, attr, _, _ in hooks]
    assert all(map(callable, originals))
    with spans.traced(spans.Tracer()):
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr, _, _), fn in zip(hooks, originals))
    assert all(getattr(owner, attr) is fn for (owner, attr, _, _), fn in zip(hooks, originals))


def _traced(coll, pattern, config) -> tuple[spans.Summary, dict]:
    with spans.traced(spans.Tracer()) as tracer:
        cycle, trace = pipeline.solve(coll, pattern, config)
    return spans.Summary(tracer.take()), trace


@functools.cache
def _traced_solve(n: int, k: int, pattern_seed: int) -> tuple[spans.Summary, dict]:
    coll = complete_collection(n, 4)
    pattern = random_pattern(power_cycle(n, k), 4, random.Random(pattern_seed))
    return _traced(coll, pattern, CONFIG)


@functools.cache
def _traced_fallback_solve() -> tuple[spans.Summary, dict]:
    return _traced(*fallback_instance())


def test_solve_records_gadget_and_connector_spans():
    summary, trace = _traced_solve(150, 2, 3)
    plan = trace["plan"]
    s_t = plan["s_t"]
    assert s_t >= 1
    assert summary.calls["pipeline.solve"] == 1
    assert summary.calls["absorber.gadget_embed"] == 3 * s_t
    # 3 s_t + 1 connectors chain the absorber; s + c + 1 join the cycle
    assert summary.calls["connectors.embed"] == (3 * s_t + 1) + (plan["s"] + plan["c"] + 1)
    assert summary.calls["connectors.extend"] == plan["g"]
    # each absorb is one robust matching, one max_matching through absorber's name
    absorbs = summary.calls["absorber.absorb"]
    assert absorbs >= 1
    assert summary.calls["absorber.robust_matching"] == absorbs
    assert summary.calls["matching.max_matching"] == absorbs
    assert summary.raised["absorber.gadget_embed"] == summary.raised["connectors.embed"] == 0


def test_solve_records_builder_and_sampler_spans():
    # n = 200, k = 3: the first plan is all builder paths and sweep (s_t = 0)
    summary, trace = _traced_solve(200, 3, 4)
    plan = trace["plan"]
    attempts = Counter(e["stage"] for e in trace["events"])
    assert trace["plan_index"] == 0 and plan["s"] >= 1
    assert summary.calls["pathbuilder.build"] == attempts["paths"] == 1
    assert summary.calls["matching.sample"] == plan["s"] * (plan["r"] - 1)
    assert summary.work["matching.sample"] > 0
    assert summary.raised["pathbuilder.build"] == summary.raised["matching.sample"] == 0


def test_every_solver_span_records_a_call():
    # a call that moves off a hooked name would leave its span, and the
    # benchmark's per-layer metric, silently at 0
    calls = Counter()
    for args in ((150, 2, 3), (200, 3, 4)):
        summary, trace = _traced_solve(*args)
        calls += summary.calls
    assert trace["plan"]["c"] >= 1 and trace["plan"]["g"] >= 1  # sweep and greedy both run
    names = {name for owner, _, name, _ in spans._hooks() if owner not in (instances, oracle)}
    assert "connectors.extend" in names
    assert sorted(name for name in names if calls[name] == 0) == []


# each stage's one hooked call, made once per attempt
STAGE_SPANS = {
    "reservoir": "pipeline.reservoir",
    "absorber": "absorber.build",
    "paths": "pathbuilder.build",
    "absorb": "absorber.absorb",
}


TRACED_SOLVES = {
    "gadgets": functools.partial(_traced_solve, 150, 2, 3),
    "builder": functools.partial(_traced_solve, 200, 3, 4),
    "fallback": _traced_fallback_solve,
}


@pytest.mark.parametrize("name", TRACED_SOLVES)
def test_events_match_the_stage_spans(name):
    # the event log and the spans count the same attempts: one call per
    # event, and a raised span per failed event
    summary, trace = TRACED_SOLVES[name]()
    events = Counter(e["stage"] for e in trace["events"])
    failed = Counter(e["stage"] for e in trace["events"] if "error" in e)
    assert {stage: events[stage] for stage in STAGE_SPANS} == {
        stage: summary.calls[name] for stage, name in STAGE_SPANS.items()
    }
    assert {stage: failed[stage] for stage in STAGE_SPANS} == {
        stage: summary.raised[name] for stage, name in STAGE_SPANS.items()
    }
    if name == "fallback":  # its abandoned plans fail in the absorber and the paths
        assert trace["plan_index"] == 4 and failed["absorber"] == failed["paths"] == 1
