"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions
by module attribute.  A hook whose target is renamed or removed must fail
here, not first in ``perfbench/run.py --trace 1``."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from hampower import pipeline  # noqa: E402
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


def test_solve_records_gadget_and_connector_spans():
    coll = complete_collection(150, 4)
    pattern = random_pattern(power_cycle(150, 2), 4, random.Random(3))
    with spans.traced(spans.Tracer()) as tracer:
        cycle, trace = pipeline.solve(coll, pattern, CONFIG)
    summary = spans.Summary(tracer.take())
    s_t = trace["plan"]["s_t"]
    assert s_t >= 1
    assert summary.calls["pipeline.solve"] == 1
    assert summary.calls["absorber.gadget_embed"] == 3 * s_t
    # 3 s_t + 1 connectors chain the absorber, then the connect stage's own
    assert summary.calls["connectors.embed"] > 3 * s_t + 1
    assert summary.raised["absorber.gadget_embed"] == summary.raised["connectors.embed"] == 0


def test_solve_records_builder_and_sampler_spans():
    # n = 200, k = 3: the first plan is all builder paths and sweep (s_t = 0)
    coll = complete_collection(200, 4)
    pattern = random_pattern(power_cycle(200, 3), 4, random.Random(4))
    with spans.traced(spans.Tracer()) as tracer:
        cycle, trace = pipeline.solve(coll, pattern, CONFIG)
    summary = spans.Summary(tracer.take())
    plan = trace["plan"]
    attempts = {stage["name"]: stage["attempts"] for stage in trace["stages"]}
    assert trace["plan_index"] == 0 and plan["s"] >= 1
    assert summary.calls["pathbuilder.build"] == attempts["paths"] == 1
    assert summary.calls["matching.sample"] == plan["s"] * (plan["r"] - 1)
    assert summary.work["matching.sample"] > 0
    assert summary.raised["pathbuilder.build"] == summary.raised["matching.sample"] == 0
