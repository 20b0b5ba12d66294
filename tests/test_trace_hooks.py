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
