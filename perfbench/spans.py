"""In-memory spans around the calls from one hampower layer into the next.

:func:`traced` replaces the module-level names through which the package
makes those calls with wrappers that record one span per call (name, start,
end, parent, whether it raised, and an optional work count) and puts the
originals back on exit.  Nothing under ``src/`` changes; the spans sit at
the layer boundaries the package already has.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from hampower import absorber, connectors, instances, oracle, pathbuilder, pipeline

NAME, START, END, PARENT, RAISED, WORK = range(6)


def _hooks():
    """(owner, attribute, span name, work count of the call or None)."""
    verify = [
        (module, "verify_coloured_embedding", "core.verify", None)
        for module in (pipeline, pathbuilder, connectors, absorber, oracle)
    ]
    generators = [
        (instances, name, "instances.generate", None)
        for name in (
            "complete_collection",
            "random_min_degree_collection",
            "lowerbound_construction",
            "random_pattern",
            "bijective_pattern",
        )
    ]
    aux_edges = lambda graph, *args, **kwargs: graph.edge_count
    return verify + generators + [
        (pipeline, "solve", "pipeline.solve", None),
        (pipeline, "candidate_plans", "pipeline.plan", None),
        (pipeline, "sample_reservoir", "pipeline.reservoir", None),
        (pipeline, "restrict_pattern", "core.restrict", None),
        (absorber, "restrict_pattern", "core.restrict", None),
        (pipeline, "build_template", "absorber.template", None),
        (pipeline, "build_absorbing_structure", "absorber.build", None),
        (pipeline, "absorb", "absorber.absorb", None),
        (absorber, "embed_by_degeneracy", "absorber.gadget_embed", None),
        (absorber.Template, "robust_matching", "absorber.robust_matching", None),
        (absorber, "max_matching", "matching.max_matching", None),
        (pipeline, "build_path_collection", "pathbuilder.build", None),
        (pathbuilder, "sample_perfect_matching", "matching.sample", aux_edges),
        (pipeline, "embed_connector", "connectors.embed", None),
        (absorber, "embed_connector", "connectors.embed", None),
        (pipeline, "extend_by_one", "connectors.extend", None),
        (oracle, "find_coloured_hamilton_power", "oracle.find", None),
        (oracle, "count_coloured_hamilton_powers", "oracle.count", None),
    ]


class Tracer:
    """Collects spans as lists ``[name, start, end, parent, raised, work]``;
    ``parent`` is the index of the enclosing span, or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, work=None):
        open_ = self._open

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, False,
                      work(*args, **kwargs) if work else 0]
            open_.append(len(self.spans))
            self.spans.append(record)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = time.perf_counter()
                open_.pop()

        return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every hooked call through ``tracer`` while the block runs."""
    saved = []
    try:
        for owner, attr, name, work in _hooks():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Summary:
    """Per-name totals of a list of spans, plus self time per layer.

    A layer is the part of a span name before the first dot.  A span's self
    time is its duration minus the durations of its direct children, so a
    layer's self time excludes the layers it calls.  Durations are
    multiplied by ``scale`` (see the speed probe in ``run.py``).
    """

    def __init__(self, spans: list[list], scale: float = 1.0) -> None:
        children = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                children[span[PARENT]] += span[END] - span[START]
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.work: Counter = Counter()
        self.self_seconds: dict[str, float] = defaultdict(float)
        for i, span in enumerate(spans):
            name, duration = span[NAME], span[END] - span[START]
            self.seconds[name] += duration * scale
            self.calls[name] += 1
            self.raised[name] += span[RAISED]
            self.work[name] += span[WORK]
            self.self_seconds[name.split(".", 1)[0]] += (duration - children[i]) * scale
