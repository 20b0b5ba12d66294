"""Benchmark for ``hampower``: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload paths-k3 [--seed 0] [--seconds 10] [--trace 0|1]

The run builds the workload's inputs from ``--seed`` (several times; the
median is ``setup_s``), then repeats whole rounds of the workload's
``solve`` or oracle calls, each issued after the previous one returns,
until ``--seconds`` of rounds have passed.  After the timed part it checks
every distinct output independently (``checker.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, measured
without spans; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics from the spans (``spans.py``).  Results, and
the spans of a traced run, are also written under ``perfbench/results/``.

Times are reported at a reference interpreter speed.  The machine this was
sized on is shared, and its speed drifts by up to 1.7x over minutes, which
swamps any change worth measuring.  So a fixed pure-Python job, the probe,
is timed twice before the first set-up and twice after every set-up and
round.  Set-up times are multiplied by ``PROBE_REF_S`` over the median
probe time of the set-up phase, round and span times by ``PROBE_REF_S``
over the median of the probes from the last set-up on.  A time so scaled
is the wall time the block takes when the probe takes ``PROBE_REF_S``
seconds.  The raw wall times and probe times go to the results file.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
PROBE_REF_S = 0.25
PROBE_STEPS = 200_000
_PROBE_MASKS = tuple(random.Random(0).getrandbits(2000) for _ in range(64))

# (metric, unit, value of one traced round); counts and count ratios are
# exact, so they are taken from the first traced round, times are medians.
LAYER_METRICS = [
    ("core.verify_calls", "count", lambda s, r: s.calls["core.verify"]),
    ("core.verify_s", "s", lambda s, r: s.seconds["core.verify"]),
    ("core.restrict_calls", "count", lambda s, r: s.calls["core.restrict"]),
    ("core.restrict_s", "s", lambda s, r: s.seconds["core.restrict"]),
    ("pipeline.plan_s", "s", lambda s, r: s.seconds["pipeline.plan"]),
    ("pipeline.reservoir_s", "s", lambda s, r: s.seconds["pipeline.reservoir"]),
    ("pipeline.plans_per_solve", "plans/solve", lambda s, r: r.plans_per_solve),
    ("pipeline.self_s", "s", lambda s, r: s.self_seconds["pipeline"]),
    ("absorber.template_s", "s", lambda s, r: s.seconds["absorber.template"]),
    ("absorber.robust_matching_calls", "count", lambda s, r: s.calls["absorber.robust_matching"]),
    ("absorber.gadget_embed_calls", "count", lambda s, r: s.calls["absorber.gadget_embed"]),
    ("absorber.gadget_embed_s", "s", lambda s, r: s.seconds["absorber.gadget_embed"]),
    ("absorber.absorb_s", "s", lambda s, r: s.seconds["absorber.absorb"]),
    ("absorber.self_s", "s", lambda s, r: s.self_seconds["absorber"]),
    ("pathbuilder.build_calls", "count", lambda s, r: s.calls["pathbuilder.build"]),
    ("pathbuilder.aborts", "count", lambda s, r: s.raised["pathbuilder.build"]),
    ("pathbuilder.self_s", "s", lambda s, r: s.self_seconds["pathbuilder"]),
    ("matching.sample_calls", "count", lambda s, r: s.calls["matching.sample"]),
    ("matching.sample_edges", "count", lambda s, r: s.work["matching.sample"]),
    ("matching.sample_s", "s", lambda s, r: s.seconds["matching.sample"]),
    ("matching.max_matching_calls", "count", lambda s, r: s.calls["matching.max_matching"]),
    ("matching.max_matching_s", "s", lambda s, r: s.seconds["matching.max_matching"]),
    ("connectors.embed_calls", "count", lambda s, r: s.calls["connectors.embed"]),
    ("connectors.embed_failures", "count", lambda s, r: s.raised["connectors.embed"]),
    ("connectors.embed_s", "s", lambda s, r: s.seconds["connectors.embed"]),
    ("connectors.extend_calls", "count", lambda s, r: s.calls["connectors.extend"]),
    ("oracle.nodes", "count", lambda s, r: r.oracle_nodes),
    ("oracle.find_s", "s", lambda s, r: s.seconds["oracle.find"]),
    ("oracle.count_s", "s", lambda s, r: s.seconds["oracle.count"]),
    ("oracle.nodes_per_s", "1/s", lambda s, r: r.oracle_nodes / (
        s.seconds["oracle.find"] + s.seconds["oracle.count"] or 1.0)),
]
EXACT_UNITS = ("count", "plans/solve")


def probe() -> float:
    """Seconds a fixed pure-Python job takes now.  Like hampower's hot loops
    it intersects 2000-bit masks, counts and picks bits, and fills a dict."""
    started = time.perf_counter()
    table, acc = {}, 0
    for i in range(PROBE_STEPS):
        mask = _PROBE_MASKS[i & 63] & _PROBE_MASKS[(7 * i + 3) & 63]
        acc += mask.bit_count() + (mask & -mask).bit_length()
        table[i & 1023] = (i, acc)
        if i % 7 == 0:
            table.pop(i & 511, None)
    return time.perf_counter() - started


class Round:
    """One round: its raw wall time and what its outputs say (``None``
    where a call raised)."""

    def __init__(self, ops, outputs, seconds: float) -> None:
        self.seconds = seconds
        plans = [out[1] for op, out in zip(ops, outputs) if op.kind == "solve" and out]
        self.plans_per_solve = sum(plans) / len(plans) if plans else 0.0
        self.oracle_nodes = sum(
            out[-1] for op, out in zip(ops, outputs) if op.kind != "solve" and out
        )


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "hampower" / "__init__.py").is_file():
        print(f"perfbench: no hampower package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    from checker import CheckError
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    setup = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    tracing = (lambda: spans.traced(tracer)) if tracer else nullcontext
    setup_probes = [probe(), probe()]

    setup_times, setup_spans = [], []
    for _ in range(SETUP_REPS):
        inputs = None  # drop the previous inputs before building the next
        with tracing():
            started = time.perf_counter()
            inputs = setup(args.seed)
            setup_times.append(time.perf_counter() - started)
        setup_probes += probe(), probe()
        if tracer:
            setup_spans.append(tracer.take())
    ops = inputs.ops
    round_probes = setup_probes[-2:]

    attempted = failed = 0
    seen: list[set] = [set() for _ in ops]
    untraced: list[Round] = []
    traced: list[tuple[Round, list]] = []
    errors: set[str] = set()
    started = time.perf_counter()
    while True:
        for with_spans in (False, True) if tracer else (False,):
            outputs = []
            with tracing() if with_spans else nullcontext():
                round_started = time.perf_counter()
                for op in ops:
                    try:
                        outputs.append(op.call())
                    except Exception as exc:  # a failed operation, counted
                        failed += 1
                        errors.add(f"{op.kind}: {type(exc).__name__}: {exc}")
                        outputs.append(None)
                done = Round(ops, outputs, time.perf_counter() - round_started)
            round_probes += probe(), probe()
            attempted += len(ops)
            for i, out in enumerate(outputs):
                if out is not None:
                    seen[i].add(out)
            if with_spans:
                traced.append((done, tracer.take()))
            else:
                untraced.append(done)
        if time.perf_counter() - started >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each phase is scaled by its own probes; their median ignores a stall
    setup_scale = PROBE_REF_S / statistics.median(setup_probes)
    scale = PROBE_REF_S / statistics.median(round_probes)

    correct = True
    try:
        for check in inputs.checks:
            check()
        for op, outs in zip(ops, seen):
            for out in outs:
                op.check(out)
    except CheckError as exc:
        correct = False
        errors.add(f"check: {exc}")
    for line in sorted(errors):
        print(f"perfbench: {line}", file=sys.stderr)

    untraced_s = statistics.median(r.seconds for r in untraced) * scale
    if tracer:
        generate = [spans.Summary(s, setup_scale).seconds["instances.generate"] for s in setup_spans]
        metrics = {"instances.generate_s": (statistics.median(generate), "s")}
        summaries = [(r, spans.Summary(s, scale)) for r, s in traced]
        first_round, first = summaries[0]
        for name, unit, value in LAYER_METRICS:
            if unit in EXACT_UNITS:
                metrics[name] = (value(first, first_round), unit)
            else:
                metrics[name] = (statistics.median(value(s, r) for r, s in summaries), unit)
        traced_s = statistics.median(r.seconds for r, _ in traced) * scale
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
            "round_s": (untraced_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "result": result,
        "raw_setup_seconds": setup_times,
        "raw_round_seconds": [r.seconds for r in untraced],
        "setup_probe_seconds": setup_probes,
        "round_probe_seconds": round_probes,
    }
    if tracer:
        record["span_fields"] = ["name", "start", "end", "parent", "raised", "work"]
        record["traced_rounds"] = [s for _, s in traced]
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
