"""Command-line front end: solve, verify, oracle, gen, experiment.

Exit codes: 0 success / found, 2 not-found or solver abort (distinguished in
the printed output), 1 usage or I/O error.  All randomness flows from one
64-bit seed through named per-stage streams, so identical argv produce
identical outputs apart from wall-clock timing fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Sequence

from . import core, instances, oracle, pipeline
from .errors import HamPowerError, InfeasibleConfigError, InvalidInstanceError, StageFailedError

CSV_FIELDS = [
    "seed", "n", "k", "r", "delta_frac", "mode",
    "stage_reached", "success", "nodes_or_retries", "runtime_ms",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hampower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the solver flags that `solve` and `experiment sweep` share
    solver = _Parser(add_help=False)
    solver.add_argument("--alpha", type=float, default=0.2)
    solver.add_argument("--beta", type=float, default=0.05)
    solver.add_argument("--gamma", type=float, default=0.01)
    solver.add_argument("--epsilon", type=float, default=0.1)
    solver.add_argument("--seed", type=int, default=0)
    solver.add_argument("--mode", choices=["strict", "best-effort"], default="best-effort")

    p_solve = sub.add_parser("solve", parents=[solver], help="run the constructive solver")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--pattern", required=True)
    p_solve.add_argument("--r", type=int, default=7)
    p_solve.add_argument("--retries", type=int, default=8)
    p_solve.add_argument("--out", required=True, help="cycle JSON output path")
    p_solve.add_argument("--trace", help="trace JSON output path (default: <out>.trace.json)")

    p_verify = sub.add_parser("verify", help="re-check a cycle against instance and pattern")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--pattern", required=True)
    p_verify.add_argument("--cycle", required=True)

    p_oracle = sub.add_parser("oracle", help="exhaustive existence search")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--pattern", required=True)
    p_oracle.add_argument("--budget", type=int, default=None)
    p_oracle.add_argument("--count", action="store_true")

    p_gen = sub.add_parser("gen", help="instance/pattern generators")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    g_complete = gen_sub.add_parser("complete")
    g_complete.add_argument("--n", type=int, required=True)
    g_complete.add_argument("--m", type=int, required=True)
    g_complete.add_argument("--out-instance", required=True)

    g_random = gen_sub.add_parser("random")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--m", type=int, required=True)
    g_random.add_argument("--delta", type=float, required=True)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.add_argument("--out-instance", required=True)

    g_lower = gen_sub.add_parser("lowerbound")
    g_lower.add_argument("--k", type=int, required=True)
    g_lower.add_argument("--p", type=int, required=True)
    g_lower.add_argument("--orientation", choices=["figure", "text"], default="figure")
    g_lower.add_argument("--out-instance", required=True)
    g_lower.add_argument("--out-pattern", required=True)

    p_exp = sub.add_parser("experiment", help="threshold sweep experiments")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)
    e_sweep = exp_sub.add_parser("sweep", parents=[solver])
    e_sweep.add_argument("--k", type=int, required=True)
    e_sweep.add_argument("--n", type=int, required=True)
    e_sweep.add_argument("--delta-from", type=float, required=True)
    e_sweep.add_argument("--delta-to", type=float, required=True)
    e_sweep.add_argument("--delta-step", type=float, required=True)
    e_sweep.add_argument("--trials", type=int, required=True)
    e_sweep.add_argument("--r", type=int, default=None, help="default k+5")
    e_sweep.add_argument("--out", required=True, help="CSV output path")
    return parser


def _load_instance(path: str) -> core.GraphCollection:
    return core.collection_from_dict(core.load_json(path))


def _load_pattern(path: str) -> core.ColourPattern:
    return core.pattern_from_dict(core.load_json(path))


def _config(args, **fields) -> pipeline.PipelineConfig:
    """The solver configuration of the shared flags, updated by ``fields``."""
    shared = dict(
        alpha=args.alpha, beta=args.beta, gamma=args.gamma, epsilon=args.epsilon,
        seed=args.seed, mode=args.mode,
    )
    return pipeline.PipelineConfig(**{**shared, **fields})


def _cmd_solve(args) -> int:
    collection = _load_instance(args.instance)
    pattern = _load_pattern(args.pattern)
    config = _config(args, r=args.r, max_retries=args.retries)
    trace_path = args.trace or (args.out + ".trace.json")
    try:
        cycle, trace = pipeline.solve(collection, pattern, config)
    except InfeasibleConfigError as exc:
        print(f"INFEASIBLE: {exc}")
        return 2
    except StageFailedError as exc:
        print(f"ABORT at stage {exc.stage}: {exc.cause}")
        return 2
    # re-verify in-process before claiming success
    check = core.verify_coloured_embedding(collection, pattern, cycle.vertices)
    if not check.ok:
        print(f"ERROR: produced cycle fails verification at {check.violation}")
        return 2
    core.save_json(args.out, core.cycle_to_dict(cycle))
    core.save_json(trace_path, trace)
    print(f"SOLVED n={collection.n} k={cycle.k} (cycle -> {args.out})")
    return 0


def _cmd_verify(args) -> int:
    collection = _load_instance(args.instance)
    pattern = _load_pattern(args.pattern)
    cycle = core.cycle_from_dict(core.load_json(args.cycle))
    result = core.verify_coloured_embedding(collection, pattern, cycle.vertices)
    if result.ok:
        print("VALID")
        return 0
    print(f"INVALID at host edge {result.violation}")
    return 2


def _cmd_oracle(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise UsageError("--budget must be non-negative")
    collection = _load_instance(args.instance)
    pattern = _load_pattern(args.pattern)
    if args.count:
        count, stats = oracle.count_coloured_hamilton_powers(collection, pattern, args.budget)
        if stats.result == oracle.UNKNOWN:
            print(f"UNKNOWN (budget exhausted after {stats.nodes} nodes, partial count {count})")
            return 2
        print(f"COUNT {count} (nodes={stats.nodes})")
        return 0 if count > 0 else 2
    cycle, stats = oracle.find_coloured_hamilton_power(collection, pattern, args.budget)
    if stats.result == oracle.FOUND:
        print(f"FOUND (nodes={stats.nodes}): {list(cycle.vertices)}")
        return 0
    if stats.result == oracle.NONE:
        print(f"NONE (nodes={stats.nodes})")
        return 2
    print(f"UNKNOWN (budget exhausted after {stats.nodes} nodes)")
    return 2


def _cmd_gen(args) -> int:
    if args.generator in ("complete", "random") and args.n > core.MAX_FILE_ORDER:
        # the loaders would refuse the file, so do not build it
        raise InvalidInstanceError(
            f"--n {args.n} exceeds the instance file limit {core.MAX_FILE_ORDER}"
        )
    if args.generator == "complete":
        collection = instances.complete_collection(args.n, args.m)
        core.save_json(args.out_instance, core.collection_to_dict(collection))
        print(f"complete collection n={args.n} m={args.m} -> {args.out_instance}")
        return 0
    if args.generator == "random":
        rng = pipeline.derive_rng(args.seed, "gen-random")
        collection = instances.random_min_degree_collection(args.n, args.m, args.delta, rng)
        core.save_json(args.out_instance, core.collection_to_dict(collection))
        print(
            f"random collection n={args.n} m={args.m} target delta={args.delta} "
            f"actual min degree={core.min_degree(collection)} -> {args.out_instance}"
        )
        return 0
    collection, pattern = instances.lowerbound_construction(args.k, args.p, args.orientation)
    core.save_json(args.out_instance, core.collection_to_dict(collection))
    core.save_json(args.out_pattern, core.pattern_to_dict(pattern))
    print(
        f"lower-bound instance k={args.k} p={args.p} orientation={args.orientation} "
        f"(n={collection.n}, min degree={core.min_degree(collection)})"
    )
    return 0


def _sweep_deltas(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0:
        raise UsageError("--delta-step must be positive")
    out = []
    x = lo
    while x <= hi + 1e-9:
        out.append(round(x, 9))
        x += step
    return out


def _cmd_experiment(args) -> int:
    k = args.k
    r = args.r if args.r is not None else k + 5
    deltas = _sweep_deltas(args.delta_from, args.delta_to, args.delta_step)
    rows = []
    for d_idx, delta in enumerate(deltas):
        for trial in range(args.trials):
            rng = pipeline.derive_rng(args.seed, "experiment", d_idx, trial)
            trial_seed = rng.getrandbits(63)
            collection = instances.random_min_degree_collection(args.n, k * args.n, delta, rng)
            pattern = instances.bijective_pattern(core.power_cycle(args.n, k), rng)
            config = _config(args, r=r, seed=trial_seed)
            started = time.perf_counter()
            stage_reached = "plan"
            success = 0
            retries = 0
            try:
                cycle, trace = pipeline.solve(collection, pattern, config)
                stage_reached = "done"
                success = 1
                retries = sum(s["attempts"] - 1 for s in trace["stages"])
            except InfeasibleConfigError:
                stage_reached = "plan"
            except StageFailedError as exc:
                stage_reached = exc.stage
                retries = exc.attempts
            except HamPowerError:
                stage_reached = "error"
            runtime_ms = int((time.perf_counter() - started) * 1000)
            rows.append(
                {
                    "seed": trial_seed,
                    "n": args.n,
                    "k": k,
                    "r": r,
                    "delta_frac": f"{delta:.6g}",
                    "mode": args.mode,
                    "stage_reached": stage_reached,
                    "success": success,
                    "nodes_or_retries": retries,
                    "runtime_ms": runtime_ms,
                }
            )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"malformed JSON in input file: line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    except HamPowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
