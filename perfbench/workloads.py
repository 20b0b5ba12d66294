"""The four benchmark workloads: inputs made from the seed, the calls a
round makes, and the independent checks of their outputs.

Every call goes through a module attribute (``pipeline.solve``,
``oracle.find_coloured_hamilton_power``, ``instances.*``) so that the
tracer in ``spans.py`` can wrap it.  Each op's ``call`` returns a small
hashable summary of the program's output; ``check`` raises
:class:`checker.CheckError` when that summary is wrong.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from hampower import core, instances, oracle, pipeline

from checker import CheckError, EdgeSets, check_cycle

SOLVER = dict(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7,
              sampler_mode="fast", mode="best-effort")


@dataclass
class Op:
    kind: str                         # "solve", "find" or "count"
    call: Callable[[], tuple]
    check: Callable[[tuple], None]


@dataclass
class Inputs:
    ops: list[Op]
    checks: list[Callable[[], None]] = field(default_factory=list)  # on the inputs


def _solve_op(collection, pattern, config, edge_sets) -> Op:
    def call():
        cycle, trace = pipeline.solve(collection, pattern, config)
        return cycle.vertices, trace["plan_index"] + 1

    return Op("solve", call, lambda out: check_cycle(edge_sets(), pattern, out[0]))


def _config(rng: random.Random, **overrides) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(seed=rng.getrandbits(63), **{**SOLVER, **overrides})


def _complete_solves(seed: int, name: str, n: int, k: int, n_patterns: int) -> Inputs:
    rng = random.Random(f"{name}:{seed}")
    collection = instances.complete_collection(n, 4)
    edge_sets = functools.cache(lambda: EdgeSets.of(collection))
    ops = []
    for _ in range(n_patterns):
        pattern = instances.random_pattern(core.power_cycle(n, k), 4, rng)
        ops.append(_solve_op(collection, pattern, _config(rng), edge_sets))
    return Inputs(ops)


def paths_k3(seed: int) -> Inputs:
    """Two 4-colour patterns of C_1200^3 in four copies of K_1200."""
    return _complete_solves(seed, "paths-k3", n=1200, k=3, n_patterns=2)


def absorber_k2(seed: int) -> Inputs:
    """Three 4-colour patterns of C_2000^2 in one set of four copies of K_2000."""
    return _complete_solves(seed, "absorber-k2", n=2000, k=2, n_patterns=3)


RAINBOW_N, RAINBOW_K, RAINBOW_DELTA, RAINBOW_COLOURINGS = 150, 2, 0.95, 24


def rainbow_dense(seed: int) -> Inputs:
    """Bijective colourings of C_150^2 in one random collection of k*n graphs
    with minimum degree at least ceil(0.95 * 150), as in ``experiment sweep``."""
    n, k = RAINBOW_N, RAINBOW_K
    rng = random.Random(f"rainbow-dense:{seed}")
    collection = instances.random_min_degree_collection(n, k * n, RAINBOW_DELTA, rng)
    edge_sets = functools.cache(lambda: EdgeSets.of(collection))
    ops = [
        _solve_op(
            collection,
            instances.bijective_pattern(core.power_cycle(n, k), rng),
            _config(rng, r=k + 5),
            edge_sets,
        )
        for _ in range(RAINBOW_COLOURINGS)
    ]

    def degree_floor():
        floor = math.ceil(RAINBOW_DELTA * n)
        low = min(edge_sets().min_degrees)
        if low < floor:
            raise CheckError(f"a generated graph has minimum degree {low} < {floor}")

    return Inputs(ops, [degree_floor])


def _find_op(collection, pattern, expect_found: bool) -> Op:
    def call():
        cycle, stats = oracle.find_coloured_hamilton_power(collection, pattern)
        return stats.result, cycle.vertices if cycle else None, stats.nodes

    edge_sets = functools.cache(lambda: EdgeSets.of(collection))

    def check(out):
        result, vertices, _ = out
        if not expect_found:
            if result != "none" or vertices is not None:
                raise CheckError(f"lower-bound instance answered {result!r}, expected 'none'")
            return
        if result != "found" or vertices is None:
            raise CheckError(f"all-colour-1 variant answered {result!r}, expected 'found'")
        check_cycle(edge_sets(), pattern, vertices)

    return Op("find", call, check)


def oracle_lowerbound(seed: int) -> Inputs:
    """The lower-bound family (no compatible power exists), its all-colour-1
    variants (one does), and a full count on K_9."""
    rng = random.Random(f"oracle-lowerbound:{seed}")
    none_ops, found_ops = [], []
    for k, p in ((2, 4), (3, 3)):
        for orientation in ("figure", "text"):
            collection, pattern = instances.lowerbound_construction(k, p, orientation)
            none_ops.append(_find_op(collection, pattern, expect_found=False))
            plain = core.ColourPattern(pattern.host, dict.fromkeys(pattern.colours, 1))
            found_ops.append(_find_op(collection, plain, expect_found=True))

    k9 = instances.complete_collection(9, 3)
    k9_pattern = instances.random_pattern(core.power_cycle(9, 2), 3, rng)

    def count():
        total, stats = oracle.count_coloured_hamilton_powers(k9, k9_pattern)
        return total, stats.result, stats.nodes

    def check_count(out):
        # every injective placement realises any pattern in K_n
        if out[0] != math.factorial(9):
            raise CheckError(f"K_9 count is {out[0]}, expected 9! = {math.factorial(9)}")

    return Inputs(none_ops + found_ops + [Op("count", count, check_count)])


WORKLOADS: dict[str, Callable[[int], Inputs]] = {
    "paths-k3": paths_k3,
    "absorber-k2": absorber_k2,
    "rainbow-dense": rainbow_dense,
    "oracle-lowerbound": oracle_lowerbound,
}
