"""End-to-end solver: reservoir, absorber, path collection, connections,
final absorption.

The run follows a fixed layout of the cycle's host positions:

    [0, m_abs)                      absorbing path (z1 ... z2)
    then for i = 1..s:              k connector internals, then path P_i (r)
    then for j = 1..c:              k connector internals, then leftover v_j
    then g single-vertex extensions from the reservoir
    then k final connector internals, wrapping back to position 0

m_abs = a + s_t + 2 where a is the absorber size determined by the template
edge count.  The asymptotic constant hierarchy is replaced by an explicit
integer plan: the planner searches the template size s_t downward from
floor(beta*n) and picks the reservoir surplus w_extra and path count s so
that every set size is a non-negative integer (small instances therefore
run with a degenerate s_t = 0 absorber, a single connector from z1 to z2).
Whatever rounding slack remains is burned in the greedy padding stage (g
vertices), exactly as the layout above prescribes.  Best-effort runs keep
the whole ranked candidate list and fall back to the next plan when one
plan's stages exhaust their retries; strict runs take the first plan only,
one attempt per stage.

No stage is gated on a degree condition.  The reservoir is one uniform
draw, and the path builder samples each matching directly; a stage fails
only when its own construction does (a connector or gadget finds no image,
a level has no perfect matching), and the final cycle is re-verified.

Before anything random happens, each plan's layout is checked by
:func:`core.check_edge_partition`: the absorber window, the s path windows,
the s+1+c connector windows and the greedy back-edges must partition the
host cycle's edge set exactly.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .absorber import (
    AbsorbingStructure,
    Template,
    absorb,
    build_absorbing_structure,
    build_template,
    expected_absorbed_size,
    template_edge_count,
)
from .bitset import mask_of, select
from .connectors import embed_connector, extend_by_one
from .core import (
    POWER_CYCLE,
    ColourPattern,
    GraphCollection,
    PowerCycle,
    PowerPath,
    check_edge_partition,
    connector,
    power_cycle,
    power_path,
    restrict_pattern,
    verify_coloured_embedding,
    window_edges,
)
from .errors import (
    HamPowerError,
    InfeasibleConfigError,
    InvalidInstanceError,
    StageFailedError,
)
from .matching import EXACT_SIDE_CAP
from .pathbuilder import build_path_collection

BEST_EFFORT = "best-effort"
STRICT = "strict"


@dataclass(frozen=True)
class PipelineConfig:
    """Explicit constant knobs replacing the asymptotic hierarchy.

    ``alpha`` only enters the hierarchy check ``gamma < beta < alpha``; no
    stage reads it.  It is kept so that existing configurations stay valid.
    """

    alpha: float
    beta: float
    gamma: float
    epsilon: float
    r: int
    seed: int = 0
    sampler_mode: str = "fast"
    max_retries: int = 8
    mode: str = BEST_EFFORT

    def __post_init__(self) -> None:
        if not (0 < self.gamma < self.beta < self.alpha <= 1):
            raise InvalidInstanceError("need 0 < gamma < beta < alpha <= 1")
        if not (0 < self.epsilon < 1):
            raise InvalidInstanceError("need epsilon in (0, 1)")
        if self.r < 2:
            raise InvalidInstanceError("need r >= 2")
        if self.max_retries < 1:
            raise InvalidInstanceError("need max_retries >= 1")
        if self.mode not in (BEST_EFFORT, STRICT):
            raise InvalidInstanceError(f"unknown mode {self.mode!r}")
        if self.sampler_mode not in ("fast", "exact"):
            raise InvalidInstanceError(f"unknown sampler mode {self.sampler_mode!r}")


@dataclass(frozen=True)
class Plan:
    """Resolved integer sizes for one run."""

    n: int
    k: int
    r: int
    s_t: int       # template size (absorbed subset size)
    w_extra: int   # reservoir surplus beyond s_t (+2 endpoints)
    b: int         # template edge count
    a: int         # absorber size |A|
    m_abs: int     # absorbing path order = a + s_t + 2
    s: int         # number of builder paths
    c: int         # leftover sweep vertices
    g: int         # greedy padding extensions
    n1: int        # part size for the path builder

    @property
    def z_size(self) -> int:
        return self.s_t + self.w_extra + 2

    def path_window_start(self, i: int) -> int:
        """Host position of path P_i's first vertex (1-based i)."""
        return self.m_abs + (i - 1) * (self.k + self.r) + self.k

    def connector_window_start(self, i: int) -> int:
        """Host position of connector i's S1 block (1-based i)."""
        return self.m_abs + (i - 1) * (self.k + self.r) - self.k

    @property
    def sweep_base(self) -> int:
        return self.m_abs + self.s * (self.k + self.r)

    @property
    def greedy_base(self) -> int:
        return self.sweep_base + self.c * (self.k + 1)


def derive_rng(seed: int, *labels) -> random.Random:
    """Deterministic per-stage random stream from one 64-bit seed."""
    digest = hashlib.sha256(repr((seed,) + labels).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _best_plan_for(
    n: int, k: int, config: PipelineConfig, s_t: int, s_force: Optional[int] = None
) -> Optional[Plan]:
    r = config.r
    t_target = max(1, int(config.gamma * n))
    if s_t == 0:
        # a = k for every t, so navail = n - k - 2 - t.  g >= 0 needs
        # t >= (s+c+1)k, where s+c = navail - s(r-1) is at least navail/r
        # (s <= navail/r) and at least navail - s_force(r-1): every t below
        # the bounds these give has g < 0.
        free = n - k - 2
        t_lo = max(k, -(-k * (free + r) // (r + k)))
        if s_force is not None:
            t_lo = max(t_lo, -(-k * (free - s_force * (r - 1) + 1) // (k + 1)))
        t_hi = n
    else:
        t_lo, t_hi = 1, 39
    best: Optional[tuple] = None
    for t in range(t_lo, t_hi + 1):
        b = template_edge_count(s_t, t)
        a = expected_absorbed_size(k, s_t, b)
        m_abs = a + s_t + 2
        navail = n - a - (s_t + t + 2)
        if navail < 0:  # a never falls as t grows, so navail falls strictly: all later t fail
            break
        n1 = navail // r
        s_cap = min(n1, int((1 - config.epsilon) * n1 + 1e-9))
        s = min(s_cap, navail // r)
        if s_force is not None:
            s = min(s, s_force)
        if best is not None:
            if s < best[0]:  # s never grows with t, so no later t matches the best's s
                break
            if t - t_target >= -best[1]:  # no later t is nearer t_target; ties keep the smaller t
                break
        c = navail - s * r
        g = t - (s + c + 1) * k
        if g < 0:
            continue
        cand = (s, -abs(t - t_target), -t, s_t, t, b, a, m_abs, c, g, n1)
        if best is None or cand > best:
            best = cand
    if best is None:
        return None
    s, _, _, s_t_, t, b, a, m_abs, c, g, n1 = best
    return Plan(n, k, r, s_t_, t, b, a, m_abs, s, c, g, n1)


def candidate_plans(n: int, k: int, config: PipelineConfig) -> list[Plan]:
    """Feasible plans, most preferred first.

    One candidate per feasible template size, largest s_t first (closest to
    the beta target); within a template size the path count is maximised and
    the reservoir surplus lands nearest floor(gamma*n).  The template-free
    plan is additionally backed off through smaller path counts down to a
    pure-sweep plan.  Best-effort runs fall back along this list when a
    plan's stages keep failing (a connector finds no image in a small
    reservoir, or a level of the path builder has no perfect matching).

    In ``exact`` sampler mode a plan with builder paths is dropped when its
    part size n1, the side of the builder's first matching, exceeds
    ``EXACT_SIDE_CAP``: the exact sampler would refuse it.
    """
    if n < 3 * k:  # the closing connector's end windows must not collide
        return []
    plans: list[Plan] = []
    s_t_max = int(config.beta * n) if k >= 2 else 0  # gadgets need k >= 2
    for s_t in range(s_t_max, 0, -1):
        plan = _best_plan_for(n, k, config, s_t)
        if plan is not None:
            plans.append(plan)
    base = _best_plan_for(n, k, config, 0)
    if base is not None:
        plans.append(base)
        s_next = base.s // 2
        while s_next > 0:
            plan = _best_plan_for(n, k, config, 0, s_force=s_next)
            if plan is not None and plan not in plans:
                plans.append(plan)
            s_next //= 2
        sweep_only = _best_plan_for(n, k, config, 0, s_force=0)
        if sweep_only is not None and sweep_only not in plans:
            plans.append(sweep_only)
    if config.sampler_mode == "exact":
        plans = [p for p in plans if p.s == 0 or p.n1 <= EXACT_SIDE_CAP]
    return plans


def feasibility_floor(k: int, config: PipelineConfig) -> int:
    """Smallest n for which the configuration admits an integer plan."""
    for n in range(2 * k + 1, 16 * (k + 2) + 64):
        if candidate_plans(n, k, config):
            return n
    raise InfeasibleConfigError("no feasible n found in the probe range")


@functools.lru_cache(maxsize=16)
def check_layout(plan: Plan) -> None:
    """Raise unless the plan's windows tile the host cycle's edges exactly.

    The layout depends on the frozen plan alone, so repeated solves with
    one plan check it once.  A broken layout raises on every call (an
    exception is not cached).  Only the verdict is kept: the covered edge
    set of a C_1200^3 plan holds about 0.5 MB.
    """
    n, k = plan.n, plan.k
    families = [("absorber", window_edges(power_path(plan.m_abs, k), 0))]
    for i in range(1, plan.s + 1):
        families += [
            ("connectors", window_edges(connector(k, k, k), plan.connector_window_start(i))),
            ("paths", window_edges(power_path(plan.r, k), plan.path_window_start(i))),
        ]
    families += [
        ("sweep", window_edges(connector(k, 1, k), plan.sweep_base + j * (k + 1) - k))
        for j in range(plan.c)
    ]
    greedy = range(plan.greedy_base, plan.greedy_base + plan.g)
    families.append(("greedy", [(p - d, p) for p in greedy for d in range(1, k + 1)]))
    families.append(("final", window_edges(connector(k, k, k), n - 2 * k)))
    check_edge_partition(power_cycle(n, k), families)


def sample_reservoir(n: int, size: int, rng: random.Random) -> frozenset[int]:
    """Uniform random proper non-empty subset of {0, ..., n-1} of the given
    size: one draw, no degree test.

    The paper's reservoir conditions hold with high probability for a random
    subset of a dense collection, so the draw is not gated on them; the
    stages that use the reservoir (absorber, connect, absorb) fail with
    typed errors when this draw does not serve, and the plan falls back as
    for any other stage failure.
    """
    if size > n:
        raise InvalidInstanceError(f"reservoir size {size} exceeds n={n}")
    if size < 1 or size >= n:
        raise InvalidInstanceError("reservoir must be a proper non-empty subset")
    return frozenset(rng.sample(range(n), size))


def solve(
    collection: GraphCollection,
    pattern: ColourPattern,
    config: PipelineConfig,
) -> tuple[PowerCycle, dict]:
    """Construct a verified coloured Hamilton k-power, or raise.

    Returns the cycle together with a JSON-serialisable trace (plan sizes,
    per-stage attempts and timings).  Raises
    :class:`InfeasibleConfigError` before any work when n is too small, and
    :class:`StageFailedError` when a stage exhausts its retries.
    """
    host = pattern.host
    if host.kind != POWER_CYCLE or host.order != collection.n:
        raise InvalidInstanceError("solve needs a power-cycle pattern matching the instance")
    k, n = host.k, collection.n
    if config.r < k + 1:
        raise InvalidInstanceError(f"need r >= k+1 = {k + 1}, got r={config.r}")
    if pattern.max_colour > collection.m:
        raise InvalidInstanceError("pattern colours exceed the number of graphs")

    plans = candidate_plans(n, k, config)
    if not plans:
        floor = feasibility_floor(k, config)
        raise InfeasibleConfigError(
            f"n={n} is below the feasibility floor {floor} for this configuration",
            floor=floor,
        )
    if config.mode == STRICT:
        plans = plans[:1]

    failures: list[dict] = []
    for plan_index, plan in enumerate(plans):
        try:
            cycle, trace = _solve_with_plan(collection, pattern, config, plan, plan_index)
        except StageFailedError as exc:
            failures.append({"plan_index": plan_index, "stage": exc.stage, "error": str(exc.cause)})
            if plan_index == len(plans) - 1:
                raise
            continue
        trace["plan_fallbacks"] = failures
        return cycle, trace
    raise HamPowerError("unreachable: plan loop exited without a result")


def _solve_with_plan(
    collection: GraphCollection,
    pattern: ColourPattern,
    config: PipelineConfig,
    plan: Plan,
    plan_index: int,
) -> tuple[PowerCycle, dict]:
    k, n = plan.k, plan.n
    check_layout(plan)  # colour accounting, before any embedding

    attempts = 1 if config.mode == STRICT else config.max_retries
    trace: dict = {
        "seed": config.seed,
        "mode": config.mode,
        "sampler_mode": config.sampler_mode,
        "plan": asdict(plan),
        "plan_index": plan_index,
        "stages": [],
    }

    def run_stage(name: str, fn: Callable[[random.Random], object], tries: int = attempts):
        last: Optional[Exception] = None
        started = time.perf_counter()
        for attempt in range(tries):
            rng = derive_rng(config.seed, plan_index, name, attempt)
            try:
                out = fn(rng)
            except HamPowerError as exc:
                last = exc
                continue
            trace["stages"].append(
                {
                    "name": name,
                    "attempts": attempt + 1,
                    "elapsed_ms": int((time.perf_counter() - started) * 1000),
                }
            )
            return out
        raise StageFailedError(
            name, last if last else HamPowerError("unknown"), tries, summary=f"plan={asdict(plan)}"
        )

    reservoir = run_stage("reservoir", lambda rng: sample_reservoir(n, plan.z_size, rng), tries=1)
    z1, z2 = run_stage("endpoints", lambda rng: tuple(rng.sample(sorted(reservoir), 2)))

    def stage_absorber(rng: random.Random) -> AbsorbingStructure:
        if plan.s_t >= 1:
            template = build_template(plan.s_t, plan.w_extra, rng)
            if template.edge_count != plan.b:
                raise HamPowerError("internal error: template edge count diverged from the plan")
        else:
            template = Template.empty()
        candidates = sorted(set(range(n)) - reservoir)
        y = tuple(rng.sample(candidates, 2 * plan.s_t))
        chi0 = restrict_pattern(pattern, 0, power_path(plan.m_abs, k))
        return build_absorbing_structure(collection, chi0, reservoir, z1, z2, y, template, rng)

    structure = run_stage("absorber", stage_absorber)

    v_prime = sorted(set(range(n)) - structure.absorbed_set - reservoir)
    if len(v_prime) != plan.s * plan.r + plan.c:
        raise HamPowerError("internal error: vertex accounting broke after the absorber")
    if n != structure.a_size + plan.z_size + len(v_prime):
        raise HamPowerError("internal error: |V| != |A| + |Z| + |V'|")

    def stage_paths(rng: random.Random) -> list[PowerPath]:
        # the random equipartition of V' is redrawn on every attempt
        pool = list(v_prime)
        rng.shuffle(pool)
        parts = [sorted(pool[j * plan.n1:(j + 1) * plan.n1]) for j in range(plan.r)]
        pats = [
            restrict_pattern(pattern, plan.path_window_start(i), power_path(plan.r, k))
            for i in range(1, plan.s + 1)
        ]
        return build_path_collection(
            collection, parts, pats, plan.s, rng, sampler_mode=config.sampler_mode
        )

    paths = run_stage("paths", stage_paths)

    def stage_connect(rng: random.Random) -> tuple[list[Optional[int]], frozenset[int]]:
        placement: list[Optional[int]] = [None] * n
        avail = mask_of(reservoir) & ~(1 << z1) & ~(1 << z2)
        running = list(structure.boundary_last_k())

        def place(pos: int, v: int) -> None:
            if placement[pos] is not None:
                raise HamPowerError(f"internal error: position {pos} placed twice")
            placement[pos] = v

        for i in range(1, plan.s + 1):
            path = paths[i - 1]
            sub = restrict_pattern(pattern, plan.connector_window_start(i), connector(k, k, k))
            internals = embed_connector(
                collection, running[-k:], path.vertices[:k], sub, avail, rng
            )
            avail &= ~mask_of(internals)
            base = plan.connector_window_start(i) + k
            for off, v in enumerate(internals):
                place(base + off, v)
            for off, v in enumerate(path.vertices):
                place(plan.path_window_start(i) + off, v)
            running = list(path.vertices)

        covered = {v for p in paths for v in p.vertices}
        leftovers = sorted(set(v_prime) - covered)
        if len(leftovers) != plan.c:
            raise HamPowerError("internal error: leftover count disagrees with the plan")
        rng.shuffle(leftovers)
        for j, v in enumerate(leftovers):
            start = plan.sweep_base + j * (k + 1)
            sub = restrict_pattern(pattern, start - k, connector(k, 1, k))
            internals = embed_connector(collection, running[-k:], (v,), sub, avail, rng)
            avail &= ~mask_of(internals)
            for off, u in enumerate(internals):
                place(start + off, u)
            place(start + k, v)
            running.extend(internals)
            running.append(v)

        for idx in range(plan.g):
            p = plan.greedy_base + idx
            colours = [pattern.colour_of(p - k + j, p) for j in range(k)]
            z = extend_by_one(collection, PowerPath(k, tuple(running[-k:])), colours, avail, rng)
            avail &= ~(1 << z)
            place(p, z)
            running.append(z)

        if avail.bit_count() != plan.s_t + k:
            raise HamPowerError("internal error: reservoir accounting before the final connector")
        sub = restrict_pattern(pattern, n - 2 * k, connector(k, k, k))
        internals = embed_connector(
            collection, running[-k:], structure.boundary_first_k(), sub, avail, rng
        )
        avail &= ~mask_of(internals)
        for off, v in enumerate(internals):
            place(n - k + off, v)
        if avail.bit_count() != plan.s_t:
            raise HamPowerError("internal error: reservoir residue is not exactly s_t")
        return placement, frozenset(select(avail, itertools.count()))

    placement, z_prime = run_stage("connect", stage_connect)

    def stage_absorb(rng: random.Random) -> PowerPath:
        return absorb(structure, z_prime)

    absorber_path = run_stage("absorb", stage_absorb, tries=1)
    for pos, v in enumerate(absorber_path.vertices):
        if placement[pos] is not None:
            raise HamPowerError(f"internal error: absorber position {pos} already placed")
        placement[pos] = v

    if any(v is None for v in placement):
        raise HamPowerError("internal error: unfilled host positions remain")
    vertices = tuple(placement)  # type: ignore[arg-type]
    result = verify_coloured_embedding(collection, pattern, vertices)
    if not result.ok:
        raise HamPowerError(f"internal error: final cycle fails verification at {result.violation}")
    cycle = PowerCycle(k, vertices)
    trace["verified"] = True
    return cycle, trace
