"""End-to-end solver: reservoir, absorber, path collection, connections,
final absorption.

The run follows a fixed layout of the cycle's host positions,
:meth:`Plan.layout`, whose segments are, in host order:

    absorber        [0, m_abs)     the absorbing path z1 ... z2
    connector i, path i            k internals, then builder path P_i (r), i = 1..s
    sweep j, leftover j            k internals, then leftover v_j, j = 1..c
    greedy                         g single-vertex extensions from the reservoir
    final           [n - k, n)     k internals, wrapping back to position 0

m_abs = a + s_t + 2 where a is the absorber size determined by the template
edge count.  The asymptotic constant hierarchy is replaced by an explicit
integer plan: the planner searches the template size s_t downward from
floor(beta*n) and picks the reservoir surplus w_extra and path count s so
that every set size is a non-negative integer (small instances therefore
run with a degenerate s_t = 0 absorber, a single connector from z1 to z2).
Whatever rounding slack remains is burned in the greedy padding stage (g
vertices), exactly as the layout above prescribes.  A plan exists exactly
when n >= max(3k, 2k + 2), whatever the configuration
(:func:`feasibility_floor`); below it :func:`solve` raises
:class:`InfeasibleConfigError`.  Best-effort runs keep the whole ranked
candidate list and fall back to the next plan when one plan's stages
exhaust their retries; strict runs take the first plan only, one attempt
per stage.

No stage is gated on a degree condition.  The reservoir is one uniform
draw, and the path builder samples each matching directly; a stage fails
only when its own construction does (a connector or gadget finds no image,
a level has no perfect matching), and the final cycle is re-verified.

:meth:`Plan.layout` lists those parts in order, and :class:`core.Layout`
derives each start and connector shape from it.  Before anything random
happens, each plan's layout is checked by :func:`core.check_edge_partition`:
the segments' windows and the greedy back-edges must partition the host
cycle's edge set exactly.  Each stage is a module-level function of the
earlier stages' outputs.  The connect stage walks the layout in host
order, placing each piece and then joining the connector before it
(:func:`absorber.join_connector`); it shuffles the leftovers at the first
one and draws each greedy vertex as it reaches it.

Each stage attempt of each plan tried logs one event: ``plan_index``,
``stage`` and the 0-based ``attempt`` (with the seed, the labels of its
:func:`derive_rng` stream, so it can be replayed) and ``elapsed_ms``; a
failure adds its ``error`` class, ``message`` and attributes as ``fields``
(a connector's ``position``, ``segment`` and ``pool``, a builder level's
``step`` and ``level``).  The log is a solved run's ``trace["events"]``
and a :class:`StageFailedError`'s ``events``.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

# The builtin SHA-256, as ``random`` takes its SHA-512: ``hashlib`` loads
# OpenSSL, several MB for one hash per stage stream
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .absorber import (
    GADGET_MIN_K,
    MAX_T,
    AbsorbingStructure,
    Template,
    absorb,
    at_segment,
    build_absorbing_structure,
    build_template,
    expected_absorbed_size,
    join_connector,
    template_edge_count,
)
from .bitset import mask_of, select
from .connectors import embed_connector, extend_by_one
from .core import (
    CONNECTOR,
    EXTEND,
    POWER_CYCLE,
    ColourPattern,
    GraphCollection,
    Layout,
    PowerCycle,
    PowerPath,
    Segment,
    check_int,
    check_real,
    check_type,
    power_path,
    restrict_pattern,
    verify_coloured_embedding,
)
from .errors import (
    ConnectionFailedError,
    HamPowerError,
    InfeasibleConfigError,
    InvalidInstanceError,
    InvalidPatternError,
    StageFailedError,
)
from .pathbuilder import build_path_collection

BEST_EFFORT = "best-effort"
STRICT = "strict"
ABSORBER, PATH, LEFTOVER = "absorber", "path", "leftover"  # the cycle's piece segments


@dataclass(frozen=True)
class PipelineConfig:
    """Explicit constant knobs replacing the asymptotic hierarchy.

    ``alpha`` only enters the hierarchy check ``gamma < beta < alpha``; no
    stage reads it.  ``sampler_mode`` must be ``"fast"``: the path builder
    has one matching sampler, and no stage reads the field either.  Both
    are kept because ``perfbench/workloads.py`` passes them, and both go
    with the benchmark's next configuration refresh (ROADMAP.md).
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
        for name in ("alpha", "beta", "gamma", "epsilon"):
            check_real(getattr(self, name), name)
        check_int(self.r, "r", 2)
        check_int(self.max_retries, "max_retries", 1)
        check_int(self.seed, "seed")
        if not (0 < self.gamma < self.beta < self.alpha <= 1):
            raise InvalidInstanceError("need 0 < gamma < beta < alpha <= 1")
        if not (0 < self.epsilon < 1):
            raise InvalidInstanceError("need epsilon in (0, 1)")
        if self.mode not in (BEST_EFFORT, STRICT):
            raise InvalidInstanceError(f"unknown mode {self.mode!r}")
        if self.sampler_mode != "fast":
            raise InvalidInstanceError(f"sampler mode must be 'fast', got {self.sampler_mode!r}")


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

    @functools.lru_cache(maxsize=16)
    def layout(self) -> Layout:
        """The cycle's parts in host order (see the module docstring), laid
        out and checked once per plan; a broken layout raises on every call."""
        k = self.k
        parts = [("absorber", ABSORBER, power_path(self.m_abs, k))]
        # s paths of r vertices, then c leftovers, each after its connector
        for joint, kind, order, count in (("connector", PATH, self.r, self.s),
                                          ("sweep", LEFTOVER, 1, self.c)):
            shape = power_path(order, k)
            for i in range(1, count + 1):
                parts += [(f"{joint} {i}", CONNECTOR, None), (f"{kind} {i}", kind, shape)]
        if self.g:
            parts.append(("greedy", EXTEND, power_path(self.g, k)))
        parts.append(("final", CONNECTOR, None))
        return Layout(k, parts, self.n)


def derive_rng(seed: int, *labels) -> random.Random:
    """Deterministic per-stage random stream from one 64-bit seed."""
    digest = sha256(repr((seed,) + labels).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _best_plan_for(
    n: int, k: int, gamma: float, epsilon: float, r: int, s_t: int,
    s_force: Optional[int] = None,
) -> Optional[Plan]:
    t_target = max(1, int(gamma * n))
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
        t_lo, t_hi = 1, MAX_T
    best: Optional[tuple] = None
    for t in range(t_lo, t_hi + 1):
        b = template_edge_count(s_t, t)
        a = expected_absorbed_size(k, s_t, b)
        m_abs = a + s_t + 2
        navail = n - a - (s_t + t + 2)
        if navail < 0:  # a never falls as t grows, so navail falls strictly: all later t fail
            break
        n1 = navail // r
        s = int((1 - epsilon) * n1 + 1e-9)
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

    The list depends only on n, k and the configuration's sizes, so it is
    worked out once per shape and a fresh copy is returned on every call.
    """
    check_int(n, "vertex count n", 1)
    check_int(k, "power k", 1)
    check_type(config, PipelineConfig, "config")
    return list(_plans_for_shape(n, k, config.beta, config.gamma, config.epsilon, config.r))


@functools.lru_cache(maxsize=64)
def _plans_for_shape(
    n: int, k: int, beta: float, gamma: float, epsilon: float, r: int
) -> tuple[Plan, ...]:
    """:func:`candidate_plans` for a configuration with these fields, the
    only ones that the plans depend on."""
    if n < feasibility_floor(k):
        return ()
    plans: list[Plan] = []
    s_t_max = int(beta * n) if k >= GADGET_MIN_K else 0
    for s_t in range(s_t_max, 0, -1):
        plan = _best_plan_for(n, k, gamma, epsilon, r, s_t)
        if plan is not None:
            plans.append(plan)
    # every template-free scan has a plan (see feasibility_floor): the base,
    # then each halved path count down to the pure sweep
    base = _best_plan_for(n, k, gamma, epsilon, r, 0)
    plans.append(base)
    s_force = base.s
    while s_force:
        s_force //= 2
        plan = _best_plan_for(n, k, gamma, epsilon, r, 0, s_force=s_force)
        if plan not in plans:
            plans.append(plan)
    return tuple(plans)


def feasibility_floor(k: int) -> int:
    """Smallest n with a plan, whatever the configuration: max(3k, 2k + 2).
    Below 3k the closing connector's end windows collide; below 2k + 2 every
    template-free t >= k leaves navail = n - k - 2 - t < 0.  From there, t =
    n - k - 2 gives a plan without paths or leftovers, and g = n - 2k - 2."""
    check_int(k, "power k", 1)
    return max(3 * k, 2 * k + 2)


def sample_reservoir(n: int, size: int, rng: random.Random) -> frozenset[int]:
    """Uniform random proper non-empty subset of {0, ..., n-1} of the given
    size: one draw, no degree test.

    The paper's reservoir conditions hold with high probability for a random
    subset of a dense collection, so the draw is not gated on them; the
    stages that use the reservoir (absorber, connect, absorb) fail with
    typed errors when this draw does not serve, and the plan falls back as
    for any other stage failure.
    """
    check_int(n, "vertex count n", 2)
    check_int(size, "reservoir size", 1, n - 1)
    check_type(rng, random.Random, "rng")
    return frozenset(rng.sample(range(n), size))


def solve(
    collection: GraphCollection,
    pattern: ColourPattern,
    config: PipelineConfig,
) -> tuple[PowerCycle, dict]:
    """Construct a verified coloured Hamilton k-power, or raise.

    Returns the cycle together with a JSON-serialisable trace: the seed,
    the mode, the winning plan's sizes and index, and ``events``, the log of
    stage attempts over every plan tried (see the module docstring).  Raises
    :class:`InfeasibleConfigError` before any work when n < max(3k, 2k + 2), and
    :class:`StageFailedError`, carrying the same log, when a stage of the
    last plan tried exhausts its retries.
    """
    check_type(collection, GraphCollection, "collection")
    host = check_type(pattern, ColourPattern, "pattern", InvalidPatternError).host
    check_type(config, PipelineConfig, "config")
    if host.kind != POWER_CYCLE or host.order != collection.n:
        raise InvalidInstanceError("solve needs a power-cycle pattern matching the instance")
    k, n = host.k, collection.n
    check_int(config.r, "r", k + 1)
    if pattern.max_colour > collection.m:
        raise InvalidInstanceError("pattern colours exceed the number of graphs")

    floor = feasibility_floor(k)
    if n < floor:
        raise InfeasibleConfigError(f"n={n} is below the feasibility floor {floor}", floor=floor)
    plans = candidate_plans(n, k, config)
    if config.mode == STRICT:
        plans = plans[:1]

    events: list[dict] = []
    for plan_index, plan in enumerate(plans[:-1]):
        try:
            return _solve_with_plan(collection, pattern, config, plan, plan_index, events)
        except StageFailedError:
            continue  # fall back to the next plan
    return _solve_with_plan(collection, pattern, config, plans[-1], len(plans) - 1, events)


def _solve_with_plan(
    collection: GraphCollection,
    pattern: ColourPattern,
    config: PipelineConfig,
    plan: Plan,
    plan_index: int,
    events: list[dict],
) -> tuple[PowerCycle, dict]:
    n = plan.n
    plan.layout()  # checked before any embedding
    tries = 1 if config.mode == STRICT else config.max_retries
    run = functools.partial(_run_stage, events, config.seed, plan_index)
    reservoir = run("reservoir", 1, sample_reservoir, n, plan.z_size)
    z1, z2 = run("endpoints", tries, _endpoints_stage, reservoir)
    structure = run("absorber", tries, _absorber_stage,
                    collection, pattern, plan, reservoir, z1, z2)
    v_prime = sorted(set(range(n)) - structure.absorbed_set - reservoir)
    if len(v_prime) != plan.s * plan.r + plan.c:
        raise HamPowerError("internal error: vertex accounting broke after the absorber")
    paths = run("paths", tries, _paths_stage, collection, pattern, plan, v_prime)
    pool = mask_of(reservoir) & ~(1 << z1) & ~(1 << z2)
    placement, pool = run(
        "connect", tries, _connect_stage, collection, pattern, plan, structure, paths, v_prime, pool
    )
    z_prime = frozenset(select(pool, itertools.count()))
    placement[:plan.m_abs] = run("absorb", 1, _absorb_stage, structure, z_prime).vertices

    if any(v is None for v in placement):
        raise HamPowerError("internal error: unfilled host positions remain")
    vertices = tuple(placement)  # type: ignore[arg-type]
    result = verify_coloured_embedding(collection, pattern, vertices)
    if not result.ok:
        raise HamPowerError(f"internal error: final cycle fails verification at {result.violation}")
    trace = dict(seed=config.seed, mode=config.mode, plan=asdict(plan),
                 plan_index=plan_index, verified=True, events=events)
    return PowerCycle(plan.k, vertices), trace


def _run_stage(events: list[dict], seed: int, plan_index: int, name: str, tries: int,
               stage: Callable, *args):
    """``stage(*args, rng)`` on attempt i's stream ``derive_rng(seed, plan_index,
    name, i)`` for i < ``tries`` until one returns, appending one event per
    attempt to ``events``; else :class:`StageFailedError`."""
    for attempt in range(tries):
        event = dict(plan_index=plan_index, stage=name, attempt=attempt, elapsed_ms=0.0)
        events.append(event)
        started = time.perf_counter()
        try:
            return stage(*args, derive_rng(seed, plan_index, name, attempt))
        except HamPowerError as exc:
            cause = exc
            event.update(error=type(exc).__name__, message=str(exc), fields=dict(vars(exc)))
        finally:
            event["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    raise StageFailedError(name, cause, events)


def _endpoints_stage(reservoir: frozenset[int], rng: random.Random) -> tuple[int, int]:
    return tuple(rng.sample(sorted(reservoir), 2))


def _absorber_stage(
    collection: GraphCollection, pattern: ColourPattern, plan: Plan,
    reservoir: frozenset[int], z1: int, z2: int, rng: random.Random,
) -> AbsorbingStructure:
    template = build_template(plan.s_t, plan.w_extra, rng) if plan.s_t else Template.empty()
    y = tuple(rng.sample(sorted(set(range(plan.n)) - reservoir), 2 * plan.s_t))
    chi0 = restrict_pattern(pattern, 0, power_path(plan.m_abs, plan.k))
    return build_absorbing_structure(collection, chi0, reservoir, z1, z2, y, template, rng)


def _paths_stage(
    collection: GraphCollection, pattern: ColourPattern, plan: Plan,
    v_prime: list[int], rng: random.Random,
) -> list[PowerPath]:
    # the random equipartition of V' is redrawn on every attempt
    pool = list(v_prime)
    rng.shuffle(pool)
    parts = [sorted(pool[j * plan.n1:(j + 1) * plan.n1]) for j in range(plan.r)]
    segments = plan.layout().segments
    pats = [restrict_pattern(pattern, seg.start, seg.shape) for seg in segments if seg.kind == PATH]
    return build_path_collection(collection, parts, pats, rng)


def _connect_stage(
    collection: GraphCollection, pattern: ColourPattern, plan: Plan,
    structure: AbsorbingStructure, paths: list[PowerPath], v_prime: list[int],
    pool: int, rng: random.Random,
) -> tuple[list[Optional[int]], int]:
    """The cycle's placement, every piece placed and every connector joined
    in the walk of the module docstring, and the ``pool`` mask left."""
    k = plan.k
    placement: list[Optional[int]] = [None] * plan.n
    leftovers = sorted(set(v_prime).difference(*(path.vertices for path in paths)))
    if len(leftovers) != plan.c:
        raise HamPowerError("internal error: leftover count disagrees with the plan")
    pieces = {ABSORBER: iter([structure.placement]), PATH: (path.vertices for path in paths)}
    joint: Optional[Segment] = None  # the connector before the next piece
    for seg in plan.layout().segments:
        if seg.kind == CONNECTOR:
            joint = seg
            continue
        if seg.kind == EXTEND:
            for p in range(seg.start, seg.start + seg.shape.order):
                colours = [pattern.colour_of(p - k + j, p) for j in range(k)]
                tail = PowerPath(k, tuple(placement[p - k:p]))
                try:
                    z = extend_by_one(collection, tail, colours, pool, rng)
                except ConnectionFailedError as exc:
                    raise at_segment(exc, seg.name, pool, position=p) from exc
                pool &= ~(1 << z)
                placement[p] = z
        else:
            if seg.kind not in pieces:  # the first leftover
                rng.shuffle(leftovers)
                pieces[LEFTOVER] = ((v,) for v in leftovers)
            piece = next(pieces[seg.kind])
            placement[seg.start:seg.start + len(piece)] = piece
        if joint is not None:
            pool = join_connector(collection, pattern, joint, placement, pool, rng, embed_connector)
            joint = None
    pool = join_connector(collection, pattern, joint, placement, pool, rng, embed_connector)
    if pool.bit_count() != plan.s_t:
        raise HamPowerError("internal error: reservoir residue is not exactly s_t")
    return placement, pool


def _absorb_stage(structure: AbsorbingStructure, z_prime: frozenset[int], rng) -> PowerPath:
    return absorb(structure, z_prime)  # deterministic: the stream goes unused
