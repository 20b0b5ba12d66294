"""Shared test oracles and instance generators.

Everything here is deliberately independent of the library's own search
paths: matchings by exhaustive recursion, permanents by permutation
enumeration, Hamilton powers by permutation scan.  The ``reference_*``
functions are the plain from-scratch forms of computations the library
shortcuts (a bit walk over the whole mask, one ``max_matching`` per
template subset, one gadget built per pattern, every t the planner could
try, one interpreted ``rng.random()`` per vertex pair, a fast sampler with
an ``owner`` dict, a connector's constraints listed per call); the
shortcuts must agree with them exactly.  The cycle layout's segment starts
are checked against the closed forms it was once computed by.
``count_perfect_matchings`` and ``sample_exact`` (permanents by subset
dynamic programming, and the exactly uniform sampler they weight) are the
reference law that the matching sampler's tests compare against.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from itertools import count
from typing import Optional

from hampower.absorber import GadgetBlueprint, expected_absorbed_size, template_edge_count
from hampower.bitset import mask_of, pick_bit, select
from hampower.core import (
    CONNECTOR,
    GraphCollection,
    canonical_edge,
    host_edges,
    verify_coloured_embedding,
)
from hampower.errors import (
    ConnectionFailedError,
    HamPowerError,
    InvalidInstanceError,
    NoPerfectMatchingError,
)
from hampower.matching import BipartiteGraph, max_matching
from hampower.pipeline import PipelineConfig, Plan


def bipartite(adj, n_right: int) -> BipartiteGraph:
    """Bipartite graph on right vertices 0..n_right-1 from neighbour tuples."""
    rows = []
    for row in adj:
        mask = 0
        for v in row:
            mask |= 1 << v
        rows.append(mask)
    return BipartiteGraph(tuple(rows), (1 << n_right) - 1)


def neighbours(mask: int) -> list[int]:
    """Set bit positions of a mask, in increasing order."""
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def brute_max_matching_size(b: BipartiteGraph) -> int:
    """Exhaustive branch-and-bound maximum matching size."""
    best = 0
    adj = [neighbours(row) for row in b.rows]

    def rec(u: int, used: int, size: int) -> None:
        nonlocal best
        if size + (b.n_left - u) <= best:
            return
        if u == b.n_left:
            best = max(best, size)
            return
        for v in adj[u]:
            if not (used >> v) & 1:
                rec(u + 1, used | (1 << v), size + 1)
        rec(u + 1, used, size)

    rec(0, 0, 0)
    return best


def brute_count_perfect_matchings(b: BipartiteGraph) -> int:
    """Permanent by scanning all permutations (sides <= 7)."""
    assert b.n_left == b.n_right <= 7
    rows = [set(neighbours(row)) for row in b.rows]
    return sum(
        1
        for perm in itertools.permutations(neighbours(b.right))
        if all(perm[i] in rows[i] for i in range(b.n_left))
    )


# Largest side of an exact count or sample.  The subset dynamic programme
# grows about 2.2x per vertex: one count_perfect_matchings call on K_{s,s}
# took 0.36-0.39 s at s = 17, 0.84-0.89 s at s = 18 and 2.0 s at s = 19
# (CPython 3.11, one core of a shared two-core x86-64 machine).
EXACT_SIDE_CAP = 18


def _count_completions(rows, i: int, avail: int, memo: dict) -> int:
    """Perfect matchings of left vertices i.. into the right mask ``avail``."""
    if i == len(rows):
        return 1
    key = (i, avail)
    cached = memo.get(key)
    if cached is not None:
        return cached
    total = 0
    cand = rows[i] & avail
    while cand:
        low = cand & -cand
        total += _count_completions(rows, i + 1, avail ^ low, memo)
        cand ^= low
    memo[key] = total
    return total


def _check_exact_size(b: BipartiteGraph) -> None:
    if b.n_left != b.n_right:
        raise ValueError("perfect-matching count needs equal sides")
    if b.n_left > EXACT_SIDE_CAP:
        raise ValueError(f"side {b.n_left} exceeds the exact cap {EXACT_SIDE_CAP}")


def count_perfect_matchings(b: BipartiteGraph) -> int:
    """Exact perfect-matching count (the permanent of the biadjacency
    matrix), via subset dynamic programming.  Sides must be equal and at
    most EXACT_SIDE_CAP."""
    _check_exact_size(b)
    return _count_completions(b.rows, 0, b.right, {})


def sample_exact(b: BipartiteGraph, rng: random.Random) -> list[tuple[int, int]]:
    """Exactly uniform perfect matching as (left, right) pairs sorted by
    left: each left vertex in turn takes a right vertex with probability
    proportional to the number of perfect matchings that complete it.
    Sides must be equal and at most EXACT_SIDE_CAP."""
    _check_exact_size(b)
    rows = b.rows
    memo: dict = {}
    avail = b.right
    if _count_completions(rows, 0, avail, memo) == 0:
        raise NoPerfectMatchingError("graph has no perfect matching")
    pairs = []
    for i in range(b.n_left):
        weights = []
        for v in select(rows[i] & avail, count()):
            weights.append((v, _count_completions(rows, i + 1, avail ^ (1 << v), memo)))
        draw = rng.randrange(sum(w for _, w in weights))
        acc = 0
        for v, w in weights:
            acc += w
            if draw < acc:
                pairs.append((i, v))
                avail ^= 1 << v
                break
    return pairs


def random_bipartite(rng: random.Random, n_left: int, n_right: int, p: float) -> BipartiteGraph:
    adj = [[v for v in range(n_right) if rng.random() < p] for _ in range(n_left)]
    return bipartite(adj, n_right)


def fast_sampler_law(b: BipartiteGraph) -> dict[tuple, Fraction]:
    """Exact output law of the ``fast`` sampler on a small graph (<= 4x4).

    Enumerates every order of the left vertices and every order of each
    left vertex's neighbours, all equally likely, and runs a plain
    recursive augmenting search for each; an outcome is the sorted tuple of
    (left, right) pairs, or None when some left vertex stays unmatched.
    """
    n = b.n_left
    assert n == b.n_right <= 4
    row_orders = [list(itertools.permutations(neighbours(row))) for row in b.rows]
    counts: Counter = Counter()
    for order in itertools.permutations(range(n)):
        for rows in itertools.product(*row_orders):
            owner: dict[int, int] = {}

            def augment(u: int, seen: set) -> bool:
                for v in rows[u]:
                    if v not in seen:
                        seen.add(v)
                        if v not in owner or augment(owner[v], seen):
                            owner[v] = u
                            return True
                return False

            matched = [augment(u, set()) for u in order]
            outcome = tuple(sorted((u, v) for v, u in owner.items())) if all(matched) else None
            counts[outcome] += 1
    total = sum(counts.values())
    return {outcome: Fraction(c, total) for outcome, c in counts.items()}


def _naive_placements(collection: GraphCollection, pattern):
    """Every permutation, read as a position-to-vertex assignment, that
    realises the anchored pattern (n <= 8)."""
    n = pattern.host.order
    assert n <= 8
    edges = host_edges(pattern.host)
    return (
        perm
        for perm in itertools.permutations(range(n))
        if all(
            collection.has_edge(pattern.colours[(i, j)], perm[i], perm[j])
            for (i, j) in edges
        )
    )


def naive_hamilton_power_exists(collection: GraphCollection, pattern) -> bool:
    """All-permutations existence check (n <= 8)."""
    return next(_naive_placements(collection, pattern), None) is not None


def naive_hamilton_power_count(collection: GraphCollection, pattern) -> int:
    """All-permutations count of the anchored placements, each injective
    position-to-vertex assignment once (n <= 8)."""
    return sum(1 for _ in _naive_placements(collection, pattern))


def tiling_extension_instance(rng: random.Random, k: int, n: int):
    """Random instance meeting the tiling-extension degree bounds.

    Returns (collection, tiles): a one-graph collection on (k+1)n vertices
    and a planted perfect K_k-tiling of A = 0..kn-1 by consecutive blocks.
    The bipartite part between A and B = kn..(k+1)n-1 satisfies
    d(v, A) >= (1 - 1/2k) kn for all v in B and d(u, B) >= (1 - 1/2k) n for
    all u in A.
    """
    a_size = k * n
    total = a_size + n
    need_b = a_size - (a_size // (2 * k))  # ceil((1 - 1/2k) kn) via exact ints
    need_a = n - (n // (2 * k))

    full_a = (1 << a_size) - 1
    rows_b = []
    for _ in range(n):
        mask = full_a
        deletions = rng.randint(0, max(0, a_size // (4 * k)))
        for pos in rng.sample(range(a_size), deletions):
            mask &= ~(1 << pos)
        rows_b.append(mask)
    # repair B side up to its floor
    for i in range(n):
        short = need_b - rows_b[i].bit_count()
        if short > 0:
            missing = [p for p in range(a_size) if not (rows_b[i] >> p) & 1]
            for p in rng.sample(missing, short):
                rows_b[i] |= 1 << p
    # repair A side
    deg_a = [sum((rows_b[i] >> u) & 1 for i in range(n)) for u in range(a_size)]
    for u in range(a_size):
        if deg_a[u] < need_a:
            missing = [i for i in range(n) if not (rows_b[i] >> u) & 1]
            for i in rng.sample(missing, need_a - deg_a[u]):
                rows_b[i] |= 1 << u

    edges = []
    for i in range(n):
        v = a_size + i
        mask = rows_b[i]
        while mask:
            low = mask & -mask
            edges.append((low.bit_length() - 1, v))
            mask ^= low
    tiles = []
    for t in range(n):
        block = list(range(t * k, (t + 1) * k))
        tiles.append(block)
        for x, y in itertools.combinations(block, 2):
            edges.append((x, y))
    return GraphCollection.from_edge_lists(total, [edges]), tiles


def extend_tiles(tiles, pairs) -> list[list[int]]:
    """Tile t extended by v for every matched pair (t, v)."""
    return [list(tiles[t]) + [v] for t, v in pairs]


def is_clique_tiling(collection: GraphCollection, cliques, vertices) -> bool:
    """The cliques are pairwise disjoint, cover ``vertices`` exactly and are
    cliques in graph 1 of the collection."""
    covered = sorted(v for clique in cliques for v in clique)
    return covered == sorted(vertices) and all(
        collection.has_edge(1, x, y)
        for clique in cliques
        for x, y in itertools.combinations(clique, 2)
    )


def chi_square_statistic(observed: dict, total: int) -> float:
    outcomes = len(observed)
    expected = total / outcomes
    return sum((c - expected) ** 2 / expected for c in observed.values())


def chi_square_against(observed: dict, law: dict, total: int) -> float:
    """Pearson statistic of observed counts against a given law; an outcome
    the law does not have is an infinite statistic."""
    if not set(observed) <= set(law):
        return float("inf")
    return sum(
        (observed.get(outcome, 0) - total * p) ** 2 / (total * p)
        for outcome, p in law.items()
    )


def template_edge_count_by_windows(s: int, t: int) -> int:
    """Template skeleton edge count summed window by window: 4s for U, and
    for each W vertex its clipped window width, plus one padding edge when
    that width is 1."""
    if s == 0:
        return 0
    total = 4 * s
    for i in range(s + t):
        width = min(s - 1, i) - max(0, i - t) + 1
        total += width + (1 if width == 1 else 0)
    return total


def chi_square_critical(df: int, significance: float = 0.01) -> float:
    from scipy.stats import chi2

    return float(chi2.ppf(1.0 - significance, df))


def min_pair_degree(
    collection: GraphCollection, colour: int, a_side, b_side
) -> int:
    """Minimum degree of the bipartite subgraph of one colour between two
    disjoint vertex sets, over the vertices of both sides."""
    a_mask, b_mask = mask_of(a_side), mask_of(b_side)
    d = min((collection.neighbour_mask(colour, v) & b_mask).bit_count() for v in a_side)
    return min(d, min((collection.neighbour_mask(colour, v) & a_mask).bit_count() for v in b_side))


def colour_rows(collection: GraphCollection, colours) -> list[list[int]]:
    """The mask tables of the named colours, one per tile position, as
    ``tiling_graph`` takes them."""
    return [collection.masks[c - 1] for c in colours]


def reference_pick_bit(mask: int, rng: random.Random) -> int:
    """Uniformly random set bit: one ``randrange`` draw for its rank, then
    a walk over every set bit of the mask."""
    idx = rng.randrange(mask.bit_count())
    return next(itertools.islice(select(mask, itertools.count()), idx, None))


def reference_sample_fast(b: BipartiteGraph, rng: random.Random) -> list[tuple[int, int]]:
    """``matching.sample_perfect_matching`` with an ``owner`` dict keyed by right id
    and a separate count of each left vertex's undrawn neighbours; the
    library's sampler must make exactly the same draws.

    Augmenting search from the left vertices in uniformly random order,
    each left vertex trying its neighbours in a uniformly random order.

    A left vertex's neighbour order is drawn lazily: ``drawn[u]`` is the
    prefix drawn so far and ``undrawn[u]`` the mask of the rest.  The search
    walks the prefix (skipping seen vertices) and draws the next neighbour,
    uniformly from the rest, only when the prefix runs out, so the output
    has the same law as when every row is shuffled up front.
    """
    rows = b.rows
    n = len(rows)
    ids = list(select(b.right, count()))
    id_bits = n.bit_length()
    order = list(range(n))
    rng.shuffle(order)
    drawn: list[list[int]] = [[] for _ in range(n)]
    undrawn = list(rows)
    n_undrawn = [row.bit_count() for row in rows]
    owner: dict[int, int] = {}
    for root in order:
        seen = 0
        # the path so far, and where each of its left vertices but the last
        # resumes its prefix; x is the last left vertex, i its position
        lefts, rights, resume = [root], [], []
        x, i = root, 0
        while True:
            prefix = drawn[x]
            v = -1
            while i < len(prefix):
                w = prefix[i]
                i += 1
                if not (seen >> w) & 1:
                    v = w
                    break
            else:  # prefix used up: draw further neighbours
                while n_undrawn[x]:
                    rest = undrawn[x]
                    if 2 * n_undrawn[x] >= n:
                        # rejection over the positions of all right vertices:
                        # at this density at least a quarter of tries hit
                        while True:
                            j = rng.getrandbits(id_bits)
                            if j < n and (rest >> ids[j]) & 1:
                                w = ids[j]
                                break
                    else:
                        w = pick_bit(rest, rng)
                    undrawn[x] = rest ^ (1 << w)
                    n_undrawn[x] -= 1
                    prefix.append(w)
                    i += 1
                    if not (seen >> w) & 1:
                        v = w
                        break
            if v < 0:  # x has nothing left to try: back up
                lefts.pop()
                if not rights:
                    raise NoPerfectMatchingError("graph has no perfect matching")
                rights.pop()
                x, i = lefts[-1], resume.pop()
                continue
            seen |= 1 << v
            rights.append(v)
            u = owner.get(v)
            if u is None:
                owner.update(zip(rights, lefts))  # each left vertex takes the next right one
                break
            resume.append(i)
            lefts.append(u)
            x, i = u, 0
    return sorted((u, v) for v, u in owner.items())


def reference_robust_matching(template, w_locals):
    """Matching of (U + W', X) from scratch: ``max_matching`` on the
    bipartite graph of the U rows and the chosen W rows, mapped back to
    template left indices; None when it is not perfect."""
    chosen = sorted(w_locals)
    left_ids = list(range(template.n_u)) + [template.n_u + w for w in chosen]
    sub = BipartiteGraph(tuple(template.rows[l] for l in left_ids), template.x_mask)
    pairs = max_matching(sub)
    if len(pairs) < template.n_x:
        return None
    return [(left_ids[u], x) for (u, x) in pairs]


def reference_gadget_blueprint(k: int, ell: int, pattern) -> GadgetBlueprint:
    """The (k, ell) absorbing gadget built from scratch for one pattern: B
    in order with a_i after b_{(2i-1)k}, the pattern's colours on the path
    edges, then c_i given the edges of a_i and a_{i+1} with their colours.
    The embedding order is A, then the base sequence with c_i in place of
    a_i (i < ell) and a_ell left out; each vertex after A lists the edges
    to earlier vertices in edge order."""
    a_ids = tuple(range(ell))
    b_ids = tuple(range(ell, ell + 2 * k * ell))
    c_ids = tuple(range(ell + 2 * k * ell, ell + 2 * k * ell + ell - 1))
    seq = []
    for j in range(1, 2 * k * ell + 1):
        seq.append(b_ids[j - 1])
        if j % (2 * k) == k:
            seq.append(a_ids[j // (2 * k)])
    edges = {}
    for (p, q) in host_edges(pattern.host):
        edges[canonical_edge(seq[p], seq[q])] = pattern.colours[(p, q)]
    for i in range(1, ell):
        for a in (a_ids[i - 1], a_ids[i]):
            for (x, y), colour in list(edges.items()):
                if a in (x, y):
                    edges[canonical_edge(c_ids[i - 1], y if x == a else x)] = colour
    c_of = {a_ids[i]: c_ids[i] for i in range(ell - 1)}
    order = list(a_ids) + [c_of.get(v, v) for v in seq if v != a_ids[-1]]
    back = []
    for i in range(ell, len(order)):
        v = order[i]
        earlier = set(order[:i])
        back.append((v, tuple(
            (x if y == v else y, (x, y)) for (x, y) in edges
            if v in (x, y) and (x if y == v else y) in earlier
        )))
    return GadgetBlueprint(
        k, ell, a_ids, b_ids, c_ids, tuple(seq), edges, tuple(back)
    )


def _reference_best_plan_for(
    n: int, k: int, config: PipelineConfig, s_t: int, s_force: Optional[int] = None
) -> Optional[Plan]:
    r = config.r
    t_target = max(1, int(config.gamma * n))
    t_lo, t_hi = (k, n) if s_t == 0 else (1, 39)
    best: Optional[tuple] = None
    for t in range(t_lo, t_hi + 1):
        b = template_edge_count(s_t, t)
        a = expected_absorbed_size(k, s_t, b)
        m_abs = a + s_t + 2
        navail = n - a - (s_t + t + 2)
        if navail < 0:
            continue
        n1 = navail // r
        s_cap = min(n1, int((1 - config.epsilon) * n1 + 1e-9))
        s = min(s_cap, navail // r)
        if s_force is not None:
            s = min(s, s_force)
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


def reference_candidate_plans(n: int, k: int, config: PipelineConfig) -> list[Plan]:
    """``candidate_plans`` with the full t-scan: every t in range is tried,
    with no early exit, and the best by the same ranking key is kept."""
    if n < 3 * k:  # the closing connector's end windows must not collide
        return []
    plans: list[Plan] = []
    s_t_max = int(config.beta * n) if k >= 2 else 0  # gadgets need k >= 2
    for s_t in range(s_t_max, 0, -1):
        plan = _reference_best_plan_for(n, k, config, s_t)
        if plan is not None:
            plans.append(plan)
    base = _reference_best_plan_for(n, k, config, 0)
    if base is not None:
        plans.append(base)
        s_next = base.s // 2
        while s_next > 0:
            plan = _reference_best_plan_for(n, k, config, 0, s_force=s_next)
            if plan is not None and plan not in plans:
                plans.append(plan)
            s_next //= 2
        sweep_only = _reference_best_plan_for(n, k, config, 0, s_force=0)
        if sweep_only is not None and sweep_only not in plans:
            plans.append(sweep_only)
    return plans


def path_window_start(plan: Plan, i: int) -> int:
    """Host position of path P_i's first vertex (1-based i)."""
    return plan.m_abs + (i - 1) * (plan.k + plan.r) + plan.k


def connector_window_start(plan: Plan, i: int) -> int:
    """Host position of connector i's S1 block (1-based i)."""
    return plan.m_abs + (i - 1) * (plan.k + plan.r) - plan.k


def sweep_base(plan: Plan) -> int:
    return plan.m_abs + plan.s * (plan.k + plan.r)


def greedy_base(plan: Plan) -> int:
    return sweep_base(plan) + plan.c * (plan.k + 1)


def reference_segment_starts(plan: Plan) -> list[tuple[str, int]]:
    """(name, start) of each segment of ``Plan.layout()`` in host order,
    from the closed forms above: each sweep connector's window begins k
    before its internals at sweep_base + j(k+1), its leftover k after."""
    k, n = plan.k, plan.n
    out = [("absorber", 0)]
    for i in range(1, plan.s + 1):
        out += [
            (f"connector {i}", connector_window_start(plan, i)),
            (f"path {i}", path_window_start(plan, i)),
        ]
    for j in range(plan.c):
        internals = sweep_base(plan) + j * (k + 1)
        out += [(f"sweep {j + 1}", internals - k), (f"leftover {j + 1}", internals + k)]
    if plan.g:
        out.append(("greedy", greedy_base(plan)))
    return out + [("final", n - 2 * k)]


def reference_random_rpartite_collection(
    r: int, part_size: int, m: int, delta_frac: float, rng: random.Random
) -> tuple[GraphCollection, list[list[int]]]:
    """``random_rpartite_collection`` with one interpreted ``rng.random()``
    per cross-part vertex pair, written into the rows bit by bit."""
    if not (0.0 <= delta_frac <= 1.0):
        raise InvalidInstanceError("delta_frac must lie in [0, 1]")
    parts = [list(range(i * part_size, (i + 1) * part_size)) for i in range(r)]
    part_masks = [((1 << part_size) - 1) << (i * part_size) for i in range(r)]
    n = r * part_size
    target = 0 if delta_frac <= 0 else min(part_size, int(delta_frac * part_size - 1e-9) + 1)
    tables = []
    for _ in range(m):
        rows = [0] * n
        for pi in range(r):
            for pj in range(pi + 1, r):
                for u in parts[pi]:
                    for v in parts[pj]:
                        if rng.random() < delta_frac:
                            rows[u] |= 1 << v
                            rows[v] |= 1 << u
                for side, other in ((pi, pj), (pj, pi)):
                    for u in parts[side]:
                        have = rows[u] & part_masks[other]
                        short = target - have.bit_count()
                        if short > 0:
                            missing = list(select(part_masks[other] ^ have, count()))
                            for v in rng.sample(missing, short):
                                rows[u] |= 1 << v
                                rows[v] |= 1 << u
        tables.append(rows)
    return GraphCollection(n, tables), parts


def reference_random_min_degree_collection(
    n: int, m: int, delta_frac: float, rng: random.Random
) -> GraphCollection:
    """``random_min_degree_collection`` with one interpreted
    ``rng.random()`` per vertex pair, written into the rows bit by bit."""
    if not (0.0 <= delta_frac <= 1.0):
        raise InvalidInstanceError("delta_frac must lie in [0, 1]")
    target = 0 if delta_frac <= 0 else min(n - 1, int(delta_frac * n - 1e-9) + 1)
    full = (1 << n) - 1
    tables = []
    for _ in range(m):
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < delta_frac:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for u in range(n):
            short = target - rows[u].bit_count()
            if short > 0:
                missing = list(select(full ^ rows[u] ^ (1 << u), count()))
                for v in rng.sample(missing, short):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        tables.append(rows)
    return GraphCollection(n, tables)


def reference_embed_connector(collection, w, y, pattern, pool, rng):
    """``connectors.embed_connector`` with each internal position's
    constraints listed from the host edges on every call, and its own
    greedy loop."""
    host = pattern.host
    if host.kind != CONNECTOR:
        raise InvalidInstanceError("connector embedding needs a connector-host pattern")
    a, b, k = host.a, host.b, host.k
    if (a, b) != (len(w), len(y)):
        raise InvalidInstanceError(
            f"connector host is ({a},{b}) but ends have ({len(w)},{len(y)}) vertices"
        )
    end_mask = mask_of(w) | mask_of(y)
    if end_mask.bit_count() != a + b:
        raise InvalidInstanceError("connector ends must be distinct and vertex-disjoint")
    placed = dict(enumerate(w))
    placed.update((a + k + i, v) for i, v in enumerate(y))
    pool &= ~end_mask

    constraints: dict[int, list[tuple[int, int]]] = {p: [] for p in range(a, a + k)}
    for (i, j) in host_edges(host):
        # attribute each edge to its later-placed internal endpoint
        if a <= j < a + k:
            constraints[j].append((i, pattern.colours[(i, j)]))
        elif a <= i < a + k:
            constraints[i].append((j, pattern.colours[(i, j)]))

    internals: list[int] = []
    for p in range(a, a + k):
        cand = pool
        for (q, colour) in constraints[p]:
            cand &= collection.neighbour_mask(colour, placed[q])
        if cand == 0:
            raise ConnectionFailedError(
                f"no candidate for connector position {p} "
                f"(internal {p - a + 1} of {k})",
                position=p,
            )
        v = pick_bit(cand, rng)
        placed[p] = v
        internals.append(v)
        pool &= ~(1 << v)

    result = verify_coloured_embedding(collection, pattern, [*w, *internals, *y])
    if not result.ok:  # greedy construction realises every edge it checked
        raise HamPowerError(f"internal error: connector failed verification at {result.violation}")
    return tuple(internals)
