"""Exhaustive decision procedure for coloured Hamilton k-power existence.

Patterns are anchored, so the search enumerates injective assignments of
vertices to host positions 0..n-1 left to right (the position-0 vertex
ranges over all n vertices), pruning a partial assignment as soon as any
within-k host edge fails its colour's adjacency.  Wrap-around edges are
checked when their later endpoint is placed.  Candidates are tried in
ascending residual degree in the colour of the next cycle edge.

Each twin class is tried once.  Vertices u and v are twins when
N_c(u) - v = N_c(v) - u in every graph c of the collection, so swapping
them maps placements that work to placements that work.  Twin classes are
computed once per call; a position skips any candidate that has a smaller
member of its class still unused, so the search visits only the canonical
placements, those that place each class in ascending vertex order.  Every
injective placement is one relabelling within classes away from exactly
one canonical placement, so a count is the canonical count times the
product of |C|! over the classes C.  On a collection without twins the
search is the plain one.

Each orbit of the collection's other symmetries is tried once too.  An
automorphism g (a permutation that keeps every graph) maps placements that
work to placements that work, and the automorphisms are listed once per
call on the quotient by the twin classes, along a stabiliser chain: one
coset representative per candidate image at each level, found by a
forward-checking search stopped at its first leaf, and the rest of the
group as products.  The work is bounded by ``SYMMETRY_WORK`` units, one
per 64-bit word of each row intersected or counted and n per automorphism
listed (see ``_automorphisms``); ``SearchStats.symmetry_work`` is the work
spent.  Each automorphism is lifted to the permutation that maps every
class onto its image class in increasing vertex order, so it maps
canonical placements to canonical placements.  A frame carries the lifts
found that fix every vertex placed so far.  They map its candidates to its
candidates, so candidates v and w with the same least image, min_g g(v) =
min_g g(w) = u, form one bucket and have as many canonical completions
as u has.
The frame tries only the first candidate of each bucket and weights its
completions by the bucket's size.  That argument needs only that the
lifts be automorphisms and include the identity, not that they form a
group, so a search stopped at its work bound leaves every answer and
count exact.  When the identity is the only automorphism found, every
bucket is one candidate and the search is the plain one.

The search is iterative, one stack frame per placed position, so no order
reaches Python's recursion limit.  A node is one vertex placed at one
position of a canonical partial placement, the first of its bucket, and
``SearchStats.nodes`` counts each node once in the order of a plain
depth-first recursion, including a node whose next position has no
candidate.  A frame intersects the rows its children share once; each
child then costs one AND with its predecessor's row.  Only one vertex is
left for the last position, so a completed cycle is counted without a
frame of its own.

Exhaustive runs stay practical only at small n.  The lower-bound instances
have symmetries but, at k >= 3, no twins: at n = 12 (k = 3) they take 777
and 2 736 nodes, against 214 992 and 777 720 with the twin cut alone, and
at n = 15 (k = 2) 1 528 and 2 653, against 352 521 and 617 561.  Listing
their 288 and 240 automorphisms takes about 1.5 and 1.2 ms a call.  Budgeted
runs work at every order up to ``core.MAX_FILE_ORDER``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .bitset import mask_of
from .core import (
    POWER_CYCLE,
    ColourPattern,
    GraphCollection,
    PowerCycle,
    check_int,
    check_type,
    verify_coloured_embedding,
)
from .errors import HamPowerError, InvalidInstanceError, InvalidPatternError

FOUND = "found"
NONE = "none"
UNKNOWN = "unknown"


# the automorphism search stops once it has spent this much work: one unit
# per 64-bit word of each row it intersects or counts, and n per
# automorphism it lists.  It caps the listed group, which may be only part
# of the whole: at n = 16, lowerbound_construction(3, 4) lists 1 858 of its
# 4 608 automorphisms
SYMMETRY_WORK = 1 << 15


@dataclass
class SearchStats:
    nodes: int = 0
    max_depth: int = 0
    elapsed: float = 0.0
    result: str = UNKNOWN
    symmetries: int = 1
    symmetry_work: int = 0


def _back_constraints(pattern: ColourPattern) -> list[list[tuple[int, int]]]:
    """For each position p, the (earlier position, colour) pairs it must
    respect; wrap edges are attributed to their later endpoint."""
    n, k = pattern.host.order, pattern.host.k
    back: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p in range(n):
        for d in range(1, k + 1):
            if p - d >= 0:
                back[p].append((p - d, pattern.colour_of(p - d, p)))
            if p + d >= n:
                back[p].append((p + d - n, pattern.colour_of(p, p + d - n)))
    return back


def _twin_classes(collection: GraphCollection) -> list[list[int]]:
    """The twin classes of the collection, each in ascending order, ordered
    by their smallest vertex.

    In one graph, u and v are twins exactly when their closed rows are equal
    (adjacent twins) or their open rows are equal (non-adjacent twins), and
    a vertex with a twin of one kind has none of the other.  A vertex's
    label in one graph is the smallest vertex of its twin class there; the
    classes of the collection group the vertices by their labels in every
    graph.
    """
    labels: list[list[int]] = [[] for _ in range(collection.n)]
    for rows in {id(rows): rows for rows in collection.masks}.values():
        closed: dict[int, int] = {}
        opened: dict[int, int] = {}
        for v, row in enumerate(rows):
            closed.setdefault(row | 1 << v, v)
            opened.setdefault(row, v)
        for v, row in enumerate(rows):
            first = closed[row | 1 << v]
            labels[v].append(first if first != v else opened[row])
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, label in enumerate(labels):
        classes.setdefault(tuple(label), []).append(v)
    return list(classes.values())


def _automorphisms(
    collection: GraphCollection,
    classes: list[list[int]],
    stats: Optional[SearchStats] = None,
) -> list[list[int]]:
    """Automorphisms of the collection found within ``SYMMETRY_WORK``, the
    identity first, each once; each is a list mapping every vertex to its
    image.  When ``stats`` is given, its ``symmetry_work`` is the work spent.

    The search runs on the quotient, one vertex per twin class (its smallest
    member), coloured by the class's size and by whether it is a clique in
    each graph: two distinct classes are fully joined or not joined at all in
    each graph, so a permutation of the classes that keeps colours and joins
    is an automorphism once each class is mapped onto its image class in
    increasing vertex order.  Colour refinement splits the representatives
    into cells that every automorphism keeps; a cell of one vertex is fixed,
    and since the refined cells are equitable, only the other
    representatives, ``moving``, are mapped, in increasing order, each
    mapping narrowing every later one's candidates by its joins to the one
    just mapped.

    The group is listed along its stabiliser chain (Sims): G_i fixes
    ``moving[:i]``, and G_i is the union of the cosets u G_(i+1), one per
    image y of ``moving[i]`` under G_i.  The candidates of each level with
    ``moving[:i]`` fixed are narrowed once along the identity.  From the
    deepest level up, a forward-checking search for each candidate y runs to
    its first leaf only, which is a coset representative u, and the level
    lists u h for every h of G_(i+1); products over the chain are distinct.
    Work is one unit per 64-bit word of each row intersected or counted and
    n per automorphism listed.  Stopping early leaves a subset of the
    automorphisms that contains the identity.
    """
    n = collection.n
    found = [list(range(n))]
    stats = stats or SearchStats()

    def spend(units: int) -> bool:
        """Charge ``units`` unless that takes the work past ``SYMMETRY_WORK``."""
        if stats.symmetry_work + units > SYMMETRY_WORK:
            return False
        stats.symmetry_work += units
        return True

    tables = list({id(rows): rows for rows in collection.masks}.values())
    members_of = {members[0]: members for members in classes}
    reps = list(members_of)
    quotient = mask_of(reps)
    joins = [{r: rows[r] & quotient for r in reps} for rows in tables]
    # rows[first] >> last & 1 is 0 for a class of one: it has no loop
    colour = {
        r: (len(members), tuple(rows[r] >> members[-1] & 1 for rows in tables))
        for r, members in members_of.items()
    }
    words = (n + 63) // 64
    while True:
        cells: dict = {}
        for r in reps:
            cells[colour[r]] = cells.get(colour[r], 0) | 1 << r
        if len(cells) == len(reps):
            return found
        order = [cells[c] for c in sorted(cells)]
        if not spend(len(reps) * len(joins) * len(order) * words):
            return found
        signature = {
            r: (colour[r], tuple((rows[r] & cell).bit_count() for rows in joins for cell in order))
            for r in reps
        }
        if len(set(signature.values())) == len(cells):
            break
        rank = {c: i for i, c in enumerate(sorted(set(signature.values())))}
        colour = {r: rank[signature[r]] for r in reps}
    moving = [r for r in reps if cells[colour[r]] & (cells[colour[r]] - 1)]

    # the work of narrowing the candidates of moving[i + 1:] by moving[i]
    steps = [(1 + (len(moving) - i - 1) * len(joins)) * words for i in range(len(moving))]

    def narrow(cand: list[int], i: int, y: int) -> Optional[list[int]]:
        """The candidates of ``moving[i + 1:]`` once ``moving[i]`` maps to
        y, from ``cand``, those of ``moving[i:]``; None if one is left with
        none."""
        x = moving[i]
        narrowed = []
        for z, c in zip(moving[i + 1:], cand[1:]):
            c &= ~(1 << y)
            for rows in joins:
                c &= rows[y] if rows[x] >> z & 1 else ~rows[y]
            if not c:
                return None
            narrowed.append(c)
        return narrowed

    # levels[i] holds the candidates of moving[i:] with moving[:i] fixed
    levels = [[cells[colour[r]] for r in moving]]
    for i, x in enumerate(moving[:-1]):
        if not spend(steps[i]):
            return found
        levels.append(narrow(levels[-1], i, x))
    # image[j] is moving[j]'s image: j < i stay fixed while level i is searched
    image = moving[:]
    for i in reversed(range(len(moving))):
        group = len(found)
        targets = levels[i][0] ^ 1 << moving[i]
        while targets:
            target = targets & -targets
            targets ^= target
            # one frame per mapped representative from moving[i] on: the
            # candidates of moving[j:] and the images of moving[j] not yet tried
            frames = [(levels[i], target)]
            while frames:
                j = i + len(frames) - 1
                cand, options = frames[-1]
                if not options:
                    frames.pop()
                    continue
                low = options & -options
                frames[-1] = cand, options ^ low
                if not spend(steps[j]):
                    return found
                y = low.bit_length() - 1
                narrowed = narrow(cand, j, y)
                if narrowed is None:
                    continue
                image[j] = y
                if narrowed:
                    frames.append((narrowed, narrowed[0]))
                    continue
                # a leaf: u maps moving[i] to the target and stands for its
                # coset of the group listed so far
                u = list(range(n))
                for x, y in zip(moving[i:], image[i:]):
                    for v, w in zip(members_of[x], members_of[y]):
                        u[v] = w
                for h in found[:group]:
                    if not spend(n):
                        return found
                    found.append(list(map(u.__getitem__, h)))
                break
    return found


def _run(
    collection: GraphCollection,
    pattern: ColourPattern,
    budget: Optional[int],
    count_all: bool,
) -> tuple[Optional[list[int]], int, SearchStats]:
    check_type(collection, GraphCollection, "collection")
    if check_type(pattern, ColourPattern, "pattern", InvalidPatternError).host.kind != POWER_CYCLE:
        raise InvalidInstanceError("oracle needs a power-cycle pattern")
    if pattern.host.order != collection.n:
        raise InvalidInstanceError("pattern order must equal the vertex count")
    if pattern.max_colour > collection.m:
        raise InvalidInstanceError("pattern colours exceed the number of graphs")
    limit = -1 if budget is None else check_int(budget, "node budget", 0)
    n = collection.n
    last = n - 1
    stats = SearchStats()
    started = time.perf_counter()
    full = (1 << n) - 1
    masks = collection.masks
    # next_rows[p] is the table of the colour of host edge (p, p+1): it
    # orders p's candidates, and its row at the vertex placed at p checks
    # position p+1.  The other rows position p is checked against belong to
    # positions placed before p-1: fixed[p] lists them as (q, table) pairs.
    next_rows = [masks[pattern.colour_of(p, (p + 1) % n) - 1] for p in range(n)]
    fixed = [
        [(q, masks[c - 1]) for q, c in back if q < p - 1]
        for p, back in enumerate(_back_constraints(pattern))
    ]
    assignment = [0] * n
    # twins holds the classes of two or more vertices as masks, and orbit is
    # the number of placements each canonical one stands for
    twins = []
    orbit = 1
    classes = _twin_classes(collection)
    for members in classes:
        if len(members) > 1:
            twins.append(mask_of(members))
            orbit *= math.factorial(len(members))
    lifts = _automorphisms(collection, classes, stats)
    stats.symmetries = len(lifts)

    def frame(p: int, cand: int, live: int, weight: int, lifts: list) -> tuple:
        """Position p's frame: the vertices unused before p, the rows that
        every child at p+1 shares, the table whose row at p's vertex
        completes a child's check, and p's candidates by ascending residual
        degree; of each twin class only its smallest unused vertex is a
        candidate.  ``lifts`` are the automorphisms found that fix every
        vertex placed before p; unless the identity is the only one, the
        frame keeps the first candidate of each bucket, the candidates with
        one least image, and ``sizes`` maps it to its bucket's size, by
        which the frame's ``weight`` multiplies for its child."""
        for members in twins:
            unused = live & members
            cand &= ~(unused & (unused - 1))
        key, ordered = next_rows[p], []
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            ordered.append(((key[v] & live).bit_count(), v))
            cand ^= low
        ordered.sort()
        sizes = None
        if len(lifts) > 1:
            buckets: dict[int, list[int]] = {}
            for _, v in ordered:
                buckets.setdefault(min(g[v] for g in lifts), []).append(v)
            sizes = {bucket[0]: len(bucket) for bucket in buckets.values()}
            ordered = [(d, v) for d, v in ordered if v in sizes]
        base = live
        for q, rows in fixed[p + 1]:
            base &= rows[assignment[q]]
        return p, live, base, key, iter(ordered), weight, lifts, sizes

    nodes = count = 0
    truncated = False
    found = None
    stack = [frame(0, full, full, 1, lifts)]
    # a frame's first candidate is a node unless the budget stops the
    # search before it
    max_depth = 1 if limit else 0
    while stack:
        p, live, base, key, siblings, weight, lifts, sizes = stack[-1]
        for _, v in siblings:
            if nodes == limit:
                truncated = True
                stack.clear()
                break
            nodes += 1
            cand = base & key[v]
            if not cand:
                continue
            assignment[p] = v
            placed = weight * sizes[v] if sizes else weight
            if p + 1 < last:
                stabiliser = [g for g in lifts if g[v] == v] if sizes else lifts
                stack.append(frame(p + 1, cand, live ^ (1 << v), placed, stabiliser))
                if p + 2 > max_depth and nodes != limit:
                    max_depth = p + 2
                break
            # one vertex is left for the last position: cand is that vertex,
            # and placing it completes the cycle
            if nodes == limit:
                truncated = True
                stack.clear()
                break
            nodes += 1
            count += placed
            max_depth = n
            if not count_all:
                assignment[last] = cand.bit_length() - 1
                found = assignment
                stack.clear()
                break
        else:
            stack.pop()

    stats.nodes, stats.max_depth = nodes, max_depth
    stats.elapsed = time.perf_counter() - started
    # a count run has its result from the count; a find run counts at most 1
    stats.result = UNKNOWN if truncated else FOUND if count else NONE
    return found, count * orbit, stats


def find_coloured_hamilton_power(
    collection: GraphCollection,
    pattern: ColourPattern,
    budget: Optional[int] = None,
) -> tuple[Optional[PowerCycle], SearchStats]:
    """Search for any vertex placement realising the anchored cycle pattern.

    Returns a verified cycle with ``stats.result == "found"``, or
    ``(None, stats)`` where the result distinguishes "none" (search space
    exhausted) from "unknown" (node budget hit first).
    """
    found, _, stats = _run(collection, pattern, budget, count_all=False)
    if found is None:
        return None, stats
    result = verify_coloured_embedding(collection, pattern, found)
    if not result.ok:
        raise HamPowerError(
            f"internal error: oracle output fails verification at {result.violation}"
        )
    return PowerCycle(pattern.host.k, tuple(found)), stats


def count_coloured_hamilton_powers(
    collection: GraphCollection,
    pattern: ColourPattern,
    budget: Optional[int] = None,
) -> tuple[int, SearchStats]:
    """Count anchored placements realising the pattern, by full enumeration.

    The count normalisation: every injective position-to-vertex assignment
    counts once, so one unlabelled cycle subgraph contributes up to 2n
    placements (n rotations times two directions).  The search enumerates
    the canonical placements only (one per relabelling of twins within
    their classes) and returns their number times the product of |C|!
    over the twin classes C, which is the number of all placements.  A hit
    node budget yields ``stats.result == "unknown"`` with the partial count,
    the canonical placements completed so far times the same product.
    """
    _, count, stats = _run(collection, pattern, budget, count_all=True)
    return count, stats
