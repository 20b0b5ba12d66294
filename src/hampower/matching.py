"""Bipartite matching, the tiling-extension graph, and perfect-matching sampling.

:func:`tiling_graph` turns "attach one more level to a family of partial
cliques" into a single bipartite matching problem: the auxiliary graph has
one left vertex per tile, adjacent to a right vertex exactly when that
vertex completes the tile (is adjacent to every tile member, each in the
graph named for its position).  A perfect matching in the auxiliary graph
extends a perfect K_k-tiling to a perfect K_{k+1}-tiling.

Perfect matchings can be sampled exactly uniformly (sequential conditional
sampling weighted by permanent counts, side length <= 24) or heuristically
(randomised-order augmenting search, near-uniform, cheap at any size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .bitset import iter_bits, mask_of, select
from .core import GraphCollection
from .errors import InvalidInstanceError, NoPerfectMatchingError, SizeLimitError

EXACT_SIDE_CAP = 24


@dataclass(frozen=True)
class BipartiteGraph:
    """Left/right sizes plus sorted right-neighbour tuples per left vertex."""

    n_left: int
    n_right: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adj) != self.n_left:
            raise InvalidInstanceError("bipartite adjacency must have one row per left vertex")
        for u, row in enumerate(self.adj):
            if any(not (0 <= v < self.n_right) for v in row):
                raise InvalidInstanceError(f"left vertex {u}: neighbour id out of range")
            if list(row) != sorted(set(row)):
                raise InvalidInstanceError(f"left vertex {u}: neighbours must be sorted and distinct")

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.adj)

    def rows(self) -> list[int]:
        return [mask_of(r) for r in self.adj]


def _augment(adj: Sequence[Sequence[int]], u: int, match_right: list[int], seen: list[bool]) -> bool:
    for v in adj[u]:
        if not seen[v]:
            seen[v] = True
            if match_right[v] == -1 or _augment(adj, match_right[v], match_right, seen):
                match_right[v] = u
                return True
    return False


def max_matching(b: BipartiteGraph) -> list[tuple[int, int]]:
    """Maximum-cardinality matching as sorted (left, right) pairs.

    Plain augmenting-path search; deterministic for a fixed adjacency
    ordering.
    """
    match_right = [-1] * b.n_right
    for u in range(b.n_left):
        seen = [False] * b.n_right
        _augment(b.adj, u, match_right, seen)
    pairs = [(u, v) for v, u in enumerate(match_right) if u != -1]
    pairs.sort()
    return pairs


def tiling_graph(
    collection: GraphCollection,
    colours: Sequence[int],
    tiles: Sequence[Sequence[int]],
    right: Sequence[int],
) -> BipartiteGraph:
    """Auxiliary graph of one tiling-extension step.

    Tiles are the left vertices and ``right`` the right ones: tile t is
    joined to ``right[i]`` when ``right[i]`` is adjacent to ``tiles[t][j]``
    in graph ``colours[j]``, for every j.  A perfect matching attaches one
    right vertex to every tile.
    """
    if any(len(tile) != len(colours) for tile in tiles):
        raise InvalidInstanceError(f"every tile needs {len(colours)} vertices, one per colour")
    support = mask_of(v for tile in tiles for v in tile)
    if support.bit_count() != len(tiles) * len(colours):
        raise InvalidInstanceError("tiles must be pairwise disjoint")
    right_mask = mask_of(right)
    if support & right_mask:
        raise InvalidInstanceError("tiles overlap the right-hand vertex set")
    tables = [collection.masks[c - 1] for c in colours]
    slot = [0] * collection.n
    for i, v in enumerate(right):
        slot[v] = i
    rows = []
    for tile in tiles:
        cand = right_mask
        for table, u in zip(tables, tile):
            cand &= table[u]
        rows.append(tuple(sorted(select(cand, slot))))
    return BipartiteGraph(len(tiles), len(right), tuple(rows))


def _count_completions(rows: Sequence[int], i: int, avail: int, memo: dict) -> int:
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


def count_perfect_matchings(b: BipartiteGraph) -> int:
    """Exact perfect-matching count (the permanent of the biadjacency
    matrix), via subset dynamic programming.  Sides must be equal and at
    most 24."""
    if b.n_left != b.n_right:
        raise SizeLimitError("perfect-matching count needs equal sides")
    if b.n_left > EXACT_SIDE_CAP:
        raise SizeLimitError(f"side {b.n_left} exceeds the exact cap {EXACT_SIDE_CAP}")
    rows = b.rows()
    return _count_completions(rows, 0, (1 << b.n_right) - 1, {})


def sample_perfect_matching(
    b: BipartiteGraph,
    rng: random.Random,
    mode: str = "exact",
) -> list[tuple[int, int]]:
    """Sample a perfect matching.

    ``exact`` draws exactly uniformly over all perfect matchings by
    sequential conditional sampling with permanent counts (sides <= 24).
    ``fast`` shuffles the vertex orders and runs augmenting-path search; it
    returns a valid perfect matching whose distribution is only
    heuristically close to uniform.
    """
    if b.n_left != b.n_right:
        raise NoPerfectMatchingError("perfect matching needs equal sides")
    n = b.n_left
    if mode == "exact":
        if n > EXACT_SIDE_CAP:
            raise SizeLimitError(f"side {n} exceeds the exact cap {EXACT_SIDE_CAP}")
        rows = b.rows()
        memo: dict = {}
        avail = (1 << n) - 1
        total = _count_completions(rows, 0, avail, memo)
        if total == 0:
            raise NoPerfectMatchingError("graph has no perfect matching")
        pairs = []
        for i in range(n):
            weights = []
            cand = rows[i] & avail
            for v in iter_bits(cand):
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
    if mode == "fast":
        order = list(range(n))
        rng.shuffle(order)
        shuffled = []
        for u in range(n):
            row = list(b.adj[u])
            rng.shuffle(row)
            shuffled.append(row)
        match_right = [-1] * n
        size = 0
        for u in order:
            seen = [False] * n
            if _augment(shuffled, u, match_right, seen):
                size += 1
        if size < n:
            raise NoPerfectMatchingError("graph has no perfect matching")
        pairs = [(u, v) for v, u in enumerate(match_right)]
        pairs.sort()
        return pairs
    raise InvalidInstanceError(f"unknown sampling mode {mode!r}")
