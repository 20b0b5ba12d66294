"""Random greedy builder for disjoint coloured k-power paths.

Given r equal parts and s path patterns, the builder produces s vertex
disjoint k-power paths, each visiting the parts in order, one path per
round.  Within a round it grows all residual paths simultaneously, level by
level: the partial paths restricted to the last (up to k) levels form a
clique tiling, and attaching the next level is one perfect matching in the
auxiliary tiling graph (:func:`matching.tiling_graph`) built from the
pattern-specified colour graphs.
The matching is sampled directly: a part pair whose minimum degree reaches
(2w-1)/2w of n_i (w = window size) guarantees it exists, but pairs below
that bound usually have one too, so the sampler's own search decides and a
level without a perfect matching aborts the round with its step and level.
At the end of a round one of the finished paths is removed uniformly at
random and kept.

Within one call the right-hand side of every matching is numbered by
position in its part's sorted vertex list, so masks stay as wide as a part
rather than the whole collection; matched positions are mapped back to
vertex ids before every check.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Sequence

from .bitset import select
from .core import (
    ColourPattern,
    GraphCollection,
    PowerPath,
    power_path,
    verify_coloured_embedding,
)
from .errors import HamPowerError, InvalidInstanceError, NoMatchingError, NoPerfectMatchingError
from .matching import sample_perfect_matching, tiling_graph


def build_path_collection(
    collection: GraphCollection,
    parts: Sequence[Sequence[int]],
    patterns: Sequence[ColourPattern],
    s: int,
    rng: random.Random,
) -> list[PowerPath]:
    """Produce s disjoint coloured k-power paths, one per pattern.

    ``parts`` are r pairwise-disjoint vertex sets of equal size; pattern i
    must live on power_path(r, k) and colours index into the collection.
    Raises :class:`NoMatchingError` (with step and level) when a level has
    no perfect matching to attach it.
    """
    if len(patterns) != s:
        raise InvalidInstanceError(f"expected {s} patterns, got {len(patterns)}")
    if s == 0:
        return []
    r = len(parts)
    k = patterns[0].host.k
    n1 = len(parts[0])
    if any(len(p) != n1 for p in parts):
        raise InvalidInstanceError("all parts must have equal size")
    if s > n1:
        raise InvalidInstanceError(f"cannot build s={s} paths from parts of size {n1}")
    seen: set[int] = set()
    for p in parts:
        if seen & set(p):
            raise InvalidInstanceError("parts must be pairwise disjoint")
        seen.update(p)
    for i, pat in enumerate(patterns):
        if pat.host != power_path(r, k):
            raise InvalidInstanceError(f"pattern {i + 1} does not live on power_path({r},{k})")
        if pat.max_colour > collection.m:
            raise InvalidInstanceError(f"pattern {i + 1} uses a colour beyond m={collection.m}")

    # a vertex's local id is its position in its part's sorted vertex list;
    # residual parts are masks of local ids and keep equal sizes n_i,
    # shrinking by one per step
    ids = [sorted(p) for p in parts]
    local = {v: i for part in ids for i, v in enumerate(part)}
    residual = [(1 << n1) - 1] * r
    rows_into = _part_tables(collection, ids)
    out: list[PowerPath] = []
    for step, pat in enumerate(patterns, start=1):
        n_i = n1 - step + 1
        if any(p.bit_count() != n_i for p in residual):
            raise HamPowerError("internal error: residual parts lost equal sizes")
        chains = _run_round(collection, ids, residual, rows_into, pat, k, r, step, rng)
        chosen = chains[rng.randrange(n_i)]
        result = verify_coloured_embedding(collection, pat, chosen)
        if not result.ok:
            raise HamPowerError(f"internal error: round {step} path fails at {result.violation}")
        out.append(PowerPath(k, tuple(chosen)))
        for j in range(r):
            residual[j] ^= 1 << local[chosen[j]]
    return out


class _PartRows(dict):
    """Colour-c neighbourhoods into one part, as masks over the part's local
    ids, keyed by vertex and read from the collection on first use.

    A row is gathered in C: ``bin`` of the collection row with a sentinel
    bit above the top vertex (so every vertex has a fixed string index),
    an ``itemgetter`` over the part's vertices from its last to its first,
    and ``int(..., 2)``.
    """

    def __init__(self, table: Sequence[int], pick: Callable, top: int) -> None:
        super().__init__()
        self.table, self.pick, self.top = table, pick, top

    def __missing__(self, u: int) -> int:
        row = self[u] = int("".join(self.pick(bin(self.table[u] | self.top))), 2)
        return row


def _part_tables(
    collection: GraphCollection, ids: Sequence[Sequence[int]]
) -> Callable[[int, int], _PartRows]:
    """``rows_into(c, j)``: the rows of colour c into part j, one table per
    (c, j), kept for the caller's lifetime."""
    n = collection.n
    top = 1 << n
    # bin(row | top) is "0b1" and then bits n-1 .. 0: bit v at index n + 2 - v
    picks = [itemgetter(*[n + 2 - v for v in reversed(part)]) for part in ids]
    tables: dict[tuple[int, int], _PartRows] = {}

    def rows_into(c: int, j: int) -> _PartRows:
        table = tables.get((c, j))
        if table is None:
            table = tables[c, j] = _PartRows(collection.masks[c - 1], picks[j], top)
        return table

    return rows_into


def _run_round(
    collection: GraphCollection,
    ids: Sequence[Sequence[int]],
    residual: Sequence[int],
    rows_into: Callable[[int, int], _PartRows],
    pat: ColourPattern,
    k: int,
    r: int,
    step: int,
    rng: random.Random,
) -> list[list[int]]:
    """Grow n_i disjoint coloured paths across all r parts, as vertex ids."""
    chains: list[list[int]] = [[v] for v in select(residual[0], ids[0])]
    for lvl in range(1, r):
        win_lo = max(0, lvl - k)
        tables = [rows_into(pat.colour_of(j, lvl), lvl) for j in range(win_lo, lvl)]
        tiles = [chain[win_lo:] for chain in chains]
        aux = tiling_graph(tables, tiles, residual[lvl])
        try:
            matching = sample_perfect_matching(aux, rng)
        except NoPerfectMatchingError as exc:
            raise NoMatchingError(
                f"step {step}: no perfect matching while attaching level {lvl}",
                step=step,
                level=lvl,
            ) from exc
        part = ids[lvl]
        for (t_idx, v) in matching:
            chains[t_idx].append(part[v])

        _assert_window_tiling(collection, pat, chains, lvl, k, step)
    return chains


def _assert_window_tiling(
    collection: GraphCollection,
    pat: ColourPattern,
    chains: Sequence[Sequence[int]],
    lvl: int,
    k: int,
    step: int,
) -> None:
    """Each chain's trailing window must be a clique in the pattern colours."""
    lo = max(0, lvl - k + 1)
    pairs = [
        (p, q, collection.masks[pat.colours[p, q] - 1])
        for p in range(lo, lvl + 1)
        for q in range(p + 1, lvl + 1)
    ]
    for chain in chains:
        for (p, q, rows) in pairs:
            if not (rows[chain[p]] >> chain[q]) & 1:
                raise HamPowerError(
                    f"internal error: step {step} tiling invariant broken at "
                    f"levels ({p},{q})"
                )
