"""Random greedy builder for disjoint coloured k-power paths.

Given r equal parts and s path patterns, the builder produces s vertex
disjoint k-power paths, each visiting the parts in order, one path per
round.  Within a round it grows all residual paths simultaneously, level by
level: the partial paths restricted to the last (up to k) levels form a
clique tiling, and attaching the next level is one perfect matching in the
auxiliary tiling graph (:func:`matching.tiling_graph`) built from the
pattern-specified colour graphs.
The matching is sampled directly by :func:`matching.sample_perfect_matching`,
a randomised augmenting search: a part pair whose minimum degree reaches
(2w-1)/2w of n_i (w = window size) guarantees that a matching exists, but
pairs below that bound usually have one too, so the sampler's own complete
search decides, and a level without a perfect matching aborts the round
with its step and level.
At the end of a round one of the finished paths is removed uniformly at
random, checked against the collection's own rows and kept.

A round is held as r level columns, ``levels[j][t]`` being path t's vertex
at level j, so the tiling graph's window is a slice of the columns and each
step's work runs column by column in C; only the kept path is read out as a
vertex list.  Within one call the right-hand side of every matching is
numbered by position in its part's sorted vertex list, so masks stay as
wide as a part rather than the whole collection; matched positions are
mapped back to vertex ids before the kept path is checked.  The rows into
a part are read once per call and colour, for the k parts before it at
once, by symmetry from the part's own rows (:func:`_part_tables`).
"""

from __future__ import annotations

import random
from collections.abc import Collection, Sequence
from itertools import chain
from operator import itemgetter
from typing import Callable

from .bitset import select
from .core import (
    ColourPattern,
    GraphCollection,
    PowerPath,
    check_int,
    check_ints,
    check_type,
    power_path,
    verify_coloured_embedding,
)
from .errors import (
    HamPowerError,
    InvalidInstanceError,
    InvalidPatternError,
    NoMatchingError,
    NoPerfectMatchingError,
)
from .matching import sample_perfect_matching, tiling_graph


def build_path_collection(
    collection: GraphCollection,
    parts: Sequence[Sequence[int]],
    patterns: Collection[ColourPattern],
    rng: random.Random,
) -> list[PowerPath]:
    """Produce disjoint coloured k-power paths, one per pattern.

    ``parts`` are a sequence of r >= 1 pairwise-disjoint sets of equal
    size n1, in the order the paths visit them, whose vertices are
    ``int``s in ``range(collection.n)``; there are at most n1 patterns,
    pattern i must live on power_path(r, k) and colours index into the
    collection.
    Raises :class:`NoMatchingError` (with step and level) when a level has
    no perfect matching to attach it.
    """
    check_type(collection, GraphCollection, "collection")
    for pat in check_type(patterns, Collection, "patterns"):
        check_type(pat, ColourPattern, "path pattern", InvalidPatternError)
    if not patterns:
        return []
    for i, part in enumerate(check_type(parts, Sequence, "parts")):
        check_type(part, Collection, f"part {i + 1}")
    r = len(parts)
    if r == 0:
        raise InvalidInstanceError("no parts to build paths through")
    k = next(iter(patterns)).host.k
    n1 = len(parts[0])
    if any(len(p) != n1 for p in parts):
        raise InvalidInstanceError("all parts must have equal size")
    check_int(len(patterns), "path pattern count", 1, n1)
    check_ints(chain.from_iterable(parts), "part vertex", 0, collection.n - 1, distinct=True)
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
    rows_into = _part_tables(collection, ids, k)
    out: list[PowerPath] = []
    for step, pat in enumerate(patterns, start=1):
        n_i = n1 - step + 1
        if any(p.bit_count() != n_i for p in residual):
            raise HamPowerError("internal error: residual parts lost equal sizes")
        levels = _run_round(ids, residual, rows_into, pat, k, r, step, rng)
        t = rng.randrange(n_i)
        chosen = [column[t] for column in levels]
        result = verify_coloured_embedding(collection, pat, chosen)
        if not result.ok:
            raise HamPowerError(f"internal error: round {step} path fails at {result.violation}")
        out.append(PowerPath(k, tuple(chosen)))
        for j in range(r):
            residual[j] ^= 1 << local[chosen[j]]
    return out


def _part_tables(
    collection: GraphCollection, ids: Sequence[Sequence[int]], k: int
) -> Callable[[int, int], dict[int, int]]:
    """``rows_into(c, j)``: table (c, j), built on first use and kept for the
    caller's lifetime.  It maps every vertex of the (up to) k parts before
    part j to its colour-c neighbourhood in part j, as a mask of part j's
    positions; a round reads no other rows.

    The rows are read by symmetry, which :class:`GraphCollection` checks when
    it is built: u's bit in x's row is x's bit in u's row.  Part j's rows,
    last position first, are written as one string of n + 1 digits each
    (``bin`` with a sentinel bit n, reversed, so bit v sits at offset v), so
    u's row over the positions is ``int(digits[u::n + 1], 2)``, read in C.
    The string is dropped once the table is filled.
    """
    n = collection.n
    top = 1 << n
    tables: dict[tuple[int, int], dict[int, int]] = {}

    def rows_into(c: int, j: int) -> dict[int, int]:
        table = tables.get((c, j))
        if table is None:
            rows = collection.masks[c - 1]
            digits = "".join([bin(rows[x] | top)[:1:-1] for x in reversed(ids[j])])
            table = tables[c, j] = {
                u: int(digits[u::n + 1], 2) for u in chain.from_iterable(ids[max(0, j - k):j])
            }
        return table

    return rows_into


def _run_round(
    ids: Sequence[Sequence[int]],
    residual: Sequence[int],
    rows_into: Callable[[int, int], dict[int, int]],
    pat: ColourPattern,
    k: int,
    r: int,
    step: int,
    rng: random.Random,
) -> list[list[int]]:
    """Grow n_i disjoint coloured paths across all r parts, as r level
    columns of vertex ids: ``levels[j][t]`` is path t's vertex at level j."""
    levels: list[list[int]] = [list(select(residual[0], ids[0]))]
    for lvl in range(1, r):
        win_lo = max(0, lvl - k)
        tables = [rows_into(pat.colour_of(j, lvl), lvl) for j in range(win_lo, lvl)]
        aux = tiling_graph(tables, levels[win_lo:], residual[lvl])
        try:
            matching = sample_perfect_matching(aux, rng)
        except NoPerfectMatchingError as exc:
            raise NoMatchingError(
                f"step {step}: no perfect matching while attaching level {lvl}",
                step=step,
                level=lvl,
            ) from exc
        # the pairs come sorted by tile, so their right ids are the new column
        levels.append(list(map(ids[lvl].__getitem__, map(itemgetter(1), matching))))
    return levels
