"""Instance and pattern generators.

Covers the test/benchmark surface: complete collections, random collections
with a minimum-degree floor, r-partite collections with per-pair bipartite
degree floors, multipartite collections (each colour complete multipartite on
its own random balanced partition, plus random edges inside the parts), and
the two-colour lower-bound family (a complete balanced multipartite graph
paired with its matching-thinned companion plus a short colour-2 connector
window, under which no compatible Hamilton power exists).

The random generators keep one draw order, so a seed gives the same
collection in every version: per graph, one ``rng.random()`` draw per vertex
pair, then the repair's ``rng.sample`` calls.  The pair draws of a graph (of
a part-pair block, in the r-partite generator) are taken together from
``rng.getrandbits``, 64 bits per pair, in chunks of at most 2**16 pairs.  For
``random.Random`` itself, which is what every caller passes
(``pipeline.derive_rng``, the benchmark workloads), that gives the flags and
the final rng state of the ``rng.random()`` calls.  The flags are bytes of
0/1 until they are read back as mask rows.  ``random_min_degree_collection``
draws and places them one block of rows at a time, a block's flags and
bytes at most ``_BLOCK_BYTES`` each (one row when a row is longer), so it
never holds n**2 bytes; the draw chunks and the row blocks change no flag.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress, count
from math import ceil

from .bitset import mask_of, nth_bit, select
from .core import (
    ColourPattern,
    GraphCollection,
    HostTemplate,
    check_int,
    check_real,
    check_type,
    connector,
    host_edges,
    power_cycle,
)
from .errors import InvalidInstanceError

__all__ = [
    "complete_collection",
    "complete_rpartite_collection",
    "random_rpartite_collection",
    "random_min_degree_collection",
    "multipartite_collection",
    "lowerbound_construction",
    "random_pattern",
    "bijective_pattern",
]


_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

# ``random()`` returns x / 2**53 for the 53-bit x = (w0 >> 5) << 26 | (w1 >>
# 6), where w0, w1 are two consecutive 32-bit Mersenne outputs, and
# ``getrandbits(64 * size)`` returns the same outputs in the same order, low
# word first.  The top byte of w0 is x >> 45.
_DRAW_CHUNK = 1 << 16
# ``random_min_degree_collection`` places its flags in blocks of rows of at
# most this many bytes (one row when a row is longer)
_BLOCK_BYTES = 1 << 22
_TIE = 2
_LOW_BITS = 45


@lru_cache(maxsize=16)
def _top_byte_table(threshold: int) -> bytes:
    """``translate`` table from the top byte of x to the flag x < threshold:
    1 below the threshold's top byte, 0 above and ``_TIE`` when equal."""
    top = threshold >> _LOW_BITS
    return bytes(1 if b < top else _TIE if b == top else 0 for b in range(256))


def _check_counts(**counts: int) -> None:
    for name, value in counts.items():
        check_int(value, name, 1)

def _draw_flags(rng: random.Random, size: int, density: float) -> bytes:
    """``size`` Bernoulli flags, one per ``rng.random()`` draw, in order:
    flag i is 1 exactly when the i-th draw is below ``density``.

    For ``random.Random`` itself the flags and the rng's final state equal
    those of ``size`` ``rng.random()`` calls, though no such call is made:
    each flag takes the 64 bits its call would, from one ``rng.getrandbits``
    per chunk of at most ``_DRAW_CHUNK`` flags.  A draw x / 2**53 is below
    ``density`` exactly when x < ceil(density * 2**53), which the top byte
    of x decides through a table except when it ties with the threshold's
    (about one draw in 256); a tie is decided from the full x.
    """
    threshold = ceil(density * (1 << 53))
    table = _top_byte_table(threshold)
    chunks = []
    for start in range(0, size, _DRAW_CHUNK):
        draws = min(_DRAW_CHUNK, size - start)
        raw = rng.getrandbits(64 * draws).to_bytes(8 * draws, "little")
        flags = raw[3::8].translate(table)
        tie = flags.find(_TIE)
        if tie >= 0:
            flags = bytearray(flags)
            while tie >= 0:
                word = int.from_bytes(raw[8 * tie:8 * tie + 8], "little")
                x = (word & 0xFFFFFFFF) >> 5 << 26 | word >> 38
                flags[tie] = x < threshold
                tie = flags.find(_TIE, tie + 1)
        chunks.append(flags)
    return b"".join(chunks)


def _mask_of_flags(flags: bytes | bytearray) -> int:
    """The mask whose bit i is ``flags[i]`` (non-empty 0/1 flags)."""
    return int(flags[::-1].translate(_FLAG_DIGITS), 2)


def _add_edges(rows: list[int], u: int, vertices: list[int]) -> None:
    """Join u to each of ``vertices``: row u takes them in one OR."""
    rows[u] |= mask_of(vertices)
    bit = 1 << u
    for v in vertices:
        rows[v] |= bit


def _repair_degree(rows: list[int], u: int, others: int, target: int, rng: random.Random) -> None:
    """Join u to ``rng.sample`` of its non-neighbours in the mask ``others``
    when it has fewer than ``target`` neighbours there; no draw otherwise.

    A few of them in a wide mask are sampled as ranks, the same draws as
    sampling their list (they depend only on its length), and each is
    found by :func:`nth_bit` instead of listing them all."""
    have = rows[u] & others
    short = target - have.bit_count()
    if short > 0:
        free = others ^ have
        # finding each rank costs less than listing the mask up to about
        # one rank per 64 to 150 bits of it; at 128 bits per rank the
        # 150-vertex rainbow workload's set-up read 2-4% slower, so 256
        if 256 * short < free.bit_length():
            c = free.bit_count()
            vertices = [nth_bit(free, i, c) for i in rng.sample(range(c), short)]
        else:
            vertices = rng.sample(list(select(free, count())), short)
        _add_edges(rows, u, vertices)


def complete_collection(n: int, m: int) -> GraphCollection:
    """m copies of K_n (a single mask table shared by reference)."""
    _check_counts(n=n, m=m)
    full = (1 << n) - 1
    rows = [full ^ (1 << v) for v in range(n)]
    return GraphCollection(n, [rows] * m)


def _rpartite_parts(r: int, part_size: int) -> list[list[int]]:
    return [list(range(i * part_size, (i + 1) * part_size)) for i in range(r)]


def _part_masks(r: int, part_size: int) -> list[int]:
    block = (1 << part_size) - 1
    return [block << (i * part_size) for i in range(r)]


def complete_rpartite_collection(
    r: int, part_size: int, m: int
) -> tuple[GraphCollection, list[list[int]]]:
    """m copies of the complete r-partite graph on balanced parts."""
    _check_counts(r=r, part_size=part_size, m=m)
    parts = _rpartite_parts(r, part_size)
    n = r * part_size
    full = (1 << n) - 1
    part_masks = _part_masks(r, part_size)
    rows = [full ^ part_masks[v // part_size] for v in range(n)]
    return GraphCollection(n, [rows] * m), parts


def random_rpartite_collection(
    r: int,
    part_size: int,
    m: int,
    delta_frac: float,
    rng: random.Random,
) -> tuple[GraphCollection, list[list[int]]]:
    """r-partite collection with per-pair bipartite minimum degree at least
    ceil(delta_frac * part_size) in every graph.

    Each cross-part bipartite graph is sampled edge-independently at density
    ``delta_frac`` and then repaired upward until the floor holds.  Per graph
    and per part pair (i, j), i < j, in lexicographic order: one
    ``rng.random()`` per vertex pair (u, v), u in part i and v in part j, in
    lexicographic order (edge when the draw is below ``delta_frac``), then
    the pair's repair, one ``rng.sample`` per short vertex of part i and
    then of part j.
    """
    check_real(delta_frac, "delta_frac", 0, 1)
    _check_counts(r=r, part_size=part_size, m=m)
    check_type(rng, random.Random, "rng")
    parts = _rpartite_parts(r, part_size)
    part_masks = _part_masks(r, part_size)
    n = r * part_size
    target = 0 if delta_frac <= 0 else min(part_size, int(delta_frac * part_size - 1e-9) + 1)
    tables = []
    for _ in range(m):
        rows = [0] * n
        for pi in range(r):
            for pj in range(pi + 1, r):
                # flags[a * part_size + b]: edge from the a-th vertex of part
                # pi to the b-th of part pj; a row slice and a strided column
                # slice give the two sides' masks
                flags = _draw_flags(rng, part_size * part_size, delta_frac)
                for a in range(part_size):
                    rows[pi * part_size + a] |= (
                        _mask_of_flags(flags[a * part_size:(a + 1) * part_size]) << (pj * part_size)
                    )
                    rows[pj * part_size + a] |= (
                        _mask_of_flags(flags[a::part_size]) << (pi * part_size)
                    )
                for side, other in ((pi, pj), (pj, pi)):
                    for u in parts[side]:
                        _repair_degree(rows, u, part_masks[other], target, rng)
        tables.append(rows)
    return GraphCollection(n, tables), parts


def random_min_degree_collection(
    n: int,
    m: int,
    delta_frac: float,
    rng: random.Random,
) -> GraphCollection:
    """Each graph: independent edge sampling at density ``delta_frac``, then
    greedy edge additions until the minimum degree reaches
    min(ceil(delta_frac * n), n-1).

    Per graph: one ``rng.random()`` per vertex pair (u, v), u < v, in
    lexicographic order (edge when the draw is below ``delta_frac``), then
    one ``rng.sample`` per vertex u below the target degree, in increasing u.
    """
    check_real(delta_frac, "delta_frac", 0, 1)
    _check_counts(n=n, m=m)
    check_type(rng, random.Random, "rng")
    target = 0 if delta_frac <= 0 else min(n - 1, int(delta_frac * n - 1e-9) + 1)
    full = (1 << n) - 1
    block = max(1, _BLOCK_BYTES // n)
    tables = []
    for _ in range(m):
        rows = [0] * n
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            pairs = (hi - lo) * (2 * n - 1 - lo - hi) // 2  # (u, v), lo <= u < hi, u < v
            _place_row_block(rows, lo, hi, _draw_flags(rng, pairs, delta_frac))
        for u in range(n):
            _repair_degree(rows, u, full ^ (1 << u), target, rng)
        tables.append(rows)
    return GraphCollection(n, tables)


def _place_row_block(rows: list[int], lo: int, hi: int, flags: bytes) -> None:
    """OR the pair flags of rows lo..hi-1 into ``rows``: ``flags`` holds the
    pairs (u, v), lo <= u < hi, u < v, row after row.

    ``block[(u - lo) * n + v]`` is 1 when uv is an edge, for u in the block:
    row u's flags go into its row and, by one strided slice, into column u
    of the block's later rows.  Row u is then read whole, and a later row v
    >= hi reads its bits lo..hi-1 from column v.
    """
    n = len(rows)
    block = bytearray((hi - lo) * n)
    start = 0
    for u in range(lo, min(hi, n - 1)):
        row = flags[start:start + n - 1 - u]
        start += n - 1 - u
        block[(u - lo) * n + u + 1:(u - lo + 1) * n] = row
        block[(u - lo + 1) * n + u::n] = row[:hi - 1 - u]
    for u in range(lo, hi):
        rows[u] |= _mask_of_flags(block[(u - lo) * n:(u - lo + 1) * n])
    for v in range(hi, n):
        rows[v] |= _mask_of_flags(block[v::n]) << lo


def multipartite_collection(
    n: int,
    parts: int,
    m: int,
    p: float,
    rng: random.Random,
) -> tuple[GraphCollection, list[list[list[int]]]]:
    """m graphs on n vertices, each the complete ``parts``-partite graph on
    its own random balanced partition plus random edges inside the parts at
    density ``p``; returns the collection and each graph's parts.

    Every vertex has degree at least n - ceil(n/parts); with parts = 2k
    dividing n and p = 0, every degree is (1 - 1/2k)n.  Per graph: one
    ``rng.shuffle`` of the vertices, whose i-th part is every
    ``parts``-th vertex of the shuffled order from the i-th on, then, part
    by part, one ``rng.random()`` per pair (u, v), u < v, of the part in
    lexicographic order (an edge when the draw is below ``p``).
    """
    check_real(p, "density p", 0, 1)
    _check_counts(n=n, m=m)
    check_int(parts, "part count", 1, n)
    check_type(rng, random.Random, "rng")
    full = (1 << n) - 1
    tables, partitions = [], []
    for _ in range(m):
        order = list(range(n))
        rng.shuffle(order)
        split = [sorted(order[i::parts]) for i in range(parts)]
        rows = [0] * n
        for part in split:
            outside = full ^ mask_of(part)
            for v in part:
                rows[v] = outside
            size = len(part)
            flags = _draw_flags(rng, size * (size - 1) // 2, p)
            start = 0
            for a, u in enumerate(part[:-1]):
                later = part[a + 1:]
                _add_edges(rows, u, list(compress(later, flags[start:start + len(later)])))
                start += len(later)
        tables.append(rows)
        partitions.append(split)
    return GraphCollection(n, tables), partitions


def lowerbound_construction(
    k: int, p: int, orientation: str = "figure"
) -> tuple[GraphCollection, ColourPattern]:
    """Two-graph instance on n = p(k+1) vertices with no compatible Hamilton
    k-power.

    G1 is the complete (k+1)-multipartite graph on balanced parts of size p.
    G2 replaces the bipartite graph between each paired part (2i-1, 2i) with
    the identity perfect matching and adds a clique inside every paired part.
    The pattern puts colour 2 on one connector window at positions 0..2k
    (connector from a single vertex / k vertices, selected by
    ``orientation``) and colour 1 everywhere else.

    ``orientation="figure"`` removes the window edges inside the trailing k
    positions; ``orientation="text"`` removes those inside the leading k
    positions.  Requires p >= 3.
    """
    check_int(p, "lower-bound part size p", 3)
    check_int(k, "lower-bound power k", 1)
    if orientation not in ("figure", "text"):
        raise InvalidInstanceError(f"unknown orientation {orientation!r}")
    n = p * (k + 1)
    full = (1 << n) - 1
    part_masks = _part_masks(k + 1, p)
    g1 = [full ^ part_masks[v // p] for v in range(n)]

    # G2: parts 0..paired-1 come in pairs (2i, 2i+1); a vertex of a paired
    # part sees its own part, only its copy in the partner part, and every
    # vertex outside the pair
    paired = 2 * ((k + 1) // 2)
    g2 = []
    for v in range(n):
        part = v // p
        if part < paired:
            partner = part ^ 1
            outside = full ^ part_masks[part] ^ part_masks[partner]
            own = part_masks[part] ^ (1 << v)
            copy = 1 << (partner * p + v % p)
            g2.append(outside | own | copy)
        else:
            g2.append(g1[v])
    collection = GraphCollection(n, [g1, g2])

    host = power_cycle(n, k)
    # "figure" drops the window edges inside the trailing k positions
    conn = connector(1, k, k) if orientation == "figure" else connector(k, 1, k)
    window_edges = set(host_edges(conn))
    colours = {e: 2 if e in window_edges else 1 for e in host_edges(host)}
    return collection, ColourPattern(host, colours)


def random_pattern(host: HostTemplate, m: int, rng: random.Random) -> ColourPattern:
    """Independent uniform colour in [m] for every canonical host edge."""
    check_int(m, "colour count m", 1)
    check_type(rng, random.Random, "rng")
    return ColourPattern(host, {e: rng.randrange(1, m + 1) for e in host_edges(host)})


def bijective_pattern(host: HostTemplate, rng: random.Random | None = None) -> ColourPattern:
    """Distinct colour per host edge (m equals the edge count); the
    edge-to-colour bijection is shuffled when an rng is supplied."""
    edges = host_edges(host)
    ids = list(range(1, len(edges) + 1))
    if rng is not None:
        check_type(rng, random.Random, "rng")
        rng.shuffle(ids)
    return ColourPattern(host, dict(zip(edges, ids)))
