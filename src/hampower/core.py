"""Domain types: graph collections, host templates, colour patterns, powers.

A *graph collection* is a family G_1, ..., G_m of simple graphs on the shared
vertex set {0, ..., n-1}.  Colours are 1-based graph indices: colour c on an
edge means "this edge must come from G_c".

A *host template* fixes the canonical edge set of the structure being
embedded:

* ``power_path(r, k)``   -- positions 0..r-1, edges between positions at
  distance <= k;
* ``power_cycle(n, k)``  -- positions 0..n-1, edges at cyclic distance <= k
  (requires n >= 2k+1 so the edge set is simple with exactly kn edges);
* ``connector(a, b, k)`` -- a power path on a+k+b positions, minus the edges
  inside the first a and inside the last b positions.  It joins a path end of
  length a to a path start of length b through k fresh internal vertices.

A *colour pattern* is a total map from the host's canonical edges to colours.
An ordered vertex list realises the pattern when every canonical host edge
(i, j) of colour c maps to an edge of G_c.  Patterns are anchored: position 0
of a vertex list always corresponds to host position 0; cycle rotation and
reflection are handled by callers (the oracle searches over placements).
A *layout* (the solver's cycle, the absorbing path) is a host plus named
segments in host order: pieces, the connectors that join them, and runs of
one-vertex extensions.  Their edges must tile the host's edges exactly, and
the positions each one places must tile the host's positions, which
:func:`check_edge_partition` checks when a :class:`Layout` is made.
"""

from __future__ import annotations

import functools
import json
import reprlib
from dataclasses import dataclass
from itertools import chain, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .bitset import select
from .errors import (
    HamPowerError,
    InvalidHostError,
    InvalidInstanceError,
    InvalidPatternError,
    VerificationInputError,
)

Edge = tuple[int, int]

POWER_PATH = "power_path"
POWER_CYCLE = "power_cycle"
CONNECTOR = "connector"


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class HostTemplate:
    """Canonical edge-set description: a power path/cycle or a connector.

    ``order`` is the number of host positions; ``a``/``b`` are the end block
    sizes of a connector and are 0 otherwise.
    """

    kind: str
    k: int
    order: int
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidHostError(f"power k must be >= 1, got {self.k}")
        if self.order < 1:
            raise InvalidHostError(f"host order must be >= 1, got {self.order}")
        if self.kind == POWER_CYCLE:
            if self.order < 2 * self.k + 1:
                raise InvalidHostError(
                    f"power_cycle needs n >= 2k+1 (n={self.order}, k={self.k})"
                )
        elif self.kind == CONNECTOR:
            if not (1 <= self.a <= self.k and 1 <= self.b <= self.k):
                raise InvalidHostError(
                    f"connector needs 1 <= a,b <= k (a={self.a}, b={self.b}, k={self.k})"
                )
            if self.order != self.a + self.k + self.b:
                raise InvalidHostError("connector order must equal a+k+b")
        elif self.kind != POWER_PATH:
            raise InvalidHostError(f"unknown host kind {self.kind!r}")


def power_path(r: int, k: int) -> HostTemplate:
    return HostTemplate(POWER_PATH, k, r)


def power_cycle(n: int, k: int) -> HostTemplate:
    return HostTemplate(POWER_CYCLE, k, n)


def connector(a: int, b: int, k: int) -> HostTemplate:
    return HostTemplate(CONNECTOR, k, a + k + b, a, b)


def host_edges(host: HostTemplate) -> list[Edge]:
    """Canonical edge list of a host, sorted lexicographically.

    Connector edges are the power-path edges minus those inside the first
    ``a`` and inside the last ``b`` positions.  The list is the caller's own
    copy.
    """
    return list(_host_edges(host))


# A solve meets a few dozen hosts (its cycle, the absorbing and builder
# paths, the connector shapes, one path per gadget size) and most of them
# many times; C_2000^2's 4000 edges cost about 0.5 MB as tuple and set.
@functools.lru_cache(maxsize=128)
def _host_edges(host: HostTemplate) -> tuple[Edge, ...]:
    """:func:`host_edges` as a shared tuple, built once per host."""
    n, k = host.order, host.k
    if host.kind == POWER_CYCLE:
        edges = {canonical_edge(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)}
        return tuple(sorted(edges))
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]
    if host.kind == CONNECTOR:
        a, b = host.a, host.b
        edges = [(i, j) for (i, j) in edges if not (j < a or i >= n - b)]
    return tuple(edges)


@functools.lru_cache(maxsize=128)
def _host_edge_set(host: HostTemplate) -> frozenset[Edge]:
    return frozenset(_host_edges(host))


EXTEND = "extend"


@dataclass(frozen=True)
class Segment:
    """A run of a layout's host positions; ``shape`` sits at ``start``.

    A connector shape's window begins with the last ``shape.a`` positions of
    the piece before it.  An EXTEND segment places its ``shape.order``
    positions a vertex at a time, each joined to the k positions before it.
    """

    name: str
    kind: str
    start: int
    shape: HostTemplate

    def edges(self) -> Iterator[Edge]:
        start, k = self.start, self.shape.k
        if self.kind == EXTEND:
            own = range(start, start + self.shape.order)
            return ((p - d, p) for p in own for d in range(1, k + 1))
        return ((start + p, start + q) for (p, q) in _host_edges(self.shape))

    def positions(self) -> range:
        """The host positions this segment places: a connector's k
        internals, or every position of any other segment's window."""
        if self.kind == CONNECTOR:
            first = self.start + self.shape.a
            return range(first, first + self.shape.k)
        return range(self.start, self.start + self.shape.order)


@dataclass(frozen=True)
class Layout:
    """Named segments in host order whose edges tile the host's edges and
    whose placed positions tile its positions, exactly;
    :func:`check_edge_partition` checks this on construction."""

    host: HostTemplate
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        check_edge_partition(self)


def check_edge_partition(layout: Layout) -> None:
    """Raise unless the layout's segments tile its host's edges exactly,
    naming the segment of an edge covered twice, or else counting the host
    edges uncovered and the edges outside the host.  Then raise unless the
    positions the segments place (:meth:`Segment.positions`) tile the
    host's positions, which catches a segment without edges at a wrong
    start.  Positions wrap modulo the order of a power cycle."""
    host = layout.host
    n, wrap = host.order, host.kind == POWER_CYCLE
    covered: set[Edge] = set()
    for seg in layout.segments:
        for (x, y) in seg.edges():
            e = canonical_edge(x % n, y % n) if wrap else canonical_edge(x, y)
            if e in covered:
                raise HamPowerError(f"layout error: host edge {e} assigned twice (at {seg.name})")
            covered.add(e)
    expected = _host_edge_set(host)
    if covered != expected:
        missing, outside = expected - covered, covered - expected
        raise HamPowerError(
            f"layout error: {len(missing)} host edges uncovered, {len(outside)} outside "
            f"the host (e.g. {sorted(missing)[:4] or sorted(outside)[:4]})"
        )
    placed: set[int] = set()
    for seg in layout.segments:
        for p in seg.positions():
            q = p % n if wrap else p
            if q in placed or not 0 <= q < n:
                raise HamPowerError(
                    f"layout error: host position {q} placed twice or outside the host "
                    f"(at {seg.name})"
                )
            placed.add(q)
    if len(placed) != n:
        raise HamPowerError(f"layout error: {n - len(placed)} host positions unplaced")


@dataclass(frozen=True, eq=True)
class ColourPattern:
    """Total colour assignment on a host's canonical edge set."""

    host: HostTemplate
    colours: Mapping[Edge, int]

    def __post_init__(self) -> None:
        expected = _host_edge_set(self.host)
        if len(self.colours) != len(expected) or not expected.issuperset(self.colours):
            got = set(self.colours)
            missing = expected - got
            extra = got - expected
            raise InvalidPatternError(
                f"pattern domain mismatch: {len(missing)} host edges missing, "
                f"{len(extra)} extraneous (e.g. missing={sorted(missing)[:3]}, "
                f"extra={sorted(extra)[:3]})"
            )
        for e, c in self.colours.items():
            if not isinstance(c, int) or c < 1:
                raise InvalidPatternError(f"colour on edge {e} must be a 1-based int, got {c!r}")
        object.__setattr__(self, "colours", MappingProxyType(dict(self.colours)))

    def colour_of(self, i: int, j: int) -> int:
        return self.colours[canonical_edge(i, j)]

    @property
    def max_colour(self) -> int:
        return max(self.colours.values(), default=1)


@dataclass(frozen=True)
class PowerPath:
    """Ordered distinct vertices; the edge set is implied by the k-power rule."""

    k: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 1:
            raise InvalidInstanceError("a power path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInstanceError("power path vertices must be distinct")

    @property
    def order(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class PowerCycle:
    """Cyclically ordered distinct vertices; requires order >= 2k+1."""

    k: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInstanceError("power cycle vertices must be distinct")
        if len(self.vertices) < 2 * self.k + 1:
            raise InvalidInstanceError(
                f"power cycle needs >= 2k+1 vertices (got {len(self.vertices)}, k={self.k})"
            )

    @property
    def order(self) -> int:
        return len(self.vertices)


class GraphCollection:
    """m simple graphs on the shared vertex set {0, ..., n-1}.

    Graph c (1-based) is stored as one bitmask row per vertex: bit u of
    ``masks[c - 1][v]`` is set exactly when uv is an edge.  ``tables`` gives
    those rows, one sequence of n ints per graph; a table object passed
    more than once (e.g. m copies of K_n) is checked once and shared.

    ``min_degrees[c - 1]`` is the minimum degree δ_c of graph c, computed
    once per distinct table; :func:`min_degree` reads it.
    Instances are immutable once constructed.
    """

    __slots__ = ("n", "masks", "min_degrees")

    def __init__(self, n: int, tables: Sequence[Sequence[int]]):
        _check_sizes(n, len(tables))
        checked: dict[int, tuple[tuple[int, ...], int]] = {}
        masks, min_degrees = [], []
        for gi, rows in enumerate(tables):
            entry = checked.get(id(rows))
            if entry is None:
                entry = checked[id(rows)] = _checked_table(n, gi + 1, rows)
            masks.append(entry[0])
            min_degrees.append(entry[1])
        self.n = n
        self.masks = tuple(masks)
        self.min_degrees = tuple(min_degrees)

    @property
    def m(self) -> int:
        return len(self.masks)

    def has_edge(self, colour: int, u: int, v: int) -> bool:
        return bool((self.masks[colour - 1][u] >> v) & 1)

    def neighbour_mask(self, colour: int, v: int) -> int:
        return self.masks[colour - 1][v]

    def degree(self, colour: int, v: int) -> int:
        return self.masks[colour - 1][v].bit_count()

    @classmethod
    def from_edge_lists(cls, n: int, edge_lists: Sequence[Iterable[tuple[int, int]]]) -> "GraphCollection":
        """Collection from one edge list per graph; graphs with equal edge
        lists share one mask table."""
        _check_sizes(n, len(edge_lists))
        built: list[tuple[list[Edge], tuple[int, ...]]] = []
        tables = []
        for edges in edge_lists:
            edges = list(edges)
            table = next((t for prior, t in built if prior == edges), None)
            if table is None:
                table = _table_of_edges(n, edges)
                built.append((edges, table))
            tables.append(table)
        return cls(n, tables)

    def edge_lists(self) -> list[tuple[Edge, ...]]:
        """Per graph, its edges (u, v) with u < v in lexicographic order.

        Graphs that share a mask table share one edge tuple.
        """
        decoded: dict[int, tuple[Edge, ...]] = {}
        out = []
        for table in self.masks:
            edges = decoded.get(id(table))
            if edges is None:
                edges = decoded[id(table)] = _edges_of(table)
            out.append(edges)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GraphCollection)
            and self.n == other.n
            and self.masks == other.masks
        )

    def __repr__(self) -> str:
        return f"GraphCollection(n={self.n}, m={self.m})"


def _check_sizes(n: int, m: int) -> None:
    if n < 1:
        raise InvalidInstanceError(f"vertex count must be >= 1, got {n}")
    if m < 1:
        raise InvalidInstanceError("a collection needs at least one graph")


def _table_of_edges(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Bitmask rows of the graph with these edges; repeats are merged."""
    rows = [0] * n
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInstanceError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InvalidInstanceError(f"self-loop ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def _checked_table(n: int, g: int, rows: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The rows of graph ``g`` (1-based, for messages) as a tuple, checked
    to be the bitmask rows of a simple graph on n vertices, and the
    graph's minimum degree."""
    rows = tuple(rows)
    if len(rows) != n:
        raise InvalidInstanceError(f"graph {g}: {len(rows)} mask rows, expected {n}")
    for v, row in enumerate(rows):
        if type(row) is not int:
            raise InvalidInstanceError(f"graph {g}: row {v} is not an int mask ({row!r})")
    if min(rows) < 0 or max(rows).bit_length() > n:
        v = next(v for v, row in enumerate(rows) if row < 0 or row.bit_length() > n)
        raise InvalidInstanceError(f"graph {g}: endpoint out of range at vertex {v}")
    # the adjacency matrix as one string: row v is flat[v*n:(v+1)*n], its
    # column v is the stride slice flat[v::n], and its diagonal flat[::n+1]
    width = f"0{n}b"
    flat = "".join([format(row, width)[::-1] for row in rows])
    v = flat[:: n + 1].find("1")
    if v >= 0:
        raise InvalidInstanceError(f"graph {g}: self-loop at vertex {v}")
    for v in range(n):
        row, column = flat[v * n:(v + 1) * n], flat[v::n]
        if row != column:
            u = next(u for u in range(n) if row[u] != column[u])
            raise InvalidInstanceError(f"graph {g}: asymmetric adjacency on edge ({u},{v})")
    return rows, min(map(int.bit_count, rows))


def _edges_of(table: Sequence[int]) -> tuple[Edge, ...]:
    """Edges (u, v), u < v, of one mask table; each endpoint is one shared
    int object, so a dense table costs little beyond its pair tuples."""
    ids = list(range(len(table)))
    edges: list[Edge] = []
    for u, row in enumerate(table):
        edges.extend(zip(repeat(ids[u]), select(row >> u, ids[u:])))
    return tuple(edges)


class VerifyResult(NamedTuple):
    ok: bool
    violation: Optional[Edge]  # first offending host edge, canonical order

    def __bool__(self) -> bool:
        return self.ok


def verify_coloured_embedding(
    collection: GraphCollection,
    pattern: ColourPattern,
    vertices: Sequence[int],
) -> VerifyResult:
    """Check that the vertex list realises the pattern in the collection.

    Returns ``(True, None)`` when every canonical host edge (i, j) with
    colour c maps to an edge of G_c, otherwise ``(False, (i, j))`` for the
    first offending host edge in canonical order.  Raises on length mismatch
    or repeated vertices.
    """
    host = pattern.host
    if len(vertices) != host.order:
        raise VerificationInputError(
            f"vertex list has length {len(vertices)}, host order is {host.order}"
        )
    if len(set(vertices)) != len(vertices):
        raise VerificationInputError("vertex list contains repeats")
    for v in vertices:
        if not (0 <= v < collection.n):
            raise VerificationInputError(f"vertex {v} out of range for n={collection.n}")
    colours, masks, m = pattern.colours, collection.masks, collection.m
    for e in _host_edges(host):
        c = colours[e]
        if c > m or not (masks[c - 1][vertices[e[0]]] >> vertices[e[1]]) & 1:
            return VerifyResult(False, e)
    return VerifyResult(True, None)


def min_degree(collection: GraphCollection) -> int:
    """Minimum degree over all graphs and all vertices."""
    return min(collection.min_degrees)


def restrict_pattern(pattern: ColourPattern, start: int, target: HostTemplate) -> ColourPattern:
    """Restriction of a pattern to a consecutive window of host positions.

    The window is ``start, start+1, ..., start+target.order-1``; it wraps
    modulo the host order for power-cycle sources and must stay in range for
    power-path sources.  The target host re-indexes positions from 0 and may
    be a path or a connector (whose end-block edges are simply dropped).
    """
    src = pattern.host
    if src.kind == CONNECTOR:
        raise InvalidPatternError("cannot restrict a connector pattern")
    if target.k != src.k:
        raise InvalidPatternError(f"window power mismatch: {target.k} != {src.k}")
    if target.order > src.order:
        raise InvalidPatternError("window longer than the source host")
    if src.kind == POWER_PATH:
        if start < 0 or start + target.order > src.order:
            raise InvalidPatternError(
                f"window [{start}, {start + target.order}) out of range for order {src.order}"
            )
    n, off, colours = src.order, start % src.order, pattern.colours
    edges = _host_edges(target)
    if off + target.order <= n:  # no wrap: shifted edges stay canonical
        window = {(i, j): colours[off + i, off + j] for (i, j) in edges}
    else:
        window = {
            (i, j): colours[canonical_edge((off + i) % n, (off + j) % n)] for (i, j) in edges
        }
    return ColourPattern(target, window)


# --- instance / pattern / cycle file formats (JSON text) ------------------

# The largest vertex count an instance file, and the largest host order a
# pattern file, may declare.  The loaders reject larger sizes before they
# allocate anything by them: checking one graph on n vertices builds an
# n^2-character adjacency string (100 MB at this limit).
MAX_FILE_ORDER = 10_000

_KIND_TO_FILE = {POWER_PATH: "path", POWER_CYCLE: "cycle", CONNECTOR: "connector"}
_FILE_TO_KIND = {v: k for k, v in _KIND_TO_FILE.items()}


def collection_to_dict(c: GraphCollection) -> dict:
    return {"n": c.n, "m": c.m, "graphs": c.edge_lists()}


def _json_int(value: object, error: type[HamPowerError], what: str) -> int:
    """``value`` if it is a JSON integer (an ``int``, not a ``bool``);
    otherwise raise ``error``."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def _only_ints(values: Iterable[object]) -> bool:
    return set(map(type, values)) <= {int}


def collection_from_dict(d: Mapping) -> GraphCollection:
    try:
        n, m, graphs = d["n"], d["m"], d["graphs"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"instance file: missing/invalid field ({exc})") from exc
    n = _json_int(n, InvalidInstanceError, "instance file: n")
    m = _json_int(m, InvalidInstanceError, "instance file: m")
    if n > MAX_FILE_ORDER:
        raise InvalidInstanceError(f"instance file: n={n} exceeds the limit {MAX_FILE_ORDER}")
    if not isinstance(graphs, list):
        raise InvalidInstanceError("instance file: graphs must be a list of edge lists")
    if len(graphs) != m:
        raise InvalidInstanceError(f"instance file: m={m} but {len(graphs)} graphs present")
    edge_lists: list[list[Edge]] = []
    for gi, edges in enumerate(graphs):
        same = next((j for j in range(gi) if graphs[j] == edges), None)
        if same is not None:  # decode a repeated graph once
            edge_lists.append(edge_lists[same])
            continue
        try:
            pairs = [(u, v) for (u, v) in edges]
        except (TypeError, ValueError) as exc:
            raise InvalidInstanceError(f"instance file: graph {gi + 1} has a malformed edge") from exc
        if not _only_ints(chain.from_iterable(pairs)):
            raise InvalidInstanceError(f"instance file: graph {gi + 1} has a non-integer endpoint")
        edge_lists.append(pairs)
    return GraphCollection.from_edge_lists(n, edge_lists)


def pattern_to_dict(p: ColourPattern) -> dict:
    h = p.host
    host = {"kind": _KIND_TO_FILE[h.kind], "n_or_r": h.order, "k": h.k, "a": h.a, "b": h.b}
    colours = [[i, j, c] for (i, j), c in sorted(p.colours.items())]
    return {"host": host, "colours": colours}


def pattern_from_dict(d: Mapping) -> ColourPattern:
    def host_int(field: str) -> int:
        return _json_int(h[field], InvalidPatternError, f"pattern file: host {field}")

    try:
        h = d["host"]
        kind = _FILE_TO_KIND[h["kind"]]
        k = host_int("k")
        if kind == CONNECTOR:
            host = connector(host_int("a"), host_int("b"), k)
        elif kind == POWER_PATH:
            host = power_path(host_int("n_or_r"), k)
        else:
            host = power_cycle(host_int("n_or_r"), k)
        entries = d.get("colours", [])
    except (KeyError, TypeError) as exc:
        raise InvalidPatternError(f"pattern file: missing/invalid host field ({exc})") from exc
    if host.order > MAX_FILE_ORDER:
        raise InvalidPatternError(
            f"pattern file: host order {host.order} exceeds the limit {MAX_FILE_ORDER}"
        )
    if not isinstance(entries, list):
        raise InvalidPatternError("pattern file: colours must be a list of [i, j, colour] entries")
    colours: dict[Edge, int] = {}
    for entry in entries:
        try:
            i, j, c = entry
        except (TypeError, ValueError) as exc:
            raise InvalidPatternError(f"pattern file: malformed colour entry {reprlib.repr(entry)}") from exc
        if not _only_ints((i, j, c)):
            raise InvalidPatternError(f"pattern file: non-integer colour entry {reprlib.repr(entry)}")
        e = canonical_edge(i, j)
        if e in colours:
            raise InvalidPatternError(f"pattern file: host edge {e} coloured twice")
        colours[e] = c
    # a dense host (k near its order) has ~order^2/2 edges: reject a file
    # that cannot cover them before the pattern lists them
    expected = _host_edge_count(host)
    if len(colours) < expected:
        raise InvalidPatternError(
            f"pattern domain mismatch: {expected} host edges, {len(colours)} coloured"
        )
    return ColourPattern(host, colours)


def _host_edge_count(host: HostTemplate) -> int:
    """``len(host_edges(host))`` without listing the edges."""
    n, k = host.order, host.k
    if host.kind == POWER_CYCLE:
        return n * k
    d = min(k, n - 1)  # edges at distance 1..d, n - j of them at distance j
    count = d * n - d * (d + 1) // 2
    if host.kind == CONNECTOR:  # the end blocks (a, b <= k) are cliques
        count -= host.a * (host.a - 1) // 2 + host.b * (host.b - 1) // 2
    return count


def cycle_to_dict(c: PowerCycle) -> dict:
    return {"k": c.k, "vertices": list(c.vertices)}


def cycle_from_dict(d: Mapping) -> PowerCycle:
    try:
        k, vertices = d["k"], tuple(d["vertices"])
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"cycle file: missing/invalid field ({exc})") from exc
    k = _json_int(k, InvalidInstanceError, "cycle file: k")
    if not _only_ints(vertices):
        raise InvalidInstanceError("cycle file: vertices must be integers")
    return PowerCycle(k, vertices)


def save_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
