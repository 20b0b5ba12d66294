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
of a vertex list always corresponds to host position 0; rotated and
mirrored copies of one cycle are distinct placements, and the oracle
searches over all placements.
The host edge from position i to position i + d (taken mod n on a power
cycle), 1 <= d <= k, has the *edge index* i*k + d - 1; no other module
computes it.  A pattern stores its colours as one tuple in increasing edge
index (:attr:`ColourPattern.colours` reads it by canonical edge), so a
window of a pattern is a slice of it.  What is read by a host's edges is
one record, built once per host.  Its map from an edge to its colour slot
is built on the first read by edge, as most hosts are never read that
way and a long cycle's map costs more than its edge tuple.
A *layout* (the solver's cycle, the absorbing path) is a host plus named
segments in host order: pieces, the connectors that join them, and runs of
one-vertex extensions.  A :class:`Layout` is made from that order alone and
derives every start, connector shape and its host, so the positions tile
by construction; their edges must tile the host's edges exactly, which
:func:`check_edge_partition` checks when it is made, on bit masks over edge
indices.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TypeVar

from .bitset import select
from .errors import (
    HamPowerError,
    InvalidHostError,
    InvalidInstanceError,
    InvalidPatternError,
    VerificationInputError,
)

Edge = tuple[int, int]
T = TypeVar("T")

POWER_PATH = "power_path"
POWER_CYCLE = "power_cycle"
CONNECTOR = "connector"


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def check_int(value: object, what: str, low: int | None = None, high: int | None = None,
              error: type[HamPowerError] = InvalidInstanceError) -> int:
    """``value`` if it is an ``int`` (a ``bool`` does not count) in [low,
    high], a bound of None being open; otherwise raise ``error``."""
    if type(value) is int and (low is None or low <= value) and (high is None or value <= high):
        return value
    raise _invalid(value, type(value) is int, "an integer", what, low, high, error)


def check_ints(values: Iterable[object], what: str, low: int | None = None, high: int | None = None,
               error: type[HamPowerError] = InvalidInstanceError, *, distinct: bool = False,
               count: int | None = None) -> Sequence[int]:
    """:func:`check_int` for each member of ``values``, which must also be
    ``count`` members when given and distinct when asked; the error names
    the first offender.  Returns a list or tuple as it is, not copied, and
    any other iterable as a tuple."""
    if type(values) not in (list, tuple):
        try:
            values = tuple(values)
        except TypeError:
            raise error(f"{what} values must be iterable, got {reprlib.repr(values)}") from None
    if values and not (set(map(type, values)) <= {int} and (low is None or low <= min(values))
                       and (high is None or max(values) <= high)):
        for v in values:
            check_int(v, what, low, high, error)
    if count is not None and len(values) != count:
        raise error(f"{what} count must be {count}, got {len(values)}")
    if distinct and len(set(values)) != len(values):
        seen: set[int] = set()
        twice = next(v for v in values if v in seen or seen.add(v))  # the first value met again
        raise error(f"{what} {twice} is repeated")
    return values


def check_real(value: object, what: str, low: float | None = None, high: float | None = None,
               error: type[HamPowerError] = InvalidInstanceError) -> float:
    """:func:`check_int` for a finite ``int`` or ``float``."""
    real = type(value) is int or isinstance(value, float) and math.isfinite(value)
    if real and (low is None or low <= value) and (high is None or value <= high):
        return value
    raise _invalid(value, real, "a finite real number", what, low, high, error)


def check_type(value: object, kind: type[T], what: str,
               error: type[HamPowerError] = InvalidInstanceError) -> T:
    """``value`` if it is an instance of ``kind``; otherwise raise ``error``."""
    if isinstance(value, kind):
        return value
    raise error(f"{what} must be a {kind.__name__}, got {reprlib.repr(value)}")


def _invalid(value, typed: bool, kind: str, what: str, low, high, error) -> HamPowerError:
    """The error :func:`check_int` and :func:`check_real` raise: that ``value``
    is not ``kind`` unless it is ``typed``, else that it is out of range."""
    if not typed:
        return error(f"{what} must be {kind}, got {reprlib.repr(value)}")
    bound = f">= {low}" if high is None else f"<= {high}" if low is None else f"in [{low}, {high}]"
    return error(f"{what} must be {bound}, got {value}")


def only_ints(values: Iterable[object]) -> bool:
    """Whether ``values`` iterates over ``int``s only, not ``bool``s; False
    for a value that is not iterable."""
    try:
        return set(map(type, values)) <= {int}
    except TypeError:
        return False


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
        if self.kind not in (POWER_PATH, POWER_CYCLE, CONNECTOR):
            raise InvalidHostError(f"unknown host kind {self.kind!r}")
        check_int(self.k, "power k", 1, error=InvalidHostError)
        low = 2 * self.k + 1 if self.kind == POWER_CYCLE else 1  # a simple cycle with kn edges
        check_int(self.order, f"{self.kind} order", low, error=InvalidHostError)
        if self.kind == CONNECTOR:
            _check_ends(self.a, self.b, self.k)
            if self.order != self.a + self.k + self.b:
                raise InvalidHostError("connector order must equal a+k+b")


def power_path(r: int, k: int) -> HostTemplate:
    return HostTemplate(POWER_PATH, k, r)


def power_cycle(n: int, k: int) -> HostTemplate:
    return HostTemplate(POWER_CYCLE, k, n)


def connector(a: int, b: int, k: int) -> HostTemplate:
    # checked here as well, since the order a + k + b is taken before HostTemplate sees them
    _check_ends(a, b, check_int(k, "power k", 1, error=InvalidHostError))
    return HostTemplate(CONNECTOR, k, a + k + b, a, b)


def _check_ends(a: int, b: int, k: int) -> None:
    """A connector's end block sizes a and b must be ints in [1, k]."""
    check_int(a, "connector a", 1, k, InvalidHostError)
    check_int(b, "connector b", 1, k, InvalidHostError)


def host_edges(host: HostTemplate) -> list[Edge]:
    """Canonical edge list of a host, sorted lexicographically.

    Connector edges are the power-path edges minus those inside the first
    ``a`` and inside the last ``b`` positions; the list is the caller's own copy.
    """
    return list(_edges(check_type(host, HostTemplate, "host", InvalidHostError)).edges)


@dataclass(frozen=True)
class _EdgeRecord:
    """What the package reads of one host's edges, built by :func:`_edges`."""

    edges: tuple[Edge, ...]  # lexicographic, as :func:`host_edges` lists them
    by_index: tuple[Edge, ...]  # by increasing edge index: a pattern's colour order
    read: Callable[[dict], tuple]  # a dict at ``by_index``; KeyError at a missing edge
    mask: int  # the bit of every edge index
    prefix: int  # the longest prefix of ``by_index`` whose positions are their edge indices
    rest: Sequence[int]  # the edge indices of the rest
    gather: Callable[[Sequence], tuple]  # a sequence at ``rest``

    @functools.cached_property
    def slots(self) -> dict[Edge, int]:
        """Each edge's position in a pattern's colour tuple, built on the
        first read by edge."""
        return dict(zip(self.by_index, count()))


# A solve meets a few dozen hosts (its cycle, builder paths, connectors, one path
# per gadget size), most many times; C_2000^2's 4000 edges take ~0.3 MB as a tuple.
@functools.lru_cache(maxsize=128)
def _edges(host: HostTemplate) -> _EdgeRecord:
    """The host's edge record; edge indices are lexicographic except on a cycle."""
    n, k = host.order, host.k
    if host.kind == POWER_CYCLE:
        by_index = tuple(canonical_edge(i, (i + d) % n) for i in range(n) for d in range(1, k + 1))
        edges, indices = tuple(sorted(by_index)), range(n * k)  # every index is an edge's
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]
        if host.kind == CONNECTOR:  # less the end blocks' edges
            pairs = [(i, j) for (i, j) in pairs if not (j < host.a or i >= n - host.b)]
        edges = by_index = tuple(pairs)
        indices = tuple(i * k + j - i - 1 for (i, j) in edges)
    prefix = next((p for p, i in enumerate(indices) if p != i), len(indices))
    return _EdgeRecord(edges, by_index, _getter(by_index), _bits(indices, n * k),
                       prefix, indices[prefix:], _getter(indices[prefix:]))


def _getter(keys: Sequence) -> Callable[[object], tuple]:
    """Reads a container at these keys into a tuple, in C."""
    if len(keys) < 2:  # itemgetter returns a lone value unwrapped
        return lambda container: tuple(container[key] for key in keys)
    return itemgetter(*keys)


def _bits(indices: Iterable[int], width: int) -> int:
    """The int whose bits below ``width`` are set at these indices."""
    digits = bytearray(b"0" * (width + 1))  # a spare 0 for the empty set
    for i in indices:
        digits[width - i] = 49  # "1", most significant bit first
    return int(digits, 2)


EXTEND = "extend"


@dataclass(frozen=True)
class Segment:
    """A run of a layout's host positions; ``shape`` sits at ``start``.

    A connector shape's window begins with the last ``shape.a`` positions
    before it.  An EXTEND segment places its ``shape.order`` positions a
    vertex at a time, each joined to the k positions before it.
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
        return ((start + p, start + q) for (p, q) in _edges(self.shape).edges)


@dataclass(frozen=True, init=False)
class Layout:
    """Named segments in host order, made from ``parts`` in host order.

    A piece or an EXTEND run is ``(name, kind, shape)`` and places
    ``shape.order`` positions from the number placed before it.  A joint
    is ``(name, CONNECTOR, None)`` and places k internals; its shape is
    ``connector(min(k, placed), min(k, order of the next part), k)``, its
    window starting ``a`` positions before its internals, and on a cycle
    the part after the last is the first.  The host is a k-power path of
    the positions placed, or with ``n`` given a k-power cycle, which they
    must fill.  :func:`check_edge_partition` then checks that the segments
    tile the host's edges exactly.
    """

    host: HostTemplate
    segments: tuple[Segment, ...]

    def __init__(self, k: int, parts: Sequence[tuple[str, str, Optional[HostTemplate]]],
                 n: Optional[int] = None) -> None:
        wrap, placed = n is not None, 0
        joints: dict[tuple[int, int], HostTemplate] = {}  # each shape made once
        segments = []
        for i, (name, kind, shape) in enumerate(parts):
            reach = 1 if kind == CONNECTOR else k if kind == EXTEND and not wrap else 0
            if placed < reach:
                raise HamPowerError(f"layout error: {name} reaches before position 0")
            if kind == CONNECTOR:
                after = parts[(i + 1) % len(parts)] if wrap or i + 1 < len(parts) else None
                if after is None or after[1] == CONNECTOR:
                    raise HamPowerError(f"layout error: {name} is not followed by a piece")
                a, b = min(k, placed), min(k, after[2].order)
                shape = joints.get((a, b)) or joints.setdefault((a, b), connector(a, b, k))
                segments.append(Segment(name, kind, placed - a, shape))
                placed += k
            else:
                segments.append(Segment(name, kind, placed, shape))
                placed += shape.order
        if wrap and placed != n:
            raise HamPowerError(f"layout error: the parts place {placed} positions on a cycle of {n}")
        object.__setattr__(self, "host", power_cycle(n, k) if wrap else power_path(placed, k))
        object.__setattr__(self, "segments", tuple(segments))
        check_edge_partition(self)


def check_edge_partition(layout: Layout) -> None:
    """Raise unless the layout's segments tile its host's edges exactly,
    naming the segment of an edge covered twice, or else counting the host
    edges uncovered and the edges outside the host.  Positions wrap modulo
    the order of a power cycle.

    Each segment's edges are one cached mask of edge indices, shifted to
    its start (and rotated within the n*k indices of a cycle), which must
    miss the edges covered before it.  A segment whose power is not the
    host's, or whose shape is a cycle, is rejected."""
    host = layout.host
    n, k, wrap = host.order, host.k, host.kind == POWER_CYCLE
    covered = 0
    for seg in layout.segments:
        base, mask = _segment_bits(seg, k)
        mask = _rotated(mask << base % n * k, n * k) if wrap else mask << base * k
        if mask is None or mask & covered:
            raise _doubled_edge(host, seg, covered)
        covered |= mask
    expected = _edges(host).mask
    if covered != expected:
        missing, outside = expected & ~covered, covered & ~expected

        def examples(mask: int) -> list[Edge]:
            starts = (divmod(b, k) for b in select(mask, count()))
            return sorted(canonical_edge(i, (i + d + 1) % n) if wrap else (i, i + d + 1)
                          for i, d in starts)

        raise HamPowerError(
            f"layout error: {missing.bit_count()} host edges uncovered, {outside.bit_count()} "
            f"outside the host (e.g. {examples(missing)[:4] or examples(outside)[:4]})"
        )


def _segment_bits(seg: Segment, k: int) -> tuple[int, int]:
    """The first position a segment's edges touch, and the mask of their
    edge indices counted from there."""
    shape = seg.shape
    if shape.k != k:
        raise HamPowerError(f"layout error: {seg.name} is a {shape.k}-power on a {k}-power host")
    if seg.kind == EXTEND:
        base = seg.start - k
        indices = ((x - base) * k + y - x - 1 for x, y in seg.edges())
        return base, _bits(indices, (shape.order + k) * k)
    if shape.kind == POWER_CYCLE:
        raise HamPowerError(f"layout error: {seg.name} is a power cycle, not a window")
    return seg.start, _edges(shape).mask


def _rotated(mask: int, width: int) -> Optional[int]:
    """``mask`` with its bits from ``width`` on moved down by multiples of
    ``width``, or None if two of them land on one bit."""
    low = (1 << width) - 1
    while mask >> width:
        high, mask = mask >> width, mask & low
        if mask & high:
            return None
        mask |= high
    return mask


def _doubled_edge(host: HostTemplate, seg: Segment, covered: int) -> HamPowerError:
    """The error for the first edge of ``seg``, in its own order, whose bit
    is in ``covered`` or comes twice."""
    n, k = host.order, host.k
    for (x, y) in seg.edges():
        if host.kind == POWER_CYCLE:
            e, bit = canonical_edge(x % n, y % n), x % n * k + y - x - 1
        else:
            e, bit = (x, y), x * k + y - x - 1
        if covered >> bit & 1:
            return HamPowerError(f"layout error: host edge {e} assigned twice (at {seg.name})")
        covered |= 1 << bit
    return HamPowerError(f"internal error: no doubled edge in {seg.name}")


@dataclass(frozen=True, init=False)
class ColourPattern:
    """Total colour assignment on a host's canonical edge set.

    Made from a mapping of canonical host edges to 1-based ``int`` colours;
    stored as one tuple of the colours in edge-index order, which
    :attr:`colours` reads by canonical edge.
    """

    host: HostTemplate
    _colours: tuple[int, ...]

    def __init__(self, host: HostTemplate, colours: Mapping[Edge, int]) -> None:
        check_type(host, HostTemplate, "pattern host", InvalidPatternError)
        if not isinstance(colours, Mapping):
            raise InvalidPatternError(
                f"pattern colours must be a mapping of host edges to colours, "
                f"got {reprlib.repr(colours)}"
            )
        if type(colours) is not dict:  # a plain copy, with no __missing__ to call
            try:
                colours = dict(colours)
            except TypeError:
                raise _unhashable_key(colours) from None
        try:
            values = _edges(host).read(colours)
        except KeyError:
            values = None
        if values is None or len(colours) != len(values) or not _valid_colours(values):
            expected = _edges(host).slots.keys()
            if len(colours) != len(expected) or not expected >= colours.keys():
                missing, extra = expected - colours.keys(), colours.keys() - expected
                raise InvalidPatternError(
                    f"pattern domain mismatch: {len(missing)} host edges missing, "
                    f"{len(extra)} extraneous (e.g. missing={sorted(missing, key=repr)[:3]}, "
                    f"extra={sorted(extra, key=repr)[:3]})"
                )
            raise _bad_colour(colours.items())
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "_colours", values)

    @classmethod
    def _of(cls, host: HostTemplate, values: tuple[int, ...]) -> "ColourPattern":
        """The pattern with these colours in edge-index order, checked."""
        if not _valid_colours(values):
            raise _bad_colour(zip(_edges(host).by_index, values))
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "host", host)
        object.__setattr__(pattern, "_colours", values)
        return pattern

    @property
    def colours(self) -> Mapping[Edge, int]:
        """The colours as a read-only mapping from canonical host edges."""
        return _ColourView(_edges(self.host).slots, self._colours)

    def colour_of(self, i: int, j: int) -> int:
        try:
            return self._colours[_edges(self.host).slots[canonical_edge(i, j)]]
        except (KeyError, TypeError):  # a non-edge, or ends that do not compare or hash
            raise _not_an_edge((i, j), self.host) from None

    @property
    def max_colour(self) -> int:
        return max(self._colours, default=1)


def colour_slots(host: HostTemplate, edges: Iterable[Edge]) -> tuple[int, ...]:
    """The slots of these canonical host edges, in this order, in the
    colour tuple of a pattern on ``host`` (its ``colours.values()``)."""
    slots, positions = _edges(host).slots, []
    for e in edges:
        try:
            positions.append(slots[e])
        except (KeyError, TypeError):
            raise _not_an_edge(e, host) from None
    return tuple(positions)


def _not_an_edge(pair: object, host: HostTemplate) -> InvalidPatternError:
    return InvalidPatternError(f"{reprlib.repr(pair)} is not an edge of {host}")


def _unhashable_key(colours: Mapping) -> InvalidPatternError:
    """The error for a mapping that a dict cannot copy, naming its first
    key that does not hash."""
    for key in colours:
        try:
            hash(key)
        except TypeError:
            return InvalidPatternError(
                f"pattern colours must be keyed by host edges, got {reprlib.repr(key)}"
            )
    return InvalidPatternError(f"pattern colours cannot be copied: {reprlib.repr(colours)}")


def _valid_colours(values: tuple) -> bool:
    return only_ints(values) and min(values, default=1) >= 1


def _bad_colour(items: Iterable[tuple[Edge, object]]) -> InvalidPatternError:
    e, c = next((e, c) for e, c in items if type(c) is not int or c < 1)
    return InvalidPatternError(f"colour on edge {e} must be a 1-based int, got {c!r}")


class _ColourView(Mapping):
    """A pattern's colour tuple read by canonical host edge."""

    __slots__ = ("_slots", "_colours")

    def __init__(self, slots: dict[Edge, int], colours: tuple[int, ...]) -> None:
        self._slots, self._colours = slots, colours

    def __getitem__(self, edge: Edge) -> int:
        return self._colours[self._slots[edge]]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._colours)

    def values(self) -> tuple[int, ...]:  # type: ignore[override]
        return self._colours

    def items(self) -> tuple[tuple[Edge, int], ...]:  # type: ignore[override]
        return tuple(zip(self._slots, self._colours))  # both in edge-index order

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class _Power:
    """A k-power of a path or cycle: its distinct vertices in order, which
    are at least 2k+1 when ``cyclic``; the k-power rule implies the edges."""

    k: int
    vertices: tuple[int, ...]
    cyclic = False  # a class constant, not a field

    def __post_init__(self) -> None:
        name = type(self).__name__
        check_int(self.k, f"{name} k", 1)
        check_ints(self.vertices, f"{name} vertex", distinct=True)
        check_int(self.order, f"{name} order", 2 * self.k + 1 if self.cyclic else 1)

    @property
    def order(self) -> int:
        return len(self.vertices)


class PowerPath(_Power):
    """Ordered distinct vertices; the edge set is implied by the k-power rule."""


class PowerCycle(_Power):
    """Cyclically ordered distinct vertices; requires order >= 2k+1."""

    cyclic = True


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
        check_int(n, "vertex count", 1)
        try:
            check_int(len(tables), "graph count", 1)
        except TypeError:
            raise InvalidInstanceError(
                f"graph tables must be a sequence of mask-row sequences, got {reprlib.repr(tables)}"
            ) from None
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
        lists share one mask table.  Every edge must be a pair of ``int``s
        (not ``bool``s)."""
        check_int(n, "vertex count", 1)
        built: list[tuple[list[Edge], tuple[int, ...]]] = []
        tables = []
        for g, edges in enumerate(edge_lists, start=1):
            try:
                edges = list(edges)
            except TypeError as exc:
                raise InvalidInstanceError(f"graph {g}: the edges must be iterable") from exc
            table = next((t for prior, t in built if prior == edges), None)
            if table is None:
                table = _table_of_edges(n, _checked_edges(g, edges))
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


def _checked_edges(g: int, edges: list) -> list[Edge]:
    """The edges of graph ``g`` (1-based, for messages), checked to be pairs
    of ``int``s."""
    try:
        pairs = set(map(len, edges)) <= {2}
    except TypeError:  # an edge without a length
        pairs = False
    if not (pairs and only_ints(chain.from_iterable(edges))):
        raise InvalidInstanceError(f"graph {g}: every edge must be a pair of integer vertices")
    return edges


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
    try:
        rows = tuple(rows)
    except TypeError:
        raise InvalidInstanceError(
            f"graph {g}: the mask rows must be a sequence, got {reprlib.repr(rows)}"
        ) from None
    if len(rows) != n:
        raise InvalidInstanceError(f"graph {g}: {len(rows)} mask rows, expected {n}")
    if not only_ints(rows):
        v = next(v for v, row in enumerate(rows) if type(row) is not int)
        raise InvalidInstanceError(f"graph {g}: row {v} is not an int mask ({rows[v]!r})")
    if min(rows) < 0 or max(rows).bit_length() > n:
        v = next(v for v, row in enumerate(rows) if row < 0 or row.bit_length() > n)
        raise InvalidInstanceError(f"graph {g}: endpoint out of range at vertex {v}")
    # Row v is packed little-endian into bytes v*size..(v+1)*size-1 of one
    # buffer the size of the rows, byte j holding columns 8j..8j+7, and a
    # row of 1 bytes goes on top.  Byte lo/8 of every row from lo on, that
    # stride slice read as one little-endian int, prints as "1" and then
    # rows n-1, ..., lo, each as its columns lo+7, ..., lo: so column lo+t
    # from row n-1 down to row lo is every 8th character from 8-t, in the
    # bit order of ``row >> lo``.  Columns are compared in increasing order
    # and an asymmetric pair (w, v) with lo <= w < v is caught at column w
    # first, so the first column that differs is the smaller end of every
    # asymmetric pair it is in, and its lowest differing bit the smallest
    # partner.
    size = (n + 7) // 8
    packed = bytearray()
    for v, row in enumerate(rows):
        if row >> v & 1:
            raise InvalidInstanceError(f"graph {g}: self-loop at vertex {v}")
        packed += row.to_bytes(size, "little")
    packed += b"\1" * size
    for lo in range(0, n, 8):
        bits = format(int.from_bytes(packed[lo * size + lo // 8::size], "little"), "b")
        for t, row in enumerate(rows[lo:lo + 8]):
            diff = int(bits[8 - t::8], 2) ^ row >> lo
            if diff:
                u, v = lo - 1 + (diff & -diff).bit_length(), lo + t
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
    first offending host edge in canonical order.  Raises
    :class:`VerificationInputError` unless the collection and the pattern
    are a :class:`GraphCollection` and a :class:`ColourPattern` and the
    list is a list or tuple of host.order distinct ints in range(n).
    """
    check_type(collection, GraphCollection, "collection", VerificationInputError)
    check_type(pattern, ColourPattern, "pattern", VerificationInputError)
    host, n = pattern.host, collection.n
    if type(vertices) not in (list, tuple):
        raise VerificationInputError(
            f"vertex list must be a list or tuple, got {reprlib.repr(vertices)}"
        )
    check_ints(vertices, "vertex", 0, n - 1, VerificationInputError,
               distinct=True, count=host.order)
    masks, m = collection.masks, collection.m
    bad = (e for e, c in zip(_edges(host).by_index, pattern._colours)
           if c > m or not (masks[c - 1][vertices[e[0]]] >> vertices[e[1]]) & 1)
    # edge-index order is canonical order except on a cycle, whose least edge is sought
    e = min(bad, default=None) if host.kind == POWER_CYCLE else next(bad, None)
    return VerifyResult(e is None, e)


def min_degree(collection: GraphCollection) -> int:
    """Minimum degree over all graphs and all vertices."""
    return min(check_type(collection, GraphCollection, "collection").min_degrees)


def restrict_pattern(pattern: ColourPattern, start: int, target: HostTemplate) -> ColourPattern:
    """Restriction of a pattern to a consecutive window of host positions.

    The window is ``start, start+1, ..., start+target.order-1``; it wraps
    modulo the host order for power-cycle sources and must stay in range for
    power-path sources.  The target host re-indexes positions from 0 and may
    be a path or a connector (whose end-block edges are simply dropped), or
    a whole cycle rotated.  The window's colours are a slice of the
    pattern's (two for a wrapping window), gathered by the target's edge
    indices.
    """
    src = check_type(pattern, ColourPattern, "restricted pattern", InvalidPatternError).host
    check_type(target, HostTemplate, "window host", InvalidPatternError)
    if src.kind == CONNECTOR:
        raise InvalidPatternError("cannot restrict a connector pattern")
    if target.k != src.k:
        raise InvalidPatternError(f"window power mismatch: {target.k} != {src.k}")
    if target.order > src.order:
        raise InvalidPatternError("window longer than the source host")
    if target.kind == POWER_CYCLE and (src.kind != POWER_CYCLE or target.order != src.order):
        raise InvalidPatternError("a window must be a path, a connector or its whole cycle")
    if src.kind == POWER_PATH:
        check_int(start, "window start", 0, src.order - target.order, InvalidPatternError)
    else:  # a cycle's window wraps
        check_int(start, "window start", error=InvalidPatternError)
    n, k, colours = src.order, src.k, pattern._colours
    lo = start % n * k
    hi = lo + target.order * k
    source = _edges(src)
    stored = source.prefix
    if hi <= stored:  # edge indices [lo, hi) are colour positions
        window = colours[lo:hi]
    elif src.kind == POWER_CYCLE:
        window = colours[lo:] + colours[:hi - n * k]
    else:  # the window runs into a path's last k positions, whose edges are fewer
        last = dict(zip(source.rest, colours[stored:]))
        window = colours[lo:stored] + tuple(map(last.get, range(max(lo, stored), hi)))
    shape = _edges(target)
    return ColourPattern._of(target, window[:shape.prefix] + shape.gather(window))


# --- instance / pattern / cycle file formats (JSON text) ------------------

# The largest vertex count an instance file, and the largest host order a
# pattern file, may declare.  The loaders reject larger sizes before they
# allocate anything by them: checking one graph on n vertices packs its
# rows into n*ceil(n/8) bytes (12.5 MB at this limit), the rows' own size.
MAX_FILE_ORDER = 10_000

_KIND_TO_FILE = {POWER_PATH: "path", POWER_CYCLE: "cycle", CONNECTOR: "connector"}
_FILE_TO_KIND = {v: k for k, v in _KIND_TO_FILE.items()}


def collection_to_dict(c: GraphCollection) -> dict:
    return {"n": c.n, "m": c.m, "graphs": c.edge_lists()}


def collection_from_dict(d: Mapping) -> GraphCollection:
    try:
        n, m, graphs = d["n"], d["m"], d["graphs"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"instance file: missing/invalid field ({exc})") from exc
    n = check_int(n, "instance file: n")
    m = check_int(m, "instance file: m")
    if n > MAX_FILE_ORDER:
        raise InvalidInstanceError(f"instance file: n={n} exceeds the limit {MAX_FILE_ORDER}")
    if not isinstance(graphs, list):
        raise InvalidInstanceError("instance file: graphs must be a list of edge lists")
    if len(graphs) != m:
        raise InvalidInstanceError(f"instance file: m={m} but {len(graphs)} graphs present")
    return GraphCollection.from_edge_lists(n, graphs)


def pattern_to_dict(p: ColourPattern) -> dict:
    h = p.host
    host = {"kind": _KIND_TO_FILE[h.kind], "n_or_r": h.order, "k": h.k, "a": h.a, "b": h.b}
    colours = [[i, j, c] for (i, j), c in sorted(p.colours.items())]
    return {"host": host, "colours": colours}


def pattern_from_dict(d: Mapping) -> ColourPattern:
    def host_int(field: str) -> int:
        return check_int(h[field], f"pattern file: host {field}", error=InvalidPatternError)

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
    if kind == CONNECTOR and "n_or_r" in h and host_int("n_or_r") != host.order:
        raise InvalidPatternError(f"pattern file: connector n_or_r {h['n_or_r']} != a + k + b = {host.order}")
    if not isinstance(entries, list):
        raise InvalidPatternError("pattern file: colours must be a list of [i, j, colour] entries")
    colours: dict[Edge, int] = {}
    for entry in entries:
        try:
            i, j, c = entry
        except (TypeError, ValueError) as exc:
            raise InvalidPatternError(f"pattern file: malformed colour entry {reprlib.repr(entry)}") from exc
        if not only_ints((i, j, c)):
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
    return PowerCycle(k, vertices)


def save_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
