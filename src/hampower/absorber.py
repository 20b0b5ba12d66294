"""Absorbing gadgets, robust template, and the absorbing structure.

An absorbing gadget on roles A (flexible), B and C (fixed) has the property
that for *any single* vertex a_i of A there is a fixed-colour k-power path
covering B, C and a_i, with the same first/last k vertices and the same
colour sequence no matter which a_i is absorbed.  The construction: lay out
B in order with a_i inserted directly after b_{(2i-1)k}, colour that
sequence as a k-power path, then give each c_i the combined neighbourhoods
of a_i and a_{i+1} (each c-edge inheriting the colour of the unique
corresponding a-edge).  Absorbing a_i means substituting c_j for a_j
(j < i) and c_{j-1} for a_j (j > i) in the base sequence.

The gadget has degeneracy k+2 with the A-vertices first (this fails for
k = 1, which is why gadgets require k >= 2), so it can be embedded greedily
and robustly wherever every colour-specific degree is high enough.  Its
skeleton (ids, layout, the host edge whose colour each gadget edge takes,
and the degeneracy order after A with each vertex's at most k+2 earlier
neighbours) depends on (k, ell) only, so it is built and checked once per
shape, and each gadget reads its colours from its window of the pattern in
one gather (:func:`core.colour_reader`).  The embedding walks that stored
order with :func:`connectors.place_in_order`, the walk that also places
connector internals.

The absorbing path is a :class:`core.Layout`, :func:`absorber_layout`,
built for each template from one shape per connector and gadget size and
checked by those shapes' cached edge masks; its connectors are embedded
in host order by :func:`join_connector`, which also joins the solver's cycle.

A *robustly matchable template* converts "absorb any s-subset of the
reservoir" into one matching computation: it is a bounded-degree bipartite
graph on (U + W, X) with |U| = 2s, |W| = s + t, |X| = 3s such that every
s-subset W' of W admits a perfect matching in B[U + W', X].  One gadget is
built per X-vertex (with the template neighbourhood as its flexible set),
gadgets are chained by connectors, and absorbing a set Z' reduces to
reading off the robust matching for W' = Z'.  The template is robust by
construction: its layout gives every W' a perfect matching (a window
witness, see :func:`build_template`), which certification checks edge by
edge.  A solve absorbs once per structure, so each absorb is one fresh
:func:`matching.max_matching` of the U rows followed by the rows of W'.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .bitset import mask_of, select
from .connectors import embed_connector, place_in_order, placement_order, pool_mask, vertex_mask
from .core import (
    CONNECTOR,
    ColourPattern,
    Edge,
    GraphCollection,
    Layout,
    PowerPath,
    Segment,
    canonical_edge,
    check_int,
    check_ints,
    colour_reader,
    connector,
    host_edges,
    power_path,
    restrict_pattern,
    verify_coloured_embedding,
)
from .errors import (
    ConnectionFailedError,
    EmbeddingFailedError,
    HamPowerError,
    InvalidInstanceError,
    InvalidPatternError,
    TemplateError,
)
from .matching import BipartiteGraph, max_matching

END, GADGET = "end", "gadget"  # the absorbing path's piece segments

# size rules: template degrees lie in [MIN_DEGREE, MAX_DEGREE], so the
# window construction needs t <= MAX_T; gadgets need k >= GADGET_MIN_K
MIN_DEGREE, MAX_DEGREE, GADGET_MIN_K = 2, 40, 2
MAX_T = MAX_DEGREE - 1


# --------------------------------------------------------------------------
# gadget blueprints
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GadgetBlueprint:
    """Edge-coloured absorbing gadget on abstract vertex ids.

    Ids: A = 0..ell-1, B = ell..ell+2k*ell-1, C = the remaining ell-1.
    ``base_sequence`` is the underlying path layout over A and B.
    ``back_neighbours`` is the degeneracy order after A: each B/C id with
    its at most k+2 earlier neighbours, as (neighbour, edge) pairs.
    """

    k: int
    ell: int
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    c_vertices: tuple[int, ...]
    base_sequence: tuple[int, ...]
    edges: Mapping[Edge, int]
    back_neighbours: tuple[tuple[int, tuple[tuple[int, Edge], ...]], ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.a_vertices + self.b_vertices + self.c_vertices

    @property
    def r_vertices(self) -> tuple[int, ...]:
        return self.b_vertices + self.c_vertices


def build_gadget_blueprint(k: int, ell: int, pattern: ColourPattern) -> GadgetBlueprint:
    """Construct the gadget for a path pattern of order (2k+1)*ell.

    Requires k >= 2 (the gadget lacks the needed degeneracy when k = 1) and
    ell >= 2.  The skeleton depends on (k, ell) only and is built and
    checked once per shape (:func:`_gadget_shape`); this reads its colours
    from the pattern in one pass.
    """
    check_int(k, "gadget k", GADGET_MIN_K)
    check_int(ell, "gadget ell", 2)
    r = (2 * k + 1) * ell
    if pattern.host != power_path(r, k):
        raise InvalidPatternError(f"gadget pattern must live on power_path({r},{k})")
    shape, edges, read = _gadget_shape(k, ell)
    return GadgetBlueprint(
        k, ell, shape.a_vertices, shape.b_vertices, shape.c_vertices, shape.base_sequence,
        MappingProxyType(dict(zip(edges, read(pattern)))), shape.back_neighbours,
    )


@functools.lru_cache(maxsize=256)  # every ell in 2..40 at several k
def _gadget_shape(
    k: int, ell: int
) -> tuple[GadgetBlueprint, tuple[Edge, ...], Callable[[ColourPattern], tuple[int, ...]]]:
    """The uncoloured (k, ell) gadget: a blueprint whose edge values are
    the host edges (p, q) of power_path((2k+1)*ell, k) whose colours the
    edges take, with its degeneracy order and back-neighbours; then its
    edges, and a reader of their colours from a pattern on that path.
    Template degrees are at most 40, so the pipeline needs few shapes."""
    r = (2 * k + 1) * ell
    a_ids = tuple(range(ell))
    b_ids = tuple(range(ell, ell + 2 * k * ell))
    c_ids = tuple(range(ell + 2 * k * ell, ell + 2 * k * ell + ell - 1))

    seq: list[int] = []
    next_a = 1  # 1-based index of the next A vertex to insert
    for j in range(1, 2 * k * ell + 1):
        seq.append(b_ids[j - 1])
        if next_a <= ell and j == (2 * next_a - 1) * k:
            seq.append(a_ids[next_a - 1])
            next_a += 1
    if len(seq) != r:
        raise HamPowerError("internal error: gadget sequence has the wrong length")

    edges: dict[Edge, Edge] = {}
    for (p, q) in host_edges(power_path(r, k)):
        edges[canonical_edge(seq[p], seq[q])] = (p, q)

    # c_i inherits the neighbourhoods (and edge colours) of a_i and a_{i+1}
    for i in range(1, ell):
        c = c_ids[i - 1]
        for a in (a_ids[i - 1], a_ids[i]):
            for (x, y), source in list(edges.items()):
                if x == a or y == a:
                    other = y if x == a else x
                    edges[canonical_edge(c, other)] = source

    # A first, then per i: the B run before a_i's slot, c_i, the B run after
    b = lambda j: b_ids[j - 1]  # 1-based
    order = list(a_ids)
    for i in range(1, ell):
        order.extend(b(j) for j in range((2 * i - 2) * k + 1, (2 * i - 1) * k + 1))
        order.append(c_ids[i - 1])
        order.extend(b(j) for j in range((2 * i - 1) * k + 1, 2 * i * k + 1))
    order.extend(b(j) for j in range(2 * k * (ell - 1) + 1, 2 * k * ell + 1))

    shape = GadgetBlueprint(
        k, ell, a_ids, b_ids, c_ids, tuple(seq),
        MappingProxyType(edges), _back_neighbours(k, ell, order, edges),
    )
    return shape, tuple(edges), colour_reader(power_path(r, k), edges.values())


def _back_neighbours(
    k: int, ell: int, order: Sequence[int], edges: Iterable[Edge]
) -> tuple[tuple[int, tuple[tuple[int, Edge], ...]], ...]:
    """Each vertex of ``order`` after its first ell (A) with its earlier
    neighbours and the edges to them.  Raises unless ``order`` lists every
    gadget vertex once, no edge lies inside A, and no vertex has more than
    k+2 earlier neighbours."""
    if sorted(order) != list(range(2 * (k + 1) * ell - 1)):
        raise HamPowerError("internal error: degeneracy order does not cover the gadget")
    placed = placement_order(order, edges)
    if any(back for _, back in placed[:ell]):
        raise HamPowerError("internal error: gadget has an edge inside A")
    for v, back in placed[ell:]:
        if len(back) > k + 2:
            raise HamPowerError(
                f"internal error: gadget vertex {v} has {len(back)} > k+2 earlier neighbours"
            )
    return placed[ell:]


def gadget_absorb_sequence(blueprint: GadgetBlueprint, i: int) -> tuple[int, ...]:
    """Vertex sequence of the path that absorbs a_i (1-based i).

    Substitutes c_j for a_j when j < i and c_{j-1} for a_j when j > i; the
    result is a pattern-coloured k-power path on B + C + {a_i} whose first
    and last k entries lie in B.
    """
    check_int(i, "absorb index", 1, blueprint.ell)
    a_index = {a: j + 1 for j, a in enumerate(blueprint.a_vertices)}
    out = []
    for v in blueprint.base_sequence:
        j = a_index.get(v)
        if j is None or j == i:
            out.append(v)
        elif j < i:
            out.append(blueprint.c_vertices[j - 1])
        else:
            out.append(blueprint.c_vertices[j - 2])
    return tuple(out)


# --------------------------------------------------------------------------
# degeneracy-ordered greedy embedding
# --------------------------------------------------------------------------

def embed_by_degeneracy(
    collection: GraphCollection,
    blueprint: GadgetBlueprint,
    flexible: Sequence[int],
    pool: int,
    rng: random.Random,
) -> dict[int, int]:
    """Greedy coloured embedding of a gadget in its degeneracy order.

    A is mapped onto ``flexible`` (aligned with ``blueprint.a_vertices``).
    Every other vertex, in the order of ``blueprint.back_neighbours``, goes
    to a uniformly random member of the ``pool`` mask joined in the right
    colour to the images of its earlier neighbours; images are distinct and
    never flexible.  ``flexible`` must be ell distinct vertices.  Raises
    :class:`EmbeddingFailedError` naming the first vertex left without a
    candidate.
    """
    pool = pool_mask(collection, pool)
    pool &= ~vertex_mask(collection, flexible, "flexible vertex", blueprint.ell)
    mapped = dict(zip(blueprint.a_vertices, flexible))
    v = place_in_order(collection, blueprint.back_neighbours, blueprint.edges, mapped, pool, rng)
    if v is not None:
        raise EmbeddingFailedError(f"no image available for vertex {v}", vertex=v)
    return mapped


# --------------------------------------------------------------------------
# robustly matchable template
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Template:
    """Bipartite template on (U + W, X): |U| = 2s, |W| = s+t, |X| = 3s.

    Left indices 0..2s-1 are U and 2s..3s+t-1 are W; ``rows`` holds one
    X-neighbour mask per left index (bit x set when it is adjacent to X
    vertex x).  The robust property: for every s-subset W' of W, the
    subgraph on (U + W', X) has a perfect matching.  Degenerate s = 0
    templates (no gadgets to drive) are permitted with empty parts.
    """

    s: int
    t: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        check_int(self.s, "template s", 0, error=TemplateError)
        check_int(self.t, "template t", 1 if self.s else 0, error=TemplateError)
        if self.s == 0:
            if self.rows:
                raise TemplateError("an s=0 template must be empty")
            return
        if len(self.rows) != 3 * self.s + self.t:
            raise TemplateError("template adjacency must cover U and W")
        outside = ~self.x_mask
        if any(row < 0 or row & outside for row in self.rows):
            raise TemplateError("template neighbour out of range")
        degrees = {"left vertex": map(int.bit_count, self.rows), "X-vertex": self.x_degrees()}
        for side, ds in degrees.items():
            for i, d in enumerate(ds):
                if not (MIN_DEGREE <= d <= MAX_DEGREE):
                    raise TemplateError(
                        f"{side} {i} has degree {d} outside [{MIN_DEGREE}, {MAX_DEGREE}]"
                    )

    @staticmethod
    def empty() -> "Template":
        return Template(0, 0, ())

    @property
    def n_u(self) -> int:
        return 2 * self.s

    @property
    def n_w(self) -> int:
        return self.s + self.t

    @property
    def n_x(self) -> int:
        return 3 * self.s

    @property
    def x_mask(self) -> int:
        return (1 << self.n_x) - 1

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def x_degrees(self) -> list[int]:
        return [len(ns) for ns in self.x_neighbourhoods()]

    def x_neighbourhoods(self) -> list[tuple[int, ...]]:
        """Left-index neighbourhood of each X vertex, sorted."""
        out: list[list[int]] = [[] for _ in range(self.n_x)]
        for left, row in enumerate(self.rows):
            for x in select(row, itertools.count()):
                out[x].append(left)
        return [tuple(ns) for ns in out]

    def robust_matching(self, w_locals: Iterable[int]) -> Optional[list[tuple[int, int]]]:
        """Perfect matching of (U + W', X) as (left_index, x) pairs sorted
        by left index, or None.

        ``w_locals`` are W-local indices (0-based within W) of size s.  The
        result is one :func:`max_matching` of B[U + W', X] on the U rows
        followed by the W' rows in increasing order, its rows mapped back to
        template left indices; None unless it is perfect.
        """
        chosen = check_ints(w_locals, "W-local index", 0, self.n_w - 1, distinct=True, count=self.s)
        left_ids = [*range(self.n_u), *(self.n_u + w for w in sorted(chosen))]
        rows = tuple(self.rows[left] for left in left_ids)
        pairs = max_matching(BipartiteGraph(rows, self.x_mask))
        return [(left_ids[u], x) for u, x in pairs] if len(pairs) == self.n_x else None


def template_edge_count(s: int, t: int) -> int:
    """Edge count of the deterministic template skeleton for given (s, t).

    The randomised builder permutes labels only, so this is exact; the
    pipeline planner uses it before any template is actually built.  U
    contributes 4s edges; W vertex i sees the clipped window of X-slots
    max(0, i-t)..min(s-1, i), and a window of width 1 gets one padding edge.
    The widths sum to s(t+1).  Every window has width 1 when s = 1 or
    t = 0; otherwise only the first and the last have.
    """
    if s == 0:
        return 0
    if s == 1 or t == 0:
        return 2 * s * (t + 1) + 4 * s
    return s * (t + 5) + 2


def build_template(s: int, t: int, rng: random.Random) -> Template:
    """Randomised bounded-degree template, certified by its own layout.

    Needs 1 <= t <= MAX_T (X-degrees are capped at MAX_DEGREE).  The
    skeleton: two cyclic perfect matchings from U onto a random 2s-subset
    x_m of X, and a sliding window from W onto the other s X-vertices x_w
    (W slot i sees x_w slots max(0, i-t)..min(s-1, i)), padded so every
    degree is at least 2.
    It proves itself robust: sort any W' by slot as i_0 < ... < i_{s-1};
    then m <= i_m <= m + t, so x_w slot m is in i_m's window, and U matches
    onto x_m.  Padding only adds edges.  Certification tests each witness
    edge; it cannot fail on this skeleton, so a failure is an internal error.
    """
    check_int(s, "template s", 1, error=TemplateError)
    check_int(t, "template t", 1, MAX_T, TemplateError)
    rows, layout = _random_template_adjacency(s, t, rng)
    template = Template(s, t, rows)
    if template.edge_count != template_edge_count(s, t):
        raise HamPowerError("internal error: template edge count drifted from the skeleton")
    if not _window_witness_present(s, t, rows, layout):
        raise HamPowerError(f"internal error: template s={s}, t={t} failed its certificate")
    return template


def _random_template_adjacency(
    s: int, t: int, rng: random.Random
) -> tuple[tuple[int, ...], tuple[list[int], ...]]:
    """Skeleton rows and their layout (x_m, perm, x_w, w_slots, xw_slots):
    X split into the U block x_m and the W block x_w, the cyclic order of
    x_m, and the slot orders of W and x_w."""
    xs = list(range(3 * s))
    rng.shuffle(xs)
    x_m, x_w = xs[: 2 * s], xs[2 * s:]
    perm = list(range(2 * s))
    rng.shuffle(perm)
    rows = [1 << x_m[perm[u]] | 1 << x_m[perm[(u + 1) % (2 * s)]] for u in range(2 * s)]

    w_slots = list(range(s + t))
    rng.shuffle(w_slots)
    xw_slots = list(range(s))
    rng.shuffle(xw_slots)
    rows += [0] * (s + t)
    for i in range(s + t):
        for j in range(max(0, i - t), min(s - 1, i) + 1):
            rows[2 * s + w_slots[i]] |= 1 << x_w[xw_slots[j]]

    # pad degree-1 W vertices with a balanced extra edge into the U-side block;
    # a W vertex's one neighbour is in x_w, so every x_m vertex is new to it
    xm_load = {x: 2 for x in x_m}
    for w in range(2 * s, 3 * s + t):
        if rows[w].bit_count() < 2:
            lowest = min(xm_load.values())
            x = rng.choice([x for x in x_m if xm_load[x] == lowest])
            rows[w] |= 1 << x
            xm_load[x] += 1
    return tuple(rows), (x_m, perm, x_w, w_slots, xw_slots)


def _window_witness_present(
    s: int, t: int, rows: Sequence[int], layout: tuple[list[int], ...]
) -> bool:
    """Whether ``rows`` hold every edge of the window witness: both cyclic
    edges of each U vertex and every W window edge, on a layout whose x_m
    and x_w split X and whose orders are permutations."""
    x_m, perm, x_w, w_slots, xw_slots = layout
    if len(x_m) != 2 * s or sorted(x_m + x_w) != list(range(3 * s)) or (
        sorted(perm), sorted(w_slots), sorted(xw_slots)
    ) != (list(range(2 * s)), list(range(s + t)), list(range(s))):
        return False
    u_edges = ((u, x_m[perm[v % (2 * s)]]) for u in range(2 * s) for v in (u, u + 1))
    w_edges = (
        (2 * s + w_slots[i], x_w[xw_slots[j]])
        for i in range(s + t)
        for j in range(max(0, i - t), min(s - 1, i) + 1)
    )
    return all(rows[left] >> x & 1 for left, x in itertools.chain(u_edges, w_edges))


# --------------------------------------------------------------------------
# absorbing structure
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddedGadget:
    blueprint: GadgetBlueprint
    images: Mapping[int, int]          # B and C ids -> actual vertices
    l_vertices: tuple[int, ...]        # actual flexible vertices, aligned with a_vertices
    l_left_indices: tuple[int, ...]    # template left indices, same alignment

    def absorb_path(self, a_index: int) -> list[int]:
        """Realised absorb path for the a_index-th flexible vertex (1-based)."""
        flexible = self.l_vertices[a_index - 1]
        a_id = self.blueprint.a_vertices[a_index - 1]
        out = []
        for v in gadget_absorb_sequence(self.blueprint, a_index):
            out.append(flexible if v == a_id else self.images[v])
        return out


@dataclass(frozen=True)
class AbsorbingStructure:
    """Everything needed to absorb any admissible reservoir subset.

    ``placement`` is the absorbing path on ``layout``: z1, the connector
    internals, z2 and each gadget's B vertices, with None at its A positions
    until :func:`absorb` fills the gadget windows.  So the first and last k
    vertices are independent of the absorbed subset.
    """

    k: int
    collection: GraphCollection
    template: Template
    pattern: ColourPattern
    z1: int
    z2: int
    w_vertices: tuple[int, ...]
    gadgets: tuple[EmbeddedGadget, ...]
    layout: Layout
    placement: tuple[Optional[int], ...]
    absorbed_set: frozenset[int]

    @property
    def a_size(self) -> int:
        return len(self.absorbed_set)


def expected_absorbed_size(k: int, s: int, b: int) -> int:
    """|A| = (2k+1)b + (3s+1)k - s."""
    return (2 * k + 1) * b + (3 * s + 1) * k - s


def build_absorbing_structure(
    collection: GraphCollection,
    pattern: ColourPattern,
    reservoir: Iterable[int],
    z1: int,
    z2: int,
    y_vertices: Sequence[int],
    template: Template,
    rng: random.Random,
) -> AbsorbingStructure:
    """Embed one gadget per template X-vertex and chain them with connectors.

    ``pattern`` must live on power_path(a + s + 2, k) where
    a = (2k+1)|E(template)| + (3s+1)k - s.  The reservoir must have exactly
    s + t + 2 vertices including z1 and z2 (its interior is identified with
    the template's W part); ``y_vertices`` (size 2s, outside the reservoir)
    are identified with U.  Gadget bodies and connector internals are drawn
    from outside reservoir + Y, avoiding everything used so far.
    """
    k = pattern.host.k
    s, t = template.s, template.t
    b = template.edge_count
    a = expected_absorbed_size(k, s, b)
    m_abs = a + s + 2
    if pattern.host != power_path(m_abs, k):
        raise InvalidPatternError(
            f"absorbing pattern must live on power_path({m_abs},{k}), got "
            f"{pattern.host.kind}({pattern.host.order},{pattern.host.k})"
        )
    z_set = frozenset(reservoir)
    if z1 == z2 or z1 not in z_set or z2 not in z_set:
        raise InvalidInstanceError("z1, z2 must be distinct reservoir members")
    if s >= 1 and len(z_set) != s + t + 2:
        raise InvalidInstanceError(
            f"reservoir size {len(z_set)} != s + t + 2 = {s + t + 2}"
        )
    y_tuple = tuple(sorted(y_vertices))
    if len(y_tuple) != 2 * s:
        raise InvalidInstanceError(f"need |Y| = 2s = {2 * s}, got {len(y_tuple)}")
    if set(y_tuple) & z_set:
        raise InvalidInstanceError("Y must avoid the reservoir")
    w_tuple = tuple(sorted(z_set - {z1, z2})) if s >= 1 else ()

    x_nbrs = template.x_neighbourhoods()
    layout = absorber_layout(k, tuple(map(len, x_nbrs)))
    if layout.host != pattern.host:
        raise HamPowerError("internal error: absorber layout does not fill the path")

    full = (1 << collection.n) - 1
    used = mask_of(y_tuple) | mask_of(z_set)
    placement: list[Optional[int]] = [None] * m_abs
    placement[0], placement[-1] = z1, z2
    u_and_w = y_tuple + w_tuple  # the actual vertices of the template's left indices

    gadgets: list[EmbeddedGadget] = []
    for seg, left_ids in zip(_segments(layout, GADGET), x_nbrs):
        sub = restrict_pattern(pattern, seg.start, seg.shape)
        blueprint = build_gadget_blueprint(k, len(left_ids), sub)
        actual = tuple(u_and_w[left] for left in left_ids)
        pool = full & ~used
        try:
            mapped = embed_by_degeneracy(collection, blueprint, actual, pool, rng)
        except EmbeddingFailedError as exc:
            raise at_segment(exc, seg.name, pool) from exc
        body = {v: mapped[v] for v in blueprint.r_vertices}
        used |= mask_of(body.values())
        gadgets.append(EmbeddedGadget(blueprint, MappingProxyType(body), actual, left_ids))
        # every B position is fixed; the A positions wait for the absorbed vertices
        placement[seg.start:seg.start + seg.shape.order] = map(body.get, blueprint.base_sequence)

    pool = full & ~used
    for seg in _segments(layout, CONNECTOR):  # every piece is placed: join in host order
        pool = join_connector(collection, pattern, seg, placement, pool, rng, embed_connector)

    bodies = (g.images.values() for g in gadgets)
    absorbed = set(y_tuple).union(placement[1:-1], *bodies) - {None}  # z1, z2 sit at the ends
    if len(absorbed) != a:
        raise HamPowerError(f"internal error: |A| = {len(absorbed)} != expected {a}")
    if absorbed & z_set:
        raise HamPowerError("internal error: absorbed set leaked into the reservoir")

    return AbsorbingStructure(
        k=k,
        collection=collection,
        template=template,
        pattern=pattern,
        z1=z1,
        z2=z2,
        w_vertices=w_tuple,
        gadgets=tuple(gadgets),
        layout=layout,
        placement=tuple(placement),
        absorbed_set=frozenset(absorbed),
    )


def absorber_layout(k: int, x_degrees: tuple[int, ...]) -> Layout:
    """The absorbing path for gadgets of these X-degrees: z1, a connector
    and a gadget window per gadget, then a connector and z2.  It is built
    on every call, each shape once, and checked by the shapes' cached edge
    masks (:func:`core.check_edge_partition`)."""
    end = power_path(1, k)
    joints = {a: connector(a, k, k) for a in (1, k)}  # each shape made once
    windows = {ell: power_path((2 * k + 1) * ell, k) for ell in set(x_degrees)}
    segments = [Segment("z1", END, 0, end)]
    pos, a = 1, 1  # the next free position; the order of the piece before, capped at k
    for i, ell in enumerate(x_degrees):
        segments += [
            Segment(f"connector {i}", CONNECTOR, pos - a, joints[a]),
            Segment(f"gadget {i}", GADGET, pos + k, windows[ell]),
        ]
        pos, a = pos + k + (2 * k + 1) * ell, k
    segments += [
        Segment(f"connector {len(x_degrees)}", CONNECTOR, pos - a, connector(a, 1, k)),
        Segment("z2", END, pos + k, end),
    ]
    return Layout(power_path(pos + k + 1, k), tuple(segments))


def _segments(layout: Layout, kind: str) -> list[Segment]:
    return [seg for seg in layout.segments if seg.kind == kind]


def at_segment(exc: HamPowerError, segment: str, pool: int, **fields) -> HamPowerError:
    """A copy of a connector, greedy or gadget failure ``exc`` that names the
    layout ``segment`` it was raised in and the popcount of the ``pool`` its
    draw saw, in its fields (``fields`` replace others) and as an " at
    <segment>, pool of <size>" message suffix.  Raise it ``from exc``."""
    size = pool.bit_count()
    fields = {**vars(exc), **fields, "segment": segment, "pool": size}
    return type(exc)(f"{exc} at {segment}, pool of {size}", **fields)


def join_connector(
    collection: GraphCollection,
    pattern: ColourPattern,
    seg: Segment,
    placement: list[Optional[int]],
    pool: int,
    rng: random.Random,
    embed: Callable[..., tuple[int, ...]],
) -> int:
    """Embed the connector segment ``seg``; return the ``pool`` mask left.

    Its ends are read from ``placement`` by host position, modulo its length
    so a cycle's closing connector wraps, and its internals, drawn from the
    pool by ``embed`` (:func:`connectors.embed_connector` as the caller's
    module names it, where the benchmark's span hooks wrap it), are written
    back.  A failure names the segment and the pool (:func:`at_segment`)."""
    n = len(placement)
    a, k = seg.shape.a, seg.shape.k
    ends = [placement[p % n] for p in range(seg.start, seg.start + seg.shape.order)]
    sub = restrict_pattern(pattern, seg.start, seg.shape)
    try:
        internals = embed(collection, ends[:a], ends[a + k:], sub, pool, rng)
    except ConnectionFailedError as exc:
        raise at_segment(exc, seg.name, pool) from exc
    for off, v in enumerate(internals):
        placement[(seg.start + a + off) % n] = v
    return pool & ~mask_of(internals)


def absorb(structure: AbsorbingStructure, z_prime: Iterable[int]) -> PowerPath:
    """Fixed-colour path from z1 to z2 covering the absorbed set plus Z'.

    ``z_prime`` must be a subset of the structure's reservoir interior of
    size exactly s.  The robust template matching decides which gadget
    absorbs which vertex; output is deterministic for a given structure and
    Z'.
    """
    s = structure.template.s
    zp = frozenset(z_prime)
    if len(zp) != s:
        raise InvalidInstanceError(f"need |Z'| = s = {s}, got {len(zp)}")
    if not zp <= set(structure.w_vertices):
        raise InvalidInstanceError("Z' must lie inside the identified reservoir interior")

    w_index = {v: i for i, v in enumerate(structure.w_vertices)}
    pairs = structure.template.robust_matching(sorted(w_index[v] for v in zp))
    if pairs is None:
        raise HamPowerError("internal error: certified template failed to match Z'")
    x_to_left = {x: left for (left, x) in pairs}
    path = list(structure.placement)
    for i, (gadget, seg) in enumerate(zip(structure.gadgets, _segments(structure.layout, GADGET))):
        a_index = gadget.l_left_indices.index(x_to_left[i]) + 1
        path[seg.start:seg.start + seg.shape.order] = gadget.absorb_path(a_index)

    expected_cover = structure.absorbed_set | zp | {structure.z1, structure.z2}
    if set(path) != expected_cover or len(path) != structure.pattern.host.order:
        raise HamPowerError("internal error: absorb path does not cover A + Z' exactly")
    result = verify_coloured_embedding(structure.collection, structure.pattern, path)
    if not result.ok:
        raise HamPowerError(f"internal error: absorb path fails verification at {result.violation}")
    return PowerPath(structure.k, tuple(path))
