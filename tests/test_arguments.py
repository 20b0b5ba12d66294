"""Malformed arguments to the package's entry points raise a HamPowerError
subclass: never a raw Python exception, and never a silent acceptance.

The regression table lists calls that used to escape as ``TypeError``,
``KeyError`` or ``AttributeError`` or were accepted; the surface test
replaces one argument of a valid call at a time with a drawn value: a
number, a vertex sequence, a table of rows, a mapping with keys of mixed
types, None or a package object.  Its ints are small,
so no call allocates by a large n.
"""

import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

import hampower
from hampower import (
    ColourPattern,
    GraphCollection,
    HostTemplate,
    PipelineConfig,
    PowerCycle,
    PowerPath,
    connector,
    count_coloured_hamilton_powers,
    find_coloured_hamilton_power,
    host_edges,
    min_degree,
    power_cycle,
    power_path,
    restrict_pattern,
    sample_reservoir,
    solve,
    verify_coloured_embedding,
)
from hampower.absorber import (
    Template,
    build_absorbing_structure,
    build_gadget_blueprint,
    build_template,
    embed_by_degeneracy,
    expected_absorbed_size,
)
from hampower.connectors import embed_connector, extend_by_one
from hampower.core import CONNECTOR, POWER_CYCLE, Layout, colour_slots, pattern_from_dict
from hampower.errors import (
    HamPowerError,
    InvalidHostError,
    InvalidInstanceError,
    InvalidPatternError,
    TemplateError,
)
from hampower.instances import (
    __all__ as INSTANCES,
    bijective_pattern,
    complete_collection,
    complete_rpartite_collection,
    lowerbound_construction,
    multipartite_collection,
    random_min_degree_collection,
    random_pattern,
    random_rpartite_collection,
)
from hampower.pathbuilder import build_path_collection
from hampower.pipeline import candidate_plans, feasibility_floor

CONFIG = dict(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7)
K9 = complete_collection(9, 2)
CYCLE9 = random_pattern(power_cycle(9, 2), 2, random.Random(0))
PATH5 = random_pattern(power_path(5, 2), 2, random.Random(0))
K3_ROWS = (0b110, 0b101, 0b011)


def rng() -> random.Random:
    return random.Random(0)


K12 = complete_collection(12, 3)
CYCLE12 = random_pattern(power_cycle(12, 2), 3, random.Random(0))
PATH3 = random_pattern(power_path(3, 2), 3, random.Random(0))
CONNECTOR_1_1 = restrict_pattern(CYCLE12, 0, connector(1, 1, 2))
GADGET_2_2 = build_gadget_blueprint(2, 2, random_pattern(power_path(10, 2), 2, random.Random(0)))
FULL12 = (1 << 12) - 1


class ListKeyed(Mapping):
    """A mapping whose keys are lists, which a dict cannot hold."""

    def __init__(self, items):
        self._items = list(items)

    def __getitem__(self, key):
        return next(value for k, value in self._items if k == key)

    def __iter__(self):
        return (k for k, _ in self._items)

    def __len__(self):
        return len(self._items)


# the placement entry points, each with a vertex argument that is out of
# range, not an int, repeated or of the wrong count, or a pool that is not
# a mask of vertices; each takes the rng
PLACEMENTS = {
    "extend-vertex-high": lambda r: extend_by_one(K12, PowerPath(2, (0, 50)), [1, 1], 0b111100, r),
    "extend-vertex-negative": lambda r: extend_by_one(K12, PowerPath(2, (0, -1)), [1, 1], 0b111100, r),
    "connector-end-high": lambda r: embed_connector(K12, [50], [1], CONNECTOR_1_1, FULL12, r),
    "connector-end-negative": lambda r: embed_connector(K12, [0], [-1], CONNECTOR_1_1, FULL12, r),
    "connector-end-float": lambda r: embed_connector(K12, [0.0], [1], CONNECTOR_1_1, FULL12, r),
    "gadget-flexible-high": lambda r: embed_by_degeneracy(K12, GADGET_2_2, (0, 99), FULL12, r),
    "gadget-flexible-short": lambda r: embed_by_degeneracy(K12, GADGET_2_2, (0,), FULL12, r),
    "gadget-flexible-repeat": lambda r: embed_by_degeneracy(
        complete_collection(40, 2), GADGET_2_2, (0, 0), (1 << 40) - 1, r
    ),
    "extend-pool-float": lambda r: extend_by_one(K12, PowerPath(2, (0, 1)), [1, 1], 1.5, r),
    "connector-pool-text": lambda r: embed_connector(K12, [0], [1], CONNECTOR_1_1, "x", r),
    "gadget-pool-negative": lambda r: embed_by_degeneracy(K12, GADGET_2_2, (0, 1), -1, r),
    "gadget-pool-high": lambda r: embed_by_degeneracy(K12, GADGET_2_2, (0, 1), FULL12 | 1 << 12, r),
}


REGRESSIONS = {
    # each of these raised a raw TypeError
    "reservoir-size-float": lambda: sample_reservoir(10, 2.5, rng()),
    "solve-r-float": lambda: solve(K9, CYCLE9, PipelineConfig(**{**CONFIG, "r": 7.5})),
    "solve-retries-float": lambda: solve(K9, CYCLE9, PipelineConfig(**CONFIG, max_retries=2.5)),
    "config-alpha-text": lambda: PipelineConfig(**{**CONFIG, "alpha": "x"}),
    "complete-n-float": lambda: complete_collection(10.5, 2),
    "complete-m-float": lambda: complete_collection(10, 2.0),
    "path-r-float": lambda: power_path(5.0, 2),
    "collection-n-float": lambda: GraphCollection(3.0, [K3_ROWS]),
    "min-degree-delta-text": lambda: random_min_degree_collection(10, 2, "x", rng()),
    "min-degree-m-float": lambda: random_min_degree_collection(10, 2.0, 0.5, rng()),
    "lowerbound-p-float": lambda: lowerbound_construction(2, 3.0),
    "verify-vertex-float": lambda: verify_coloured_embedding(K9, PATH5, [0, 1, 2, 3, 1.5]),
    "verify-vertex-set": lambda: verify_coloured_embedding(K9, PATH5, {0, 1, 2, 3, 4}),
    "verify-vertex-generator": lambda: verify_coloured_embedding(K9, PATH5, (v for v in range(5))),
    "edge-float-end": lambda: GraphCollection.from_edge_lists(3, [[(0, 1.5)]]),
    "edge-none": lambda: GraphCollection.from_edge_lists(3, [[(0, 1), None]]),
    "edge-list-none": lambda: GraphCollection.from_edge_lists(3, [None]),
    "pattern-colours-none": lambda: ColourPattern(power_path(4, 2), None),
    "pattern-colours-int": lambda: ColourPattern(power_path(4, 2), 5),
    "plans-n-float": lambda: candidate_plans(10.5, 2, PipelineConfig(**CONFIG)),
    "collection-tables-none": lambda: GraphCollection(3, None),
    "collection-table-none": lambda: GraphCollection(3, [None]),
    "collection-table-int": lambda: GraphCollection(3, [5]),
    "builder-part-int": lambda: build_path_collection(K12, [[0, 1], [2, 3], 5], [PATH3], rng()),
    "builder-part-none": lambda: build_path_collection(K12, [[0, 1], [2, 3], None], [PATH3], rng()),
    "builder-parts-int": lambda: build_path_collection(K12, 7, [PATH3], rng()),
    "builder-parts-set": lambda: build_path_collection(
        complete_collection(12, 2), {(0, 1), (2, 3), (4, 5)}, [PATH3], rng()
    ),
    "builder-patterns-generator": lambda: build_path_collection(K12, [[0, 1]], (p for p in [PATH3]), rng()),
    "builder-patterns-int": lambda: build_path_collection(K12, [[0, 1]], 5, rng()),
    "builder-patterns-none": lambda: build_path_collection(K12, [[0, 1]], None, rng()),
    # this raised a raw TypeError from sorting the extra keys for the message
    "pattern-mixed-extra-keys": lambda: ColourPattern(
        power_path(3, 1), {(0, 1): 1, (1, 2): 1, "x": 1, 5: 1}
    ),
    # this raised a raw ValueError
    "edge-triple": lambda: GraphCollection.from_edge_lists(3, [[(0, 1, 2)]]),
    # these raised a raw KeyError
    "restrict-start-float": lambda: restrict_pattern(CYCLE9, 1.5, power_path(5, 2)),
    "colour-of-non-edge": lambda: CYCLE12.colour_of(0, 5),
    "slots-non-edge": lambda: colour_slots(power_cycle(12, 2), [(0, 5)]),
    # these raised a raw TypeError from comparing or hashing an edge's ends
    "colour-of-text": lambda: CYCLE12.colour_of("a", 1),
    "pattern-list-keys": lambda: ColourPattern(
        power_cycle(5, 2), ListKeyed(([i, j], 1) for i, j in host_edges(power_cycle(5, 2)))
    ),
    # these raised a raw AttributeError
    "restrict-target-text": lambda: restrict_pattern(CYCLE9, 0, "x"),
    "restrict-pattern-text": lambda: restrict_pattern("x", 0, power_path(5, 2)),
    "solve-collection-none": lambda: solve(None, CYCLE9, PipelineConfig(**CONFIG)),
    "solve-pattern-none": lambda: solve(K9, None, PipelineConfig(**CONFIG)),
    "solve-config-none": lambda: solve(K9, CYCLE9, None),
    "verify-pattern-none": lambda: verify_coloured_embedding(K9, None, [0, 1]),
    "host-edges-none": lambda: host_edges(None),
    "plans-config-none": lambda: candidate_plans(100, 2, None),
    "reservoir-rng-none": lambda: sample_reservoir(12, 3, None),
    "oracle-pattern-none": lambda: find_coloured_hamilton_power(K9, None),
    "builder-pattern-none": lambda: build_path_collection(K12, [[0, 1]], [None], rng()),
    # these were accepted
    "config-seed-text": lambda: PipelineConfig(**CONFIG, seed="s"),
    "config-seed-none": lambda: PipelineConfig(**CONFIG, seed=None),
    "cycle-k-float": lambda: power_cycle(60, 2.0),
    "connector-a-float": lambda: connector(1.0, 1, 2),
    "pattern-m-float": lambda: random_pattern(power_cycle(9, 2), 2.0, rng()),
    "lowerbound-k-bool": lambda: lowerbound_construction(True, 3),
    "power-cycle-k-float": lambda: PowerCycle(2.0, tuple(range(9))),
    "power-path-vertex-float": lambda: PowerPath(1, (0.5, 1)),
    "edge-bool-end": lambda: GraphCollection.from_edge_lists(3, [[(0, True)]]),
    "plans-k-zero": lambda: candidate_plans(100, 0, PipelineConfig(**CONFIG)),
    "floor-k-zero": lambda: feasibility_floor(0),
    # these raised a raw IndexError, ValueError, TypeError or KeyError, or
    # (a repeated flexible vertex, a pool that is negative or beyond n) were
    # accepted
    **{name: lambda call=call: call(rng()) for name, call in PLACEMENTS.items()},
}


@pytest.mark.parametrize("call", REGRESSIONS.values(), ids=list(REGRESSIONS))
def test_malformed_argument_raises_a_package_error(call):
    with pytest.raises(HamPowerError):
        call()


# an absorbing structure's arguments around a valid (s, t) = (1, 3)
# template: a 6-vertex reservoir {0..5} with ends 0 and 1, and Y = {10, 11}
TEMPLATE_1_3 = build_template(1, 3, random.Random(0))
M_ABS = expected_absorbed_size(2, 1, TEMPLATE_1_3.edge_count) + 3
K200 = complete_collection(200, 2)


def absorbing(reservoir=range(6), z=(0, 1), y=(10, 11), order=M_ABS):
    chi = random_pattern(power_path(order, 2), 2, rng())
    return build_absorbing_structure(K200, chi, reservoir, *z, y, TEMPLATE_1_3, rng())


# typed errors at the boundary that no solve, benchmark or CLI run reaches:
# each call, its error class and a fragment of its message
BOUNDARY = {
    "solve-path-pattern": (
        lambda: solve(K12, random_pattern(power_path(12, 2), 2, rng()), PipelineConfig(**CONFIG)),
        InvalidInstanceError, "solve needs a power-cycle pattern",
    ),
    "solve-order-mismatch": (
        lambda: solve(complete_collection(13, 2), CYCLE12, PipelineConfig(**CONFIG)),
        InvalidInstanceError, "matching the instance",
    ),
    "restrict-from-connector": (
        lambda: restrict_pattern(random_pattern(connector(2, 2, 2), 2, rng()), 0, power_path(3, 2)),
        InvalidPatternError, "cannot restrict a connector pattern",
    ),
    "restrict-power-mismatch": (
        lambda: restrict_pattern(CYCLE12, 0, power_path(3, 3)),
        InvalidPatternError, "window power mismatch: 3 != 2",
    ),
    "host-kind-star": (lambda: HostTemplate("star", 2, 5), InvalidHostError, "unknown host kind"),
    "layout-cycle-segment": (
        lambda: Layout(2, (("whole", "x", power_cycle(12, 2)),), 12),
        HamPowerError, "is a power cycle, not a window",
    ),
    "lowerbound-orientation": (
        lambda: lowerbound_construction(2, 3, "sideways"),
        InvalidInstanceError, "unknown orientation 'sideways'",
    ),
    "builder-unequal-parts": (
        lambda: build_path_collection(K12, [[0, 1], [2, 3], [4]], [PATH3], rng()),
        InvalidInstanceError, "all parts must have equal size",
    ),
    "builder-pattern-host": (
        lambda: build_path_collection(K12, [[0, 1], [2, 3]], [PATH3], rng()),
        InvalidInstanceError, "does not live on power_path(2,2)",
    ),
    "builder-colour-beyond-m": (
        lambda: build_path_collection(
            complete_collection(12, 2), [[0, 1], [2, 3], [4, 5]],
            [ColourPattern(power_path(3, 2), {(0, 1): 5, (0, 2): 1, (1, 2): 1})], rng(),
        ),
        InvalidInstanceError, "uses a colour beyond m=2",
    ),
    "extend-one-vertex-path": (
        lambda: extend_by_one(K12, PowerPath(2, (0,)), [1, 1], 0b111100, rng()),
        InvalidInstanceError, "at least k=2 vertices",
    ),
    "extend-one-colour": (
        lambda: extend_by_one(K12, PowerPath(2, (0, 1)), [1], 0b111100, rng()),
        InvalidInstanceError, "exactly k=2 edge colours, got 1",
    ),
    "template-empty-with-rows": (lambda: Template(0, 0, (1,)), TemplateError, "must be empty"),
    "template-short-rows": (lambda: Template(1, 1, (3,)), TemplateError, "must cover U and W"),
    "template-row-out-of-range": (
        lambda: Template(1, 1, (3, 3, 3, 11)), TemplateError, "neighbour out of range",
    ),
    "gadget-pattern-host": (
        lambda: build_gadget_blueprint(2, 2, PATH3), InvalidPatternError, "power_path(10,2)",
    ),
    "absorber-equal-ends": (
        lambda: absorbing(z=(0, 0)), InvalidInstanceError, "distinct reservoir members",
    ),
    "absorber-reservoir-size": (
        lambda: absorbing(reservoir=range(7)), InvalidInstanceError, "reservoir size 7 != s + t + 2 = 6",
    ),
    "absorber-one-y": (lambda: absorbing(y=(10,)), InvalidInstanceError, "need |Y| = 2s = 2, got 1"),
    "absorber-y-in-reservoir": (
        lambda: absorbing(y=(5, 11)), InvalidInstanceError, "Y must avoid the reservoir",
    ),
    "absorber-pattern-too-long": (
        lambda: absorbing(order=M_ABS + 1), InvalidPatternError, "absorbing pattern must live on",
    ),
    "loader-colour-list": (
        lambda: pattern_from_dict({"host": {"kind": "path", "n_or_r": 2, "k": 1},
                                   "colours": [[0, 1, [0, 1]]]}),
        InvalidPatternError, "non-integer colour entry",
    ),
}


@pytest.mark.parametrize("call, error, fragment", BOUNDARY.values(), ids=list(BOUNDARY))
def test_boundary_raises_its_typed_error(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)


@pytest.mark.parametrize("budget", [3.5, -1])
@pytest.mark.parametrize("search", [find_coloured_hamilton_power, count_coloured_hamilton_powers])
def test_oracle_rejects_a_float_or_negative_budget(search, budget):
    # a float budget never equals the node count, so it used to turn the
    # budget off; a negative one was clamped to 0
    with pytest.raises(InvalidInstanceError, match="node budget"):
        search(*lowerbound_construction(2, 3), budget=budget)


@pytest.mark.parametrize("call", PLACEMENTS.values(), ids=list(PLACEMENTS))
def test_placement_rejects_its_vertices_before_any_draw(call):
    r = rng()
    state = r.getstate()
    with pytest.raises(InvalidInstanceError, match=r"^(path vertex|connector end|flexible vertex) |a mask of vertices in 0\.\."):
        call(r)
    assert r.getstate() == state


def test_colour_of_a_non_edge_names_the_pair_and_the_host():
    with pytest.raises(InvalidPatternError, match=r"\(0, 5\) is not an edge of HostTemplate\(kind='power_cycle'"):
        CYCLE12.colour_of(0, 5)


def test_pattern_rejects_a_bool_colour():
    message = r"colour on edge \(1, 2\) must be a 1-based int, got True"
    with pytest.raises(InvalidPatternError, match=message):
        ColourPattern(power_path(3, 1), {(0, 1): 1, (1, 2): True})


# each entry point with valid baseline arguments; the drawn value replaces
# one of them, object-typed arguments (collections, patterns, hosts,
# configs, rngs) included.  A shared rng's state does not matter here.
LOWERBOUND = lowerbound_construction(2, 3)
RNG = random.Random(0)
SURFACE = {
    "ColourPattern": (
        lambda host, colour: ColourPattern(host, {(0, 1): 1, (1, 2): colour}),
        dict(host=power_path(3, 1), colour=2),
    ),
    "GraphCollection": (
        lambda n, row: GraphCollection(n, [K3_ROWS[:2] + (row,)]), dict(n=3, row=0b011)
    ),
    "GraphCollection/tables": (GraphCollection, dict(n=3, tables=[K3_ROWS, K3_ROWS])),
    "ColourPattern/colours": (
        ColourPattern, dict(host=power_path(3, 1), colours={(0, 1): 1, (1, 2): 2})
    ),
    "HostTemplate": (
        lambda k, order, a, b: HostTemplate(CONNECTOR, k, order, a, b),
        dict(k=2, order=5, a=1, b=2),
    ),
    "HostTemplate/cycle": (
        lambda k, order: HostTemplate(POWER_CYCLE, k, order), dict(k=2, order=7)
    ),
    "PowerCycle": (PowerCycle, dict(k=1, vertices=(0, 1, 2))),
    "PowerPath": (PowerPath, dict(k=2, vertices=(0, 1))),
    "PipelineConfig": (PipelineConfig, dict(CONFIG, seed=0, max_retries=8)),
    "connector": (connector, dict(a=1, b=2, k=2)),
    "count_coloured_hamilton_powers": (
        count_coloured_hamilton_powers,
        dict(collection=LOWERBOUND[0], pattern=LOWERBOUND[1], budget=None),
    ),
    "find_coloured_hamilton_power": (
        find_coloured_hamilton_power,
        dict(collection=LOWERBOUND[0], pattern=LOWERBOUND[1], budget=None),
    ),
    "host_edges": (lambda n, k: host_edges(power_cycle(n, k)), dict(n=7, k=2)),
    "host_edges/host": (host_edges, dict(host=power_cycle(7, 2))),
    "min_degree": (lambda n: min_degree(GraphCollection(n, [K3_ROWS])), dict(n=3)),
    "min_degree/collection": (min_degree, dict(collection=K9)),
    "power_cycle": (power_cycle, dict(n=7, k=2)),
    "power_path": (power_path, dict(r=5, k=2)),
    "restrict_pattern": (
        lambda pattern, start, r: restrict_pattern(pattern, start, power_path(r, 2)),
        dict(pattern=CYCLE9, start=7, r=5),
    ),
    "restrict_pattern/target": (restrict_pattern, dict(pattern=CYCLE9, start=7, target=power_path(5, 2))),
    "restrict_pattern/path": (
        lambda start, r: restrict_pattern(PATH5, start, power_path(r, 2)),
        dict(start=1, r=3),
    ),
    "sample_reservoir": (sample_reservoir, dict(n=10, size=3, rng=RNG)),
    "solve": (lambda **fields: solve(K9, CYCLE9, PipelineConfig(**fields)), dict(CONFIG, seed=0)),
    "solve/objects": (
        solve, dict(collection=K9, pattern=CYCLE9, config=PipelineConfig(**CONFIG, seed=0))
    ),
    "verify_coloured_embedding": (
        verify_coloured_embedding, dict(collection=K9, pattern=PATH5, vertices=[0, 1, 2, 3, 4])
    ),
    "complete_collection": (complete_collection, dict(n=4, m=2)),
    "complete_rpartite_collection": (complete_rpartite_collection, dict(r=3, part_size=2, m=2)),
    "random_rpartite_collection": (
        random_rpartite_collection, dict(r=3, part_size=2, m=2, delta_frac=0.5, rng=RNG)
    ),
    "random_min_degree_collection": (
        random_min_degree_collection, dict(n=6, m=2, delta_frac=0.5, rng=RNG)
    ),
    "multipartite_collection": (multipartite_collection, dict(n=6, parts=3, m=2, p=0.5, rng=RNG)),
    "lowerbound_construction": (lowerbound_construction, dict(k=2, p=3)),
    "random_pattern": (random_pattern, dict(host=power_cycle(7, 2), m=3, rng=RNG)),
    "bijective_pattern": (lambda n, k: bijective_pattern(power_path(n, k), rng()), dict(n=5, k=2)),
    "bijective_pattern/objects": (bijective_pattern, dict(host=power_path(5, 2), rng=RNG)),
}

SCALARS = (
    st.integers(-4, 16)
    | st.floats()
    | st.sampled_from([2.0, float("nan"), float("inf"), float("-inf"), True, False, None, "", "2"])
)
# None is among the scalars; these stand for an object of the wrong kind
OBJECTS = st.sampled_from(
    [K9, LOWERBOUND[0], CYCLE9, PATH5, power_path(5, 2), PipelineConfig(**CONFIG), RNG]
)
VALUES = (
    SCALARS
    | OBJECTS
    | st.lists(st.integers(-2, 10) | st.floats(-1, 10) | st.booleans(), max_size=8)
    # a list of rows, a table's shape, and a mapping with keys of mixed types
    | st.lists(st.lists(st.integers(-1, 8) | st.none(), max_size=4) | st.none(), max_size=3)
    | st.dictionaries(
        st.tuples(st.integers(-1, 3), st.integers(-1, 3)) | st.integers(-1, 3) | st.text(max_size=1),
        st.integers(-1, 3) | st.none(),
        max_size=4,
    )
)


def test_surface_covers_every_entry_point():
    names = {name.partition("/")[0] for name in SURFACE}
    assert names == (set(hampower.__all__) - {"__version__"}) | set(INSTANCES)


@pytest.mark.parametrize("name", list(SURFACE))
def test_surface_baselines_are_valid(name):
    call, baseline = SURFACE[name]
    call(**baseline)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_drawn_arguments_raise_only_package_errors(data):
    call, baseline = SURFACE[data.draw(st.sampled_from(list(SURFACE)))]
    arg = data.draw(st.sampled_from(list(baseline)))
    try:
        call(**{**baseline, arg: data.draw(VALUES)})
    except HamPowerError:
        pass
