"""The host-edge index in ``core``: layouts checked by shifted bit masks and
colour patterns stored as one tuple, each against its set-and-dict
reference in ``helpers``."""

import random
from collections.abc import Mapping
from dataclasses import replace
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    reference_check_edge_partition,
    reference_layout,
    reference_restrict_pattern,
    reference_verify,
)
from hampower.absorber import absorber_layout
from hampower.core import (
    CONNECTOR,
    EXTEND,
    POWER_CYCLE,
    POWER_PATH,
    ColourPattern,
    GraphCollection,
    Layout,
    Segment,
    check_edge_partition,
    connector,
    host_edges,
    power_cycle,
    power_path,
    restrict_pattern,
    verify_coloured_embedding,
)
from hampower.errors import HamPowerError, InvalidPatternError
from hampower.pipeline import PipelineConfig, candidate_plans

CONFIG = PipelineConfig(alpha=0.2, beta=0.05, gamma=0.01, epsilon=0.1, r=7)


def _real_layouts():
    """The first plan's cycle at k = 2, 3 and n = 30, 60, 150, 600, and
    absorbing paths for random X-degree tuples."""
    layouts = [
        candidate_plans(n, k, CONFIG)[0].layout() for k in (2, 3) for n in (30, 60, 150, 600)
    ]
    rng = random.Random(31)
    for _ in range(25):
        degrees = tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 8)))
        layouts.append(absorber_layout(rng.choice((2, 3)), degrees))
    return layouts


def _parts(layout):
    """The parts a layout is made from, and its n (None on a path)."""
    parts = tuple((seg.name, seg.kind, None if seg.kind == CONNECTOR else seg.shape)
                  for seg in layout.segments)
    return parts, layout.host.order if layout.host.kind == POWER_CYCLE else None


def _mutants(parts):
    """Each part dropped and doubled, each piece of two or more positions
    one position shorter, and each two adjacent parts swapped."""
    for i, part in enumerate(parts):
        before, after = parts[:i], parts[i + 1:]
        yield before + after
        yield before + (part, part) + after
        name, kind, shape = part
        if kind != CONNECTOR and shape.order >= 2:
            yield before + ((name, kind, power_path(shape.order - 1, shape.k)),) + after
        if after:
            yield before + (after[0], part) + after[1:]


def _verdict(check, host, segments):
    try:
        check(SimpleNamespace(host=host, segments=segments))
    except HamPowerError as exc:
        return str(exc)
    return None


def _built(k, parts, n):
    """The message of the error that building ``Layout(k, parts, n)`` raises
    and of the one its reference raises, or None for each that builds."""
    verdicts = []
    for build in (Layout, lambda *args: reference_check_edge_partition(reference_layout(*args))):
        try:
            build(k, parts, n)
            verdicts.append(None)
        except HamPowerError as exc:
            verdicts.append(str(exc))
    return verdicts


def test_mask_check_agrees_with_the_set_check_on_mutated_layouts():
    layouts = _real_layouts()
    mutants = accepted = 0
    for layout in layouts:
        parts, n = _parts(layout)
        assert Layout(layout.host.k, parts, n) == layout
        assert _built(layout.host.k, parts, n) == [None, None]
        for mutant in _mutants(parts):
            got, want = _built(layout.host.k, mutant, n)
            assert got == want
            mutants += 1
            if want is None:  # a shorter piece on a path tiles a shorter path
                assert n is None and [p[0] for p in mutant] == [p[0] for p in parts]
                accepted += 1
    assert len(layouts) == 33 and (mutants, accepted) == (1227, 78)


def test_segment_of_another_power_rejected():
    layout = candidate_plans(60, 2, CONFIG)[0].layout()
    segments = tuple(
        replace(seg, shape=power_path(seg.shape.order, 3)) if seg.kind == EXTEND or i == 0 else seg
        for i, seg in enumerate(layout.segments)
    )
    with pytest.raises(HamPowerError, match="is a 3-power on a 2-power host"):
        check_edge_partition(SimpleNamespace(host=layout.host, segments=segments))


@pytest.mark.parametrize("segment", [
    Segment("long", "path", 3, power_path(9, 2)),
    Segment("long greedy", EXTEND, 5, power_path(8, 2)),
])
def test_segment_wrapping_onto_itself_rejected(segment):
    # its window is longer than the cycle, so the rotation folds it onto itself
    host = power_cycle(7, 2)
    want = _verdict(reference_check_edge_partition, host, (segment,))
    assert want is not None and "assigned twice" in want
    assert _verdict(check_edge_partition, host, (segment,)) == want


@st.composite
def hosts(draw, kinds=("path", "cycle", "connector")):
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(kinds))
    if kind == "path":
        return power_path(draw(st.integers(1, 14)), k)
    if kind == "cycle":
        return power_cycle(draw(st.integers(2 * k + 1, 14)), k)
    return connector(draw(st.integers(1, k)), draw(st.integers(1, k)), k)


PIECE, JOINT = ("piece", "path", power_path(3, 2)), ("joint", CONNECTOR, None)


@pytest.mark.parametrize("parts, n, message", [
    ((JOINT, PIECE), None, "joint reaches before position 0"),
    ((("run", EXTEND, power_path(2, 2)), JOINT, PIECE), None, "run reaches before position 0"),
    ((PIECE, JOINT, JOINT, PIECE), None, "joint is not followed by a piece"),
    ((PIECE, JOINT, PIECE, JOINT), None, "joint is not followed by a piece"),
    ((PIECE, JOINT, PIECE, JOINT), 9, "the parts place 10 positions on a cycle of 9"),
    ((PIECE, JOINT, PIECE, JOINT), 11, "the parts place 10 positions on a cycle of 11"),
])
def test_misordered_parts_raise_on_every_call(parts, n, message):
    assert Layout(2, (PIECE, JOINT, PIECE, JOINT), 10).host == power_cycle(10, 2)
    for _ in range(2):
        with pytest.raises(HamPowerError, match=f"^layout error: {message}$"):
            Layout(2, parts, n)


@st.composite
def parts_lists(draw):
    """A power k, a list of joints, pieces (k-power paths, or any host)
    and EXTEND runs, and None, the order the parts place or any cycle
    order."""
    k = draw(st.integers(1, 3))
    part = st.one_of(
        st.just(JOINT),
        st.integers(1, 6).map(lambda order: ("piece", "path", power_path(order, k))),
        hosts().map(lambda shape: ("piece", "path", shape)),
        st.integers(1, 6).map(lambda order: ("run", EXTEND, power_path(order, k))),
    )
    parts = draw(st.lists(part, max_size=8))
    placed = sum(k if kind == CONNECTOR else shape.order for _, kind, shape in parts)
    return k, parts, draw(st.sampled_from((None, placed)) | st.integers(0, 30))


@settings(max_examples=400, deadline=None)
@given(parts_lists())
def test_any_parts_build_a_tiling_or_raise_a_layout_error(case):
    k, parts, n = case
    try:
        layout = Layout(k, parts, n)
    except HamPowerError:
        return
    reference_check_edge_partition(layout)


def _colours(host, rng, m=4):
    return {e: rng.randint(1, m) for e in host_edges(host)}


class TestPatternStorage:
    @settings(max_examples=150, deadline=None)
    @given(hosts(), st.integers(0, 2**32))
    def test_round_trip(self, host, seed):
        colours = _colours(host, random.Random(seed))
        pattern = ColourPattern(host, colours)
        assert pattern.colours == colours and dict(pattern.colours) == colours
        assert sorted(pattern.colours.items()) == sorted(colours.items())
        assert all(pattern.colour_of(j, i) == c for (i, j), c in colours.items())
        assert pattern.max_colour == max(colours.values(), default=1)
        assert ColourPattern(host, dict(reversed(colours.items()))) == pattern

    def test_any_mapping_is_read_and_its_keys_checked(self):
        host = power_path(5, 2)
        colours = _colours(host, random.Random(1))
        assert ColourPattern(host, MappingProxyType(colours)) == ColourPattern(host, colours)

        class AnswersEveryKey(Mapping):  # but lists keys outside the host
            def __getitem__(self, edge):
                return 1

            def __iter__(self):
                return ((i, i + 9) for i in range(len(colours)))

            def __len__(self):
                return len(colours)

        with pytest.raises(InvalidPatternError, match="pattern domain mismatch: 7 host edges missing"):
            ColourPattern(host, AnswersEveryKey())

    @settings(max_examples=200, deadline=None)
    @given(hosts(("path", "cycle")), st.data())
    def test_restriction_matches_the_dict_reference(self, source, data):
        k = source.k
        a, b = data.draw(st.integers(0, k)), data.draw(st.integers(1, k))
        if a and a + k + b <= source.order:
            target = connector(a, b, k)
        else:
            target = power_path(data.draw(st.integers(1, source.order)), k)
        if source.kind == POWER_PATH:
            start = data.draw(st.integers(0, source.order - target.order))
        else:  # wrapping and negative starts included
            start = data.draw(st.integers(-2 * source.order, 2 * source.order))
        pattern = ColourPattern(source, _colours(source, random.Random(data.draw(st.integers()))))
        got = restrict_pattern(pattern, start, target)
        assert got == reference_restrict_pattern(pattern, start, target)
        assert dict(got.colours) == dict(reference_restrict_pattern(pattern, start, target).colours)

    @settings(max_examples=200, deadline=None)
    @given(hosts(), st.integers(0, 2**32))
    def test_first_violation_matches_the_reference(self, host, seed):
        rng = random.Random(seed)
        n = host.order + rng.randint(0, 3)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.choice((0.6, 0.9, 1.0))
        graphs = [[e for e in pairs if rng.random() < density] for _ in range(3)]
        collection = GraphCollection.from_edge_lists(n, graphs)
        pattern = ColourPattern(host, _colours(host, rng, m=4))  # colour 4 names no graph
        vertices = rng.sample(range(n), host.order)
        assert verify_coloured_embedding(collection, pattern, vertices) == reference_verify(
            collection, pattern, vertices
        )


def test_window_of_a_cycle_must_be_a_path_a_connector_or_the_whole_cycle():
    pattern = ColourPattern(power_cycle(9, 2), _colours(power_cycle(9, 2), random.Random(0)))
    assert restrict_pattern(pattern, 4, power_cycle(9, 2)) == reference_restrict_pattern(
        pattern, 4, power_cycle(9, 2)
    )
    path = ColourPattern(power_path(9, 2), _colours(power_path(9, 2), random.Random(0)))
    for source, target in ((pattern, power_cycle(7, 2)), (path, power_cycle(9, 2))):
        with pytest.raises(InvalidPatternError, match="must be a path, a connector or its whole cycle"):
            restrict_pattern(source, 0, target)
