"""The host-edge index in ``core``: layouts checked by shifted bit masks and
colour patterns stored as one tuple, each against its set-and-dict
reference in ``helpers``."""

import random
from collections.abc import Mapping
from dataclasses import replace
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_check_edge_partition, reference_restrict_pattern, reference_verify
from hampower.absorber import absorber_layout
from hampower.core import (
    EXTEND,
    POWER_PATH,
    ColourPattern,
    GraphCollection,
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


def _mutants(segments):
    """Each segment shifted by -2, -1, 1 or 2, dropped, doubled, and (a
    path shape of two or more positions) one position shorter."""
    for i, seg in enumerate(segments):
        before, after = segments[:i], segments[i + 1:]
        for shift in (-2, -1, 1, 2):
            yield before + (replace(seg, start=seg.start + shift),) + after
        yield before + after
        yield before + (seg, seg) + after
        if seg.shape.kind == POWER_PATH and seg.shape.order >= 2:
            yield before + (replace(seg, shape=power_path(seg.shape.order - 1, seg.shape.k)),) + after


def _verdict(check, host, segments):
    try:
        check(SimpleNamespace(host=host, segments=segments))
    except HamPowerError as exc:
        return str(exc)
    return None


def test_mask_check_agrees_with_the_set_check_on_mutated_layouts():
    layouts = _real_layouts()
    mutants = 0
    for layout in layouts:
        assert _verdict(reference_check_edge_partition, layout.host, layout.segments) is None
        for segments in _mutants(layout.segments):
            want = _verdict(reference_check_edge_partition, layout.host, segments)
            assert _verdict(check_edge_partition, layout.host, segments) == want
            assert want is not None  # no mutant tiles the host
            mutants += 1
    assert len(layouts) == 33 and mutants == 2415


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
