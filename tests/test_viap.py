"""The augmenting-path solver: graph construction, paths, witnesses."""

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import vmint.apps as apps
import vmint.viap as viap
import vmint.vmi as vmi
from vmint.core import ExtValue, GroundSet, InternalInvariantError, dot
from vmint.bruteforce import brute_v_eq_k, brute_v_geq_k
from vmint.matroid import (
    ExplicitBaseFamily,
    enumerate_bases,
    from_explicit_bases,
    make_graphic,
    make_uniform,
)
from vmint.rand_instances import (
    MATROID_KINDS,
    random_ground,
    random_matroid,
    random_modular_valuation,
    random_rational,
)
from vmint.valuated import (
    ConvexTable,
    LaminarSpec,
    ValuationOracle,
    check_valuated_exchange,
    dual_valuation,
    from_matroid_and_weights,
    size_constrained_modular,
)
from vmint.viap import (
    AuxDigraph,
    ViapState,
    Witness,
    apply_path,
    augment_step,
    build_aux_digraph,
    run_ladder,
    shortest_path_with_hop_tiebreak,
    solve_v_eq_k,
    solve_v_geq_k,
    verify_solution,
    verify_witness,
)

from references import (
    dual_valuation_memoized,
    valuation_from_explicit,
    verify_solution_exhaustive,
    verify_witness_exhaustive,
)


@pytest.fixture
def g3():
    return GroundSet(3, ("a", "b", "c"))


def _modular_pair(g3):
    u23 = make_uniform(g3, 2)
    omega1 = from_matroid_and_weights(u23, [1, 2, 4])
    omega2 = from_matroid_and_weights(u23, [4, 2, 1])
    return omega1, omega2


ZEROS3 = (Fraction(0),) * 3


def _pair4():
    """Modular valuations on the 2-subsets of a 4-set whose minimizers
    {0, 1} and {1, 2} meet in one element, so every solver below takes
    at least one augmenting step."""
    u24 = make_uniform(GroundSet(4), 2)
    return (from_matroid_and_weights(u24, [1, 2, 4, 8]),
            from_matroid_and_weights(u24, [8, 2, 1, 4]))


ARC_EDGE = "E"          # v1 -> v2, length 0, matches v
ARC_MATCHED = "F"       # v2 -> v1 for v in F, length 0, unmatches v
ARC_EXCHANGE_1 = "A1"   # u1 -> v1, exchange X1 - u + v
ARC_EXCHANGE_2 = "A2"   # v2 -> u2, exchange X2 - u + v
ARC_SOURCE = "S"        # s -> v1 for v in X1 \ X2
ARC_SINK = "T"          # v2 -> t for v in X2 \ X1


@dataclass(slots=True)
class AuxArc:
    """An aux arc with its kind and elements: the record the solver kept
    before its arcs were rows and `(tail, head)` pairs, kept here for the
    reference builds and searches below."""
    tail: int
    head: int
    units: int              # the length in units of 1/scale
    kind: str
    element_out: int = -1   # u of an exchange arc, else -1
    element_in: int = -1    # v of an exchange arc / the element of E, F arcs
    scale: int = 1

    @property
    def length(self) -> Fraction:
        """The exact length, units / scale."""
        return Fraction(self.units, self.scale)


def _arc(graph: AuxDigraph, tail: int, position: int) -> AuxArc:
    """The arc at `position` in the row of `tail`, with its kind and
    elements read off its end nodes."""
    head, units = graph.adjacency[tail][position]
    n = graph.n
    if tail == 0:
        kind, out, into = ARC_SOURCE, -1, head - 1
    elif head == 2 * n + 1:
        kind, out, into = ARC_SINK, -1, tail - 1 - n
    elif tail <= n:
        kind, out, into = ((ARC_EXCHANGE_1, tail - 1, head - 1)
                           if head <= n else (ARC_EDGE, -1, tail - 1))
    else:
        kind, out, into = ((ARC_MATCHED, -1, head - 1) if head <= n
                           else (ARC_EXCHANGE_2, head - 1 - n, tail - 1 - n))
    return AuxArc(tail, head, units, kind, out, into, graph.scale)


def _arcs(graph: AuxDigraph) -> list[AuxArc]:
    """Every arc of the rows, row by row, decoded by its end nodes."""
    return [_arc(graph, tail, position)
            for tail, row in enumerate(graph.adjacency)
            for position in range(len(row))]


def _path_arcs(graph: AuxDigraph, dist, path) -> list[AuxArc]:
    """The `(tail, head)` pairs of a path as decoded arcs: each the first
    arc in its tail's row that reaches its head at its distance."""
    return [_arc(graph, tail, graph.adjacency[tail].index(
                (head, dist[head] - dist[tail])))
            for tail, head in path]


class TestAuxDigraph:
    def test_arc_census_without_matching(self, g3):
        omega1, omega2 = _modular_pair(g3)
        x1 = g3.subset([0, 1])
        x2 = g3.subset([1, 2])
        graph = build_aux_digraph(x1, x2, ZEROS3, g3.empty(),
                                  omega1, omega2, 1)
        kinds = {}
        for arc in _arcs(graph):
            kinds.setdefault(arc.kind, []).append(arc)
        assert len(kinds[ARC_EDGE]) == 3
        assert ARC_MATCHED not in kinds

    def test_source_sink_empty_when_sets_equal(self, g3):
        omega1, _ = _modular_pair(g3)
        omega2 = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        x = g3.subset([0, 1])
        graph = build_aux_digraph(x, x, ZEROS3, x, omega1, omega2, 1)
        kinds = {arc.kind for arc in _arcs(graph)}
        assert ARC_SOURCE not in kinds and ARC_SINK not in kinds

    def test_exchange_arc_lengths_derived(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        omega2 = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        x = g3.subset([0, 1])
        graph = build_aux_digraph(x, x, ZEROS3, x, omega1, omega2, 1)
        a1 = {(arc.element_out, arc.element_in): arc.length
              for arc in _arcs(graph) if arc.kind == ARC_EXCHANGE_1}
        assert a1 == {(0, 2): Fraction(3), (1, 2): Fraction(2)}

    def test_negative_length_rejected(self, g3):
        omega1, omega2 = _modular_pair(g3)
        # {b, c} does not minimize omega1, so some exchange length is < 0.
        x1 = g3.subset([1, 2])
        x2 = g3.subset([1, 2])
        with pytest.raises(InternalInvariantError):
            build_aux_digraph(x1, x2, ZEROS3, g3.subset([1, 2]),
                              omega1, omega2, 1)


class TestShortestPath:
    def _diamond(self):
        # Two s-t routes of equal length 2: three hops versus five hops.
        graph = AuxDigraph(3, [[] for _ in range(8)])
        s, t = 0, 7

        def arc(tail, head, length):
            graph.adjacency[tail].append((head, Fraction(length)))

        arc(s, 1, 1)
        arc(1, t, 1)
        arc(s, 2, 0)
        arc(2, 3, 1)
        arc(3, 4, 0)
        arc(4, 5, 1)
        arc(5, t, 0)
        return graph, s, t

    def test_hop_tiebreak(self):
        graph, _, t = self._diamond()
        dist, _, path = shortest_path_with_hop_tiebreak(graph)
        assert dist[t] == Fraction(2)
        assert len(path) == 2

    def test_unreachable_sink(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
        omega2 = from_matroid_and_weights(make_uniform(g3, 1), [0, 0, 0])
        x = g3.subset([0])
        # X1 == X2: no source arcs at all, sink unreachable.
        graph = build_aux_digraph(x, x, ZEROS3, x, omega1, omega2, 1)
        _, _, path = shortest_path_with_hop_tiebreak(graph)
        assert path is None

    def test_all_zero_lengths_choose_min_hops(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 2), [0, 0, 0])
        omega2 = from_matroid_and_weights(make_uniform(g3, 2), [0, 0, 0])
        x1 = g3.subset([0, 1])
        x2 = g3.subset([1, 2])
        graph = build_aux_digraph(x1, x2, ZEROS3, x1.intersection(x2),
                                  omega1, omega2, 1)
        dist, _, path = shortest_path_with_hop_tiebreak(graph)
        assert dist[graph.sink] == 0
        # Shortest possible: s -> a1 -> a2 ... no: a not in X2; the 4-arc
        # route s, a1, (exchange to c1), c2, t exists entirely at length 0.
        assert len(path) == 4


@dataclass
class _ArcDigraph:
    """The aux digraph as it was before rows: one list of `AuxArc`s per
    node, kept with the build and the searches below as their reference."""

    n: int
    adjacency: list
    scale: int = 1

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 2 * self.n + 1

    def node_count(self) -> int:
        return 2 * self.n + 2

    def node_v1(self, v: int) -> int:
        return 1 + v

    def node_v2(self, v: int) -> int:
        return 1 + self.n + v


def _fraction_shortest_path(
        graph: _ArcDigraph,
) -> tuple[list[Optional[Fraction]], list[Optional[AuxArc]],
           Optional[list[AuxArc]]]:
    """Label-setting search on the lexicographic key (length, hop count).

    Verbatim copy of the rational search that the integer-keyed
    `shortest_path_with_hop_tiebreak` replaced, kept as its reference.

    Returns per-node distances (None for unreachable), the parent arc of
    each node on its shortest path, and the arc sequence of a shortest
    source-sink path with the fewest arcs among the shortest, or None when
    the sink is unreachable.
    """
    size = graph.node_count()
    dist: list[Optional[Fraction]] = [None] * size
    hops: list[int] = [0] * size
    parent: list[Optional[AuxArc]] = [None] * size
    done = [False] * size
    dist[graph.source] = Fraction(0)
    heap: list[tuple[Fraction, int, int]] = [(Fraction(0), 0, graph.source)]
    while heap:
        d, h, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for arc in graph.adjacency[node]:
            nd = d + arc.length
            nh = h + 1
            old = dist[arc.head]
            if old is None or (nd, nh) < (old, hops[arc.head]):
                dist[arc.head] = nd
                hops[arc.head] = nh
                parent[arc.head] = arc
                heapq.heappush(heap, (nd, nh, arc.head))
    if dist[graph.sink] is None:
        return dist, parent, None
    path: list[AuxArc] = []
    node = graph.sink
    while node != graph.source:
        arc = parent[node]
        assert arc is not None
        path.append(arc)
        node = arc.tail
    path.reverse()
    return dist, parent, path


def _arc_shortest_path(
        graph: _ArcDigraph,
) -> tuple[list[Optional[int]], list[Optional[AuxArc]],
           Optional[list[AuxArc]]]:
    """Verbatim copy of the integer search over `AuxArc` lists that the
    row-based `shortest_path_with_hop_tiebreak` replaced."""
    adjacency = graph.adjacency
    size = graph.node_count()
    dist: list[Optional[int]] = [None] * size
    hops: list[int] = [0] * size
    parent: list[Optional[AuxArc]] = [None] * size
    done = [False] * size
    dist[graph.source] = 0
    heap: list[tuple[int, int, int]] = [(0, 0, graph.source)]
    while heap:
        d, h, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        nh = h + 1
        for arc in adjacency[node]:
            nd = d + arc.units
            head = arc.head
            old = dist[head]
            if old is None or nd < old or (nd == old and nh < hops[head]):
                dist[head] = nd
                hops[head] = nh
                parent[head] = arc
                heapq.heappush(heap, (nd, nh, head))
    if dist[graph.sink] is None:
        return dist, parent, None
    path: list[AuxArc] = []
    node = graph.sink
    while node != graph.source:
        arc = parent[node]
        assert arc is not None
        path.append(arc)
        node = arc.tail
    path.reverse()
    return dist, parent, path


def _arc_exchange_lengths(x1, x2, p1, p2, scale, omega1, omega2):
    """Verbatim copy of the integer exchange loop that yielded one arc at
    a time, as (kind, u, v, length), before the rows."""
    base1 = omega1.raw_value(x1)
    base2 = omega2.raw_value(x2)
    if base1 is None or base2 is None:
        raise InternalInvariantError("current sets left the effective domains")
    factor1 = scale // omega1.scale
    factor2 = scale // omega2.scale
    elements = omega1.ground.elements()
    members1 = x1.members()
    outside1 = [v for v in elements if not x1.mask >> v & 1]
    block1 = omega1.raw_exchanges(x1, members1, outside1)
    width = len(outside1)
    for i, u in enumerate(members1):
        pu = p1[u]
        for v, moved in zip(outside1, block1[i * width:(i + 1) * width]):
            if moved is not None:
                length = (moved - base1) * factor1 - p1[v] + pu
                if length < 0:
                    raise _arc_negative_length(length, scale, ARC_EXCHANGE_1)
                yield ARC_EXCHANGE_1, u, v, length
    members2 = x2.members()
    outside2 = [v for v in elements if not x2.mask >> v & 1]
    block2 = omega2.raw_exchanges(x2, members2, outside2)
    width = len(outside2)
    for j, v in enumerate(outside2):
        pv = p2[v]
        for u, moved in zip(members2, block2[j::width]):
            if moved is not None:
                length = (moved - base2) * factor2 + pv - p2[u]
                if length < 0:
                    raise _arc_negative_length(length, scale, ARC_EXCHANGE_2)
                yield ARC_EXCHANGE_2, u, v, length


def _arc_negative_length(length, scale, kind):
    return InternalInvariantError(
        f"negative arc length {Fraction(length, scale)} on {kind} arc; "
        "current sets are not minimizers of the shifted valuations")


def _arc_build_aux_digraph(x1, x2, p1, p2, matched, omega1, omega2, scale):
    """Verbatim copy of the aux build that made one `AuxArc` per arc."""
    ground = omega1.ground
    n = ground.size
    graph = _ArcDigraph(n, [[] for _ in range(2 * n + 2)], scale)
    node_v1, node_v2 = graph.node_v1, graph.node_v2

    def add(tail: int, head: int, length: int, kind: str,
            element_out: int, element_in: int) -> None:
        graph.adjacency[tail].append(AuxArc(tail, head, length, kind,
                                            element_out, element_in, scale))

    for v in ground.elements():
        if x1.contains(v) and not x2.contains(v):
            add(graph.source, node_v1(v), 0, ARC_SOURCE, -1, v)
    for v in ground.elements():
        add(node_v1(v), node_v2(v), 0, ARC_EDGE, -1, v)
    for v in matched.members():
        add(node_v2(v), node_v1(v), 0, ARC_MATCHED, -1, v)
    for kind, u, v, length in _arc_exchange_lengths(x1, x2, p1, p2, scale,
                                                    omega1, omega2):
        if kind == ARC_EXCHANGE_1:
            add(node_v1(u), node_v1(v), length, kind, u, v)
        else:
            add(node_v2(v), node_v2(u), length, kind, u, v)
    for v in ground.elements():
        if x2.contains(v) and not x1.contains(v):
            add(node_v2(v), graph.sink, 0, ARC_SINK, -1, v)
    return graph


def _position(graph: _ArcDigraph, arc: Optional[AuxArc]):
    """An arc of an arc graph as (tail, its position in the tail's list)."""
    if arc is None:
        return None
    row = graph.adjacency[arc.tail]
    return arc.tail, next(i for i, other in enumerate(row) if other is arc)


def _fields(arc: AuxArc):
    return (arc.tail, arc.head, arc.units, arc.kind, arc.element_out,
            arc.element_in, arc.scale)


_LENGTHS = st.builds(Fraction, st.integers(0, 6),
                     st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def _aux_graphs(draw):
    """Digraphs on 2n + 2 nodes with nonnegative mixed-denominator lengths,
    stored as ints in units of 1/S for the lcm S of their denominators,
    as rows and, with the same arcs in the same order, as an arc graph.

    Small lengths give many zero-length and equal-length ties; an arc may
    come with an equal-length two-arc detour, and the sink may be cut off.
    """
    n = draw(st.integers(1, 4))
    sink = 2 * n + 1
    cut_sink = draw(st.booleans())
    nodes = st.integers(0, sink).filter(
        lambda v: not (cut_sink and v == sink))
    arcs = []
    for _ in range(draw(st.integers(0, 8 * n + 8))):
        tail, head, length = draw(nodes), draw(nodes), draw(_LENGTHS)
        arcs.append((tail, head, length))
        if draw(st.booleans()):
            middle = draw(nodes)
            first = length * draw(st.sampled_from(
                [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
            arcs.append((tail, middle, first))
            arcs.append((middle, head, length - first))
    scale = math.lcm(*(length.denominator for _, _, length in arcs))
    rows = AuxDigraph(n, [[] for _ in range(2 * n + 2)], scale)
    graph = _ArcDigraph(n, [[] for _ in range(2 * n + 2)], scale)
    for tail, head, length in arcs:
        rows.adjacency[tail].append((head, int(length * scale)))
        graph.adjacency[tail].append(AuxArc(
            tail, head, int(length * scale), ARC_EDGE, scale=scale))
    return rows, graph


class TestIntegerDijkstra:
    @settings(max_examples=300)
    @given(_aux_graphs())
    def test_matches_fraction_search(self, graphs):
        rows, graph = graphs
        dist, parent, path = shortest_path_with_hop_tiebreak(rows)
        ref_dist, ref_parent, ref_path = _fraction_shortest_path(graph)
        assert [None if d is None else Fraction(d, graph.scale)
                for d in dist] == ref_dist
        assert all(d is None or type(d) is int for d in dist)
        assert parent == [-1 if arc is None else arc.tail
                          for arc in ref_parent]
        if ref_path is None:
            assert path is None
        else:
            assert path == [(a.tail, a.head) for a in ref_path]
            # The reference's path arcs, each read from the rows at its
            # (tail, position).
            assert [_fields(a) for a in _path_arcs(rows, dist, path)] == [
                _fields(_arc(rows, *_position(graph, a))) for a in ref_path]


def _dispatch_by_kind(x1, x2, matched, path: list[AuxArc]):
    """Verbatim copy of the kind dispatch `augment_step` applied to its
    path arcs before `apply_path`."""
    for arc in path:
        if arc.kind == ARC_EXCHANGE_1:
            x1 = x1.exchange(arc.element_out, arc.element_in)
        elif arc.kind == ARC_EXCHANGE_2:
            x2 = x2.exchange(arc.element_out, arc.element_in)
        elif arc.kind == ARC_EDGE:
            matched = matched.add(arc.element_in)
        elif arc.kind == ARC_MATCHED:
            matched = matched.remove(arc.element_in)
    return x1, x2, matched


class TestApplyPath:
    @settings(max_examples=300)
    @given(_aux_graphs(), st.lists(st.integers(0, 2 ** 4 - 1), min_size=3,
                                   max_size=3))
    def test_matches_kind_dispatch(self, graphs, masks):
        # The drawn graphs join any two nodes, so paths carry every kind.
        rows, _ = graphs
        dist, _, path = shortest_path_with_hop_tiebreak(rows)
        if path is None:
            return
        ground = GroundSet(rows.n)
        x1, x2, matched = (ground.subset([v for v in range(rows.n)
                                          if mask >> v & 1])
                           for mask in masks)
        assert apply_path(x1, x2, matched, path, rows.n) == \
            _dispatch_by_kind(x1, x2, matched, _path_arcs(rows, dist, path))

    @pytest.mark.parametrize("arc, expected", [
        ((0, 1), ([0], [1], [1])),      # s -> a1
        ((1, 3), ([2], [1], [1])),      # a1 -> c1: X1 - a + c
        ((3, 6), ([0], [1], [1, 2])),   # c1 -> c2: match c
        ((6, 5), ([0], [2], [1])),      # c2 -> b2: X2 - b + c
        ((5, 2), ([0], [1], [])),       # b2 -> b1: unmatch b
        ((5, 7), ([0], [1], [1])),      # b2 -> t
    ], ids=["source", "A1", "edge", "A2", "matched", "sink"])
    def test_each_arc_kind(self, g3, arc, expected):
        # Nodes s = 0, a1 b1 c1 = 1 2 3, a2 b2 c2 = 4 5 6, t = 7.
        x1, x2, matched = g3.subset([0]), g3.subset([1]), g3.subset([1])
        assert apply_path(x1, x2, matched, [arc], 3) \
            == tuple(g3.subset(members) for members in expected)


class TestAugmentStep:
    def test_derived_asymmetric_instance(self, g3):
        omega1, omega2 = _modular_pair(g3)
        x1 = g3.subset([0, 1])
        x2 = g3.subset([1, 2])
        state = ViapState(omega1, omega2, x1, x2, ZEROS3,
                          x1.intersection(x2))
        new = augment_step(state)
        assert new.level == 2
        assert new.value == ExtValue(9)

    def test_zero_distance_keeps_potentials(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 2), [0, 0, 0])
        omega2 = from_matroid_and_weights(make_uniform(g3, 2), [0, 0, 0])
        x1 = g3.subset([0, 1])
        x2 = g3.subset([1, 2])
        state = ViapState(omega1, omega2, x1, x2, ZEROS3,
                          x1.intersection(x2))
        new = augment_step(state)
        assert new.p == ZEROS3

    def test_copy_distances_that_part_raise(self, g3, monkeypatch):
        """The potential grows by the capped distances of copy 1, which
        must equal those of copy 2: a search whose copy-2 distance of one
        element parts from its copy-1 distance makes the step raise."""
        real = viap.shortest_path_with_hop_tiebreak

        def parted(graph):
            dist, parent, path = real(graph)
            dist = list(dist)
            dist[graph.node_v2(0)] = -1
            return dist, parent, path

        monkeypatch.setattr(viap, "shortest_path_with_hop_tiebreak", parted)
        omega1, omega2 = _modular_pair(g3)
        x1 = g3.subset([0, 1])
        x2 = g3.subset([1, 2])
        state = ViapState(omega1, omega2, x1, x2, ZEROS3,
                          x1.intersection(x2))
        with pytest.raises(InternalInvariantError,
                           match="potentials on the two copies disagree"):
            augment_step(state)

    def test_returns_none_when_stuck(self, g3):
        omega1 = valuation_from_explicit(g3, 1, {0b001: 0})
        omega2 = valuation_from_explicit(g3, 1, {0b010: 0})
        x1, x2 = g3.subset([0]), g3.subset([1])
        state = ViapState(omega1, omega2, x1, x2, ZEROS3,
                          g3.empty())
        assert augment_step(state) is None


class TestSolvers:
    def test_geq_examples(self, g3):
        omega1, omega2 = _modular_pair(g3)
        low = solve_v_geq_k(omega1, omega2, 1)
        assert low.optimal and low.value == ExtValue(6)
        high = solve_v_geq_k(omega1, omega2, 2)
        assert high.optimal and high.value == ExtValue(9)

    def test_geq_infeasible_disjoint_supports(self, g3):
        omega1 = valuation_from_explicit(g3, 1, {0b001: 0})
        omega2 = valuation_from_explicit(g3, 1, {0b010: 0})
        out = solve_v_geq_k(omega1, omega2, 1)
        assert out.status == "infeasible"
        assert out.last_feasible is not None
        assert out.last_feasible.value == ExtValue(0)

    def test_eq_examples(self, g3):
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [1, 2, 4])
        mid = solve_v_eq_k(omega1, omega2, 1)
        assert mid.optimal and mid.value == ExtValue(8)
        assert mid.mode == "eq-dual"
        zero = solve_v_eq_k(omega1, omega2, 0)
        assert zero.status == "infeasible"
        full = solve_v_eq_k(omega1, omega2, 2)
        assert full.optimal and full.value == ExtValue(6)

    def test_eq_at_rank_forces_equality(self, g3):
        omega1, _ = _modular_pair(g3)
        omega2 = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
        out = solve_v_eq_k(omega1, omega2, 2)
        assert out.optimal
        assert out.x1 == out.x2

    def test_monotone_in_k(self):
        rng = random.Random(83)
        for _ in range(20):
            ground = random_ground(rng, 2, 7)
            omega1, _, _ = random_modular_valuation(rng, ground)
            omega2, _, _ = random_modular_valuation(rng, ground)
            previous = None
            for k in range(0, min(omega1.rank, omega2.rank) + 1):
                out = solve_v_geq_k(omega1, omega2, k)
                if not out.optimal:
                    break
                if previous is not None:
                    assert not out.value < previous
                previous = out.value


class TestWitness:
    def test_constant_potentials_accept(self, g3):
        omega1, omega2 = _modular_pair(g3)
        x1 = g3.subset([0, 1])
        x2 = g3.subset([1, 2])
        witness = Witness(ZEROS3, ZEROS3, g3.subset([1]), 1)
        assert verify_witness(x1, x2, witness, 1, omega1, omega2)
        assert verify_witness_exhaustive(x1, x2, witness, 1, omega1, omega2)

    def test_perturbed_potential_rejected(self, g3):
        omega1, omega2 = _modular_pair(g3)
        x1 = g3.subset([0, 1])
        x2 = g3.subset([1, 2])
        p1 = (Fraction(0), Fraction(1, 3), Fraction(0))
        witness = Witness(p1, ZEROS3, g3.subset([1]), 1)
        assert not verify_witness(x1, x2, witness, 1, omega1, omega2)

    def test_solver_witness_verifies_exhaustively(self, g3):
        omega1, omega2 = _modular_pair(g3)
        out = solve_v_geq_k(omega1, omega2, 2)
        assert verify_solution_exhaustive(out, omega1, omega2)

    def test_solution_must_sit_at_its_level(self, g3):
        # (ab, ab) is the >= 1 optimum of this pair: it meets in 2
        # elements, not exactly 1, and its witness certifies level 1.
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [1, 2, 4])
        out = solve_v_geq_k(omega1, omega2, 1)
        assert verify_solution(out, omega1, omega2)
        assert not verify_solution(replace(out, mode="eq-direct"),
                                   omega1, omega2)
        assert not verify_solution(replace(out, k=0), omega1, omega2)

    def test_non_minimizer_rejected(self, g3):
        omega1, omega2 = _modular_pair(g3)
        witness = Witness(ZEROS3, ZEROS3, g3.subset([1]), 1)
        x_bad = g3.subset([1, 2])  # not a minimizer of omega1
        assert not verify_witness(x_bad, x_bad, witness, 1, omega1, omega2)

    @pytest.mark.parametrize("solve, mode", [
        (lambda o1, o2: solve_v_geq_k(o1, o2, 2), "geq"),
        (lambda o1, o2: solve_v_eq_k(o1, o2, 0), "eq-dual"),
        (lambda o1, o2: vmi.solve_v_leq_k(o1, o2, 0), "leq"),
    ], ids=["geq", "eq-dual", "leq"])
    def test_potentials_of_the_wrong_length_rejected(self, solve, mode):
        omega1, omega2 = _pair4()
        out = solve(omega1, omega2)
        assert out.mode == mode and verify_solution(out, omega1, omega2)
        p1, p2 = out.witness.p1, out.witness.p2
        for cut in ((p1[:1], p2[:1]), (p1 + (Fraction(0),),
                                       p2 + (Fraction(0),))):
            bad = replace(out, witness=replace(out.witness, p1=cut[0],
                                               p2=cut[1]))
            assert not verify_solution(bad, omega1, omega2)
            if mode == "geq":
                assert not verify_witness(out.x1, out.x2, bad.witness, 2,
                                          omega1, omega2)

    def test_builds_no_arcs(self, g3, monkeypatch):
        def no_arcs(*args, **kwargs):
            raise AssertionError("verify_witness built an aux digraph")

        monkeypatch.setattr(viap, "AuxDigraph", no_arcs)
        omega1, omega2 = _modular_pair(g3)
        witness = Witness(ZEROS3, ZEROS3, g3.subset([1]), 1)
        assert verify_witness(g3.subset([0, 1]), g3.subset([1, 2]), witness,
                              1, omega1, omega2)
        x_bad = g3.subset([1, 2])
        assert not verify_witness(x_bad, x_bad, witness, 1, omega1, omega2)


def _is_shifted_minimizer(omega, x, potential, sign) -> bool:
    """Local (hence global) minimality of omega + sign*potential at x.

    The exchange check `verify_witness` made before it went through the
    aux build, kept verbatim as the reference for it.
    """
    base = omega.value(x)
    if not base.is_finite:
        return False
    pot_x = sum(potential[v] for v in x.members())
    shifted_base = base.finite + sign * pot_x
    for u in x.members():
        for v in omega.ground.elements():
            if x.contains(v):
                continue
            moved = omega.value(x.exchange(u, v))
            if not moved.is_finite:
                continue
            shifted = moved.finite + sign * (pot_x - potential[u] + potential[v])
            if shifted < shifted_base:
                return False
    return True


def _reference_verify(x1, x2, witness, k, omega1, omega2) -> bool:
    p1, p2, matched = witness.p1, witness.p2, witness.matched
    if tuple(p1) != tuple(p2):
        return False
    if matched.cardinality() != k:
        return False
    if not matched.is_subset_of(x1.intersection(x2)):
        return False
    if not _is_shifted_minimizer(omega1, x1, p1, -1):
        return False
    if not _is_shifted_minimizer(omega2, x2, p2, +1):
        return False
    return (all(p1[v] == min(p1) for v in x1.minus(matched).members())
            and all(p2[v] == max(p2) for v in x2.minus(matched).members()))


def _random_subset(rng, ground, size=None):
    if size is None:
        size = rng.randint(0, ground.size)
    return ground.subset(rng.sample(range(ground.size), min(size, ground.size)))


class TestWitnessAgainstExchangeReference:
    """`verify_witness` (through the aux build) agrees with the exchange
    check on solver witnesses, perturbed ones, non-minimizers, and sets
    outside the domains."""

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["solved", "perturbed", "rank_sized", "any_size"]))
    def test_agrees_with_reference(self, seed, kind):
        rng = random.Random(seed)
        ground = random_ground(rng, 2, 6)
        omega1, _, _ = random_modular_valuation(rng, ground)
        omega2, _, _ = random_modular_valuation(rng, ground)
        if kind in ("solved", "perturbed"):
            out = solve_v_geq_k(omega1, omega2,
                                rng.randint(0, min(omega1.rank, omega2.rank)))
            if not out.optimal:
                return
            x1, x2, witness = out.x1, out.x2, out.witness
            if kind == "perturbed":
                v = rng.randrange(ground.size)
                delta = rng.choice([Fraction(-1), Fraction(1, 2), Fraction(2)])
                p = tuple(pv + delta if i == v else pv
                          for i, pv in enumerate(witness.p1))
                witness = Witness(p, p, witness.matched, witness.k)
        else:
            sizes = ((omega1.rank, omega2.rank) if kind == "rank_sized"
                     else (None, None))
            x1 = _random_subset(rng, ground, sizes[0])
            x2 = _random_subset(rng, ground, sizes[1])
            p = tuple(rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
                      for _ in range(ground.size))
            inter = list(x1.intersection(x2).members())
            matched = ground.subset(rng.sample(inter, rng.randint(0, len(inter))))
            witness = Witness(p, p, matched, matched.cardinality())
        assert verify_witness(x1, x2, witness, witness.k, omega1, omega2) \
            == _reference_verify(x1, x2, witness, witness.k, omega1, omega2)


class TestLadderCertificate:
    def test_verified_once_per_ladder(self, monkeypatch):
        """Besides the aux builds, the ladder asks for exchange rows once,
        at the top entry, unless no step was taken or the sink was
        unreachable."""
        calls = []
        real_lengths, real_build = viap._exchange_lengths, \
            viap.build_aux_digraph

        def lengths(*args):
            calls.append(args[:3])
            return real_lengths(*args)

        def build(*args, **kwargs):
            calls.append("aux")
            return real_build(*args, **kwargs)

        monkeypatch.setattr(viap, "_exchange_lengths", lengths)
        monkeypatch.setattr(viap, "build_aux_digraph", build)
        rng = random.Random(83)
        deep = 0
        for _ in range(20):
            ground = random_ground(rng, 4, 8)
            omega1, _, _ = random_modular_valuation(rng, ground)
            omega2, _, _ = random_modular_valuation(rng, ground)
            calls.clear()
            ladder = run_ladder(omega1, omega2,
                                min(omega1.rank, omega2.rank))
            checks = [call for before, call in zip([None] + calls, calls)
                      if "aux" not in (before, call)]
            steps = len(ladder.entries) - 1
            if steps and not ladder.infeasible_beyond:
                top = ladder.entries[-1]
                assert checks == [(top.x1, top.x2, top.p)]
                deep += steps > 1
            else:
                assert checks == []
        assert deep > 0

    def test_top_level_failure_raises(self, g3, monkeypatch):
        omega1, omega2 = _modular_pair(g3)
        entries = run_ladder(omega1, omega2, 2).entries
        assert len(entries) == 2
        top = entries[-1]
        real = viap._exchange_lengths

        def failing(x1, x2, p, *rest):
            if (x1, x2, p) == (top.x1, top.x2, top.p):
                raise InternalInvariantError("planted")
            return real(x1, x2, p, *rest)

        monkeypatch.setattr(viap, "_exchange_lengths", failing)
        with pytest.raises(InternalInvariantError,
                           match="optimality witness failed at the top level"):
            run_ladder(omega1, omega2, 2)

    @pytest.mark.parametrize("solve, mode", [
        (lambda o1, o2: solve_v_geq_k(o1, o2, 2), "geq"),
        (lambda o1, o2: solve_v_eq_k(o1, o2, 2), "eq-direct"),
        (lambda o1, o2: solve_v_eq_k(o1, o2, 0), "eq-dual"),
        (lambda o1, o2: vmi.solve_vmi(o1, o2), "geq"),
        (lambda o1, o2: vmi.solve_v_In([o1, o2],
                                       make_uniform(o1.ground, 1)), None),
        (lambda o1, o2: vmi.solve_v_leq_k(o1, o2, 0), "leq"),
        (lambda o1, o2: vmi.solve_v_n_w([o1, o2], [1, 1, 1, 1]), None),
        (lambda o1, o2: vmi.solve_sum_valuated_plus_laminar(
            [o1, o2], LaminarSpec(o1.ground, tuple(
                o1.ground.subset([v]) for v in range(4)), (ConvexTable(
                    0, (Fraction(0), Fraction(1), Fraction(4))),) * 4)),
         None),
        (lambda o1, o2: vmi.solve_v_geq_k_via_dual(o1, o2, 2), "geq"),
        (lambda o1, o2: apps.solve_v_c(o1, o2, [0] * 5), None),
        (lambda o1, o2: apps.solve_recoverable_robust_interval(
            o1, apps.IntervalUncertainty.of([0] * 4, [8, 2, 1, 4]), 2),
         "geq"),
    ], ids=["v_geq_k", "v_eq_k-direct", "v_eq_k-dual", "vmi", "v_In",
            "v_leq_k", "v_n_w", "laminar", "v_geq_k_via_dual", "v_c",
            "recoverable_robust"])
    def test_no_public_solver_skips_the_checks(self, solve, mode,
                                               monkeypatch):
        """Every entry point that runs a ladder checks the structural
        invariants once per augmentation and the top level once: a fault
        planted in the `_exchange_lengths` call made outside
        `build_aux_digraph` raises."""
        inside_build, steps, checks = [0], [0], [0]
        real_build, real_step = viap.build_aux_digraph, viap.augment_step
        real_lengths, real_check = viap._exchange_lengths, viap._check_state
        planted = [False]

        def build(*args):
            inside_build[0] += 1
            try:
                return real_build(*args)
            finally:
                inside_build[0] -= 1

        def lengths(*args):
            if planted[0] and not inside_build[0]:
                raise InternalInvariantError("planted")
            return real_lengths(*args)

        def step(state):
            new = real_step(state)
            steps[0] += new is not None
            return new

        def check(*args, **kwargs):
            checks[0] += 1
            return real_check(*args, **kwargs)

        for attr, fn in (("build_aux_digraph", build),
                         ("_exchange_lengths", lengths),
                         ("augment_step", step), ("_check_state", check)):
            monkeypatch.setattr(viap, attr, fn)
        out = solve(*_pair4())
        assert out.optimal and (mode is None or out.mode == mode)
        assert steps[0] > 0 and checks[0] == steps[0]
        planted[0] = True
        steps[0] = checks[0] = 0
        with pytest.raises(InternalInvariantError,
                           match="optimality witness failed at the top level"):
            solve(*_pair4())
        assert steps[0] > 0 and checks[0] == steps[0]

    # Both tables fail the exchange axiom; they were found by a seeded
    # search (random.Random(2024), values in -3..3 on the 2-subsets of a
    # 4-set, omega_2 a valuated matroid) among cases where re-verifying
    # the certificate after every augmentation raised.  The first now
    # fails the top-level check, the second the next aux build.
    @pytest.mark.parametrize("table1, table2", [
        ({3: 3, 5: 1, 9: 3, 6: 2, 10: 0, 12: 1},
         {3: -3, 5: -1, 9: 3, 6: 2, 10: 1, 12: 3}),
        ({3: -1, 5: -1, 9: 0, 6: 1, 10: -2, 12: 0},
         {3: -2, 5: -3, 9: -1, 6: 2, 10: 3, 12: 2}),
    ], ids=["top-level", "aux-build"])
    def test_non_valuated_oracle_raises(self, table1, table2):
        g4 = GroundSet(4)

        def explicit(table):
            return valuation_from_explicit(
                g4, 2, {mask: Fraction(v) for mask, v in table.items()})

        assert not check_valuated_exchange(explicit(table1))
        assert check_valuated_exchange(explicit(table2))
        with pytest.raises(InternalInvariantError):
            run_ladder(explicit(table1), explicit(table2), 2)


class TestAgainstBruteForce:
    def test_random_instances(self):
        rng = random.Random(8662)
        for _ in range(40):
            ground = random_ground(rng, 2, 7)
            omega1, _, _ = random_modular_valuation(rng, ground)
            omega2, _, _ = random_modular_valuation(rng, ground)
            for k in range(0, min(omega1.rank, omega2.rank) + 2):
                fast = solve_v_geq_k(omega1, omega2, k)
                slow = brute_v_geq_k(omega1, omega2, k)
                assert fast.status == slow.status
                if fast.optimal:
                    assert fast.value == slow.value
                    assert verify_solution(fast, omega1, omega2)
                fast_eq = solve_v_eq_k(omega1, omega2, k)
                slow_eq = brute_v_eq_k(omega1, omega2, k)
                assert fast_eq.status == slow_eq.status
                if fast_eq.optimal:
                    assert fast_eq.value == slow_eq.value
                    assert verify_solution(fast_eq, omega1, omega2)


PIN_KINDS = MATROID_KINDS + ("explicit",)


def _pinned_makers(seed):
    """Two oracle makers on one random ground set, and a level k.

    Each side is a modular valuation on a uniform, partition, graphic or
    linear matroid, or the same valuation given as an explicit table;
    weights have denominators 1 to 12.
    """
    rng = random.Random(seed)
    ground = random_ground(rng, 2, 7)
    makers, ranks = [], []
    for _ in range(2):
        kind = rng.choice(PIN_KINDS)
        matroid = random_matroid(
            rng, ground, kinds=MATROID_KINDS if kind == "explicit" else (kind,))
        weights = tuple(random_rational(rng, denominators=range(1, 13))
                        for _ in ground.elements())
        if kind == "explicit":
            table = {x.mask: dot(weights, x)
                     for x in ground.subsets_of_size(matroid.rank)
                     if matroid.is_independent(x)}
            makers.append(lambda g=ground, r=matroid.rank, t=table:
                            valuation_from_explicit(g, r, t))
        else:
            makers.append(lambda m=matroid, w=weights:
                            from_matroid_and_weights(m, w))
        ranks.append(matroid.rank)
    return makers, rng.randint(0, min(ranks) + 1)


def _solution_text(solution) -> str:
    """Every output of a solve: status, sets, value, mode, level, oracle
    calls, the witness with its potentials as strings, and the same for
    the last feasible level of an infeasible outcome."""
    if solution is None:
        return "None"

    def mask(subset):
        return None if subset is None else subset.mask

    witness = solution.witness
    if witness is not None:
        witness = ([str(p) for p in witness.p1], [str(p) for p in witness.p2],
                   witness.matched.mask, witness.k)
    return repr((solution.status, mask(solution.x1), mask(solution.x2),
                 str(solution.value), solution.mode, solution.k,
                 solution.oracle_calls, witness,
                 _solution_text(solution.last_feasible)))


class TestPinnedLadderOutputs:
    # sha256 of the outputs below, computed with the rational ladder that
    # preceded the integer one (exact Fraction potentials and lengths).
    DIGEST = "8e2f0ae6804fd78ecc2e9aba75b45e8170d8d5e182b1b2b83ccb6f4d3884f7d1"

    def test_outputs_are_pinned(self):
        digest = hashlib.sha256()
        for seed in range(200):
            (make1, make2), k = _pinned_makers(seed)
            for solve in (solve_v_geq_k, solve_v_eq_k):
                digest.update(_solution_text(solve(make1(), make2(), k))
                              .encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestLeafSolves:
    """A solve at k = rank on leaves, which keep no memo, has every output
    of the same solve on value-only twins, which memoize, down to the
    oracle calls."""

    @pytest.mark.parametrize("kind", ["uniform", "graphic"])
    def test_same_outputs_as_value_only_twins(self, kind):
        rng = random.Random(40)
        n = 40
        if kind == "uniform":
            matroid = make_uniform(GroundSet(n), n // 2)
        else:
            # A path through 21 vertices and 20 random chords.
            edges = [(i, i + 1) for i in range(20)]
            edges += [tuple(rng.sample(range(21), 2)) for _ in range(20)]
            matroid = make_graphic(21, edges)
        leaves = [from_matroid_and_weights(matroid, tuple(
            random_rational(rng, denominators=range(1, 13))
            for _ in range(n))) for _ in range(2)]
        twins = [ValuationOracle(leaf.ground, leaf.rank, leaf._value_fn,
                                 leaf.witness_base, scale=leaf.scale)
                 for leaf in leaves]
        ours = solve_v_geq_k(*leaves, matroid.rank)
        theirs = solve_v_geq_k(*twins, matroid.rank)
        assert ours.optimal and ours.witness is not None
        assert _solution_text(ours) == _solution_text(theirs)
        for leaf in leaves:
            assert leaf._memo == {}
            assert leaf.evals == leaf.calls > 0


def _fraction_exchange_lengths(x1, x2, p1, p2, omega1, omega2):
    """The exchange arcs of the auxiliary digraph, as (kind, u, v, length).

    Verbatim copy of the rational loop that the integer `_exchange_lengths`
    replaced, kept as its reference.

    A1 arcs come first, by u in X1 then v outside X1, and then A2 arcs, by
    v outside X2 then u in X2; each length is the reduced-cost change of
    its single exchange.  This loop is the one place that rejects a
    negative reduced cost: it raises as soon as it meets one, and when
    the current sets leave the effective domains.
    """
    base1 = omega1.value(x1)
    base2 = omega2.value(x2)
    if not (base1.is_finite and base2.is_finite):
        raise InternalInvariantError("current sets left the effective domains")
    ground = omega1.ground
    for u in x1.members():
        for v in ground.elements():
            if x1.contains(v):
                continue
            moved = omega1.value(x1.exchange(u, v))
            if moved.is_finite:
                length = (moved.finite - base1.finite) - p1[v] + p1[u]
                _check_length(length, ARC_EXCHANGE_1)
                yield ARC_EXCHANGE_1, u, v, length
    for v in ground.elements():
        if x2.contains(v):
            continue
        for u in x2.members():
            moved = omega2.value(x2.exchange(u, v))
            if moved.is_finite:
                length = (moved.finite - base2.finite) + p2[v] - p2[u]
                _check_length(length, ARC_EXCHANGE_2)
                yield ARC_EXCHANGE_2, u, v, length


def _check_length(length: Fraction, kind: str) -> None:
    if length < 0:
        raise InternalInvariantError(
            f"negative arc length {length} on {kind} arc; "
            "current sets are not minimizers of the shifted valuations")


def _unit_exchange_lengths(x1, x2, p, omega1, omega2):
    """The integer rows on a rational potential, yielded as the loop's
    arcs: (kind, u, v, length) with the length as a Fraction, A1 arcs by
    u and then A2 arcs by v.  The rows raise before any arc is yielded."""
    q, scale = viap.in_units(omega1, omega2, p)
    rows1, rows2 = viap._exchange_lengths(x1, x2, q, scale, omega1, omega2)
    n = omega1.ground.size
    arcs = [(ARC_EXCHANGE_1, u, head - 1, length)
            for u, row in enumerate(rows1) for head, length in row]
    arcs += [(ARC_EXCHANGE_2, head - 1 - n, v, length)
             for v, row in enumerate(rows2) for head, length in row]
    assert all(type(length) is int for *_, length in arcs)
    for kind, u, v, length in arcs:
        yield kind, u, v, Fraction(length, scale)


def _drain(arcs):
    """The arcs a loop yields, and the message it raises with, if any."""
    out = []
    try:
        for arc in arcs:
            out.append(arc)
    except InternalInvariantError as exc:
        return out, str(exc)
    return out, None


DENOMINATORS = range(1, 13)
EXCHANGE_KINDS = (ARC_EXCHANGE_1, ARC_EXCHANGE_2)


class TestDualAgainstMemoizedReference:
    """The dual is a leaf that passes every block to its base as one
    batch; `references.dual_valuation_memoized` is the dual as it was,
    with a memo of its own over its base's.  Over random modular pairs on
    every kind of base (the linear and explicit ones memoize, the others
    are leaves), both give the same blocks, and `solve_v_eq_k` run on
    either gives the same solution, down to its `oracle_calls`."""

    KINDS = MATROID_KINDS + ("explicit",)

    @staticmethod
    def _modular(rng, ground, kind):
        if kind == "explicit":
            matroid = from_explicit_bases(ExplicitBaseFamily.of(
                ground, enumerate_bases(random_matroid(rng, ground))))
        else:
            matroid = random_matroid(rng, ground, kinds=(kind,))
        weights = tuple(random_rational(rng, denominators=DENOMINATORS)
                        for _ in ground.elements())
        return lambda: from_matroid_and_weights(matroid, weights)

    def test_solve_v_eq_k_matches_the_reference_dual(self, monkeypatch):
        rng = random.Random(3303)
        dualized = set()
        for _ in range(120):
            ground = random_ground(rng, 2, 7)
            kinds = rng.choice(self.KINDS), rng.choice(self.KINDS)
            make1, make2 = (self._modular(rng, ground, kind)
                            for kind in kinds)
            k = rng.randint(0, make1().rank)
            ours = solve_v_eq_k(make1(), make2(), k)
            with monkeypatch.context() as patched:
                patched.setattr(viap, "dual_valuation",
                                dual_valuation_memoized)
                theirs = solve_v_eq_k(make1(), make2(), k)
            assert ours == theirs, (kinds, k)
            if ours.mode == "eq-dual":
                dualized.add(kinds[1])
        assert dualized == set(self.KINDS)

    def test_blocks_match_the_reference_dual(self):
        rng = random.Random(3304)
        blocks = 0
        for _ in range(80):
            ground = random_ground(rng, 1, 7)
            make = self._modular(rng, ground, rng.choice(self.KINDS))
            ours = dual_valuation(make())
            theirs = dual_valuation_memoized(make())
            for _ in range(6):
                x = ground.subset(rng.sample(range(ground.size), ours.rank))
                inside = [u for u in x.members() if rng.random() < 0.7]
                outside = [v for v in ground.elements()
                           if not x.contains(v) and rng.random() < 0.7]
                rng.shuffle(outside)
                assert ours.raw_exchanges(x, inside, outside) == \
                    theirs.raw_exchanges(x, inside, outside)
                assert ours.best_exchange(x, inside, outside) == \
                    theirs.best_exchange(x, inside, outside)
                blocks += bool(inside and outside)
            assert ours.calls == ours.evals == theirs.calls
            assert ours._memo == {}
        assert blocks > 100


def _differential_side(rng, ground, kind):
    """A maker of one side: a modular valuation with mixed denominators,
    the same values as an explicit table, the dual of the first, or
    ("size") the same weights on every set of the matroid's rank."""
    matroid = random_matroid(rng, ground)
    weights = tuple(random_rational(rng, denominators=DENOMINATORS)
                    for _ in ground.elements())
    if kind == "size":
        return lambda: size_constrained_modular(ground, weights,
                                                matroid.rank)
    if kind == "explicit":
        table = {x.mask: dot(weights, x)
                 for x in ground.subsets_of_size(matroid.rank)
                 if matroid.is_independent(x)}
        return lambda: valuation_from_explicit(ground, matroid.rank, table)
    omega = (lambda: from_matroid_and_weights(matroid, weights))
    if kind == "dual":
        return lambda: dual_valuation(omega())
    return omega


def _ask_reached_blocks(x1, x2, message, omega1, omega2):
    """Ask pair by pair, in the reference loop's order, what the block
    scan asks before it raises `message`: the values of X1 and X2, then
    every pair of each copy's block it reached (X1's once a length is
    checked, X2's too once an A2 length is)."""
    omega1.raw_value(x1)
    omega2.raw_value(x2)
    ground = omega1.ground
    if f"on {ARC_EXCHANGE_1} arc" in message \
            or f"on {ARC_EXCHANGE_2} arc" in message:
        for u in x1.members():
            for v in ground.elements():
                if not x1.contains(v):
                    omega1.raw_value(x1.exchange(u, v))
    if f"on {ARC_EXCHANGE_2} arc" in message:
        for v in ground.elements():
            if not x2.contains(v):
                for u in x2.members():
                    omega2.raw_value(x2.exchange(u, v))


class TestIntegerExchangeLengths:
    """The integer exchange loop against the rational one it replaced:
    the same arcs in the same order with the same exact lengths, the same
    first negative arc and message, and the same oracle counters.  A scan
    that raises asks each copy's block in full before checking it, so its
    counters are those of `_ask_reached_blocks`."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["scaled", "explicit", "dual"]),
           st.sampled_from(["scaled", "explicit", "dual"]),
           st.sampled_from(["solved", "planted", "foreign", "rank_sized"]))
    def test_matches_fraction_loop(self, seed, kind1, kind2, potentials):
        rng = random.Random(seed)
        ground = random_ground(rng, 2, 7)
        make1 = _differential_side(rng, ground, kind1)
        make2 = _differential_side(rng, ground, kind2)
        omega1, omega2 = make1(), make2()
        if potentials in ("solved", "planted", "foreign"):
            out = solve_v_geq_k(omega1, omega2, rng.randint(
                0, min(omega1.rank, omega2.rank)))
            if not out.optimal:
                return
            x1, x2, p = out.x1, out.x2, out.witness.p1
            if potentials != "solved":
                # Plant a fault: shift one potential by a rational whose
                # denominator ("foreign") need not divide either D.
                den = rng.choice([5, 7, 11, 13] if potentials == "foreign"
                                 else DENOMINATORS)
                delta = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3 * den),
                                 den)
                v = rng.randrange(ground.size)
                p = tuple(pv + delta if i == v else pv
                          for i, pv in enumerate(p))
        else:
            x1 = ground.subset(rng.sample(range(ground.size), omega1.rank))
            x2 = ground.subset(rng.sample(range(ground.size), omega2.rank))
            p = tuple(random_rational(rng, -2, 2, denominators=(1, 3, 7))
                      for _ in ground.elements())
        ours1, ours2 = make1(), make2()
        theirs1, theirs2 = make1(), make2()
        ours = _drain(_unit_exchange_lengths(x1, x2, p, ours1, ours2))
        theirs = _drain(_fraction_exchange_lengths(x1, x2, p, p,
                                                   theirs1, theirs2))
        # The rows raise before any arc is read; the loop yielded the
        # arcs before its first negative one.
        message = theirs[1]
        assert ours[1] == message
        assert ours[0] == ([] if message is not None else theirs[0])
        assert all(type(length) is Fraction for *_, length in ours[0])
        if message is not None:
            theirs1, theirs2 = make1(), make2()
            _ask_reached_blocks(x1, x2, message, theirs1, theirs2)
        for a, b in ((ours1, theirs1), (ours2, theirs2)):
            assert (a.calls, a.evals) == (b.calls, b.evals)

    def test_negative_arc_message_prints_the_fraction(self, g3):
        omega1 = from_matroid_and_weights(make_uniform(g3, 2),
                                          [Fraction(1, 3), 2, 4])
        omega2 = from_matroid_and_weights(make_uniform(g3, 2), [4, 2, 1])
        x = g3.subset([1, 2])
        p = (Fraction(0), Fraction(1, 7), Fraction(0))
        with pytest.raises(InternalInvariantError,
                           match=r"negative arc length -32/21 on A1 arc"):
            list(_unit_exchange_lengths(x, x, p, omega1, omega2))

    def test_aux_arc_lengths_are_the_lpt_rationals(self):
        # The LPT raise loop of `reference.py` builds the aux digraph on
        # rational duals and reads row lengths over the graph's scale as
        # exact Fractions.
        rng = random.Random(5)
        checked = 0
        for _ in range(40):
            ground = random_ground(rng, 2, 7)
            omega1 = _differential_side(rng, ground, "scaled")()
            omega2 = _differential_side(rng, ground, "scaled")()
            out = solve_v_geq_k(omega1, omega2,
                                min(omega1.rank, omega2.rank))
            if not out.optimal:
                continue
            q = list(out.witness.p1)
            units, scale = viap.in_units(omega1, omega2, q)
            graph = build_aux_digraph(out.x1, out.x2, units,
                                      out.witness.matched, omega1, omega2,
                                      scale)
            reference = list(_fraction_exchange_lengths(
                out.x1, out.x2, q, q, omega1, omega2))
            arcs = _arcs(graph)
            exchange = [(arc.kind, arc.element_out, arc.element_in, arc.length)
                        for arc in arcs if arc.kind in EXCHANGE_KINDS]
            assert sorted(exchange) == sorted(reference)
            assert all(type(arc.length) is Fraction for arc in arcs)
            assert all(arc.length == 0 for arc in arcs
                       if arc.kind not in EXCHANGE_KINDS)
            checked += len(exchange)
        assert checked > 0


def _build_outcome(build, *args):
    """The graph a build returns and None, or None and its message."""
    try:
        return build(*args), None
    except InternalInvariantError as exc:
        return None, str(exc)


class TestRowsAgainstArcs:
    """The row-based aux build and search against the `AuxArc` build and
    search they replaced (kept verbatim above), on solved potentials and
    planted faults: the same arcs in the same row order, the same first
    negative message, the same oracle counters, the same distances and
    parents, and the same path arcs in order."""

    SIDES = ("scaled", "dual", "explicit", "size")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(SIDES),
           st.sampled_from(SIDES), st.sampled_from(["solved", "planted"]))
    def test_matches_arc_build_and_search(self, seed, kind1, kind2,
                                          potentials):
        rng = random.Random(seed)
        ground = random_ground(rng, 2, 7)
        make1 = _differential_side(rng, ground, kind1)
        make2 = _differential_side(rng, ground, kind2)
        omega1, omega2 = make1(), make2()
        # Below the top level, so that the sink is mostly reachable.
        out = solve_v_geq_k(omega1, omega2, rng.randint(
            0, max(0, min(omega1.rank, omega2.rank) - 1)))
        if not out.optimal:
            return
        p = out.witness.p1
        if potentials == "planted":
            den = rng.choice(DENOMINATORS)
            delta = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3 * den),
                             den)
            v = rng.randrange(ground.size)
            p = tuple(pv + delta if i == v else pv for i, pv in enumerate(p))
        q, scale = viap.in_units(omega1, omega2, p)
        x1, x2, matched = out.x1, out.x2, out.witness.matched
        ours1, ours2 = make1(), make2()
        theirs1, theirs2 = make1(), make2()
        rows, message = _build_outcome(build_aux_digraph, x1, x2, q, matched,
                                       ours1, ours2, scale)
        graph, reference = _build_outcome(_arc_build_aux_digraph, x1, x2, q,
                                          q, matched, theirs1, theirs2, scale)
        assert message == reference
        for a, b in ((ours1, theirs1), (ours2, theirs2)):
            assert (a.calls, a.evals) == (b.calls, b.evals)
        if graph is None:
            return
        assert [_fields(arc) for arc in _arcs(rows)] \
            == [_fields(arc) for out_arcs in graph.adjacency
                for arc in out_arcs]
        assert [len(row) for row in rows.adjacency] \
            == [len(out_arcs) for out_arcs in graph.adjacency]
        dist, parent, path = shortest_path_with_hop_tiebreak(rows)
        ref_dist, ref_parent, ref_path = _arc_shortest_path(graph)
        assert dist == ref_dist
        assert parent == [-1 if arc is None else arc.tail
                          for arc in ref_parent]
        if ref_path is None:
            assert path is None
        else:
            assert path == [(arc.tail, arc.head) for arc in ref_path]
            assert [_fields(arc) for arc in _path_arcs(rows, dist, path)] \
                == [_fields(arc) for arc in ref_path]
