"""Submodular flow at desk scale and the coupled >= k reduction."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from vmint.core import (
    INF,
    ExtValue,
    GroundSet,
    IntVector,
    InvalidInputError,
    componentwise_min,
)
from vmint.bruteforce import brute_m_geq_k_w, brute_v_geq_k
from vmint.matroid import make_uniform
from vmint.mflow import (
    FlowArc,
    FlowNetwork,
    _aux_arcs,
    _cancel_negative_cycles,
    _closes_cycle,
    _find_negative_cycles,
    _has_negative_cycle,
    boundary,
    build_mgeqk_instance,
    coupled_objective,
    flow_objective,
    flow_to_solution,
    solution_to_flow,
    solve_m_geq_k_w,
    solve_mnat_flow,
)
from vmint.rand_instances import random_mconvex_pair, random_rational
from vmint.valuated import MnatFunction, check_mnat_exchange, from_matroid_and_weights
from vmint.apps import mnat_from_valuation


class TestBoundary:
    def test_single_arc(self):
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 5, Fraction(0)),))
        assert boundary([2], net) == IntVector((-2, 2))

    def test_zero_flow(self):
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 5, Fraction(0)),))
        assert boundary([0], net) == IntVector((0, 0))

    def test_opposite_arcs_cancel(self):
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 5, Fraction(0)),
                              FlowArc(1, 0, 0, 5, Fraction(0))))
        assert boundary([1, 1], net) == IntVector((0, 0))

    def test_dimension_checked(self):
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 5, Fraction(0)),))
        with pytest.raises(InvalidInputError):
            boundary([1, 2], net)


def _quadratic_h(n: int, radius: int = 3) -> MnatFunction:
    def value(x):
        return ExtValue(sum(v * v for v in x.entries))

    return MnatFunction(n, value, (-radius,) * n, (radius,) * n,
                        IntVector((0,) * n))


class TestGenericFlow:
    def test_zero_flow_optimal(self):
        h = _quadratic_h(2)
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 5, Fraction(0)),))
        out = solve_mnat_flow(h, net, start=[3])
        assert out.optimal and out.objective == ExtValue(0)
        assert out.flow == (0,)

    def test_forced_arc(self):
        h = _quadratic_h(2)
        net = FlowNetwork(2, (FlowArc(0, 1, 2, 2, Fraction(1)),))
        out = solve_mnat_flow(h, net, start=[2])
        assert out.objective == ExtValue(10)  # 4 + 4 + 1*2

    def test_profitable_arc_saturates(self):
        h = _quadratic_h(2)
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 2, Fraction(-10)),))
        out = solve_mnat_flow(h, net, start=[2])
        assert out.flow == (2,)
        assert out.objective == ExtValue(-12)

    def test_unbounded_detected(self):
        def flat(x):
            return ExtValue(0)

        h = MnatFunction(2, flat, (-2, -2), (2, 2), IntVector((0, 0)))
        net = FlowNetwork(2, (FlowArc(0, 1, 0, None, Fraction(-1)),
                              FlowArc(1, 0, 0, None, Fraction(0))))
        out = solve_mnat_flow(h, net, start=[2, 0])
        assert out.status == "unbounded"

    def test_infeasible_when_no_boundary_realizable(self):
        from vmint.core import INF

        def pinned(x):
            return ExtValue(0) if x.entries == (-3, 3) else INF

        h = MnatFunction(2, pinned, (-3, -3), (3, 3), None)
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 1, Fraction(0)),))
        # Every flow within the capacity has boundary (-f, f) with f <= 1,
        # so no start is feasible, and each is rejected.
        for flow in (0, 1):
            with pytest.raises(InvalidInputError):
                solve_mnat_flow(h, net, start=[flow])

    def test_negative_flow_through_infinite_lower_bound(self):
        # The cheapest boundary needs one unit moved against the arc.
        def target(x):
            return ExtValue(abs(x[0] - 1) + abs(x[1] + 1))

        h = MnatFunction(2, target, (-2, -2), (2, 2), None)
        net = FlowNetwork(2, (FlowArc(0, 1, None, 4, Fraction(0)),))
        out = solve_mnat_flow(h, net, start=[2])
        assert out.optimal
        assert out.flow == (-1,)
        assert out.objective == ExtValue(0)

    def test_parallel_arcs_split_demand(self):
        def target(x):
            return ExtValue(abs(x[0] + 2) + abs(x[1] - 2))

        h = MnatFunction(2, target, (-3, -3), (3, 3), None)
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 1, Fraction(0)),
                              FlowArc(0, 1, 0, 1, Fraction(0))))
        out = solve_mnat_flow(h, net, start=[1, 1])
        assert out.optimal
        assert out.objective == ExtValue(0)
        assert out.flow == (1, 1)


class TestInstanceConstruction:
    def _pair(self, rng=None):
        rng = rng or random.Random(4)
        return random_mconvex_pair(rng, 2, max_entry=2)

    def test_arc_count(self):
        f1, f2 = self._pair()
        inst = build_mgeqk_instance(f1, f2, 0, [0, 0])
        assert len(inst.network.arcs) == 3 * 2

    def test_weight_sign_rejected(self):
        f1, f2 = self._pair()
        with pytest.raises(InvalidInputError):
            build_mgeqk_instance(f1, f2, 0, [1, 0])

    def test_k_range_rejected(self):
        f1, f2 = self._pair()
        with pytest.raises(InvalidInputError):
            build_mgeqk_instance(f1, f2, min(f1.rank_total(),
                                             f2.rank_total()) + 1, [0, 0])

    def test_h_is_mnat_convex(self):
        rng = random.Random(5150)
        for _ in range(5):
            f1, f2 = random_mconvex_pair(rng, 2, max_entry=2)
            k = rng.randint(0, min(f1.rank_total(), f2.rank_total()))
            inst = build_mgeqk_instance(f1, f2, k, [0, -1])
            assert check_mnat_exchange(inst.h, 100_000)

    def test_surplus_interval_widths(self):
        f1, f2 = self._pair()
        r1, r2 = f1.rank_total(), f2.rank_total()
        k = min(r1, r2)
        inst = build_mgeqk_instance(f1, f2, k, [0, 0])
        n = inst.n
        # s coordinate: [-(r2-k), 0]; t coordinate: [0, r1-k].
        assert inst.h.box_lower[n] == -(r2 - k)
        assert inst.h.box_upper[2 * n + 1] == r1 - k


class TestFlowConversions:
    def test_equal_vectors_no_side_flow(self):
        rng = random.Random(6)
        f1, f2 = random_mconvex_pair(rng, 2, max_entry=2)
        inst = build_mgeqk_instance(f1, f2, 0, [0, 0])
        x = f1.require_witness()
        if f2.value(x).is_finite:
            flow = solution_to_flow(x, x, inst)
            assert all(flow[inst.to_sink_arc(v)] == 0 for v in range(2))
            assert all(flow[inst.from_source_arc(v)] == 0 for v in range(2))

    def test_eq6_with_surplus(self):
        g1 = GroundSet(1)

        def f(x):
            return ExtValue(0)

        f1 = MnatFunction(1, f, (0,), (3,), IntVector((3,)))
        f2 = MnatFunction(1, f, (0,), (3,), IntVector((1,)))
        inst = build_mgeqk_instance(f1, f2, 1, [0])
        flow = solution_to_flow(IntVector((3,)), IntVector((1,)), inst)
        assert flow[inst.identity_arc(0)] == 1
        assert flow[inst.to_sink_arc(0)] == 2
        assert flow[inst.from_source_arc(0)] == 0

    def test_objectives_coincide(self):
        rng = random.Random(7)
        for _ in range(10):
            f1, f2 = random_mconvex_pair(rng, rng.randint(1, 3))
            w = [-abs(random_rational(rng, 0, 5)) for _ in range(f1.dimension)]
            inst = build_mgeqk_instance(f1, f2, 0, w)
            x1, x2 = f1.require_witness(), f2.require_witness()
            flow = solution_to_flow(x1, x2, inst)
            assert flow_objective(inst.h, inst.network, flow) == \
                coupled_objective(inst, x1, x2)

    def test_reroute_formula_and_monotonicity(self):
        def f(x):
            return ExtValue(0)

        f1 = MnatFunction(1, f, (0,), (5,), IntVector((3,)))
        f2 = MnatFunction(1, f, (0,), (5,), IntVector((3,)))
        inst = build_mgeqk_instance(f1, f2, 0, [-1])
        # Hand-built wasteful flow: identity 0, both side arcs 3.
        flow = [0, 3, 3]
        before = flow_objective(inst.h, inst.network, flow)
        x1, x2, rerouted = flow_to_solution(flow, inst)
        after = flow_objective(inst.h, inst.network, rerouted)
        assert (x1, x2) == (IntVector((3,)), IntVector((3,)))
        assert rerouted == [3, 0, 0]
        assert after < before  # strictly, since w < 0 and min > 0


class TestCoupledSolve:
    def test_decoupled_when_unconstrained(self):
        rng = random.Random(8)
        f1, f2 = random_mconvex_pair(rng, 2)
        out = solve_m_geq_k_w(f1, f2, 0, [0, 0])
        best1 = min(f1.value(x) for x in f1.enumerate_domain())
        best2 = min(f2.value(x) for x in f2.enumerate_domain())
        assert out.value == best1 + best2

    def test_k_too_large_infeasible(self):
        rng = random.Random(9)
        f1, f2 = random_mconvex_pair(rng, 2)
        k = min(f1.rank_total(), f2.rank_total()) + 1
        assert solve_m_geq_k_w(f1, f2, k, [0, 0]).status == "infeasible"

    def test_input_checked_before_k_too_large(self):
        rng = random.Random(9)
        f1, f2 = random_mconvex_pair(rng, 2)
        g1, _ = random_mconvex_pair(rng, 3)
        k = min(f1.rank_total(), f2.rank_total()) + 1
        for a, b, w in ((f1, g1, [0, 0]), (f1, f2, [0, 0, 0]),
                        (f1, f2, [3, -5]), (_quadratic_h(2), f2, [0, 0])):
            with pytest.raises(InvalidInputError):
                build_mgeqk_instance(a, b, 0, w)
            with pytest.raises(InvalidInputError):
                solve_m_geq_k_w(a, b, k, w)

    def test_zero_one_case_matches_viap(self):
        g3 = GroundSet(3, ("a", "b", "c"))
        u23 = make_uniform(g3, 2)
        omega1 = from_matroid_and_weights(u23, [1, 2, 4])
        omega2 = from_matroid_and_weights(u23, [4, 2, 1])
        f1 = mnat_from_valuation(omega1)
        f2 = mnat_from_valuation(omega2)
        for k in range(0, 3):
            flow_out = solve_m_geq_k_w(f1, f2, k, [0, 0, 0])
            viap_out = brute_v_geq_k(omega1, omega2, k)
            assert flow_out.status == viap_out.status
            if flow_out.optimal:
                assert flow_out.value == viap_out.value

    def test_random_vs_brute(self):
        rng = random.Random(10101)
        for _ in range(30):
            dim = rng.randint(1, 3)
            f1, f2 = random_mconvex_pair(rng, dim)
            k = rng.randint(0, min(f1.rank_total(), f2.rank_total()) + 1)
            w = [-abs(random_rational(rng, 0, 6)) for _ in range(dim)]
            fast = solve_m_geq_k_w(f1, f2, k, w)
            slow = brute_m_geq_k_w(f1, f2, k, w)
            assert fast.status == slow.status
            if fast.optimal:
                assert fast.value == slow.value
                low = componentwise_min(fast.x1, fast.x2)
                assert low.total() >= k


# ---------------------------------------------------------------------------
# The integer cycle search against the rational one it replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OracleArc:
    """An auxiliary arc with its rational cost, as the Fraction build and
    search used it."""
    tail: int
    head: int
    cost: Fraction
    arc_index: int
    direction: int


def _oracle_find_negative_cycles(num_nodes, aux_arcs):
    """The Fraction walk DP the integer search replaced, kept verbatim."""
    incoming = [[] for _ in range(num_nodes)]
    for idx, arc in enumerate(aux_arcs):
        incoming[arc.head].append(idx)
    # best[u][v]: cheapest walk u -> v with exactly k arcs, plus parent arc.
    best = [dict() for _ in range(num_nodes)]
    parent = [[] for _ in range(num_nodes)]
    for u in range(num_nodes):
        best[u][u] = Fraction(0)
    for length in range(1, num_nodes + 1):
        new_best = [dict() for _ in range(num_nodes)]
        new_parent = [dict() for _ in range(num_nodes)]
        for u in range(num_nodes):
            reach = best[u]
            if not reach:
                continue
            for v in range(num_nodes):
                chosen_cost = None
                chosen_arc = -1
                for idx in incoming[v]:
                    arc = aux_arcs[idx]
                    prev = reach.get(arc.tail)
                    if prev is None:
                        continue
                    cost = prev + arc.cost
                    if chosen_cost is None or cost < chosen_cost:
                        chosen_cost = cost
                        chosen_arc = idx
                if chosen_cost is not None:
                    new_best[u][v] = chosen_cost
                    new_parent[u][v] = chosen_arc
        for u in range(num_nodes):
            parent[u].append(new_parent[u])
            best[u] = new_best[u]
        negatives = sorted(
            (cost, u) for u in range(num_nodes)
            for v, cost in best[u].items() if v == u and cost < 0)
        for cost, anchor in negatives:
            cycle = _oracle_reconstruct_cycle(aux_arcs, parent, anchor, length)
            yield cycle


def _oracle_reconstruct_cycle(aux_arcs, parent, anchor, length):
    arcs = []
    node = anchor
    for k in range(length, 0, -1):
        idx = parent[anchor][k - 1][node]
        arc = aux_arcs[idx]
        arcs.append(arc)
        node = arc.tail
    arcs.reverse()
    return arcs


_COSTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _aux_graphs(draw):
    """Arc lists on 2-8 nodes: free costs (negative cycles likely), or
    potential differences plus a nonnegative slack, which leaves no
    negative cycle and zero-cost cycles wherever the slack is 0."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1])
    ends = draw(st.lists(pairs, min_size=n, max_size=3 * n))
    if draw(st.booleans()):
        costs = [draw(_COSTS) for _ in ends]
    else:
        potential = draw(st.lists(_COSTS, min_size=n, max_size=n))
        slack = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3),
                                 Fraction(5, 2)])
        costs = [potential[head] - potential[tail] + draw(slack)
                 for tail, head in ends]
    return n, [_OracleArc(tail, head, cost, i, +1)
               for i, ((tail, head), cost) in enumerate(zip(ends, costs))]


@st.composite
def _tied_aux_graphs(draw):
    """Arc lists full of ties: potential differences over a few values,
    mostly with zero slack, some arcs repeated in parallel at equal cost
    later in the list, and a few arcs a third below zero slack, so that
    negative cycles of equal cost and equal-cost walks abound."""
    n = draw(st.integers(2, 7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda pair: pair[0] != pair[1])
    ends = draw(st.lists(pairs, min_size=n, max_size=2 * n))
    potential = draw(st.lists(st.sampled_from([Fraction(0), Fraction(1, 3),
                                               Fraction(-1)]),
                              min_size=n, max_size=n))
    slack = st.sampled_from([Fraction(0)] * 4 + [Fraction(-1, 3),
                                                 Fraction(1, 2)])
    arcs = [(tail, head, potential[head] - potential[tail] + draw(slack))
            for tail, head in ends]
    for arc in draw(st.lists(st.sampled_from(arcs), max_size=n)):
        arcs.insert(draw(st.integers(arcs.index(arc) + 1, len(arcs))), arc)
    return n, [_OracleArc(tail, head, cost, i, +1)
               for i, (tail, head, cost) in enumerate(arcs)]


def _workload_aux_graph(rng, tied):
    """An arc list the size of a `coupled_flow` aux graph, 14-20 nodes and
    60-130 arcs: free costs, or (`tied`) potential differences over a few
    values with mostly zero slack and n arcs repeated later in the list,
    as in `_tied_aux_graphs`."""
    n, m = rng.randint(14, 20), rng.randint(60, 130)
    ends = []
    while len(ends) < m - (n if tied else 0):
        tail, head = rng.randrange(n), rng.randrange(n)
        if tail != head:
            ends.append((tail, head))
    if not tied:
        arcs = [(tail, head, Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                for tail, head in ends]
    else:
        potential = [rng.choice((Fraction(0), Fraction(1, 3), Fraction(-1)))
                     for _ in range(n)]
        slacks = [Fraction(0)] * 8 + [Fraction(-1, 3), Fraction(1, 2)]
        arcs = [(tail, head,
                 potential[head] - potential[tail] + rng.choice(slacks))
                for tail, head in ends]
        for _ in range(n):
            arc = rng.choice(arcs)
            arcs.insert(rng.randint(arcs.index(arc) + 1, len(arcs)), arc)
    return n, [_OracleArc(tail, head, cost, i, +1)
               for i, (tail, head, cost) in enumerate(arcs)]


def _in_units(arcs):
    """The arcs as `_aux_arcs` tuples, with their costs as ints over the
    lcm of the denominators."""
    scale = math.lcm(*(arc.cost.denominator for arc in arcs))
    return [(arc.tail, arc.head,
             arc.cost.numerator * (scale // arc.cost.denominator),
             arc.arc_index, arc.direction) for arc in arcs]


def _rational(arcs, scale):
    """Arcs of one integer build with their costs read as rationals."""
    return [_OracleArc(tail, head, Fraction(cost, scale), arc_index,
                       direction)
            for tail, head, cost, arc_index, direction in arcs]


class TestIntegerCycleSearch:
    @staticmethod
    def _same_cycles(n, arcs):
        """The flat integer search yields the Fraction DP's cycles, as arc
        index lists, in the same order; the gate agrees."""
        expected = [[arc.arc_index for arc in cycle]
                    for cycle in _oracle_find_negative_cycles(n, arcs)]
        scaled = _in_units(arcs)
        assert [[arc_index for _, _, _, arc_index, _ in cycle]
                for cycle in _find_negative_cycles(n, scaled)] == expected
        assert _has_negative_cycle(n, scaled) == bool(expected)
        return expected

    @settings(max_examples=300, deadline=None)
    @given(_aux_graphs())
    def test_same_cycles_in_same_order_as_fraction_dp(self, graph):
        self._same_cycles(*graph)

    @settings(max_examples=300, deadline=None)
    @given(_tied_aux_graphs())
    def test_ties_break_as_in_the_fraction_dp(self, graph):
        self._same_cycles(*graph)

    @pytest.mark.parametrize("tied", [False, True], ids=["free", "tied"])
    @pytest.mark.parametrize("seed", range(8))
    def test_workload_sized_graphs_yield_every_length(self, seed, tied):
        # The whole generator output, so the rows extended after the first
        # negative length are compared too.
        n, arcs = _workload_aux_graph(random.Random(seed), tied)
        cycles = self._same_cycles(n, arcs)
        assert len({len(cycle) for cycle in cycles}) > 1

    def test_parallel_arc_of_equal_cost_loses_the_tie(self):
        arcs = [_OracleArc(0, 1, Fraction(-1, 2), 0, +1),
                _OracleArc(1, 0, Fraction(0), 1, +1),
                _OracleArc(0, 1, Fraction(-1, 2), 2, +1),
                _OracleArc(1, 0, Fraction(0), 3, +1)]
        assert self._same_cycles(2, arcs) == [[0, 1], [1, 0]]

    def test_build_scale_is_the_lcm_of_weights_and_values(self):
        # Weights over 12, values of h over 5: one build over 60.
        net = FlowNetwork(2, (FlowArc(0, 1, 0, 5, Fraction(1, 4)),
                              FlowArc(1, 0, 0, 5, Fraction(-5, 6)),
                              FlowArc(1, 0, 0, 5, Fraction(3))))
        assert net.weight_units == ((3, -10, 36), 12)

        def value(x):
            return ExtValue(Fraction(2 * x[0], 5) + x[1] * x[1])

        h = MnatFunction(2, value, (-1, -1), (1, 1), IntVector((0, 0)))
        arcs, scale = _aux_arcs(h, net, [0, 0, 0], IntVector((0, 0)),
                                Fraction(0))
        assert scale == 60
        assert arcs == [(0, 1, 15, 0, +1), (1, 0, -50, 1, +1),
                        (1, 0, 180, 2, +1), (0, 1, 84, -1, 0),
                        (1, 0, 36, -1, 0)]

    def test_parent_links_closing_a_cycle(self):
        assert not _closes_cycle([-1, 0, 1, 1])
        assert not _closes_cycle([])
        assert _closes_cycle([-1, 2, 3, 1])
        assert _closes_cycle([1, 0])

    def test_zero_cost_cycle_is_not_negative(self):
        arcs = _in_units([_OracleArc(0, 1, Fraction(1, 3), 0, +1),
                          _OracleArc(1, 0, Fraction(-1, 3), 1, +1)])
        assert not _has_negative_cycle(2, arcs)
        assert list(_find_negative_cycles(2, arcs)) == []


def _unpruned_exchange_arcs(h, current, base_value):
    """The exchange scan that asks h at every pair, in or out of the box."""
    arcs = []
    for x in range(h.dimension):
        up = current.add_unit(x, +1)
        for y in range(h.dimension):
            if y == x:
                continue
            moved = h.value(up.add_unit(y, -1))
            if moved.is_finite:
                arcs.append(_OracleArc(x, y, moved.finite - base_value, -1, 0))
    return arcs


def _exchange_arcs(h, current, base_value):
    """The exchange arcs of one integer build (a network without arcs
    adds no residual arcs), with their costs read as rationals."""
    arcs, scale = _aux_arcs(h, FlowNetwork(h.dimension, ()), [], current,
                            base_value)
    return _rational(arcs, scale)


def _exchange_scans(h, point):
    base = h.value(point).finite
    before = h.calls
    pruned = _exchange_arcs(h, point, base)
    pruned_calls = h.calls - before
    before = h.calls
    full = _unpruned_exchange_arcs(h, point, base)
    return pruned, pruned_calls, full, h.calls - before


class TestExchangePruning:
    @pytest.mark.parametrize("point", [(3, -3, 0), (-3, 0, 3), (3, 3, -3),
                                       (0, -3, 1), (-3, -3, -3)])
    def test_box_boundary_points_of_quadratic(self, point):
        h = _quadratic_h(3)
        pruned, pruned_calls, full, full_calls = _exchange_scans(
            h, IntVector(point))
        assert pruned == full
        assert pruned_calls < full_calls

    def test_interior_point_scans_every_pair(self):
        h = _quadratic_h(3)
        pruned, pruned_calls, full, full_calls = _exchange_scans(
            h, IntVector((1, 0, -2)))
        assert pruned == full
        assert pruned_calls == full_calls == 6

    def test_coupled_instance_start_points(self):
        rng = random.Random(3131)
        block_calls = generic_calls = 0
        for _ in range(10):
            f1, f2 = random_mconvex_pair(rng, rng.randint(1, 3))
            k = rng.randint(0, min(f1.rank_total(), f2.rank_total()))
            inst = build_mgeqk_instance(f1, f2, k, [0] * f1.dimension)
            flow = solution_to_flow(f1.require_witness(),
                                    f2.require_witness(), inst)
            point = boundary(flow, inst.network)
            for h in (inst.h, inst.h_feasibility):
                if not h.value(point).is_finite:
                    continue   # the surplus exceeds the width of h
                pruned, pruned_calls, full, full_calls = _exchange_scans(
                    h, point)
                assert pruned == full
                # The s coordinate starts at its box upper bound 0.
                assert pruned_calls < full_calls
                base = h.value(point).finite
                block_calls += _part_calls(inst, h, point, base)
                generic_calls += _part_calls(inst, _without_blocks(h), point,
                                             base)
        # The block scan asks f1 and f2 less often than the generic scan of
        # the same functions without blocks.  Not at every point: the block
        # scan's unit-move lookups can outnumber the few in-box pairs at a
        # point of dimension 1.
        assert block_calls < generic_calls


# ---------------------------------------------------------------------------
# The integer build against the Fraction build it replaced
# ---------------------------------------------------------------------------

def _oracle_residual_arcs(network, flow):
    """`_residual_arcs` of the Fraction build, kept verbatim."""
    arcs = []
    for i, arc in enumerate(network.arcs):
        xi = flow[i]
        if arc.upper is None or xi < arc.upper:
            arcs.append(_OracleArc(arc.tail, arc.head, arc.weight, i, +1))
        if arc.lower is None or xi > arc.lower:
            arcs.append(_OracleArc(arc.head, arc.tail, -arc.weight, i, -1))
    return arcs


def _oracle_exchange_arcs(h, current, base_value):
    """`_exchange_arcs` of the Fraction build, kept verbatim."""
    z = current.entries
    lower, upper = h.box_lower, h.box_upper
    blocks = getattr(h, "blocks", None)
    if blocks:
        block_points = [IntVector(z[off:off + part.dimension])
                        for off, part in blocks]
        bases = [part.value(point).finite
                 for (_, part), point in zip(blocks, block_points)]
    else:
        blocks, block_points, bases = ((0, h),), [current], [base_value]
    block_of = [b for b, (_, part) in enumerate(blocks)
                for _ in range(part.dimension)]

    def unit_delta(v: int, step: int) -> Optional[Fraction]:
        b = block_of[v]
        off, part = blocks[b]
        moved = part.value(block_points[b].add_unit(v - off, step))
        return moved.finite - bases[b] if moved.is_finite else None

    up: list[Optional[Fraction]] = [None] * h.dimension
    down: list[Optional[Fraction]] = [None] * h.dimension
    if len(blocks) > 1:
        for v in range(h.dimension):
            if z[v] != upper[v]:
                up[v] = unit_delta(v, +1)
            if z[v] != lower[v]:
                down[v] = unit_delta(v, -1)
    arcs = []
    for x in range(h.dimension):
        if z[x] == upper[x]:
            continue
        bx = block_of[x]
        off, part = blocks[bx]
        raised = block_points[bx].add_unit(x - off, +1)
        for y in range(h.dimension):
            if y == x or z[y] == lower[y]:
                continue
            if block_of[y] == bx:
                moved = part.value(raised.add_unit(y - off, -1))
                if moved.is_finite:
                    arcs.append(_OracleArc(x, y, moved.finite - bases[bx], -1,
                                           0))
            elif up[x] is not None and down[y] is not None:
                arcs.append(_OracleArc(x, y, up[x] + down[y], -1, 0))
    return arcs


def _same_build(h_old, h_new, network, flow, point):
    """One Fraction build on h_old and one integer build on h_new give
    the same arcs in the same order and the same rational costs."""
    expected = _oracle_residual_arcs(network, flow) + _oracle_exchange_arcs(
        h_old, point, h_old.value(point).finite)
    arcs, scale = _aux_arcs(h_new, network, flow, point,
                            h_new.value(point).finite)
    assert _rational(arcs, scale) == expected
    assert all(type(cost) is int for _, _, cost, _, _ in arcs)
    assert scale % network.weight_units[1] == 0


def _same_queries(a, b):
    assert (a.calls, a.evals) == (b.calls, b.evals)
    assert list(a._memo) == list(b._memo)


def _canceling_flows(inst):
    """(phase, network, flow) before every build of the two phases of
    `solve_m_geq_k_w` on `inst`: phase 0 raises the identity mass on
    h_feasibility, phase 1 descends on h."""
    n = inst.n
    feas_net = FlowNetwork(inst.network.num_nodes, tuple(
        FlowArc(arc.tail, arc.head, arc.lower, arc.upper,
                Fraction(-1) if i < n else Fraction(0))
        for i, arc in enumerate(inst.network.arcs)))
    visited = []

    def record(phase, network, stop):
        def visit(flow):
            visited.append((phase, network, list(flow)))
            return stop(flow)
        return visit

    def mass(flow):
        return sum(flow[inst.identity_arc(v)] for v in range(n))

    flow = solution_to_flow(inst.f1.require_witness(),
                            inst.f2.require_witness(), inst)
    flow, _ = _cancel_negative_cycles(
        inst.h_feasibility, feas_net, flow,
        stop=record(0, feas_net, lambda fl: mass(fl) >= inst.k))
    if mass(flow) >= inst.k:
        _cancel_negative_cycles(inst.h, inst.network, flow,
                                stop=record(1, inst.network, lambda fl: False))
    return visited


class TestIntegerBuild:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dimension=st.integers(1, 4),
           data=st.data())
    def test_coupled_builds_equal_the_fraction_build(self, seed, dimension,
                                                     data):
        # Three twins of one instance: one is solved to record the flows
        # of both phases, the other two are asked the builds.
        twins = []
        for _ in range(3):
            rng = random.Random(seed)
            f1, f2 = random_mconvex_pair(rng, dimension)
            w = [-abs(random_rational(rng, 0, 5)) for _ in range(dimension)]
            twins.append((f1, f2, w))
        k = data.draw(st.integers(0, min(twins[0][0].rank_total(),
                                         twins[0][1].rank_total())))
        solved, old, new = (build_mgeqk_instance(f1, f2, k, w)
                            for f1, f2, w in twins)
        visited = _canceling_flows(solved)
        for phase, network, flow in visited:
            h_old = (old.h_feasibility, old.h)[phase]
            h_new = (new.h_feasibility, new.h)[phase]
            _same_build(h_old, h_new, network, flow,
                        boundary(flow, network))
        assert visited
        for a, b in ((old.f1, new.f1), (old.f2, new.f2),
                     (old.h, new.h), (old.h_feasibility, new.h_feasibility)):
            _same_queries(a, b)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_blockless_builds_equal_the_fraction_build(self, data):
        n = data.draw(st.integers(2, 4))
        radius = data.draw(st.integers(1, 3))
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda pair: pair[0] != pair[1])
        arcs, flow = [], []
        for tail, head in data.draw(st.lists(ends, max_size=2 * n)):
            lower = data.draw(st.sampled_from((None, -1, 0)))
            upper = data.draw(st.sampled_from((None, 0, 2)))
            xi = data.draw(st.integers(-2 if lower is None else lower,
                                       2 if upper is None else upper))
            arcs.append(FlowArc(tail, head, lower, upper, data.draw(_COSTS)))
            flow.append(xi)
        network = FlowNetwork(n, tuple(arcs))
        point = IntVector(tuple(data.draw(st.integers(-radius, radius))
                                for _ in range(n)))
        h_old, h_new = _quadratic_h(n, radius), _quadratic_h(n, radius)
        _same_build(h_old, h_new, network, flow, point)
        _same_queries(h_old, h_new)


# ---------------------------------------------------------------------------
# The direct-sum h against the coupled h it replaced
# ---------------------------------------------------------------------------

def _oracle_coupled_h(f1, f2, k):
    """h and h_feasibility as `build_mgeqk_instance` built them before the
    direct sum; `make_h` is kept verbatim."""
    n = f1.dimension
    r1 = f1.rank_total()
    r2 = f2.rank_total()

    def make_h(s_width: int, t_width: int, indicator: bool) -> MnatFunction:
        def value(z: IntVector) -> ExtValue:
            x1 = IntVector(tuple(-z[v] for v in range(n)))
            x2 = IntVector(tuple(z[n + 1 + v] for v in range(n)))
            surplus2 = -z[n]
            surplus1 = z[2 * n + 1]
            if not (0 <= surplus2 <= s_width and 0 <= surplus1 <= t_width):
                return INF
            v1 = f1.value(x1)
            if not v1.is_finite:
                return INF
            v2 = f2.value(x2)
            if not v2.is_finite:
                return INF
            if indicator:
                return ExtValue(0)
            return v1 + v2

        lower = tuple(-u for u in f1.box_upper) + (-s_width,) \
            + f2.box_lower + (0,)
        upper = tuple(-lo for lo in f1.box_lower) + (0,) \
            + f2.box_upper + (t_width,)
        witness = IntVector(tuple(-v for v in f1.require_witness())
                            + (0,) + f2.require_witness().entries + (0,))
        return MnatFunction(2 * n + 2, value, lower, upper, witness,
                            "coupled-h" if not indicator else "coupled-h-feas")

    return make_h(r2 - k, r1 - k, indicator=False), \
        make_h(r2, r1, indicator=True)


def _without_blocks(h):
    """The same value function as an opaque MnatFunction with a fresh memo."""
    return MnatFunction(h.dimension, h._value_fn, h.box_lower, h.box_upper,
                        h.witness_point, h.name)


def _part_calls(inst, h, point, base):
    """How often one exchange scan asks f1 and f2."""
    before = inst.f1.calls + inst.f2.calls
    _exchange_arcs(h, point, base)
    return inst.f1.calls + inst.f2.calls - before


def _memoized_parts(h):
    """The memoizing functions under the blocks of a direct sum."""
    parts = []
    for _offset, part in h.blocks:
        part = getattr(part, "part", part)   # under an indicator
        parts.append(getattr(part, "fn", part))   # under a negation
    return parts


class TestDirectSumH:
    def test_values_match_the_coupled_h_on_the_whole_box(self):
        rng = random.Random(2718)
        for dimension in (1, 1, 2, 2, 3, 3):
            f1, f2 = random_mconvex_pair(rng, dimension, max_entry=2)
            k = rng.randint(0, min(f1.rank_total(), f2.rank_total()))
            inst = build_mgeqk_instance(f1, f2, k, [0] * f1.dimension)
            for new, old in zip((inst.h, inst.h_feasibility),
                                _oracle_coupled_h(f1, f2, k)):
                assert (new.dimension, new.box_lower, new.box_upper,
                        new.witness_point, new.name) == \
                    (old.dimension, old.box_lower, old.box_upper,
                     old.witness_point, old.name)
                finite = 0
                for point in old.iter_box():
                    assert new.value(point) == old.value(point), point
                    finite += old.value(point).is_finite
                assert 0 < finite < old.box_volume()

    def test_blocks_tile_the_coordinates(self):
        f1, f2 = random_mconvex_pair(random.Random(4), 3, max_entry=2)
        inst = build_mgeqk_instance(f1, f2, 1, [0, 0, 0])
        for h in (inst.h, inst.h_feasibility):
            assert [(off, part.dimension) for off, part in h.blocks] == \
                [(0, 3), (3, 1), (4, 3), (7, 1)]
            assert _memoized_parts(h)[0] is f1
            assert _memoized_parts(h)[2] is f2

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dimension=st.integers(1, 4),
           data=st.data())
    def test_block_scan_equals_the_generic_scan(self, seed, dimension, data):
        rng = random.Random(seed)
        f1, f2 = random_mconvex_pair(rng, dimension)
        k = data.draw(st.integers(0, min(f1.rank_total(), f2.rank_total())))
        w = [-abs(random_rational(rng, 0, 5)) for _ in range(dimension)]
        inst = build_mgeqk_instance(f1, f2, k, w)
        n = inst.n
        # Points the cycle canceling reaches, in both phases.
        points = [boundary(flow, network)
                  for _, network, flow in _canceling_flows(inst)]
        # Box-edge points: domain points of f1 and f2, s and t at the ends
        # of their intervals.
        for _ in range(3):
            x1 = data.draw(st.sampled_from(f1.enumerate_domain()))
            x2 = data.draw(st.sampled_from(f2.enumerate_domain()))
            for h in (inst.h, inst.h_feasibility):
                s = data.draw(st.sampled_from((h.box_lower[n], 0)))
                t = data.draw(st.sampled_from((0, h.box_upper[2 * n + 1])))
                points.append(IntVector((-x1).entries + (s,) + x2.entries
                                        + (t,)))
        compared = 0
        for point in points:
            for h in (inst.h, inst.h_feasibility):
                value = h.value(point)
                if not value.is_finite:
                    continue
                expected = _unpruned_exchange_arcs(_without_blocks(h), point,
                                                   value.finite)
                assert _exchange_arcs(h, point, value.finite) == expected
                compared += 1
        assert compared > 0
        # The block scan asks no part outside its box.
        for h in (inst.h, inst.h_feasibility):
            for part in _memoized_parts(h):
                assert all(part.in_box(IntVector(key)) for key in part._memo)
