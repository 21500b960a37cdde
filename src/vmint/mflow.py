"""Desk-scale M-natural-convex submodular flow and the >= k reduction.

The flow problem minimizes h(boundary of xi) + sum of arc weights times
arc flows over integer flows within capacities, for an M-natural-convex h.
The solver is a negative-cycle-canceling loop on an exchange-augmented
residual structure: the residual arcs of the network are joined by
exchange arcs (x, y) whose cost is the change of h when the boundary moves
one unit from y to x.  A feasible flow is optimal exactly when this
auxiliary graph has no negative cycle; while one exists, the solver
cancels a negative cycle with the fewest arcs (ties by cost, then anchor
node), which is guaranteed not to increase the true objective beyond the
cycle cost.  The true objective is re-evaluated after every cancellation
and must strictly decrease, so termination follows from integrality and
boundedness.

Each iteration builds its arcs once, residual arcs then exchange arcs,
with int costs over one scale S per build: the lcm of the network's
weight denominator (`FlowNetwork.weight_units`, computed once per
network) and the denominators of the values of h asked.  S is a positive
factor, so every comparison, tie and choice is that of the rational
costs.  An arc is a (tail, head, cost, arc index, direction) tuple, and
the cycle search, the cycles it yields and their application all read
the one list the build returns.  A Bellman-Ford pass from a virtual
source settles in O(N*M) steps exactly when there is no negative cycle,
so the final optimality proof skips the fewest-arcs walk DP; the pass
stops as soon as its parent links close a cycle, which is then
negative.  When it does not settle, the DP keeps one row of cheapest
walks per source.  At each walk length it first closes every row through
its source's in-arcs and yields the negative closed walks; it extends
the rows by one arc, from their reached tails along per-tail out-lists,
only when the caller asks for more.  The first improving cycle usually
comes at the first negative length, so the rows of that length are
never built.  The objective sums the weights in units and builds one
`Fraction`.

Exchange arcs of a direct sum h(z) = sum of part_B(z_B) (see
`valuated.direct_sum`) are read block by block through the parts'
`moved(z_B, up, down)` query, which builds no vector on a memo hit.  A
pair (x, y) inside one block costs part_B(z_B + e_x - e_y) - part_B(z_B),
one query of that part; a pair across blocks costs up[x] + down[y], where
up and down are the unit-move deltas of the two blocks, looked up once per
build.  The arc list is the one the whole-h scan gives, in the same order,
so the canceled cycles do not depend on it; an h without blocks is scanned
as one block.

The cardinality-coupled minimization over two M-convex functions reduces
to this flow problem on a bipartite network between two copies of the
ground set, with interval indicators on two extra nodes encoding the
coupling lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from .core import (
    INF,
    ExtValue,
    IntVector,
    InternalInvariantError,
    InvalidInputError,
    ResourceLimitError,
    componentwise_min,
    scaled_weights,
)
from .valuated import (
    MnatFunction,
    NegatedMnat,
    direct_sum,
    interval_indicator,
)

MAX_CANCEL_ITERATIONS = 100_000


@dataclass(frozen=True)
class FlowArc:
    tail: int
    head: int
    lower: Optional[int]      # None = -infinity
    upper: Optional[int]      # None = +infinity
    weight: Fraction

    def __post_init__(self):
        if self.tail == self.head:
            raise InvalidInputError("self-loop arcs are not supported")
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise InvalidInputError("arc lower capacity exceeds upper")


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    arcs: tuple[FlowArc, ...]

    def __post_init__(self):
        for arc in self.arcs:
            if not (0 <= arc.tail < self.num_nodes
                    and 0 <= arc.head < self.num_nodes):
                raise InvalidInputError("arc endpoint out of range")

    @cached_property
    def weight_units(self) -> tuple[tuple[int, ...], int]:
        """The arc weights as ints over the lcm D of their denominators
        (1 without arcs), and D."""
        return scaled_weights([arc.weight for arc in self.arcs])


@dataclass
class FlowSolution:
    status: str                              # optimal | infeasible | unbounded
    flow: Optional[tuple[int, ...]] = None
    boundary: Optional[IntVector] = None
    objective: ExtValue = INF

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def boundary(flow: Sequence[int], network: FlowNetwork) -> IntVector:
    """Per-node inflow minus outflow of a flow vector."""
    if len(flow) != len(network.arcs):
        raise InvalidInputError("flow dimension does not match the arc count")
    values = [0] * network.num_nodes
    for xi, arc in zip(flow, network.arcs):
        values[arc.head] += xi
        values[arc.tail] -= xi
    return IntVector(tuple(values))


def flow_objective(h: MnatFunction, network: FlowNetwork,
                   flow: Sequence[int]) -> ExtValue:
    weights, scale = network.weight_units
    linear = sum(w * xi for w, xi in zip(weights, flow))
    return h.value(boundary(flow, network)) + Fraction(linear, scale)


# ---------------------------------------------------------------------------
# Negative-cycle canceling
# ---------------------------------------------------------------------------

def _aux_arcs(h: MnatFunction, network: FlowNetwork, flow: Sequence[int],
              current: IntVector,
              base_value: Fraction) -> tuple[list[tuple], int]:
    """The residual arcs of `flow`, then the exchange arcs of h at its
    boundary `current` (where h is finite), with int costs over one scale
    S, and S.

    Each arc is a `(tail, head, cost, arc_index, direction)` tuple: the
    cost in units of 1/S; for a residual arc, its network arc and +1 for
    a push or -1 for a retraction; for an exchange arc, -1 and 0.

    S is the lcm of the network's weight denominator and the denominators
    of the values asked.  An exchange move that leaves the box has
    infinite cost and is skipped without asking h.  A pair inside one
    block costs part(z_B + e_x - e_y) - part(z_B); a pair across blocks
    costs up[x] + down[y], the unit-move deltas of the two blocks, and is
    skipped when either is infinite.  An h without `blocks` is its own
    single block at base value `base_value`.  Every query goes through
    the parts' `moved`.
    """
    z = current.entries
    dimension = h.dimension
    lower, upper = h.box_lower, h.box_upper
    blocks = getattr(h, "blocks", None)
    if blocks:
        points = [z[off:off + part.dimension] for off, part in blocks]
        bases = [part.moved(point, -1, -1).finite
                 for (_, part), point in zip(blocks, points)]
    else:
        blocks, points, bases = ((0, h),), [z], [base_value]
    block_of = [b for b, (_, part) in enumerate(blocks)
                for _ in range(part.dimension)]
    asked = list(bases)   # the finite values asked, for the scale
    up: list[Optional[Fraction]] = [None] * dimension
    down: list[Optional[Fraction]] = [None] * dimension
    if len(blocks) > 1:
        for v in range(dimension):
            b = block_of[v]
            off, part = blocks[b]
            if z[v] != upper[v]:
                moved = part.moved(points[b], v - off, -1)
                if moved.is_finite:
                    up[v] = moved.finite
                    asked.append(up[v])
            if z[v] != lower[v]:
                moved = part.moved(points[b], -1, v - off)
                if moved.is_finite:
                    down[v] = moved.finite
                    asked.append(down[v])
    # (x, y, value of the moved block) inside a block, (x, y, None) across.
    pairs: list[tuple[int, int, Optional[Fraction]]] = []
    for x in range(dimension):
        if z[x] == upper[x]:
            continue
        bx = block_of[x]
        off, part = blocks[bx]
        point = points[bx]
        for y in range(dimension):
            if y == x or z[y] == lower[y]:
                continue
            if block_of[y] == bx:
                moved = part.moved(point, x - off, y - off)
                if moved.is_finite:
                    value = moved.finite
                    asked.append(value)
                    pairs.append((x, y, value))
            elif up[x] is not None and down[y] is not None:
                pairs.append((x, y, None))

    weights, weight_scale = network.weight_units
    scale = math.lcm(weight_scale, *{value.denominator for value in asked})

    def units(value: Fraction) -> int:
        return value.numerator * (scale // value.denominator)

    factor = scale // weight_scale
    arcs = []
    for i, arc in enumerate(network.arcs):
        xi = flow[i]
        if arc.upper is None or xi < arc.upper:
            arcs.append((arc.tail, arc.head, weights[i] * factor, i, +1))
        if arc.lower is None or xi > arc.lower:
            arcs.append((arc.head, arc.tail, -weights[i] * factor, i, -1))
    base_units = [units(base) for base in bases]
    up_units = [None if value is None else units(value) - base_units[b]
                for value, b in zip(up, block_of)]
    down_units = [None if value is None else units(value) - base_units[b]
                  for value, b in zip(down, block_of)]
    for x, y, value in pairs:
        cost = up_units[x] + down_units[y] if value is None \
            else units(value) - base_units[block_of[x]]
        arcs.append((x, y, cost, -1, 0))
    return arcs, scale


def _has_negative_cycle(num_nodes: int, arcs: list[tuple]) -> bool:
    """Bellman-Ford from a virtual source joined to every node at cost 0,
    over the arc tuples of `_aux_arcs`.

    Without a negative cycle every shortest path has at most N - 1 arcs,
    so some round among the first N changes nothing, and the settled
    `dist` is a potential under which every arc has a nonnegative reduced
    cost.  With one, no round settles, and the search ends at the first
    round after which the parent links (the tail of the arc that last
    lowered each node) close a cycle.  Such a cycle is negative: when its
    last link was set, that arc strictly lowered its head, and every
    other link's head was at least its tail plus the arc cost, so the
    costs around the cycle sum below zero.
    """
    dist = [0] * num_nodes
    parent = [-1] * num_nodes
    for _ in range(num_nodes):
        changed = False
        for tail, head, cost, _arc_index, _direction in arcs:
            reached = dist[tail] + cost
            if reached < dist[head]:
                dist[head] = reached
                parent[head] = tail
                changed = True
        if not changed:
            return False
        if _closes_cycle(parent):
            return True
    return num_nodes > 0


def _closes_cycle(parent: list[int]) -> bool:
    """Whether following the links (-1: none) from some node comes back
    to a node of the same walk."""
    walk_of = [-1] * len(parent)
    for start in range(len(parent)):
        node = start
        while node >= 0 and walk_of[node] < 0:
            walk_of[node] = start
            node = parent[node]
        if node >= 0 and walk_of[node] == start:
            return True
    return False


def _find_negative_cycles(num_nodes: int, arcs: list[tuple]):
    """Yield negative cycles ordered by (arc count, cost, anchor node).

    If the Bellman-Ford gate settles there is no negative cycle and
    nothing is yielded.  Otherwise dynamic programming over walk length:
    the first length at which a negative closed walk appears yields a
    simple cycle (a shorter negative closed walk would exist otherwise).
    Longer candidates may repeat arcs and are validated by the caller
    before use.

    Each source u keeps a row of its cheapest walks of L - 1 arcs.  At
    length L the closed walk at u is first taken over u's in-arcs, in
    index order and on strict improvement, and the negative ones are
    yielded; only a caller that asks for more pays for extending every
    row by one arc, from the tails the row has reached along their
    out-arcs.  A walk of equal cost keeps the lower last-arc index, so
    every parent is the lowest-index arc among the cheapest, whatever the
    order of the tails.
    """
    if not _has_negative_cycle(num_nodes, arcs):
        return
    nodes = range(num_nodes)
    in_arcs: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
    out_arcs: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
    for idx, (tail, head, cost, _arc_index, _direction) in enumerate(arcs):
        in_arcs[head].append((tail, cost, idx))
        out_arcs[tail].append((head, cost, idx))
    # best[u][v]: cheapest walk u -> v with exactly L - 1 arcs (None: no
    # walk); parent[u][k-1][v]: the last arc of that walk with k arcs.
    best: list[list[Optional[int]]] = [[None] * num_nodes for _ in nodes]
    parent: list[list[list[int]]] = [[] for _ in nodes]
    for u in nodes:
        best[u][u] = 0
    for length in range(1, num_nodes + 1):
        negatives = []
        for u in nodes:
            reach = best[u]
            closed = None
            closing = -1
            for tail, cost, idx in in_arcs[u]:
                prev = reach[tail]
                if prev is not None:
                    walk = prev + cost
                    if closed is None or walk < closed:
                        closed = walk
                        closing = idx
            if closed is not None and closed < 0:
                negatives.append((closed, u, closing))
        negatives.sort()
        for _cost, anchor, closing in negatives:
            yield _reconstruct_cycle(arcs, parent[anchor], closing)
        if length == num_nodes:
            return
        for u in nodes:
            new_reach: list[Optional[int]] = [None] * num_nodes
            new_parent = [-1] * num_nodes
            for tail, prev in enumerate(best[u]):
                if prev is None:
                    continue
                for head, cost, idx in out_arcs[tail]:
                    walk = prev + cost
                    held = new_reach[head]
                    if held is None or walk < held \
                            or walk == held and idx < new_parent[head]:
                        new_reach[head] = walk
                        new_parent[head] = idx
            best[u] = new_reach
            parent[u].append(new_parent)


def _reconstruct_cycle(arcs: list[tuple], rows: list[list[int]],
                       closing: int) -> list[tuple]:
    """The cycle closed by arc `closing` into its anchor, whose earlier
    arcs are read back through the anchor's parent rows."""
    arc = arcs[closing]
    cycle = [arc]
    for row in reversed(rows):
        arc = arcs[row[arc[0]]]
        cycle.append(arc)
    cycle.reverse()
    return cycle


def _apply_cycle(network: FlowNetwork, flow: list[int],
                 cycle: list[tuple]) -> Optional[list[int]]:
    """Apply one unit around a cycle; None if capacities cannot take it."""
    new_flow = list(flow)
    for _tail, _head, _cost, idx, direction in cycle:
        if direction == 0:
            continue
        new_flow[idx] += direction
        net_arc = network.arcs[idx]
        if net_arc.upper is not None and new_flow[idx] > net_arc.upper:
            return None
        if net_arc.lower is not None and new_flow[idx] < net_arc.lower:
            return None
    return new_flow


def _infinitely_repeatable(network: FlowNetwork, cycle: list[tuple]) -> bool:
    """A cycle of residual arcs whose capacities never bind is repeatable
    forever; a negative one witnesses unboundedness."""
    for _tail, _head, _cost, idx, direction in cycle:
        if direction == 0:
            return False
        net_arc = network.arcs[idx]
        if direction > 0 and net_arc.upper is not None:
            return False
        if direction < 0 and net_arc.lower is not None:
            return False
    return True


def _cancel_negative_cycles(
        h: MnatFunction, network: FlowNetwork, flow: list[int],
        stop: Optional[Callable[[Sequence[int]], bool]] = None,
) -> tuple[list[int], str]:
    """Descend to a negative-cycle-free (hence optimal) flow.

    Candidate cycles come in fewest-arcs-first order; the first one whose
    application keeps capacities and strictly decreases the exact
    objective is taken.  Returns the final flow and a status string.
    """
    current = flow
    current_obj = flow_objective(h, network, current)
    if not current_obj.is_finite:
        raise InternalInvariantError("cycle canceling started infeasible")
    for _ in range(MAX_CANCEL_ITERATIONS):
        if stop is not None and stop(current):
            return current, "stopped"
        bnd = boundary(current, network)
        aux, _scale = _aux_arcs(h, network, current, bnd,
                                h.value(bnd).finite)
        improved = False
        had_candidate = False
        for cycle in _find_negative_cycles(network.num_nodes, aux):
            had_candidate = True
            if _infinitely_repeatable(network, cycle):
                return current, "unbounded"
            candidate = _apply_cycle(network, current, cycle)
            if candidate is None:
                continue
            candidate_obj = flow_objective(h, network, candidate)
            if candidate_obj < current_obj:
                current = candidate
                current_obj = candidate_obj
                improved = True
                break
        if not improved:
            if had_candidate:
                raise InternalInvariantError(
                    "negative cycles remain but none improves the objective")
            return current, "optimal"
    raise ResourceLimitError("cycle canceling exceeded the iteration cap")


def solve_mnat_flow(h: MnatFunction, network: FlowNetwork,
                    start: Sequence[int]) -> FlowSolution:
    """Minimize h(boundary) + weighted flow over integer feasible flows,
    by canceling negative cycles from the feasible flow `start`."""
    if h.dimension != network.num_nodes:
        raise InvalidInputError("h dimension must equal the node count")
    flow = list(start)
    if not flow_objective(h, network, flow).is_finite:
        raise InvalidInputError("provided starting flow is infeasible")
    final, status = _cancel_negative_cycles(h, network, flow)
    if status == "unbounded":
        return FlowSolution("unbounded")
    bnd = boundary(final, network)
    return FlowSolution("optimal", tuple(final), bnd,
                        flow_objective(h, network, final))


# ---------------------------------------------------------------------------
# Reduction of the cardinality-coupled problem
# ---------------------------------------------------------------------------

@dataclass
class CoupledInstance:
    """The flow encoding of min f1(x1) + f2(x2) + w(min(x1,x2)),
    sum of min(x1,x2) >= k.

    Nodes: copy-1 elements, then s, then copy-2 elements, then t.  Arc i
    of the identity block carries weight w(v); the side arcs to t and from
    s absorb the surplus of each copy.  The two extra coordinates of h are
    interval indicators whose widths encode the coupling bound.
    """

    f1: MnatFunction
    f2: MnatFunction
    k: int
    weights: tuple[Fraction, ...]
    h: MnatFunction
    h_feasibility: MnatFunction
    network: FlowNetwork

    @property
    def n(self) -> int:
        return self.f1.dimension

    def identity_arc(self, v: int) -> int:
        return v

    def to_sink_arc(self, v: int) -> int:
        return self.n + v

    def from_source_arc(self, v: int) -> int:
        return 2 * self.n + v


@dataclass
class CoupledSolution:
    status: str
    x1: Optional[IntVector] = None
    x2: Optional[IntVector] = None
    value: ExtValue = INF

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _coupling_weights(f1: MnatFunction, f2: MnatFunction,
                      weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The weights as Fractions, once the pair and the weights are checked
    to be an input of the coupled problem."""
    if f2.dimension != f1.dimension:
        raise InvalidInputError("functions have different dimensions")
    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != f1.dimension:
        raise InvalidInputError("need one weight per element")
    if any(w > 0 for w in ws):
        raise InvalidInputError("coupling weights must be nonpositive")
    if any(lo < 0 for lo in f1.box_lower) or any(lo < 0 for lo in f2.box_lower):
        raise InvalidInputError("domains must lie in the nonnegative orthant")
    return ws


def build_mgeqk_instance(f1: MnatFunction, f2: MnatFunction, k: int,
                         weights: Sequence[Fraction]) -> CoupledInstance:
    """Build the flow instance for the coupled problem with w <= 0.

    The boundary at a copy-1 node is -x1(v), at a copy-2 node x2(v); the
    s and t coordinates are minus the copy-2 surplus and the copy-1
    surplus, within [0, r2 - k] and [0, r1 - k].  So h is the direct sum
    of x -> f1(-x), the indicator of [k - r2, 0], f2 and the indicator of
    [0, r1 - k]; `h_feasibility` is the indicator of the same sum with
    k = 0.  All arcs have lower capacity 0; upper capacities are the box
    bounds, which no flow with finite h can exceed.
    """
    n = f1.dimension
    ws = _coupling_weights(f1, f2, weights)
    r1 = f1.rank_total()
    r2 = f2.rank_total()
    if not 0 <= k <= min(r1, r2):
        raise InvalidInputError(f"k={k} out of range 0..min({r1},{r2})")

    h = direct_sum((NegatedMnat(f1), interval_indicator(k - r2, 0, 0),
                    f2, interval_indicator(0, r1 - k, 0)), "coupled-h")
    h_feas = direct_sum((NegatedMnat(f1), interval_indicator(-r2, 0, 0),
                         f2, interval_indicator(0, r1, 0)),
                        "coupled-h-feas", indicator=True)
    arcs = []
    for v in range(n):
        cap = min(f1.box_upper[v], f2.box_upper[v])
        arcs.append(FlowArc(v, n + 1 + v, 0, cap, ws[v]))
    for v in range(n):
        arcs.append(FlowArc(v, 2 * n + 1, 0, f1.box_upper[v], Fraction(0)))
    for v in range(n):
        arcs.append(FlowArc(n, n + 1 + v, 0, f2.box_upper[v], Fraction(0)))
    network = FlowNetwork(2 * n + 2, tuple(arcs))
    return CoupledInstance(f1, f2, k, ws, h, h_feas, network)


def solution_to_flow(x1: IntVector, x2: IntVector,
                     instance: CoupledInstance) -> list[int]:
    """The canonical flow of a solution pair: identity arcs carry the
    componentwise minimum, side arcs the one-sided surpluses."""
    n = instance.n
    flow = [0] * len(instance.network.arcs)
    for v in range(n):
        low = min(x1[v], x2[v])
        flow[instance.identity_arc(v)] = low
        flow[instance.to_sink_arc(v)] = x1[v] - low
        flow[instance.from_source_arc(v)] = x2[v] - low
    return flow


def flow_to_solution(flow: Sequence[int],
                     instance: CoupledInstance) -> tuple[IntVector, IntVector,
                                                         list[int]]:
    """Read a solution pair off a feasible flow, rerouting first.

    Rerouting moves, per element, the common part of the two side flows
    onto the identity arc; the boundary is unchanged and with nonpositive
    weights the objective cannot increase.  Afterwards one side arc per
    element is zero and the pair is read off directly.
    """
    n = instance.n
    rerouted = list(flow)
    for v in range(n):
        spill_out = rerouted[instance.to_sink_arc(v)]
        spill_in = rerouted[instance.from_source_arc(v)]
        shift = min(spill_out, spill_in)
        if shift > 0:
            rerouted[instance.identity_arc(v)] += shift
            rerouted[instance.to_sink_arc(v)] -= shift
            rerouted[instance.from_source_arc(v)] -= shift
    x1 = IntVector(tuple(rerouted[instance.identity_arc(v)]
                         + rerouted[instance.to_sink_arc(v)]
                         for v in range(n)))
    x2 = IntVector(tuple(rerouted[instance.identity_arc(v)]
                         + rerouted[instance.from_source_arc(v)]
                         for v in range(n)))
    return x1, x2, rerouted


def coupled_objective(instance: CoupledInstance, x1: IntVector,
                      x2: IntVector) -> ExtValue:
    v1 = instance.f1.value(x1)
    v2 = instance.f2.value(x2)
    if not (v1.is_finite and v2.is_finite):
        return INF
    low = componentwise_min(x1, x2)
    coupling = sum((w * low[v] for v, w in enumerate(instance.weights)),
                   Fraction(0))
    return v1 + v2 + coupling


def solve_m_geq_k_w(f1: MnatFunction, f2: MnatFunction, k: int,
                    weights: Sequence[Fraction]) -> CoupledSolution:
    """Minimize f1(x1) + f2(x2) + w(min(x1, x2)) subject to
    sum_v min(x1(v), x2(v)) >= k, for nonpositive w.

    Phase 1 maximizes the identity-arc mass (an indicator-cost flow
    problem) starting from the witness pair; reaching k proves
    feasibility, and exhausting improvements below k proves infeasibility.
    Phase 2 descends on the true objective from the phase-1 flow.
    """
    _coupling_weights(f1, f2, weights)
    if k > min(f1.rank_total(), f2.rank_total()):
        return CoupledSolution("infeasible")
    instance = build_mgeqk_instance(f1, f2, k, weights)
    start = solution_to_flow(f1.require_witness(), f2.require_witness(),
                             instance)
    n = instance.n

    def identity_mass(flow: Sequence[int]) -> int:
        return sum(flow[instance.identity_arc(v)] for v in range(n))

    if identity_mass(start) < k:
        feas_net = FlowNetwork(instance.network.num_nodes, tuple(
            FlowArc(arc.tail, arc.head, arc.lower, arc.upper,
                    Fraction(-1) if i < n else Fraction(0))
            for i, arc in enumerate(instance.network.arcs)))
        start, status = _cancel_negative_cycles(
            instance.h_feasibility, feas_net, start,
            stop=lambda fl: identity_mass(fl) >= k)
        if status == "unbounded":
            raise InternalInvariantError("feasibility phase became unbounded")
        if identity_mass(start) < k:
            return CoupledSolution("infeasible")
    final, status = _cancel_negative_cycles(instance.h, instance.network,
                                            list(start))
    if status != "optimal":
        raise InternalInvariantError(f"descent ended with status {status}")
    x1, x2, rerouted = flow_to_solution(final, instance)
    value = coupled_objective(instance, x1, x2)
    flow_value = flow_objective(instance.h, instance.network, rerouted)
    if value != flow_value:
        raise InternalInvariantError(
            "solution and flow objectives disagree after rerouting")
    return CoupledSolution("optimal", x1, x2, value)
