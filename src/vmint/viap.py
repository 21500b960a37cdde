"""Augmenting-path solver for intersection-constrained valuated matroid pairs.

Solves, over two valuated matroids omega_1 and omega_2 on the same ground
set, the problems of minimizing omega_1(X_1) + omega_2(X_2) subject to
|X_1 intersect X_2| >= k or = k.

The solver maintains a pair (X_1, X_2) that is optimal for the current
intersection size together with one potential p and the matched set
F = X_1 intersect X_2 certifying that optimality: X_1 minimizes
omega_1 - p and X_2 minimizes omega_2 + p (the valuated independent
assignment criterion, Murota 2003).  Each round builds an auxiliary
digraph on two copies of the ground set whose exchange arcs carry
reduced-cost lengths, finds a shortest source-sink path (fewest arcs among
the shortest), applies the exchanges along it, and raises p by the capped
shortest-path distances, which agree on the two copies.  Every round grows
the intersection by exactly one and keeps the optimality certificate
valid.

Arc lengths are exact and must be nonnegative; a negative length means a
precondition was violated and is reported as an internal error.  The
ladder runs on integers: with oracle denominators D1 and D2 (see
`ValuationOracle.scale`) and the potentials' denominators, every value,
potential, arc length and distance lies in (1/S)Z for their lcm S, so
they are all kept as ints in units of 1/S, which keeps every comparison
and tie.  `Fraction` appears only where a `Witness` or a ladder value is
read, and where the rational potential of a `Witness` from elsewhere
is put in units (`in_units`).  A `Witness` and a report write p twice, as
p1 and p2; only there do two copies exist.

The aux digraph is kept as rows: one list of `(head, length)` pairs per
node, which the search relaxes directly.  An arc is known by its end
nodes: the search returns its path as `(tail, head)` pairs, and
`apply_path` reads each arc's exchange or matching off its end nodes.

Checking: `_exchange_lengths`, which computes the exchange rows of
`build_aux_digraph`, is the one place that rejects a negative reduced
cost.  It asks each copy's exchanges as one block of the oracle (see
`ValuationOracle.raw_exchanges`), in full before it checks that copy's
lengths, so a scan that raises has still asked every pair of each block
it reached.  An exchange arc's length is exactly the local exchange
inequality of the certificate for its (u, v) pair, so an aux build that
raises no error proves that X1 and X2 minimize the shifted valuations.
After every step the structural invariants (intersection grown by one,
matched set equal to the intersection, potential conditions) are
checked; the aux build of a level and those checks together check that
level's full certificate.  Every level but the last gets an aux build;
the last gets the same rows once more at the end of the ladder, on its
int potential and without building the graph, unless the run stopped
because the sink was unreachable, whose aux build already checked it.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    INF,
    ExtValue,
    InternalInvariantError,
    InvalidInputError,
    Subset,
    intersection_cardinality,
)
from .greedy import minimize_valuated
from .valuated import ValuationOracle, dual_valuation

@dataclass
class AuxDigraph:
    """Auxiliary digraph on V1 + V2 + {s, t} with nonnegative arc lengths.

    Node 0 is the source s, node 1 + v the copy v1 of element v, node
    1 + n + v its copy v2, and node 2n + 1 the sink t.  `adjacency[node]`
    is the node's row: its arcs as `(head, length)` pairs, every length
    in units of 1/scale.  An arc of the aux build is known by its tail
    and head alone (see `apply_path`).
    """

    n: int
    adjacency: list[list[tuple[int, int]]]
    scale: int = 1

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 2 * self.n + 1

    def node_v1(self, v: int) -> int:
        return 1 + v

    def node_v2(self, v: int) -> int:
        return 1 + self.n + v


@dataclass(frozen=True)
class Witness:
    """Potential and matched set certifying optimality of a solution pair.

    The certificate asserts: X1 minimizes omega_1 - p, X2 minimizes
    omega_2 + p, and F is a k-element subset of the intersection with
    X1 \\ F inside argmin p and X2 \\ F inside argmax p.  The potential p
    is written twice, as p1 and p2, as reports print it; a witness whose
    two copies differ certifies nothing.
    """

    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]
    matched: Subset
    k: int


@dataclass
class IntersectionSolution:
    """Outcome of an intersection-constrained solve."""

    status: str                       # "optimal" | "infeasible"
    x1: Optional[Subset] = None
    x2: Optional[Subset] = None
    value: ExtValue = INF
    witness: Optional[Witness] = None
    k: int = 0
    mode: str = "geq"                 # "geq" | "eq-direct" | "eq-dual" | "leq"
    oracle_calls: int = 0
    last_feasible: Optional["IntersectionSolution"] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class ViapState:
    """One level of the ladder: the solver's pair, matched set, potential
    and value.

    The potential p is in units of 1/scale, where scale is a multiple of
    both oracles' denominators.  `value`, omega_1(X1) + omega_2(X2), is
    evaluated once, when the state is made.
    """

    omega1: ValuationOracle
    omega2: ValuationOracle
    x1: Subset
    x2: Subset
    p: tuple[int, ...]
    matched: Subset
    scale: int = 1
    value: ExtValue = field(init=False)

    def __post_init__(self):
        if self.scale % self.omega1.scale or self.scale % self.omega2.scale:
            raise InvalidInputError(
                f"potential scale {self.scale} is not a multiple of the "
                "oracles' denominators")
        self.value = self.omega1.value(self.x1) + self.omega2.value(self.x2)

    @property
    def level(self) -> int:
        return intersection_cardinality(self.x1, self.x2)

    @property
    def witness(self) -> Witness:
        p = tuple(Fraction(v, self.scale) for v in self.p)
        return Witness(p, p, self.matched, self.level)


def in_units(omega1: ValuationOracle, omega2: ValuationOracle,
             p: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """A rational potential as ints in units of 1/S, and S: the lcm of both
    oracles' denominators and the potential's denominators."""
    scale = math.lcm(omega1.scale, omega2.scale,
                     *(v.denominator for v in p))
    return tuple(v.numerator * (scale // v.denominator) for v in p), scale


_LENGTH = operator.itemgetter(1)


def _exchange_lengths(x1: Subset, x2: Subset, p: Sequence[int], scale: int,
                      omega1: ValuationOracle, omega2: ValuationOracle,
                      ) -> tuple[list, list]:
    """The exchange arcs of the auxiliary digraph, as rows.

    Returns `(rows1, rows2)`, two lists indexed by element: `rows1[u]` is
    the A1 row of node u1 for u in X1, its arcs to v1 for v outside X1,
    and `rows2[v]` the A2 row of node v2 for v outside X2, its arcs to u2
    for u in X2; each arc is a `(head node, length)` pair, in that element
    order, and every other entry is an empty tuple.  The potential and
    the lengths are in units of 1/scale, a multiple of both oracles'
    denominators; each length is the reduced-cost change of its single
    exchange.  This routine is the one place that rejects a negative
    reduced cost: it raises on the first one, A1 rows by u and then A2
    rows by v, and when the current sets leave the effective domains.

    Each copy's exchanges are asked in one block query (see
    `ValuationOracle.raw_exchanges`), X1's before any length is checked
    and X2's after every A1 row has passed, so a copy's block is asked in
    full before any of its lengths is checked.  The A2 block is asked
    u-major, like every block, and read v-major by stride.
    """
    base1 = omega1.raw_value(x1)
    base2 = omega2.raw_value(x2)
    if base1 is None or base2 is None:
        raise InternalInvariantError("current sets left the effective domains")
    n = omega1.ground.size
    rows1: list = [()] * n
    rows2: list = [()] * n
    members1 = x1.members()
    outside1 = [v for v in range(n) if not x1.mask >> v & 1]
    block1 = _in_units(omega1.raw_exchanges(x1, members1, outside1),
                       scale // omega1.scale)
    heads = [1 + v for v in outside1]
    offsets = [p[v] for v in outside1]
    width = len(outside1)
    shift = base1 * (scale // omega1.scale)
    for i, u in enumerate(members1):
        pu = p[u] - shift
        row = [(head, moved + pu - pv) for head, pv, moved
               in zip(heads, offsets, block1[i * width:(i + 1) * width])
               if moved is not None]
        if row and min(row, key=_LENGTH)[1] < 0:
            raise _negative_length(row, scale, "A1")
        rows1[u] = row
    members2 = x2.members()
    outside2 = [v for v in range(n) if not x2.mask >> v & 1]
    block2 = _in_units(omega2.raw_exchanges(x2, members2, outside2),
                       scale // omega2.scale)
    heads = [1 + n + u for u in members2]
    offsets = [p[u] for u in members2]
    width = len(outside2)
    shift = base2 * (scale // omega2.scale)
    for j, v in enumerate(outside2):
        pv = p[v] - shift
        row = [(head, moved + pv - pu) for head, pu, moved
               in zip(heads, offsets, block2[j::width])
               if moved is not None]
        if row and min(row, key=_LENGTH)[1] < 0:
            raise _negative_length(row, scale, "A2")
        rows2[v] = row
    return rows1, rows2


def _in_units(block: list, factor: int) -> list:
    """Raw oracle values times `factor`, None kept."""
    if factor == 1:
        return block
    return [None if value is None else value * factor for value in block]


def _negative_length(row: list, scale: int,
                     kind: str) -> InternalInvariantError:
    """The error for the first negative length of a row."""
    length = next(length for _, length in row if length < 0)
    return InternalInvariantError(
        f"negative arc length {Fraction(length, scale)} on {kind} arc; "
        "current sets are not minimizers of the shifted valuations")


def build_aux_digraph(x1: Subset, x2: Subset, p: Sequence[int],
                      matched: Subset,
                      omega1: ValuationOracle,
                      omega2: ValuationOracle,
                      scale: int) -> AuxDigraph:
    """Construct the auxiliary digraph for the current solver state.

    Arc classes: one edge arc per element (copy 1 to copy 2), one reverse
    arc per matched element, exchange arcs within each copy carrying the
    reduced-cost change of the corresponding single exchange (from
    :func:`_exchange_lengths`, which rejects a negative one), source arcs
    into X1 \\ X2 and sink arcs out of X2 \\ X1.  Exchange arc lengths are
    nonnegative exactly when X1 and X2 minimize the shifted valuations.

    The graph keeps one row per node, its arcs as `(head, length)` pairs
    (see `AuxDigraph`): the source's arcs by element; a copy-1 node's
    edge arc, then its A1 arcs; a copy-2 node's matched arc, then its A2
    arcs, then its sink arc.  The potential is in units of 1/scale, a
    multiple of both oracles' denominators, as `ViapState` keeps it
    (:func:`in_units` puts a rational potential in units); so are the
    graph's arc lengths.
    """
    n = omega1.ground.size
    rows1, rows2 = _exchange_lengths(x1, x2, p, scale, omega1, omega2)
    mask1, mask2, mask_f = x1.mask, x2.mask, matched.mask
    only1, only2 = mask1 & ~mask2, mask2 & ~mask1
    sink = 2 * n + 1
    adjacency = [[(1 + v, 0) for v in range(n) if only1 >> v & 1]]
    adjacency += [[(1 + n + u, 0), *row] for u, row in enumerate(rows1)]
    for v, row in enumerate(rows2):
        out = [(1 + v, 0), *row] if mask_f >> v & 1 else list(row)
        if only2 >> v & 1:
            out.append((sink, 0))
        adjacency.append(out)
    adjacency.append([])
    return AuxDigraph(n, adjacency, scale)


def shortest_path_with_hop_tiebreak(
        graph: AuxDigraph,
) -> tuple[list[Optional[int]], list[int],
           Optional[list[tuple[int, int]]]]:
    """Label-setting search on the lexicographic key (length, hop count).

    Returns per-node distances (None for unreachable) in the graph's
    units of 1/scale, the parent of each node on its shortest path as the
    tail of its last arc (-1 for the source and unreachable nodes), and
    the arcs of a shortest source-sink path with the fewest arcs among
    the shortest, as `(tail, head)` pairs read off the parents, or None
    when the sink is unreachable.

    The search relaxes the rows on (length, hops, node) heap keys, all in
    units of the graph's 1/scale: ints for a graph that the aux build
    made from scaled oracles.  A label moves only on a strict
    improvement, so a node's last arc is the first arc in its parent's
    row that reaches it at its distance.
    """
    adjacency = graph.adjacency
    size = len(adjacency)
    dist: list[Optional[int]] = [None] * size
    hops: list[int] = [0] * size
    parent: list[int] = [-1] * size
    done = [False] * size
    dist[graph.source] = 0
    heap: list[tuple[int, int, int]] = [(0, 0, graph.source)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, h, node = pop(heap)
        if done[node]:
            continue
        done[node] = True
        nh = h + 1
        for head, length in adjacency[node]:
            nd = d + length
            old = dist[head]
            if old is None or nd < old or (nd == old and nh < hops[head]):
                dist[head] = nd
                hops[head] = nh
                parent[head] = node
                push(heap, (nd, nh, head))
    if dist[graph.sink] is None:
        return dist, parent, None
    path: list[tuple[int, int]] = []
    node = graph.sink
    while node != graph.source:
        tail = parent[node]
        path.append((tail, node))
        node = tail
    path.reverse()
    return dist, parent, path


def apply_path(x1: Subset, x2: Subset, matched: Subset,
               path: Sequence[tuple[int, int]],
               n: int) -> tuple[Subset, Subset, Subset]:
    """The sets and matched set after the exchanges along an aux path.

    Each `(tail, head)` arc is read off its end nodes (see `AuxDigraph`):
    u1 -> v1 is X1 - u + v, v2 -> u2 is X2 - u + v, v1 -> v2 matches v,
    v2 -> v1 unmatches v, and source and sink arcs change nothing.
    """
    sink = 2 * n + 1
    for tail, head in path:
        if tail == 0 or head == sink:
            continue
        if tail <= n:
            if head <= n:
                x1 = x1.exchange(tail - 1, head - 1)
            else:
                matched = matched.add(tail - 1)
        elif head <= n:
            matched = matched.remove(head - 1)
        else:
            x2 = x2.exchange(head - 1 - n, tail - 1 - n)
    return x1, x2, matched


def augment_step(state: ViapState) -> Optional[ViapState]:
    """One augmentation: grow the intersection by one, keep optimality.

    Returns the new state, or None when the sink is unreachable, which
    proves that no feasible pair with a larger intersection exists.
    Exchanges are applied arc-wise along the path (`apply_path`): each
    exchange arc swaps one element of its copy, each edge arc matches its
    element, each reverse arc unmatches it; the potential then grows by
    the shortest-path distances capped at the sink distance, all in the
    state's units.  Those capped distances must agree on the two copies
    of each element, or the two copies of the potential would part.
    """
    graph = build_aux_digraph(state.x1, state.x2, state.p, state.matched,
                              state.omega1, state.omega2, state.scale)
    dist, _parent, path = shortest_path_with_hop_tiebreak(graph)
    if path is None:
        return None
    n = graph.n
    x1, x2, matched = apply_path(state.x1, state.x2, state.matched, path, n)
    d_sink = dist[graph.sink]
    assert d_sink is not None
    capped = [d_sink if d is None or d > d_sink else d
              for d in dist[1:2 * n + 1]]
    if capped[:n] != capped[n:]:
        raise InternalInvariantError("potentials on the two copies disagree")
    p = tuple(pv + d for pv, d in zip(state.p, capped))
    new_state = ViapState(state.omega1, state.omega2, x1, x2, p, matched,
                          state.scale)
    _check_state(new_state, expected_intersection=state.level + 1)
    return new_state


def _potential_fault(x1: Subset, x2: Subset, matched: Subset,
                     p: Sequence) -> Optional[str]:
    """The first potential condition of the certificate that fails, or None.

    The conditions: X1 \\ F lies in argmin p and X2 \\ F lies in argmax p.
    """
    min_p = min(p)
    if any(p[v] != min_p for v in x1.minus(matched).members()):
        return "X1 \\ F left argmin p"
    max_p = max(p)
    if any(p[v] != max_p for v in x2.minus(matched).members()):
        return "X2 \\ F left argmax p"
    return None


def _check_state(state: ViapState, expected_intersection: int) -> None:
    """Structural loop invariants checked after every augmentation (exact).

    The exchange inequalities of the certificate are not re-checked here:
    the next aux build rejects any that fail, and `run_ladder` verifies
    the top level, which has no next aux build.
    """
    inter = state.x1.intersection(state.x2)
    if inter.cardinality() != expected_intersection:
        raise InternalInvariantError("intersection did not grow by exactly 1")
    if state.matched.mask != inter.mask:
        raise InternalInvariantError("matched set drifted from the intersection")
    fault = _potential_fault(state.x1, state.x2, state.matched, state.p)
    if fault is not None:
        raise InternalInvariantError(fault)
    if min(state.p) != 0:
        raise InternalInvariantError("minimum of p is not zero")


def verify_witness(x1: Subset, x2: Subset, witness: Witness, k: int,
                   omega1: ValuationOracle, omega2: ValuationOracle) -> bool:
    """Check the optimality certificate for a pair feasible at level k.

    Verifies that the witness writes one potential p, one entry per
    element, on both copies (p1 = p2), that its matched set F has size k
    and lies inside the intersection, the potential conditions of
    `_potential_fault`, and that X1 and X2 minimize the shifted valuations
    omega_1 - p and omega_2 + p.
    Minimality is checked by the local exchange criterion, which is
    equivalent to global minimality for valuated matroids: the exchange
    rows of the aux build, computed without building the graph, reject
    exactly a negative exchange.
    """
    p, matched = witness.p1, witness.matched
    if len(p) != omega1.ground.size or tuple(p) != tuple(witness.p2):
        return False
    if matched.cardinality() != k:
        return False
    if not matched.is_subset_of(x1.intersection(x2)):
        return False
    if _potential_fault(x1, x2, matched, p) is not None:
        return False
    q, scale = in_units(omega1, omega2, p)
    try:
        _exchange_lengths(x1, x2, q, scale, omega1, omega2)
    except InternalInvariantError:
        return False
    return True


@dataclass
class LadderResult:
    entries: list[ViapState]
    infeasible_beyond: bool
    oracle_calls: int


def run_ladder(omega1: ValuationOracle, omega2: ValuationOracle, k_max: int,
               start: Optional[tuple[Subset, Subset]] = None) -> LadderResult:
    """Augment from unconstrained minimizers up to intersection k_max.

    The entries are the states the run visits, one per level.  The entry
    at level i is an optimal solution of the >=i problem with
    intersection exactly i; for levels at or above the starting
    intersection these are therefore also optima of the =i problem.
    Levels below the starting intersection are not visited.

    `start`, when given, must be a pair of unconstrained minimizers; the
    equality solver passes the complemented pair here so that the dualized
    run begins strictly below its target level.

    The top entry's exchange rows are checked once after the last
    augmentation, whose structural checks covered the rest of its
    certificate; every lower level was checked by the aux build that left
    it (see the module docstring).
    """
    calls_before = omega1.calls + omega2.calls
    if omega2.ground != omega1.ground:
        raise InvalidInputError("valuations live on different ground sets")
    if start is None:
        x1, _ = minimize_valuated(omega1)
        x2, _ = minimize_valuated(omega2)
    else:
        x1, x2 = start
    state = ViapState(omega1, omega2, x1, x2, (0,) * omega1.ground.size,
                      x1.intersection(x2), math.lcm(omega1.scale, omega2.scale))
    entries = [state]
    infeasible_beyond = False
    while state.level < k_max:
        next_state = augment_step(state)
        if next_state is None:
            infeasible_beyond = True
            break
        state = next_state
        entries.append(state)
    if len(entries) > 1 and not infeasible_beyond:
        try:
            _exchange_lengths(state.x1, state.x2, state.p, state.scale,
                              omega1, omega2)
        except InternalInvariantError:
            raise InternalInvariantError(
                "optimality witness failed at the top level") from None
    return LadderResult(entries, infeasible_beyond,
                        omega1.calls + omega2.calls - calls_before)


def _k_subset(subset: Subset, k: int) -> Subset:
    """The lexicographically first k-element subset of `subset`."""
    picked = subset.ground.empty()
    for v in subset.members():
        if picked.cardinality() == k:
            break
        picked = picked.add(v)
    return picked


def solve_v_geq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                  start: Optional[tuple[Subset, Subset]] = None,
                  ) -> IntersectionSolution:
    """Minimize omega_1(X_1) + omega_2(X_2) with |X_1 intersect X_2| >= k.

    Starts from unconstrained minimizers; if they already intersect in at
    least k elements they are optimal (with zero potentials and any
    k-element matched subset as witness).  Otherwise augmenting raises the
    intersection one element per round until level k or until the sink
    becomes unreachable, which proves infeasibility; the last feasible
    level's solution is attached to an infeasible outcome for diagnostics.
    """
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    omega1.require_witness()
    omega2.require_witness()
    ladder = run_ladder(omega1, omega2, k, start)
    top = ladder.entries[-1]
    if top.level >= k:
        # A start that meets k is the only entry; an augmented top meets
        # k exactly, so its k-subset is its whole matched intersection.
        witness = replace(top.witness, k=k, matched=_k_subset(
            top.x1.intersection(top.x2), k))
        return IntersectionSolution("optimal", top.x1, top.x2, top.value,
                                    witness, k, "geq", ladder.oracle_calls)
    last = IntersectionSolution("optimal", top.x1, top.x2, top.value,
                                top.witness, top.level, "geq",
                                ladder.oracle_calls)
    return IntersectionSolution("infeasible", k=k, mode="geq",
                                oracle_calls=ladder.oracle_calls,
                                last_feasible=last)


def solve_v_eq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                 ) -> IntersectionSolution:
    """Minimize omega_1(X_1) + omega_2(X_2) with |X_1 intersect X_2| = k.

    When the unconstrained minimizers intersect in at most k elements the
    augmenting run stops exactly at level k.  Otherwise the problem is
    restated for omega_1 and the dual of omega_2 at level rank(omega_1) - k
    and solved the same way; the second set is complemented on the way
    back, and the returned witness certifies the dualized run.
    """
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    omega1.require_witness()
    omega2.require_witness()
    x1, _ = minimize_valuated(omega1)
    x2, _ = minimize_valuated(omega2)
    if intersection_cardinality(x1, x2) <= k:
        solution = solve_v_geq_k(omega1, omega2, k, start=(x1, x2))
        solution.mode = "eq-direct"
        return solution
    # Dualizing the second valuation turns the > k start into a strictly
    # below-target start, so the augmenting run ends exactly on target,
    # rank_1 - k >= 1 since k < |X1 intersect X2| <= rank_1.
    dual_solution = solve_v_geq_k(omega1, dual_valuation(omega2),
                                  omega1.rank - k, start=(x1, x2.complement()))
    if not dual_solution.optimal:
        diagnostics = dual_solution.last_feasible
        if diagnostics is not None:
            # Map the diagnostic pair back to original coordinates.
            x2_diag = diagnostics.x2.complement()
            diagnostics = IntersectionSolution(
                "optimal", diagnostics.x1, x2_diag,
                omega1.value(diagnostics.x1) + omega2.value(x2_diag),
                None, omega1.rank - diagnostics.k, "eq-dual")
        return IntersectionSolution(
            "infeasible", k=k, mode="eq-dual",
            oracle_calls=dual_solution.oracle_calls,
            last_feasible=diagnostics)
    x2_back = dual_solution.x2.complement()
    value = omega1.value(dual_solution.x1) + omega2.value(x2_back)
    return IntersectionSolution("optimal", dual_solution.x1, x2_back, value,
                                dual_solution.witness, k, "eq-dual",
                                dual_solution.oracle_calls)


def witness_problem(mode: str, omega1: ValuationOracle,
                    omega2: ValuationOracle, x1: Subset, x2: Subset, k: int):
    """The valuations, pair and level at which a `mode` witness of (x1, x2)
    solved at k certifies it, on the first valuation's ground set: level
    k itself; for "eq-dual", rank_1 - k with omega_2 dualized and x2
    complemented; for "leq", the full rank of the intersection of
    :func:`vmi.v_leq_k_pair`, on whose two copies the pair is one set.
    """
    if mode == "leq":
        from .vmi import v_leq_k_pair   # vmi imports this module

        omega1, omega2, copies = v_leq_k_pair(omega1, omega2, k)
        x1 = x2 = copies.to_subset([x1, x2])
        return omega1, omega2, x1, x2, omega1.rank
    if mode == "eq-dual":
        return (omega1, dual_valuation(omega2), x1, x2.complement(),
                omega1.rank - k)
    return omega1, omega2, x1, x2, k


def verify_solution(solution: IntersectionSolution,
                    omega1: ValuationOracle, omega2: ValuationOracle) -> bool:
    """Re-check a solution's witness against the oracles it was solved on.

    The witness must certify the pair at the level the solver reached, on
    the instance it was solved on: that of :func:`witness_problem` for
    the solution's mode.  An "eq-*" pair must also meet in exactly k
    elements; >= k holds through the matched set and <= k through the
    constraint valuation.
    """
    if not solution.optimal or solution.witness is None:
        return False
    x1, x2, k = solution.x1, solution.x2, solution.k
    if (solution.mode.startswith("eq")
            and intersection_cardinality(x1, x2) != k):
        return False
    omega1, omega2, x1, x2, level = witness_problem(
        solution.mode, omega1, omega2, x1, x2, k)
    return (solution.witness.k == level
            and verify_witness(x1, x2, solution.witness, level, omega1,
                               omega2))
