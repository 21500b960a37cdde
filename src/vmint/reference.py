"""Reference algorithm used to cross-validate the primary solvers.

Contains a primal-dual algorithm for the modular equality-constrained
problem that alternates zero-length-path augmentations with uniform dual
raises, and the conversion between its witness format and the
potential-pair format of the augmenting-path solver.

It does not aim at the primary solver's complexity; it exists so that
independently coded routes can be compared value-for-value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    ExtValue,
    InternalInvariantError,
    InvalidInputError,
    Subset,
    dot,
    intersection_cardinality,
)
from .matroid import MatroidOracle, dual_matroid, min_weight_base
from .valuated import from_matroid_and_weights
from .viap import (
    IntersectionSolution,
    apply_path,
    build_aux_digraph,
    in_units,
    shortest_path_with_hop_tiebreak,
)


@dataclass(frozen=True)
class LptWitness:
    """Primal-dual certificate: q1 >= 0, q2 <= 0, and a uniform gap."""

    q1: tuple[Fraction, ...]
    q2: tuple[Fraction, ...]
    gap: Fraction


def lpt_witness_check(x1: Subset, x2: Subset,
                      q1: Sequence[Fraction], q2: Sequence[Fraction],
                      gap: Fraction,
                      matroid1: MatroidOracle, matroid2: MatroidOracle,
                      w1: Sequence[Fraction], w2: Sequence[Fraction]) -> bool:
    """Check the primal-dual optimality conditions for a modular pair.

    Requires q1 nonnegative, q2 nonpositive, gap nonnegative; then
    q1(v) = q2(v) + gap everywhere, X1 and X2 minimize w1 - q1 and
    w2 + q2 over their base families, and the potentials vanish on
    X1 \\ X2 and X2 \\ X1 respectively.  Sign violations return False.
    """
    q1 = tuple(Fraction(q) for q in q1)
    q2 = tuple(Fraction(q) for q in q2)
    gap = Fraction(gap)
    if gap < 0 or any(q < 0 for q in q1) or any(q > 0 for q in q2):
        return False
    if any(a != b + gap for a, b in zip(q1, q2)):
        return False
    shifted1 = tuple(Fraction(w) - q for w, q in zip(w1, q1))
    shifted2 = tuple(Fraction(w) + q for w, q in zip(w2, q2))
    if dot(shifted1, x1) != dot(shifted1, min_weight_base(matroid1, shifted1)):
        return False
    if dot(shifted2, x2) != dot(shifted2, min_weight_base(matroid2, shifted2)):
        return False
    for v in x1.minus(x2).members():
        if q1[v] != 0:
            return False
    for v in x2.minus(x1).members():
        if q2[v] != 0:
            return False
    return True


def convert_witness(p1: Sequence[Fraction],
                    p2: Sequence[Fraction]) -> tuple[tuple[Fraction, ...],
                                                     tuple[Fraction, ...],
                                                     Fraction]:
    """Convert an augmenting-path witness into the primal-dual format.

    Requires min p1 = 0 and p1 = p2 pointwise (the invariants the
    augmenting solver maintains); then q1 = p1, q2 = p2 - max p2, and the
    gap is max p2.  The reverse direction is :func:`witness_from_lpt`.
    """
    p1 = tuple(Fraction(p) for p in p1)
    p2 = tuple(Fraction(p) for p in p2)
    if p1 != p2:
        raise InvalidInputError("potential copies must agree pointwise")
    if min(p1) != 0:
        raise InvalidInputError("minimum of p1 must be zero")
    gap = max(p2)
    q2 = tuple(p - gap for p in p2)
    return p1, q2, gap


def witness_from_lpt(q1: Sequence[Fraction],
                     q2: Sequence[Fraction]) -> tuple[tuple[Fraction, ...],
                                                      tuple[Fraction, ...]]:
    """The reverse conversion: both potential copies equal q1."""
    p = tuple(Fraction(q) for q in q1)
    return p, p


@dataclass
class _LptState:
    x1: Subset
    x2: Subset
    q1: list[Fraction]
    q2: list[Fraction]


def _lpt_case1(matroid1: MatroidOracle, matroid2: MatroidOracle,
               w1: Sequence[Fraction], w2: Sequence[Fraction], k: int,
               start: tuple[Subset, Subset]) -> Optional[_LptState]:
    """Raise the intersection of a minimum-base pair to k, primal-dually.

    While no zero-length source-sink path exists, the duals are raised by
    the smallest positive length of an exchange arc leaving the
    zero-reachable set; that arc then joins the zero subgraph, so the
    reachable set grows and the raise loop terminates.  When no exchange
    arc leaves the reachable set at all, the problem is infeasible.
    """
    omega1 = from_matroid_and_weights(matroid1, w1)
    omega2 = from_matroid_and_weights(matroid2, w2)
    n = matroid1.ground.size
    state = _LptState(start[0], start[1],
                      [Fraction(0)] * n, [Fraction(0)] * n)
    while intersection_cardinality(state.x1, state.x2) < k:
        # q2 = q1 - gap, and a constant shift of one copy's potential
        # cancels in each of its arc lengths, so q1 alone gives the graph.
        q, scale = in_units(omega1, omega2, state.q1)
        matched = state.x1.intersection(state.x2)
        graph = build_aux_digraph(state.x1, state.x2, q, matched,
                                  omega1, omega2, scale)
        dist, _parents, path = shortest_path_with_hop_tiebreak(graph)
        if dist[graph.sink] == 0:
            x1, x2, _ = apply_path(state.x1, state.x2, matched, path, n)
            if intersection_cardinality(x1, x2) != \
                    intersection_cardinality(state.x1, state.x2) + 1:
                raise InternalInvariantError(
                    "zero-path augmentation did not grow the intersection by 1")
            state.x1, state.x2 = x1, x2
            continue
        reachable = {node for node, d in enumerate(dist) if d == 0}
        # A length-0 arc out of a node at distance 0 reaches a node at
        # distance 0, so only positive exchange arcs leave the set.
        units = min((length for tail in reachable
                     for head, length in graph.adjacency[tail]
                     if head not in reachable), default=None)
        if units is None:
            return None
        delta = Fraction(units, graph.scale)
        if delta <= 0:
            raise InternalInvariantError("leaving arcs must have positive length")
        for v in range(n):
            if graph.node_v1(v) not in reachable:
                state.q1[v] += delta
            if graph.node_v2(v) in reachable:
                state.q2[v] -= delta
    return state


def lpt_solve_w_eq_k(matroid1: MatroidOracle, matroid2: MatroidOracle,
                     w1: Sequence[Fraction], w2: Sequence[Fraction],
                     k: int) -> IntersectionSolution:
    """Solve the modular |X1 intersect X2| = k problem primal-dually.

    Starts from minimum-weight bases.  When they intersect in more than k
    elements the instance is restated for the dual of the second matroid
    with negated weights at level rank1 - k, starting from the
    complemented base pair.
    """
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    return lpt_solve_with_witness(matroid1, matroid2, w1, w2, k).solution


def lpt_state_witness(state: _LptState) -> LptWitness:
    gaps = {a - b for a, b in zip(state.q1, state.q2)}
    if len(gaps) != 1:
        raise InternalInvariantError("dual gap is not uniform")
    (gap,) = gaps
    return LptWitness(tuple(state.q1), tuple(state.q2), gap)


@dataclass
class LptRun:
    """Solve outcome plus the instance the certificate actually lives on.

    For the dualized case the certificate refers to the dual matroid with
    negated weights, so checkers must be pointed at `cert_*`, not at the
    original instance.
    """

    solution: IntersectionSolution
    witness: Optional[LptWitness]
    cert_matroid1: MatroidOracle
    cert_matroid2: MatroidOracle
    cert_w1: tuple[Fraction, ...]
    cert_w2: tuple[Fraction, ...]
    cert_x1: Optional[Subset]
    cert_x2: Optional[Subset]


def lpt_solve_with_witness(matroid1: MatroidOracle, matroid2: MatroidOracle,
                           w1: Sequence[Fraction], w2: Sequence[Fraction],
                           k: int) -> LptRun:
    """Solve like :func:`lpt_solve_w_eq_k` but keep the certificate.

    The returned run names the instance the certificate refers to: the
    original one in the direct case, the dualized one otherwise.
    """
    w1 = tuple(Fraction(w) for w in w1)
    w2 = tuple(Fraction(w) for w in w2)
    x1 = min_weight_base(matroid1, w1)
    x2 = min_weight_base(matroid2, w2)
    if intersection_cardinality(x1, x2) <= k:
        state = _lpt_case1(matroid1, matroid2, w1, w2, k, (x1, x2))
        if state is None:
            return LptRun(IntersectionSolution("infeasible", k=k, mode="lpt"),
                          None, matroid1, matroid2, w1, w2, None, None)
        value = ExtValue(dot(w1, state.x1) + dot(w2, state.x2))
        solution = IntersectionSolution("optimal", state.x1, state.x2, value,
                                        None, k, "lpt")
        return LptRun(solution, lpt_state_witness(state), matroid1, matroid2,
                      w1, w2, state.x1, state.x2)
    dual2 = dual_matroid(matroid2)
    bar_w2 = tuple(-w for w in w2)
    target = matroid1.rank - k
    if target < 0:
        return LptRun(IntersectionSolution("infeasible", k=k, mode="lpt"),
                      None, matroid1, dual2, w1, bar_w2, None, None)
    state = _lpt_case1(matroid1, dual2, w1, bar_w2, target,
                       (x1, x2.complement()))
    if state is None:
        return LptRun(IntersectionSolution("infeasible", k=k, mode="lpt"),
                      None, matroid1, dual2, w1, bar_w2, None, None)
    x2_back = state.x2.complement()
    value = ExtValue(dot(w1, state.x1) + dot(w2, x2_back))
    solution = IntersectionSolution("optimal", state.x1, x2_back, value,
                                    None, k, "lpt")
    return LptRun(solution, lpt_state_witness(state), matroid1, dual2,
                  w1, bar_w2, state.x1, state.x2)
