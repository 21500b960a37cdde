"""Valuated matroid intersection and the reductions built on it.

Valuated matroid intersection (minimize omega(X) + omega'(X) over common
rank-sized sets) is solved by forcing the intersection of the augmenting
pair up to the full rank.  The multi-valuation problems reduce to it over
n disjoint copies of the ground set: the objective becomes a disjoint sum
and the coupling constraint (intersection in a matroid, or a penalty on
elements picked by every copy) becomes a second valuated matroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import INF, ExtValue, GroundSet, InvalidInputError, Subset
from .matroid import MatroidOracle, make_uniform
from .valuated import (
    LaminarSpec,
    TupleGround,
    ValuationOracle,
    disjoint_sum,
    dual_valuation,
    intersection_constraint_valuation,
    laminar_penalty,
    laminar_valuation,
)
from .viap import IntersectionSolution, solve_v_geq_k


@dataclass
class TupleSolution:
    """Outcome of a reduction solve over n copies of the ground set."""

    status: str                      # "optimal" | "infeasible"
    parts: Optional[tuple[Subset, ...]] = None
    value: ExtValue = INF
    inner: Optional[IntersectionSolution] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_vmi(omega: ValuationOracle, omega2: ValuationOracle,
              ) -> IntersectionSolution:
    """Minimize omega(X) + omega2(X) over a common set X.

    Realized as the >= rank intersection problem, which forces X1 = X2.
    A rank mismatch makes the sum identically +infinity, so it is reported
    as infeasible rather than as an error.
    """
    if omega.rank != omega2.rank:
        return IntersectionSolution("infeasible", k=omega.rank, mode="geq")
    return solve_v_geq_k(omega, omega2, omega.rank)


def v_in_pair(omegas: Sequence[ValuationOracle], constraint: MatroidOracle,
              ) -> tuple[ValuationOracle, ValuationOracle, TupleGround]:
    """The valuated matroid intersection instance that :func:`solve_v_In`
    solves: the disjoint sum of the valuations, the 0/+infinity valuation
    of tuples whose common intersection is independent in `constraint`,
    and the copies they both live on.  Its witnesses certify the
    reduction's optima.
    """
    return _on_copies(omegas, _intersection_coupling(constraint))


def _intersection_coupling(constraint: MatroidOracle) -> Callable:
    """The coupling of :func:`v_in_pair`, as :func:`_on_copies` takes it."""
    return lambda tg, rank: intersection_constraint_valuation(
        tg.n, constraint, rank)[0]


def _on_copies(omegas: Sequence[ValuationOracle],
               coupling: Callable[[TupleGround, int], ValuationOracle],
               ) -> tuple[ValuationOracle, ValuationOracle, TupleGround]:
    """The disjoint sum of the valuations, the coupling valuation that
    `coupling(tg, rank)` builds on their copies, and the copies."""
    sum_oracle, tg = disjoint_sum(omegas)
    return sum_oracle, coupling(tg, sum_oracle.rank), tg


def v_leq_k_pair(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                 ) -> tuple[ValuationOracle, ValuationOracle, TupleGround]:
    """The :func:`v_in_pair` instance that :func:`solve_v_leq_k` solves:
    the intersection constraint is the uniform matroid of rank
    min(k, |V|).  A solution pair lifts to one set on the copies, and its
    witness certifies it at the full rank of the disjoint sum.
    """
    return v_in_pair([omega1, omega2], _at_most(k, omega1.ground))


def _at_most(k: int, ground: GroundSet) -> MatroidOracle:
    """The constraint |X_1 intersect X_2| <= k as a matroid on `ground`."""
    return make_uniform(ground, min(k, ground.size))


def solve_v_In(omegas: Sequence[ValuationOracle], constraint: MatroidOracle,
               ) -> TupleSolution:
    """Minimize the sum of the valuations with the common intersection
    independent in `constraint`.

    Reduces to valuated matroid intersection of the disjoint sum and the
    0/+infinity valuation of the constraint family over the copies.
    """
    if not omegas:
        raise InvalidInputError("need at least one valuation")
    return _solve_on_copies(omegas, _intersection_coupling(constraint))


def _solve_on_copies(omegas: Sequence[ValuationOracle],
                     coupling: Callable[[TupleGround, int], ValuationOracle],
                     ) -> TupleSolution:
    """Minimize the sum of the :func:`_on_copies` pair by valuated matroid
    intersection; infeasible when the coupling's domain is empty."""
    for om in omegas:
        om.require_witness()
    sum_oracle, coupled, tg = _on_copies(omegas, coupling)
    if coupled.witness_base is None:
        return TupleSolution("infeasible")
    inner = solve_vmi(sum_oracle, coupled)
    if not inner.optimal:
        return TupleSolution("infeasible", inner=inner)
    return TupleSolution("optimal", tg.to_parts(inner.x1), inner.value, inner)


def solve_v_leq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                  ) -> IntersectionSolution:
    """Minimize omega_1(X_1) + omega_2(X_2) with |X_1 intersect X_2| <= k.

    The <= k constraint is intersection membership in a uniform matroid,
    so this is the two-valuation case of :func:`solve_v_In`.
    """
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    outcome = solve_v_In([omega1, omega2], _at_most(k, omega1.ground))
    if not outcome.optimal:
        return IntersectionSolution("infeasible", k=k, mode="leq")
    x1, x2 = outcome.parts
    return IntersectionSolution("optimal", x1, x2, outcome.value,
                                outcome.inner.witness, k, "leq",
                                outcome.inner.oracle_calls)


def solve_v_geq_k_via_dual(omega1: ValuationOracle, omega2: ValuationOracle,
                           k: int) -> IntersectionSolution:
    """Alternative route for the >= k problem, used for cross-checking.

    |X_1 intersect X_2| >= k is |X_1 intersect (V \\ X_2)| <= rank_1 - k
    for the dual of omega_2, which goes through :func:`solve_v_leq_k`.
    """
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    target = omega1.rank - k
    if target < 0:
        return IntersectionSolution("infeasible", k=k, mode="geq")
    dual2 = dual_valuation(omega2)
    solved = solve_v_leq_k(omega1, dual2, target)
    if not solved.optimal:
        return IntersectionSolution("infeasible", k=k, mode="geq")
    x2 = solved.x2.complement()
    value = omega1.value(solved.x1) + omega2.value(x2)
    return IntersectionSolution("optimal", solved.x1, x2, value, None, k,
                                "geq", solved.oracle_calls)


def solve_v_n_w(omegas: Sequence[ValuationOracle], weights: Sequence[Fraction],
                ) -> TupleSolution:
    """Minimize sum of the valuations plus w(common intersection), w >= 0.

    The penalty lifts to a laminar convex valuation over the copies
    (negative weights are rejected; that regime belongs to the submodular
    flow route or brute force).
    """
    if not omegas:
        raise InvalidInputError("need at least one valuation")
    ws = tuple(Fraction(w) for w in weights)
    if any(w < 0 for w in ws):
        raise InvalidInputError(
            "negative penalty weights: use the submodular-flow solver for "
            "w <= 0, or brute force for mixed signs")
    return _solve_on_copies(
        omegas, lambda tg, rank: laminar_penalty(ws, tg.n, rank, tg.base)[0])


def lift_laminar_to_copies(spec: LaminarSpec, tg: TupleGround,
                           rank: int) -> ValuationOracle:
    """Restrict a laminar convex function of copy counts to rank-sized tuples.

    Each laminar member X lifts to the set of all copies of its elements;
    the member sums then count, per member, how many copies picked its
    elements.  The hyperplane restriction of the lifted function is the
    :func:`valuated.laminar_valuation` of the lifted members, a valuated
    matroid on the copies.
    """
    return laminar_valuation(tg.combined,
                             [tg.lift(member.mask) for member in spec.members],
                             spec.tables, rank, "laminar-lift")


def solve_sum_valuated_plus_laminar(omegas: Sequence[ValuationOracle],
                                    phi: LaminarSpec) -> TupleSolution:
    """Minimize sum of the valuations plus a laminar convex function of the
    copy counts (how many of the n sets picked each element).

    This is the generalized penalty problem behind congestion games.  The
    laminar structure is validated by :class:`LaminarSpec` and the tables'
    convexity by :class:`ConvexTable`; a laminar sum of convex tables is
    M-natural-convex (Murota 2003), so the count-space function needs no
    exchange check here.
    """
    if not omegas:
        raise InvalidInputError("need at least one valuation")
    ground = omegas[0].ground
    if phi.ground != ground:
        raise InvalidInputError("laminar spec is on a different ground set")
    return _solve_on_copies(
        omegas, lambda tg, rank: lift_laminar_to_copies(phi, tg, rank))
