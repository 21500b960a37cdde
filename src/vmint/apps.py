"""Application drivers: recoverable robustness, interaction costs,
congestion games, and the flexible-intersection sweep.

Each driver is a thin typed layer that restates its problem as one of the
core solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    INF,
    ExtValue,
    IntVector,
    InvalidInputError,
    Subset,
    scaled_weights,
    vector_to_subset,
)
# Not called here: `bench/tracing.py` wraps `apps.minimize_valuated` by
# name, and every traced run fails without it.
from .greedy import minimize_valuated
from .matroid import MatroidOracle
from .mflow import CoupledSolution, solve_m_geq_k_w
from .valuated import (
    ConvexTable,
    LaminarSpec,
    MnatFunction,
    ValuationOracle,
    dual_valuation,
    from_matroid_and_weights,
    mnat_from_valuation,
    scaled_sum,
)
from .vmi import TupleSolution, solve_v_n_w, solve_sum_valuated_plus_laminar
from .viap import IntersectionSolution, run_ladder, solve_v_geq_k


@dataclass(frozen=True)
class IntervalUncertainty:
    """Componentwise interval [lower, upper] of second-stage weights."""

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise InvalidInputError("interval bound lengths differ")
        if any(lo > up for lo, up in zip(self.lower, self.upper)):
            raise InvalidInputError("interval lower bound exceeds upper bound")

    @staticmethod
    def of(lower: Sequence[Fraction], upper: Sequence[Fraction]
           ) -> "IntervalUncertainty":
        return IntervalUncertainty(tuple(Fraction(v) for v in lower),
                                   tuple(Fraction(v) for v in upper))


def modular_on_domain(omega: ValuationOracle,
                      weights: Sequence[Fraction]) -> ValuationOracle:
    """Modular weights carried by the domain of an existing valuation.

    Scaled by the weights' denominator.  Each miss of its memo, a block
    of exchanges too, asks `omega` the value of the set and sums the
    weights of a set where omega is finite.  It keeps its memo on
    purpose: as a leaf it saves little time, and the asks its memo
    absorbs would then reach omega and move the `oracle_calls` of every
    report solved on it.
    """
    scaled, scale = scaled_weights(weights)

    def value(subset: Subset) -> Optional[int]:
        if omega.raw_value(subset) is None:
            return None
        return scaled_sum(scaled, subset.mask)

    return ValuationOracle(omega.ground, omega.rank, value,
                           omega.witness_base, f"modular-on-dom({omega.name})",
                           scale)


def solve_recoverable_robust_interval(omega1: ValuationOracle,
                                      uncertainty: IntervalUncertainty,
                                      k: int) -> IntersectionSolution:
    """Two-stage base choice under interval weight uncertainty.

    The adversary picks second-stage weights inside the intervals after
    seeing the first base; its optimum is always the upper bound, so the
    problem collapses to the >= k intersection solve against the upper
    weights carried by the same base family.
    """
    if len(uncertainty.upper) != omega1.ground.size:
        raise InvalidInputError("uncertainty bounds do not match the ground set")
    omega2 = modular_on_domain(omega1, uncertainty.upper)
    return solve_v_geq_k(omega1, omega2, k)


def add_modular(fn: MnatFunction, weights: Sequence[Fraction]) -> MnatFunction:
    """The function fn(x) + <w, x> (modular shifts keep M-convexity)."""
    ws = tuple(Fraction(w) for w in weights)

    def value(x: IntVector) -> ExtValue:
        base = fn.value(x)
        if not base.is_finite:
            return INF
        return base + sum((w * x[v] for v, w in enumerate(ws)), Fraction(0))

    return MnatFunction(fn.dimension, value, fn.box_lower, fn.box_upper,
                        fn.witness_point, f"{fn.name}+w")


def solve_recoverable_robust_interval_mconvex(
        f1: MnatFunction, f_base: MnatFunction,
        uncertainty: IntervalUncertainty, k: int) -> CoupledSolution:
    """The integer-vector variant: the second-stage family is f + w with
    w inside the intervals, which again collapses to the upper bound and
    dispatches to the coupled flow solve with zero coupling weights."""
    if len(uncertainty.upper) != f_base.dimension:
        raise InvalidInputError("uncertainty bounds do not match the dimension")
    f2 = add_modular(f_base, uncertainty.upper)
    zeros = (Fraction(0),) * f_base.dimension
    return solve_m_geq_k_w(f1, f2, k, zeros)


@dataclass
class SweepSolution:
    status: str
    x1: Optional[Subset] = None
    x2: Optional[Subset] = None
    k: int = -1
    value: ExtValue = INF

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_v_c(omega1: ValuationOracle, omega2: ValuationOracle,
              c: Sequence[ExtValue]) -> SweepSolution:
    """Minimize omega_1(X_1) + omega_2(X_2) + c(|X_1 intersect X_2|).

    The cost table c is given on 0..|V| with +infinity allowed.  One
    augmenting run upward from the unconstrained minimizers and one on the
    dualized instance downward visit an optimal pair for every attainable
    intersection size, so the sweep needs two solver runs, not one per k.
    """
    n = omega1.ground.size
    if len(c) != n + 1:
        raise InvalidInputError("cost table must have |V| + 1 entries")
    table = [entry if isinstance(entry, ExtValue) else ExtValue(entry)
             for entry in c]
    per_level: dict[int, tuple[Fraction, Subset, Subset]] = {}

    up = run_ladder(omega1, omega2, min(omega1.rank, omega2.rank))
    for entry in up.entries:
        per_level[entry.level] = (entry.value.finite, entry.x1, entry.x2)
    start = up.entries[0]
    dual2 = dual_valuation(omega2)
    down = run_ladder(omega1, dual2, omega1.rank,
                      start=(start.x1, start.x2.complement()))
    for entry in down.entries:
        level = omega1.rank - entry.level
        x2_back = entry.x2.complement()
        value = (omega1.value(entry.x1) + omega2.value(x2_back)).finite
        if level not in per_level:
            per_level[level] = (value, entry.x1, x2_back)

    chosen: Optional[tuple[Fraction, int]] = None
    for level in sorted(per_level):
        cost = table[level]
        if not cost.is_finite:
            continue
        total = per_level[level][0] + cost.finite
        if chosen is None or (total, level) < chosen:
            chosen = (total, level)
    if chosen is None:
        return SweepSolution("infeasible")
    total, level = chosen
    _, x1_best, x2_best = per_level[level]
    return SweepSolution("optimal", x1_best, x2_best, level, ExtValue(total))


@dataclass
class CopicSolution:
    status: str
    x1: Optional[Subset] = None
    x2: Optional[Subset] = None
    value: ExtValue = INF

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_copic_diagonal(matroid1: MatroidOracle, matroid2: MatroidOracle,
                         w1: Sequence[Fraction], w2: Sequence[Fraction],
                         q: Sequence[Fraction]) -> CopicSolution:
    """Diagonal interaction costs over two base families.

    Nonnegative q goes through the laminar-penalty reduction; nonpositive
    q through the coupled flow solve at k = 0 on the 0/1 functions.  Mixed
    signs are rejected (that regime is NP-hard; use brute force).
    """
    qs = tuple(Fraction(v) for v in q)
    omega1 = from_matroid_and_weights(matroid1, w1)
    omega2 = from_matroid_and_weights(matroid2, w2)
    if all(v >= 0 for v in qs):
        outcome: TupleSolution = solve_v_n_w([omega1, omega2], qs)
        if not outcome.optimal:
            return CopicSolution("infeasible")
        x1, x2 = outcome.parts
        return CopicSolution("optimal", x1, x2, outcome.value)
    if all(v <= 0 for v in qs):
        f1 = mnat_from_valuation(omega1)
        f2 = mnat_from_valuation(omega2)
        solved = solve_m_geq_k_w(f1, f2, 0, qs)
        if not solved.optimal:
            return CopicSolution("infeasible")
        ground = matroid1.ground
        x1 = vector_to_subset(ground, solved.x1)
        x2 = vector_to_subset(ground, solved.x2)
        return CopicSolution("optimal", x1, x2, solved.value)
    raise InvalidInputError(
        "sign-mixed interaction costs are not supported; use brute force")


def check_weak_convexity(delay: Sequence[Fraction]) -> bool:
    """True iff x -> (x+1) d(x+1) - x d(x) is nondecreasing on the table."""
    d = tuple(Fraction(v) for v in delay)
    diffs = [(x + 1) * d[x + 1] - x * d[x] for x in range(len(d) - 1)]
    return all(a <= b for a, b in zip(diffs, diffs[1:]))


@dataclass(frozen=True)
class CongestionInstance:
    """Players with valuated strategy costs and per-resource delays.

    `delays[v]` tabulates d_v on loads 0..n and must be nondecreasing;
    each player's valuation should be nonnegative on its domain (recorded
    as a convention; the reduction does not rely on it).
    """

    omegas: tuple[ValuationOracle, ...]
    delays: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.omegas)
        ground = self.omegas[0].ground
        if len(self.delays) != ground.size:
            raise InvalidInputError("need one delay table per resource")
        for table in self.delays:
            if len(table) != n + 1:
                raise InvalidInputError("delay tables must cover loads 0..n")
            if any(a > b for a, b in zip(table, table[1:])):
                raise InvalidInputError("delay tables must be nondecreasing")

    @staticmethod
    def of(omegas: Sequence[ValuationOracle],
           delays: Sequence[Sequence[Fraction]]) -> "CongestionInstance":
        return CongestionInstance(
            tuple(omegas),
            tuple(tuple(Fraction(v) for v in table) for table in delays))


def congestion_total_cost(instance: CongestionInstance,
                          state: Sequence[Subset]) -> ExtValue:
    """Total cost of a state: player valuations plus load-weighted delays."""
    total = ExtValue(0)
    for om, x in zip(instance.omegas, state):
        term = om.value(x)
        if not term.is_finite:
            return INF
        total = total + term
    ground = instance.omegas[0].ground
    extra = Fraction(0)
    for v in ground.elements():
        load = sum(1 for x in state if x.contains(v))
        extra += load * instance.delays[v][load]
    return total + extra


def solve_congestion_social_optimum(instance: CongestionInstance,
                                    ) -> tuple[tuple[Subset, ...], ExtValue]:
    """A state minimizing the total cost over all players.

    Works when every per-resource delay is weakly convex, which makes the
    load cost x * d(x) discrete convex and the total a laminar convex
    function of the loads; the solve then goes through the generalized
    penalty reduction.  Non-weakly-convex delays are rejected (the general
    nondecreasing case is intractable).
    """
    n = len(instance.omegas)
    ground = instance.omegas[0].ground
    members = []
    tables = []
    for v in ground.elements():
        if not check_weak_convexity(instance.delays[v]):
            raise InvalidInputError(
                f"delay table of element {ground.label(v)} is not weakly convex")
        members.append(ground.subset([v]))
        tables.append(ConvexTable(0, tuple(
            load * instance.delays[v][load] for load in range(n + 1))))
    spec = LaminarSpec(ground, tuple(members), tuple(tables))
    outcome = solve_sum_valuated_plus_laminar(list(instance.omegas), spec)
    if not outcome.optimal:
        raise InvalidInputError("congestion instance has no feasible state")
    return outcome.parts, outcome.value


def standard_congestion_instance(matroids: Sequence[MatroidOracle],
                                 costs: Sequence[Sequence[Fraction]],
                                 ) -> CongestionInstance:
    """Embed the standard congestion model (per-resource cost c_v at load
    x, paid by every user) into the valuation-plus-delay form:
    the valuation charges c_v(1) per chosen resource and the delay is
    d_v(x) = c_v(x) - c_v(1) for x >= 1, zero at zero load."""
    n = len(matroids)
    ground = matroids[0].ground
    omegas = []
    for matroid in matroids:
        weights = tuple(Fraction(costs[v][1]) for v in ground.elements())
        omegas.append(from_matroid_and_weights(matroid, weights))
    delays = []
    for v in ground.elements():
        c = [Fraction(x) for x in costs[v]]
        if len(c) != n + 1:
            raise InvalidInputError("cost tables must cover loads 0..n")
        delays.append(tuple([Fraction(0)] + [c[x] - c[1] for x in range(1, n + 1)]))
    return CongestionInstance.of(omegas, delays)
