"""Exhaustive references that the tests compare the solvers against.

None of these run in a solve; each is desk-scale enumeration, a second,
independently coded route to an answer the package computes another way,
or a valuation written out as a table:

- `minimizer_family`: all global minimizers of a valuation;
- `alt_solve_v_eq_k`: the = k problem by the boundary problems and
  exchange walks inside the minimizer families;
- `check_independence_axioms`: the independence axioms over every subset;
- `brute_three_matroid_intersection`: a maximum common independent set
  of three matroids;
- `verify_witness_exhaustive`, `verify_solution_exhaustive`: the
  certificate checks with minimality also checked against every set of
  each domain, not only by the local exchange criterion;
- `valuation_from_explicit`: a valuation from a mask -> value table;
- `laminar_point_rescan`: the laminar witness with every feasibility
  test summing every coordinate again;
- `check_base_exchange_pairwise`: the base exchange axiom tried on
  every pair of bases;
- `dual_valuation_memoized`: the dual valuation with a memo of its own
  over its base's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from vmint.bruteforce import DEFAULT_PAIR_LIMIT
from vmint.core import (
    EmptyDomainError,
    GroundSet,
    InternalInvariantError,
    InvalidInputError,
    ResourceLimitError,
    Subset,
    intersection_cardinality,
    scaled_weights,
)
from vmint.matroid import (
    DEFAULT_ENUMERATION_LIMIT,
    ExplicitBaseFamily,
    MatroidOracle,
)
from vmint.valuated import ValuationOracle
from vmint.viap import (
    IntersectionSolution,
    Witness,
    solve_v_geq_k,
    verify_solution,
    verify_witness,
    witness_problem,
)
from vmint.vmi import solve_v_leq_k


def minimizer_family(omega: ValuationOracle) -> list[Subset]:
    """All global minimizers, by exhaustive domain enumeration.

    The result is a base family of a matroid; tests verify the exchange
    axiom on it.
    """
    domain = omega.enumerate_domain()
    if not domain:
        raise EmptyDomainError("empty domain has no minimizers")
    best = min(omega.value(x) for x in domain)
    return [x for x in domain if omega.value(x) == best]


def _exchange_walk(family: list[Subset], origin: Subset,
                   destination: Subset) -> list[Subset]:
    """A sequence of family members from origin to destination that swaps
    in one destination element per step (base exchange guarantees a legal
    swap exists at every step)."""
    members = {b.mask for b in family}
    walk = [origin]
    current = origin
    while current.mask != destination.mask:
        step = None
        for v in destination.minus(current).members():
            for u in current.minus(destination).members():
                candidate = current.exchange(u, v)
                if candidate.mask in members:
                    step = candidate
                    break
            if step is not None:
                break
        if step is None:
            raise InternalInvariantError(
                "no legal swap: the minimizer family violates base exchange")
        walk.append(step)
        current = step
    return walk


def alt_solve_v_eq_k(omega1: ValuationOracle, omega2: ValuationOracle,
                     k: int) -> IntersectionSolution:
    """Equality-constrained solve via the boundary problems and minimizer
    walks (exhaustive minimizer families, desk scale).

    First solves the <= k and >= k problems; a boundary optimum that hits
    k exactly is returned.  Otherwise all four boundary sets are
    unconstrained minimizers and the optimum equals the unconstrained sum;
    walking exchange sequences inside the minimizer families changes the
    tracked intersection by at most one per step, so a pair meeting k
    exactly is found along the way.
    """
    below = solve_v_leq_k(omega1, omega2, k)
    above = solve_v_geq_k(omega1, omega2, k)
    if not below.optimal or not above.optimal:
        return IntersectionSolution("infeasible", k=k, mode="alt-eq")
    if intersection_cardinality(below.x1, below.x2) == k:
        return IntersectionSolution("optimal", below.x1, below.x2,
                                    below.value, None, k, "alt-eq")
    if intersection_cardinality(above.x1, above.x2) == k:
        return IntersectionSolution("optimal", above.x1, above.x2,
                                    above.value, None, k, "alt-eq")
    family1 = minimizer_family(omega1)
    family2 = minimizer_family(omega2)

    def finish(x1: Subset, x2: Subset) -> IntersectionSolution:
        value = omega1.value(x1) + omega2.value(x2)
        return IntersectionSolution("optimal", x1, x2, value, None, k,
                                    "alt-eq")

    walk1 = _exchange_walk(family1, below.x1, above.x1)
    previous = intersection_cardinality(below.x1, below.x2)
    for step in walk1:
        size = intersection_cardinality(step, below.x2)
        if abs(size - previous) > 1:
            raise InternalInvariantError("walk changed the intersection by >1")
        previous = size
        if size == k:
            return finish(step, below.x2)
    walk2 = _exchange_walk(family2, below.x2, above.x2)
    previous = intersection_cardinality(above.x1, below.x2)
    for step in walk2:
        size = intersection_cardinality(above.x1, step)
        if abs(size - previous) > 1:
            raise InternalInvariantError("walk changed the intersection by >1")
        previous = size
        if size == k:
            return finish(above.x1, step)
    raise InternalInvariantError(
        "straddling walks must pass through every intermediate size")


def check_independence_axioms(matroid: MatroidOracle,
                              limit: int = DEFAULT_ENUMERATION_LIMIT) -> bool:
    """Exhaustively test the independence axioms (desk scale only).

    Checks that the empty set is independent, independence is closed
    downward, and the augmentation property holds.
    """
    n = matroid.ground.size
    if 1 << n > limit:
        raise ResourceLimitError(f"2^{n} subsets exceed limit {limit}")
    independent = [matroid.is_independent(Subset(matroid.ground, m))
                   for m in range(1 << n)]
    if not independent[0]:
        return False
    for m in range(1 << n):
        if not independent[m]:
            continue
        # Downward closure: dropping any element keeps independence.
        v = m
        while v:
            vbit = v & -v
            if not independent[m ^ vbit]:
                return False
            v ^= vbit
    sizes = [bin(m).count("1") for m in range(1 << n)]
    indep_masks = [m for m in range(1 << n) if independent[m]]
    for xm in indep_masks:
        for ym in indep_masks:
            if sizes[xm] >= sizes[ym]:
                continue
            candidates = ym & ~xm
            ok = False
            u = candidates
            while u:
                ubit = u & -u
                if independent[xm | ubit]:
                    ok = True
                    break
                u ^= ubit
            if not ok:
                return False
    return True


def brute_three_matroid_intersection(m1: MatroidOracle, m2: MatroidOracle,
                                     m3: MatroidOracle,
                                     limit: int = DEFAULT_PAIR_LIMIT,
                                     ) -> Optional[Subset]:
    """A maximum common independent set of three matroids, by enumeration."""
    ground = m1.ground
    if 1 << ground.size > limit:
        raise ResourceLimitError("ground set too large for enumeration")
    best: Optional[Subset] = None
    for subset in ground.all_subsets():
        if not (m1.is_independent(subset) and m2.is_independent(subset)
                and m3.is_independent(subset)):
            continue
        if best is None or (-subset.cardinality(), subset.sort_key()) < \
                (-best.cardinality(), best.sort_key()):
            best = subset
    return best


def _is_shifted_minimizer_exhaustive(omega: ValuationOracle, x: Subset,
                                     potential: Sequence[Fraction],
                                     sign: int) -> bool:
    """Whether x minimizes omega + sign * potential over omega's domain."""
    base = omega.value(x)
    if not base.is_finite:
        return False
    shift_x = base.finite + sign * sum(potential[v] for v in x.members())
    for y in omega.enumerate_domain():
        shifted = omega.value(y).finite + sign * sum(
            potential[v] for v in y.members())
        if shifted < shift_x:
            return False
    return True


def verify_witness_exhaustive(x1: Subset, x2: Subset, witness: Witness,
                              k: int, omega1: ValuationOracle,
                              omega2: ValuationOracle) -> bool:
    """`viap.verify_witness`, with X1 and X2 also checked to minimize the
    shifted valuations omega_1 - p1 and omega_2 + p2 against every set of
    each domain."""
    return (verify_witness(x1, x2, witness, k, omega1, omega2)
            and _is_shifted_minimizer_exhaustive(omega1, x1, witness.p1, -1)
            and _is_shifted_minimizer_exhaustive(omega2, x2, witness.p2, +1))


def verify_solution_exhaustive(solution: IntersectionSolution,
                               omega1: ValuationOracle,
                               omega2: ValuationOracle) -> bool:
    """`viap.verify_solution`, with the witness's minimality also checked
    exhaustively on the instance it certifies (`viap.witness_problem`)."""
    if not verify_solution(solution, omega1, omega2):
        return False
    omega1, omega2, x1, x2, _ = witness_problem(
        solution.mode, omega1, omega2, solution.x1, solution.x2, solution.k)
    witness = solution.witness
    return (_is_shifted_minimizer_exhaustive(omega1, x1, witness.p1, -1)
            and _is_shifted_minimizer_exhaustive(omega2, x2, witness.p2, +1))


def valuation_from_explicit(ground: GroundSet, rank: int,
                            table: dict[int, Fraction],
                            name: str = "explicit") -> ValuationOracle:
    """A valuation from an explicit mask -> value table, scaled by the lcm
    of its values' denominators; the witness is the smallest mask in the
    table."""
    masks = sorted(table)
    scaled, scale = scaled_weights([table[mask] for mask in masks])
    raw = dict(zip(masks, scaled))
    witness = Subset(ground, masks[0]) if masks else None
    return ValuationOracle(ground, rank, lambda x: raw.get(x.mask), witness,
                           name, scale=scale)


def laminar_point_rescan(masks: Sequence[int], tables: Sequence,
                         lower: Sequence[int], upper: Sequence[int],
                         total: Optional[int] = None,
                         ) -> Optional[tuple[int, ...]]:
    """`valuated._laminar_point` as it was before each member kept the
    sums of its own elements' bounds: every feasibility test rescans the
    box bounds of every member's own elements, so a bisection with a
    `total` is quadratic in the dimension.  Same arguments, same point."""
    members = [(mask, t.start, t.end) for mask, t in zip(masks, tables)]
    if total is not None:
        members.append(((1 << len(lower)) - 1, total, total))
    order = sorted(range(len(members)), key=lambda m: members[m][0].bit_count())
    children: list[list[int]] = [[] for _ in members]
    for pos, m in enumerate(order):
        parent = next((p for p in order[pos + 1:]
                       if members[m][0] & ~members[p][0] == 0), None)
        if parent is not None:
            children[parent].append(m)

    def feasible() -> bool:
        reach: list = [None] * len(members)
        for m in order:
            mask, lo, hi = members[m]
            low = high = 0
            for child in children[m]:
                low += reach[child][0]
                high += reach[child][1]
                mask &= ~members[child][0]
            while mask:
                e = (mask & -mask).bit_length() - 1
                low += lower[e]
                high += upper[e]
                mask &= mask - 1
            reach[m] = (max(low, lo), min(high, hi))
            if reach[m][0] > reach[m][1]:
                return False
        return True

    lower, upper = list(lower), list(upper)
    if not feasible():
        return None
    n = len(lower)
    by_mask = total is not None and min(lower, default=0) >= 0 \
        and max(upper, default=0) <= 1
    for i in reversed(range(n)) if by_mask else range(n):
        lo, hi = lower[i], upper[i]
        while lo < hi:
            upper[i] = (lo + hi) // 2
            if feasible():
                hi = upper[i]
            else:
                lo = upper[i] + 1
        lower[i] = upper[i] = lo
    return tuple(lower)


def check_base_exchange_pairwise(family: ExplicitBaseFamily) -> bool:
    """`matroid.check_base_exchange` as it was before it mapped each
    X - v to its extenders: for every pair of bases X, Y and every v in
    X \\ Y, a search of Y \\ X for u with X - v + u in the family.  Same
    verdict and same input errors, in time quadratic in the family."""
    if not family.bases:
        raise InvalidInputError("base family must be nonempty")
    sizes = {b.cardinality() for b in family.bases}
    if len(sizes) != 1:
        raise InvalidInputError("bases must be equicardinal")
    masks = sorted({b.mask for b in family.bases})
    mask_set = set(masks)
    for xm in masks:
        for ym in masks:
            diff = xm & ~ym
            if not diff:
                continue
            candidates = ym & ~xm
            v = diff
            while v:
                vbit = v & -v
                u = candidates
                ok = False
                while u:
                    ubit = u & -u
                    if (xm ^ vbit) | ubit in mask_set:
                        ok = True
                        break
                    u ^= ubit
                if not ok:
                    return False
                v ^= vbit
    return True


def dual_valuation_memoized(omega: ValuationOracle) -> ValuationOracle:
    """`valuated.dual_valuation` as it was before the dual became a leaf:
    it keeps a memo over omega's, and only its misses reach omega, each
    as `raw_value` of the complement.  Same values, and the same `calls`
    on the dual; omega may be asked less."""
    witness = None
    if omega.witness_base is not None:
        witness = omega.witness_base.complement()
    ground = omega.ground
    return ValuationOracle(ground, ground.size - omega.rank,
                           lambda x: omega.raw_value(x.complement()), witness,
                           f"dual({omega.name})", omega.scale)
