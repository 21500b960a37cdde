"""Exhaustive oracles for every problem in scope.

These are the ground truth behind all derived example values and
equivalence tests.  No cleverness: full enumeration of the feasible sets,
with configurable limits that are enforced, never silently exceeded, and
ties broken by the lexicographically smallest solution tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    INF,
    ExtValue,
    IntVector,
    ResourceLimitError,
    Subset,
    componentwise_min,
)
from .matroid import MatroidOracle, enumerate_bases
from .valuated import MnatFunction, ValuationOracle

DEFAULT_PAIR_LIMIT = 1_000_000


@dataclass
class BruteResult:
    status: str
    sets: Optional[tuple[Subset, ...]] = None
    vectors: Optional[tuple[IntVector, ...]] = None
    value: ExtValue = INF

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _check_pair_limit(sizes: Sequence[int], limit: int) -> None:
    product = 1
    for s in sizes:
        product *= s
    if product > limit:
        raise ResourceLimitError(
            f"enumeration of {product} tuples exceeds limit {limit}")


def best_value_per_intersection(omega1: ValuationOracle,
                                omega2: ValuationOracle,
                                limit: int = DEFAULT_PAIR_LIMIT,
                                ) -> list[Optional[tuple[Fraction, Subset, Subset]]]:
    """For each intersection size j, the best pair with |X1 ^ X2| = j.

    One pass over the domain product serves all three constraint variants.
    """
    dom1 = omega1.enumerate_domain()
    dom2 = omega2.enumerate_domain()
    _check_pair_limit([len(dom1), len(dom2)], limit)
    best: list[Optional[tuple[Fraction, Subset, Subset]]] = \
        [None] * (omega1.ground.size + 1)
    values2 = [(x2, omega2.value(x2).finite) for x2 in dom2]
    for x1 in dom1:
        v1 = omega1.value(x1).finite
        for x2, v2 in values2:
            j = bin(x1.mask & x2.mask).count("1")
            total = v1 + v2
            entry = best[j]
            if entry is None or (total, x1.sort_key(), x2.sort_key()) < \
                    (entry[0], entry[1].sort_key(), entry[2].sort_key()):
                best[j] = (total, x1, x2)
    return best


def _pick(best, levels) -> BruteResult:
    chosen = None
    for j in levels:
        entry = best[j]
        if entry is None:
            continue
        if chosen is None or (entry[0], entry[1].sort_key(), entry[2].sort_key()) \
                < (chosen[0], chosen[1].sort_key(), chosen[2].sort_key()):
            chosen = entry
    if chosen is None:
        return BruteResult("infeasible")
    return BruteResult("optimal", (chosen[1], chosen[2]), None,
                       ExtValue(chosen[0]))


def brute_v_geq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                  limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    best = best_value_per_intersection(omega1, omega2, limit)
    return _pick(best, range(k, len(best)))


def brute_v_eq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                 limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    best = best_value_per_intersection(omega1, omega2, limit)
    if k >= len(best):
        return BruteResult("infeasible")
    return _pick(best, [k])


def brute_v_leq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                  limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    best = best_value_per_intersection(omega1, omega2, limit)
    return _pick(best, range(0, min(k, len(best) - 1) + 1))


def brute_v_In(omegas: Sequence[ValuationOracle], constraint: MatroidOracle,
               limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    domains = [om.enumerate_domain() for om in omegas]
    _check_pair_limit([len(d) for d in domains], limit)
    chosen = None
    for combo in itertools.product(*domains):
        inter_mask = combo[0].mask
        for part in combo[1:]:
            inter_mask &= part.mask
        if not constraint.is_independent(Subset(constraint.ground, inter_mask)):
            continue
        total = sum((om.value(x).finite for om, x in zip(omegas, combo)),
                    Fraction(0))
        key = (total, tuple(x.sort_key() for x in combo))
        if chosen is None or key < chosen[0]:
            chosen = (key, combo)
    if chosen is None:
        return BruteResult("infeasible")
    return BruteResult("optimal", chosen[1], None, ExtValue(chosen[0][0]))


def brute_v_n_w(omegas: Sequence[ValuationOracle], weights: Sequence[Fraction],
                limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    ws = tuple(Fraction(w) for w in weights)
    domains = [om.enumerate_domain() for om in omegas]
    _check_pair_limit([len(d) for d in domains], limit)
    chosen = None
    for combo in itertools.product(*domains):
        inter_mask = combo[0].mask
        for part in combo[1:]:
            inter_mask &= part.mask
        total = sum((om.value(x).finite for om, x in zip(omegas, combo)),
                    Fraction(0))
        v = inter_mask
        while v:
            bit = v & -v
            total += ws[bit.bit_length() - 1]
            v ^= bit
        key = (total, tuple(x.sort_key() for x in combo))
        if chosen is None or key < chosen[0]:
            chosen = (key, combo)
    if chosen is None:
        return BruteResult("infeasible")
    return BruteResult("optimal", chosen[1], None, ExtValue(chosen[0][0]))


def brute_m_geq_k_w(f1: MnatFunction, f2: MnatFunction, k: int,
                    weights: Sequence[Fraction],
                    limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    ws = tuple(Fraction(w) for w in weights)
    dom1 = f1.enumerate_domain()
    dom2 = f2.enumerate_domain()
    _check_pair_limit([len(dom1), len(dom2)], limit)
    chosen = None
    for x1 in dom1:
        v1 = f1.value(x1).finite
        for x2 in dom2:
            low = componentwise_min(x1, x2)
            if low.total() < k:
                continue
            total = v1 + f2.value(x2).finite + sum(
                (w * low[v] for v, w in enumerate(ws)), Fraction(0))
            key = (total, x1.entries, x2.entries)
            if chosen is None or key < chosen[0]:
                chosen = (key, (x1, x2))
    if chosen is None:
        return BruteResult("infeasible")
    return BruteResult("optimal", None, chosen[1], ExtValue(chosen[0][0]))


def brute_copic(matroid1: MatroidOracle, matroid2: MatroidOracle,
                w1: Sequence[Fraction], w2: Sequence[Fraction],
                q: Sequence[Fraction],
                limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    w1 = tuple(Fraction(w) for w in w1)
    w2 = tuple(Fraction(w) for w in w2)
    q = tuple(Fraction(w) for w in q)
    bases1 = enumerate_bases(matroid1)
    bases2 = enumerate_bases(matroid2)
    _check_pair_limit([len(bases1), len(bases2)], limit)
    chosen = None
    for x1 in bases1:
        for x2 in bases2:
            total = Fraction(0)
            for v in x1.members():
                total += w1[v]
            for v in x2.members():
                total += w2[v]
            inter = x1.mask & x2.mask
            while inter:
                bit = inter & -inter
                total += q[bit.bit_length() - 1]
                inter ^= bit
            key = (total, x1.sort_key(), x2.sort_key())
            if chosen is None or key < chosen[0]:
                chosen = (key, (x1, x2))
    if chosen is None:
        return BruteResult("infeasible")
    return BruteResult("optimal", chosen[1], None, ExtValue(chosen[0][0]))


def brute_congestion(omegas: Sequence[ValuationOracle],
                     delays: Sequence[Sequence[Fraction]],
                     limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    """Minimum total cost over all states: sum of the player valuations
    plus, per resource, (number of users) times the delay at that load.
    """
    domains = [om.enumerate_domain() for om in omegas]
    _check_pair_limit([len(d) for d in domains], limit)
    ground = omegas[0].ground
    chosen = None
    for combo in itertools.product(*domains):
        total = sum((om.value(x).finite for om, x in zip(omegas, combo)),
                    Fraction(0))
        for v in ground.elements():
            load = sum(1 for x in combo if x.contains(v))
            total += load * Fraction(delays[v][load])
        key = (total, tuple(x.sort_key() for x in combo))
        if chosen is None or key < chosen[0]:
            chosen = (key, combo)
    if chosen is None:
        return BruteResult("infeasible")
    return BruteResult("optimal", chosen[1], None, ExtValue(chosen[0][0]))
