"""Exhaustive oracles for every problem in scope.

These are the ground truth behind all derived example values and
equivalence tests.  No cleverness: every oracle is one scan of a domain
product, :func:`_minima`.  The scan refuses a product past its limit
before it values any point, values and keys each domain point once, walks
the product lazily, and keeps per level the smallest (total, sort keys):
ties go to the lexicographically smallest solution tuple.  An oracle adds
only its feasibility test and its added cost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    INF,
    ExtValue,
    IntVector,
    ResourceLimitError,
    Subset,
    componentwise_min,
    dot,
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


def _minima(domains: Sequence[Sequence], costs: Sequence[Callable],
            score: Callable, limit: int) -> dict[int, tuple]:
    """Per level, the entry ((total, sort keys), tuple) of the domain
    product's tuple with the smallest (total, sort keys).

    `costs[i]` values a point of `domains[i]`.  `score(*points)` is None
    for an infeasible tuple, else its level and added cost; the total is
    the added cost plus the costs of the points.
    """
    size = math.prod(len(d) for d in domains)
    if size > limit:
        raise ResourceLimitError(
            f"enumeration of {size} tuples exceeds limit {limit}")
    valued = [[(cost(x), x.entries if isinstance(x, IntVector)
                else x.sort_key(), x) for x in domain]
              for domain, cost in zip(domains, costs)]
    best: dict[int, tuple] = {}
    for combo in itertools.product(*valued):
        values, keys, points = zip(*combo)
        scored = score(*points)
        if scored is None:
            continue
        level, added = scored
        key = (sum(values, added), keys)
        entry = best.get(level)
        if entry is None or key < entry[0]:
            best[level] = (key, points)
    return best


def _values(oracles) -> list[Callable]:
    return [lambda x, oracle=oracle: oracle.value(x).finite
            for oracle in oracles]


def _optimum(entries: Iterable[Optional[tuple]],
             vectors: bool = False) -> BruteResult:
    """The smallest of some `_minima` entries, None standing for none."""
    chosen = min((e for e in entries if e is not None), key=itemgetter(0),
                 default=None)
    if chosen is None:
        return BruteResult("infeasible")
    (total, _), points = chosen
    if vectors:
        return BruteResult("optimal", None, points, ExtValue(total))
    return BruteResult("optimal", points, None, ExtValue(total))


def _by_intersection(omega1: ValuationOracle, omega2: ValuationOracle,
                     limit: int) -> list[Optional[tuple]]:
    """The `_minima` entry of each intersection size 0..|V|, or None."""
    best = _minima([omega1.enumerate_domain(), omega2.enumerate_domain()],
                   _values((omega1, omega2)),
                   lambda x1, x2: ((x1.mask & x2.mask).bit_count(),
                                   Fraction(0)), limit)
    return [best.get(j) for j in range(omega1.ground.size + 1)]


def best_value_per_intersection(omega1: ValuationOracle,
                                omega2: ValuationOracle,
                                limit: int = DEFAULT_PAIR_LIMIT,
                                ) -> list[Optional[tuple[Fraction, Subset, Subset]]]:
    """For each intersection size j, the best pair with |X1 ^ X2| = j.

    One pass over the domain product serves all three constraint variants.
    """
    return [None if e is None else (e[0][0], *e[1])
            for e in _by_intersection(omega1, omega2, limit)]


def brute_v_geq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                  limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    best = _by_intersection(omega1, omega2, limit)
    return _optimum(best[j] for j in range(k, len(best)))


def brute_v_eq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                 limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    best = _by_intersection(omega1, omega2, limit)
    if k >= len(best):
        return BruteResult("infeasible")
    return _optimum([best[k]])


def brute_v_leq_k(omega1: ValuationOracle, omega2: ValuationOracle, k: int,
                  limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    best = _by_intersection(omega1, omega2, limit)
    return _optimum(best[j] for j in range(0, min(k, len(best) - 1) + 1))


def brute_v_In(omegas: Sequence[ValuationOracle], constraint: MatroidOracle,
               limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    def score(*xs):
        common = Subset(constraint.ground, reduce(and_, (x.mask for x in xs)))
        return (0, Fraction(0)) if constraint.is_independent(common) else None
    return _optimum(_minima([om.enumerate_domain() for om in omegas],
                            _values(omegas), score, limit).values())


def brute_v_n_w(omegas: Sequence[ValuationOracle], weights: Sequence[Fraction],
                limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    ws = tuple(Fraction(w) for w in weights)
    ground = omegas[0].ground

    def score(*xs):
        return 0, dot(ws, Subset(ground, reduce(and_, (x.mask for x in xs))))
    return _optimum(_minima([om.enumerate_domain() for om in omegas],
                            _values(omegas), score, limit).values())


def brute_m_geq_k_w(f1: MnatFunction, f2: MnatFunction, k: int,
                    weights: Sequence[Fraction],
                    limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    ws = tuple(Fraction(w) for w in weights)

    def score(x1, x2):
        low = componentwise_min(x1, x2)
        if low.total() < k:
            return None
        return 0, sum((w * low[v] for v, w in enumerate(ws)), Fraction(0))
    return _optimum(_minima([f1.enumerate_domain(), f2.enumerate_domain()],
                            _values((f1, f2)), score, limit).values(),
                    vectors=True)


def brute_copic(matroid1: MatroidOracle, matroid2: MatroidOracle,
                w1: Sequence[Fraction], w2: Sequence[Fraction],
                q: Sequence[Fraction],
                limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    w1, w2, q = (tuple(Fraction(w) for w in ws) for ws in (w1, w2, q))
    return _optimum(_minima(
        [enumerate_bases(matroid1), enumerate_bases(matroid2)],
        [lambda x: dot(w1, x), lambda x: dot(w2, x)],
        lambda x1, x2: (0, dot(q, x1.intersection(x2))), limit).values())


def brute_congestion(omegas: Sequence[ValuationOracle],
                     delays: Sequence[Sequence[Fraction]],
                     limit: int = DEFAULT_PAIR_LIMIT) -> BruteResult:
    """Minimum total cost over all states: sum of the player valuations
    plus, per resource, (number of users) times the delay at that load.
    """
    ground = omegas[0].ground

    def score(*xs):
        added = Fraction(0)
        for v in ground.elements():
            load = sum(1 for x in xs if x.contains(v))
            added += load * Fraction(delays[v][load])
        return 0, added
    return _optimum(_minima([om.enumerate_domain() for om in omegas],
                            _values(omegas), score, limit).values())
