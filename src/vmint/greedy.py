"""Global minimization of a single valuated matroid by exchange descent.

For valuated matroids, a point admitting no improving single exchange is a
global minimizer, so steepest descent from the witness base terminates with
a global certificate.  Each step strictly decreases an exact rational and
the domain is finite, so termination is guaranteed.
"""

from __future__ import annotations

from .core import EmptyDomainError, ExtValue, Subset
from .valuated import DEFAULT_DOMAIN_LIMIT, ValuationOracle


def minimize_valuated(omega: ValuationOracle) -> tuple[Subset, ExtValue]:
    """Find a global minimizer of a valuated matroid and its value.

    Steepest single-exchange descent from the witness base; among equally
    improving exchanges the lexicographically smallest (u, v) index pair is
    taken, for reproducibility.
    """
    current = omega.require_witness()
    current_value = omega.value(current)
    n = omega.ground.size
    while True:
        best_value = current_value
        best_exchange = None
        for u in range(n):
            if not current.contains(u):
                continue
            for v in range(n):
                if current.contains(v):
                    continue
                candidate_value = omega.exchange_value(current, u, v)
                if candidate_value < best_value:
                    best_value = candidate_value
                    best_exchange = (u, v)
        if best_exchange is None:
            return current, current_value
        current = current.exchange(*best_exchange)
        current_value = best_value


def minimizer_family(omega: ValuationOracle,
                     limit: int = DEFAULT_DOMAIN_LIMIT) -> list[Subset]:
    """All global minimizers, by exhaustive domain enumeration.

    The result is a base family of a matroid; tests verify the exchange
    axiom on it.
    """
    domain = omega.enumerate_domain(limit)
    if not domain:
        raise EmptyDomainError("empty domain has no minimizers")
    best = min(omega.value(x) for x in domain)
    return [x for x in domain if omega.value(x) == best]
