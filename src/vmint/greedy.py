"""Global minimization of a single valuated matroid by exchange descent.

For valuated matroids, a point admitting no improving single exchange is a
global minimizer, so steepest descent from the witness base terminates with
a global certificate.  Each step strictly decreases an exact value and the
domain is finite, so termination is guaranteed.
"""

from __future__ import annotations

from .core import EmptyDomainError, ExtValue, Subset
from .valuated import DEFAULT_DOMAIN_LIMIT, ValuationOracle


def minimize_valuated(omega: ValuationOracle) -> tuple[Subset, ExtValue]:
    """Find a global minimizer of a valuated matroid and its value.

    Steepest single-exchange descent from the witness base; among equally
    improving exchanges the lexicographically smallest (u, v) index pair is
    taken, for reproducibility.  The descent compares the oracle's raw
    values (ints in units of 1/D for a scaled oracle).
    """
    current = omega.require_witness()
    current_value = omega.raw_value(current)
    exchange = omega.raw_exchange
    elements = range(omega.ground.size)
    while True:
        best_value = current_value
        best_exchange = None
        mask = current.mask
        outside = [v for v in elements if not mask >> v & 1]
        for u in current.members():
            for v in outside:
                candidate = exchange(current, u, v)
                if candidate is not None and candidate < best_value:
                    best_value = candidate
                    best_exchange = (u, v)
        if best_exchange is None:
            return current, omega.as_value(current_value)
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
