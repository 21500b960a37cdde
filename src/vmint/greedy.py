"""Global minimization of a single valuated matroid by exchange descent.

For valuated matroids, a point admitting no improving single exchange is a
global minimizer, so steepest descent from the witness base terminates with
a global certificate.  Each step strictly decreases an exact value and the
domain is finite, so termination is guaranteed.  A step asks the oracle
for the best single exchange of the current base in one query, so a
leaf with a `best_fn` answers a whole step without building its block.
"""

from __future__ import annotations

from .core import ExtValue, Subset
from .valuated import ValuationOracle


def minimize_valuated(omega: ValuationOracle) -> tuple[Subset, ExtValue]:
    """Find a global minimizer of a valuated matroid and its value.

    Steepest single-exchange descent from the witness base; among equally
    improving exchanges the lexicographically smallest (u, v) index pair is
    taken, for reproducibility.  Each step asks the oracle for the best
    exchange of every member u against every non-member v (see
    `ValuationOracle.best_exchange`): the smallest value of that u-major
    block and the index of its first occurrence, which is that smallest
    pair.  It counts as the whole block.  The descent compares the
    oracle's raw values (ints in units of 1/D for a scaled oracle).
    """
    current = omega.require_witness()
    current_value = omega.raw_value(current)
    elements = range(omega.ground.size)
    while True:
        mask = current.mask
        members = current.members()
        outside = [v for v in elements if not mask >> v & 1]
        best = omega.best_exchange(current, members, outside)
        if best is None or best[0] >= current_value:
            return current, omega.as_value(current_value)
        current_value, index = best
        i, j = divmod(index, len(outside))
        current = current.exchange(members[i], outside[j])
