"""Exchange-descent minimization of a single valuated matroid."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vmint.core import EmptyDomainError, ExtValue, GroundSet, dot
from vmint.greedy import minimize_valuated
from vmint.matroid import ExplicitBaseFamily, check_base_exchange, make_uniform
from vmint.rand_instances import MATROID_KINDS, random_matroid, random_weights
from vmint.valuated import (
    ValuationOracle,
    dual_valuation,
    from_matroid_and_weights,
    size_constrained_modular,
)

from references import minimizer_family, valuation_from_explicit


def test_uniform_example():
    g3 = GroundSet(3, ("a", "b", "c"))
    omega = from_matroid_and_weights(make_uniform(g3, 2), [1, 2, 4])
    best, value = minimize_valuated(omega)
    assert best == g3.subset([0, 1])
    assert value == ExtValue(3)


def test_single_point_domain():
    g3 = GroundSet(3)
    omega = valuation_from_explicit(g3, 2, {0b011: 7})
    best, value = minimize_valuated(omega)
    assert best.mask == 0b011 and value == ExtValue(7)


def test_indicator_any_base():
    g3 = GroundSet(3)
    omega = from_matroid_and_weights(make_uniform(g3, 2), [0, 0, 0])
    _, value = minimize_valuated(omega)
    assert value == ExtValue(0)


def test_matches_exhaustive_minimum():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 8)
        ground = GroundSet(n)
        omega = from_matroid_and_weights(
            random_matroid(rng, ground), random_weights(rng, n))
        best, value = minimize_valuated(omega)
        exhaustive = min(omega.value(x) for x in omega.enumerate_domain())
        assert value == exhaustive
        # Termination certificate: no improving single exchange.
        for u in best.members():
            for v in range(n):
                if not best.contains(v):
                    assert not omega.value(best.exchange(u, v)) < value


def test_minimizer_family_examples():
    g3 = GroundSet(3, ("a", "b", "c"))
    omega = from_matroid_and_weights(make_uniform(g3, 2), [1, 1, 2])
    family = minimizer_family(omega)
    assert [x.mask for x in family] == [0b011]
    flat = from_matroid_and_weights(make_uniform(GroundSet(2), 1), [0, 0])
    assert len(minimizer_family(flat)) == 2
    single = valuation_from_explicit(GroundSet(2), 1, {0b01: 4})
    assert [x.mask for x in minimizer_family(single)] == [0b01]


def test_minimizer_family_is_base_family():
    rng = random.Random(67)
    for _ in range(25):
        n = rng.randint(1, 7)
        ground = GroundSet(n)
        omega = from_matroid_and_weights(
            random_matroid(rng, ground), random_weights(rng, n))
        family = minimizer_family(omega)
        assert check_base_exchange(ExplicitBaseFamily.of(ground, family))


def test_empty_domain_errors():
    g2 = GroundSet(2)
    empty = ValuationOracle(g2, 1, lambda x: None, None)
    with pytest.raises(EmptyDomainError):
        minimize_valuated(empty)


def _pairwise_minimize(omega):
    """The descent as it was before block queries, kept verbatim as the
    reference: one `raw_exchange` per (u, v) pair."""
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8),
       st.sampled_from(MATROID_KINDS + ("explicit", "dual", "size")))
def test_block_descent_equals_the_pairwise_descent(seed, n, kind):
    # Tie-heavy weights: few distinct values, so many exchanges improve
    # equally and the lexicographic tie rule decides the path.
    rng = random.Random(seed)
    ground = GroundSet(n)
    levels = [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
              for _ in range(rng.randint(1, 3))]
    weights = tuple(rng.choice(levels) for _ in range(n))
    matroid = random_matroid(rng, ground, max_rank=rng.randint(0, n),
                             kinds=MATROID_KINDS if kind in (
                                 "explicit", "dual", "size") else (kind,))
    if kind == "explicit":
        table = {x.mask: dot(weights, x)
                 for x in ground.subsets_of_size(matroid.rank)
                 if matroid.is_independent(x)}

        def make():
            return [valuation_from_explicit(ground, matroid.rank, table)]
    elif kind == "dual":
        def make():
            omega = from_matroid_and_weights(matroid, weights)
            return [dual_valuation(omega), omega]
    elif kind == "size":
        def make():
            return [size_constrained_modular(ground, weights, matroid.rank)]
    else:
        def make():
            return [from_matroid_and_weights(matroid, weights)]
    ours, theirs = make(), make()
    assert minimize_valuated(ours[0]) == _pairwise_minimize(theirs[0])
    for a, b in zip(ours, theirs):
        assert (a.calls, a.evals) == (b.calls, b.evals)
        assert list(a._memo.items()) == list(b._memo.items())
