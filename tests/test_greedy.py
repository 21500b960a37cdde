"""Exchange-descent minimization of a single valuated matroid."""

import random

import pytest

from vmint.core import EmptyDomainError, ExtValue, GroundSet
from vmint.greedy import minimize_valuated, minimizer_family
from vmint.matroid import ExplicitBaseFamily, check_base_exchange, make_uniform
from vmint.rand_instances import random_matroid, random_weights
from vmint.valuated import (
    ValuationOracle,
    from_matroid_and_weights,
    valuation_from_explicit,
)


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
