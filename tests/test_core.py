"""Exact arithmetic and the basic set/vector types."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vmint.core import (
    INF,
    ExtValue,
    GroundSet,
    IntVector,
    InvalidInputError,
    Subset,
    componentwise_min,
    intersection_cardinality,
    parse_rational,
    scaled_weights,
    subset_to_vector,
    vector_to_subset,
)

rationals = st.fractions(max_denominator=50)


@given(st.lists(st.one_of(rationals, st.integers(-99, 99)), max_size=8))
def test_scaled_weights_are_integers_over_the_lcm(weights):
    scaled, scale = scaled_weights(weights)
    assert all(type(w) is int for w in scaled)
    assert [Fraction(w, scale) for w in scaled] == weights
    assert scale == math.lcm(*(Fraction(w).denominator for w in weights))
    assert scaled_weights([str(w) for w in weights]) == (scaled, scale)


class TestExtValue:
    @given(rationals, rationals)
    def test_addition_subtraction_exact(self, a, b):
        assert (ExtValue(a) + ExtValue(b) - b).finite == a

    @given(rationals, rationals, rationals)
    def test_associativity_exact(self, a, b, c):
        left = (ExtValue(a) + ExtValue(b)) + ExtValue(c)
        right = ExtValue(a) + (ExtValue(b) + ExtValue(c))
        assert left == right

    @given(rationals)
    def test_infinity_absorbs_and_dominates(self, a):
        assert INF + ExtValue(a) == INF
        assert ExtValue(a) + INF == INF
        assert ExtValue(a) < INF
        assert not INF < ExtValue(a)

    @given(rationals, rationals)
    def test_comparison_total(self, a, b):
        x, y = ExtValue(a), ExtValue(b)
        assert (x < y) or (y < x) or (x == y)

    def test_minus_infinity_unrepresentable(self):
        with pytest.raises(ArithmeticError):
            -INF
        with pytest.raises(ArithmeticError):
            ExtValue(1) - INF

    def test_parse(self):
        assert ExtValue.parse("3/4").finite == Fraction(3, 4)
        assert ExtValue.parse("inf") == INF
        assert parse_rational("-7/2") == Fraction(-7, 2)
        with pytest.raises(InvalidInputError):
            parse_rational("abc")

    def test_decimal_exponent_is_capped(self):
        assert parse_rational(" 1.5e-3 ") == Fraction(3, 2000)
        assert parse_rational("1E+04300") == 10 ** 4300
        assert parse_rational("-2e-4300") == Fraction(-2, 10 ** 4300)
        for text in ("1e999999999", "1e-4301", "1E+0004301", "1e4_301",
                     "1e" + "9" * 5000):
            with pytest.raises(InvalidInputError, match="exponent"):
                parse_rational(text)


@pytest.fixture
def ground():
    return GroundSet(3, ("a", "b", "c"))


class TestSubsetsAndVectors:
    def test_componentwise_min_examples(self):
        assert componentwise_min(IntVector((1, 3)), IntVector((2, 1))) == \
            IntVector((1, 1))
        x = IntVector((4, 0, 7))
        assert componentwise_min(x, x) == x
        assert componentwise_min(IntVector((0, 0, 5)), IntVector((0, 0, 0))) \
            == IntVector((0, 0, 0))

    def test_componentwise_min_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            componentwise_min(IntVector((1,)), IntVector((1, 2)))

    def test_subset_to_vector_examples(self, ground):
        assert subset_to_vector(ground.empty()) == IntVector((0, 0, 0))
        assert subset_to_vector(ground.subset([0, 2])) == IntVector((1, 0, 1))
        assert subset_to_vector(ground.full()) == IntVector((1, 1, 1))

    def test_subset_vector_bijection(self, ground):
        seen = set()
        for subset in ground.all_subsets():
            vec = subset_to_vector(subset)
            assert vector_to_subset(ground, vec) == subset
            seen.add(vec.entries)
        assert len(seen) == 8

    def test_intersection_cardinality_examples(self, ground):
        ab = ground.subset([0, 1])
        bc = ground.subset([1, 2])
        assert intersection_cardinality(ab, bc) == 1
        assert intersection_cardinality(ab, ab) == 2
        assert intersection_cardinality(ab, ground.empty()) == 0

    def test_labels_unique(self):
        with pytest.raises(InvalidInputError):
            GroundSet(2, ("x", "x"))

    def test_subsets_of_size(self, ground):
        pairs = list(ground.subsets_of_size(2))
        assert len(pairs) == 3
        assert all(p.cardinality() == 2 for p in pairs)

    @given(st.integers(1, 70), st.data())
    def test_members_ascending(self, n, data):
        mask = data.draw(st.integers(0, (1 << n) - 1))
        subset = Subset(GroundSet(n), mask)
        assert subset.members() == tuple(i for i in range(n) if mask >> i & 1)

    @given(st.integers(65, 400), st.data())
    def test_members_of_sparse_and_dense_masks(self, n, data):
        # A mask of at most 64 members is read by clearing bits, any
        # other by a scan of its digits.
        size = data.draw(st.integers(0, n))
        chosen = data.draw(st.permutations(range(n)))[:size]
        ground = GroundSet(n)
        subset = ground.subset(chosen)
        assert subset.mask == sum(1 << i for i in chosen)
        assert subset.members() == tuple(sorted(chosen))

    def test_sort_key_is_lexicographic(self, ground):
        # {a, c} before {b, c}: member-tuple order, not mask order.
        ac = ground.subset([0, 2])
        bc = ground.subset([1, 2])
        assert ac.sort_key() < bc.sort_key()
